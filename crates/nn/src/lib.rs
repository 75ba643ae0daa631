//! # Minimal DNN substrate with ANT quantization-aware training
//!
//! The ANT paper's accuracy evaluation (Sec. VII-A/B) fine-tunes quantized
//! DNNs; this crate provides the training substrate the reproduction runs
//! it on: layers with explicit backprop, optimizers, losses, seeded
//! synthetic datasets and the QAT/mixed-precision harness. Quantizers from
//! `ant-core` attach directly to compute layers — forward passes see
//! quantized weights/activations while the optimizer updates full-precision
//! masters (the straight-through estimator).
//!
//! # Example: PTQ then QAT on a small MLP
//!
//! ```
//! use ant_nn::data::blobs;
//! use ant_nn::model::mlp;
//! use ant_nn::qat::{quantize_model, QuantSpec};
//! use ant_nn::train::{evaluate, train, TrainConfig};
//!
//! let data = blobs(200, 8, 4, 0.4, 1);
//! let (train_set, test_set) = data.split(0.25);
//! let mut model = mlp(8, 4, 2);
//! train(&mut model, &train_set, TrainConfig { epochs: 5, ..Default::default() })?;
//!
//! // Post-training 4-bit ANT quantization (Algorithm 2 per tensor).
//! let (calib, _) = train_set.batch(&(0..32).collect::<Vec<_>>());
//! let reports = quantize_model(&mut model, &calib, QuantSpec::default())?;
//! assert_eq!(reports.len(), 3);
//! let acc = evaluate(&mut model, &test_set)?;
//! assert!(acc > 0.2); // still far above the 25% chance level after 4-bit PTQ
//! # Ok::<(), ant_nn::NnError>(())
//! ```

#![deny(missing_docs)]

mod error;

pub mod attention;
pub mod data;
pub mod gelu;
pub mod layer;
pub mod loss;
pub mod model;
pub mod optim;
pub mod qat;
pub mod train;
pub mod vmath;

pub use error::NnError;
