//! # ant-runtime: packed-domain quantized inference
//!
//! The rest of the workspace *chooses* ANT types ([`ant_core::select`]),
//! *trains* against them ([`ant_nn::qat`]) and *models the hardware* that
//! executes them (`ant-hw`). This crate closes the loop: it actually runs
//! inference on the packed low-bit representation.
//!
//! * [`Planner`] / [`CompiledPlan`] — plan compilation: walk a trained
//!   [`ant_nn::model::Sequential`], run (or replay from a memoizing cache)
//!   Algorithm-2 type selection, and emit packed wire-code weights
//!   ([`ant_core::pack::PackedTensor`]) plus per-layer scales and decode
//!   LUTs. Dense ([`PackedLinear`]), convolution ([`PackedConv`], via an
//!   integer im2row) and attention ([`PackedAttn`], integer Q/K/V with f32
//!   softmax at the decode boundary) all execute on wire codes;
//!   shape-polymorphic layers (ReLU/GELU/pool/norm) ride along, so CNN and
//!   Transformer pipelines compile whole. A plan is packed or it does not
//!   compile: a selection the integer domain cannot execute exactly (the
//!   `float` primitive, 6-bit PoT) is a
//!   [`RuntimeError::UnsupportedLayer`] from every entry point — the
//!   runtime mirrors the paper's int-based PE and has no float executor,
//! * [`crate::gemm`] — exact integer-domain GEMM over LUT-decoded
//!   operands, the software mirror of the TypeFusion decoder → int-PE
//!   pipeline (paper Figs. 6–9), numerics validated code-for-code against
//!   `ant-hw`, plus the integer im2row conv lowering. The hot path is the
//!   narrow-operand microkernel ([`crate::gemm::PanelGemm`]): weights
//!   decode once into `i8`/`i16` panel images, activations quantize to
//!   the same width, and a register-blocked `4×8` tile accumulates in
//!   `i32` with a provably safe widening cadence (AVX2 byte path behind
//!   runtime detection) — low-bit operands at low-bit-integer speed, the
//!   paper's Sec. VI-A economics in software,
//! * [`WorkerPool`] — a persistent work-claiming thread pool shared
//!   across layers, batches and engines (no per-GEMM thread spawning),
//!   partitioning GEMMs over output rows *and* columns so batch-1
//!   requests against wide layers still scale,
//! * [`Scratch`] — the per-plan buffer arena behind
//!   [`CompiledPlan::forward_rows`]: after warmup, steady-state serving
//!   performs zero heap allocations per request inside the plan,
//! * [`obs`] — the runtime's hooks over the `ant-obs` telemetry spine,
//!   always compiled (there is one build): per-layer-kind timing/work
//!   counters, engine queue/batch/latency metrics, pool and artifact
//!   telemetry, request spans. Recording is relaxed atomic adds on
//!   preallocated storage, so the zero-allocation steady state holds
//!   with telemetry recording,
//! * [`Engine`] — a batch scheduler: [`Engine::submit`] single requests,
//!   a worker coalesces them under a [`BatchPolicy`] (max-batch /
//!   max-wait) into one batched pass per layer, [`Engine::poll`] or
//!   [`Engine::wait`] for results. Integer execution is exact, so results
//!   are independent of batch grouping. The worker is *supervised*: a
//!   panicking batch fails only its own requests, poisoned requests are
//!   isolated by bisection ([`RuntimeError::PoisonedRequest`]) while
//!   innocents re-execute, and the engine only dies when the
//!   [`BatchPolicy::max_restarts`] budget is exhausted,
//! * [`chaos`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   drives worker panics, slow batches, pool-task panics, mmap-load
//!   failures, reload corruption and connection drops through
//!   instrumented sites, reproducibly by seed; the sites are always
//!   compiled in and cost one atomic load while no plan is
//!   installed,
//! * [`ModelArtifact`] — the quantize-once/serve-anywhere boundary: a
//!   versioned `.antm` binary artifact holding per-tensor type
//!   selections, per-channel scales, packed wire codes, biases/norm
//!   parameters and the planner's memoized selection fingerprints.
//!   Reloading compiles **directly from the wire codes**
//!   (bit-identical to the saved plan); corrupted, truncated or
//!   wrong-version files fail with a structured [`ArtifactError`],
//! * [`MappedArtifact`] — the zero-copy load path:
//!   memory-map the file ([`Mmap`], no crates, raw `mmap`/`munmap`) and
//!   borrow the 64-byte-aligned wire codes *and* pre-packed panel
//!   images straight out of the page cache into the compiled plan
//!   (owned-or-borrowed [`ant_core::store::PackedStore`]). A mapped
//!   load copies zero weight bytes, decodes nothing and re-packs
//!   nothing; the mapping outlives the handle for as long as any plan
//!   borrows it, and N processes serving one file share its pages. The
//!   CRC sweep lives in [`ModelArtifact::verify_bytes`] / `antc
//!   verify`. The byte-level format is specified in `docs/format.md`;
//!   the `antc` CLI (`crates/bench/src/bin/antc.rs`) drives the
//!   `quantize → inspect → verify → serve` flow from the shell.
//!
//! # Quickstart
//!
//! ```
//! use ant_nn::model::mlp;
//! use ant_nn::qat::QuantSpec;
//! use ant_runtime::{BatchPolicy, Engine, Planner};
//! use ant_tensor::dist::{sample_tensor, Distribution};
//!
//! let mut model = mlp(8, 4, 1);
//! let calib = sample_tensor(Distribution::Gaussian { mean: 0.0, std: 1.0 }, &[64, 8], 2);
//! let mut planner = Planner::new();
//! let plan = planner.compile(&mut model, &calib, QuantSpec::default())?;
//! let engine = Engine::new(plan, BatchPolicy::default());
//! let id = engine.submit(&[0.5; 8])?;
//! let logits = engine.wait(id)?;
//! assert_eq!(logits.len(), 4);
//! # Ok::<(), ant_runtime::RuntimeError>(())
//! ```

#![deny(missing_docs)]

mod error;

pub mod artifact;
pub mod cache;
pub mod chaos;
pub mod engine;
pub mod gemm;
pub mod kv;
pub mod mmap;
pub mod obs;
pub mod plan;
pub mod pool;
pub mod scratch;

pub use artifact::{
    probe, ArtifactError, ArtifactInfo, LayerSummary, MappedArtifact, ModelArtifact, SectionInfo,
    WeightSummary, FORMAT_VERSION,
};
pub use cache::{Planner, SelectionCache, TypeDecision};
pub use chaos::{FaultPlan, FaultSite};
pub use engine::{BatchExec, BatchPolicy, Engine, EngineStats, RequestId, SessionId, StepGate};
pub use error::RuntimeError;
pub use kv::{DecodeSession, KvQuantSpec};
pub use mmap::Mmap;
pub use plan::{CompiledPlan, PackedAttn, PackedConv, PackedLinear, PlanLayer, PlanNorm};
pub use pool::WorkerPool;
pub use scratch::Scratch;
