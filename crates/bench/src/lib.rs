//! The `antc` CLI and the `antd` daemon, plus shared helpers for the ANT
//! reproduction's report binaries.
//!
//! Each table/figure in the paper has a binary in `src/bin/` that prints
//! the corresponding rows/series (see DESIGN.md §4 for the index); the
//! helpers here cover the pieces several binaries share: table rendering
//! and the three trained reference models used by the accuracy
//! experiments. Runtime timings have one harness, `antc bench`
//! ([`antc::run_bench`]), which writes `BENCH_runtime.json`.

pub mod alloc;
pub mod antc;
pub mod antd;
pub mod http;
pub mod json;
pub mod promcheck;

use ant_nn::data::{blobs, motifs, shapes, Dataset};
use ant_nn::model::{deep_mlp, small_cnn, tiny_transformer, Sequential};
use ant_nn::train::{train, TrainConfig};
use ant_nn::NnError;

/// Renders an aligned text table: a header row plus data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// A trained reference model with its datasets, ready for quantization
/// experiments.
pub struct TrainedModel {
    /// Display name ("MLP", "CNN", "Transformer").
    pub name: &'static str,
    /// The trained network.
    pub model: Sequential,
    /// Training split.
    pub train_set: Dataset,
    /// Held-out split.
    pub test_set: Dataset,
    /// FP32 test accuracy after training.
    pub fp32_accuracy: f64,
}

fn finish(
    name: &'static str,
    mut model: Sequential,
    data: Dataset,
    cfg: TrainConfig,
) -> Result<TrainedModel, NnError> {
    let (train_set, test_set) = data.split(0.25);
    train(&mut model, &train_set, cfg)?;
    let fp32_accuracy = ant_nn::train::evaluate(&mut model, &test_set)?;
    Ok(TrainedModel {
        name,
        model,
        train_set,
        test_set,
        fp32_accuracy,
    })
}

/// Trains the deep MLP on the hard blobs task (10 near-overlapping
/// clusters): depth compounds quantization error, so the combo ordering of
/// Fig. 11 is measurable at this scale.
///
/// # Errors
///
/// Propagates training failures.
pub fn trained_mlp(seed: u64) -> Result<TrainedModel, NnError> {
    finish(
        "MLP",
        deep_mlp(16, 10, 24, 6, seed),
        blobs(1600, 16, 10, 1.0, seed.wrapping_add(1)),
        TrainConfig {
            epochs: 30,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            seed,
        },
    )
}

/// Trains the CNN on the noisy shapes task.
///
/// # Errors
///
/// Propagates training failures.
pub fn trained_cnn(seed: u64) -> Result<TrainedModel, NnError> {
    finish(
        "CNN",
        small_cnn(4, seed),
        shapes(480, 0.4, seed.wrapping_add(1)),
        TrainConfig {
            epochs: 10,
            batch_size: 16,
            lr: 0.05,
            momentum: 0.9,
            seed,
        },
    )
}

/// Trains the tiny Transformer on the six-motif task with a narrow
/// embedding (quantization-sensitive).
///
/// # Errors
///
/// Propagates training failures.
pub fn trained_transformer(seed: u64) -> Result<TrainedModel, NnError> {
    finish(
        "Transformer",
        tiny_transformer(8, 8, 6, seed),
        motifs(960, 8, 8, 6, seed.wrapping_add(1)),
        TrainConfig {
            epochs: 25,
            batch_size: 32,
            lr: 0.03,
            momentum: 0.9,
            seed,
        },
    )
}

/// All three reference models (used by Figs. 11/12 and Tables V/VI).
///
/// # Errors
///
/// Propagates training failures.
pub fn all_trained_models(seed: u64) -> Result<Vec<TrainedModel>, NnError> {
    Ok(vec![
        trained_mlp(seed)?,
        trained_cnn(seed)?,
        trained_transformer(seed)?,
    ])
}

/// One row of the Figs. 11/12 accuracy experiment: a model × combo cell.
#[derive(Debug, Clone)]
pub struct AccuracyCell {
    /// Model name.
    pub model: &'static str,
    /// Combination label ("Int", "IP", ..., "ANT4-8").
    pub combo: String,
    /// FP32 reference accuracy.
    pub fp32: f64,
    /// Quantized accuracy (PTQ or post-QAT depending on the experiment).
    pub quantized: f64,
}

impl AccuracyCell {
    /// Accuracy loss in percentage points (the paper's y-axis).
    pub fn loss_points(&self) -> f64 {
        (self.fp32 - self.quantized) * 100.0
    }
}

/// Runs the Fig. 11 (PTQ, `fine_tune_epochs == 0`) or Fig. 12 (QAT)
/// experiment over the reference models and all five combinations.
///
/// # Errors
///
/// Propagates training/quantization failures.
pub fn accuracy_experiment(
    fine_tune_epochs: usize,
    seed: u64,
) -> Result<Vec<AccuracyCell>, NnError> {
    use ant_core::select::PrimitiveCombo;
    use ant_nn::qat::{QatHarness, QuantSpec};
    let mut cells = Vec::new();
    for reference in all_trained_models(seed)? {
        for combo in PrimitiveCombo::all() {
            let spec = QuantSpec {
                combo,
                ..QuantSpec::default()
            };
            let (calib, _) = reference
                .train_set
                .batch(&(0..100.min(reference.train_set.len())).collect::<Vec<_>>());
            let mut harness = QatHarness::new(
                reference.model.clone(),
                spec,
                calib,
                reference.train_set.clone(),
                reference.test_set.clone(),
                TrainConfig {
                    epochs: fine_tune_epochs,
                    batch_size: 32,
                    lr: 0.02,
                    momentum: 0.9,
                    seed: seed.wrapping_add(99),
                },
            )?;
            if fine_tune_epochs > 0 {
                harness.fine_tune()?;
            }
            cells.push(AccuracyCell {
                model: reference.name,
                combo: combo.label().to_string(),
                fp32: reference.fp32_accuracy,
                quantized: harness.test_accuracy()?,
            });
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let s = render_table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1.00".to_string()],
                vec!["longer".to_string(), "2".to_string()],
            ],
        );
        assert!(s.contains("name"));
        assert!(s.contains("longer"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn reference_models_train_to_usable_accuracy() {
        let m = trained_mlp(5).unwrap();
        assert!(m.fp32_accuracy > 0.6, "MLP fp32 {}", m.fp32_accuracy);
    }
}
