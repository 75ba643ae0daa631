//! `antc repro`: the reproduction's figures and tables (ANT Figs. 1 and
//! 10–14, Tables I–VII, plus the design ablations and the Sec. VIII posit
//! comparison), each printed as a table and checked against the paper's
//! claims.
//!
//! A report is a function returning its rendered text and its claims. A
//! claim records what the paper states, what this run measured, the bound
//! the measurement is held to, whether it holds, and whether it is
//! *declared* to hold. [`run`] fails when any claim's outcome differs from
//! its declaration, so a figure that breaks fails the run, and a change
//! that makes a known-false claim true must edit the declaration.
//!
//! Reports run in one process: the seed-77 reference models are trained
//! once per run, and Fig. 13 and Table I share `ant_sim::assign`'s
//! process-wide memo of per-layer type assignments.

use crate::antc::{usage, CliError};
use crate::json::Json;
use crate::render_table;
use ant_core::baselines::{BiScaled, Gobo};
use ant_core::flint::Flint;
use ant_core::mixed::{run_mixed_precision, MixedPrecisionConfig};
use ant_core::posit::Posit;
use ant_core::select::{select_type, PrimitiveCombo};
use ant_core::{ClipSearch, Codec, DataType, Granularity, Quantizer, TensorQuantizer};
use ant_hw::area::{AreaModel, ANT_DECODER_UM2, ANT_PE4_UM2, BUFFER_KB, BUFFER_MM2};
use ant_hw::decode::decode_flint;
use ant_nn::data::{blobs, motifs, shapes, Dataset};
use ant_nn::model::{deep_mlp, small_cnn, tiny_transformer, Sequential};
use ant_nn::qat::{QatHarness, QuantSpec};
use ant_nn::train::{evaluate, train, TrainConfig};
use ant_runtime::ArtifactError;
use ant_sim::design::{Design, SimConfig};
use ant_sim::profile::TensorProfile;
use ant_sim::report::{summarize, table_i, WorkloadComparison};
use ant_sim::workload::{all_workloads, bert_base, resnet18, Workload};
use ant_tensor::stats::{classify, Histogram};
use ant_tensor::Tensor;
use std::cell::OnceCell;
use std::path::Path;

/// Every report, by the figure or table id `antc repro` takes.
const REPORTS: [(&str, ReportFn); 15] = [
    ("fig01", fig01),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("tab01", tab01),
    ("tab02", tab02),
    ("tab03", tab03),
    ("tab04", tab04),
    ("tab05", tab05),
    ("tab06", tab06),
    ("tab07", tab07),
    ("ablation", ablation),
    ("posit", posit),
];

/// IP-F's column in [`PrimitiveCombo::all`]: Int, IP, FIP, IP-F, FIP-F.
const IPF: usize = 3;

/// Seed of the trained reference models every accuracy report uses.
const SEED: u64 = 77;

/// A report's rendered text and its claims.
type Report = (String, Vec<Claim>);

/// A report, given what the reports of one run share.
type ReportFn = fn(&Shared) -> Report;

/// One statement of the paper, checked against this run.
struct Claim {
    /// `<report>.<what>`, e.g. `fig13.speedup_vs_BitFusion`.
    name: String,
    /// What the paper states.
    paper: String,
    /// What this run measured.
    measured: String,
    /// What `measured` must satisfy for the claim to hold.
    bound: String,
    holds: bool,
    /// Whether the claim is declared to hold; a run where `holds`
    /// differs fails.
    expected: bool,
}

/// A claim declared to hold.
fn claim(name: &str, paper: &str, measured: String, bound: &str, holds: bool) -> Claim {
    Claim {
        name: name.to_string(),
        paper: paper.to_string(),
        measured,
        bound: bound.to_string(),
        holds,
        expected: true,
    }
}

impl Claim {
    /// The claim, declared not to hold.
    fn declared_false(self) -> Claim {
        Claim {
            expected: false,
            ..self
        }
    }

    fn line(&self) -> String {
        let verdict = match (self.holds, self.expected) {
            (true, true) => "holds",
            (false, false) => "fails, as declared",
            (true, false) => "holds: MISMATCH, declared to fail",
            (false, true) => "fails: MISMATCH, declared to hold",
        };
        let (name, measured) = (&self.name, &self.measured);
        let (paper, bound) = (&self.paper, &self.bound);
        format!("claim {name}: {measured} (paper: {paper}; bound: {bound}) {verdict}\n")
    }

    fn json(&self) -> Json {
        let text = |v: &String| Json::Str(v.clone());
        Json::Obj(vec![
            ("name".to_string(), text(&self.name)),
            ("paper".to_string(), text(&self.paper)),
            ("measured".to_string(), text(&self.measured)),
            ("bound".to_string(), text(&self.bound)),
            ("holds".to_string(), Json::Bool(self.holds)),
            ("expected".to_string(), Json::Bool(self.expected)),
        ])
    }
}

/// What several reports share within one run: the three seed-77
/// reference models, trained on first use ([`models`]).
type Shared = OnceCell<Vec<TrainedModel>>;

fn models(shared: &Shared) -> &[TrainedModel] {
    shared.get_or_init(|| (0..3).map(|i| trained(i, SEED)).collect())
}

/// Runs the reports named in `names` (all of them when empty) in one
/// process and returns their tables and claim lines. With `out`, writes
/// every claim to that path as JSON.
///
/// # Errors
///
/// [`CliError::Usage`] for an unknown report name (checked before any
/// report runs), [`CliError::Artifact`] when `out` cannot be written, and
/// [`CliError::Repro`] when a claim's outcome differs from its
/// declaration.
pub fn run(names: &[&str], out: Option<&Path>) -> Result<String, CliError> {
    let find = |n: &&str| {
        let known = REPORTS.iter().find(|(id, _)| id == n).copied();
        known.ok_or_else(|| usage(&format!("unknown report '{n}'")))
    };
    let selected = match names {
        [] => REPORTS.to_vec(),
        _ => names.iter().map(find).collect::<Result<_, _>>()?,
    };
    let shared = Shared::default();
    let (mut text, mut claims) = (String::new(), Vec::new());
    for (_, report) in &selected {
        let (body, found) = report(&shared);
        // A blank line before each report and before its claims.
        for part in [body, found.iter().map(Claim::line).collect()] {
            if !text.is_empty() && !part.is_empty() && !text.ends_with("\n\n") {
                text.push('\n');
            }
            text.push_str(&part);
        }
        claims.extend(found);
    }
    if let Some(path) = out {
        let ids = selected.iter().map(|(id, _)| Json::Str(id.to_string()));
        let record = Json::Obj(vec![
            ("schema".to_string(), Json::Str("ant-bench/repro-v1".into())),
            ("reports".to_string(), Json::Arr(ids.collect())),
            (
                "claims".to_string(),
                Json::Arr(claims.iter().map(Claim::json).collect()),
            ),
        ]);
        let io = |e| CliError::Artifact(ArtifactError::Io(e));
        std::fs::write(path, record.render()).map_err(io)?;
    }
    let wrong: Vec<&str> = claims
        .iter()
        .filter(|c| c.holds != c.expected)
        .map(|c| c.name.as_str())
        .collect();
    let (n, m) = (wrong.len(), claims.len());
    if n > 0 {
        let names = wrong.join(", ");
        let msg = format!("{n} of {m} claim(s) differ from their declaration: {names}\n\n{text}");
        return Err(CliError::Repro(msg));
    }
    if !text.ends_with("\n\n") {
        text.push('\n');
    }
    let n = selected.len();
    text += &format!("repro: {n} report(s), {m} claim(s), each as declared\n");
    Ok(text)
}

/// A table row: `label`, then `cells`.
fn row(label: &str, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(label.to_string()).chain(cells).collect()
}

/// Appends a table to a report's text, as `println!("{table}")` prints it.
fn table(out: &mut String, headers: &[&str], rows: &[Vec<String>]) {
    out.push_str(&render_table(headers, rows));
    out.push('\n');
}

/// A trained reference model with its datasets, ready for quantization
/// experiments.
struct TrainedModel {
    /// Display name ("MLP", "CNN", "Transformer").
    name: &'static str,
    model: Sequential,
    train_set: Dataset,
    test_set: Dataset,
    /// FP32 test accuracy after training.
    fp32_accuracy: f64,
}

/// Trains reference model `which`: 0 is the deep MLP on the hard blobs
/// task (10 near-overlapping clusters; depth compounds quantization
/// error, so Fig. 11's combo ordering is measurable at this scale), 1 the
/// CNN on the noisy shapes task, 2 the tiny Transformer on the six-motif
/// task with a narrow (quantization-sensitive) embedding.
fn trained(which: usize, seed: u64) -> TrainedModel {
    let config = |epochs, batch_size, lr| TrainConfig {
        epochs,
        batch_size,
        lr,
        momentum: 0.9,
        seed,
    };
    let ds = seed.wrapping_add(1);
    let (name, mut model, data, cfg) = match which {
        0 => {
            let (data, cfg) = (blobs(1600, 16, 10, 1.0, ds), config(30, 32, 0.05));
            ("MLP", deep_mlp(16, 10, 24, 6, seed), data, cfg)
        }
        1 => (
            "CNN",
            small_cnn(4, seed),
            shapes(480, 0.4, ds),
            config(10, 16, 0.05),
        ),
        _ => {
            let (data, cfg) = (motifs(960, 8, 8, 6, ds), config(25, 32, 0.03));
            ("Transformer", tiny_transformer(8, 8, 6, seed), data, cfg)
        }
    };
    let (train_set, test_set) = data.split(0.25);
    train(&mut model, &train_set, cfg).expect("reference model trains");
    let fp32_accuracy = evaluate(&mut model, &test_set).expect("evaluation");
    TrainedModel {
        name,
        model,
        train_set,
        test_set,
        fp32_accuracy,
    }
}

/// A QAT harness over a copy of `reference` under `spec`, calibrated on
/// its first 100 training rows, fine-tuning for `epochs` with `seed`.
fn harness(reference: &TrainedModel, spec: QuantSpec, epochs: usize, seed: u64) -> QatHarness {
    let rows: Vec<usize> = (0..100.min(reference.train_set.len())).collect();
    let (calib, _) = reference.train_set.batch(&rows);
    let (train, test) = (reference.train_set.clone(), reference.test_set.clone());
    let cfg = TrainConfig {
        epochs,
        batch_size: 32,
        lr: 0.02,
        momentum: 0.9,
        seed,
    };
    let model = reference.model.clone();
    QatHarness::new(model, spec, calib, train, test, cfg).expect("harness builds")
}

/// Runs the Fig. 11 (PTQ, `fine_tune_epochs == 0`) or Fig. 12 (QAT)
/// experiment over the reference models and all five combinations: each
/// model's accuracy loss in percentage points (the paper's y-axis), per
/// combination in [`PrimitiveCombo::all`] order.
fn accuracy_experiment(models: &[TrainedModel], fine_tune_epochs: usize) -> Vec<Vec<f64>> {
    let mut rows = Vec::new();
    for reference in models {
        let mut losses = Vec::new();
        for combo in PrimitiveCombo::all() {
            let spec = QuantSpec {
                combo,
                ..QuantSpec::default()
            };
            let mut h = harness(reference, spec, fine_tune_epochs, SEED.wrapping_add(99));
            if fine_tune_epochs > 0 {
                h.fine_tune().expect("fine-tuning runs");
            }
            let quantized = h.test_accuracy().expect("evaluation");
            losses.push((reference.fp32_accuracy - quantized) * 100.0);
        }
        rows.push(losses);
    }
    rows
}

/// Figs. 11 and 12's table: each model's fp32 accuracy and its loss under
/// every combination, then (Fig. 12) each model's ANT4-8 loss and 4-bit
/// layer share from `ant48`.
fn accuracy_table(
    out: &mut String,
    models: &[TrainedModel],
    losses: &[Vec<f64>],
    ant48: &[(f64, f64)],
) {
    let mut headers = vec!["model", "fp32 acc"];
    headers.extend(PrimitiveCombo::all().iter().map(|c| c.label()));
    if !ant48.is_empty() {
        headers.extend(["ANT4-8", "4-bit ratio"]);
    }
    let mut rows = Vec::new();
    for (i, (m, losses)) in models.iter().zip(losses).enumerate() {
        let fp32 = format!("{:.1}%", m.fp32_accuracy * 100.0);
        let mut cells = row(m.name, [fp32]);
        cells.extend(losses.iter().map(|l| format!("{l:+.1}")));
        if let Some((loss, low)) = ant48.get(i) {
            cells.extend([format!("{loss:+.1}"), format!("{:.0}%", low * 100.0)]);
        }
        rows.push(cells);
    }
    table(out, &headers, &rows);
}

/// Declared not to hold: Algorithm 2 picks `int4` for every tensor of
/// the reference models, so IP-F quantizes exactly as Int does.
fn ipf_beats_int(report: &str, losses: &[Vec<f64>]) -> Claim {
    let wins = losses.iter().filter(|l| l[IPF] < l[0]).count();
    claim(
        &format!("{report}.ipf_loses_less_than_int"),
        "IP-F loses less accuracy than Int",
        format!("{wins} of {} models", losses.len()),
        "every model",
        wins == losses.len(),
    )
    .declared_false()
}

/// A claim that a 4-bit table, listed in code order 0000..1111, equals
/// the paper's.
fn in_code_order(name: &str, paper: &str, entries: Vec<String>) -> Claim {
    let measured = entries.join(",");
    let holds = measured == paper;
    claim(name, paper, measured, "equal in code order", holds)
}

/// Fig. 1: value histograms of the three distribution families beside the
/// resolution maps of the 4-bit types.
fn fig01(_: &Shared) -> Report {
    let mut out =
        String::from("== Fig. 1: tensor distribution families and 4-bit type lattices ==\n\n");
    let names = [
        "ResNet18 first-layer act (uniform-like)",
        "CNN/BERT weight (Gaussian-like)",
        "BERT activation (Laplace-like, outliers)",
    ];
    let bert_act = TensorProfile::BertAct {
        frac: 0.01,
        scale: 20.0,
    };
    let profiles = [
        TensorProfile::FirstLayerAct,
        TensorProfile::cnn_weight(),
        bert_act,
    ];
    let spark = |densities: &[f64]| -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = densities.iter().copied().fold(0.0f64, f64::max).max(1e-12);
        let bar = |d: &f64| BARS[((d / max) * 7.0).round() as usize];
        densities.iter().map(bar).collect()
    };
    let mut rows = Vec::new();
    for (name, p) in names.into_iter().zip(profiles) {
        let data = p.sample(50_000, 11);
        let lo = data.iter().copied().fold(f32::INFINITY, f32::min) as f64;
        let hi = data.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
        let h = Histogram::build(&data, 32, lo, hi).expect("valid range");
        let class = format!("{:?}", classify(&data).expect("non-empty"));
        rows.push(vec![name.to_string(), class, spark(&h.densities())]);
    }
    table(&mut out, &["tensor", "classified as", "histogram"], &rows);

    out.push_str(
        "4-bit type lattices (normalized magnitudes; '|' marks each representable value):\n\n",
    );
    for dt in [
        DataType::int(4, false),
        DataType::float(4, false),
        DataType::pot(4, false),
        DataType::flint(4, false),
    ] {
        let dt = dt.expect("valid");
        let codec = Codec::new(dt).expect("valid");
        let max = codec.max_value();
        let mut line = vec![' '; 65];
        for &v in codec.magnitudes() {
            let pos = ((v / max) * 64.0).round() as usize;
            line[pos.min(64)] = '|';
        }
        let lattice: String = line.iter().collect();
        out += &format!("{:>8}  {lattice}\n", dt.to_string());
    }
    out.push_str(
        "\nint has uniform resolution over a narrow range; PoT covers an extreme range\n\
         with log spacing; flint keeps int-like resolution mid-range and PoT-like\n\
         range at the extremes (paper Fig. 3).\n",
    );
    (out, Vec::new())
}

/// Fig. 10: quantization MSE of the five combinations at 4 bits across
/// the eight workloads, normalized to Int per workload.
fn fig10(_: &Shared) -> Report {
    let mut out = String::from(
        "== Fig. 10: quantization MSE by primitive combination (4-bit, normalized to Int) ==\n\n",
    );
    let workloads = all_workloads(1);
    let combos = PrimitiveCombo::all();
    let mut rows = Vec::new();
    let (mut monotone, mut ipf_below_int, mut worst_ipf) = (0, 0, 0.0f64);
    for w in &workloads {
        // Element-weighted mean relative MSE over every tensor in the model.
        let mut per_combo = vec![0.0f64; combos.len()];
        let mut weight_sum = 0.0f64;
        for (li, layer) in w.layers.iter().enumerate() {
            for (profile, elems, salt) in [
                (layer.weight_profile, layer.weight_elems(), 2 * li as u64),
                (layer.act_profile, layer.act_elems(), 2 * li as u64 + 1),
            ] {
                let t = Tensor::from_slice(&profile.sample(2048, 977 + salt));
                let signed = !profile.is_non_negative();
                for (ci, combo) in combos.iter().enumerate() {
                    let candidates = combo.candidates(4, signed).expect("4-bit candidates");
                    let search = ClipSearch::GridMse { steps: 48 };
                    let sel = select_type(&t, &candidates, Granularity::PerTensor, search)
                        .expect("selection succeeds");
                    per_combo[ci] += sel.mse * elems as f64;
                }
                weight_sum += elems as f64;
            }
        }
        let base = per_combo[0] / weight_sum;
        let normalized = per_combo
            .iter()
            .map(|v| format!("{:.3}", (v / weight_sum) / base));
        rows.push(row(&w.name, normalized));
        monotone += usize::from(per_combo.windows(2).all(|p| p[1] <= p[0]));
        let ipf = per_combo[IPF] / per_combo[0];
        ipf_below_int += usize::from(ipf < 1.0);
        worst_ipf = worst_ipf.max(ipf);
    }
    let mut headers = vec!["workload"];
    headers.extend(combos.iter().map(|c| c.label()));
    table(&mut out, &headers, &rows);
    let n = workloads.len();
    let claims = vec![
        claim(
            "fig10.mse_non_increasing",
            "MSE falls as primitives are added (Int, IP, FIP, IP-F, FIP-F)",
            format!("{monotone} of {n} workloads"),
            "every workload",
            monotone == n,
        ),
        claim(
            "fig10.ipf_below_int",
            "the flint combos are lowest",
            format!("IP-F < Int on {ipf_below_int} of {n}, worst IP-F/Int {worst_ipf:.3}"),
            "IP-F < Int on every workload",
            ipf_below_int == n,
        ),
    ];
    (out, claims)
}

/// Fig. 11: accuracy loss without fine-tuning (post-training
/// quantization) for each 4-bit combination on the reference models.
fn fig11(shared: &Shared) -> Report {
    let mut out =
        String::from("== Fig. 11: accuracy loss without fine-tuning (percentage points) ==\n\n");
    let losses = accuracy_experiment(models(shared), 0);
    accuracy_table(&mut out, models(shared), &losses, &[]);
    (out, vec![ipf_beats_int("fig11", &losses)])
}

/// Fig. 12: accuracy loss with fine-tuning (QAT) for each 4-bit
/// combination, plus the mixed-precision ANT4-8 row (paper Sec. VII-B).
fn fig12(shared: &Shared) -> Report {
    let mut out =
        String::from("== Fig. 12: accuracy loss with fine-tuning (percentage points) ==\n\n");
    let losses = accuracy_experiment(models(shared), 4);

    // ANT4-8: mixed precision on the IP-F config until within 1 point.
    out.push_str("running ANT4-8 mixed precision...\n\n");
    let mut ant48 = Vec::new();
    for reference in models(shared) {
        let mut h = harness(reference, QuantSpec::default(), 2, 99);
        let cfg = MixedPrecisionConfig {
            threshold: 0.01,
            max_promotions: None,
        };
        let report = run_mixed_precision(&mut h, reference.fp32_accuracy, cfg);
        let final_acc = *report.metric_trace.last().expect("at least one evaluation");
        let loss = (reference.fp32_accuracy - final_acc) * 100.0;
        ant48.push((loss, report.low_bit_ratio()));
    }
    accuracy_table(&mut out, models(shared), &losses, &ant48);
    let least = ant48.iter().map(|a| a.1).fold(f64::INFINITY, f64::min);
    let claims = vec![
        ipf_beats_int("fig12", &losses),
        // Declared not to hold, for the same reason as IP-F: with every
        // tensor at int4, promotion is what recovers the accuracy.
        claim(
            "fig12.ant48_keeps_half_at_4bit",
            "ANT4-8 keeps most layers at 4 bits (up to 91%)",
            format!("lowest 4-bit layer share {:.0}%", least * 100.0),
            ">= 50% on every model",
            least >= 0.5,
        )
        .declared_false(),
    ];
    (out, claims)
}

/// Fig. 13: tensor type ratios, normalized latency and energy of the six
/// iso-area designs over the eight workloads at batch 64, and the geomean
/// ANT-OS advantage quoted in the paper's abstract.
fn fig13(_: &Shared) -> Report {
    let mut out = String::from("== Fig. 13 (batch 64) ==\n\n");
    let workloads = all_workloads(64);
    let cfg = SimConfig::default();
    let simulate = |w| WorkloadComparison::run(w, &cfg).expect("simulation succeeds");
    let comparisons: Vec<WorkloadComparison> = workloads.iter().map(simulate).collect();
    let mut headers = vec!["workload"];
    headers.extend(Design::all().iter().map(|d| d.name()));

    // Top: 4-bit MAC fraction per design per workload.
    out.push_str("-- tensor/compute ratio: fraction of MACs executed at 4 bits --\n\n");
    let mut rows = Vec::new();
    for (c, w) in comparisons.iter().zip(&workloads) {
        let low = |d| format!("{:.0}%", c.result(d).low_bit_mac_fraction(w) * 100.0);
        rows.push(row(&c.workload, Design::all().into_iter().map(low)));
    }
    table(&mut out, &headers, &rows);

    // Middle: normalized cycles; bottom: normalized energy.
    type Series = fn(&WorkloadComparison) -> Vec<(&'static str, f64)>;
    let series: [(&str, Series); 2] = [
        (
            "latency (1.0 = slowest design",
            WorkloadComparison::normalized_cycles,
        ),
        (
            "energy (1.0 = most energy",
            WorkloadComparison::normalized_energy,
        ),
    ];
    for (title, normalized) in series {
        out += &format!("-- normalized {title} per workload) --\n\n");
        let mut rows = Vec::new();
        for c in &comparisons {
            let ratios = normalized(c).into_iter().map(|(_, v)| format!("{v:.3}"));
            rows.push(row(&c.workload, ratios));
        }
        table(&mut out, &headers, &rows);
    }

    out.push_str("-- ANT-OS energy breakdown per workload (pJ shares) --\n\n");
    let mut rows = Vec::new();
    for c in &comparisons {
        let e = &c.result(Design::AntOs).total_energy;
        let shares = [e.static_pj, e.dram_pj, e.buffer_pj, e.core_pj];
        let shares = shares.map(|p| format!("{:.0}%", p / e.total() * 100.0));
        rows.push(row(&c.workload, shares));
    }
    let headers = ["workload", "static", "DRAM", "buffer", "core"];
    table(&mut out, &headers, &rows);

    // Geomean summary; each is > 1 and within ±20 % of the paper's.
    let s = summarize(&comparisons);
    out.push_str("-- geomean ANT-OS advantage (paper: 2.8x/3.24x/1.48x/4x speedup; 2.53x/1.93x/1.6x/3.33x energy) --\n\n");
    let mut rows = Vec::new();
    for ((name, sp), (_, en)) in s.speedups.iter().zip(&s.energy_reductions) {
        rows.push(row(name, [format!("{sp:.2}x"), format!("{en:.2}x")]));
    }
    let headers = ["baseline", "speedup", "energy reduction"];
    table(&mut out, &headers, &rows);
    let geomeans = [
        ("speedup", &s.speedups, [2.8, 3.24, 1.48, 4.0]),
        ("energy", &s.energy_reductions, [2.53, 1.93, 1.6, 3.33]),
    ];
    let mut claims = Vec::new();
    for (what, measured, paper) in geomeans {
        for (&(name, v), p) in measured.iter().zip(paper) {
            claims.push(claim(
                &format!("fig13.{what}_vs_{name}"),
                &format!("{p}x"),
                format!("{v:.2}x"),
                &format!("> 1 and {:.2}x to {:.2}x (±20%)", p * 0.8, p * 1.2),
                v > 1.0 && (v / p - 1.0).abs() <= 0.2,
            ));
        }
    }
    (out, claims)
}

/// Fig. 14's rows for one tensor family: per-tensor 4-bit MSE of each
/// primitive normalized to flint, and the type Algorithm 2 chose.
fn type_mse_series(workload: &Workload, take: usize, weights: bool) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for (li, layer) in workload.layers.iter().take(take).enumerate() {
        let (profile, salt) = if weights {
            (layer.weight_profile, 2 * li as u64)
        } else {
            (layer.act_profile, 2 * li as u64 + 1)
        };
        let t = Tensor::from_slice(&profile.sample(4096, 1234 + salt));
        let candidates = PrimitiveCombo::FloatIntPotFlint
            .candidates(4, !profile.is_non_negative())
            .expect("valid candidates");
        let search = ClipSearch::GridMse { steps: 64 };
        let sel = select_type(&t, &candidates, Granularity::PerTensor, search)
            .expect("selection succeeds");
        let is_flint = |(dt, _): &&(DataType, f64)| dt.to_string().starts_with("flint");
        let flint_mse = sel.per_candidate.iter().find(is_flint).expect("flint").1;
        let ratio =
            |(dt, mse): &(DataType, f64)| format!("{}={:.2}", dt.primitive(), mse / flint_mse);
        let chosen = sel.dtype.primitive().to_string();
        let cells = sel.per_candidate.iter().map(ratio).chain([chosen]);
        rows.push(row(&layer.name, cells));
    }
    rows
}

/// Fig. 14: per-tensor MSE of the four 4-bit primitives, normalized to
/// flint, over the ResNet-18 and BERT-Base layer sequences.
fn fig14(_: &Shared) -> Report {
    let mut out = String::from("== Fig. 14: per-tensor 4-bit MSE normalized to flint ==\n\n");
    let rn = resnet18(1);
    let bert = bert_base(1, "MNLI");
    for (title, workload, weights, take) in [
        ("ResNet-18 weights", &rn, true, 10),
        ("ResNet-18 activations", &rn, false, 10),
        ("BERT-Base weights (first 2 blocks)", &bert, true, 12),
        ("BERT-Base activations (first 2 blocks)", &bert, false, 12),
    ] {
        out += &format!("-- {title} --\n\n");
        let rows = type_mse_series(workload, take, weights);
        let headers = ["layer", "float", "int", "pot", "flint", "chosen"];
        table(&mut out, &headers, &rows);
    }
    out.push_str(
        "Expected shape (paper Fig. 14): flint ≈ best (1.0) for Gaussian-like CNN\n\
         tensors; int wins the uniform-like first layer; PoT/float win the\n\
         outlier-heavy BERT activations (signed 4-bit float == PoT, so they tie).\n",
    );
    (out, Vec::new())
}

/// Table I: average memory bits, average compute bits and area overhead
/// per scheme over the paper's workload suite.
fn tab01(_: &Shared) -> Report {
    /// The paper's Table I, for side-by-side comparison.
    const PAPER: [(&str, f64, f64, f64); 7] = [
        ("Int", 8.0, 8.0, 0.0),
        ("AdaFloat", 8.0, 8.0, 0.145),
        ("BitFusion", 7.07, 7.07, 0.0),
        ("BiScaled", 6.16, 6.16, 0.071),
        ("OLAccel", 5.81, 4.36, 0.71),
        ("GOBO", 4.04, 16.0, 0.55),
        ("ANT", 4.23, 4.23, 0.002),
    ];
    // Batch 4 keeps the run quick; averages are batch-insensitive because
    // weight and activation element counts scale together.
    let rows = table_i(&all_workloads(4)).expect("assignment succeeds");
    let mut cells = Vec::new();
    for row in &rows {
        let paper = PAPER.iter().find(|(n, _, _, _)| *n == row.name);
        let paper = paper.map_or("-".to_string(), |(_, m, c, a)| {
            format!("{m:.2} / {c:.2} / {:.1}%", a * 100.0)
        });
        cells.push(vec![
            row.name.to_string(),
            if row.aligned { "yes" } else { "no" }.to_string(),
            format!("{:.2}", row.mem_bits),
            format!("{:.2}", row.compute_bits),
            format!("{:.1}%", row.area_overhead * 100.0),
            paper,
        ]);
    }
    let mut out = String::from("== Table I: quantization architecture comparison ==\n\n");
    let headers = [
        "scheme",
        "aligned",
        "mem bits",
        "compute bits",
        "area ovh",
        "paper (mem/compute/ovh)",
    ];
    table(&mut out, &headers, &cells);
    out.push_str(
        "Area overheads are the paper's synthesis results (see ant-hw::area);\n\
         bit averages are measured over this reproduction's workload suite.\n",
    );
    (out, Vec::new())
}

/// Table II / Fig. 3: every 4-bit flint code with its first-one exponent,
/// mantissa and value, and the flint lattices for widths 3 through 8.
fn tab02(_: &Shared) -> Report {
    let mut out = String::from("== Table II: 4-bit unsigned flint (bias −1) ==\n\n");
    let f4 = Flint::new(4).expect("4-bit flint");
    let mut rows = Vec::new();
    for code in 0..f4.num_codes() {
        let (fd, id) = (f4.decode_float(code), f4.decode_int(code));
        let (exponent, fraction) = match code {
            0 => ("-".to_string(), "-".to_string()),
            _ => {
                let fraction = 1.0 + fd.mantissa as f64 / 8.0;
                ((fd.exp as i64 - 1).to_string(), format!("{fraction:.2}"))
            }
        };
        let (base, shift, value) = (id.base, id.exp, f4.decode(code));
        let mut row = vec![format!("{code:04b}"), exponent, fraction];
        row.extend([base as u64, shift as u64, value].map(|v| v.to_string()));
        rows.push(row);
    }
    let headers = ["bits", "exponent", "fraction", "base int", "shift", "value"];
    table(&mut out, &headers, &rows);

    out.push_str("== Fig. 3 generalised: flint lattices for b = 3..8 ==\n\n");
    for b in 3..=8u32 {
        let f = Flint::new(b).expect("valid width");
        let lattice: Vec<String> = f.lattice().iter().map(|v| v.to_string()).collect();
        let shown = if lattice.len() <= 16 {
            lattice.join(", ")
        } else {
            let tail = &lattice[lattice.len() - 4..];
            format!("{}, ..., {}", lattice[..9].join(", "), tail.join(", "))
        };
        let (n, max) = (lattice.len(), f.max_value());
        out += &format!("flint{b}: {n:3} values, max {max:6}  [{shown}]\n");
    }
    out.push_str(
        "\nMantissa bits per interval (b = 4): codes 0001,001x,01xx,11xx,101x,1001,1000\n",
    );
    let mbs: Vec<String> = (1..=7).map(|i| f4.mantissa_bits(i).to_string()).collect();
    let mbs = mbs.join(",");
    out += &format!("carry {mbs} mantissa bits — int-like mid-range, PoT-like extremes.\n");

    // Table II in code order 0000..1111; the worked example is 1110 = 12.
    let paper = "0,1,2,3,4,5,6,7,64,32,16,24,8,10,12,14";
    let values: Vec<String> = (0..16).map(|c| f4.decode(c).to_string()).collect();
    (
        out,
        vec![in_code_order("tab02.flint4_values", paper, values)],
    )
}

/// Table III: the int-based flint decomposition `value = base << exp`
/// from the bit-level hardware decoder of Fig. 6, cross-checked against
/// the arithmetic codec at every width.
fn tab03(_: &Shared) -> Report {
    let mut out =
        String::from("== Table III: int-based flint 4-bit value table (hardware decoder) ==\n\n");
    let row = |signed: bool, code: u32| {
        let d = decode_flint(code, 4, signed).expect("4-bit flint");
        let parts = [d.base.to_string(), d.exp.to_string(), d.value().to_string()];
        [format!("{code:04b}")].into_iter().chain(parts)
    };
    // Table III lists the exponent before the base.
    let by_exp = |code| -> Vec<String> {
        let [code, base, exp, value] = row(false, code).collect::<Vec<_>>().try_into().unwrap();
        vec![code, exp, base, value]
    };
    let rows: Vec<Vec<String>> = (0..16).map(by_exp).collect();
    let headers = ["binary", "exponent", "base integer", "value"];
    table(&mut out, &headers, &rows);
    out.push_str("Signed decode (Sec. V-C), 4-bit sign+magnitude:\n");
    let signed: Vec<Vec<String>> = (0..16).map(|code| row(true, code).collect()).collect();
    table(&mut out, &["binary", "base", "shift", "value"], &signed);

    // Every width's hardware decode against the arithmetic codec.
    let (mut checked, mut agree) = (0u32, 0u32);
    for bits in 3..=8u32 {
        let flint = Flint::new(bits).expect("valid width");
        for code in 0..flint.num_codes() {
            let hw = decode_flint(code, bits, false).expect("valid code");
            agree += u32::from(hw.value() as u64 == flint.decode(code));
            checked += 1;
        }
    }
    // Table III as base<<exp in code order 0000..1111.
    let paper =
        "0<<0,1<<0,2<<0,3<<0,4<<0,5<<0,6<<0,7<<0,1<<6,2<<4,4<<2,6<<2,8<<0,10<<0,12<<0,14<<0";
    let table_iii: Vec<String> = rows.iter().map(|r| format!("{}<<{}", r[2], r[1])).collect();
    let claims = vec![
        claim(
            "tab03.decoder_equals_codec",
            "the hardware decoder equals the codec at b = 3..8",
            format!("{agree} of {checked} codes agree"),
            "all 504 codes",
            agree == 504 && checked == 504,
        ),
        in_code_order("tab03.flint4_table", paper, table_iii),
    ];
    (out, claims)
}

/// Table IV: the simulator's eight GEMM-level workloads (standing in for
/// the paper's checkpoints) and the three trained reference models
/// (DESIGN.md §2).
fn tab04(shared: &Shared) -> Report {
    let mut out =
        String::from("== Table IV (simulator tier): GEMM-level benchmark workloads ==\n\n");
    let mut rows = Vec::new();
    for w in all_workloads(1) {
        rows.push(vec![
            w.name.clone(),
            format!("{:?}", w.family),
            w.layers.len().to_string(),
            format!("{:.2}", w.total_macs() as f64 / 1e9),
            format!("{:.1}", w.total_weight_elems() as f64 / 1e6),
        ]);
    }
    let headers = [
        "workload",
        "family",
        "GEMM layers",
        "GMACs (batch 1)",
        "M params",
    ];
    table(&mut out, &headers, &rows);
    out.push_str(
        "Paper reference points: VGG16 ≈ 15.5 GMACs / 138M params, ResNet-50 ≈\n\
         4.1 / 25.6, BERT-Base ≈ 85M encoder params — matched by construction.\n\n\
         == Table IV (training tier): reference models and tasks ==\n\n",
    );
    let mut rows = Vec::new();
    for m in models(shared) {
        let (task, classes) = match m.name {
            "MLP" => ("blobs (10 Gaussian clusters, R^16)", 10),
            "CNN" => ("shapes (12x12 noisy images)", 4),
            _ => ("motifs (token sequences)", 6),
        };
        rows.push(vec![
            m.name.to_string(),
            task.to_string(),
            classes.to_string(),
            m.train_set.len().to_string(),
            m.test_set.len().to_string(),
            format!("{:.1}%", m.fp32_accuracy * 100.0),
        ]);
    }
    let headers = ["model", "task", "classes", "train", "test", "fp32 acc"];
    table(&mut out, &headers, &rows);
    out.push_str(
        "(paper Table IV reports ImageNet/GLUE accuracies of its checkpoints;\n\
         these synthetic tasks are the documented substitution, DESIGN.md §2)\n",
    );
    (out, Vec::new())
}

/// Fake-quantizes every weight matrix/filter of a copy of `reference`'s
/// model in place with `quantize` and returns its test accuracy.
fn quantized_accuracy(reference: &TrainedModel, mut quantize: impl FnMut(&mut Tensor)) -> f64 {
    let mut model = reference.model.clone();
    model.for_each_param(&mut |p| {
        if p.value.rank() >= 2 {
            quantize(&mut p.value);
        }
    });
    evaluate(&mut model, &reference.test_set).expect("evaluation")
}

/// ANT's per-tensor weight quantization: Algorithm 2 over `combo`.
fn ant_quantize(w: &mut Tensor, combo: PrimitiveCombo, bits: u32) {
    let candidates = combo.candidates(bits, true).expect("valid candidates");
    let search = ClipSearch::GridMse { steps: 64 };
    let sel = select_type(w, &candidates, Granularity::PerTensor, search).expect("selects");
    *w = sel.quantizer.apply(w).expect("apply succeeds");
}

/// Table V: ANT (IP-F) versus BiScaled without fine-tuning, both
/// fake-quantizing every weight tensor with per-tensor scales. The paper
/// runs this at 6 bits on ImageNet CNNs; at this model scale 6 bits is
/// near-lossless for both, so the 4-bit rows are where they separate.
fn tab05(shared: &Shared) -> Report {
    let mut out =
        String::from("== Table V: ANT vs BiScaled, weight quantization without fine-tuning ==\n\n");
    let mut rows = Vec::new();
    let mut ant_ahead_at_6 = 0;
    for reference in models(shared) {
        for bits in [6u32, 4u32] {
            let ant = |w: &mut Tensor| ant_quantize(w, PrimitiveCombo::IntPotFlint, bits);
            let ant_acc = quantized_accuracy(reference, ant);
            let bi_acc = quantized_accuracy(reference, |w| {
                let (b, _) = BiScaled::fit(bits, true, w.as_slice()).expect("fit succeeds");
                w.map_inplace(|x| b.quantize_dequantize(x));
            });
            if bits == 6 {
                ant_ahead_at_6 += usize::from(ant_acc >= bi_acc);
            }
            rows.push(vec![
                format!("{} ({bits}-bit)", reference.name),
                format!("{:.1}%", ant_acc * 100.0),
                format!("{:.1}%", bi_acc * 100.0),
                format!("{:.1}%", reference.fp32_accuracy * 100.0),
            ]);
        }
    }
    let headers = ["model", "ANT", "BiScaled", "source (fp32)"];
    table(&mut out, &headers, &rows);
    let n = models(shared).len();
    let claims = vec![claim(
        "tab05.ant_at_least_biscaled_6bit",
        "at 6 bits, ANT >= BiScaled on every model",
        format!("{ant_ahead_at_6} of {n} models"),
        "every model",
        ant_ahead_at_6 == n,
    )];
    (out, claims)
}

/// Table VI: weight-only quantization, ANT versus GOBO at 3 and 4 bits on
/// the Transformer (the paper's comparison is BERT on MNLI). GOBO keeps
/// ~0.3% outlier weights at full precision; ANT stays fixed-length.
fn tab06(shared: &Shared) -> Report {
    let mut out =
        String::from("== Table VI: weight-only quantization, ANT vs GOBO (Transformer) ==\n\n");
    let reference = &models(shared)[2]; // the Transformer
    let mut rows = Vec::new();
    for bits in [3u32, 4u32] {
        // 3-bit flint needs a 4-bit signed container, so at 3 bits the
        // candidates are int/pot.
        let combo = if bits >= 4 {
            PrimitiveCombo::IntPotFlint
        } else {
            PrimitiveCombo::IntPot
        };
        let ant_acc = quantized_accuracy(reference, |w| ant_quantize(w, combo, bits));
        // GOBO weight-only with 3σ outlier detection.
        let mut eff_bits = Vec::new();
        let gobo_acc = quantized_accuracy(reference, |w| {
            let (g, _) = Gobo::fit(bits, 3.0, w.as_slice()).expect("fit succeeds");
            eff_bits.push(g.mem_bits());
            w.map_inplace(|x| g.quantize_dequantize(x));
        });
        let avg_eff: f64 = eff_bits.iter().sum::<f64>() / eff_bits.len().max(1) as f64;
        rows.push(vec![
            format!("{bits}-bit"),
            format!("{:.1}%", ant_acc * 100.0),
            format!("{:.1}% ({avg_eff:.2} bit)", gobo_acc * 100.0),
            format!("{:.1}%", reference.fp32_accuracy * 100.0),
        ]);
    }
    let headers = ["width", "ANT", "GOBO (eff. bits)", "source"];
    table(&mut out, &headers, &rows);
    out.push_str(
        "Expected shape (paper Table VI): the two schemes are within a fraction of\n\
         a point of each other at both widths; ANT achieves it with fixed-length\n\
         codes while GOBO needs variable-length outlier storage.\n",
    );
    (out, Vec::new())
}

/// Table VII: configuration and area breakdown of the iso-area designs
/// at 28 nm, from the synthesis constants in `ant-hw::area`.
fn tab07(_: &Shared) -> Report {
    let mut out =
        String::from("== Table VII: design configuration and area breakdown (28 nm) ==\n\n");
    let designs = AreaModel.all();
    let mut rows = Vec::new();
    for d in &designs {
        rows.push(vec![
            d.name.to_string(),
            d.pe_count.to_string(),
            format!("{:.2}", d.pe_um2),
            d.decoder_count.to_string(),
            format!("{:.3}", d.core_mm2()),
            format!("{:.2}%", d.decoder_overhead() * 100.0),
        ]);
    }
    let headers = [
        "design",
        "PEs",
        "PE um^2",
        "decoders",
        "core mm^2",
        "decoder ovh",
    ];
    table(&mut out, &headers, &rows);
    let buffer = format!("{BUFFER_KB} KB = {BUFFER_MM2} mm^2");
    out += &format!("shared on-chip buffer: {buffer} (CACTI, from the paper)\n");

    let ant = designs.iter().find(|d| d.name == "ANT");
    let ant = ant.expect("ANT is a design");
    let (core, pes, decoders) = (ant.core_mm2(), ant.pe_count, ant.decoder_count);
    let ovh = ant.decoder_overhead();
    let claims = vec![
        claim(
            "tab07.ant_core",
            "0.327 mm^2 with 4096 4-bit PEs + 128 decoders",
            format!("{core:.4} mm^2 with {pes} PEs + {decoders} decoders"),
            "0.322 to 0.332 mm^2, 4096 PEs, 128 decoders",
            (core - 0.327).abs() <= 0.005 && pes == 4096 && decoders == 128,
        ),
        claim(
            "tab07.decoder_overhead",
            "~0.2% (Sec. VII-C)",
            format!("{:.3}%", ovh * 100.0),
            "<= 0.25%",
            ovh <= 0.0025,
        ),
    ];
    (out, claims)
}

/// The three tensor families of Fig. 1 that the ablation and the posit
/// comparison quantize: uniform, Gaussian-tail and outlier-heavy.
fn families() -> [TensorProfile; 3] {
    let outliers = TensorProfile::BertAct {
        frac: 0.008,
        scale: 18.0,
    };
    [
        TensorProfile::FirstLayerAct,
        TensorProfile::cnn_weight(),
        outliers,
    ]
}

/// Ablations of the design choices DESIGN.md calls out: the min-MSE clip
/// search, scale granularity, the candidate list and the boundary-decoder
/// placement (2n vs n² decoders).
fn ablation(_: &Shared) -> Report {
    let mut out = String::from("== Ablation 1: clip-range search (Algorithm 2 line 5) ==\n\n");
    let data = TensorProfile::cnn_weight().sample(8192, 7);
    let dt = DataType::flint(4, true).expect("flint4s");
    let mut rows = Vec::new();
    for (name, search) in [
        ("max-abs (no clipping)", ClipSearch::MaxAbs),
        ("grid 8", ClipSearch::GridMse { steps: 8 }),
        ("grid 16", ClipSearch::GridMse { steps: 16 }),
        ("grid 64", ClipSearch::GridMse { steps: 64 }),
        ("grid 256", ClipSearch::GridMse { steps: 256 }),
    ] {
        let (_, mse) = Quantizer::fit(dt, &data, search).expect("fit succeeds");
        rows.push(vec![name.to_string(), format!("{mse:.4e}")]);
    }
    table(&mut out, &["search", "flint4s MSE"], &rows);
    out.push_str(
        "Min-MSE clipping matters most for heavy-tailed tensors; the curve\n\
         flattens by ~64 grid points, which is the library default.\n\n\
         == Ablation 2: weight-scale granularity (Sec. II-B) ==\n\n",
    );
    // Channels with varying magnitude, as real conv layers have.
    let mut w = Tensor::zeros(&[8, 512]);
    for c in 0..8 {
        let ch = TensorProfile::cnn_weight().sample(512, 100 + c as u64);
        let scale = 0.25 * (c + 1) as f32;
        for (dst, src) in w.channel_mut(c).expect("in range").iter_mut().zip(&ch) {
            *dst = src * scale;
        }
    }
    let mut rows = Vec::new();
    for (name, g) in [
        ("per-tensor", Granularity::PerTensor),
        ("per-channel", Granularity::PerChannel),
    ] {
        let (_, mse) = TensorQuantizer::fit(dt, &w, g, ClipSearch::default()).expect("fits");
        rows.push(vec![name.to_string(), format!("{mse:.4e}")]);
    }
    table(&mut out, &["granularity", "flint4s MSE"], &rows);

    out.push_str("\n== Ablation 3: candidate list (what each primitive buys) ==\n\n");
    let names = ["uniform act", "gaussian-tail weight", "outlier act"];
    let mut rows = Vec::new();
    for (name, profile) in names.into_iter().zip(families()) {
        let t = Tensor::from_slice(&profile.sample(4096, 11));
        let signed = !profile.is_non_negative();
        let mut cells = Vec::new();
        for combo in PrimitiveCombo::all() {
            let candidates = combo.candidates(4, signed).expect("candidates");
            let search = ClipSearch::default();
            let sel = select_type(&t, &candidates, Granularity::PerTensor, search)
                .expect("selection succeeds");
            cells.push(format!("{:.2e}", sel.mse));
        }
        rows.push(row(name, cells));
    }
    let headers = ["tensor", "Int", "IP", "FIP", "IP-F", "FIP-F"];
    table(&mut out, &headers, &rows);

    out.push_str("\n== Ablation 4: decoder placement (Sec. VI-A) ==\n\n");
    // 2n boundary decoders (ANT's choice) vs one decoder per PE.
    let n = 64u64;
    let array = (n * n) as f64 * ANT_PE4_UM2;
    let mut rows = Vec::new();
    for (name, decoders) in [
        ("2n boundary decoders", 2 * n),
        ("n^2 per-PE decoders", n * n),
    ] {
        let area = decoders as f64 * ANT_DECODER_UM2;
        let (mm2, share) = (area / 1e6, area / array * 100.0);
        rows.push(row(name, [format!("{mm2:.4}"), format!("{share:.2}%")]));
    }
    let headers = ["placement", "decoder mm^2", "of PE array"];
    table(&mut out, &headers, &rows);
    let amortised = n / 2;
    out += &format!("Boundary placement amortises the decoder {amortised}x — the 0.2% headline\n");
    out.push_str("overhead of Table VII depends on it.\n");
    (out, Vec::new())
}

/// Min-MSE fit of a posit lattice with grid clip search (mirrors the
/// quantizer's behaviour for the built-in types).
fn posit_mse(p: &Posit, data: &[f32]) -> f64 {
    let lattice: Vec<f32> = p.lattice().iter().map(|&v| v as f32).collect();
    let max = *lattice.last().expect("non-empty") as f64;
    let max_abs = data.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
    let mut best = f64::INFINITY;
    for k in 1..=48 {
        let scale = (max_abs * k as f32 / 48.0) / max as f32;
        let sq_err = |&x: &f32| {
            let t = x / scale;
            let pos = lattice.partition_point(|&v| v < t);
            let q = if pos == 0 {
                lattice[0]
            } else if pos >= lattice.len() {
                lattice[lattice.len() - 1]
            } else if t - lattice[pos - 1] <= lattice[pos] - t {
                lattice[pos - 1]
            } else {
                lattice[pos]
            };
            let d = (x - q * scale) as f64;
            d * d
        };
        best = best.min(data.iter().map(sq_err).sum::<f64>() / data.len() as f64);
    }
    best
}

/// Extension, flint vs posit (paper Sec. VIII): quantization MSE of
/// 4-bit posit configurations against the ANT primitives on the paper's
/// tensor families, and the field-boundary variability that drives
/// decoder complexity.
fn posit(_: &Shared) -> Report {
    let mut out = String::from("== Extension: flint vs posit<4, es> (paper Sec. VIII) ==\n\n");
    let posits = [(4, 0), (4, 1)].map(|(n, es)| Posit::new(n, es).expect("posit<4, es>"));
    let names = [
        "uniform first-layer act",
        "gaussian-tail weight",
        "outlier BERT act",
    ];
    let mut rows = Vec::new();
    for (name, profile) in names.into_iter().zip(families()) {
        let data = profile.sample(8192, 31);
        let t = Tensor::from_slice(&data);
        let candidates = PrimitiveCombo::IntPotFlint
            .candidates(4, !profile.is_non_negative())
            .expect("4-bit candidates");
        let mut best = (String::new(), f64::INFINITY);
        for dt in candidates {
            let search = ClipSearch::GridMse { steps: 48 };
            let (_, mse) =
                TensorQuantizer::fit(dt, &t, Granularity::PerTensor, search).expect("fit succeeds");
            if mse < best.1 {
                best = (dt.to_string(), mse);
            }
        }
        let mut row = vec![name.to_string(), format!("{} ({:.3e})", best.0, best.1)];
        for p in &posits {
            let mse = posit_mse(p, &data);
            let relative = (mse / best.1 - 1.0) * 100.0;
            row.push(format!("{mse:.3e} ({relative:+.0}%)"));
        }
        rows.push(row);
    }
    let headers = [
        "tensor family",
        "ANT best (MSE)",
        "posit<4,0>",
        "posit<4,1>",
    ];
    table(&mut out, &headers, &rows);

    out.push_str("\n-- decoder complexity: field-boundary variability --\n\n");
    // flint: the exponent code length varies but is found by ONE leading-
    // zero detect on a fixed field; posit: the regime run length must be
    // counted before the exponent/fraction fields can even be located.
    let p8 = Posit::new(8, 1).expect("posit<8,1>");
    let mut lengths = std::collections::BTreeMap::new();
    for code in 1..128u32 {
        *lengths.entry(p8.regime_length(code)).or_insert(0u32) += 1;
    }
    out += &format!("posit<8,1> regime lengths over positive codes: {lengths:?}\n");
    out.push_str(
        "flint8: exponent always delimited by the first one in a fixed 8-bit\n\
         field — one LZD plus one shift (Fig. 6), no sequential run detection.\n\
         \nConclusion (matches Sec. VIII): posit's tapered lattice is competitive\n\
         mid-range, but ANT adapts the *type* per tensor, winning on the uniform\n\
         and outlier families, with a strictly simpler fixed-field decode.\n",
    );
    (out, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_claim_line_marks_an_outcome_that_differs_from_its_declaration() {
        let held = claim("x.y", "paper", "1".to_string(), "bound", true);
        assert!(held.line().ends_with(") holds\n"), "{}", held.line());
        let failed = claim("x.y", "paper", "0".to_string(), "bound", false);
        assert!(failed.line().contains("MISMATCH, declared to hold"));
        let declared = failed.declared_false();
        assert!(declared.line().ends_with("fails, as declared\n"));
        let surprise = claim("x.y", "p", "1".to_string(), "b", true).declared_false();
        assert!(surprise.line().contains("MISMATCH, declared to fail"));
    }

    #[test]
    fn reference_models_train_to_usable_accuracy() {
        let m = trained(0, 5);
        assert!(m.fp32_accuracy > 0.6, "MLP fp32 {}", m.fp32_accuracy);
    }
}
