//! The plan's one layer walk under each of its three phases
//! (`forward_rows`, `prefill`, `decode_steps`): the paths the existing
//! suites leave uncovered.
//!
//! * a session that does not match the plan's causal layers is a
//!   structured error from both session entry points, never a panic;
//! * every entry point accounts itself exactly once — one forward sample
//!   and one per-layer record per plan layer;
//! * `decode_steps` on a plan that cannot decode returns the structured
//!   decode error;
//! * attention's byte accounting counts the images a forward streams:
//!   all four projection images, the o-projection's included.
//!
//! The telemetry registry is process-wide and one test counts its records
//! exactly, so every test here runs its forwards holding [`forwards`].

use ant_nn::model::{decoder_block, small_cnn, transformer_block, Sequential};
use ant_nn::qat::{quantize_model, QuantSpec};
use ant_runtime::{CompiledPlan, RuntimeError};
use ant_tensor::dist::{sample_tensor, Distribution};

fn forwards() -> std::sync::MutexGuard<'static, ()> {
    static FORWARDS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A sibling that failed while holding it has already reported.
    FORWARDS.lock().unwrap_or_else(|e| e.into_inner())
}

const GAUSSIAN: Distribution = Distribution::Gaussian {
    mean: 0.0,
    std: 1.0,
};

fn gaussian(dims: &[usize], seed: u64) -> Vec<f32> {
    sample_tensor(GAUSSIAN, dims, seed).as_slice().to_vec()
}

fn strict_plan(mut model: Sequential, features: usize, seed: u64) -> CompiledPlan {
    let calib = sample_tensor(GAUSSIAN, &[24, features], seed);
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    CompiledPlan::from_quantized_strict(&model)
        .unwrap()
        .with_threads(1)
}

fn decoder_plan(seq: usize, dim: usize, depth: usize, seed: u64) -> CompiledPlan {
    strict_plan(
        decoder_block(seq, dim, depth, seed),
        seq * dim,
        seed ^ 0x5eed,
    )
}

fn assert_decode_refusal(got: Result<(), RuntimeError>, needle: &str) {
    match got {
        Err(RuntimeError::UnsupportedLayer { reason, .. }) => {
            assert!(reason.contains(needle), "unexpected reason: {reason}")
        }
        other => panic!("expected UnsupportedLayer, got {other:?}"),
    }
}

#[test]
fn foreign_session_is_a_structured_error_in_both_session_phases() {
    let (seq, dim) = (6, 16);
    let one = decoder_plan(seq, dim, 1, 11);
    let mut two = decoder_plan(seq, dim, 2, 13);
    let x = gaussian(&[1, seq * dim], 3);
    let mut out = Vec::new();
    let _forwards = forwards();
    let mut want = Vec::new();
    two.clone().forward_rows(&x, 1, &mut want).unwrap();

    // The session holds one cache; the plan's second causal layer asks
    // for a second one.
    let mut short = one.open_session(seq).unwrap();
    assert_decode_refusal(
        two.prefill(&mut short, &x[..3 * dim], &mut out),
        "does not match",
    );
    let mut short = one.open_session(seq).unwrap();
    assert_decode_refusal(
        two.decode_steps(&mut [&mut short], &x[..dim], &mut out),
        "does not match",
    );

    // The failed walks left the plan serviceable and its answers intact.
    two.forward_rows(&x, 1, &mut out).unwrap();
    assert_eq!(out, want);
    let mut own = two.open_session(seq).unwrap();
    two.prefill(&mut own, &x[..3 * dim], &mut out).unwrap();
    assert_eq!(out, want[..3 * dim]);
}

#[test]
fn every_phase_records_one_forward_and_one_record_per_layer() {
    let (seq, dim) = (5, 16);
    let mut plan = decoder_plan(seq, dim, 2, 17);
    let layers = plan.layers().len() as u64;
    let x = gaussian(&[1, seq * dim], 5);
    let mut out = Vec::new();
    let mut sess = plan.open_session(seq).unwrap();
    let _forwards = forwards();
    let assert_one_walk = |phase: &str, walk: &mut dyn FnMut()| {
        let before = ant_obs::global().snapshot();
        walk();
        let delta = ant_obs::global().snapshot().delta_since(&before);
        let count = |family: &str, kind: Option<&str>| match delta.get(family, kind) {
            Some(series) => match &series.value {
                ant_obs::Value::Histogram(h) => h.count(),
                _ => panic!("{family} is not a histogram"),
            },
            None => 0,
        };
        assert_eq!(count("ant_forward_time_ns", None), 1, "{phase}");
        let layer_records: u64 = ant_runtime::obs::LAYER_KINDS
            .iter()
            .map(|kind| count("ant_layer_time_ns", Some(kind.as_str())))
            .sum();
        assert_eq!(layer_records, layers, "{phase}");
    };
    assert_one_walk("forward_rows", &mut || {
        plan.forward_rows(&x, 1, &mut out).unwrap()
    });
    assert_one_walk("prefill", &mut || {
        plan.prefill(&mut sess, &x[..2 * dim], &mut out).unwrap()
    });
    assert_one_walk("decode_steps", &mut || {
        plan.decode_steps(&mut [&mut sess], &x[..dim], &mut out)
            .unwrap()
    });
}

#[test]
fn attention_bytes_count_only_the_images_a_forward_streams() {
    let (seq, dim) = (5, 16);
    let mut plan = decoder_plan(seq, dim, 1, 29);
    let widths = |l: &ant_runtime::PlanLayer| l.describe().image_widths();
    let widths: Vec<_> = plan.layers().iter().flat_map(widths).collect();
    assert_eq!(widths, ["i8"; 4], "default 4-bit selection packs bytes");
    let x = gaussian(&[1, seq * dim], 7);
    let mut out = Vec::new();
    let _forwards = forwards();
    let before = ant_obs::global().snapshot();
    plan.forward_rows(&x, 1, &mut out).unwrap();
    let delta = ant_obs::global().snapshot().delta_since(&before);
    let series = delta.get("ant_layer_bytes_total", Some("packed_attn"));
    // f32 in + out rows, plus the q/k/v/o byte images: the o-projection
    // streams its own image like the other three.
    let want = 2 * seq * dim * 4 + 4 * dim * dim;
    match series.map(|s| &s.value) {
        Some(ant_obs::Value::Counter(got)) => assert_eq!(*got, want as u64),
        other => panic!("ant_layer_bytes_total{{packed_attn}}: {other:?}"),
    }
}

#[test]
fn decode_steps_on_undecodable_plans_is_the_structured_decode_error() {
    let dim = 8;
    let decoder = decoder_plan(4, dim, 1, 19);
    let mut cnn = strict_plan(small_cnn(4, 7), 144, 9);
    let mut encoder = strict_plan(transformer_block(4, dim, 3, 7), 4 * dim, 13);
    let token = gaussian(&[1, dim], 23);
    let mut out = Vec::new();
    let _forwards = forwards();
    for (name, plan) in [("cnn", &mut cnn), ("encoder", &mut encoder)] {
        let mut sess = decoder.open_session(4).unwrap();
        match plan.decode_steps(&mut [&mut sess], &token, &mut out) {
            Err(RuntimeError::UnsupportedLayer { layer, .. }) => {
                assert_eq!(layer, "decode", "{name}")
            }
            other => panic!("{name}: expected the decode error, got {other:?}"),
        }
        assert_eq!(sess.tokens(), 0, "{name}: a refused step appends nothing");
        assert!(plan.open_session(4).is_err(), "{name}");
    }
}
