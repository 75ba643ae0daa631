//! Differential decode conformance: token-by-token incremental decode
//! against the packed, group-quantized KV cache must reproduce the
//! full-sequence causal forward.
//!
//! The contract under test is the strongest one the runtime makes:
//! opening a session, prefilling a prompt prefix and then decoding the
//! remaining tokens one at a time — each K/V row quantized into the
//! M-ANT group cache and streamed back out of packed codes — yields the
//! same per-token outputs as running the whole sequence through the
//! masked causal forward in one call, **bit for bit** (`to_bits`
//! equality): shared group-encode path, identical reduction orders,
//! prefix softmax ≡ masked softmax.
//!
//! The grid covers the ISSUE's matrix: type combos whose per-group
//! candidates draw from int/PoT/flint, at 4- and 8-bit wire codes
//! (PoT members drop out at 8 bits by construction — lenient candidate
//! building), across group sizes 16/64/128, for both single- and
//! multi-block decoders.

use ant_core::select::PrimitiveCombo;
use ant_nn::model::decoder_block;
use ant_nn::qat::{quantize_model, QuantSpec};
use ant_runtime::{CompiledPlan, KvQuantSpec, RuntimeError};
use ant_tensor::dist::{sample_tensor, Distribution};
use ant_tensor::Tensor;
use proptest::prelude::*;

fn gaussian(dims: &[usize], seed: u64) -> Tensor {
    sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        dims,
        seed,
    )
}

/// A quantized causal decoder compiled to the packed domain (strict:
/// every layer must lower).
fn decoder_plan(seq: usize, dim: usize, depth: usize, seed: u64) -> CompiledPlan {
    let mut model = decoder_block(seq, dim, depth, seed);
    let calib = gaussian(&[24, seq * dim], seed ^ 0x5eed);
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    CompiledPlan::from_quantized_strict(&model)
        .unwrap()
        .with_threads(1)
}

/// Runs the full-sequence causal forward, then replays the same tokens
/// as prefill(prompt) + one decode step per remaining token, and checks
/// every produced row against the full forward's rows bit for bit.
fn assert_incremental_matches_full(plan: &mut CompiledPlan, seq: usize, prompt: usize) {
    let dim = plan.token_dim().expect("causal plan");
    let x = gaussian(&[1, seq * dim], 0xD0_C0DE ^ (seq * dim) as u64);
    let x = x.as_slice();
    let mut full = Vec::new();
    plan.forward_rows(x, 1, &mut full).unwrap();
    assert_eq!(full.len(), seq * dim);

    let mut sess = plan.open_session(seq).unwrap();
    let mut got = vec![0f32; 0];
    plan.prefill(&mut sess, &x[..prompt * dim], &mut got)
        .unwrap();
    assert_eq!(got.len(), prompt * dim, "prefill returns every prompt row");
    assert_eq!(sess.tokens(), prompt);
    let close = |row: usize, have: &[f32]| {
        let want = &full[row * dim..(row + 1) * dim];
        for (a, b) in have.iter().zip(want) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "row {row}: incremental {a} vs full {b}"
            );
        }
    };
    for r in 0..prompt {
        close(r, &got[r * dim..(r + 1) * dim]);
    }
    let mut step_out = Vec::new();
    for t in prompt..seq {
        let row = &x[t * dim..(t + 1) * dim];
        plan.decode_steps(&mut [&mut sess], row, &mut step_out)
            .unwrap();
        assert_eq!(step_out.len(), dim);
        close(t, &step_out);
    }
    assert_eq!(sess.tokens(), seq);
}

#[test]
fn incremental_decode_matches_full_forward_across_type_bit_group_grid() {
    let (seq, dim, prompt) = (9, 32, 4);
    let base = decoder_plan(seq, dim, 1, 21);
    for combo in [
        PrimitiveCombo::Int,
        PrimitiveCombo::IntPot,
        PrimitiveCombo::IntPotFlint,
    ] {
        for bits in [4u32, 8] {
            for group in [16usize, 64, 128] {
                let mut plan = base
                    .clone()
                    .with_kv_quant(KvQuantSpec { bits, group, combo })
                    .unwrap();
                assert_incremental_matches_full(&mut plan, seq, prompt);
            }
        }
    }
}

#[test]
fn multi_block_decoder_composes_causally() {
    // Two stacked blocks: block 2's inputs depend on block 1's outputs,
    // so this exercises causality composing across layers, plus one
    // deliberately awkward shape (dim not a multiple of the group).
    let (seq, dim, prompt) = (7, 24, 3);
    let mut plan = decoder_plan(seq, dim, 2, 33)
        .with_kv_quant(KvQuantSpec {
            bits: 4,
            group: 16,
            combo: PrimitiveCombo::IntPotFlint,
        })
        .unwrap();
    assert_incremental_matches_full(&mut plan, seq, prompt);
}

#[test]
fn prefill_only_and_decode_only_extremes() {
    let (seq, dim) = (6, 16);
    let mut plan = decoder_plan(seq, dim, 1, 5);
    // Prompt = everything (pure prefill)…
    assert_incremental_matches_full(&mut plan, seq, seq.min(seq));
    // …and prompt = a single token (decode carries almost all of it).
    assert_incremental_matches_full(&mut plan, seq, 1);
}

#[test]
fn session_misuse_is_structured_errors_not_corruption() {
    let (seq, dim) = (5, 16);
    let mut plan = decoder_plan(seq, dim, 1, 11);
    let x = gaussian(&[1, seq * dim], 3).as_slice().to_vec();
    let mut out = Vec::new();

    // Capacity: prompt longer than the session.
    let mut sess = plan.open_session(2).unwrap();
    match plan.prefill(&mut sess, &x, &mut out) {
        Err(RuntimeError::KvCacheFull { capacity: 2 }) => {}
        other => panic!("expected KvCacheFull, got {other:?}"),
    }

    // Decode past capacity.
    plan.prefill(&mut sess, &x[..2 * dim], &mut out).unwrap();
    match plan.decode_steps(&mut [&mut sess], &x[..dim], &mut out) {
        Err(RuntimeError::KvCacheFull { capacity: 2 }) => {}
        other => panic!("expected KvCacheFull, got {other:?}"),
    }

    // Prefill on a non-fresh session.
    assert!(matches!(
        plan.prefill(&mut sess, &x[..dim], &mut out),
        Err(RuntimeError::UnsupportedLayer { .. })
    ));

    // Ragged decode input.
    let mut fresh = plan.open_session(seq).unwrap();
    assert!(matches!(
        plan.decode_steps(&mut [&mut fresh], &x[..dim + 1], &mut out),
        Err(RuntimeError::ShapeMismatch { .. })
    ));

    // Zero-capacity session, and sessions on non-causal plans.
    assert!(plan.open_session(0).is_err());
    let mut encoder = {
        let mut model = ant_nn::model::transformer_block(4, 8, 3, 7);
        let calib = gaussian(&[24, 32], 13);
        quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
        CompiledPlan::from_quantized_strict(&model).unwrap()
    };
    assert!(encoder.token_dim().is_none());
    assert!(!encoder.is_causal());
    assert!(encoder.open_session(4).is_err());
    assert!(matches!(
        encoder.prefill(&mut fresh, &x[..dim], &mut out),
        Err(RuntimeError::UnsupportedLayer { .. })
    ));
}

#[test]
fn causal_flag_survives_artifact_roundtrip() {
    // Quantize a decoder, save it as a .antm artifact, reload, and
    // strict-compile: the causal flag must persist (MODL tag 7), the
    // reloaded plan must decode, and the incremental path must still
    // match the reloaded plan's full forward.
    let (seq, dim, prompt) = (6, 16, 2);
    let mut model = decoder_block(seq, dim, 1, 29);
    let calib = gaussian(&[24, seq * dim], 31);
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();

    let artifact = ant_runtime::ModelArtifact::from_model(&model).unwrap();
    assert!(
        artifact
            .layer_summaries()
            .iter()
            .any(|s| s.kind == "causal-attn"),
        "summary must distinguish causal attention"
    );
    let mut bytes = Vec::new();
    artifact.save(&mut bytes).unwrap();
    let reloaded = ant_runtime::ModelArtifact::load(&bytes[..]).unwrap();
    let mut plan = reloaded.compile_strict().unwrap().with_threads(1);
    assert!(plan.is_causal());
    assert_eq!(plan.token_dim(), Some(dim));
    assert_incremental_matches_full(&mut plan, seq, prompt);
}

#[test]
fn kv_bytes_scale_with_bit_width() {
    let plan = decoder_plan(6, 32, 1, 17);
    let narrow = plan
        .clone()
        .with_kv_quant(KvQuantSpec {
            bits: 4,
            group: 16,
            combo: PrimitiveCombo::IntPotFlint,
        })
        .unwrap();
    let wide = plan
        .with_kv_quant(KvQuantSpec {
            bits: 8,
            group: 16,
            combo: PrimitiveCombo::IntPotFlint,
        })
        .unwrap();
    let (s4, s8) = (
        narrow.open_session(64).unwrap(),
        wide.open_session(64).unwrap(),
    );
    assert!(
        s4.kv_bytes() < s8.kv_bytes(),
        "nibble packing must shrink the arena: {} vs {}",
        s4.kv_bytes(),
        s8.kv_bytes()
    );
    assert!(s4.kv_bytes() > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Public-API property over random shapes and splits: group-wise
    /// quantized KV appends (prefill + step-by-step decode) round-trip
    /// against the float-pipeline reference — the full-sequence causal
    /// forward, whose K/V rows go through the identical quantize →
    /// dequantize float path without ever being packed into a cache.
    #[test]
    fn prop_incremental_equals_full_on_random_shapes(
        seed in 0u64..1 << 32,
        seq in 2usize..8,
        dim_ix in 0usize..3,
        prompt_frac in 0usize..100,
        group_ix in 0usize..3,
        bits_ix in 0usize..2,
    ) {
        let dim = [16usize, 24, 32][dim_ix];
        let group = [16usize, 64, 128][group_ix];
        let bits = [4u32, 8][bits_ix];
        let prompt = 1 + prompt_frac * (seq - 1) / 100;
        let mut plan = decoder_plan(seq, dim, 1, seed | 1)
            .with_kv_quant(KvQuantSpec { bits, group, combo: PrimitiveCombo::IntPotFlint })
            .unwrap();
        let tdim = plan.token_dim().unwrap();
        prop_assert_eq!(tdim, dim);
        let x = gaussian(&[1, seq * dim], seed ^ 0xF00D);
        let x = x.as_slice();
        let mut full = Vec::new();
        plan.forward_rows(x, 1, &mut full).unwrap();
        let mut sess = plan.open_session(seq).unwrap();
        let mut got = Vec::new();
        plan.prefill(&mut sess, &x[..prompt * dim], &mut got).unwrap();
        for r in 0..prompt {
            for (a, b) in got[r * dim..(r + 1) * dim].iter().zip(&full[r * dim..(r + 1) * dim]) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "row {}: {} vs {}", r, a, b);
            }
        }
        let mut step = Vec::new();
        for t in prompt..seq {
            plan.decode_steps(&mut [&mut sess], &x[t * dim..(t + 1) * dim], &mut step).unwrap();
            for (a, b) in step.iter().zip(&full[t * dim..(t + 1) * dim]) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "row {}: {} vs {}", t, a, b);
            }
        }
    }
}
