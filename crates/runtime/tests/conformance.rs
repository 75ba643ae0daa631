//! Cross-layer differential conformance suite for the packed runtime.
//!
//! Three promises are checked for *every* layer kind the planner accepts
//! (dense, conv, attention, relu, gelu, pool, norm):
//!
//! 1. **Differential**: packed-domain execution matches the QAT
//!    fake-quantized forward within 1e-4 relative tolerance, across the
//!    int / PoT / flint primitives at 4- and 8-bit widths (where the
//!    width is representable — PoT codes saturate at 6 bits), and via the
//!    reference fallback for the `float` primitive.
//! 2. **Code-for-code**: the conv and attention GEMMs compute exactly
//!    what `ant-hw`'s bit-level decoder + MAC pipeline computes over the
//!    same wire codes.
//! 3. **Serving**: the batch scheduler returns bit-identical results for
//!    mixed conv/dense models no matter how concurrent submissions are
//!    grouped, and misuse (consumed/unknown ids) errors instead of
//!    hanging — the regression guard for the PR 2 `wait` fix.

use ant_core::{
    ClipSearch, Codec, DataType, Granularity, PrimitiveType, Quantizer, TensorQuantizer,
};
use ant_hw::decode::{decode, WireType};
use ant_hw::systolic::{reference_gemm, DecodedMatrix};
use ant_nn::attention::softmax_rows_in_place;
use ant_nn::gelu::{gelu, Gelu};
use ant_nn::model::{
    decoder_block, mlp, small_cnn, tiny_transformer, transformer_block, NetLayer, Sequential,
};
use ant_nn::qat::{capture_layer_inputs, dequantize_layer, quantize_model, QuantSpec};
use ant_nn::vmath;
use ant_runtime::gemm::{im2row, int_gemm};
use ant_runtime::{BatchPolicy, CompiledPlan, Engine, PlanLayer, Planner, RuntimeError};
use ant_tensor::dist::{sample_tensor, Distribution};
use ant_tensor::Tensor;
use proptest::prelude::*;
use std::time::Duration;

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

/// The model zoo: between them these cover every [`NetLayer`] variant
/// (Dense, Relu, Conv, Pool, Norm, Attn, Gelu).
fn model_zoo(seed: u64) -> Vec<(&'static str, Sequential, usize)> {
    vec![
        ("mlp", mlp(6, 3, seed), 6),
        ("cnn", small_cnn(3, seed), 144),
        ("transformer", tiny_transformer(4, 8, 3, seed), 32),
        ("attn-gelu", transformer_block(4, 8, 3, seed), 32),
    ]
}

fn make_dtype(prim: PrimitiveType, bits: u32, signed: bool) -> Option<DataType> {
    match prim {
        PrimitiveType::Int => DataType::int(bits, signed).ok(),
        PrimitiveType::Pot => DataType::pot(bits, signed).ok(),
        PrimitiveType::Flint => DataType::flint(bits, signed).ok(),
        PrimitiveType::Float => DataType::float(bits, signed).ok(),
    }
}

/// Quantizes every quantizable layer at one forced primitive/width —
/// Algorithm 2 with a single candidate — so the differential property can
/// sweep the primitive × width grid deterministically.
fn force_quantize(model: &mut Sequential, calib: &Tensor, prim: PrimitiveType, bits: u32) {
    let search = ClipSearch::default();
    for layer in model.layers_mut() {
        dequantize_layer(layer);
    }
    let inputs = capture_layer_inputs(model, calib).expect("calibration forward");
    for (i, layer) in model.layers_mut().iter_mut().enumerate() {
        let Some(input) = &inputs[i] else { continue };
        let act_signed = input.as_slice().iter().any(|&v| v < 0.0);
        let w_dt = make_dtype(prim, bits, true).expect("gated by caller");
        let a_dt = make_dtype(prim, bits, act_signed).expect("gated by caller");
        let fit_w = |w: &Tensor| {
            TensorQuantizer::fit(w_dt, w, Granularity::PerChannel, search)
                .expect("weight fit")
                .0
        };
        let act = Quantizer::fit(a_dt, input.as_slice(), search)
            .expect("activation fit")
            .0;
        match layer {
            NetLayer::Dense(l) => {
                l.quant.weight = Some(fit_w(&l.weight().clone()));
                l.quant.activation = Some(act);
            }
            NetLayer::Conv(l) => {
                l.quant.weight = Some(fit_w(&l.weight().clone()));
                l.quant.activation = Some(act);
            }
            NetLayer::Attn(l) => {
                let ws: Vec<Tensor> = l
                    .projection_weights()
                    .iter()
                    .map(|w| (*w).clone())
                    .collect();
                for (slot, w) in ws.iter().enumerate() {
                    l.quant.weights[slot] = Some(fit_w(w));
                }
                l.quant.activation = Some(act);
            }
            _ => {}
        }
    }
}

fn assert_plan_matches_reference(
    label: &str,
    plan: &mut CompiledPlan,
    model: &mut Sequential,
    x: &Tensor,
) -> Result<(), TestCaseError> {
    let reference = model.forward(x).expect("reference forward");
    let packed = plan.forward(x).expect("packed forward");
    prop_assert_eq!(packed.dims(), reference.dims(), "{}", label);
    for (i, (a, b)) in packed
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .enumerate()
    {
        prop_assert!(
            (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
            "{}[{}]: packed {} vs reference {}",
            label,
            i,
            a,
            b
        );
    }
    Ok(())
}

fn wire_type(dtype: DataType) -> WireType {
    let signed = dtype.is_signed();
    match dtype.primitive() {
        PrimitiveType::Int => WireType::Int { signed },
        PrimitiveType::Pot => WireType::Pot { signed },
        PrimitiveType::Flint => WireType::Flint { signed },
        PrimitiveType::Float => panic!("float never reaches the packed path"),
    }
}

/// Decodes a packed tensor's codes through the *hardware* bit-level
/// decoder (not the codec LUT) into integers, asserting the two agree on
/// every code along the way.
fn hw_decode_ints(t: &ant_core::pack::PackedTensor) -> Vec<i32> {
    let dt = t.dtype();
    let codec = Codec::new(dt).expect("valid dtype");
    let lut = codec.decode_lut();
    let wt = wire_type(dt);
    t.codes()
        .iter()
        .map(|&c| {
            let hw = decode(c, dt.bits(), wt).expect("valid code");
            assert_eq!(
                lut[c as usize] as i64,
                hw.value(),
                "{dt}: code {c:b} decodes differently in hw"
            );
            hw.value() as i32
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Differential conformance: packed execution ≡ fake-quant forward
    /// (≤1e-4 rel) for every layer kind, across int/PoT/flint × {4, 8}
    /// bits, with coverage 1.0 under strict compilation.
    #[test]
    fn packed_matches_fake_quant_across_primitives_and_widths(
        seed in 0u64..500, batch in 1usize..4,
    ) {
        for prim in [PrimitiveType::Int, PrimitiveType::Pot, PrimitiveType::Flint] {
            for bits in [4u32, 8] {
                // Skip widths the primitive cannot represent (PoT stops
                // at 6 bits); every primitive is still exercised at 4.
                if make_dtype(prim, bits, true).is_none() {
                    continue;
                }
                for (name, mut model, feat) in model_zoo(seed) {
                    let calib = gaussian(&[16, feat], seed.wrapping_add(29));
                    force_quantize(&mut model, &calib, prim, bits);
                    let mut plan = CompiledPlan::from_quantized_strict(&model)
                        .expect("strict compile");
                    prop_assert_eq!(plan.packed_layer_count() > 0, true);
                    let x = gaussian(&[batch, feat], seed.wrapping_add(41));
                    let label = format!("{name} {prim:?}{bits}");
                    assert_plan_matches_reference(&label, &mut plan, &mut model, &x)?;
                }
            }
        }
    }

    /// The `float` primitive has no integer decoder and there is no
    /// reference-path fallback: compilation refuses with
    /// `UnsupportedLayer`.
    #[test]
    fn float_primitive_falls_back_conformantly(seed in 0u64..500) {
        for bits in [4u32, 8] {
            for (_name, mut model, feat) in model_zoo(seed) {
                let calib = gaussian(&[16, feat], seed.wrapping_add(3));
                force_quantize(&mut model, &calib, PrimitiveType::Float, bits);
                prop_assert!(matches!(
                    CompiledPlan::from_quantized_strict(&model),
                    Err(RuntimeError::UnsupportedLayer { .. })
                ));
            }
        }
    }

    /// Code-for-code: every conv layer's GEMM over the *actual packed
    /// kernel codes* equals the cycle-level hardware reference (`ant_hw`
    /// decode + mac) over the same codes, with the activation side (the
    /// layer's real calibrated input stream) lowered by the same integer
    /// im2row the runtime uses.
    #[test]
    fn conv_gemm_matches_hw_pipeline(seed in 0u64..500) {
        let mut model = small_cnn(3, seed);
        let calib = gaussian(&[16, 144], seed.wrapping_add(1));
        quantize_model(&mut model, &calib, QuantSpec::default()).expect("quantize");
        let plan = CompiledPlan::from_quantized_strict(&model).expect("compile");
        // Each quantizable layer's input under fake-quant execution — the
        // same activation distribution the packed layer sees.
        let x = gaussian(&[1, 144], seed.wrapping_add(2));
        let layer_inputs = capture_layer_inputs(&mut model, &x).expect("capture");
        let mut checked = 0;
        for (i, layer) in plan.layers().iter().enumerate() {
            let PlanLayer::PackedConv(p) = layer else { continue };
            let input = layer_inputs[i].as_ref().expect("conv input captured");
            // Weight integers through the hardware decoder.
            let w_int = hw_decode_ints(p.weights());
            let dims = p.weights().dims().to_vec();
            let (co, k) = (dims[0], dims[1] * dims[2] * dims[3]);
            // Activation integers exactly as the runtime quantizes them.
            let aq = p.activation();
            let (s_a, codec) = (aq.scale(), aq.codec());
            let a_int: Vec<i32> = input.as_slice().iter()
                .map(|&v| codec.snap(v / s_a) as i32)
                .collect();
            let (ci, h, w) = p.in_shape();
            let (_, oh, ow) = p.out_shape();
            let pixels = oh * ow;
            let mut rows = vec![0i32; pixels * k];
            im2row::<i32>(&a_int, ci, h, w, p.geometry(), &mut rows);
            // Runtime GEMM.
            let mut acc = vec![0i64; pixels * co];
            int_gemm(&rows, &w_int, pixels, k, co, &mut acc);
            // Hardware reference over Decoded operands: rows · Wᵀ, the
            // weight side decoded from the *wire codes* by the boundary
            // decoder, transposed into [k, co].
            let dt = p.weights().dtype();
            let w_dec =
                DecodedMatrix::from_codes(co, k, &p.weights().codes(), dt.bits(), wire_type(dt))
                    .expect("hw decode");
            let mut wt = vec![ant_hw::decode::Decoded { base: 0, exp: 0 }; k * co];
            for r in 0..co {
                for c in 0..k {
                    wt[c * co + r] = w_dec.get(r, c);
                }
            }
            let w_mat = DecodedMatrix::new(k, co, wt);
            let a_mat = DecodedMatrix::new(
                pixels,
                k,
                rows.iter()
                    .map(|&v| ant_hw::decode::Decoded { base: v, exp: 0 })
                    .collect(),
            );
            prop_assert_eq!(&acc, &reference_gemm(&a_mat, &w_mat), "conv {}", p.name());
            checked += 1;
        }
        prop_assert_eq!(checked, 2, "both conv layers must be checked");
    }
}

#[test]
fn attention_gemms_match_hw_pipeline() {
    // All four attention projections: packed codes → hw decode → mac
    // reference equals the runtime's integer GEMM operands.
    let mut model = transformer_block(4, 8, 3, 77);
    let calib = gaussian(&[16, 32], 78);
    quantize_model(&mut model, &calib, QuantSpec::default()).expect("quantize");
    let plan = CompiledPlan::from_quantized_strict(&model).expect("compile");
    let x = gaussian(&[1, 32], 79);
    let Some(PlanLayer::PackedAttn(p)) = plan
        .layers()
        .iter()
        .find(|l| matches!(l, PlanLayer::PackedAttn(_)))
    else {
        panic!("no attention layer in plan");
    };
    let (seq, dim) = (p.seq(), p.dim());
    let aq = p.activation();
    let (s_a, codec) = (aq.scale(), aq.codec());
    let a_int: Vec<i32> = x
        .as_slice()
        .iter()
        .map(|&v| codec.snap(v / s_a) as i32)
        .collect();
    for (slot, packed) in p.projections().into_iter().enumerate() {
        let w_int = hw_decode_ints(packed);
        assert_eq!(packed.dims(), &[dim, dim], "projection {slot}");
        // Runtime GEMM: [seq, dim] · Wᵀ.
        let mut acc = vec![0i64; seq * dim];
        int_gemm(&a_int, &w_int, seq, dim, dim, &mut acc);
        // Hardware reference: the weight side decoded from the wire codes
        // by the boundary decoder, transposed into [dim, dim].
        let dt = packed.dtype();
        let w_dec = DecodedMatrix::from_codes(dim, dim, &packed.codes(), dt.bits(), wire_type(dt))
            .expect("hw decode");
        let mut wt = vec![ant_hw::decode::Decoded { base: 0, exp: 0 }; dim * dim];
        for r in 0..dim {
            for c in 0..dim {
                wt[c * dim + r] = w_dec.get(r, c);
            }
        }
        let w_mat = DecodedMatrix::new(dim, dim, wt);
        let a_mat = DecodedMatrix::new(
            seq,
            dim,
            a_int
                .iter()
                .map(|&v| ant_hw::decode::Decoded { base: v, exp: 0 })
                .collect(),
        );
        assert_eq!(
            acc,
            reference_gemm(&a_mat, &w_mat),
            "attention projection {slot}"
        );
    }
}

#[test]
fn transformer_serves_batched_through_engine() {
    // The acceptance model: a 1-block transformer (attn → gelu → dense)
    // compiles with zero fallback and serves batched through the engine,
    // bit-identical to single-row execution (packed layers are exact and
    // the f32 stages are per-sample, so grouping cannot matter).
    let mut model = transformer_block(4, 8, 3, 91);
    let calib = gaussian(&[24, 32], 92);
    quantize_model(&mut model, &calib, QuantSpec::default()).expect("quantize");
    let mut planner = Planner::new().strict();
    let plan = planner
        .compile(&mut model, &calib, QuantSpec::default())
        .expect("strict compile");
    assert_eq!(plan.packed_layer_count(), 2); // attn + head
    let inputs = gaussian(&[12, 32], 93);
    let mut reference_plan = plan.clone();
    let engine = Engine::new(
        plan,
        BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(2),
            ..BatchPolicy::default()
        },
    );
    let ids: Vec<_> = (0..12)
        .map(|i| {
            engine
                .submit(&inputs.as_slice()[i * 32..(i + 1) * 32])
                .expect("submit")
        })
        .collect();
    for (i, id) in ids.into_iter().enumerate() {
        let got = engine.wait(id).expect("result");
        let row =
            Tensor::from_vec(inputs.as_slice()[i * 32..(i + 1) * 32].to_vec(), &[1, 32]).unwrap();
        let expect = reference_plan.forward(&row).unwrap();
        assert_eq!(got, expect.as_slice(), "request {i}");
    }
}

#[test]
fn engine_stress_threaded_submits_are_grouping_independent() {
    // A mixed conv/dense model served from many threads at once: every
    // response must be bit-identical to the single-row reference
    // execution, no matter how the scheduler grouped the batches.
    let mut model = small_cnn(4, 51);
    let calib = gaussian(&[24, 144], 52);
    quantize_model(&mut model, &calib, QuantSpec::default()).expect("quantize");
    let plan = CompiledPlan::from_quantized_strict(&model).expect("compile");
    let inputs = gaussian(&[16, 144], 53);
    // Reference outputs, one row at a time.
    let mut reference_plan = plan.clone();
    let expected: Vec<Vec<f32>> = (0..16)
        .map(|i| {
            let row = Tensor::from_vec(
                inputs.as_slice()[i * 144..(i + 1) * 144].to_vec(),
                &[1, 144],
            )
            .unwrap();
            reference_plan.forward(&row).unwrap().as_slice().to_vec()
        })
        .collect();
    let engine = Engine::new(
        plan,
        BatchPolicy {
            max_batch: 5,
            max_wait: Duration::from_millis(2),
            ..BatchPolicy::default()
        },
    );
    const THREADS: usize = 4;
    const PER_THREAD: usize = 24;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = &engine;
            let inputs = &inputs;
            let expected = &expected;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let row = (t * 7 + i * 3) % 16;
                    let id = engine
                        .submit(&inputs.as_slice()[row * 144..(row + 1) * 144])
                        .expect("submit");
                    let got = engine.wait(id).expect("result");
                    assert_eq!(got, expected[row], "thread {t} request {i} row {row}");
                }
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.submitted, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.completed, (THREADS * PER_THREAD) as u64);
    assert!(stats.largest_batch <= 5);
    // Regression guard for the PR 2 hang fix: waiting on a consumed or
    // never-issued id errors instead of blocking forever.
    let id = engine.submit(&inputs.as_slice()[..144]).expect("submit");
    assert!(engine.wait(id).is_ok());
    assert!(matches!(engine.wait(id), Err(RuntimeError::Engine(_))));
    assert!(engine.poll(id).is_none());
    assert!(matches!(
        engine.wait(ant_runtime::RequestId::from_raw(u64::MAX)),
        Err(RuntimeError::Engine(_))
    ));
}

#[test]
fn fingerprint_invalidation_covers_conv_attention_and_bias() {
    use ant_nn::layer::Layer as _;
    // CNN: mutating a conv kernel or a conv bias must miss the selection
    // cache; an unchanged model must hit it.
    let mut model = small_cnn(3, 61);
    let calib = gaussian(&[16, 144], 62);
    let mut planner = Planner::new();
    let spec = QuantSpec::default();
    planner.compile(&mut model, &calib, spec).expect("cold");
    planner.compile(&mut model, &calib, spec).expect("warm");
    assert_eq!(planner.cache().stats(), (1, 1), "unchanged CNN must hit");
    // Perturb one conv kernel element (rank-4 param).
    if let NetLayer::Conv(c) = &mut model.layers_mut()[0] {
        c.for_each_param(&mut |p| {
            if p.value.rank() == 4 {
                p.value.as_mut_slice()[0] += 0.25;
            }
        });
    } else {
        panic!("layer 0 is not a conv");
    }
    planner
        .compile(&mut model, &calib, spec)
        .expect("kernel change");
    assert_eq!(
        planner.cache().stats(),
        (1, 2),
        "conv kernel change must miss"
    );
    // Perturb the same conv's bias (rank-1 param).
    if let NetLayer::Conv(c) = &mut model.layers_mut()[0] {
        c.for_each_param(&mut |p| {
            if p.value.rank() == 1 {
                p.value.as_mut_slice()[0] += 1.0;
            }
        });
    }
    planner
        .compile(&mut model, &calib, spec)
        .expect("bias change");
    assert_eq!(
        planner.cache().stats(),
        (1, 3),
        "conv bias change must miss"
    );
    // Unchanged again: hit.
    planner
        .compile(&mut model, &calib, spec)
        .expect("warm again");
    assert_eq!(planner.cache().stats(), (2, 3));

    // Transformer: mutating one attention projection weight must miss.
    let mut model = transformer_block(4, 8, 3, 63);
    let calib = gaussian(&[16, 32], 64);
    let mut planner = Planner::new().strict();
    planner.compile(&mut model, &calib, spec).expect("cold");
    planner.compile(&mut model, &calib, spec).expect("warm");
    assert_eq!(planner.cache().stats(), (1, 1));
    if let NetLayer::Attn(a) = &mut model.layers_mut()[0] {
        let mut first = true;
        a.for_each_param(&mut |p| {
            if first {
                p.value.as_mut_slice()[3] -= 0.5; // wq only
                first = false;
            }
        });
    } else {
        panic!("layer 0 is not attention");
    }
    planner
        .compile(&mut model, &calib, spec)
        .expect("wq change");
    assert_eq!(
        planner.cache().stats(),
        (1, 2),
        "attention projection change must miss"
    );
}

#[test]
fn polymorphic_prefix_still_pins_plan_input_width() {
    // tiny_transformer opens with layer norm, which is
    // shape-polymorphic; the attention layer behind it must still pin
    // the plan's input width (width propagates backwards through the
    // polymorphic prefix), or Engine-based serving rejects the model.
    let mut model = tiny_transformer(4, 8, 3, 17);
    let calib = gaussian(&[16, 32], 18);
    quantize_model(&mut model, &calib, QuantSpec::default()).expect("quantize");
    let plan = CompiledPlan::from_quantized_strict(&model).expect("compile");
    assert_eq!(plan.in_features(), Some(32));
}

// ---- The f32 boundary on shapes that are not a multiple of the vector
// width: every other grid in this suite uses dims that are, so the
// `vmath` tails would go unexecuted by the packed path.

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `seq = 5`, `dim = 12` attention models (an encoder block with its
/// GELU and head, a causal decoder block), quantized.
fn ragged_attention_models(seed: u64) -> Vec<(&'static str, Sequential)> {
    let mut models = vec![
        ("encoder", transformer_block(5, 12, 3, seed)),
        ("decoder", decoder_block(5, 12, 1, seed)),
    ];
    for (_, model) in &mut models {
        let calib = gaussian(&[24, 60], seed ^ 0x5eed);
        quantize_model(model, &calib, QuantSpec::default()).expect("quantize");
    }
    models
}

#[test]
fn f32_boundary_ragged_batch_rows_equal_batch_one_rows() {
    for (label, model) in ragged_attention_models(41) {
        let compile = |threads| {
            CompiledPlan::from_quantized_strict(&model)
                .expect("compile")
                .with_threads(threads)
        };
        let x = gaussian(&[9, 60], 42);
        let x = x.as_slice();
        let (mut single, mut out) = (compile(1), Vec::new());
        let mut want = Vec::new();
        for row in x.chunks_exact(60) {
            single.forward_rows(row, 1, &mut out).expect("batch 1");
            want.extend(bits(&out));
        }
        let per_row = want.len() / 9;
        for threads in [1, 2] {
            let mut plan = compile(threads);
            for n in 1..=9 {
                plan.forward_rows(&x[..n * 60], n, &mut out)
                    .expect("batch n");
                assert_eq!(
                    bits(&out),
                    want[..n * per_row],
                    "{label}: batch {n}, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn f32_boundary_ragged_decode_steps_equal_full_forward_rows() {
    let (seq, dim) = (5, 12);
    let (_, model) = ragged_attention_models(43).pop().expect("decoder");
    let mut plan = CompiledPlan::from_quantized_strict(&model).expect("compile");
    let x = gaussian(&[1, seq * dim], 44);
    let x = x.as_slice();
    let mut full = Vec::new();
    plan.forward_rows(x, 1, &mut full).expect("full forward");
    for prompt in 1..seq {
        let mut sess = plan.open_session(seq).expect("session");
        let mut got = Vec::new();
        plan.prefill(&mut sess, &x[..prompt * dim], &mut got)
            .expect("prefill");
        assert_eq!(bits(&got), bits(&full[..prompt * dim]), "prefill {prompt}");
        for t in prompt..seq {
            plan.decode_steps(&mut [&mut sess], &x[t * dim..(t + 1) * dim], &mut got)
                .expect("decode step");
            assert_eq!(
                bits(&got),
                bits(&full[t * dim..(t + 1) * dim]),
                "prompt {prompt}, step {t}"
            );
        }
    }
}

#[test]
fn f32_boundary_gelu_and_softmax_are_the_reference_functions() {
    // A GELU-only plan over a ragged width against the layer and the
    // scalar export hook.
    let mut model = Sequential::new().push(NetLayer::Gelu(Gelu::new("gelu")));
    let x = gaussian(&[3, 13], 45);
    let reference = model.forward(&x).expect("reference");
    let mut plan = CompiledPlan::from_quantized_strict(&model).expect("compile");
    let mut out = Vec::new();
    plan.forward_rows(x.as_slice(), 3, &mut out)
        .expect("packed");
    assert_eq!(bits(&out), bits(reference.as_slice()));
    assert_eq!(bits(&out), bits(x.map(gelu).as_slice()));

    // The softmax the attention core calls, on a ragged row: the scalar
    // definition element by element, and a causal row's masked tail
    // changes nothing about its prefix (what decode relies on).
    let scores = gaussian(&[1, 13], 46);
    let scores = scores.as_slice();
    let mut row = scores.to_vec();
    softmax_rows_in_place(&mut row, 1, 13);
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = scores.iter().map(|&s| vmath::exp(s - max)).collect();
    let sum = exps.iter().fold(0.0, |s, &e| s + e);
    let want: Vec<f32> = exps.iter().map(|&e| e / sum).collect();
    assert_eq!(bits(&row), bits(&want));
    for visible in 1..13 {
        let mut masked = scores.to_vec();
        masked[visible..].fill(f32::NEG_INFINITY);
        softmax_rows_in_place(&mut masked, 1, 13);
        let mut prefix = scores[..visible].to_vec();
        softmax_rows_in_place(&mut prefix, 1, visible);
        assert_eq!(bits(&masked[..visible]), bits(&prefix), "visible {visible}");
        assert!(masked[visible..].iter().all(|&w| w.to_bits() == 0));
    }
}
