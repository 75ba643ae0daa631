//! Type-bounds sweep: every constructible int / PoT / flint type at
//! 2..=16 bits, through strict compilation of an MLP.
//!
//! The contract: a type the integer domain cannot execute **exactly** is
//! refused with a structured error — never lowered to arithmetic that
//! saturates an activation or wraps an accumulator — and every type that
//! is accepted matches the fake-quantized reference within the
//! conformance tolerance. The sweep also pins which execution image width
//! (`i8` / `i16` / `i32`) each type compiles to, which is the evidence for
//! keeping the general `i32` path: nothing at ≤ 8 bits reaches it, but
//! `int15`, `int16` and `pot5` do, and are exact there.
//!
//! Runs in both profiles in CI: the overflow this guards against panics
//! in debug builds and silently wraps in release builds.

use ant_core::{ClipSearch, DataType, Granularity, PrimitiveType, Quantizer, TensorQuantizer};
use ant_nn::model::{mlp, NetLayer, Sequential};
use ant_nn::qat::{capture_layer_inputs, dequantize_layer};
use ant_runtime::{CompiledPlan, PlanLayer, RuntimeError};
use ant_tensor::dist::{sample_tensor, Distribution};
use ant_tensor::Tensor;

const PRIMITIVES: [PrimitiveType; 3] =
    [PrimitiveType::Int, PrimitiveType::Pot, PrimitiveType::Flint];

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

fn abs(t: &Tensor) -> Tensor {
    let values = t.as_slice().iter().map(|v| v.abs()).collect();
    Tensor::from_vec(values, t.dims()).unwrap()
}

fn make_dtype(prim: PrimitiveType, bits: u32, signed: bool) -> Option<DataType> {
    match prim {
        PrimitiveType::Int => DataType::int(bits, signed).ok(),
        PrimitiveType::Pot => DataType::pot(bits, signed).ok(),
        PrimitiveType::Flint => DataType::flint(bits, signed).ok(),
        PrimitiveType::Float => None,
    }
}

/// Which signedness each layer's activation quantizer takes.
#[derive(Clone, Copy, Debug)]
enum Acts {
    /// Signed where the calibration input goes negative (the first
    /// layer), unsigned after a ReLU — what Algorithm 2 would attach.
    FromData,
    Signed,
    Unsigned,
}

/// Attaches one forced `prim`/`bits` selection to every dense layer of
/// `mlp(6, 3, 1)` (signed weights). `None` when the width is not
/// constructible for the primitive.
fn forced_mlp(prim: PrimitiveType, bits: u32, acts: Acts, calib: &Tensor) -> Option<Sequential> {
    let w_dt = make_dtype(prim, bits, true)?;
    let mut model = mlp(6, 3, 1);
    for layer in model.layers_mut() {
        dequantize_layer(layer);
    }
    let inputs = capture_layer_inputs(&mut model, calib).expect("calibration forward");
    let search = ClipSearch::default();
    for (layer, input) in model.layers_mut().iter_mut().zip(&inputs) {
        let (NetLayer::Dense(dense), Some(input)) = (layer, input) else {
            continue;
        };
        let signed = match acts {
            Acts::FromData => input.as_slice().iter().any(|&v| v < 0.0),
            Acts::Signed => true,
            Acts::Unsigned => false,
        };
        let a_dt = make_dtype(prim, bits, signed)?;
        let weight = dense.weight().clone();
        dense.quant.weight = Some(
            TensorQuantizer::fit(w_dt, &weight, Granularity::PerChannel, search)
                .expect("weight fit")
                .0,
        );
        dense.quant.activation = Some(
            Quantizer::fit(a_dt, input.as_slice(), search)
                .expect("activation fit")
                .0,
        );
    }
    Some(model)
}

fn assert_matches_reference(
    label: &str,
    plan: &mut CompiledPlan,
    model: &mut Sequential,
    x: &Tensor,
) {
    let reference = model.forward(x).expect("reference forward");
    let packed = plan.forward(x).expect("packed forward");
    assert_eq!(packed.dims(), reference.dims(), "{label}");
    for (i, (a, b)) in packed
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .enumerate()
    {
        assert!(
            (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
            "{label}[{i}]: packed {a} vs reference {b}"
        );
    }
}

/// The execution width of each dense layer's weight image, in order.
fn dense_widths(plan: &CompiledPlan) -> Vec<&'static str> {
    let widths = |l: &PlanLayer| l.describe().image_widths();
    plan.layers().iter().flat_map(widths).collect()
}

#[test]
fn every_type_is_refused_or_matches_the_reference() {
    let mut accepted = 0;
    let mut refused = Vec::new();
    for prim in PRIMITIVES {
        for bits in 2..=16u32 {
            for acts in [Acts::Signed, Acts::Unsigned] {
                // Unsigned codecs cannot calibrate on negative data.
                let (calib, x) = match acts {
                    Acts::Unsigned => (abs(&gaussian(&[32, 6], 29)), abs(&gaussian(&[4, 6], 41))),
                    _ => (gaussian(&[32, 6], 29), gaussian(&[4, 6], 41)),
                };
                let Some(mut model) = forced_mlp(prim, bits, acts, &calib) else {
                    continue;
                };
                let label = format!("{prim:?}{bits} {acts:?}");
                match CompiledPlan::from_quantized_strict(&model) {
                    Ok(mut plan) => {
                        assert_eq!(plan.coverage(), 1.0, "{label}");
                        assert_matches_reference(&label, &mut plan, &mut model, &x);
                        accepted += 1;
                    }
                    Err(RuntimeError::UnsupportedLayer { .. }) => refused.push(label),
                    Err(other) => panic!("{label}: unstructured refusal {other:?}"),
                }
            }
        }
    }
    // int2..=16 always lowers; the only refusals are PoT lattices whose
    // products outgrow the exact integer domain.
    assert!(accepted >= 2 * 15, "only {accepted} cases compiled");
    assert_eq!(refused, ["Pot6 Signed", "Pot6 Unsigned"]);
}

#[test]
fn pot6_is_refused_in_strict_and_reference_exact_in_lenient() {
    // Unsigned pot6 activations reach 2^62: no layer has an exact `i32`
    // activation image, so all three dense layers are refused.
    let (calib, x) = (abs(&gaussian(&[32, 6], 29)), abs(&gaussian(&[4, 6], 41)));
    let mut model = forced_mlp(PrimitiveType::Pot, 6, Acts::Unsigned, &calib).unwrap();
    match CompiledPlan::from_quantized_strict(&model) {
        Err(RuntimeError::UnsupportedLayer { layer, reason }) => {
            assert!(reason.contains("pot"), "layer {layer}: {reason}");
        }
        other => panic!("expected a strict refusal, got {other:?}"),
    }
    let mut plan = CompiledPlan::from_quantized(&model).expect("lenient compile");
    let fallbacks = |l: &&PlanLayer| matches!(l, PlanLayer::Fallback(_));
    assert_eq!(plan.layers().iter().filter(fallbacks).count(), 3);
    assert_eq!(plan.packed_layer_count(), 0);
    // Fallback layers *are* the reference layers: bit-for-bit.
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let reference = model.forward(&x).unwrap();
    assert_eq!(bits(&plan.forward(&x).unwrap()), bits(&reference));
}

#[test]
fn image_width_table_is_pinned() {
    let calib = gaussian(&[32, 6], 29);
    let mut table = Vec::new();
    for prim in PRIMITIVES {
        for bits in 2..=16u32 {
            let Some(model) = forced_mlp(prim, bits, Acts::FromData, &calib) else {
                continue;
            };
            if let Ok(plan) = CompiledPlan::from_quantized_strict(&model) {
                table.push((
                    format!("{prim:?}{bits}").to_lowercase(),
                    dense_widths(&plan),
                ));
            }
        }
    }
    // Signed first-layer activations, unsigned after each ReLU: an
    // unsigned b-bit lattice reaches twice as far, which is what moves
    // int8 / pot4 / flint5 from `i8` to `i16` after the first layer.
    let narrow = ["i8", "i8", "i8"];
    let mixed = ["i8", "i16", "i16"];
    let half = ["i16", "i16", "i16"];
    let wide = ["i32", "i32", "i32"];
    let mut expected: Vec<(String, Vec<&str>)> = Vec::new();
    let mut row = |name: String, widths: [&'static str; 3]| expected.push((name, widths.to_vec()));
    for bits in 2..=16 {
        row(
            format!("int{bits}"),
            match bits {
                2..=7 => narrow,
                8 => mixed,
                9..=14 => half,
                _ => wide,
            },
        );
    }
    for (bits, widths) in [(2, narrow), (3, narrow), (4, mixed), (5, wide)] {
        row(format!("pot{bits}"), widths);
    }
    for (bits, widths) in [(4, narrow), (5, mixed), (6, half), (7, half), (8, half)] {
        row(format!("flint{bits}"), widths);
    }
    assert_eq!(table, expected);
}
