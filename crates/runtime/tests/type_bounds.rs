//! Type-bounds sweep: every constructible int / PoT / flint type at
//! 2..=16 bits, through strict compilation of an MLP.
//!
//! The contract: a type the integer domain cannot execute **exactly** is
//! refused with a structured error — never lowered to arithmetic that
//! saturates an activation or wraps an accumulator — and every type that
//! is accepted matches the fake-quantized reference within the
//! conformance tolerance. The sweep also pins which of the two execution
//! image widths (`i8` / `i16`) each type compiles to. There is no third
//! width: `int15`, signed-activation `int16` and `pot5` run exactly on
//! `i16` panels at widening cadences as short as 2, and an activation
//! lattice that does not fit `i16` (`int16` / `pot5` unsigned) is refused
//! like `float` and `pot6` are.
//!
//! Runs in both profiles in CI: the overflow this guards against panics
//! in debug builds and silently wraps in release builds.

use ant_core::{ClipSearch, DataType, Granularity, PrimitiveType, Quantizer, TensorQuantizer};
use ant_nn::model::{mlp, NetLayer, Sequential};
use ant_nn::qat::{capture_layer_inputs, dequantize_layer, QuantSpec};
use ant_runtime::{
    ArtifactError, CompiledPlan, MappedArtifact, ModelArtifact, PlanLayer, Planner, RuntimeError,
};
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
                        assert_matches_reference(&label, &mut plan, &mut model, &x);
                        accepted += 1;
                    }
                    Err(RuntimeError::UnsupportedLayer { .. }) => refused.push(label),
                    Err(other) => panic!("{label}: unstructured refusal {other:?}"),
                }
            }
        }
    }
    // int2..=15 always lowers; the only refusals are activation lattices
    // that do not fit `i16` and the PoT lattice that fits no width at all.
    assert!(accepted >= 2 * 14, "only {accepted} cases compiled");
    assert_eq!(
        refused,
        [
            "Int16 Unsigned",
            "Pot5 Unsigned",
            "Pot6 Signed",
            "Pot6 Unsigned"
        ]
    );
}

/// The `(layer, reason)` of a refusal, from whichever error type the
/// entry point wraps it in.
fn refusal<T: std::fmt::Debug, E: Into<ArtifactError>>(
    what: &str,
    result: Result<T, E>,
) -> (String, String) {
    match result.map_err(Into::into) {
        Err(ArtifactError::Runtime(RuntimeError::UnsupportedLayer { layer, reason })) => {
            (layer, reason)
        }
        other => panic!("{what}: expected UnsupportedLayer, got {other:?}"),
    }
}

#[test]
fn every_entry_point_refuses_float_and_pot6_with_the_same_error() {
    // There is one road to a plan, so a selection the integer domain
    // cannot execute — a float, a lattice no operand width holds, or a
    // 16-bit unsigned activation lattice behind weights that would fit —
    // is the same error whichever door it came through.
    let calib = gaussian(&[32, 6], 29);
    let spec = QuantSpec::default();
    let mut selected = Planner::new();
    selected
        .compile(&mut mlp(6, 3, 1), &calib, spec)
        .expect("default selection compiles");
    let float4 = DataType::float(4, true).unwrap();
    let pot6 = DataType::pot(6, true).unwrap();
    let int16 = DataType::int(16, true).unwrap();
    let int16u = DataType::int(16, false).unwrap();
    // (weight type, activation type, the type the refusal names).
    for (w_dtype, dtype) in [(float4, float4), (pot6, pot6), (int16, int16u)] {
        // Replay the memoized selection with every type forced: the
        // planner's own route to a refused model.
        let mut forced = selected.cache().export();
        for decision in forced.iter_mut().flat_map(|(_, ds)| ds.iter_mut()) {
            decision.activation.0 = dtype;
            decision.weights.iter_mut().for_each(|w| w.0 = w_dtype);
        }
        let mut model = mlp(6, 3, 1);
        let planner = || Planner::with_cache(forced.clone());
        let want = refusal(
            "Planner::compile",
            planner().compile(&mut model, &calib, spec),
        );
        assert_eq!(
            want.1,
            format!("selected type {dtype} has no exact integer-domain execution")
        );
        // `model` now carries the forced quantizers.
        let artifact = ModelArtifact::from_model(&model).expect("refused models still save");
        let path = std::env::temp_dir().join(format!(
            "ant-type-bounds-{}-{dtype}.antm",
            std::process::id()
        ));
        artifact.save_path(&path).unwrap();
        let mapped = MappedArtifact::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let got = [
            refusal(
                "Planner::strict",
                planner().strict().compile(&mut model, &calib, spec),
            ),
            refusal("from_quantized", CompiledPlan::from_quantized(&model)),
            refusal(
                "from_quantized_strict",
                CompiledPlan::from_quantized_strict(&model),
            ),
            refusal("ModelArtifact::compile", artifact.compile()),
            refusal("ModelArtifact::compile_strict", artifact.compile_strict()),
            refusal("MappedArtifact::compile", mapped.compile()),
            refusal("MappedArtifact::compile_strict", mapped.compile_strict()),
        ];
        for g in got {
            assert_eq!(g, want, "{dtype}");
        }
    }
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
    let mut expected: Vec<(String, Vec<&str>)> = Vec::new();
    let mut row = |name: String, widths: [&'static str; 3]| expected.push((name, widths.to_vec()));
    // int16 and pot5 are absent: their unsigned post-ReLU activation
    // lattices (65535, 2³⁰) fit no operand width.
    for bits in 2..=15 {
        row(
            format!("int{bits}"),
            match bits {
                2..=7 => narrow,
                8 => mixed,
                _ => half,
            },
        );
    }
    for (bits, widths) in [(2, narrow), (3, narrow), (4, mixed)] {
        row(format!("pot{bits}"), widths);
    }
    for (bits, widths) in [(4, narrow), (5, mixed), (6, half), (7, half), (8, half)] {
        row(format!("flint{bits}"), widths);
    }
    assert_eq!(table, expected);
}
