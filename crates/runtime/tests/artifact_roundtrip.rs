//! Differential round-trip suite for the `.antm` model artifact.
//!
//! The contract under test (ISSUE 4 acceptance criteria): a quantized
//! model saved to an artifact, reloaded, and strict-compiled produces
//! **bit-identical packed wire codes** and ≤1e-6 relative output
//! difference versus the never-serialized pipeline — across the int, PoT
//! and flint primitives at low and high bit widths — and corrupted,
//! truncated or wrong-version artifacts fail with structured
//! [`ArtifactError`]s, never panics.

use ant_core::select::PrimitiveCombo;
use ant_core::{ClipSearch, DataType, Granularity, Quantizer, TensorQuantizer};
use ant_nn::model::{mlp, small_cnn, tiny_transformer, transformer_block, NetLayer, Sequential};
use ant_nn::qat::{quantize_model, QuantSpec};
use ant_runtime::{
    probe, ArtifactError, BatchPolicy, CompiledPlan, Engine, MappedArtifact, ModelArtifact,
    PlanLayer, Planner, RuntimeError, FORMAT_VERSION,
};
use ant_tensor::dist::{sample_tensor, Distribution};
use ant_tensor::Tensor;

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

fn assert_rel_close(a: &Tensor, b: &Tensor, tol: f32, context: &str) {
    assert_eq!(a.dims(), b.dims(), "{context}: dims");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + y.abs()),
            "{context}: element {i}: {x} vs {y}"
        );
    }
}

/// Compares every packed weight tensor of two plans bit-for-bit and
/// returns how many tensors were compared.
fn assert_bit_identical(a: &CompiledPlan, b: &CompiledPlan, context: &str) -> usize {
    assert_eq!(a.layers().len(), b.layers().len(), "{context}: layer count");
    let mut compared = 0;
    for (i, (la, lb)) in a.layers().iter().zip(b.layers()).enumerate() {
        match (la, lb) {
            (PlanLayer::Packed(pa), PlanLayer::Packed(pb)) => {
                assert_eq!(pa.weights(), pb.weights(), "{context}: layer {i} codes");
                compared += 1;
            }
            (PlanLayer::PackedConv(pa), PlanLayer::PackedConv(pb)) => {
                assert_eq!(pa.weights(), pb.weights(), "{context}: layer {i} codes");
                compared += 1;
            }
            (PlanLayer::PackedAttn(pa), PlanLayer::PackedAttn(pb)) => {
                for (wa, wb) in pa.projections().into_iter().zip(pb.projections()) {
                    assert_eq!(wa, wb, "{context}: layer {i} projection codes");
                    compared += 1;
                }
            }
            _ => {}
        }
    }
    compared
}

/// Saves, reloads and strict-compiles `model`, checking the reloaded plan
/// against the never-serialized one: bit-identical codes, ≤1e-6 relative
/// outputs.
fn roundtrip_and_check(model: &Sequential, x: &Tensor, context: &str) {
    let mut direct = CompiledPlan::from_quantized_strict(model)
        .unwrap_or_else(|e| panic!("{context}: direct compile: {e}"));
    let artifact = ModelArtifact::from_model(model).unwrap();
    let mut bytes = Vec::new();
    artifact.save(&mut bytes).unwrap();
    let reloaded = ModelArtifact::load(&bytes[..]).unwrap();
    let mut replayed = reloaded
        .compile_strict()
        .unwrap_or_else(|e| panic!("{context}: reloaded compile: {e}"));
    let compared = assert_bit_identical(&direct, &replayed, context);
    assert!(compared > 0, "{context}: no packed tensors compared");
    let want = direct.forward(x).unwrap();
    let got = replayed.forward(x).unwrap();
    assert_rel_close(&got, &want, 1e-6, context);
    // An oracle that never touches `PackedMatrix` guards the wire codes:
    // the reloaded plan agrees with the original fake-quantized forward
    // to the usual packed-vs-reference tolerance.
    let reference = model.clone().forward(x).unwrap();
    assert_rel_close(&got, &reference, 1e-4, &format!("{context} (vs model)"));
}

#[test]
fn spec_quantized_mlp_roundtrips_across_combos_and_widths() {
    for (combo, bits) in [
        (PrimitiveCombo::Int, 4),
        (PrimitiveCombo::Int, 8),
        (PrimitiveCombo::IntPot, 4),
        (PrimitiveCombo::IntPotFlint, 4),
    ] {
        let mut model = mlp(8, 4, 11);
        let calib = gaussian(&[64, 8], 3);
        let spec = QuantSpec {
            combo,
            bits,
            ..QuantSpec::default()
        };
        quantize_model(&mut model, &calib, spec).unwrap();
        let x = gaussian(&[5, 8], 29);
        roundtrip_and_check(&model, &x, &format!("{combo} @{bits}b"));
    }
}

#[test]
fn forced_primitives_roundtrip_bit_identically() {
    // quantize_model cannot select PoT above 6 bits or flint at widths the
    // combo does not offer, so force each primitive explicitly onto every
    // dense layer (weights AND activations) to cover the full
    // primitive × width matrix. PoT tops out at 5 bits here: pot6 × pot6
    // products reach 2^60, which a 48-wide reduction cannot be proven to
    // keep inside the i64 accumulator, so strict compilation refuses it
    // (`type_bounds.rs` pins that).
    for dt in [
        DataType::int(4, true).unwrap(),
        DataType::int(8, true).unwrap(),
        DataType::pot(4, true).unwrap(),
        DataType::pot(5, true).unwrap(),
        DataType::flint(4, true).unwrap(),
        DataType::flint(8, true).unwrap(),
    ] {
        let mut model = mlp(8, 4, 17);
        let calib = gaussian(&[48, 8], 5);
        quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
        for layer in model.layers_mut() {
            if let NetLayer::Dense(d) = layer {
                let (wq, _) = TensorQuantizer::fit(
                    dt,
                    &d.weight().clone(),
                    Granularity::PerChannel,
                    ClipSearch::default(),
                )
                .unwrap();
                d.quant.weight = Some(wq);
                let old_scale = d.quant.activation.as_ref().unwrap().scale();
                d.quant.activation = Some(Quantizer::with_scale(dt, old_scale).unwrap());
            }
        }
        let x = gaussian(&[4, 8], 31);
        roundtrip_and_check(&model, &x, &format!("forced {dt}"));
    }
}

#[test]
fn cnn_and_transformer_artifacts_roundtrip() {
    // CNN: conv, relu, pool, dense.
    let mut cnn = small_cnn(4, 7);
    let calib = gaussian(&[24, 144], 9);
    quantize_model(&mut cnn, &calib, QuantSpec::default()).unwrap();
    roundtrip_and_check(&cnn, &gaussian(&[3, 144], 13), "cnn");

    // Transformer block: attention, gelu, dense.
    let mut block = transformer_block(4, 8, 3, 21);
    let calib = gaussian(&[24, 32], 11);
    quantize_model(&mut block, &calib, QuantSpec::default()).unwrap();
    roundtrip_and_check(&block, &gaussian(&[3, 32], 17), "transformer block");

    // Full tiny transformer: norm, attention, dense.
    let mut tt = tiny_transformer(4, 8, 3, 23);
    let calib = gaussian(&[24, 32], 15);
    quantize_model(&mut tt, &calib, QuantSpec::default()).unwrap();
    roundtrip_and_check(&tt, &gaussian(&[3, 32], 19), "tiny transformer");
}

#[test]
fn reloaded_plan_serves_through_the_engine() {
    let mut model = small_cnn(4, 3);
    let calib = gaussian(&[24, 144], 41);
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    let artifact = ModelArtifact::from_model(&model).unwrap();
    let mut bytes = Vec::new();
    artifact.save(&mut bytes).unwrap();
    let reloaded = ModelArtifact::load(&bytes[..]).unwrap();
    let plan = reloaded.compile_strict().unwrap();
    let mut reference = plan.clone();
    let engine = Engine::new(plan, BatchPolicy::default());
    let x = gaussian(&[8, 144], 43);
    let ids: Vec<_> = (0..8)
        .map(|i| engine.submit(x.channel(i).unwrap()).unwrap())
        .collect();
    for (i, id) in ids.into_iter().enumerate() {
        let got = engine.wait(id).unwrap();
        let row = Tensor::from_vec(x.channel(i).unwrap().to_vec(), &[1, 144]).unwrap();
        let want = reference.forward(&row).unwrap();
        assert_eq!(got, want.as_slice(), "request {i}");
    }
}

#[test]
fn float_typed_layer_is_refused_after_reload() {
    let mut model = mlp(8, 4, 11);
    let calib = gaussian(&[64, 8], 3);
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    let fdt = DataType::float(4, true).unwrap();
    if let NetLayer::Dense(d) = &mut model.layers_mut()[2] {
        let (q, _) = TensorQuantizer::fit(
            fdt,
            &d.weight().clone(),
            Granularity::PerChannel,
            ClipSearch::default(),
        )
        .unwrap();
        d.quant.weight = Some(q);
    }
    let artifact = ModelArtifact::from_model(&model).unwrap();
    let mut bytes = Vec::new();
    artifact.save(&mut bytes).unwrap();
    let reloaded = ModelArtifact::load(&bytes[..]).unwrap();
    // Strict refuses, exactly like the never-serialized pipeline.
    match reloaded.compile_strict() {
        Err(ArtifactError::Runtime(RuntimeError::UnsupportedLayer { layer, .. })) => {
            assert_eq!(layer, "fc2")
        }
        other => panic!("expected strict refusal, got {other:?}"),
    }
}

#[test]
fn selection_cache_section_warm_starts_a_planner() {
    let mut model = mlp(8, 4, 19);
    let calib = gaussian(&[48, 8], 7);
    let mut planner = Planner::new();
    let spec = QuantSpec::default();
    let mut plan = planner.compile(&mut model, &calib, spec).unwrap();
    assert_eq!(planner.cache().stats(), (0, 1));

    let artifact = ModelArtifact::from_model(&model)
        .unwrap()
        .with_cache(planner.cache());
    let mut bytes = Vec::new();
    artifact.save(&mut bytes).unwrap();
    let reloaded = ModelArtifact::load(&bytes[..]).unwrap();
    assert_eq!(reloaded.cache_entries().len(), 1);
    assert_eq!(reloaded.cache_entries(), artifact.cache_entries());

    // A warm planner replays the persisted Algorithm-2 decisions for the
    // original (model, calibration, spec) inputs: pure cache hit.
    let mut warm = reloaded.planner();
    let mut fresh = model.clone();
    let mut warm_plan = warm.compile(&mut fresh, &calib, spec).unwrap();
    assert_eq!(warm.cache().stats(), (1, 0));
    let x = gaussian(&[4, 8], 47);
    assert_eq!(
        warm_plan.forward(&x).unwrap().as_slice(),
        plan.forward(&x).unwrap().as_slice()
    );
}

// ---------------------------------------------------------------------------
// Hostile inputs
// ---------------------------------------------------------------------------

fn sample_bytes() -> Vec<u8> {
    let mut model = mlp(8, 4, 11);
    let calib = gaussian(&[64, 8], 3);
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    let artifact = ModelArtifact::from_model(&model).unwrap();
    let mut bytes = Vec::new();
    artifact.save(&mut bytes).unwrap();
    bytes
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = sample_bytes();
    bytes[0] = b'X';
    match ModelArtifact::load(&bytes[..]) {
        Err(ArtifactError::BadMagic { found }) => assert_eq!(&found[1..], b"NTM"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn newer_version_is_rejected_with_both_versions_reported() {
    let mut bytes = sample_bytes();
    bytes[4] = 0xFF; // version lives at offset 4..6, little-endian
    match ModelArtifact::load(&bytes[..]) {
        Err(ArtifactError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 0x00FF);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    // probe() applies the same gate.
    assert!(matches!(
        probe(&bytes[..]),
        Err(ArtifactError::UnsupportedVersion { .. })
    ));
}

#[test]
fn payload_corruption_is_a_checksum_mismatch_under_verify() {
    let bytes = sample_bytes();
    let info = probe(&bytes[..]).unwrap();
    assert_eq!(info.sections[0].id, "MODL");
    // Flip one byte in the middle of the MODL payload. Load is lazy
    // (no CRC sweep), so detection is `verify`'s job; load itself must
    // still fail structurally or succeed, never panic.
    let payload_start = info.sections[0].offset as usize;
    let mut corrupt = bytes.clone();
    corrupt[payload_start + info.sections[0].len as usize / 2] ^= 0x40;
    let _ = ModelArtifact::load(&corrupt[..]);
    match ModelArtifact::verify_bytes(&corrupt) {
        Err(ArtifactError::ChecksumMismatch {
            section,
            stored,
            computed,
        }) => {
            assert_eq!(section, "MODL");
            assert_ne!(stored, computed);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    // The uncorrupted stream verifies clean.
    ModelArtifact::verify_bytes(&bytes).unwrap();
}

#[test]
fn version_1_and_0_streams_are_unsupported_at_load_open_and_verify() {
    for found in [1u16, 0] {
        let mut bytes = sample_bytes();
        bytes[4..6].copy_from_slice(&found.to_le_bytes());
        let refused = |what: &str, r: Result<(), ArtifactError>| match r {
            Err(ArtifactError::UnsupportedVersion {
                found: f,
                supported,
            }) => assert_eq!((f, supported), (found, FORMAT_VERSION), "{what}"),
            other => panic!("{what}, version {found}: expected UnsupportedVersion, got {other:?}"),
        };
        refused("load", ModelArtifact::load(&bytes[..]).map(drop));
        refused("verify", ModelArtifact::verify_bytes(&bytes).map(drop));
        let path = std::env::temp_dir().join(format!(
            "ant-roundtrip-{}-version-{found}.antm",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).unwrap();
        refused("open", MappedArtifact::open(&path).map(drop));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn truncation_at_every_prefix_is_a_structured_error() {
    let bytes = sample_bytes();
    for len in 0..bytes.len() {
        match ModelArtifact::load(&bytes[..len]) {
            Err(
                ArtifactError::Truncated { .. }
                | ArtifactError::ChecksumMismatch { .. }
                | ArtifactError::Malformed { .. }
                | ArtifactError::MissingSection { .. },
            ) => {}
            Ok(_) => panic!("truncated prefix of {len} bytes loaded successfully"),
            Err(other) => panic!("prefix {len}: unexpected error kind {other:?}"),
        }
    }
    // Short header truncations specifically report Truncated.
    assert!(matches!(
        ModelArtifact::load(&bytes[..3]),
        Err(ArtifactError::Truncated { .. })
    ));
}

#[test]
fn single_byte_flips_never_panic() {
    let bytes = sample_bytes();
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xA5;
        // Any structured outcome is fine; panics and aborts are not. A
        // flip in the reserved header field is the only spot allowed to
        // still load to the identical artifact.
        let _ = ModelArtifact::load(&corrupt[..]);
    }
}

/// File offsets of every `PANL` entry's tag byte and `data_len` field,
/// walking the section's meta region: u32 layer count, then per layer a
/// u8 entry count and per entry tag, n, k, a_max, b_max, inline LUT, data
/// offset, data length.
fn panel_entry_offsets(bytes: &[u8]) -> Vec<(usize, usize)> {
    let info = probe(bytes).unwrap();
    let panl = info.sections.iter().find(|s| s.id == "PANL").unwrap();
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let mut at = panl.offset as usize;
    let layers = u32_at(at);
    at += 4;
    let mut found = Vec::new();
    for _ in 0..layers {
        let entries = bytes[at];
        at += 1;
        for _ in 0..entries {
            let lut_len = u32_at(at + 1 + 4 + 4 + 8 + 8);
            let len_at = at + 1 + 4 + 4 + 8 + 8 + 4 + 4 * lut_len + 8;
            found.push((at, len_at));
            at = len_at + 8;
        }
    }
    found
}

#[test]
fn reserved_panel_tag_is_a_structured_error_at_every_entry() {
    // Tag 2 was the `i32`-row image and tag 3 attention's transposed f32
    // o-operand: no writer emits them and no reader executes them. A
    // stream carrying one is refused when the section is parsed, naming
    // the entry — before its data extent is looked at.
    let bytes = sample_bytes();
    let entries = panel_entry_offsets(&bytes);
    assert_eq!(
        entries.len(),
        3,
        "one image per dense layer of mlp(8, 4, _)"
    );
    let path = std::env::temp_dir().join(format!(
        "ant-roundtrip-{}-reserved-tag.antm",
        std::process::id()
    ));
    for (i, &(tag_at, len_at)) in entries.iter().enumerate() {
        assert!(bytes[tag_at] <= 1, "the writer emits i8/i16 images only");
        for tag in [2u8, 3] {
            let mut patched = bytes.clone();
            patched[tag_at] = tag;
            // Claim an extent far past the section too: it must not be read.
            patched[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            std::fs::write(&path, &patched).unwrap();
            match MappedArtifact::open(&path) {
                Err(ArtifactError::Malformed { context, detail }) => {
                    assert_eq!(context, "PANL section");
                    assert!(
                        detail.contains(&format!("reserved tag {tag}"))
                            && detail.contains("panel entry 0"),
                        "entry {i}: {detail}"
                    );
                }
                other => panic!("entry {i}, tag {tag}: expected Malformed, got {other:?}"),
            }
            // Owned loads never read PANL; verify refuses the stream.
            ModelArtifact::load(&patched[..]).unwrap();
            assert!(ModelArtifact::verify_bytes(&patched).is_err());
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn cache_section_corruption_is_detected_independently() {
    let mut model = mlp(8, 4, 19);
    let calib = gaussian(&[48, 8], 7);
    let mut planner = Planner::new();
    planner
        .compile(&mut model, &calib, QuantSpec::default())
        .unwrap();
    let artifact = ModelArtifact::from_model(&model)
        .unwrap()
        .with_cache(planner.cache());
    let mut bytes = Vec::new();
    artifact.save(&mut bytes).unwrap();
    let info = probe(&bytes[..]).unwrap();
    let cach = info
        .sections
        .iter()
        .find(|s| s.id == "CACH")
        .expect("CACH section present");
    assert!(cach.len > 0);
    let mut corrupt = bytes.clone();
    corrupt[cach.offset as usize + 4] ^= 0x01;
    match ModelArtifact::verify_bytes(&corrupt) {
        Err(ArtifactError::ChecksumMismatch { section, .. }) => assert_eq!(section, "CACH"),
        other => panic!("expected CACH ChecksumMismatch, got {other:?}"),
    }
}
