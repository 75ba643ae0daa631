//! GEMM-level layer tables for the paper's eight benchmarks (Table IV):
//! VGG16, ResNet-18/50, Inception-V3, ViT and BERT-Base on three GLUE
//! tasks.
//!
//! Convolutions are lowered to GEMM via im2col exactly as the functional
//! stack does (`ant-tensor::linalg`): a conv with `co` output channels,
//! `ci×kh×kw` receptive field and `oh×ow` output pixels at batch `B` is the
//! GEMM `M×N×K = (B·oh·ow) × co × (ci·kh·kw)`. Transformer blocks
//! contribute their projection, attention and FFN GEMMs. Layer shapes
//! follow the published architectures at 224×224 (CNNs), 224/16 patches
//! (ViT) and sequence length 128 (BERT).

use crate::profile::TensorProfile;

/// One GEMM-lowered layer.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmLayer {
    /// Layer name (diagnostics and reports).
    pub name: String,
    /// Output rows (batch × output pixels, or batch × tokens).
    pub m: u64,
    /// Output columns (output channels / features).
    pub n: u64,
    /// Reduction depth.
    pub k: u64,
    /// Weight tensor distribution profile.
    pub weight_profile: TensorProfile,
    /// Input-activation distribution profile.
    pub act_profile: TensorProfile,
    /// Whether this is a first/last layer (OLAccel keeps these at 8 bits,
    /// Sec. VII-A).
    pub is_edge: bool,
}

impl GemmLayer {
    /// Multiply–accumulate operations in this layer.
    pub fn macs(&self) -> u64 {
        self.m * self.n * self.k
    }

    /// Weight elements.
    pub fn weight_elems(&self) -> u64 {
        self.n * self.k
    }

    /// Input-activation elements.
    pub fn act_elems(&self) -> u64 {
        self.m * self.k
    }

    /// Output elements.
    pub fn out_elems(&self) -> u64 {
        self.m * self.n
    }
}

/// Workload family, which sets the iso-accuracy target (paper: CNNs
/// < 0.1% loss, Transformers < 1%).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Convolutional network.
    Cnn,
    /// Vision transformer.
    VisionTransformer,
    /// BERT-style language model.
    Bert,
}

/// A named benchmark: an ordered list of GEMM layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Benchmark name as it appears in the paper's figures.
    pub name: String,
    /// Model family.
    pub family: Family,
    /// GEMM layers in execution order.
    pub layers: Vec<GemmLayer>,
}

impl Workload {
    /// Total MACs over all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs()).sum()
    }

    /// Total weight elements.
    pub fn total_weight_elems(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_elems()).sum()
    }
}

fn name_hash(name: &str, salt: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ salt;
    for b in name.as_bytes() {
        h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// Per-layer tail-severity jitter: layers of real trained networks differ
/// in outlier fraction and magnitude, which is what spreads each model's
/// tensors across 4- and 8-bit assignments (Fig. 13 top). Deterministic in
/// the layer name: outlier fraction ×[0.5, 2), magnitude ×[0.75, 1.35).
fn jitter(profile: TensorProfile, name: &str, salt: u64) -> TensorProfile {
    let h = name_hash(name, salt);
    let u1 = ((h >> 8) & 0xFFFF) as f32 / 65536.0;
    let u2 = ((h >> 24) & 0xFFFF) as f32 / 65536.0;
    profile.with_severity(2f32.powf(2.0 * u1 - 1.0), 0.75 + 0.6 * u2)
}

#[allow(clippy::too_many_arguments)] // geometry parameters map 1:1 to a conv layer spec
fn conv(
    name: impl Into<String>,
    batch: u64,
    co: u64,
    ci: u64,
    kernel: u64,
    out_hw: u64,
    weight_profile: TensorProfile,
    act_profile: TensorProfile,
    is_edge: bool,
) -> GemmLayer {
    let name = name.into();
    GemmLayer {
        m: batch * out_hw * out_hw,
        n: co,
        k: ci * kernel * kernel,
        weight_profile: jitter(weight_profile, &name, 0xA5),
        act_profile: jitter(act_profile, &name, 0x5A),
        is_edge,
        name,
    }
}

fn fc(
    name: impl Into<String>,
    rows: u64,
    out: u64,
    inp: u64,
    weight_profile: TensorProfile,
    act_profile: TensorProfile,
    is_edge: bool,
) -> GemmLayer {
    let name = name.into();
    GemmLayer {
        m: rows,
        n: out,
        k: inp,
        weight_profile: jitter(weight_profile, &name, 0xA5),
        act_profile: jitter(act_profile, &name, 0x5A),
        is_edge,
        name,
    }
}

/// VGG-16 at 224×224: 13 convolutions + 3 FC layers.
pub fn vgg16(batch: u64) -> Workload {
    let w = TensorProfile::cnn_weight();
    let a = TensorProfile::cnn_act();
    let mut layers = vec![conv(
        "conv1_1",
        batch,
        64,
        3,
        3,
        224,
        w,
        TensorProfile::FirstLayerAct,
        true,
    )];
    let spec: [(u64, u64, u64, &str); 12] = [
        (64, 64, 224, "conv1_2"),
        (128, 64, 112, "conv2_1"),
        (128, 128, 112, "conv2_2"),
        (256, 128, 56, "conv3_1"),
        (256, 256, 56, "conv3_2"),
        (256, 256, 56, "conv3_3"),
        (512, 256, 28, "conv4_1"),
        (512, 512, 28, "conv4_2"),
        (512, 512, 28, "conv4_3"),
        (512, 512, 14, "conv5_1"),
        (512, 512, 14, "conv5_2"),
        (512, 512, 14, "conv5_3"),
    ];
    for (co, ci, hw, name) in spec {
        layers.push(conv(name, batch, co, ci, 3, hw, w, a, false));
    }
    layers.push(fc("fc6", batch, 4096, 512 * 7 * 7, w, a, false));
    layers.push(fc("fc7", batch, 4096, 4096, w, a, false));
    layers.push(fc("fc8", batch, 1000, 4096, w, a, true));
    Workload {
        name: "VGG16".to_string(),
        family: Family::Cnn,
        layers,
    }
}

/// ResNet-18 at 224×224: stem + 8 basic blocks + FC.
pub fn resnet18(batch: u64) -> Workload {
    let w = TensorProfile::cnn_weight();
    let a = TensorProfile::cnn_act();
    let mut layers = vec![conv(
        "conv1",
        batch,
        64,
        3,
        7,
        112,
        w,
        TensorProfile::FirstLayerAct,
        true,
    )];
    // (channels, spatial, blocks); each basic block = two 3×3 convs, plus a
    // 1×1 downsample conv on the first block of stages 2–4.
    let stages: [(u64, u64, u64); 4] = [(64, 56, 2), (128, 28, 2), (256, 14, 2), (512, 7, 2)];
    let mut prev_c = 64u64;
    for (si, (c, hw, blocks)) in stages.iter().enumerate() {
        for b in 0..*blocks {
            let cin = if b == 0 { prev_c } else { *c };
            layers.push(conv(
                format!("s{}b{}c1", si + 2, b),
                batch,
                *c,
                cin,
                3,
                *hw,
                w,
                a,
                false,
            ));
            layers.push(conv(
                format!("s{}b{}c2", si + 2, b),
                batch,
                *c,
                *c,
                3,
                *hw,
                w,
                a,
                false,
            ));
            if b == 0 && si > 0 {
                layers.push(conv(
                    format!("s{}down", si + 2),
                    batch,
                    *c,
                    cin,
                    1,
                    *hw,
                    w,
                    a,
                    false,
                ));
            }
        }
        prev_c = *c;
    }
    layers.push(fc("fc", batch, 1000, 512, w, a, true));
    Workload {
        name: "ResNet18".to_string(),
        family: Family::Cnn,
        layers,
    }
}

/// ResNet-50 at 224×224: stem + 16 bottleneck blocks + FC.
pub fn resnet50(batch: u64) -> Workload {
    let w = TensorProfile::cnn_weight();
    let a = TensorProfile::cnn_act();
    let mut layers = vec![conv(
        "conv1",
        batch,
        64,
        3,
        7,
        112,
        w,
        TensorProfile::FirstLayerAct,
        true,
    )];
    // (mid channels, out channels, spatial, blocks)
    let stages: [(u64, u64, u64, u64); 4] = [
        (64, 256, 56, 3),
        (128, 512, 28, 4),
        (256, 1024, 14, 6),
        (512, 2048, 7, 3),
    ];
    let mut prev_c = 64u64;
    for (si, (mid, out, hw, blocks)) in stages.iter().enumerate() {
        for b in 0..*blocks {
            let cin = if b == 0 { prev_c } else { *out };
            let tag = format!("s{}b{}", si + 2, b);
            layers.push(conv(
                format!("{tag}r"),
                batch,
                *mid,
                cin,
                1,
                *hw,
                w,
                a,
                false,
            ));
            layers.push(conv(
                format!("{tag}c"),
                batch,
                *mid,
                *mid,
                3,
                *hw,
                w,
                a,
                false,
            ));
            layers.push(conv(
                format!("{tag}e"),
                batch,
                *out,
                *mid,
                1,
                *hw,
                w,
                a,
                false,
            ));
            if b == 0 {
                layers.push(conv(
                    format!("{tag}d"),
                    batch,
                    *out,
                    cin,
                    1,
                    *hw,
                    w,
                    a,
                    false,
                ));
            }
        }
        prev_c = *out;
    }
    layers.push(fc("fc", batch, 1000, 2048, w, a, true));
    Workload {
        name: "ResNet50".to_string(),
        family: Family::Cnn,
        layers,
    }
}

/// Inception-V3 at 299×299, abridged to its dominant convolutions: the stem
/// plus representative mixed blocks (5×, 4×, 2× as in the published
/// architecture, with each block's branches merged into their largest
/// convolutions).
pub fn inception_v3(batch: u64) -> Workload {
    let w = TensorProfile::cnn_weight();
    let a = TensorProfile::cnn_act();
    let mut layers = vec![
        conv(
            "stem1",
            batch,
            32,
            3,
            3,
            149,
            w,
            TensorProfile::FirstLayerAct,
            true,
        ),
        conv("stem2", batch, 32, 32, 3, 147, w, a, false),
        conv("stem3", batch, 64, 32, 3, 147, w, a, false),
        conv("stem4", batch, 80, 64, 1, 73, w, a, false),
        conv("stem5", batch, 192, 80, 3, 71, w, a, false),
    ];
    // Five 35×35 blocks (Mixed 5b–5d class): 1×1 / 5×5 / double 3×3 branches.
    for i in 0..3 {
        let cin = if i == 0 { 192 } else { 288 };
        layers.push(conv(
            format!("m5_{i}_1x1"),
            batch,
            64,
            cin,
            1,
            35,
            w,
            a,
            false,
        ));
        layers.push(conv(
            format!("m5_{i}_5x5"),
            batch,
            64,
            48,
            5,
            35,
            w,
            a,
            false,
        ));
        layers.push(conv(
            format!("m5_{i}_3x3a"),
            batch,
            96,
            64,
            3,
            35,
            w,
            a,
            false,
        ));
        layers.push(conv(
            format!("m5_{i}_3x3b"),
            batch,
            96,
            96,
            3,
            35,
            w,
            a,
            false,
        ));
    }
    // Four 17×17 blocks (Mixed 6 class): 7×1/1×7 factorised branches
    // (modelled as 7-tap convolutions of equivalent MACs).
    for i in 0..4 {
        layers.push(conv(
            format!("m6_{i}_1x1"),
            batch,
            192,
            768,
            1,
            17,
            w,
            a,
            false,
        ));
        layers.push(fc(
            format!("m6_{i}_7tap"),
            batch * 17 * 17,
            192,
            192 * 7,
            w,
            a,
            false,
        ));
        layers.push(fc(
            format!("m6_{i}_7tap2"),
            batch * 17 * 17,
            192,
            192 * 7,
            w,
            a,
            false,
        ));
    }
    // Two 8×8 blocks (Mixed 7 class).
    for i in 0..2 {
        layers.push(conv(
            format!("m7_{i}_1x1"),
            batch,
            320,
            1280,
            1,
            8,
            w,
            a,
            false,
        ));
        layers.push(conv(
            format!("m7_{i}_3x3"),
            batch,
            384,
            448,
            3,
            8,
            w,
            a,
            false,
        ));
    }
    layers.push(fc("fc", batch, 1000, 2048, w, a, true));
    Workload {
        name: "InceptionV3".to_string(),
        family: Family::Cnn,
        layers,
    }
}

/// One transformer encoder block's GEMMs appended to `layers`.
#[allow(clippy::too_many_arguments)]
fn transformer_block(
    layers: &mut Vec<GemmLayer>,
    tag: &str,
    batch: u64,
    tokens: u64,
    dim: u64,
    heads: u64,
    ffn: u64,
    act: TensorProfile,
) {
    let rows = batch * tokens;
    let wq = TensorProfile::attn_weight();
    let wf = TensorProfile::FfnWeight;
    // QKV projections.
    layers.push(fc(format!("{tag}.qkv"), rows, 3 * dim, dim, wq, act, false));
    // Attention score and context GEMMs (per head, folded into one GEMM of
    // equivalent MACs: scores B·h × S×S×dh, context B·h × S×dh×S).
    let dh = dim / heads;
    layers.push(fc(
        format!("{tag}.scores"),
        batch * heads * tokens,
        tokens,
        dh,
        wq,
        act,
        false,
    ));
    layers.push(fc(
        format!("{tag}.context"),
        batch * heads * tokens,
        dh,
        tokens,
        wq,
        act,
        false,
    ));
    layers.push(fc(format!("{tag}.proj"), rows, dim, dim, wq, act, false));
    layers.push(fc(format!("{tag}.ffn1"), rows, ffn, dim, wf, act, false));
    layers.push(fc(format!("{tag}.ffn2"), rows, dim, ffn, wf, act, false));
}

/// ViT-Base/16 at 224×224: patch embedding + 12 encoder blocks + head.
pub fn vit_base(batch: u64) -> Workload {
    let tokens = 197u64; // 14×14 patches + CLS
    let dim = 768u64;
    let mut layers = vec![fc(
        "patch_embed",
        batch * 196,
        dim,
        3 * 16 * 16,
        TensorProfile::cnn_weight(),
        TensorProfile::FirstLayerAct,
        true,
    )];
    for b in 0..12 {
        transformer_block(
            &mut layers,
            &format!("blk{b}"),
            batch,
            tokens,
            dim,
            12,
            3072,
            TensorProfile::vit_act(),
        );
    }
    layers.push(fc(
        "head",
        batch,
        1000,
        dim,
        TensorProfile::FfnWeight,
        TensorProfile::vit_act(),
        true,
    ));
    Workload {
        name: "ViT".to_string(),
        family: Family::VisionTransformer,
        layers,
    }
}

/// BERT-Base at sequence length 128 on a GLUE task. The three tasks share
/// the architecture; their activation-outlier severity differs (MNLI and
/// CoLA exhibit stronger outliers than SST-2), which is what drives the
/// paper's per-task type-ratio differences (Fig. 13 top).
pub fn bert_base(batch: u64, task: &str) -> Workload {
    let (frac, scale) = match task {
        "MNLI" => (0.008, 18.0),
        "CoLA" => (0.010, 20.0),
        "SST-2" => (0.003, 6.0),
        other => panic!("unknown GLUE task {other}"),
    };
    let act = TensorProfile::BertAct { frac, scale };
    let tokens = 128u64;
    let dim = 768u64;
    let mut layers = Vec::new();
    for b in 0..12 {
        transformer_block(
            &mut layers,
            &format!("blk{b}"),
            batch,
            tokens,
            dim,
            12,
            3072,
            act,
        );
    }
    // The embedding-adjacent first projection plays the role of the "first
    // layer" that outlier-aware baselines keep at 8 bits.
    layers[0].is_edge = true;
    layers.push(fc(
        "classifier",
        batch,
        2,
        dim,
        TensorProfile::FfnWeight,
        act,
        true,
    ));
    Workload {
        name: format!("BERT-{task}"),
        family: Family::Bert,
        layers,
    }
}

/// The paper's eight Fig. 13 workloads at the given batch size (64 in the
/// paper).
pub fn all_workloads(batch: u64) -> Vec<Workload> {
    vec![
        vgg16(batch),
        resnet18(batch),
        resnet50(batch),
        inception_v3(batch),
        vit_base(batch),
        bert_base(batch, "MNLI"),
        bert_base(batch, "CoLA"),
        bert_base(batch, "SST-2"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg16_structure() {
        let w = vgg16(1);
        assert_eq!(w.layers.len(), 16);
        // Known: VGG16 has ~15.5 GMACs at batch 1 (ours omits pooling).
        let gmacs = w.total_macs() as f64 / 1e9;
        assert!((gmacs - 15.5).abs() < 1.0, "{gmacs} GMACs");
        // ~138M params; conv+fc weights alone ≈ 134M.
        let params = w.total_weight_elems() as f64 / 1e6;
        assert!((120.0..150.0).contains(&params), "{params}M params");
    }

    #[test]
    fn resnet18_structure() {
        let w = resnet18(1);
        let gmacs = w.total_macs() as f64 / 1e9;
        assert!((1.5..2.2).contains(&gmacs), "{gmacs} GMACs"); // published ≈ 1.8
        let params = w.total_weight_elems() as f64 / 1e6;
        assert!((10.0..13.0).contains(&params), "{params}M params"); // ≈ 11.2
    }

    #[test]
    fn resnet50_structure() {
        let w = resnet50(1);
        let gmacs = w.total_macs() as f64 / 1e9;
        assert!((3.5..4.5).contains(&gmacs), "{gmacs} GMACs"); // published ≈ 4.1
        let params = w.total_weight_elems() as f64 / 1e6;
        assert!((20.0..28.0).contains(&params), "{params}M params"); // ≈ 23.5
    }

    #[test]
    fn bert_structure() {
        let w = bert_base(1, "MNLI");
        // 12 blocks × 6 GEMMs + classifier.
        assert_eq!(w.layers.len(), 73);
        // BERT-base encoder ≈ 85M weights.
        let params = w.total_weight_elems() as f64 / 1e6;
        assert!((80.0..90.0).contains(&params), "{params}M params");
        // At seq 128: ≈ 11.2 GMACs per sample (incl. attention GEMMs).
        let gmacs = w.total_macs() as f64 / 1e9;
        assert!((10.0..13.0).contains(&gmacs), "{gmacs} GMACs");
    }

    #[test]
    fn vit_structure() {
        let w = vit_base(1);
        let params = w.total_weight_elems() as f64 / 1e6;
        assert!((85.0..92.0).contains(&params), "{params}M params"); // ≈ 86M
    }

    #[test]
    fn batch_scales_macs_linearly() {
        let one = resnet18(1).total_macs();
        let sixty_four = resnet18(64).total_macs();
        assert_eq!(sixty_four, one * 64);
    }

    #[test]
    fn all_workloads_present_in_paper_order() {
        let names: Vec<String> = all_workloads(1).into_iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "VGG16",
                "ResNet18",
                "ResNet50",
                "InceptionV3",
                "ViT",
                "BERT-MNLI",
                "BERT-CoLA",
                "BERT-SST-2"
            ]
        );
    }

    #[test]
    fn edge_layers_marked() {
        for w in all_workloads(1) {
            assert!(w.layers.first().unwrap().is_edge, "{}", w.name);
            assert!(w.layers.last().unwrap().is_edge, "{}", w.name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown GLUE task")]
    fn bert_rejects_unknown_task() {
        let _ = bert_base(1, "QQP-typo");
    }
}
