//! The `.antm` model artifact: quantize once, *map* once, serve
//! zero-copy anywhere.
//!
//! ANT's offline/online split (paper Sec. IV-C: Algorithm-2 selection and
//! QAT happen once, serving runs on cheap packed wire codes) only pays off
//! if the offline result can be *persisted*. A [`ModelArtifact`] captures
//! everything the serving side needs — per-tensor [`DataType`] selections,
//! per-channel scales, the packed wire-code streams with their logical
//! shapes, biases and normalisation parameters — plus, in a separate
//! section, the [`Planner`]'s memoized selection-cache fingerprints so a
//! restarted offline pipeline replays Algorithm 2 instead of re-running
//! it.
//!
//! Its layer records are also the only road from a model to a plan:
//! [`CompiledPlan::from_quantized`] lowers each layer through the same
//! record, and the same record → plan-step lowering, that a reload uses,
//! so a plan compiled in process is the plan you get back from disk by
//! construction.
//!
//! The on-disk format (normatively specified in `docs/format.md`) is a
//! versioned, self-describing binary: a fixed header (magic, format
//! version), a section table, and CRC-32-checked section payloads, all
//! hand-rolled over [`std::io`], with an alignment discipline built for
//! memory-mapped serving:
//!
//! * every section payload starts on a [`SECTION_ALIGN`]-byte file
//!   offset (64, equal to [`ant_core::store::STORE_ALIGN`]), and `MODL`
//!   weight code streams are zero-padded to 64-byte payload-relative
//!   offsets, so a page-aligned mapping can lend them out directly as
//!   aligned [`TensorBytes`] borrows;
//! * a `PANL` section stores every packed layer's LUT-decoded `i8`/`i16`
//!   execution image **already in the microkernel's `NR`-interleaved
//!   panel layout** (plus each weight's integer decode LUT), each data
//!   chunk 64-byte aligned, so a mapped load performs no LUT decode and
//!   no panel re-packing;
//! * section CRCs are **lazy**: loading validates structure only, and
//!   [`ModelArtifact::verify_bytes`] (the `antc verify` engine) performs
//!   the full checksum audit plus a recompute-and-compare of every panel
//!   image against the wire codes.
//!
//! Loading a truncated, corrupted or other-versioned file yields a
//! structured [`ArtifactError`], never a panic.
//!
//! Reloading offers two paths, both ending in the same record → plan-step
//! lowering (a fake-quantized [`Sequential`] is never rebuilt — serving
//! mirrors the paper's int-based PE and has no float executor):
//!
//! * [`MappedArtifact::open`] — the zero-copy serving path: `mmap(2)` the
//!   file ([`crate::mmap::Mmap`]), borrow wire codes and panel images
//!   straight out of the mapping, and compile plans whose weight storage
//!   is read-only and page-shared across every process serving the same
//!   file. [`MappedArtifact::load_copies`] counts owned weight-byte
//!   materializations: a mapped load on a little-endian unix target
//!   makes none.
//! * [`ModelArtifact::load`] then [`ModelArtifact::compile`] — rebuild a
//!   [`CompiledPlan`] **directly from the saved wire codes**, decoding
//!   each execution image at compile. No float is ever re-encoded, so the
//!   reloaded plan's packed codes are bit-identical to the plan that was
//!   saved.
//!
//! Either way a record the integer domain cannot execute — a `float`
//! selection, 6-bit PoT, shapes that disagree — is a structured compile
//! error ([`RuntimeError::UnsupportedLayer`]), never a panic at serve
//! time.
//!
//! ```
//! use ant_nn::model::mlp;
//! use ant_nn::qat::{quantize_model, QuantSpec};
//! use ant_runtime::ModelArtifact;
//! use ant_tensor::dist::{sample_tensor, Distribution};
//!
//! let mut model = mlp(8, 4, 1);
//! let calib = sample_tensor(Distribution::Gaussian { mean: 0.0, std: 1.0 }, &[64, 8], 2);
//! quantize_model(&mut model, &calib, QuantSpec::default())?;
//!
//! // Offline: quantize once, save.
//! let artifact = ModelArtifact::from_model(&model)?;
//! let mut bytes = Vec::new();
//! artifact.save(&mut bytes)?;
//!
//! // Online: load anywhere, compile straight from wire codes.
//! let reloaded = ModelArtifact::load(&bytes[..])?;
//! let plan = reloaded.compile()?;
//! assert_eq!(plan.packed_layer_count(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cache::{Planner, SelectionCache, TypeDecision};
use crate::error::RuntimeError;
use crate::gemm::{KernelOperand, PanelGemm, NR};
use crate::mmap::Mmap;
use crate::plan::{
    act_bound, decode_image, pack_weight_tensor, CompiledPlan, PackedAttn, PackedConv,
    PackedLinear, PlanLayer, PlanNorm, WeightImage,
};
use ant_core::minifloat::FloatFormat;
use ant_core::pack::PackedTensor;
use ant_core::store::{PackedStore, StorePod, TensorBytes, STORE_ALIGN};
use ant_core::{DataType, Granularity, PrimitiveType, QuantError, Quantizer, TensorQuantizer};
use ant_nn::model::{NetLayer, Sequential};
use ant_tensor::linalg::Conv2dGeometry;
use ant_tensor::Tensor;
use std::any::Any;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// The four magic bytes every `.antm` stream starts with.
pub const MAGIC: [u8; 4] = *b"ANTM";

/// The one format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 3;

const SECTION_MODEL: [u8; 4] = *b"MODL";
const SECTION_PANEL: [u8; 4] = *b"PANL";
const SECTION_CACHE: [u8; 4] = *b"CACH";

/// Header size: magic + version + reserved + section count.
const HEADER_LEN: usize = 4 + 2 + 2 + 4;
/// Section-table entry size: id + offset + len + crc32.
const ENTRY_LEN: usize = 4 + 8 + 8 + 4;

/// File-offset alignment of every section payload, of every `MODL`
/// wire-code stream (payload-relative) and of every `PANL` data chunk
/// (section-relative): the borrowed-store alignment guarantee, promoted
/// into the file format so a page-aligned mapping can lend bytes out
/// without copying.
pub const SECTION_ALIGN: usize = 64;

// The format's alignment promise and the store's alignment demand must
// be the same number, or mapped borrows would never validate.
const _: () = assert!(SECTION_ALIGN == STORE_ALIGN);

/// Type-erased keep-alive handle for borrowed stores (an
/// [`Arc<Mmap>`](crate::mmap::Mmap) in practice).
type ArcOwner = Arc<dyn Any + Send + Sync>;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Structured error for `.antm` serialization and deserialization.
///
/// Every failure mode of a hostile byte stream — wrong magic, version
/// skew, truncation, checksum mismatch, semantically inconsistent payloads
/// — maps to a dedicated variant; loading never panics.
#[derive(Debug)]
pub enum ArtifactError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// The stream does not start with [`MAGIC`].
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The stream's format version is not the one this build reads.
    UnsupportedVersion {
        /// Version stored in the stream.
        found: u16,
        /// The version this build reads ([`FORMAT_VERSION`]).
        supported: u16,
    },
    /// The stream ended before a declared structure was complete.
    Truncated {
        /// What was being read.
        context: String,
        /// Bytes the structure still needed.
        needed: u64,
        /// Bytes actually remaining.
        got: u64,
    },
    /// A section's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// Section id (e.g. `MODL`).
        section: String,
        /// CRC stored in the section table.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// A required section is absent from the section table.
    MissingSection {
        /// The missing section's id.
        section: String,
    },
    /// A payload parsed but is semantically inconsistent (bad enum tag,
    /// mismatched shapes, non-positive scale, …).
    Malformed {
        /// What was being read.
        context: String,
        /// Why it was rejected.
        detail: String,
    },
    /// A quantization-level operation on the decoded state failed.
    Quant(QuantError),
    /// A plan-compilation operation on the decoded state failed (e.g. a
    /// float-typed layer, or a record whose shapes disagree).
    Runtime(RuntimeError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::BadMagic { found } => {
                write!(f, "not an .antm artifact: magic {found:02x?}")
            }
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not the version this build reads ({supported})"
            ),
            ArtifactError::Truncated {
                context,
                needed,
                got,
            } => write!(
                f,
                "artifact truncated while reading {context}: needed {needed} bytes, {got} remain"
            ),
            ArtifactError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "section {section} checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            ArtifactError::MissingSection { section } => {
                write!(f, "required section {section} is missing")
            }
            ArtifactError::Malformed { context, detail } => {
                write!(f, "malformed artifact ({context}): {detail}")
            }
            ArtifactError::Quant(e) => write!(f, "artifact quantization error: {e}"),
            ArtifactError::Runtime(e) => write!(f, "artifact plan error: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Quant(e) => Some(e),
            ArtifactError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<QuantError> for ArtifactError {
    fn from(e: QuantError) -> Self {
        ArtifactError::Quant(e)
    }
}

impl From<RuntimeError> for ArtifactError {
    fn from(e: RuntimeError) -> Self {
        ArtifactError::Runtime(e)
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One serialized weight tensor: packed wire codes plus the calibration
/// granularity of its [`TensorQuantizer`] (what `antc inspect` reports).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WeightRecord {
    granularity: Granularity,
    codes: PackedTensor,
}

impl WeightRecord {
    /// Encodes a layer's f32 weight onto wire codes under its quantizer.
    fn encode(
        w: &Tensor,
        wq: Option<&TensorQuantizer>,
        dims: &[usize],
        layer: &str,
    ) -> Result<WeightRecord, RuntimeError> {
        let wq = wq.ok_or_else(|| not_quantized(layer))?;
        Ok(WeightRecord {
            granularity: wq.granularity(),
            codes: pack_weight_tensor(w.as_slice(), wq, dims)?,
        })
    }
}

/// A serialized activation quantizer: data type plus per-tensor scale.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ActRecord {
    dtype: DataType,
    scale: f32,
}

impl ActRecord {
    fn of(aq: Option<&Quantizer>, layer: &str) -> Result<ActRecord, RuntimeError> {
        let aq = aq.ok_or_else(|| not_quantized(layer))?;
        Ok(ActRecord {
            dtype: aq.dtype(),
            scale: aq.scale(),
        })
    }

    /// The scale is positive and finite by construction: records come
    /// from a live [`Quantizer`] or through `Rd::act`, which checks it.
    fn quantizer(&self) -> Result<Quantizer, QuantError> {
        Quantizer::with_scale(self.dtype, self.scale)
    }
}

fn not_quantized(layer: &str) -> RuntimeError {
    RuntimeError::NotQuantized {
        layer: layer.to_string(),
    }
}

/// One network layer as the artifact persists it: wire codes, scales and
/// shape parameters. Also the intermediate form every plan is compiled
/// through ([`Self::from_layer`] then [`Self::lower`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LayerRecord {
    name: String,
    kind: RecordKind,
    /// The wire-code tensors: as many as [`RecordKind::row`] says
    /// (dense/conv one, attention its q, k, v, o projections).
    weights: Vec<WeightRecord>,
    /// Dense/conv bias; empty for every other kind.
    bias: Vec<f32>,
    /// The input-activation selection: `Some` iff the kind has weights.
    act: Option<ActRecord>,
}

/// A record's kind, with the shape parameters only that kind has.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RecordKind {
    Dense,
    Relu,
    Conv {
        in_shape: (usize, usize, usize),
        geo: Conv2dGeometry,
    },
    Pool {
        in_shape: (usize, usize, usize),
    },
    Norm {
        gamma: Vec<f32>,
        beta: Vec<f32>,
        eps: f32,
    },
    Attn {
        seq: usize,
        dim: usize,
        causal: bool,
    },
    Gelu,
}

impl RecordKind {
    /// `(MODL tag, inspect label, weight count, has bias)` — the one row
    /// per kind that the wire codec, the summaries and the `PANL` entry
    /// count read. On the wire a record is its tag, name and kind
    /// parameters, then that many weights, the bias if it has one, and
    /// the activation selection if it has weights.
    fn row(&self) -> (u8, &'static str, usize, bool) {
        match self {
            RecordKind::Dense => (0, "dense", 1, true),
            RecordKind::Relu => (1, "relu", 0, false),
            RecordKind::Conv { .. } => (2, "conv", 1, true),
            RecordKind::Pool { .. } => (3, "pool", 0, false),
            RecordKind::Norm { .. } => (4, "norm", 0, false),
            RecordKind::Attn { causal: false, .. } => (5, "attn", 4, false),
            RecordKind::Gelu => (6, "gelu", 0, false),
            // A causal block's payload is byte-identical to tag 5's; its
            // own tag makes readers that predate it reject it cleanly as
            // an unknown kind rather than serve it unmasked.
            RecordKind::Attn { causal: true, .. } => (7, "causal-attn", 4, false),
        }
    }
}

impl LayerRecord {
    /// Captures one quantized layer: compute layers' weights are encoded
    /// onto wire codes under their attached quantizers.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NotQuantized`] when a compute layer has no
    /// quantizers, plus any packing failures.
    pub(crate) fn from_layer(layer: &NetLayer) -> Result<LayerRecord, RuntimeError> {
        let name = layer.name();
        let plain = |kind| (kind, Vec::new(), Vec::new(), None);
        let (kind, weights, bias, act) = match layer {
            NetLayer::Dense(d) => (
                RecordKind::Dense,
                vec![WeightRecord::encode(
                    d.weight(),
                    d.quant.weight.as_ref(),
                    &[d.out_features(), d.in_features()],
                    name,
                )?],
                d.bias().as_slice().to_vec(),
                d.quant.activation.as_ref(),
            ),
            NetLayer::Conv(c) => (
                RecordKind::Conv {
                    in_shape: c.in_shape(),
                    geo: c.geometry(),
                },
                vec![WeightRecord::encode(
                    c.weight(),
                    c.quant.weight.as_ref(),
                    c.weight().dims(),
                    name,
                )?],
                c.bias().as_slice().to_vec(),
                c.quant.activation.as_ref(),
            ),
            NetLayer::Attn(a) => {
                let dim = a.dim();
                let projections = a.projection_weights().into_iter().zip(&a.quant.weights);
                let packed = projections
                    .map(|(w, q)| WeightRecord::encode(w, q.as_ref(), &[dim, dim], name));
                (
                    RecordKind::Attn {
                        seq: a.seq(),
                        dim,
                        causal: a.causal(),
                    },
                    packed.collect::<Result<_, _>>()?,
                    Vec::new(),
                    a.quant.activation.as_ref(),
                )
            }
            NetLayer::Relu(_) => plain(RecordKind::Relu),
            NetLayer::Gelu(_) => plain(RecordKind::Gelu),
            NetLayer::Pool(p) => plain(RecordKind::Pool {
                in_shape: p.in_shape(),
            }),
            NetLayer::Norm(n) => plain(RecordKind::Norm {
                gamma: n.gamma().as_slice().to_vec(),
                beta: n.beta().as_slice().to_vec(),
                eps: n.eps(),
            }),
        };
        let act = if weights.is_empty() {
            None
        } else {
            Some(ActRecord::of(act, name)?)
        };
        Ok(LayerRecord {
            name: name.to_string(),
            kind,
            weights,
            bias,
            act,
        })
    }

    /// The wire codes of this record's `N` weights (`N` is its kind's
    /// [`RecordKind::row`] count: both constructors guarantee it).
    fn codes<const N: usize>(&self) -> [PackedTensor; N] {
        std::array::from_fn(|i| self.weights[i].codes.clone())
    }

    /// Lowers the record to its plan step, straight from the wire codes
    /// (no float is re-encoded). `entries` are this layer's pre-parsed
    /// `PANL` entries (one per weight), whose images are adopted verbatim
    /// when present (the mapped path);
    /// otherwise each packed layer LUT-decodes and panel-packs its own.
    ///
    /// This is the only road to a plan, so it is also where a record is
    /// validated: the parser checks framing, not that shapes agree.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnsupportedLayer`] for a selection the integer
    /// domain cannot execute exactly or a record whose shapes disagree
    /// (plus the shape errors of the packed layers' constructors) —
    /// never a step that would panic or silently truncate at run time.
    pub(crate) fn lower(&self, entries: &[PanelEntry]) -> Result<PlanLayer, RuntimeError> {
        let name = &self.name;
        let refuse = |reason: &str| RuntimeError::UnsupportedLayer {
            layer: name.clone(),
            reason: reason.to_string(),
        };
        let act = || {
            let act = self.act.as_ref().ok_or_else(|| not_quantized(name))?;
            Ok::<_, RuntimeError>(act.quantizer()?)
        };
        let image = || entries.first().cloned().flatten();
        match &self.kind {
            RecordKind::Dense => {
                let [w] = self.codes();
                PackedLinear::from_parts(name.clone(), w, self.bias.clone(), act()?, image())
                    .map(|p| PlanLayer::Packed(Box::new(p)))
            }
            RecordKind::Conv { in_shape, geo } => {
                let ([w], bias) = (self.codes(), self.bias.clone());
                PackedConv::from_parts(name.clone(), w, bias, act()?, *in_shape, *geo, image())
                    .map(|p| PlanLayer::PackedConv(Box::new(p)))
            }
            RecordKind::Attn { seq, dim, causal } => {
                let prebuilt = match entries {
                    [Some(q), Some(k), Some(v), Some(o)] => {
                        Some([q.clone(), k.clone(), v.clone(), o.clone()])
                    }
                    _ => None,
                };
                PackedAttn::from_parts(name.clone(), *seq, *dim, self.codes(), act()?, prebuilt)
                    .and_then(|p| PlanLayer::attn(p, *causal))
            }
            RecordKind::Relu => Ok(PlanLayer::Relu),
            RecordKind::Gelu => Ok(PlanLayer::Gelu),
            RecordKind::Pool { in_shape } => {
                if !in_shape.1.is_multiple_of(2) || !in_shape.2.is_multiple_of(2) {
                    return Err(refuse("pool extents must be even"));
                }
                Ok(PlanLayer::Pool {
                    in_shape: *in_shape,
                })
            }
            RecordKind::Norm { gamma, beta, eps } => {
                if gamma.is_empty() || gamma.len() != beta.len() {
                    return Err(refuse("norm gamma/beta lengths disagree"));
                }
                let norm = PlanNorm::from_parts(name.clone(), gamma.clone(), beta.clone(), *eps);
                Ok(PlanLayer::Norm(Box::new(norm)))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Public inspection types
// ---------------------------------------------------------------------------

/// Parsed header metadata of an `.antm` stream (see [`probe`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactInfo {
    /// Format version stored in the header.
    pub version: u16,
    /// Section-table entries in file order.
    pub sections: Vec<SectionInfo>,
}

/// One section-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Four-character section id (`MODL`, `PANL`, `CACH`).
    pub id: String,
    /// Payload file offset in bytes (a [`SECTION_ALIGN`] multiple).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Stored CRC-32 of the payload.
    pub crc32: u32,
}

/// Per-weight metadata for one layer of an artifact (the `antc inspect`
/// table row source).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightSummary {
    /// Selected data type.
    pub dtype: DataType,
    /// Calibration granularity.
    pub granularity: Granularity,
    /// Logical shape of the packed codes.
    pub dims: Vec<usize>,
    /// Element count.
    pub elements: usize,
    /// Packed storage bytes (`⌈elements·bits/8⌉`).
    pub bytes: usize,
    /// Number of scales (1 for per-tensor).
    pub scales: usize,
}

/// Per-layer metadata for one layer of an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSummary {
    /// Layer name.
    pub name: String,
    /// Layer kind (`dense`, `relu`, `conv`, `pool`, `norm`, `attn`,
    /// `causal-attn`, `gelu`).
    pub kind: &'static str,
    /// Weight tensors (dense/conv carry one, attention four, others none).
    pub weights: Vec<WeightSummary>,
    /// Activation selection, for compute layers.
    pub activation: Option<(DataType, f32)>,
}

// ---------------------------------------------------------------------------
// ModelArtifact
// ---------------------------------------------------------------------------

/// A serializable snapshot of a quantized [`Sequential`] plus the
/// selection-cache fingerprints that produced it.
///
/// See the [module docs](self) for the save/load flow and `docs/format.md`
/// for the byte-level format.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    layers: Vec<LayerRecord>,
    cache: Vec<(u64, Vec<TypeDecision>)>,
}

impl ModelArtifact {
    /// Captures a quantized model: every compute layer's weights are
    /// encoded onto packed wire codes under its attached quantizers (the
    /// exact code path plan compilation uses, so saved codes are
    /// bit-identical to compiled ones).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Runtime`] wrapping
    /// [`RuntimeError::NotQuantized`] when a compute layer has no
    /// quantizers, plus any packing failures.
    pub fn from_model(model: &Sequential) -> Result<Self, ArtifactError> {
        let layers = model.layers().iter().map(LayerRecord::from_layer);
        Ok(ModelArtifact {
            layers: layers.collect::<Result<_, _>>()?,
            cache: Vec::new(),
        })
    }

    /// Attaches a planner's memoized Algorithm-2 decisions, so a reloaded
    /// pipeline can warm-start selection (see [`Self::planner`]).
    #[must_use]
    pub fn with_cache(mut self, cache: &SelectionCache) -> Self {
        self.cache = cache.export();
        self
    }

    /// Number of serialized layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The memoized selection decisions stored in the cache section.
    pub fn cache_entries(&self) -> &[(u64, Vec<TypeDecision>)] {
        &self.cache
    }

    /// A [`Planner`] pre-warmed with this artifact's cached decisions:
    /// compiling the original `(model, calibration, spec)` triple replays
    /// the saved selection instead of re-running the MSE grid search.
    pub fn planner(&self) -> Planner {
        Planner::with_cache(self.cache.clone())
    }

    /// Per-layer metadata (the source of `antc inspect`'s table).
    pub fn layer_summaries(&self) -> Vec<LayerSummary> {
        self.layers.iter().map(summarize).collect()
    }

    /// Total packed weight bytes across all layers.
    pub fn packed_weight_bytes(&self) -> usize {
        self.layer_summaries()
            .iter()
            .flat_map(|l| l.weights.iter().map(|w| w.bytes))
            .sum()
    }

    /// Whether every wire-code stream in every layer is borrowed from an
    /// external owner (a file mapping) rather than copied into owned
    /// buffers. Always `false` for artifacts built by [`Self::from_model`]
    /// or loaded through [`Self::load`]; `true` for the model half of a
    /// [`MappedArtifact`].
    pub fn codes_borrowed(&self) -> bool {
        let mut weights = self.layers.iter().flat_map(|l| &l.weights);
        weights.all(|w| w.codes.is_borrowed())
    }

    /// Compiles an executable plan **directly from the saved wire codes**
    /// (bit-identical to the plan that produced the artifact), through
    /// the lowering [`CompiledPlan::from_quantized`] uses.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Runtime`] wrapping
    /// [`RuntimeError::UnsupportedLayer`] for a record the integer domain
    /// cannot execute (a `float` or 6-bit PoT selection) or whose shapes
    /// disagree, naming the layer.
    pub fn compile(&self) -> Result<CompiledPlan, ArtifactError> {
        self.build_plan_with(None)
    }

    /// Forwards to [`Self::compile`]; kept for the benchmark contract.
    #[doc(hidden)]
    pub fn compile_strict(&self) -> Result<CompiledPlan, ArtifactError> {
        self.compile()
    }

    /// Plan construction shared by the decode path (`images: None` — each
    /// packed layer LUT-decodes and panel-packs its execution image) and
    /// the mapped path (`images: Some` — pre-parsed `PANL` entries are
    /// adopted verbatim, typically borrowed straight from the mapping).
    fn build_plan_with(
        &self,
        images: Option<&[Vec<PanelEntry>]>,
    ) -> Result<CompiledPlan, ArtifactError> {
        let lower = |(i, record): (usize, &LayerRecord)| {
            record.lower(images.map_or(&[], |im| im[i].as_slice()))
        };
        let layers = self.layers.iter().enumerate().map(lower);
        let layers = layers.collect::<Result<_, RuntimeError>>()?;
        Ok(CompiledPlan::from_plan_layers(layers))
    }

    // -- serialization ------------------------------------------------------

    /// Serializes the artifact (see `docs/format.md`): 64-byte-aligned
    /// `MODL`, `PANL` and `CACH` sections, aligned wire codes, and
    /// pre-packed panel images so a mapped reader never decodes or
    /// re-packs a weight.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on write failure; panel construction errors
    /// for semantically inconsistent records.
    pub fn save<W: Write>(&self, w: W) -> Result<(), ArtifactError> {
        let model = self.model_payload();
        let panel = self.panel_payload()?;
        let cache = self.cache_payload();
        let sections: [([u8; 4], &[u8]); 3] = [
            (SECTION_MODEL, &model),
            (SECTION_PANEL, &panel),
            (SECTION_CACHE, &cache),
        ];
        write_sections(w, &sections)
    }

    /// Serializes to a file at `path`.
    ///
    /// # Errors
    ///
    /// As [`Self::save`].
    pub fn save_path<P: AsRef<Path>>(&self, path: P) -> Result<(), ArtifactError> {
        self.save(std::fs::File::create(path)?)
    }

    /// Deserializes an artifact from a reader, verifying magic, version
    /// and section framing. Checksums are deferred to
    /// [`Self::verify_bytes`] (`antc verify`) so loading stays at parse
    /// cost. The `PANL` section is ignored here — records always own
    /// their codes; use [`MappedArtifact::open`] for the zero-copy path.
    ///
    /// # Errors
    ///
    /// Every hostile-input failure maps to a structured
    /// [`ArtifactError`]; this never panics.
    pub fn load<R: Read>(mut r: R) -> Result<Self, ArtifactError> {
        let start = crate::obs::now();
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let (loaded, _, copies) = parse_artifact(&bytes, None)?;
        crate::obs::metrics().artifact_load(
            start,
            crate::obs::now().saturating_sub(start),
            copies,
            false,
        );
        Ok(loaded)
    }

    /// Deserializes from a file at `path`.
    ///
    /// # Errors
    ///
    /// As [`Self::load`].
    pub fn load_path<P: AsRef<Path>>(path: P) -> Result<Self, ArtifactError> {
        Self::load(std::fs::File::open(path)?)
    }

    /// Full integrity audit of an `.antm` stream — the slow, thorough
    /// counterpart to the lazy load:
    ///
    /// 1. every section payload is CRC-32-checked against the table,
    /// 2. the model (and cache) payloads are structurally parsed,
    /// 3. the `PANL` section is parsed and every panel image is
    ///    **recomputed from the wire codes** and compared
    ///    bit-for-bit, so a tampered image (or a lying `a_max`/`b_max`
    ///    bound) is caught even though loads never check it.
    ///
    /// # Errors
    ///
    /// The first failing check, as a structured [`ArtifactError`]
    /// ([`ArtifactError::ChecksumMismatch`], [`ArtifactError::Malformed`],
    /// [`ArtifactError::MissingSection`] for a stream without `PANL`, …).
    pub fn verify_bytes(bytes: &[u8]) -> Result<ArtifactInfo, ArtifactError> {
        let start = crate::obs::now();
        let info = Self::verify_bytes_inner(bytes)?;
        crate::obs::metrics().artifact_verify(start, crate::obs::now().saturating_sub(start));
        Ok(info)
    }

    fn verify_bytes_inner(bytes: &[u8]) -> Result<ArtifactInfo, ArtifactError> {
        let info = parse_header(bytes)?;
        for (i, section) in info.sections.iter().enumerate() {
            let payload = section_payload(bytes, &info, i);
            let computed = crc32(payload);
            if computed != section.crc32 {
                return Err(ArtifactError::ChecksumMismatch {
                    section: section.id.clone(),
                    stored: section.crc32,
                    computed,
                });
            }
        }
        let (artifact, ..) = parse_artifact(bytes, None)?;
        let pi =
            find_section(&info, SECTION_PANEL).ok_or_else(|| ArtifactError::MissingSection {
                section: "PANL".to_string(),
            })?;
        let payload = section_payload(bytes, &info, pi);
        let (images, _) = parse_panel_section(payload, &artifact.layers, None)?;
        for (record, parsed) in artifact.layers.iter().zip(&images) {
            let expected = expected_entries(record)?;
            if parsed.len() != expected.len()
                || !parsed
                    .iter()
                    .zip(&expected)
                    .all(|(p, e)| entries_match(p, e))
            {
                return Err(ArtifactError::Malformed {
                    context: "PANL section".to_string(),
                    detail: format!(
                        "panel image for layer '{}' disagrees with its wire codes",
                        record.name
                    ),
                });
            }
        }
        Ok(info)
    }

    /// [`Self::verify_bytes`] over a file at `path`.
    ///
    /// # Errors
    ///
    /// As [`Self::verify_bytes`], plus I/O failures.
    pub fn verify_path<P: AsRef<Path>>(path: P) -> Result<ArtifactInfo, ArtifactError> {
        let bytes = std::fs::read(path)?;
        Self::verify_bytes(&bytes)
    }

    // -- payload builders ---------------------------------------------------

    fn model_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.layers.len() as u32);
        for layer in &self.layers {
            let (tag, _, _, has_bias) = layer.kind.row();
            out.push(tag);
            put_str(&mut out, &layer.name);
            match &layer.kind {
                RecordKind::Conv { in_shape, geo } => {
                    put_shape3(&mut out, *in_shape);
                    for v in [geo.kh, geo.kw, geo.stride, geo.padding] {
                        put_u32(&mut out, v as u32);
                    }
                }
                RecordKind::Pool { in_shape } => put_shape3(&mut out, *in_shape),
                RecordKind::Norm { gamma, beta, eps } => {
                    put_f32s(&mut out, gamma);
                    put_f32s(&mut out, beta);
                    put_f32(&mut out, *eps);
                }
                RecordKind::Attn { seq, dim, .. } => {
                    put_u32(&mut out, *seq as u32);
                    put_u32(&mut out, *dim as u32);
                }
                RecordKind::Dense | RecordKind::Relu | RecordKind::Gelu => {}
            }
            for w in &layer.weights {
                put_weight(&mut out, w);
            }
            if has_bias {
                put_f32s(&mut out, &layer.bias);
            }
            if let Some(act) = &layer.act {
                put_act(&mut out, act);
            }
        }
        out
    }

    fn cache_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.cache.len() as u32);
        for (key, decisions) in &self.cache {
            put_u64(&mut out, *key);
            put_u32(&mut out, decisions.len() as u32);
            for d in decisions {
                put_u32(&mut out, d.layer_index as u32);
                put_u32(&mut out, d.weights.len() as u32);
                for (dt, g, scales) in &d.weights {
                    put_dtype(&mut out, *dt);
                    out.push(granularity_tag(*g));
                    put_f32s(&mut out, scales);
                }
                let (adt, ascale) = d.activation;
                put_dtype(&mut out, adt);
                put_f32(&mut out, ascale);
            }
        }
        out
    }

    /// Builds the `PANL` payload: a meta region (per-layer entry
    /// descriptors with inline decode LUTs and section-relative data
    /// offsets) followed by a 64-byte-aligned data area holding the raw
    /// panel images, each chunk on its own 64-byte boundary. The entries
    /// are the ones [`expected_entries`] builds — what `verify` compares
    /// a parsed section against — streamed out of the images without an
    /// intermediate copy.
    fn panel_payload(&self) -> Result<Vec<u8>, ArtifactError> {
        let mut layers = Vec::with_capacity(self.layers.len());
        for record in &self.layers {
            let mut entries = Vec::with_capacity(record.weights.len());
            for (entry, w) in expected_entries(record)?.into_iter().zip(&record.weights) {
                entries.push((RawEntry::of(entry.as_ref(), w)?, entry));
            }
            layers.push(entries);
        }
        // Assign aligned data offsets after the meta region.
        let meta_len: usize = 4 + layers
            .iter()
            .map(|es| 1 + es.iter().map(|(raw, _)| raw.meta_len()).sum::<usize>())
            .sum::<usize>();
        let mut total = meta_len.next_multiple_of(SECTION_ALIGN);
        for (raw, _) in layers.iter_mut().flatten().filter(|(raw, _)| raw.len != 0) {
            raw.off = total.next_multiple_of(SECTION_ALIGN);
            total = raw.off + raw.len;
        }
        let mut out = Vec::with_capacity(total);
        put_u32(&mut out, layers.len() as u32);
        for entries in &layers {
            out.push(entries.len() as u8);
            for (raw, _) in entries {
                out.push(raw.tag);
                put_u32(&mut out, raw.n);
                put_u32(&mut out, raw.k);
                put_i64(&mut out, raw.a_max);
                put_i64(&mut out, raw.b_max);
                put_u32(&mut out, raw.lut.len() as u32);
                for &v in &raw.lut {
                    put_i32(&mut out, v);
                }
                put_u64(&mut out, raw.off as u64);
                put_u64(&mut out, raw.len as u64);
            }
        }
        debug_assert_eq!(out.len(), meta_len, "PANL meta length bookkeeping");
        for (raw, entry) in layers.iter().flatten().filter(|(raw, _)| raw.len != 0) {
            out.resize(raw.off, 0);
            match entry {
                Some(WeightImage::I8(pg)) => out.extend(pg.panels().iter().map(|&v| v as u8)),
                Some(WeightImage::I16(pg)) => {
                    out.extend(pg.panels().iter().flat_map(|v| v.to_le_bytes()))
                }
                None => {}
            }
        }
        out.resize(total, 0);
        Ok(out)
    }
}

/// Writes a header, section table and payloads, each payload padded to a
/// [`SECTION_ALIGN`] file offset.
fn write_sections<W: Write>(mut w: W, sections: &[([u8; 4], &[u8])]) -> Result<(), ArtifactError> {
    let table_len = HEADER_LEN + sections.len() * ENTRY_LEN;
    let mut header = Vec::with_capacity(table_len);
    header.extend_from_slice(&MAGIC);
    put_u16(&mut header, FORMAT_VERSION);
    put_u16(&mut header, 0); // reserved
    put_u32(&mut header, sections.len() as u32);
    let mut offsets = Vec::with_capacity(sections.len());
    let mut offset = table_len as u64;
    for (id, payload) in sections {
        offset = offset.next_multiple_of(SECTION_ALIGN as u64);
        header.extend_from_slice(id);
        put_u64(&mut header, offset);
        put_u64(&mut header, payload.len() as u64);
        put_u32(&mut header, crc32(payload));
        offsets.push(offset);
        offset += payload.len() as u64;
    }
    w.write_all(&header)?;
    let mut pos = table_len as u64;
    for ((_, payload), &off) in sections.iter().zip(&offsets) {
        w.write_all(&vec![0u8; (off - pos) as usize])?;
        w.write_all(payload)?;
        pos = off + payload.len() as u64;
    }
    Ok(())
}

/// Parses a full stream into records: the shared engine behind
/// [`ModelArtifact::load`] (`owner: None`, everything owned) and
/// [`MappedArtifact::open`] (`owner: Some`, wire codes borrowed from the
/// mapping where alignment allows). Checksums are `verify`'s job. Also
/// returns how many weight buffers had to be copied into owned storage.
fn parse_artifact(
    bytes: &[u8],
    owner: Option<&ArcOwner>,
) -> Result<(ModelArtifact, ArtifactInfo, u64), ArtifactError> {
    let info = parse_header(bytes)?;
    let mi = find_section(&info, SECTION_MODEL).ok_or_else(|| ArtifactError::MissingSection {
        section: "MODL".to_string(),
    })?;
    let (layers, copies) = parse_model_section(section_payload(bytes, &info, mi), owner)?;
    let cache = match find_section(&info, SECTION_CACHE) {
        Some(ci) => parse_cache_section(section_payload(bytes, &info, ci))?,
        None => Vec::new(),
    };
    Ok((ModelArtifact { layers, cache }, info, copies))
}

/// Index of the first section with `id`, if present (unknown sections
/// are skipped, so same-version extensions stay readable).
fn find_section(info: &ArtifactInfo, id: [u8; 4]) -> Option<usize> {
    info.sections.iter().position(|s| s.id.as_bytes() == id)
}

// ---------------------------------------------------------------------------
// PANL section: pre-packed execution images
// ---------------------------------------------------------------------------

const TAG_I8: u8 = 0;
const TAG_I16: u8 = 1;
/// Reserved: 2 was plain `i32` rows, 3 attention's transposed f32
/// o-projection operand (format v2). Never written; no reader accepts them.
const TAG_RESERVED: std::ops::RangeInclusive<u8> = 2..=3;
const TAG_ABSENT: u8 = 4;

/// One parsed `PANL` entry: a ready-to-adopt execution image in
/// microkernel layout, or `None` — no image serialized (the layer
/// decodes its image at compile, or compilation refuses it).
pub(crate) type PanelEntry = Option<WeightImage>;

/// The descriptor the writer emits for one `PANL` entry; the
/// section-relative data offset is assigned once every entry is known.
#[derive(Default)]
struct RawEntry {
    tag: u8,
    n: u32,
    k: u32,
    a_max: i64,
    b_max: i64,
    lut: Vec<i32>,
    len: usize,
    off: usize,
}

impl RawEntry {
    /// The descriptor of `image` (absent when `None`) for the weight `w`
    /// it images: the shape comes from the wire codes' dims, the inline
    /// LUT from their type.
    fn of(image: Option<&WeightImage>, w: &WeightRecord) -> Result<RawEntry, ArtifactError> {
        let (tag, a_max, b_max, len) = match image {
            None => {
                return Ok(RawEntry {
                    tag: TAG_ABSENT,
                    ..RawEntry::default()
                })
            }
            Some(WeightImage::I8(pg)) => (TAG_I8, pg.a_max(), pg.b_max(), pg.panels().len()),
            Some(WeightImage::I16(pg)) => (TAG_I16, pg.a_max(), pg.b_max(), 2 * pg.panels().len()),
        };
        let dims = w.codes.dims();
        Ok(RawEntry {
            tag,
            n: dims[0] as u32,
            k: dims[1..].iter().product::<usize>() as u32,
            a_max,
            b_max,
            lut: ant_core::Codec::new(w.codes.dtype())?
                .decode_lut_int()
                .unwrap_or_default(),
            len,
            off: 0,
        })
    }

    /// Serialized descriptor size: tag + n + k + a_max + b_max + lut_len
    /// + inline LUT + data_off + data_len.
    fn meta_len(&self) -> usize {
        1 + 4 + 4 + 8 + 8 + 4 + 4 * self.lut.len() + 8 + 8
    }
}

/// The `PANL` entries for `record`, computed from its wire codes by the
/// exact decode-and-pack path plan compilation uses: what the writer
/// serializes, and what [`ModelArtifact::verify_bytes`] compares a parsed
/// section against bit-for-bit. A layer the integer domain refuses, or
/// whose codes are not shaped consistently enough to image, gets absent
/// entries (all of them — attention adopts its images as a set): the
/// file still saves, loads and verifies, and compiling it reports the
/// refusal.
fn expected_entries(record: &LayerRecord) -> Result<Vec<PanelEntry>, ArtifactError> {
    let (weights, Some(act)) = (&record.weights, &record.act) else {
        return Ok(Vec::new());
    };
    let absent = || vec![None; weights.len()];
    let float = |dt: DataType| dt.primitive() == PrimitiveType::Float;
    let shaped = |w: &WeightRecord| {
        let dims = w.codes.dims();
        let square = match record.kind {
            RecordKind::Attn { dim, .. } => dims == [dim, dim],
            _ => true,
        };
        square && dims.len() >= 2 && dims.iter().product::<usize>() == w.codes.len()
    };
    if float(act.dtype) || !weights.iter().all(|w| shaped(w) && !float(w.codes.dtype())) {
        return Ok(absent());
    }
    let name = &record.name;
    let images = act_bound(name, &act.quantizer()?).and_then(|bound| {
        let image = |w: &WeightRecord| decode_image(name, &w.codes, bound);
        weights.iter().map(image).collect::<Result<Vec<_>, _>>()
    });
    match images {
        Ok(images) => Ok(images.into_iter().map(Some).collect()),
        Err(RuntimeError::UnsupportedLayer { .. }) => Ok(absent()),
        Err(e) => Err(e.into()),
    }
}

fn entries_match(parsed: &PanelEntry, expected: &PanelEntry) -> bool {
    match (parsed, expected) {
        (Some(WeightImage::I8(x)), Some(WeightImage::I8(y))) => pg_eq(x, y),
        (Some(WeightImage::I16(x)), Some(WeightImage::I16(y))) => pg_eq(x, y),
        (None, None) => true,
        _ => false,
    }
}

fn pg_eq<T: KernelOperand + PartialEq>(x: &PanelGemm<T>, y: &PanelGemm<T>) -> bool {
    x.n() == y.n()
        && x.k() == y.k()
        && x.a_max() == y.a_max()
        && x.b_max() == y.b_max()
        && x.panels() == y.panels()
}

/// Parses a `PANL` section against the already-parsed layer records,
/// borrowing image data from `owner` where possible (and returning how
/// many images had to be copied instead). Validates the
/// per-layer entry structure, tag-specific data extents and the 64-byte
/// data alignment the writer guarantees. `a_max`/`b_max` are *not*
/// trusted beyond widening-cadence recomputation (a lying bound changes
/// results, never memory safety — and `verify` catches it).
fn parse_panel_section(
    payload: &[u8],
    layers: &[LayerRecord],
    owner: Option<&ArcOwner>,
) -> Result<(Vec<Vec<PanelEntry>>, u64), ArtifactError> {
    let mut rd = Rd::new(payload, "PANL section", owner);
    let count = rd.usize32()?;
    if count != layers.len() {
        return Err(rd.malformed(format!(
            "layer count {count} disagrees with MODL's {}",
            layers.len()
        )));
    }
    let mut all = Vec::with_capacity(count);
    for record in layers {
        let entry_count = rd.u8()? as usize;
        if entry_count != record.weights.len() {
            return Err(rd.malformed(format!(
                "layer '{}' has {entry_count} panel entries, expected {}",
                record.name,
                record.weights.len()
            )));
        }
        let mut entries = Vec::with_capacity(entry_count);
        for i in 0..entry_count {
            entries.push(parse_panel_entry(&mut rd, payload, &record.name, i)?);
        }
        all.push(entries);
    }
    Ok((all, rd.copies))
}

fn parse_panel_entry(
    rd: &mut Rd<'_>,
    payload: &[u8],
    layer: &str,
    index: usize,
) -> Result<PanelEntry, ArtifactError> {
    let tag = rd.u8()?;
    let n = rd.usize32()?;
    let k = rd.usize32()?;
    let a_max = rd.i64()?;
    let b_max = rd.i64()?;
    let lut_len = rd.usize32()?;
    let lut_bytes = lut_len
        .checked_mul(4)
        .ok_or_else(|| rd.malformed("decode LUT length overflows"))?;
    // The inline LUT is provenance metadata for tooling and audits; plan
    // construction adopts the image bytes directly.
    let _ = rd.take(lut_bytes)?;
    let off = rd.u64()? as usize;
    let len = rd.u64()? as usize;
    if tag == TAG_ABSENT {
        if len != 0 {
            return Err(rd.malformed("absent panel entry carries data"));
        }
        return Ok(None);
    }
    let elem = match tag {
        TAG_I8 => 1usize,
        TAG_I16 => 2,
        _ if TAG_RESERVED.contains(&tag) => {
            return Err(rd.malformed(format!(
                "layer '{layer}' panel entry {index} carries reserved tag {tag}"
            )))
        }
        other => return Err(rd.malformed(format!("unknown panel tag {other}"))),
    };
    let expected_len = n
        .div_ceil(NR)
        .checked_mul(k)
        .and_then(|v| v.checked_mul(NR * elem))
        .ok_or_else(|| rd.malformed("panel extent overflows"))?;
    if len != expected_len {
        return Err(rd.malformed(format!(
            "panel data length {len} disagrees with shape {n}x{k} (expected {expected_len})"
        )));
    }
    if !off.is_multiple_of(SECTION_ALIGN) {
        return Err(rd.malformed(format!("panel data offset {off} is not 64-byte aligned")));
    }
    if off.checked_add(len).is_none_or(|e| e > payload.len()) {
        return Err(ArtifactError::Truncated {
            context: "PANL section".to_string(),
            needed: len as u64,
            got: payload.len().saturating_sub(off) as u64,
        });
    }
    let raw = &payload[off..off + len];
    let image = if tag == TAG_I8 {
        let store = rd.store(raw, |r| r.iter().map(|&b| b as i8).collect());
        PanelGemm::from_store(store, n, k, a_max, b_max).map(WeightImage::I8)
    } else {
        let store = rd.store(raw, |r| {
            r.chunks_exact(2)
                .map(|c| i16::from_le_bytes(c.try_into().expect("2")))
                .collect()
        });
        PanelGemm::from_store(store, n, k, a_max, b_max).map(WeightImage::I16)
    };
    image
        .ok_or_else(|| rd.malformed("panel store rejected"))
        .map(Some)
}

// ---------------------------------------------------------------------------
// MappedArtifact: the zero-copy serving handle
// ---------------------------------------------------------------------------

/// A memory-mapped `.antm` artifact — the zero-copy serving path.
///
/// [`MappedArtifact::open`] maps the file once ([`Mmap`]) and parses it
/// in place. The wire codes and the pre-packed `PANL` execution images
/// are **borrowed** from the mapping (the shared `Arc<Mmap>` is the
/// type-erased owner), so:
///
/// * opening performs no LUT decode, no panel re-packing, no CRC sweep
///   and — on little-endian unix targets — zero weight-byte copies
///   ([`Self::load_copies`] is 0);
/// * every plan compiled from the handle executes against the same
///   read-only pages, and the kernel shares those pages *across
///   processes* serving the same file, keeping per-worker RSS for the
///   weight image flat;
/// * the mapping lives exactly as long as the last borrower: plans keep
///   it alive through their stores, so dropping the `MappedArtifact`
///   handle while plans exist is safe.
#[derive(Debug)]
pub struct MappedArtifact {
    map: Arc<Mmap>,
    artifact: ModelArtifact,
    images: Option<Vec<Vec<PanelEntry>>>,
    info: ArtifactInfo,
    load_copies: u64,
}

impl MappedArtifact {
    /// Maps and parses the artifact at `path`.
    ///
    /// # Errors
    ///
    /// I/O / `mmap` failures, plus every structured parse failure
    /// [`ModelArtifact::load`] can report.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, ArtifactError> {
        let start = crate::obs::now();
        // Chaos site: a simulated unreadable artifact at the mmap layer
        // (exercises reload/rebuild failure handling in serving code).
        if crate::chaos::maybe_fail(crate::chaos::FaultSite::MmapLoad) {
            return Err(ArtifactError::Io(std::io::Error::other(
                "chaos: injected mmap-load failure",
            )));
        }
        let map = Arc::new(Mmap::open(path.as_ref())?);
        let owner: ArcOwner = map.clone();
        let (artifact, info, mut load_copies) = parse_artifact(map.as_slice(), Some(&owner))?;
        // Loading tolerates a missing PANL (verify does not): plans then
        // decode their images at compile.
        let images = match find_section(&info, SECTION_PANEL) {
            Some(pi) => {
                let payload = section_payload(map.as_slice(), &info, pi);
                let (images, copies) =
                    parse_panel_section(payload, &artifact.layers, Some(&owner))?;
                load_copies += copies;
                Some(images)
            }
            None => None,
        };
        let mapped = MappedArtifact {
            map,
            artifact,
            images,
            info,
            load_copies,
        };
        crate::obs::metrics().artifact_load(
            start,
            crate::obs::now().saturating_sub(start),
            load_copies,
            mapped.is_zero_copy(),
        );
        Ok(mapped)
    }

    /// Weight-byte buffers (wire-code streams or panel images) this open
    /// had to copy into owned storage because they could not be borrowed
    /// from the mapping — `0` on a little-endian unix target.
    pub fn load_copies(&self) -> u64 {
        self.load_copies
    }

    /// The parsed artifact (its records borrow the mapping).
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// Header/section metadata of the mapped stream.
    pub fn info(&self) -> &ArtifactInfo {
        &self.info
    }

    /// Format version of the mapped stream.
    pub fn version(&self) -> u16 {
        self.info.version
    }

    /// The raw mapped bytes (diagnostics: length, or locating the
    /// mapping in `/proc/self/smaps`).
    pub fn mapped_bytes(&self) -> &[u8] {
        self.map.as_slice()
    }

    /// Whether this handle achieved the full zero-copy contract: an
    /// actual kernel mapping, with every wire-code stream and every panel
    /// image borrowed — nothing copied, nothing decoded, nothing
    /// re-packed.
    pub fn is_zero_copy(&self) -> bool {
        self.map.is_mapped()
            && self.artifact.codes_borrowed()
            && self
                .images
                .as_ref()
                .is_some_and(|im| im.iter().flatten().flatten().all(WeightImage::is_borrowed))
    }

    /// Compiles a plan that adopts the mapped panel images verbatim:
    /// weights stay borrowed from the file pages, scratch stays owned
    /// and per-plan.
    ///
    /// # Errors
    ///
    /// As [`ModelArtifact::compile`].
    pub fn compile(&self) -> Result<CompiledPlan, ArtifactError> {
        self.artifact.build_plan_with(self.images.as_deref())
    }

    /// Forwards to [`Self::compile`]; kept for the benchmark contract.
    #[doc(hidden)]
    pub fn compile_strict(&self) -> Result<CompiledPlan, ArtifactError> {
        self.compile()
    }
}

/// Parses only the header and section table of an `.antm` stream — the
/// cheap metadata dump `antc inspect` prints before decoding payloads.
///
/// # Errors
///
/// Structured errors for bad magic, version skew and truncation; payload
/// checksums are *not* verified here (use
/// [`ModelArtifact::verify_bytes`]).
pub fn probe<R: Read>(mut r: R) -> Result<ArtifactInfo, ArtifactError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    parse_header(&bytes)
}

fn summarize(record: &LayerRecord) -> LayerSummary {
    let weights = record.weights.iter().map(|w| WeightSummary {
        dtype: w.codes.dtype(),
        granularity: w.granularity,
        dims: w.codes.dims().to_vec(),
        elements: w.codes.len(),
        bytes: w.codes.size_bytes(),
        scales: w.codes.scales().len(),
    });
    LayerSummary {
        name: record.name.clone(),
        kind: record.kind.row().1,
        weights: weights.collect(),
        activation: record.act.as_ref().map(|a| (a.dtype, a.scale)),
    }
}

// ---------------------------------------------------------------------------
// Binary encoding helpers
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_f32(out, v);
    }
}

fn put_shape3(out: &mut Vec<u8>, (a, b, c): (usize, usize, usize)) {
    put_u32(out, a as u32);
    put_u32(out, b as u32);
    put_u32(out, c as u32);
}

fn granularity_tag(g: Granularity) -> u8 {
    match g {
        Granularity::PerTensor => 0,
        Granularity::PerChannel => 1,
    }
}

fn put_dtype(out: &mut Vec<u8>, dt: DataType) {
    let tag = match dt.primitive() {
        PrimitiveType::Int => 0u8,
        PrimitiveType::Pot => 1,
        PrimitiveType::Float => 2,
        PrimitiveType::Flint => 3,
    };
    out.push(tag);
    out.push(dt.bits() as u8);
    out.push(u8::from(dt.is_signed()));
    if let Some(fmt) = dt.float_format() {
        out.push(fmt.exp_bits() as u8);
        out.push(fmt.man_bits() as u8);
        put_i32(out, fmt.bias());
    }
}

/// Serializes one weight record, zero-padding to the next
/// [`SECTION_ALIGN`] boundary *before* the code bytes so a mapped reader
/// can borrow them in place.
fn put_weight(out: &mut Vec<u8>, w: &WeightRecord) {
    put_dtype(out, w.codes.dtype());
    out.push(granularity_tag(w.granularity));
    put_f32s(out, w.codes.scales());
    let dims = w.codes.dims();
    put_u32(out, dims.len() as u32);
    for &d in dims {
        put_u32(out, d as u32);
    }
    put_u64(out, w.codes.len() as u64);
    put_u64(out, w.codes.bytes().len() as u64);
    out.resize(out.len().next_multiple_of(SECTION_ALIGN), 0);
    out.extend_from_slice(w.codes.bytes());
}

fn put_act(out: &mut Vec<u8>, act: &ActRecord) {
    put_dtype(out, act.dtype);
    put_f32(out, act.scale);
}

// ---------------------------------------------------------------------------
// Binary decoding helpers
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a byte slice. Every `take`
/// failure reports what was being read and the exact shortfall.
///
/// `owner`, when present, is the shared keep-alive for borrowing weight
/// byte ranges in place instead of copying them; `copies` tallies the
/// ranges that had to be copied anyway.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
    owner: Option<ArcOwner>,
    copies: u64,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8], context: &'static str, owner: Option<&ArcOwner>) -> Self {
        Rd {
            buf,
            pos: 0,
            context,
            owner: owner.cloned(),
            copies: 0,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if n > self.remaining() {
            return Err(ArtifactError::Truncated {
                context: self.context.to_string(),
                needed: n as u64,
                got: self.remaining() as u64,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consumes zero padding up to the next [`SECTION_ALIGN`] payload
    /// offset (weight framing). Nonzero pad bytes are a hard error —
    /// padding is dead space, and tolerating data there would create a
    /// covert channel the CRC can't pin down.
    fn skip_padding(&mut self) -> Result<(), ArtifactError> {
        let pad = self.pos.next_multiple_of(SECTION_ALIGN) - self.pos;
        let bytes = self.take(pad)?;
        if bytes.iter().any(|&b| b != 0) {
            return Err(self.malformed("nonzero alignment padding"));
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ArtifactError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i32(&mut self) -> Result<i32, ArtifactError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn i64(&mut self) -> Result<i64, ArtifactError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f32(&mut self) -> Result<f32, ArtifactError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn usize32(&mut self) -> Result<usize, ArtifactError> {
        Ok(self.u32()? as usize)
    }

    fn string(&mut self) -> Result<String, ArtifactError> {
        let len = self.usize32()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| ArtifactError::Malformed {
            context: self.context.to_string(),
            detail: format!("invalid UTF-8 string: {e}"),
        })
    }

    fn f32s(&mut self) -> Result<Vec<f32>, ArtifactError> {
        let n = self.usize32()?;
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4"))))
            .collect())
    }

    fn shape3(&mut self) -> Result<(usize, usize, usize), ArtifactError> {
        Ok((self.usize32()?, self.usize32()?, self.usize32()?))
    }

    fn malformed(&self, detail: impl Into<String>) -> ArtifactError {
        ArtifactError::Malformed {
            context: self.context.to_string(),
            detail: detail.into(),
        }
    }

    fn dtype(&mut self) -> Result<DataType, ArtifactError> {
        let tag = self.u8()?;
        let bits = self.u8()? as u32;
        let signed = self.u8()? != 0;
        match tag {
            0 => Ok(DataType::int(bits, signed)?),
            1 => Ok(DataType::pot(bits, signed)?),
            3 => Ok(DataType::flint(bits, signed)?),
            2 => {
                let exp = self.u8()? as u32;
                let man = self.u8()? as u32;
                let bias = self.i32()?;
                let fmt = FloatFormat::with_bias(exp, man, signed, bias)?;
                if fmt.total_bits() != bits {
                    return Err(self.malformed(format!(
                        "float format width {} disagrees with declared bits {bits}",
                        fmt.total_bits()
                    )));
                }
                Ok(DataType::float_with_format(fmt))
            }
            other => Err(self.malformed(format!("unknown primitive tag {other}"))),
        }
    }

    fn granularity(&mut self) -> Result<Granularity, ArtifactError> {
        match self.u8()? {
            0 => Ok(Granularity::PerTensor),
            1 => Ok(Granularity::PerChannel),
            other => Err(self.malformed(format!("unknown granularity tag {other}"))),
        }
    }

    /// Materializes `raw` as a `PackedStore<T>`: borrowed straight from
    /// the mapping when an owner is present and the range satisfies the
    /// alignment/width contract (and, for multi-byte `T`, the host is
    /// little-endian so the file bytes *are* host values); otherwise an
    /// owned copy via `fallback`, counted in `copies`.
    fn store<T: StorePod>(
        &mut self,
        raw: &[u8],
        fallback: impl FnOnce(&[u8]) -> Vec<T>,
    ) -> PackedStore<T> {
        if std::mem::size_of::<T>() == 1 || cfg!(target_endian = "little") {
            if let Some(owner) = &self.owner {
                // SAFETY: `owner` keeps the mapped bytes alive and
                // immutable for as long as any clone of the store exists,
                // and the endianness gate above makes the byte content
                // valid `T`s.
                if let Some(store) = unsafe { PackedStore::<T>::borrowed(raw, owner.clone()) } {
                    return store;
                }
            }
        }
        self.copies += 1;
        PackedStore::from_vec(fallback(raw))
    }

    fn weight(&mut self) -> Result<WeightRecord, ArtifactError> {
        let dtype = self.dtype()?;
        let granularity = self.granularity()?;
        let scales = self.f32s()?;
        let dim_count = self.usize32()?;
        let mut dims = Vec::with_capacity(dim_count.min(16));
        for _ in 0..dim_count {
            dims.push(self.usize32()?);
        }
        let elements = self.u64()? as usize;
        let byte_count = self.u64()? as usize;
        self.skip_padding()?;
        let raw = self.take(byte_count)?;
        let bytes: TensorBytes = self.store(raw, |r| r.to_vec());
        let codes = PackedTensor::from_store(dtype, elements, scales, &dims, bytes)?;
        Ok(WeightRecord { granularity, codes })
    }

    fn act(&mut self) -> Result<ActRecord, ArtifactError> {
        let dtype = self.dtype()?;
        let scale = self.f32()?;
        if !scale.is_finite() || scale <= 0.0 {
            return Err(self.malformed(format!("non-positive activation scale {scale}")));
        }
        Ok(ActRecord { dtype, scale })
    }
}

fn parse_header(bytes: &[u8]) -> Result<ArtifactInfo, ArtifactError> {
    let mut rd = Rd::new(bytes, "header", None);
    let magic = rd.take(4)?;
    if magic != MAGIC {
        return Err(ArtifactError::BadMagic {
            found: magic.try_into().expect("4"),
        });
    }
    let version = rd.u16()?;
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let _reserved = rd.u16()?;
    let count = rd.usize32()?;
    let mut rd = Rd {
        context: "section table",
        ..rd
    };
    let mut sections = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let id_bytes = rd.take(4)?;
        let id = String::from_utf8_lossy(id_bytes).into_owned();
        let offset = rd.u64()?;
        let len = rd.u64()?;
        let crc = rd.u32()?;
        let end = offset
            .checked_add(len)
            .ok_or_else(|| ArtifactError::Malformed {
                context: "section table".to_string(),
                detail: format!("section {id} extent overflows"),
            })?;
        if end > bytes.len() as u64 {
            return Err(ArtifactError::Truncated {
                context: format!("section {id} payload"),
                needed: end - bytes.len() as u64,
                got: 0,
            });
        }
        sections.push(SectionInfo {
            id,
            offset,
            len,
            crc32: crc,
        });
    }
    Ok(ArtifactInfo { version, sections })
}

/// The payload slice of section `index` (extents were validated by
/// [`parse_header`]).
fn section_payload<'a>(bytes: &'a [u8], info: &ArtifactInfo, index: usize) -> &'a [u8] {
    let section = &info.sections[index];
    &bytes[section.offset as usize..(section.offset + section.len) as usize]
}

fn parse_model_section(
    payload: &[u8],
    owner: Option<&ArcOwner>,
) -> Result<(Vec<LayerRecord>, u64), ArtifactError> {
    let mut rd = Rd::new(payload, "MODL section", owner);
    let count = rd.usize32()?;
    let mut layers = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let tag = rd.u8()?;
        let name = rd.string()?;
        let kind = match tag {
            0 => RecordKind::Dense,
            1 => RecordKind::Relu,
            2 => {
                let in_shape = rd.shape3()?;
                let (kh, kw) = (rd.usize32()?, rd.usize32()?);
                let (stride, padding) = (rd.usize32()?, rd.usize32()?);
                let geo = Conv2dGeometry::new(kh, kw, stride, padding)
                    .map_err(|e| rd.malformed(e.to_string()))?;
                RecordKind::Conv { in_shape, geo }
            }
            3 => RecordKind::Pool {
                in_shape: rd.shape3()?,
            },
            4 => RecordKind::Norm {
                gamma: rd.f32s()?,
                beta: rd.f32s()?,
                eps: rd.f32()?,
            },
            5 | 7 => RecordKind::Attn {
                seq: rd.usize32()?,
                dim: rd.usize32()?,
                causal: tag == 7,
            },
            6 => RecordKind::Gelu,
            other => return Err(rd.malformed(format!("unknown layer kind {other}"))),
        };
        let (_, _, weight_count, has_bias) = kind.row();
        let weights = (0..weight_count).map(|_| rd.weight());
        let weights = weights.collect::<Result<Vec<_>, _>>()?;
        let bias = if has_bias { rd.f32s()? } else { Vec::new() };
        let act = if weights.is_empty() {
            None
        } else {
            Some(rd.act()?)
        };
        layers.push(LayerRecord {
            name,
            kind,
            weights,
            bias,
            act,
        });
    }
    if rd.remaining() != 0 {
        return Err(rd.malformed(format!("{} trailing bytes", rd.remaining())));
    }
    Ok((layers, rd.copies))
}

fn parse_cache_section(payload: &[u8]) -> Result<Vec<(u64, Vec<TypeDecision>)>, ArtifactError> {
    let mut rd = Rd::new(payload, "CACH section", None);
    let count = rd.usize32()?;
    let mut entries = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let key = rd.u64()?;
        let decision_count = rd.usize32()?;
        let mut decisions = Vec::with_capacity(decision_count.min(1024));
        for _ in 0..decision_count {
            let layer_index = rd.usize32()?;
            let weight_count = rd.usize32()?;
            let mut weights = Vec::with_capacity(weight_count.min(16));
            for _ in 0..weight_count {
                let dt = rd.dtype()?;
                let g = rd.granularity()?;
                let scales = rd.f32s()?;
                weights.push((dt, g, scales));
            }
            let adt = rd.dtype()?;
            let ascale = rd.f32()?;
            decisions.push(TypeDecision {
                layer_index,
                weights,
                activation: (adt, ascale),
            });
        }
        entries.push((key, decisions));
    }
    if rd.remaining() != 0 {
        return Err(rd.malformed(format!("{} trailing bytes", rd.remaining())));
    }
    Ok(entries)
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-section
/// integrity check. Bitwise, table-free: artifact payloads are small
/// enough that simplicity beats a 1 KiB table.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_nn::model::mlp;
    use ant_nn::qat::{quantize_model, QuantSpec};
    use ant_tensor::dist::{sample_tensor, Distribution};

    fn quantized_mlp() -> Sequential {
        let mut model = mlp(8, 4, 11);
        let calib = sample_tensor(
            Distribution::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            &[64, 8],
            3,
        );
        quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
        model
    }

    fn saved_bytes() -> Vec<u8> {
        let artifact = ModelArtifact::from_model(&quantized_mlp()).unwrap();
        let mut bytes = Vec::new();
        artifact.save(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn save_load_roundtrips_records_exactly() {
        let artifact = ModelArtifact::from_model(&quantized_mlp()).unwrap();
        let mut bytes = Vec::new();
        artifact.save(&mut bytes).unwrap();
        let reloaded = ModelArtifact::load(&bytes[..]).unwrap();
        assert_eq!(artifact, reloaded);
    }

    #[test]
    fn other_version_fields_are_unsupported_by_every_reader() {
        for found in [2u16, 1, 0] {
            let mut bytes = saved_bytes();
            bytes[4..6].copy_from_slice(&found.to_le_bytes());
            let refused = |r: Result<(), ArtifactError>| match r {
                Err(ArtifactError::UnsupportedVersion {
                    found: f,
                    supported,
                }) => {
                    assert_eq!((f, supported), (found, FORMAT_VERSION));
                }
                other => panic!("version {found}: expected UnsupportedVersion, got {other:?}"),
            };
            refused(ModelArtifact::load(&bytes[..]).map(drop));
            refused(ModelArtifact::verify_bytes(&bytes).map(drop));
            refused(probe(&bytes[..]).map(drop));
        }
    }

    #[test]
    fn probe_reports_header_and_aligned_sections() {
        let bytes = saved_bytes();
        let info = probe(&bytes[..]).unwrap();
        assert_eq!(info.version, FORMAT_VERSION);
        let ids: Vec<&str> = info.sections.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids, ["MODL", "PANL", "CACH"]);
        for s in &info.sections {
            assert_eq!(s.offset % SECTION_ALIGN as u64, 0, "section {}", s.id);
        }
        assert!(info.sections[0].len > 0);
        assert!(info.sections[1].len > 0);
    }

    #[test]
    fn verify_accepts_a_clean_stream() {
        let bytes = saved_bytes();
        let info = ModelArtifact::verify_bytes(&bytes).unwrap();
        assert_eq!(info.version, FORMAT_VERSION);
    }

    #[test]
    fn verify_catches_panel_corruption_that_load_tolerates() {
        let mut bytes = saved_bytes();
        let info = probe(&bytes[..]).unwrap();
        let panl = &info.sections[1];
        assert_eq!(panl.id, "PANL");
        // Flip a byte in the PANL *data* area (last byte of the section:
        // panel data is laid out after the descriptors).
        let target = (panl.offset + panl.len - 1) as usize;
        bytes[target] ^= 0x40;
        // Load is lazy: it ignores PANL and still parses.
        ModelArtifact::load(&bytes[..]).unwrap();
        // verify recomputes images from the wire codes and catches it.
        let err = ModelArtifact::verify_bytes(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                ArtifactError::ChecksumMismatch { .. } | ArtifactError::Malformed { .. }
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn unquantized_model_is_rejected() {
        let model = mlp(8, 4, 11);
        assert!(matches!(
            ModelArtifact::from_model(&model),
            Err(ArtifactError::Runtime(RuntimeError::NotQuantized { .. }))
        ));
    }

    #[test]
    fn summaries_cover_every_layer() {
        let artifact = ModelArtifact::from_model(&quantized_mlp()).unwrap();
        let summaries = artifact.layer_summaries();
        assert_eq!(summaries.len(), 5);
        assert_eq!(summaries[0].kind, "dense");
        assert_eq!(summaries[1].kind, "relu");
        assert_eq!(summaries[0].weights.len(), 1);
        assert!(artifact.packed_weight_bytes() > 0);
    }

    #[test]
    fn defective_records_save_load_and_verify_but_do_not_compile() {
        let record = |name: &str, kind| LayerRecord {
            name: name.to_string(),
            kind,
            weights: Vec::new(),
            bias: Vec::new(),
            act: None,
        };
        let norm = |gamma: usize, beta: usize| RecordKind::Norm {
            gamma: vec![1.0; gamma],
            beta: vec![0.0; beta],
            eps: 1e-5,
        };
        let pool = |in_shape| RecordKind::Pool { in_shape };
        // Each stream is CRC-valid and parses: the writer and the reader
        // agree, the record disagrees with itself. Serving such a plan
        // would index out of bounds, divide by zero, or silently drop the
        // last pooled row and column.
        for (kind, why) in [
            (norm(4, 2), "norm gamma/beta lengths disagree"),
            (norm(0, 0), "norm gamma/beta lengths disagree"),
            (pool((1, 3, 3)), "pool extents must be even"),
        ] {
            let artifact = ModelArtifact {
                layers: vec![record("defect", kind)],
                cache: Vec::new(),
            };
            let mut bytes = Vec::new();
            artifact.save(&mut bytes).unwrap();
            ModelArtifact::verify_bytes(&bytes).unwrap();
            let reloaded = ModelArtifact::load(&bytes[..]).unwrap();
            assert_eq!(reloaded, artifact);
            match reloaded.compile() {
                Err(ArtifactError::Runtime(RuntimeError::UnsupportedLayer { layer, reason })) => {
                    assert_eq!((layer.as_str(), reason.as_str()), ("defect", why));
                }
                other => panic!("{why}: expected a structured refusal, got {other:?}"),
            }
        }
        // Their well-formed twins still lower and run.
        let artifact = ModelArtifact {
            layers: vec![record("ln", norm(4, 4)), record("pool", pool((1, 2, 2)))],
            cache: Vec::new(),
        };
        let mut plan = artifact.compile().unwrap();
        let out = plan.forward(&Tensor::zeros(&[3, 4])).unwrap();
        assert_eq!(out.dims(), [3, 1]);
    }

    #[test]
    fn empty_input_is_a_structured_error() {
        assert!(matches!(
            ModelArtifact::load(&[][..]),
            Err(ArtifactError::Truncated { .. })
        ));
    }

    /// A one-dense-layer artifact (`[3, 5]` weights reaching both lattice
    /// extremes) under the given weight and activation types, serialized.
    fn dense_bytes(w_dt: DataType, a_dt: DataType) -> Vec<u8> {
        let codec = ant_core::Codec::new(w_dt).unwrap();
        let max = codec.max_value();
        let reals = (0..15).map(|i| [max, -max, 1.0, 0.0, -2.0][i % 5]);
        let codes: Vec<u32> = reals.map(|v| codec.encode(v)).collect();
        let record = LayerRecord {
            name: "fc".to_string(),
            kind: RecordKind::Dense,
            weights: vec![WeightRecord {
                granularity: Granularity::PerTensor,
                codes: PackedTensor::pack_with_dims(w_dt, &codes, vec![0.01], &[3, 5]).unwrap(),
            }],
            bias: vec![0.0; 3],
            act: Some(ActRecord {
                dtype: a_dt,
                scale: 0.5,
            }),
        };
        let artifact = ModelArtifact {
            layers: vec![record],
            cache: Vec::new(),
        };
        let mut bytes = Vec::new();
        artifact.save(&mut bytes).unwrap();
        bytes
    }

    #[cfg(not(miri))]
    #[test]
    fn mapped_compile_checks_an_adopted_image_against_the_types() {
        let int = |bits, signed| DataType::int(bits, signed).unwrap();
        // The open is lazy (no CRC sweep), so a patched stream reaches
        // `compile`, which must not adopt an image narrower than the
        // activation lattice its MODL record declares: the quantized
        // activations would wrap in release.
        let compile = |bytes: &[u8], what: &str| {
            let path = std::env::temp_dir().join(format!(
                "ant-artifact-test-{}-adopt-{what}.antm",
                std::process::id()
            ));
            std::fs::write(&path, bytes).unwrap();
            let mapped = MappedArtifact::open(&path);
            std::fs::remove_file(&path).ok();
            mapped.expect("patched stream still parses").compile()
        };
        // (weights, activations, image tag, its a_max): one case per width.
        for (w_dt, a_dt, tag, a_max) in [
            (int(4, true), int(8, true), TAG_I8, 127i64),
            (int(16, true), int(16, true), TAG_I16, 32767),
        ] {
            let what = format!("{a_dt}");
            let bytes = dense_bytes(w_dt, a_dt);
            let info = probe(&bytes[..]).unwrap();
            let (modl, panl) = (&info.sections[0], &info.sections[1]);
            assert_eq!((modl.id.as_str(), panl.id.as_str()), ("MODL", "PANL"));
            // The record's trailing activation is dtype (tag, bits,
            // signed) + f32 scale; the first PANL entry follows the u32
            // layer count and u8 entry count: tag, n, k, a_max.
            let signed_at = (modl.offset + modl.len) as usize - 5;
            let tag_at = panl.offset as usize + 5;
            let a_max_at = tag_at + 9..tag_at + 17;
            assert_eq!((bytes[signed_at], bytes[tag_at]), (1, tag), "{what}");
            assert_eq!(bytes[a_max_at.clone()], a_max.to_le_bytes(), "{what}");
            compile(&bytes, &what).expect("the unpatched stream compiles");

            // The image's recorded bound disagrees with the record's type.
            let mut lying = bytes.clone();
            lying[a_max_at.clone()].copy_from_slice(&(a_max - 1).to_le_bytes());
            match compile(&lying, &what) {
                Err(ArtifactError::Runtime(RuntimeError::Quant(_))) => {}
                other => panic!("{what}: lying a_max must be refused, got {other:?}"),
            }

            // The record now declares the unsigned lattice (twice the
            // reach) and the entry claims its width holds it.
            let unsigned_max = 2 * a_max + 1;
            let mut widened = bytes.clone();
            widened[signed_at] = 0;
            widened[a_max_at].copy_from_slice(&unsigned_max.to_le_bytes());
            match compile(&widened, &what) {
                // 255 fits `i16`, just not the adopted byte panels.
                Err(ArtifactError::Runtime(RuntimeError::Quant(_))) if tag == TAG_I8 => {}
                // 65535 fits no operand width: the type-level refusal.
                Err(ArtifactError::Runtime(RuntimeError::UnsupportedLayer { layer, reason }))
                    if tag == TAG_I16 =>
                {
                    assert_eq!(layer, "fc");
                    assert!(reason.contains("int16u"), "{reason}");
                }
                other => panic!("{what}: a too-narrow image must be refused, got {other:?}"),
            }
        }
    }

    #[cfg(not(miri))]
    #[test]
    fn mapped_open_is_zero_copy_and_bit_identical() {
        let bytes = saved_bytes();
        let path = std::env::temp_dir().join(format!(
            "ant-artifact-test-{}-mapped.antm",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = MappedArtifact::open(&path).unwrap();
        assert_eq!(mapped.version(), FORMAT_VERSION);
        if cfg!(all(unix, target_endian = "little")) {
            assert!(mapped.is_zero_copy());
        }
        let mut owned_plan = ModelArtifact::load(&bytes[..]).unwrap().compile().unwrap();
        let mut mapped_plan = mapped.compile().unwrap();
        assert_eq!(owned_plan.borrowed_layer_count(), 0);
        assert!(mapped_plan.borrowed_layer_count() >= 1);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let input = Tensor::from_vec(
            vec![0.25f32, -0.5, 0.75, 0.1, -0.9, 0.33, 0.0, 1.0],
            &[1, 8],
        )
        .unwrap();
        let a = owned_plan.forward(&input).unwrap();
        let b = mapped_plan.forward(&input).unwrap();
        assert_eq!(bits(&a), bits(&b));
        // The plan borrows the mapping: dropping the handle must be safe
        // while the plan is still serving.
        drop(mapped);
        let c = mapped_plan.forward(&input).unwrap();
        assert_eq!(bits(&a), bits(&c));
        std::fs::remove_file(&path).ok();
    }
}
