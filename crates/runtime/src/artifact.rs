//! The `.antm` model artifact: quantize once, serve anywhere — and,
//! since format v2, *map* once and serve zero-copy.
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
//! The on-disk format (normatively specified in `docs/format.md`) is a
//! versioned, self-describing binary: a fixed header (magic, format
//! version), a section table, and CRC-32-checked section payloads, all
//! hand-rolled over [`std::io`]. Format **v2** adds a third section and
//! an alignment discipline built for memory-mapped serving:
//!
//! * every section payload starts on a [`SECTION_ALIGN`]-byte file
//!   offset (64, equal to [`ant_core::store::STORE_ALIGN`]), and v2
//!   `MODL` weight code streams are zero-padded to 64-byte
//!   payload-relative offsets, so a page-aligned mapping can lend them
//!   out directly as aligned [`TensorBytes`] borrows;
//! * a `PANL` section stores every packed layer's LUT-decoded `i8`/`i16`
//!   execution image **already in the microkernel's `NR`-interleaved
//!   panel layout** (plus attention's transposed f32 output-projection
//!   operand and each weight's integer decode LUT), each data chunk
//!   64-byte aligned, so a mapped load performs no LUT decode and no
//!   panel re-packing;
//! * v2 section CRCs are **lazy**: loading validates structure only, and
//!   [`ModelArtifact::verify_bytes`] (the `antc verify` engine) performs
//!   the full checksum audit plus a recompute-and-compare of every panel
//!   image against the wire codes. v1 streams keep their original eager
//!   per-load CRC.
//!
//! Loading a truncated, corrupted or newer-versioned file yields a
//! structured [`ArtifactError`], never a panic.
//!
//! Reloading offers three paths:
//!
//! * [`MappedArtifact::open`] — the zero-copy serving path: `mmap(2)` the
//!   file ([`crate::mmap::Mmap`]), borrow wire codes and panel images
//!   straight out of the mapping, and compile plans whose weight storage
//!   is read-only and page-shared across every process serving the same
//!   file. [`load_copies`] counts owned weight-byte materializations: a
//!   v2 mapped load contributes zero.
//! * [`ModelArtifact::compile`] / [`ModelArtifact::compile_strict`] —
//!   rebuild a [`CompiledPlan`] **directly from the saved wire codes**. No
//!   float is ever re-encoded, so the reloaded plan's packed codes are
//!   bit-identical to the plan that was saved.
//! * [`ModelArtifact::to_model`] — reconstruct a fake-quantized
//!   [`Sequential`] (weights dequantized from the codes, quantizers
//!   reattached from the saved scales) for inspection or further tuning.
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
//! // Online: load anywhere, strict-compile straight from wire codes.
//! let reloaded = ModelArtifact::load(&bytes[..])?;
//! let mut plan = reloaded.compile_strict()?;
//! assert_eq!(plan.coverage(), 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cache::{Planner, SelectionCache, TypeDecision};
use crate::error::RuntimeError;
use crate::gemm::{KernelOperand, PanelGemm, NR};
use crate::mmap::Mmap;
use crate::plan::{
    act_bound, decode_image, decode_rows_f32, pack_weight_tensor, transpose, CompiledPlan,
    PackedAttn, PackedConv, PackedLinear, PlanLayer, PlanNorm, WeightImage,
};
use ant_core::minifloat::FloatFormat;
use ant_core::pack::PackedTensor;
use ant_core::store::{PackedStore, StorePod, TensorBytes, STORE_ALIGN};
use ant_core::{DataType, Granularity, PrimitiveType, QuantError, Quantizer, TensorQuantizer};
use ant_nn::attention::{Attention, LayerNorm};
use ant_nn::gelu::Gelu;
use ant_nn::layer::{Conv2d, Dense, MaxPool2, Relu};
use ant_nn::model::{NetLayer, Sequential};
use ant_nn::NnError;
use ant_tensor::linalg::Conv2dGeometry;
use ant_tensor::Tensor;
use std::any::Any;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The four magic bytes every `.antm` stream starts with.
pub const MAGIC: [u8; 4] = *b"ANTM";

/// The format version this build writes and the newest it can read.
/// Version 1 streams (contiguous sections, no panel images) remain fully
/// readable; [`ModelArtifact::save_v1`] still writes them.
pub const FORMAT_VERSION: u16 = 2;

const SECTION_MODEL: [u8; 4] = *b"MODL";
const SECTION_PANEL: [u8; 4] = *b"PANL";
const SECTION_CACHE: [u8; 4] = *b"CACH";

/// Header size: magic + version + reserved + section count.
const HEADER_LEN: usize = 4 + 2 + 2 + 4;
/// Section-table entry size: id + offset + len + crc32.
const ENTRY_LEN: usize = 4 + 8 + 8 + 4;

/// File-offset alignment of every v2 section payload, of every v2 `MODL`
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

static LOAD_COPIES: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of weight-byte buffers copied into owned storage
/// while parsing artifacts (wire-code streams or panel images that could
/// not be borrowed from a mapping). Monotonic: measure one operation by
/// taking a delta around it. A v2 [`MappedArtifact::open`] on a
/// little-endian unix target contributes **zero**; v1 loads and
/// non-mapped parses count one per weight buffer they materialize.
pub fn load_copies() -> u64 {
    LOAD_COPIES.load(Ordering::Relaxed)
}

pub(crate) fn note_load_copy() {
    LOAD_COPIES.fetch_add(1, Ordering::Relaxed);
}

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
    /// The stream's format version is newer than this build understands.
    UnsupportedVersion {
        /// Version stored in the stream.
        found: u16,
        /// Newest version this build reads ([`FORMAT_VERSION`]).
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
    /// A model-level operation on the decoded state failed.
    Nn(NnError),
    /// A plan-compilation operation on the decoded state failed (e.g.
    /// strict compilation of a float-typed layer).
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
                "artifact format version {found} is newer than supported version {supported}"
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
            ArtifactError::Nn(e) => write!(f, "artifact model error: {e}"),
            ArtifactError::Runtime(e) => write!(f, "artifact plan error: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Quant(e) => Some(e),
            ArtifactError::Nn(e) => Some(e),
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

impl From<NnError> for ArtifactError {
    fn from(e: NnError) -> Self {
        ArtifactError::Nn(e)
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
/// granularity needed to rebuild its [`TensorQuantizer`].
#[derive(Debug, Clone, PartialEq)]
struct WeightRecord {
    granularity: Granularity,
    codes: PackedTensor,
}

impl WeightRecord {
    fn quantizer(&self) -> Result<TensorQuantizer, ArtifactError> {
        Ok(TensorQuantizer::from_scales(
            self.codes.dtype(),
            self.granularity,
            self.codes.scales().to_vec(),
        )?)
    }

    /// Dequantizes the wire codes back into an f32 tensor shaped by the
    /// pack's logical dims.
    fn decode(&self, context: &str) -> Result<Tensor, ArtifactError> {
        let values = self.codes.decode_all()?;
        Tensor::from_vec(values, self.codes.dims()).map_err(|e| ArtifactError::Malformed {
            context: context.to_string(),
            detail: e.to_string(),
        })
    }
}

/// A serialized activation quantizer: data type plus per-tensor scale.
#[derive(Debug, Clone, PartialEq)]
struct ActRecord {
    dtype: DataType,
    scale: f32,
}

impl ActRecord {
    fn quantizer(&self) -> Result<Quantizer, ArtifactError> {
        if !self.scale.is_finite() || self.scale <= 0.0 {
            return Err(ArtifactError::Malformed {
                context: "activation quantizer".to_string(),
                detail: format!("non-positive scale {}", self.scale),
            });
        }
        Ok(Quantizer::with_scale(self.dtype, self.scale)?)
    }
}

/// One serialized network layer.
#[derive(Debug, Clone, PartialEq)]
enum LayerRecord {
    Dense {
        name: String,
        weight: WeightRecord,
        bias: Vec<f32>,
        act: ActRecord,
    },
    Relu {
        name: String,
    },
    Conv {
        name: String,
        in_shape: (usize, usize, usize),
        geo: Conv2dGeometry,
        weight: WeightRecord,
        bias: Vec<f32>,
        act: ActRecord,
    },
    Pool {
        name: String,
        in_shape: (usize, usize, usize),
    },
    Norm {
        name: String,
        gamma: Vec<f32>,
        beta: Vec<f32>,
        eps: f32,
    },
    Attn {
        name: String,
        seq: usize,
        dim: usize,
        weights: Box<[WeightRecord; 4]>,
        act: ActRecord,
        causal: bool,
    },
    Gelu {
        name: String,
    },
}

impl LayerRecord {
    fn name(&self) -> &str {
        match self {
            LayerRecord::Dense { name, .. }
            | LayerRecord::Relu { name }
            | LayerRecord::Conv { name, .. }
            | LayerRecord::Pool { name, .. }
            | LayerRecord::Norm { name, .. }
            | LayerRecord::Attn { name, .. }
            | LayerRecord::Gelu { name } => name,
        }
    }

    /// Whether every wire-code stream this layer carries is borrowed
    /// from an external owner (weightless layers are vacuously borrowed).
    fn codes_borrowed(&self) -> bool {
        match self {
            LayerRecord::Dense { weight, .. } | LayerRecord::Conv { weight, .. } => {
                weight.codes.is_borrowed()
            }
            LayerRecord::Attn { weights, .. } => weights.iter().all(|w| w.codes.is_borrowed()),
            _ => true,
        }
    }

    /// Number of `PANL` entries this layer kind owns in a v2 stream.
    fn panel_entry_count(&self) -> usize {
        match self {
            LayerRecord::Dense { .. } | LayerRecord::Conv { .. } => 1,
            LayerRecord::Attn { .. } => 5,
            _ => 0,
        }
    }
}

/// Whether a weight/activation pair lowers to the packed integer domain
/// (the `PANL` writer serializes a real image exactly when it does) and
/// its wire codes are shaped consistently enough to build one.
fn panelable(w: &WeightRecord, act: &ActRecord) -> bool {
    let dims = w.codes.dims();
    dims.len() >= 2
        && dims.iter().product::<usize>() == w.codes.len()
        && w.codes.dtype().primitive() != PrimitiveType::Float
        && act.dtype.primitive() != PrimitiveType::Float
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
    /// Payload file offset in bytes (a [`SECTION_ALIGN`] multiple in v2
    /// streams).
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
    /// `gelu`).
    pub kind: &'static str,
    /// Weight tensors (dense/conv carry one, attention four, others none).
    pub weights: Vec<WeightSummary>,
    /// Activation selection, for compute layers.
    pub activation: Option<(DataType, f32)>,
    /// Whether [`ModelArtifact::compile`] lowers this layer to the packed
    /// integer domain (`false` only for float-typed compute layers, which
    /// compile to reference-path fallback).
    pub packed: bool,
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
        let mut layers = Vec::with_capacity(model.layers().len());
        for layer in model.layers() {
            layers.push(record_from_layer(layer)?);
        }
        Ok(ModelArtifact {
            layers,
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
    /// v2 [`MappedArtifact`].
    pub fn codes_borrowed(&self) -> bool {
        self.layers.iter().all(|l| l.codes_borrowed())
    }

    /// Reconstructs a fake-quantized [`Sequential`]: layer weights are the
    /// dequantized wire codes (exactly on the scaled lattice) and the
    /// saved `(dtype, granularity, scales)` selections are reattached as
    /// quantizers.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Malformed`] (or a wrapped quantization error) when
    /// record shapes are inconsistent.
    pub fn to_model(&self) -> Result<Sequential, ArtifactError> {
        let mut model = Sequential::new();
        for record in &self.layers {
            model = model.push(record_to_netlayer(record)?);
        }
        Ok(model)
    }

    /// Compiles an executable plan **directly from the saved wire codes**
    /// (bit-identical to the plan that produced the artifact). Float-typed
    /// compute layers compile to reference-path fallback, exactly as
    /// [`CompiledPlan::from_quantized`] would.
    ///
    /// # Errors
    ///
    /// Propagates reconstruction failures.
    pub fn compile(&self) -> Result<CompiledPlan, ArtifactError> {
        self.build_plan_with(false, None)
    }

    /// Strict [`Self::compile`]: a layer the packed path cannot execute
    /// fails with [`RuntimeError::UnsupportedLayer`] (wrapped in
    /// [`ArtifactError::Runtime`]) instead of falling back.
    ///
    /// # Errors
    ///
    /// As [`Self::compile`], plus the strict-mode refusal.
    pub fn compile_strict(&self) -> Result<CompiledPlan, ArtifactError> {
        self.build_plan_with(true, None)
    }

    /// Plan construction shared by the decode path (`images: None` — each
    /// packed layer LUT-decodes and panel-packs its execution image) and
    /// the mapped v2 path (`images: Some` — pre-parsed `PANL` entries are
    /// adopted verbatim, typically borrowed straight from the mapping).
    fn build_plan_with(
        &self,
        strict: bool,
        images: Option<&[Vec<PanelEntry>]>,
    ) -> Result<CompiledPlan, ArtifactError> {
        let mut layers = Vec::with_capacity(self.layers.len());
        for (i, record) in self.layers.iter().enumerate() {
            let entries: &[PanelEntry] = images.map(|im| im[i].as_slice()).unwrap_or(&[]);
            let image = match entries.first() {
                Some(PanelEntry::Image(img)) => Some(img.clone()),
                _ => None,
            };
            let lowered: Result<PlanLayer, RuntimeError> = match record {
                LayerRecord::Dense {
                    name,
                    weight,
                    bias,
                    act,
                } => act.quantizer().map(|aq| {
                    let codes = weight.codes.clone();
                    PackedLinear::from_parts(name.clone(), codes, bias.clone(), aq, image)
                        .map(|p| PlanLayer::Packed(Box::new(p)))
                })?,
                LayerRecord::Conv {
                    name,
                    in_shape,
                    geo,
                    weight,
                    bias,
                    act,
                } => act.quantizer().map(|aq| {
                    PackedConv::from_parts(
                        name.clone(),
                        weight.codes.clone(),
                        bias.clone(),
                        aq,
                        *in_shape,
                        *geo,
                        image,
                    )
                    .map(|p| PlanLayer::PackedConv(Box::new(p)))
                })?,
                LayerRecord::Attn {
                    name,
                    seq,
                    dim,
                    weights,
                    act,
                    causal,
                } => act.quantizer().map(|aq| {
                    let projections = std::array::from_fn(|i| weights[i].codes.clone());
                    let prebuilt = match entries {
                        [PanelEntry::Image(q), PanelEntry::Image(k), PanelEntry::Image(v), PanelEntry::Image(o), PanelEntry::WoT(wo_t)] => {
                            Some(([q.clone(), k.clone(), v.clone(), o.clone()], wo_t.clone()))
                        }
                        _ => None,
                    };
                    PackedAttn::from_parts(name.clone(), *seq, *dim, projections, aq, prebuilt)
                        .and_then(|p| PlanLayer::attn(p, *causal))
                })?,
                LayerRecord::Relu { .. } => Ok(PlanLayer::Relu),
                LayerRecord::Gelu { .. } => Ok(PlanLayer::Gelu),
                LayerRecord::Pool { in_shape, .. } => Ok(PlanLayer::Pool {
                    in_shape: *in_shape,
                }),
                LayerRecord::Norm {
                    name,
                    gamma,
                    beta,
                    eps,
                } => Ok(PlanLayer::Norm(Box::new(PlanNorm::from_parts(
                    name.clone(),
                    gamma.clone(),
                    beta.clone(),
                    *eps,
                )))),
            };
            layers.push(PlanLayer::or_fallback(lowered, strict, || {
                record_to_netlayer(record)
            })?);
        }
        Ok(CompiledPlan::from_plan_layers(layers))
    }

    // -- serialization ------------------------------------------------------

    /// Serializes the artifact in format **v2** (see `docs/format.md`):
    /// 64-byte-aligned `MODL`, `PANL` and `CACH` sections, aligned wire
    /// codes, and pre-packed panel images so a mapped reader never
    /// decodes or re-packs a weight.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on write failure; panel construction errors
    /// for semantically inconsistent records.
    pub fn save<W: Write>(&self, w: W) -> Result<(), ArtifactError> {
        let model = self.model_payload(true);
        let panel = self.panel_payload()?;
        let cache = self.cache_payload();
        let sections: [([u8; 4], &[u8]); 3] = [
            (SECTION_MODEL, &model),
            (SECTION_PANEL, &panel),
            (SECTION_CACHE, &cache),
        ];
        write_sections(w, FORMAT_VERSION, &sections, true)
    }

    /// Serializes in the legacy **v1** layout (contiguous sections, no
    /// `PANL`, no alignment padding) — byte-identical to what pre-v2
    /// builds wrote. Kept for migration tooling and load-path
    /// benchmarking; new files should use [`Self::save`].
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on write failure.
    pub fn save_v1<W: Write>(&self, w: W) -> Result<(), ArtifactError> {
        let model = self.model_payload(false);
        let cache = self.cache_payload();
        let sections: [([u8; 4], &[u8]); 2] = [(SECTION_MODEL, &model), (SECTION_CACHE, &cache)];
        write_sections(w, 1, &sections, false)
    }

    /// Serializes to a file at `path` (format v2).
    ///
    /// # Errors
    ///
    /// As [`Self::save`].
    pub fn save_path<P: AsRef<Path>>(&self, path: P) -> Result<(), ArtifactError> {
        self.save(std::fs::File::create(path)?)
    }

    /// Serializes to a file at `path` in the legacy v1 layout.
    ///
    /// # Errors
    ///
    /// As [`Self::save_v1`].
    pub fn save_v1_path<P: AsRef<Path>>(&self, path: P) -> Result<(), ArtifactError> {
        self.save_v1(std::fs::File::create(path)?)
    }

    /// Deserializes an artifact from a reader, verifying magic, version
    /// and section framing. v1 streams additionally CRC-check every
    /// section eagerly; v2 streams defer checksums to
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
        let copies_before = load_copies();
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let loaded = Self::from_bytes(&bytes)?;
        crate::obs::metrics().artifact_load(
            start,
            crate::obs::now().saturating_sub(start),
            load_copies().saturating_sub(copies_before),
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

    fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        parse_artifact(bytes, None).map(|(artifact, _)| artifact)
    }

    /// Full integrity audit of an `.antm` stream — the slow, thorough
    /// counterpart to the v2 lazy load:
    ///
    /// 1. every section payload is CRC-32-checked against the table,
    /// 2. the model (and cache) payloads are structurally parsed,
    /// 3. in v2 streams the `PANL` section is parsed and every panel
    ///    image is **recomputed from the wire codes** and compared
    ///    bit-for-bit, so a tampered image (or a lying `a_max`/`b_max`
    ///    bound) is caught even though loads never check it.
    ///
    /// # Errors
    ///
    /// The first failing check, as a structured [`ArtifactError`]
    /// ([`ArtifactError::ChecksumMismatch`], [`ArtifactError::Malformed`],
    /// [`ArtifactError::MissingSection`] for a v2 stream without `PANL`,
    /// …).
    pub fn verify_bytes(bytes: &[u8]) -> Result<ArtifactInfo, ArtifactError> {
        let start = crate::obs::now();
        let info = Self::verify_bytes_inner(bytes)?;
        crate::obs::metrics().artifact_verify(start, crate::obs::now().saturating_sub(start));
        Ok(info)
    }

    fn verify_bytes_inner(bytes: &[u8]) -> Result<ArtifactInfo, ArtifactError> {
        let info = parse_header(bytes)?;
        for (i, section) in info.sections.iter().enumerate() {
            let payload = section_payload(bytes, &info, i)?;
            let computed = crc32(payload);
            if computed != section.crc32 {
                return Err(ArtifactError::ChecksumMismatch {
                    section: section.id.clone(),
                    stored: section.crc32,
                    computed,
                });
            }
        }
        let artifact = Self::from_bytes(bytes)?;
        if info.version >= 2 {
            let pi = find_section(&info, SECTION_PANEL).ok_or_else(|| {
                ArtifactError::MissingSection {
                    section: "PANL".to_string(),
                }
            })?;
            let payload = section_payload(bytes, &info, pi)?;
            let images = parse_panel_section(payload, &artifact.layers, None)?;
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
                            record.name()
                        ),
                    });
                }
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

    fn model_payload(&self, aligned: bool) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.layers.len() as u32);
        for layer in &self.layers {
            match layer {
                LayerRecord::Dense {
                    name,
                    weight,
                    bias,
                    act,
                } => {
                    out.push(0);
                    put_str(&mut out, name);
                    put_weight(&mut out, weight, aligned);
                    put_f32s(&mut out, bias);
                    put_act(&mut out, act);
                }
                LayerRecord::Relu { name } => {
                    out.push(1);
                    put_str(&mut out, name);
                }
                LayerRecord::Conv {
                    name,
                    in_shape,
                    geo,
                    weight,
                    bias,
                    act,
                } => {
                    out.push(2);
                    put_str(&mut out, name);
                    put_shape3(&mut out, *in_shape);
                    put_u32(&mut out, geo.kh as u32);
                    put_u32(&mut out, geo.kw as u32);
                    put_u32(&mut out, geo.stride as u32);
                    put_u32(&mut out, geo.padding as u32);
                    put_weight(&mut out, weight, aligned);
                    put_f32s(&mut out, bias);
                    put_act(&mut out, act);
                }
                LayerRecord::Pool { name, in_shape } => {
                    out.push(3);
                    put_str(&mut out, name);
                    put_shape3(&mut out, *in_shape);
                }
                LayerRecord::Norm {
                    name,
                    gamma,
                    beta,
                    eps,
                } => {
                    out.push(4);
                    put_str(&mut out, name);
                    put_f32s(&mut out, gamma);
                    put_f32s(&mut out, beta);
                    put_f32(&mut out, *eps);
                }
                LayerRecord::Attn {
                    name,
                    seq,
                    dim,
                    weights,
                    act,
                    causal,
                } => {
                    // Tag 7 is a causal attention block; its payload is
                    // byte-identical to tag 5, so old readers reject it
                    // cleanly as an unknown tag rather than mis-parsing.
                    out.push(if *causal { 7 } else { 5 });
                    put_str(&mut out, name);
                    put_u32(&mut out, *seq as u32);
                    put_u32(&mut out, *dim as u32);
                    for w in weights.iter() {
                        put_weight(&mut out, w, aligned);
                    }
                    put_act(&mut out, act);
                }
                LayerRecord::Gelu { name } => {
                    out.push(6);
                    put_str(&mut out, name);
                }
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

    /// Builds the v2 `PANL` payload: a meta region (per-layer entry
    /// descriptors with inline decode LUTs and section-relative data
    /// offsets) followed by a 64-byte-aligned data area holding the raw
    /// panel/row/transpose images, each chunk on its own 64-byte
    /// boundary. Two passes: build the raw images, then lay them out.
    fn panel_payload(&self) -> Result<Vec<u8>, ArtifactError> {
        let mut raws: Vec<Vec<RawEntry>> = Vec::with_capacity(self.layers.len());
        for record in &self.layers {
            raws.push(raw_entries_for(record)?);
        }
        // Pass 2: assign aligned data offsets after the meta region.
        let meta_len: usize = 4 + raws
            .iter()
            .map(|es| 1 + es.iter().map(RawEntry::meta_len).sum::<usize>())
            .sum::<usize>();
        let mut off = meta_len.next_multiple_of(SECTION_ALIGN);
        for entry in raws.iter_mut().flatten() {
            if entry.data.is_empty() {
                continue;
            }
            off = off.next_multiple_of(SECTION_ALIGN);
            entry.off = off as u64;
            off += entry.data.len();
        }
        let total = off;
        let mut out = Vec::with_capacity(total);
        put_u32(&mut out, raws.len() as u32);
        for entries in &raws {
            out.push(entries.len() as u8);
            for e in entries {
                out.push(e.tag);
                put_u32(&mut out, e.n);
                put_u32(&mut out, e.k);
                put_i64(&mut out, e.a_max);
                put_i64(&mut out, e.b_max);
                put_u32(&mut out, e.lut.len() as u32);
                for &v in &e.lut {
                    put_i32(&mut out, v);
                }
                put_u64(&mut out, e.off);
                put_u64(&mut out, e.data.len() as u64);
            }
        }
        debug_assert_eq!(out.len(), meta_len, "PANL meta length bookkeeping");
        for entry in raws.iter().flatten() {
            if entry.data.is_empty() {
                continue;
            }
            out.resize(entry.off as usize, 0);
            out.extend_from_slice(&entry.data);
        }
        out.resize(total.max(out.len()), 0);
        Ok(out)
    }
}

/// Writes a header, section table and payloads. `aligned` pads every
/// payload to a [`SECTION_ALIGN`] file offset (format v2); v1 writes the
/// sections contiguously, byte-identical to pre-v2 builds.
fn write_sections<W: Write>(
    mut w: W,
    version: u16,
    sections: &[([u8; 4], &[u8])],
    aligned: bool,
) -> Result<(), ArtifactError> {
    let table_len = HEADER_LEN + sections.len() * ENTRY_LEN;
    let mut header = Vec::with_capacity(table_len);
    header.extend_from_slice(&MAGIC);
    put_u16(&mut header, version);
    put_u16(&mut header, 0); // reserved
    put_u32(&mut header, sections.len() as u32);
    let mut offsets = Vec::with_capacity(sections.len());
    let mut offset = table_len as u64;
    for (id, payload) in sections {
        if aligned {
            offset = offset.next_multiple_of(SECTION_ALIGN as u64);
        }
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
        if off > pos {
            w.write_all(&vec![0u8; (off - pos) as usize])?;
            pos = off;
        }
        w.write_all(payload)?;
        pos += payload.len() as u64;
    }
    Ok(())
}

/// Parses a full stream into records: the shared engine behind
/// [`ModelArtifact::load`] (`owner: None`, everything owned) and
/// [`MappedArtifact::open`] (`owner: Some`, wire codes borrowed from the
/// mapping where alignment allows). v1 streams CRC eagerly; v2 streams
/// defer checksums to `verify`.
fn parse_artifact(
    bytes: &[u8],
    owner: Option<&ArcOwner>,
) -> Result<(ModelArtifact, ArtifactInfo), ArtifactError> {
    let info = parse_header(bytes)?;
    let aligned = info.version >= 2;
    if !aligned {
        for (i, section) in info.sections.iter().enumerate() {
            let payload = section_payload(bytes, &info, i)?;
            let computed = crc32(payload);
            if computed != section.crc32 {
                return Err(ArtifactError::ChecksumMismatch {
                    section: section.id.clone(),
                    stored: section.crc32,
                    computed,
                });
            }
        }
    }
    let mi = find_section(&info, SECTION_MODEL).ok_or_else(|| ArtifactError::MissingSection {
        section: "MODL".to_string(),
    })?;
    let layers = parse_model_section(section_payload(bytes, &info, mi)?, aligned, owner)?;
    let cache = match find_section(&info, SECTION_CACHE) {
        Some(ci) => parse_cache_section(section_payload(bytes, &info, ci)?)?,
        None => Vec::new(),
    };
    Ok((ModelArtifact { layers, cache }, info))
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
const TAG_I32: u8 = 2;
const TAG_F32: u8 = 3;
const TAG_ABSENT: u8 = 4;

/// One parsed `PANL` entry: a ready-to-adopt execution image, the
/// attention output-projection operand, or nothing (layer compiles via
/// fallback / decode).
#[derive(Debug)]
enum PanelEntry {
    /// A dense/conv/attn-projection execution image in microkernel
    /// layout.
    Image(WeightImage),
    /// Attention's transposed f32 output-projection operand.
    WoT(PackedStore<f32>),
    /// No image serialized (non-integer-domain layer).
    Absent,
}

impl PanelEntry {
    fn is_borrowed(&self) -> bool {
        match self {
            PanelEntry::Image(img) => img.is_borrowed(),
            PanelEntry::WoT(s) => s.is_borrowed(),
            PanelEntry::Absent => true,
        }
    }
}

/// A `PANL` entry being assembled by the writer: descriptor fields plus
/// the raw little-endian data chunk, with the section-relative data
/// offset assigned in layout pass 2.
struct RawEntry {
    tag: u8,
    n: u32,
    k: u32,
    a_max: i64,
    b_max: i64,
    lut: Vec<i32>,
    data: Vec<u8>,
    off: u64,
}

impl RawEntry {
    /// Serialized descriptor size: tag + n + k + a_max + b_max + lut_len
    /// + inline LUT + data_off + data_len.
    fn meta_len(&self) -> usize {
        1 + 4 + 4 + 8 + 8 + 4 + 4 * self.lut.len() + 8 + 8
    }

    fn absent() -> RawEntry {
        RawEntry {
            tag: TAG_ABSENT,
            n: 0,
            k: 0,
            a_max: 0,
            b_max: 0,
            lut: Vec::new(),
            data: Vec::new(),
            off: 0,
        }
    }
}

/// Builds the raw `PANL` images for one layer record by running the
/// exact decode-and-pack path plan compilation uses, so the serialized
/// panels are bit-identical to what a fresh compile would build.
fn raw_entries_for(record: &LayerRecord) -> Result<Vec<RawEntry>, ArtifactError> {
    match record {
        LayerRecord::Dense { weight, act, .. } | LayerRecord::Conv { weight, act, .. } => {
            Ok(vec![raw_weight_entry(weight, act)?])
        }
        LayerRecord::Attn {
            weights, act, dim, ..
        } => {
            let square = weights
                .iter()
                .all(|w| w.codes.dims() == [*dim, *dim] && panelable(w, act));
            if !square {
                return Ok((0..5).map(|_| RawEntry::absent()).collect());
            }
            let mut entries = Vec::with_capacity(5);
            for w in weights.iter() {
                entries.push(raw_weight_entry(w, act)?);
            }
            let wo_t = transpose(&decode_rows_f32(&weights[3].codes), *dim);
            entries.push(RawEntry {
                tag: TAG_F32,
                n: *dim as u32,
                k: *dim as u32,
                a_max: 0,
                b_max: 0,
                lut: Vec::new(),
                data: wo_t
                    .iter()
                    .flat_map(|v| v.to_bits().to_le_bytes())
                    .collect(),
                off: 0,
            });
            Ok(entries)
        }
        _ => Ok(Vec::new()),
    }
}

fn raw_weight_entry(w: &WeightRecord, act: &ActRecord) -> Result<RawEntry, ArtifactError> {
    if !panelable(w, act) {
        return Ok(RawEntry::absent());
    }
    let image = decode_image(&w.codes, act_bound(&act.quantizer()?))?;
    let lut = ant_core::Codec::new(w.codes.dtype())?
        .decode_lut_int()
        .unwrap_or_default();
    Ok(match image {
        WeightImage::I8(pg) => RawEntry {
            tag: TAG_I8,
            n: pg.n() as u32,
            k: pg.k() as u32,
            a_max: pg.a_max(),
            b_max: pg.b_max(),
            lut,
            data: pg.panels().iter().map(|&v| v as u8).collect(),
            off: 0,
        },
        WeightImage::I16(pg) => RawEntry {
            tag: TAG_I16,
            n: pg.n() as u32,
            k: pg.k() as u32,
            a_max: pg.a_max(),
            b_max: pg.b_max(),
            lut,
            data: pg.panels().iter().flat_map(|v| v.to_le_bytes()).collect(),
            off: 0,
        },
        WeightImage::I32(rows) => {
            let dims = w.codes.dims();
            RawEntry {
                tag: TAG_I32,
                n: dims[0] as u32,
                k: dims[1..].iter().product::<usize>() as u32,
                a_max: 0,
                b_max: 0,
                lut,
                data: rows.iter().flat_map(|v| v.to_le_bytes()).collect(),
                off: 0,
            }
        }
    })
}

/// The `PANL` entries a v2 writer would emit for `record`, recomputed
/// from the wire codes. [`ModelArtifact::verify_bytes`] compares these
/// bit-for-bit against the parsed section.
fn expected_entries(record: &LayerRecord) -> Result<Vec<PanelEntry>, ArtifactError> {
    match record {
        LayerRecord::Dense { weight, act, .. } | LayerRecord::Conv { weight, act, .. } => {
            Ok(vec![expected_weight_entry(weight, act)?])
        }
        LayerRecord::Attn {
            weights, act, dim, ..
        } => {
            let square = weights
                .iter()
                .all(|w| w.codes.dims() == [*dim, *dim] && panelable(w, act));
            if !square {
                return Ok((0..5).map(|_| PanelEntry::Absent).collect());
            }
            let mut entries = Vec::with_capacity(5);
            for w in weights.iter() {
                entries.push(expected_weight_entry(w, act)?);
            }
            entries.push(PanelEntry::WoT(PackedStore::from_vec(transpose(
                &decode_rows_f32(&weights[3].codes),
                *dim,
            ))));
            Ok(entries)
        }
        _ => Ok(Vec::new()),
    }
}

fn expected_weight_entry(w: &WeightRecord, act: &ActRecord) -> Result<PanelEntry, ArtifactError> {
    if !panelable(w, act) {
        return Ok(PanelEntry::Absent);
    }
    Ok(PanelEntry::Image(decode_image(
        &w.codes,
        act_bound(&act.quantizer()?),
    )?))
}

fn entries_match(parsed: &PanelEntry, expected: &PanelEntry) -> bool {
    match (parsed, expected) {
        (PanelEntry::Image(a), PanelEntry::Image(b)) => images_match(a, b),
        (PanelEntry::WoT(a), PanelEntry::WoT(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        }
        (PanelEntry::Absent, PanelEntry::Absent) => true,
        _ => false,
    }
}

fn images_match(a: &WeightImage, b: &WeightImage) -> bool {
    match (a, b) {
        (WeightImage::I8(x), WeightImage::I8(y)) => pg_eq(x, y),
        (WeightImage::I16(x), WeightImage::I16(y)) => pg_eq(x, y),
        (WeightImage::I32(x), WeightImage::I32(y)) => x.as_slice() == y.as_slice(),
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

/// Materializes `raw` as a `PackedStore<T>`: borrowed straight from the
/// mapping when an owner is present and the range satisfies the
/// alignment/width contract (and, for multi-byte `T`, the host is
/// little-endian so the file bytes *are* host values); otherwise an
/// owned copy via `fallback`, counted by [`load_copies`].
fn store_borrowed<T: StorePod, F: FnOnce(&[u8]) -> Vec<T>>(
    raw: &[u8],
    owner: Option<&ArcOwner>,
    fallback: F,
) -> PackedStore<T> {
    if std::mem::size_of::<T>() == 1 || cfg!(target_endian = "little") {
        if let Some(owner) = owner {
            // SAFETY: `owner` keeps the mapped bytes alive and immutable
            // for as long as any clone of the store exists, and the
            // endianness gate above makes the byte content valid `T`s.
            if let Some(store) = unsafe { PackedStore::<T>::borrowed(raw, owner.clone()) } {
                return store;
            }
        }
    }
    note_load_copy();
    PackedStore::from_vec(fallback(raw))
}

/// Parses a v2 `PANL` section against the already-parsed layer records,
/// borrowing image data from `owner` where possible. Validates the
/// per-layer entry structure, tag-specific data extents and the 64-byte
/// data alignment the writer guarantees. `a_max`/`b_max` are *not*
/// trusted beyond widening-cadence recomputation (a lying bound changes
/// results, never memory safety — and `verify` catches it).
fn parse_panel_section(
    payload: &[u8],
    layers: &[LayerRecord],
    owner: Option<&ArcOwner>,
) -> Result<Vec<Vec<PanelEntry>>, ArtifactError> {
    let mut rd = Rd::new(payload, "PANL section");
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
        if entry_count != record.panel_entry_count() {
            return Err(rd.malformed(format!(
                "layer '{}' has {entry_count} panel entries, expected {}",
                record.name(),
                record.panel_entry_count()
            )));
        }
        let mut entries = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            entries.push(parse_panel_entry(&mut rd, payload, owner)?);
        }
        all.push(entries);
    }
    Ok(all)
}

fn parse_panel_entry(
    rd: &mut Rd<'_>,
    payload: &[u8],
    owner: Option<&ArcOwner>,
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
        return Ok(PanelEntry::Absent);
    }
    let elem = match tag {
        TAG_I8 => 1usize,
        TAG_I16 => 2,
        TAG_I32 | TAG_F32 => 4,
        other => return Err(rd.malformed(format!("unknown panel tag {other}"))),
    };
    let elements = match tag {
        TAG_I8 | TAG_I16 => n
            .div_ceil(NR)
            .checked_mul(k)
            .and_then(|v| v.checked_mul(NR)),
        _ => n.checked_mul(k),
    }
    .ok_or_else(|| rd.malformed("panel extent overflows"))?;
    let expected_len = elements
        .checked_mul(elem)
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
    Ok(match tag {
        TAG_I8 => {
            let store = store_borrowed(raw, owner, |r| r.iter().map(|&b| b as i8).collect());
            let pg = PanelGemm::from_store(store, n, k, a_max, b_max)
                .ok_or_else(|| rd.malformed("panel store rejected"))?;
            PanelEntry::Image(WeightImage::I8(pg))
        }
        TAG_I16 => {
            let store = store_borrowed(raw, owner, |r| {
                r.chunks_exact(2)
                    .map(|c| i16::from_le_bytes(c.try_into().expect("2")))
                    .collect()
            });
            let pg = PanelGemm::from_store(store, n, k, a_max, b_max)
                .ok_or_else(|| rd.malformed("panel store rejected"))?;
            PanelEntry::Image(WeightImage::I16(pg))
        }
        TAG_I32 => {
            let store = store_borrowed(raw, owner, |r| {
                r.chunks_exact(4)
                    .map(|c| i32::from_le_bytes(c.try_into().expect("4")))
                    .collect()
            });
            PanelEntry::Image(WeightImage::I32(store))
        }
        _ => {
            let store = store_borrowed(raw, owner, |r| {
                r.chunks_exact(4)
                    .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4"))))
                    .collect()
            });
            PanelEntry::WoT(store)
        }
    })
}

// ---------------------------------------------------------------------------
// MappedArtifact: the zero-copy serving handle
// ---------------------------------------------------------------------------

/// A memory-mapped `.antm` artifact — the zero-copy serving path.
///
/// [`MappedArtifact::open`] maps the file once ([`Mmap`]) and parses it
/// in place. For v2 streams the wire codes and the pre-packed `PANL`
/// execution images are **borrowed** from the mapping (the shared
/// `Arc<Mmap>` is the type-erased owner), so:
///
/// * opening performs no LUT decode, no panel re-packing, no CRC sweep
///   and — on little-endian unix targets — zero weight-byte copies
///   ([`load_copies`] stays flat);
/// * every plan compiled from the handle executes against the same
///   read-only pages, and the kernel shares those pages *across
///   processes* serving the same file, keeping per-worker RSS for the
///   weight image flat;
/// * the mapping lives exactly as long as the last borrower: plans keep
///   it alive through their stores, so dropping the `MappedArtifact`
///   handle while plans exist is safe.
///
/// v1 streams open through the same API but keep their legacy
/// semantics: eager CRC, owned copy-and-decode load, no panel images.
#[derive(Debug)]
pub struct MappedArtifact {
    map: Arc<Mmap>,
    artifact: ModelArtifact,
    images: Option<Vec<Vec<PanelEntry>>>,
    info: ArtifactInfo,
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
        let copies_before = load_copies();
        // Chaos site: a simulated unreadable artifact at the mmap layer
        // (exercises reload/rebuild failure handling in serving code).
        #[cfg(feature = "chaos")]
        if crate::chaos::maybe_fail(crate::chaos::FaultSite::MmapLoad) {
            return Err(ArtifactError::Io(std::io::Error::other(
                "chaos: injected mmap-load failure",
            )));
        }
        let map = Arc::new(Mmap::open(path.as_ref())?);
        let owner: ArcOwner = map.clone();
        let (artifact, info) = parse_artifact(map.as_slice(), Some(&owner))?;
        let images = if info.version >= 2 {
            match find_section(&info, SECTION_PANEL) {
                Some(pi) => {
                    let payload = section_payload(map.as_slice(), &info, pi)?;
                    Some(parse_panel_section(
                        payload,
                        &artifact.layers,
                        Some(&owner),
                    )?)
                }
                // Loading is lenient about a missing PANL (verify is
                // not): plans fall back to decode-on-compile.
                None => None,
            }
        } else {
            None
        };
        let mapped = MappedArtifact {
            map,
            artifact,
            images,
            info,
        };
        crate::obs::metrics().artifact_load(
            start,
            crate::obs::now().saturating_sub(start),
            load_copies().saturating_sub(copies_before),
            mapped.is_zero_copy(),
        );
        Ok(mapped)
    }

    /// The parsed artifact (its records borrow the mapping in v2
    /// streams).
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

    /// Whether this handle achieved the full zero-copy contract: a v2
    /// stream backed by an actual kernel mapping, with every wire-code
    /// stream and every panel image borrowed — nothing copied, nothing
    /// decoded, nothing re-packed.
    pub fn is_zero_copy(&self) -> bool {
        self.info.version >= 2
            && self.map.is_mapped()
            && self.artifact.codes_borrowed()
            && self
                .images
                .as_ref()
                .is_some_and(|im| im.iter().flatten().all(PanelEntry::is_borrowed))
    }

    /// Compiles a plan that adopts the mapped panel images verbatim:
    /// weights stay borrowed from the file pages, scratch stays owned
    /// and per-plan. Fallback semantics match
    /// [`ModelArtifact::compile`].
    ///
    /// # Errors
    ///
    /// As [`ModelArtifact::compile`].
    pub fn compile(&self) -> Result<CompiledPlan, ArtifactError> {
        self.artifact.build_plan_with(false, self.images.as_deref())
    }

    /// Strict [`Self::compile`].
    ///
    /// # Errors
    ///
    /// As [`ModelArtifact::compile_strict`].
    pub fn compile_strict(&self) -> Result<CompiledPlan, ArtifactError> {
        self.artifact.build_plan_with(true, self.images.as_deref())
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

// ---------------------------------------------------------------------------
// Record <-> layer conversions
// ---------------------------------------------------------------------------

fn record_from_layer(layer: &NetLayer) -> Result<LayerRecord, ArtifactError> {
    let name = layer.name().to_string();
    let not_quantized = || {
        ArtifactError::Runtime(RuntimeError::NotQuantized {
            layer: layer.name().to_string(),
        })
    };
    match layer {
        NetLayer::Dense(d) => {
            let wq = d.quant.weight.as_ref().ok_or_else(not_quantized)?;
            let aq = d.quant.activation.as_ref().ok_or_else(not_quantized)?;
            let (out, inp) = (d.out_features(), d.in_features());
            let codes = pack_weight_tensor(d.weight().as_slice(), out, inp, wq, &[out, inp])?;
            Ok(LayerRecord::Dense {
                name,
                weight: WeightRecord {
                    granularity: wq.granularity(),
                    codes,
                },
                bias: d.bias().as_slice().to_vec(),
                act: ActRecord {
                    dtype: aq.dtype(),
                    scale: aq.scale(),
                },
            })
        }
        NetLayer::Conv(c) => {
            let wq = c.quant.weight.as_ref().ok_or_else(not_quantized)?;
            let aq = c.quant.activation.as_ref().ok_or_else(not_quantized)?;
            let dims = c.weight().dims().to_vec();
            let (co, kin) = (dims[0], dims[1] * dims[2] * dims[3]);
            let codes = pack_weight_tensor(c.weight().as_slice(), co, kin, wq, &dims)?;
            Ok(LayerRecord::Conv {
                name,
                in_shape: c.in_shape(),
                geo: c.geometry(),
                weight: WeightRecord {
                    granularity: wq.granularity(),
                    codes,
                },
                bias: c.bias().as_slice().to_vec(),
                act: ActRecord {
                    dtype: aq.dtype(),
                    scale: aq.scale(),
                },
            })
        }
        NetLayer::Attn(a) => {
            let aq = a.quant.activation.as_ref().ok_or_else(not_quantized)?;
            let dim = a.dim();
            let mut weights = Vec::with_capacity(4);
            for (w, wq) in a.projection_weights().iter().zip(&a.quant.weights) {
                let wq = wq.as_ref().ok_or_else(not_quantized)?;
                let codes = pack_weight_tensor(w.as_slice(), dim, dim, wq, &[dim, dim])?;
                weights.push(WeightRecord {
                    granularity: wq.granularity(),
                    codes,
                });
            }
            let weights: [WeightRecord; 4] = weights.try_into().expect("exactly four projections");
            Ok(LayerRecord::Attn {
                name,
                seq: a.seq(),
                dim,
                weights: Box::new(weights),
                act: ActRecord {
                    dtype: aq.dtype(),
                    scale: aq.scale(),
                },
                causal: a.causal(),
            })
        }
        NetLayer::Relu(_) => Ok(LayerRecord::Relu { name }),
        NetLayer::Gelu(_) => Ok(LayerRecord::Gelu { name }),
        NetLayer::Pool(p) => Ok(LayerRecord::Pool {
            name,
            in_shape: p.in_shape(),
        }),
        NetLayer::Norm(n) => Ok(LayerRecord::Norm {
            name,
            gamma: n.gamma().as_slice().to_vec(),
            beta: n.beta().as_slice().to_vec(),
            eps: n.eps(),
        }),
    }
}

fn record_to_netlayer(record: &LayerRecord) -> Result<NetLayer, ArtifactError> {
    match record {
        LayerRecord::Dense {
            name,
            weight,
            bias,
            act,
        } => {
            let w = weight.decode(name)?;
            if w.rank() != 2 || bias.len() != w.dims()[0] {
                return Err(malformed(name, "dense weight/bias shapes disagree"));
            }
            let mut d = Dense::new(name.clone(), w, Tensor::from_slice(bias));
            d.quant.weight = Some(weight.quantizer()?);
            d.quant.activation = Some(act.quantizer()?);
            Ok(NetLayer::Dense(d))
        }
        LayerRecord::Relu { name } => Ok(NetLayer::Relu(Relu::new(name.clone()))),
        LayerRecord::Conv {
            name,
            in_shape,
            geo,
            weight,
            bias,
            act,
        } => {
            let w = weight.decode(name)?;
            let dims = w.dims().to_vec();
            if dims.len() != 4 || dims[1] != in_shape.0 || bias.len() != dims[0] {
                return Err(malformed(name, "conv kernel/bias/input shapes disagree"));
            }
            if dims[2] != geo.kh || dims[3] != geo.kw {
                return Err(malformed(name, "conv kernel shape disagrees with geometry"));
            }
            if geo.out_extent(in_shape.1, geo.kh).is_none()
                || geo.out_extent(in_shape.2, geo.kw).is_none()
            {
                return Err(malformed(name, "conv kernel does not fit input"));
            }
            let mut c = Conv2d::new(name.clone(), w, Tensor::from_slice(bias), *in_shape, *geo);
            c.quant.weight = Some(weight.quantizer()?);
            c.quant.activation = Some(act.quantizer()?);
            Ok(NetLayer::Conv(c))
        }
        LayerRecord::Pool { name, in_shape } => {
            if !in_shape.1.is_multiple_of(2) || !in_shape.2.is_multiple_of(2) {
                return Err(malformed(name, "pool extents must be even"));
            }
            Ok(NetLayer::Pool(MaxPool2::new(name.clone(), *in_shape)))
        }
        LayerRecord::Norm {
            name,
            gamma,
            beta,
            eps,
        } => {
            if gamma.len() != beta.len() || gamma.is_empty() {
                return Err(malformed(name, "norm gamma/beta lengths disagree"));
            }
            Ok(NetLayer::Norm(LayerNorm::from_params(
                name.clone(),
                Tensor::from_slice(gamma),
                Tensor::from_slice(beta),
                *eps,
            )))
        }
        LayerRecord::Attn {
            name,
            seq,
            dim,
            weights,
            act,
            causal,
        } => {
            let mut projections = Vec::with_capacity(4);
            for w in weights.iter() {
                let t = w.decode(name)?;
                if t.dims() != [*dim, *dim] {
                    return Err(malformed(name, "attention projection is not [dim, dim]"));
                }
                projections.push(t);
            }
            let projections: [Tensor; 4] = projections.try_into().expect("exactly four");
            let mut a =
                Attention::from_weights(name.clone(), *seq, *dim, projections).with_causal(*causal);
            for (slot, w) in a.quant.weights.iter_mut().zip(weights.iter()) {
                *slot = Some(w.quantizer()?);
            }
            a.quant.activation = Some(act.quantizer()?);
            Ok(NetLayer::Attn(Box::new(a)))
        }
        LayerRecord::Gelu { name } => Ok(NetLayer::Gelu(Gelu::new(name.clone()))),
    }
}

fn malformed(context: &str, detail: &str) -> ArtifactError {
    ArtifactError::Malformed {
        context: context.to_string(),
        detail: detail.to_string(),
    }
}

fn summarize(record: &LayerRecord) -> LayerSummary {
    let weight_summary = |w: &WeightRecord| WeightSummary {
        dtype: w.codes.dtype(),
        granularity: w.granularity,
        dims: w.codes.dims().to_vec(),
        elements: w.codes.len(),
        bytes: w.codes.size_bytes(),
        scales: w.codes.scales().len(),
    };
    let int_domain = |dts: &[DataType]| dts.iter().all(|dt| dt.primitive() != PrimitiveType::Float);
    match record {
        LayerRecord::Dense { weight, act, .. } => LayerSummary {
            name: record.name().to_string(),
            kind: "dense",
            weights: vec![weight_summary(weight)],
            activation: Some((act.dtype, act.scale)),
            packed: int_domain(&[weight.codes.dtype(), act.dtype]),
        },
        LayerRecord::Conv { weight, act, .. } => LayerSummary {
            name: record.name().to_string(),
            kind: "conv",
            weights: vec![weight_summary(weight)],
            activation: Some((act.dtype, act.scale)),
            packed: int_domain(&[weight.codes.dtype(), act.dtype]),
        },
        LayerRecord::Attn {
            weights,
            act,
            causal,
            ..
        } => {
            let mut dts: Vec<DataType> = weights.iter().map(|w| w.codes.dtype()).collect();
            dts.push(act.dtype);
            LayerSummary {
                name: record.name().to_string(),
                kind: if *causal { "causal-attn" } else { "attn" },
                weights: weights.iter().map(weight_summary).collect(),
                activation: Some((act.dtype, act.scale)),
                packed: int_domain(&dts),
            }
        }
        LayerRecord::Relu { .. } => shape_summary(record, "relu"),
        LayerRecord::Gelu { .. } => shape_summary(record, "gelu"),
        LayerRecord::Pool { .. } => shape_summary(record, "pool"),
        LayerRecord::Norm { .. } => shape_summary(record, "norm"),
    }
}

fn shape_summary(record: &LayerRecord, kind: &'static str) -> LayerSummary {
    LayerSummary {
        name: record.name().to_string(),
        kind,
        weights: Vec::new(),
        activation: None,
        packed: true,
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

/// Serializes one weight record. `aligned` (v2) zero-pads to the next
/// [`SECTION_ALIGN`] boundary *before* the code bytes so a mapped reader
/// can borrow them in place; v1 writes them back-to-back.
fn put_weight(out: &mut Vec<u8>, w: &WeightRecord, aligned: bool) {
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
    if aligned {
        out.resize(out.len().next_multiple_of(SECTION_ALIGN), 0);
    }
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
/// `aligned` switches on v2 semantics (weight code bytes sit at
/// [`SECTION_ALIGN`] payload offsets behind zero padding); `owner`, when
/// present, is the shared keep-alive for borrowing those byte ranges in
/// place instead of copying them.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
    aligned: bool,
    owner: Option<ArcOwner>,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8], context: &'static str) -> Self {
        Rd::with(buf, context, false, None)
    }

    fn with(buf: &'a [u8], context: &'static str, aligned: bool, owner: Option<&ArcOwner>) -> Self {
        Rd {
            buf,
            pos: 0,
            context,
            aligned,
            owner: owner.cloned(),
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
    /// offset (v2 weight framing). Nonzero pad bytes are a hard error —
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

    /// Materializes a raw byte range as [`TensorBytes`]: borrowed from
    /// the owner when possible, owned (and counted) otherwise.
    fn store_bytes(&self, raw: &[u8]) -> TensorBytes {
        store_borrowed(raw, self.owner.as_ref(), |r| r.to_vec())
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
        if self.aligned {
            self.skip_padding()?;
        }
        let raw = self.take(byte_count)?;
        let bytes = self.store_bytes(raw);
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
    let mut rd = Rd::new(bytes, "header");
    let magic = rd.take(4)?;
    if magic != MAGIC {
        return Err(ArtifactError::BadMagic {
            found: magic.try_into().expect("4"),
        });
    }
    let version = rd.u16()?;
    if version > FORMAT_VERSION {
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
fn section_payload<'a>(
    bytes: &'a [u8],
    info: &ArtifactInfo,
    index: usize,
) -> Result<&'a [u8], ArtifactError> {
    let section = &info.sections[index];
    let offset = section.offset as usize;
    let len = section.len as usize;
    Ok(&bytes[offset..offset + len])
}

fn parse_model_section(
    payload: &[u8],
    aligned: bool,
    owner: Option<&ArcOwner>,
) -> Result<Vec<LayerRecord>, ArtifactError> {
    let mut rd = Rd::with(payload, "MODL section", aligned, owner);
    let count = rd.usize32()?;
    let mut layers = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let kind = rd.u8()?;
        let name = rd.string()?;
        let record = match kind {
            0 => LayerRecord::Dense {
                name,
                weight: rd.weight()?,
                bias: rd.f32s()?,
                act: rd.act()?,
            },
            1 => LayerRecord::Relu { name },
            2 => {
                let in_shape = rd.shape3()?;
                let kh = rd.usize32()?;
                let kw = rd.usize32()?;
                let stride = rd.usize32()?;
                let padding = rd.usize32()?;
                let geo = Conv2dGeometry::new(kh, kw, stride, padding).map_err(|e| {
                    ArtifactError::Malformed {
                        context: "MODL section".to_string(),
                        detail: e.to_string(),
                    }
                })?;
                LayerRecord::Conv {
                    name,
                    in_shape,
                    geo,
                    weight: rd.weight()?,
                    bias: rd.f32s()?,
                    act: rd.act()?,
                }
            }
            3 => LayerRecord::Pool {
                name,
                in_shape: rd.shape3()?,
            },
            4 => LayerRecord::Norm {
                name,
                gamma: rd.f32s()?,
                beta: rd.f32s()?,
                eps: rd.f32()?,
            },
            kind @ (5 | 7) => {
                let seq = rd.usize32()?;
                let dim = rd.usize32()?;
                let weights = [rd.weight()?, rd.weight()?, rd.weight()?, rd.weight()?];
                LayerRecord::Attn {
                    name,
                    seq,
                    dim,
                    weights: Box::new(weights),
                    act: rd.act()?,
                    causal: kind == 7,
                }
            }
            6 => LayerRecord::Gelu { name },
            other => return Err(rd.malformed(format!("unknown layer kind {other}"))),
        };
        layers.push(record);
    }
    if rd.remaining() != 0 {
        return Err(rd.malformed(format!("{} trailing bytes", rd.remaining())));
    }
    Ok(layers)
}

fn parse_cache_section(payload: &[u8]) -> Result<Vec<(u64, Vec<TypeDecision>)>, ArtifactError> {
    let mut rd = Rd::new(payload, "CACH section");
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
    fn save_v1_roundtrips_and_keeps_version_1() {
        let artifact = ModelArtifact::from_model(&quantized_mlp()).unwrap();
        let mut bytes = Vec::new();
        artifact.save_v1(&mut bytes).unwrap();
        assert_eq!(probe(&bytes[..]).unwrap().version, 1);
        let reloaded = ModelArtifact::load(&bytes[..]).unwrap();
        assert_eq!(artifact, reloaded);
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
        // v2 load is lazy: it ignores PANL and still parses.
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
        assert!(summaries[0].packed);
        assert_eq!(summaries[0].weights.len(), 1);
        assert!(artifact.packed_weight_bytes() > 0);
    }

    #[test]
    fn empty_input_is_a_structured_error() {
        assert!(matches!(
            ModelArtifact::load(&[][..]),
            Err(ArtifactError::Truncated { .. })
        ));
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
