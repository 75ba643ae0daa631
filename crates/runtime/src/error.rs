use ant_core::QuantError;
use ant_nn::NnError;
use std::error::Error;
use std::fmt;

/// Error type for plan compilation and packed-domain execution.
#[derive(Debug)]
pub enum RuntimeError {
    /// An underlying quantization operation failed.
    Quant(QuantError),
    /// An underlying model operation failed.
    Nn(NnError),
    /// A layer reached the plan compiler without attached quantizers.
    NotQuantized {
        /// The offending layer's name.
        layer: String,
    },
    /// A layer the packed integer domain cannot execute — there is no
    /// other executor, so compilation fails. Either the record's shapes
    /// disagree, or the selected type has no exact integer-domain
    /// execution: the `float` primitive has no int-based wire decoder
    /// (paper Sec. V-B ships the int-based PE precisely to avoid it), and
    /// a lattice past `i32`, or operands whose products cannot be proven
    /// to fit the `i64` accumulator (6-bit PoT), would saturate or wrap.
    /// Also what the decode entry points return for a plan or step that
    /// is not decodable.
    UnsupportedLayer {
        /// The offending layer's name.
        layer: String,
        /// Why the packed path cannot run it.
        reason: String,
    },
    /// An input's feature count does not match the plan.
    ShapeMismatch {
        /// Features the plan expects.
        expected: usize,
        /// Features supplied.
        actual: usize,
    },
    /// The engine worker is shut down or a request was dropped.
    Engine(String),
    /// The engine's bounded submit queue is full: admission control
    /// rejected the request instead of growing memory without limit.
    /// Transient by design — retry after a short backoff (serving front
    /// ends map this to HTTP 429 + `Retry-After`).
    Overloaded {
        /// Requests queued at rejection time.
        queued: usize,
        /// The queue bound ([`crate::BatchPolicy::max_queue`]).
        max_queue: usize,
    },
    /// The request was isolated as the cause of a panicking batch: after
    /// a batch execution panics, the supervisor re-runs its members in
    /// bisection; a request that still panics alone is *poisoned* and is
    /// failed with this variant while innocent co-batched requests are
    /// transparently re-executed. Serving front ends map this to HTTP
    /// 422 — retrying the same request will poison another batch.
    PoisonedRequest {
        /// The panic message the isolated request produced.
        message: String,
    },
    /// A decode session's KV cache reached the token capacity it was
    /// opened with — the per-session arena is sized once at
    /// [`crate::CompiledPlan::open_session`] time so the decode hot path
    /// never reallocates; appending past it is a caller error, not a
    /// growth trigger.
    KvCacheFull {
        /// The session's token capacity (`max_tokens` at open time).
        capacity: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Quant(e) => write!(f, "quantization error: {e}"),
            RuntimeError::Nn(e) => write!(f, "model error: {e}"),
            RuntimeError::NotQuantized { layer } => {
                write!(f, "layer {layer} has no quantizers attached")
            }
            RuntimeError::UnsupportedLayer { layer, reason } => {
                write!(f, "layer {layer} is not packed-executable: {reason}")
            }
            RuntimeError::ShapeMismatch { expected, actual } => {
                write!(f, "expected {expected} input features, got {actual}")
            }
            RuntimeError::Engine(msg) => write!(f, "engine error: {msg}"),
            RuntimeError::Overloaded { queued, max_queue } => {
                write!(
                    f,
                    "engine overloaded: submit queue full ({queued}/{max_queue}); retry later"
                )
            }
            RuntimeError::PoisonedRequest { message } => {
                write!(f, "request poisoned its batch: {message}")
            }
            RuntimeError::KvCacheFull { capacity } => {
                write!(f, "KV cache full: session holds {capacity} tokens")
            }
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Quant(e) => Some(e),
            RuntimeError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QuantError> for RuntimeError {
    fn from(e: QuantError) -> Self {
        RuntimeError::Quant(e)
    }
}

impl From<NnError> for RuntimeError {
    fn from(e: NnError) -> Self {
        RuntimeError::Nn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_and_sources() {
        let variants: Vec<RuntimeError> = vec![
            RuntimeError::Quant(QuantError::EmptyCalibration),
            RuntimeError::Nn(NnError::BadDataset("x".into())),
            RuntimeError::NotQuantized { layer: "fc".into() },
            RuntimeError::UnsupportedLayer {
                layer: "conv".into(),
                reason: "no packed lowering".into(),
            },
            RuntimeError::ShapeMismatch {
                expected: 4,
                actual: 2,
            },
            RuntimeError::Engine("down".into()),
            RuntimeError::Overloaded {
                queued: 1024,
                max_queue: 1024,
            },
            RuntimeError::PoisonedRequest {
                message: "injected".into(),
            },
            RuntimeError::KvCacheFull { capacity: 128 },
        ];
        for v in &variants {
            assert!(!v.to_string().is_empty());
        }
        assert!(variants[0].source().is_some());
        assert!(variants[4].source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuntimeError>();
    }
}
