//! Typed errors for the mapping search.
//!
//! Every fallible mapper entry point returns [`MapperError`] instead of
//! panicking, so the scheduler above can isolate a failing layer
//! (degrade or skip it) without losing the rest of the network.

use std::fmt;

/// Why a mapping search produced no usable schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapperError {
    /// Every drawn candidate was invalid (capacity violations) or had a
    /// non-finite cost; nothing could be retained.
    NoValidMapping {
        /// Layer name the search ran on.
        layer: String,
        /// How many samples were drawn before giving up.
        samples: usize,
    },
    /// The deterministic greedy construction could not produce an
    /// evaluable mapping (even the minimal tiling violated a
    /// constraint).
    Infeasible {
        /// Layer name the construction ran on.
        layer: String,
        /// The underlying validation/evaluation failure.
        reason: String,
    },
    /// A fault-injection plan (see [`crate::fault`]) forced this layer
    /// to fail. Only reachable from the test harness.
    InjectedFailure {
        /// Layer name the injected fault matched.
        layer: String,
    },
    /// A fault-injection plan simulated a transient I/O failure for
    /// this layer (see [`crate::fault::FaultPlan::io_error`]). Unlike
    /// [`MapperError::InjectedFailure`] this clears after a bounded
    /// number of attempts, so it deterministically exercises
    /// retry-then-succeed supervisor paths.
    InjectedIo {
        /// Layer name the injected fault matched.
        layer: String,
    },
    /// The search was cancelled cooperatively — its task's
    /// [`crate::cancel::CancelToken`] was tripped by a process-wide
    /// shutdown, its job or its watchdog (checked at chunk boundaries
    /// alongside the deadline).
    Cancelled {
        /// Layer name the cancelled search ran on.
        layer: String,
    },
}

impl MapperError {
    /// The layer the error pertains to.
    pub fn layer(&self) -> &str {
        match self {
            MapperError::NoValidMapping { layer, .. }
            | MapperError::Infeasible { layer, .. }
            | MapperError::InjectedFailure { layer }
            | MapperError::InjectedIo { layer }
            | MapperError::Cancelled { layer } => layer,
        }
    }
}

impl fmt::Display for MapperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapperError::NoValidMapping { layer, samples } => write!(
                f,
                "no valid mapping for layer '{layer}' after {samples} samples \
                 (every candidate violated a capacity constraint or had a \
                 non-finite cost)"
            ),
            MapperError::Infeasible { layer, reason } => {
                write!(
                    f,
                    "greedy construction infeasible for layer '{layer}': {reason}"
                )
            }
            MapperError::InjectedFailure { layer } => {
                write!(f, "injected mapper failure for layer '{layer}'")
            }
            MapperError::InjectedIo { layer } => {
                write!(f, "injected transient I/O failure for layer '{layer}'")
            }
            MapperError::Cancelled { layer } => {
                write!(f, "search cancelled for layer '{layer}'")
            }
        }
    }
}

impl std::error::Error for MapperError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_and_expose_the_layer() {
        let e = MapperError::NoValidMapping {
            layer: "conv3".into(),
            samples: 400,
        };
        assert_eq!(e.layer(), "conv3");
        assert!(e.to_string().contains("conv3"));
        assert!(e.to_string().contains("400"));
        let e = MapperError::Infeasible {
            layer: "fc1".into(),
            reason: "GLB overflow".into(),
        };
        assert!(e.to_string().contains("GLB overflow"));
        let e = MapperError::InjectedFailure {
            layer: "conv1".into(),
        };
        assert!(e.to_string().contains("injected"));
    }
}
