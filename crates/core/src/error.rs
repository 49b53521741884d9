//! The unified typed error model for the scheduling engine.
//!
//! Search and evaluation paths return [`SecureLoopError`] instead of
//! panicking, so one failing layer (or a corrupted checkpoint file)
//! degrades gracefully rather than killing a whole DSE sweep.

use std::fmt;

use secureloop_artifact::ArtifactError;
use secureloop_mapper::MapperError;

/// Any failure the scheduling engine can surface to callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecureLoopError {
    /// A per-layer mapping search failed (see [`MapperError`]).
    Mapper(MapperError),
    /// The scheduler could not produce any usable schedule (e.g. every
    /// layer of the network failed its search).
    Schedule(String),
    /// A checkpoint file could not be read, parsed or written.
    Checkpoint {
        /// Path of the checkpoint file.
        path: String,
        /// What went wrong.
        message: String,
    },
    /// A persisted artifact failed at the durable-I/O layer (the path
    /// it concerns is inside the [`ArtifactError`]).
    Artifact(ArtifactError),
}

impl SecureLoopError {
    /// Whether this error is a cooperative-cancellation artefact (a
    /// cancelled token — shutdown, job or watchdog — stopping a mapper
    /// search) rather than a genuine failure. Interrupted runs report the distinct
    /// "interrupted, resumable" exit code instead of a fatal one.
    pub fn is_interruption(&self) -> bool {
        matches!(self, SecureLoopError::Mapper(MapperError::Cancelled { .. }))
    }
}

impl fmt::Display for SecureLoopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecureLoopError::Mapper(e) => write!(f, "mapper: {e}"),
            SecureLoopError::Schedule(msg) => write!(f, "schedule: {msg}"),
            SecureLoopError::Checkpoint { path, message } => {
                write!(f, "checkpoint {path}: {message}")
            }
            SecureLoopError::Artifact(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SecureLoopError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SecureLoopError::Mapper(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MapperError> for SecureLoopError {
    fn from(e: MapperError) -> Self {
        SecureLoopError::Mapper(e)
    }
}

impl From<ArtifactError> for SecureLoopError {
    fn from(e: ArtifactError) -> Self {
        SecureLoopError::Artifact(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chain() {
        let m = MapperError::NoValidMapping {
            layer: "conv1".into(),
            samples: 10,
        };
        let e = SecureLoopError::from(m.clone());
        assert!(e.to_string().contains("conv1"));
        assert!(std::error::Error::source(&e).is_some());
        let e = SecureLoopError::Checkpoint {
            path: "/tmp/x.json".into(),
            message: "bad".into(),
        };
        assert!(e.to_string().contains("/tmp/x.json"));
    }
}
