//! Machine-readable experiment records.
//!
//! Every figure/table struct in [`crate::figures`] derives `Serialize`;
//! this module wraps one in a provenance envelope and writes it as
//! pretty JSON so downstream tooling (plotting scripts, regression
//! dashboards) can consume reproduction outputs without parsing text
//! reports.

use std::io;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// Why a record failed to reach disk — serialization and filesystem
/// failures stay distinguishable instead of both collapsing into a
/// generic `io::Error`.
#[derive(Debug)]
pub(crate) enum RecordError {
    /// The artifact failed to serialize.
    Serialize(serde_json::Error),
    /// The filesystem rejected the write.
    Io {
        /// Destination that could not be written.
        path: PathBuf,
        /// The underlying IO error.
        source: io::Error,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Serialize(e) => write!(f, "cannot serialize record: {e}"),
            RecordError::Io { path, source } => {
                write!(f, "cannot write {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for RecordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecordError::Serialize(_) => None,
            RecordError::Io { source, .. } => Some(source),
        }
    }
}

/// Provenance envelope around a serialized experiment artifact.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct Record<T> {
    /// Artifact identifier, e.g. `"fig8"`.
    pub(crate) name: String,
    /// Workspace version that produced the record.
    pub(crate) produced_by: String,
    /// Trials per experimental point.
    pub(crate) trials: usize,
    /// Base seed.
    pub(crate) seed: u64,
    /// The artifact itself.
    pub(crate) data: T,
}

impl<T: Serialize> Record<T> {
    /// Wraps `data` with provenance.
    pub(crate) fn new(name: &str, trials: usize, seed: u64, data: T) -> Self {
        Record {
            name: name.to_owned(),
            produced_by: format!("harvest-rt {}", env!("CARGO_PKG_VERSION")),
            trials,
            seed,
            data,
        }
    }

    /// Serializes the record as pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures (cannot occur for the figure
    /// types in this crate, which contain only plain data).
    pub(crate) fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Writes the record to `path`.
    ///
    /// # Errors
    ///
    /// Returns a typed [`RecordError`] naming whether serialization or
    /// the filesystem failed (and where).
    pub(crate) fn write_to(&self, path: &Path) -> Result<(), RecordError> {
        let json = self.to_json().map_err(RecordError::Serialize)?;
        std::fs::write(path, json).map_err(|source| RecordError::Io {
            path: path.to_owned(),
            source,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::source_figure;

    #[test]
    fn record_round_trips_through_json() {
        let fig = source_figure(3, 50);
        let record = Record::new("fig5", 1, 3, fig.clone());
        let json = record.to_json().unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value["name"], "fig5");
        assert_eq!(value["seed"], 3);
        assert_eq!(value["data"]["power"].as_array().unwrap().len(), 50);
        assert!(value["produced_by"]
            .as_str()
            .unwrap()
            .starts_with("harvest-rt"));
    }

    #[test]
    fn write_errors_are_typed_and_name_the_path() {
        let record = Record::new("fig5", 1, 0, source_figure(0, 5));
        let bad = std::env::temp_dir()
            .join("harvest-rt-no-such-dir")
            .join("x.json");
        let err = record.write_to(&bad).unwrap_err();
        match &err {
            RecordError::Io { path, .. } => assert_eq!(path, &bad),
            other => panic!("expected Io error, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(
            msg.contains("cannot write") && msg.contains("x.json"),
            "{msg}"
        );
    }

    #[test]
    fn write_to_creates_file() {
        let dir = std::env::temp_dir().join("harvest_rt_record_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig5.json");
        let record = Record::new("fig5", 1, 0, source_figure(0, 10));
        record.write_to(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.contains("\"fig5\""));
        std::fs::remove_file(&path).ok();
    }
}
