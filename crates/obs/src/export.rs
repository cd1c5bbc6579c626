//! Streaming JSONL (one JSON value per line) export and import.
//!
//! Run artifacts are written as JSONL so a recorder can stream lines out as
//! they are produced without holding the whole artifact in memory, and so
//! downstream tooling can process artifacts line-by-line. Deserialization
//! goes through the same vendored serde stack, which makes round-tripping a
//! schema-drift check: `jsonl_to_vec::<T>` failing on what a `JsonlWriter`
//! wrote means `T`'s shape changed incompatibly.

use serde::{Deserialize, Serialize};
use std::io::{self, Write};

/// Streaming writer: one serialized value per `\n`-terminated line.
#[derive(Debug)]
pub struct JsonlWriter<W: Write> {
    inner: W,
    lines: u64,
}

impl<W: Write> JsonlWriter<W> {
    pub fn new(inner: W) -> Self {
        Self { inner, lines: 0 }
    }

    /// Serialize `value` and append it as one line.
    ///
    /// A serialized value that itself contains `\n` would silently split
    /// into two stream lines and corrupt every reader downstream, so it is
    /// rejected with [`io::ErrorKind::InvalidData`] in **all** build
    /// profiles (not just a debug assertion) and nothing is written.
    pub fn write<T: Serialize>(&mut self, value: &T) -> io::Result<()> {
        let json = serde_json::to_string(value).map_err(io::Error::other)?;
        self.write_json_line(&json)
    }

    /// Append one pre-serialized JSON value as a line, enforcing the
    /// single-line invariant.
    fn write_json_line(&mut self, json: &str) -> io::Result<()> {
        if json.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "serialized value contains a newline; it would corrupt the JSONL stream",
            ));
        }
        self.inner.write_all(json.as_bytes())?;
        self.inner.write_all(b"\n")?;
        self.lines += 1;
        Ok(())
    }

    /// Number of lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Parse a JSONL document into typed lines. Blank lines are skipped; any
/// malformed line aborts with its 1-based line number in the error.
pub fn jsonl_to_vec<T: Deserialize>(text: &str) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            serde_json::from_str::<T>(line).map_err(|e| format!("jsonl line {}: {}", i + 1, e))?;
        out.push(value);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Row {
        t: f64,
        label: String,
    }

    #[test]
    fn writer_emits_one_line_per_value() {
        let mut w = JsonlWriter::new(Vec::new());
        w.write(&Row {
            t: 1.5,
            label: "a".into(),
        })
        .unwrap();
        w.write(&Row {
            t: 2.0,
            label: "b".into(),
        })
        .unwrap();
        assert_eq!(w.lines(), 2);
        let buf = w.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        let back: Vec<Row> = jsonl_to_vec(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].label, "b");
    }

    #[test]
    fn round_trip_is_lossless() {
        let items = vec![
            Row {
                t: 0.125,
                label: "x".into(),
            },
            Row {
                t: -3.0,
                label: "".into(),
            },
        ];
        let mut w = JsonlWriter::new(Vec::new());
        for item in &items {
            w.write(item).unwrap();
        }
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        let back: Vec<Row> = jsonl_to_vec(&text).unwrap();
        assert_eq!(back, items);
    }

    #[test]
    fn multiline_values_error_in_every_profile() {
        // The vendored serializer escapes `\n` inside strings, so this can
        // only happen if the serializer changes (e.g. pretty printing) —
        // but then it must be a hard `io::Error`, not a debug assertion.
        let mut w = JsonlWriter::new(Vec::new());
        let err = w.write_json_line("{\"a\":\n1}").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(w.lines(), 0);
        // Nothing was written: the stream stays intact for the next value.
        w.write_json_line("{\"a\":1}").unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "{\"a\":1}\n");
    }

    #[test]
    fn blank_lines_skipped_and_errors_located() {
        let back: Vec<Row> = jsonl_to_vec("\n{\"t\":1.0,\"label\":\"ok\"}\n\n").unwrap();
        assert_eq!(back.len(), 1);
        let err = jsonl_to_vec::<Row>("{\"t\":1.0,\"label\":\"ok\"}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}
