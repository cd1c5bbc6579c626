//! Campaign telemetry bundle: spans + progress.
//!
//! The figure drivers ([`crate::figures`]) accept one
//! [`CampaignTelemetry`] value describing which observers a campaign
//! wants. Everything defaults to off, and the off path is one `None`
//! check per site — the pinned Fig. 5–9 digests and the sweep-bench warm
//! path run with a default (disabled) bundle and stay bit-identical.
//!
//! - **Spans** ([`harvest_obs::span`]): the driver holds the shared
//!   [`SpanCollector`]; each worker gets a buffering
//!   [`SpanSink`] via `CampaignTelemetry::sink`. `exp sweep --trace`
//!   exports the collector as Chrome-trace JSON.
//! - **Progress** ([`harvest_obs::progress`]): a shared
//!   [`ProgressReporter`] receives one event per decided cell; the
//!   driver opens the stream, the CLI closes it.
//!
//! A failed cell is inspected by replaying it from its key
//! (`exp record --key`), not by recording every cell as it runs.

use std::sync::Arc;

use harvest_obs::progress::{CellDecision, ProgressReporter};
use harvest_obs::span::{SpanCollector, SpanSink};

/// The observers one campaign run carries. `Default` is fully disabled.
#[derive(Debug, Clone, Default)]
pub struct CampaignTelemetry {
    /// Span collector for `--trace` (Chrome-trace export).
    pub spans: Option<Arc<SpanCollector>>,
    /// Progress reporter for `--progress` / live stderr heartbeats.
    pub progress: Option<Arc<ProgressReporter>>,
}

impl CampaignTelemetry {
    /// The disabled bundle (what the uninstrumented entry points pass).
    pub fn off() -> Self {
        CampaignTelemetry::default()
    }

    /// True when no observer is installed at all.
    pub(crate) fn is_off(&self) -> bool {
        self.spans.is_none() && self.progress.is_none()
    }

    /// A span sink on track `tid` (worker index + 1; 0 is the driver),
    /// when spans are on.
    pub(crate) fn sink(&self, tid: u32) -> Option<SpanSink> {
        self.spans.as_ref().map(|c| c.sink(tid))
    }

    /// Report one decided cell, when progress is on.
    pub(crate) fn cell(&self, decision: CellDecision, key: &str, worker: usize) {
        if let Some(p) = &self.progress {
            p.cell(decision, key, worker);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bundle_is_off() {
        let t = CampaignTelemetry::default();
        assert!(t.is_off());
        assert!(t.sink(1).is_none());
        // cell() on a disabled bundle is a no-op, not a panic.
        t.cell(CellDecision::Hit, "k", 0);
    }
}
