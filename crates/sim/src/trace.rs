//! Trace accounting: count what happened during a run without keeping
//! it.
//!
//! A simulator that keeps its full trace stores the records itself;
//! one that only needs statistics tallies each emission here, by the
//! record's dense variant index.

/// Per-variant slots a [`CountingSink`] can track; kinds at or above
/// this index fold into the last slot.
pub(crate) const MAX_KINDS: usize = 8;

/// Counts records without retaining them — the sweep fast path: run
/// statistics with no per-record allocation. Totals are kept overall
/// *and* per record variant, so an emission is accounted through
/// [`CountingSink::bump_kind`] without its record ever being built.
///
/// # Examples
///
/// ```
/// use harvest_sim::trace::CountingSink;
///
/// let mut sink = CountingSink::new();
/// sink.bump_kind(0);
/// sink.bump_kind(1);
/// assert_eq!(sink.count(), 2);
/// assert_eq!(sink.kind_counts()[0], 1);
/// assert_eq!(sink.kind_counts()[1], 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    count: u64,
    kinds: [u64; MAX_KINDS],
}

impl CountingSink {
    /// Creates a sink with zero counts.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Number of emissions seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-kind totals (kinds at or above `MAX_KINDS` fold into the
    /// last slot).
    pub fn kind_counts(&self) -> &[u64; MAX_KINDS] {
        &self.kinds
    }

    /// Accounts one emission of the given kind without constructing its
    /// record.
    #[inline]
    pub fn bump_kind(&mut self, kind: usize) {
        self.count += 1;
        self.kinds[kind.min(MAX_KINDS - 1)] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_tracks_per_variant_totals() {
        let mut sink = CountingSink::new();
        sink.bump_kind(0);
        sink.bump_kind(1);
        sink.bump_kind(1);
        assert_eq!(sink.count(), 3);
        assert_eq!(sink.kind_counts()[0], 1);
        assert_eq!(sink.kind_counts()[1], 2);
        assert_eq!(sink.kind_counts().iter().sum::<u64>(), sink.count());
        // Out-of-range kinds fold into the last slot instead of panicking.
        sink.bump_kind(MAX_KINDS + 5);
        assert_eq!(sink.kind_counts()[MAX_KINDS - 1], 1);
    }
}
