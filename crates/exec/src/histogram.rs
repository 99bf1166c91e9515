//! Fixed log-spaced latency histogram for evaluation timings.

/// Number of buckets; see [`LatencyHistogram`] for their bounds.
pub const BUCKETS: usize = 24;

/// A latency histogram with fixed log-spaced (power-of-two) buckets.
///
/// Bucket `0` holds durations below 1 µs; every further bucket doubles
/// the boundary (`1–2 µs`, `2–4 µs`, …), and the last bucket is
/// unbounded (≥ ~4.2 s). Fixed buckets keep the histogram mergeable
/// across workers and generations without rebinning, and cheap enough to
/// record every single evaluation.
///
/// # Examples
///
/// ```
/// use clre_exec::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// h.record(500);        // < 1 µs → bucket 0
/// h.record(3_000);      // 2–4 µs → bucket 2
/// h.record(u64::MAX);   // saturates into the last bucket
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.counts()[0], 1);
/// assert_eq!(h.counts()[2], 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
        }
    }

    /// The bucket index for a duration in nanoseconds.
    fn bucket(nanos: u64) -> usize {
        let micros = nanos / 1_000;
        if micros == 0 {
            0
        } else {
            ((micros.ilog2() as usize) + 1).min(BUCKETS - 1)
        }
    }

    /// Records one duration.
    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::bucket(nanos)] += 1;
    }

    /// Records `count` durations of `total_nanos / count` each: the mean
    /// of a run of evaluations timed together. Records nothing for
    /// `count == 0`.
    pub(crate) fn record_mean(&mut self, total_nanos: u64, count: usize) {
        if let Some(mean) = total_nanos.checked_div(count as u64) {
            self.counts[Self::bucket(mean)] += count as u64;
        }
    }

    /// Folds another histogram into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The per-bucket counts.
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Total number of recorded durations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Compact `|`-separated bucket counts, truncated after the last
    /// non-empty bucket (`-` when the histogram is empty) — the `hist=`
    /// field of the trace format.
    pub fn compact(&self) -> String {
        let last = match self.counts.iter().rposition(|&c| c > 0) {
            Some(i) => i,
            None => return "-".to_owned(),
        };
        self.counts[..=last]
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join("|")
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_spaced() {
        assert_eq!(LatencyHistogram::bucket(0), 0);
        assert_eq!(LatencyHistogram::bucket(999), 0);
        assert_eq!(LatencyHistogram::bucket(1_000), 1);
        assert_eq!(LatencyHistogram::bucket(1_999), 1);
        assert_eq!(LatencyHistogram::bucket(2_000), 2);
        assert_eq!(LatencyHistogram::bucket(4_000), 3);
        // Saturation into the final bucket.
        assert_eq!(LatencyHistogram::bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn floors_match_bucket_assignment() {
        // Bucket `i ≥ 1` starts at 2^(i-1) µs.
        for i in 1..BUCKETS {
            let floor = 1_000u64 << (i - 1);
            assert_eq!(LatencyHistogram::bucket(floor), i, "floor of bucket {i}");
            assert_eq!(LatencyHistogram::bucket(floor - 1), i - 1);
        }
    }

    #[test]
    fn merge_sums_bucketwise() {
        let mut a = LatencyHistogram::new();
        a.record(100);
        a.record(5_000);
        let mut b = LatencyHistogram::new();
        b.record(200);
        b.merge(&a);
        assert_eq!(b.total(), 3);
        assert_eq!(b.counts()[0], 2);
        assert_eq!(b.counts()[3], 1);
    }

    #[test]
    fn compact_truncates_trailing_zeros() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.compact(), "-");
        h.record(100);
        h.record(100);
        h.record(1_500);
        assert_eq!(h.compact(), "2|1");
    }
}
