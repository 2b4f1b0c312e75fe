//! Log-bucketed histograms for latency (and other positive-magnitude)
//! distributions.
//!
//! Buckets grow geometrically by `2^(1/4)` (~19% wide) from 1 ns, which
//! keeps any quantile estimate within ~±9% of the true value — plenty
//! for p50/p95/p99 dashboards — while the whole histogram stays a fixed
//! 256 × u64 array: no allocation per observation, trivially mergeable,
//! and safe to park behind a mutex on a query path.

/// Number of buckets. `1e-9 * 2^(255/4)` ≈ 1.6e10, so the range covers
/// nanoseconds through ~500 years of seconds (or counts up to 1.6e10).
const BUCKETS: usize = 256;

/// Lower edge of bucket 0.
const MIN_VALUE: f64 = 1e-9;

/// Buckets per doubling.
const SUBDIV: f64 = 4.0;

/// A fixed-size log-bucketed histogram over positive values.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Observations dropped because they were NaN/inf/negative.
    non_finite: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            non_finite: 0,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.p50())
            .field("p95", &self.p95())
            .field("p99", &self.p99())
            .finish()
    }
}

/// The bucket a finite nonnegative value lands in. Exposed crate-wide
/// so the flight recorder can compare latencies at bucket granularity
/// ("lands in the top bucket" is a bucket-index comparison, not a float
/// threshold).
pub(crate) fn bucket_of(v: f64) -> usize {
    if v <= MIN_VALUE {
        return 0;
    }
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "v >= MIN_VALUE makes the log nonnegative; idx is clamped below"
    )]
    let idx = ((v / MIN_VALUE).log2() * SUBDIV) as usize;
    idx.min(BUCKETS - 1)
}

/// Geometric midpoint of bucket `i`, the value quantiles report.
fn bucket_mid(i: usize) -> f64 {
    MIN_VALUE * ((i as f64 + 0.5) / SUBDIV).exp2()
}

/// Upper edge of bucket `i` — the Prometheus `le` bound of the bucket.
fn bucket_upper(i: usize) -> f64 {
    MIN_VALUE * ((i as f64 + 1.0) / SUBDIV).exp2()
}

impl Histogram {
    /// Records one observation. Non-finite or negative values are
    /// counted separately and excluded from the distribution — a NaN
    /// latency must never look like a fast query.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            self.non_finite += 1;
            return;
        }
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total recorded (finite) observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations rejected as non-finite or negative.
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) estimated from bucket
    /// midpoints and clamped into `[min, max]`.
    ///
    /// Edge policy:
    ///
    /// * `q <= 0.0` returns the exact recorded minimum and `q >= 1.0`
    ///   the exact recorded maximum — never a bucket midpoint, so the
    ///   extremes round-trip losslessly;
    /// * an empty histogram (including one that only ever saw
    ///   non-finite/negative observations, which are quarantined by
    ///   [`record`](Histogram::record)) reports `0.0` for every
    ///   quantile, matching [`min`](Histogram::min) and
    ///   [`max`](Histogram::max);
    /// * a NaN `q` is treated as `0.0` (the conservative end), so a
    ///   corrupted quantile request degrades to the minimum rather
    ///   than propagating NaN into dashboards.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "q is in (0, 1), so the rank is within [0, count]"
        )]
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// `(upper_edge, count)` for every non-empty bucket, in ascending
    /// edge order — the raw material for Prometheus `_bucket` series
    /// (callers accumulate the cumulative `le` counts).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.non_finite += other.non_finite;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn single_observation_is_its_own_quantiles() {
        let mut h = Histogram::default();
        h.record(0.004);
        // Clamping to [min, max] makes every quantile exactly the sample.
        assert_eq!(h.p50(), 0.004);
        assert_eq!(h.p99(), 0.004);
        assert_eq!(h.min(), 0.004);
        assert_eq!(h.max(), 0.004);
        assert!((h.mean() - 0.004).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_log_bucket_accurate() {
        // 1..=1000 microseconds uniformly: p50 ≈ 500us, p95 ≈ 950us,
        // p99 ≈ 990us, each within one ~19% bucket.
        let mut h = Histogram::default();
        for us in 1..=1000 {
            h.record(us as f64 * 1e-6);
        }
        let within = |est: f64, truth: f64| (est / truth) > 0.8 && (est / truth) < 1.25;
        assert!(within(h.p50(), 500e-6), "p50 = {}", h.p50());
        assert!(within(h.p95(), 950e-6), "p95 = {}", h.p95());
        assert!(within(h.p99(), 990e-6), "p99 = {}", h.p99());
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1e-6);
        assert_eq!(h.max(), 1000e-6);
    }

    #[test]
    fn non_finite_and_negative_are_quarantined() {
        let mut h = Histogram::default();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-1.0);
        h.record(0.5);
        assert_eq!(h.count(), 1);
        assert_eq!(h.non_finite(), 3);
        assert_eq!(h.p50(), 0.5);
    }

    #[test]
    fn extremes_clamp_into_the_edge_buckets() {
        let mut h = Histogram::default();
        h.record(0.0); // below MIN_VALUE -> bucket 0
        h.record(1e12); // beyond the last bucket -> clamped
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1e12);
    }

    #[test]
    fn quantile_edges_are_exact_min_and_max() {
        let mut h = Histogram::default();
        for us in 1..=1000 {
            h.record(us as f64 * 1e-6);
        }
        // q=0 / q=1 return the exact extremes, not bucket midpoints.
        assert_eq!(h.quantile(0.0), 1e-6);
        assert_eq!(h.quantile(1.0), 1000e-6);
        // Out-of-range q clamps to the same exact extremes.
        assert_eq!(h.quantile(-3.0), 1e-6);
        assert_eq!(h.quantile(7.0), 1000e-6);
    }

    #[test]
    fn quantile_nan_and_degenerate_histograms() {
        let mut h = Histogram::default();
        h.record(0.25);
        h.record(0.75);
        // NaN q degrades to q=0 (the minimum), never NaN.
        assert_eq!(h.quantile(f64::NAN), 0.25);

        // Empty histograms report 0 at every q, including the edges.
        let empty = Histogram::default();
        for q in [0.0, 0.5, 1.0, f64::NAN] {
            assert_eq!(empty.quantile(q), 0.0);
        }

        // A histogram that only saw quarantined values is still empty.
        let mut bad = Histogram::default();
        bad.record(f64::NAN);
        bad.record(-2.0);
        bad.record(f64::INFINITY);
        assert_eq!(bad.count(), 0);
        assert_eq!(bad.non_finite(), 3);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(bad.quantile(q), 0.0);
        }
    }

    #[test]
    fn nonzero_buckets_cover_the_distribution_in_order() {
        let mut h = Histogram::default();
        for us in 1..=1000 {
            h.record(us as f64 * 1e-6);
        }
        let buckets: Vec<(f64, u64)> = h.nonzero_buckets().collect();
        assert!(!buckets.is_empty());
        let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, h.count());
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "edges must ascend: {buckets:?}");
        }
        // Every observation sits at or below its bucket's upper edge
        // (up to one bucket of slack at the top for the max).
        let top_edge = buckets.last().map(|&(e, _)| e).unwrap_or(0.0);
        assert!(h.max() <= top_edge * 1.2, "max {} vs edge {top_edge}", h.max());
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for us in 1..=500 {
            a.record(us as f64 * 1e-6);
        }
        for us in 501..=1000 {
            b.record(us as f64 * 1e-6);
        }
        let mut whole = Histogram::default();
        for us in 1..=1000 {
            whole.record(us as f64 * 1e-6);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.p50(), whole.p50());
        assert_eq!(a.p99(), whole.p99());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }
}
