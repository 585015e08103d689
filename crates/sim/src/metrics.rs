//! Measurement primitives: counters, duration histograms, and windowed
//! rate estimators.
//!
//! The rate estimator is load-bearing for the mechanism itself, not just
//! for reporting: each IAgent "maintain[s] running statistics of the
//! requests received" and compares the observed message *rate* against the
//! `T_max` / `T_min` thresholds to decide when to split or merge.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::time::{SimDuration, SimTime};

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    #[must_use]
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[must_use]
    pub const fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A histogram of durations that keeps every sample, supporting exact
/// means and percentiles.
///
/// An experiment records one location time per completed locate in its
/// measured window, so exact storage (8 bytes a sample) stays cheap and
/// avoids bucketing artefacts in the reproduced figures. The samples are
/// sorted on the first percentile query after a record.
///
/// # Examples
///
/// ```
/// use agentrack_sim::{Histogram, SimDuration};
///
/// let mut h = Histogram::new();
/// for ms in [1u64, 2, 3, 4] {
///     h.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(h.len(), 4);
/// assert_eq!(h.mean(), SimDuration::from_micros(2500));
/// assert_eq!(h.percentile(50.0), SimDuration::from_millis(2));
/// assert_eq!(h.max(), SimDuration::from_millis(4));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Every sample, in nanoseconds.
    samples: Vec<u64>,
    /// `samples` is sorted.
    sorted: bool,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        if self.is_empty() || ns < self.min_ns {
            self.min_ns = ns;
        }
        self.max_ns = self.max_ns.max(ns);
        self.sum_ns += u128::from(ns);
        self.sorted = false;
        self.samples.push(ns);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or zero when empty.
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        if self.is_empty() {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / self.len() as u128) as u64)
    }

    /// The `p`-th percentile (nearest-rank), or zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 100]`.
    #[must_use]
    pub fn percentile(&mut self, p: f64) -> SimDuration {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.is_empty() {
            return SimDuration::ZERO;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let rank = ((p / 100.0) * self.len() as f64).ceil() as usize;
        SimDuration::from_nanos(self.samples[rank.saturating_sub(1)])
    }

    /// Smallest sample, or zero when empty.
    #[must_use]
    pub fn min(&self) -> SimDuration {
        SimDuration::from_nanos(self.min_ns)
    }

    /// Largest sample, or zero when empty.
    #[must_use]
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }
}

impl Extend<SimDuration> for Histogram {
    fn extend<T: IntoIterator<Item = SimDuration>>(&mut self, iter: T) {
        for d in iter {
            self.record(d);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "histogram(n={}, mean={})", self.len(), self.mean())
    }
}

/// A fixed-size histogram over power-of-two nanosecond buckets.
///
/// Where [`Histogram`] keeps every sample (exact, but unbounded), this
/// keeps 48 log₂ buckets — enough to span sub-nanosecond noise up to
/// ~1.6 virtual days — so per-phase latency aggregation over arbitrarily
/// long traces stays O(1) in memory and two histograms merge by adding
/// counts. Durations past the top bucket saturate into it rather than
/// being dropped.
///
/// # Examples
///
/// ```
/// use agentrack_sim::{LogHistogram, SimDuration};
///
/// let mut h = LogHistogram::new();
/// h.record(SimDuration::from_nanos(100));
/// h.record(SimDuration::from_nanos(100));
/// h.record(SimDuration::from_millis(1));
/// assert_eq!(h.len(), 3);
/// // Nearest-rank percentiles resolve to the bucket's upper bound.
/// assert_eq!(h.percentile(50.0), SimDuration::from_nanos(127));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; LogHistogram::BUCKETS],
    total: u64,
    sum: u128,
}

impl LogHistogram {
    /// Number of buckets: bucket 0 holds exact zeros, bucket *i* holds
    /// durations in `[2^(i-1), 2^i)` nanoseconds, and the last bucket
    /// additionally absorbs everything larger (saturation).
    pub const BUCKETS: usize = 48;

    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            counts: [0; Self::BUCKETS],
            total: 0,
            sum: 0,
        }
    }

    fn bucket_of(d: SimDuration) -> usize {
        let n = d.as_nanos();
        if n == 0 {
            return 0;
        }
        ((64 - n.leading_zeros()) as usize).min(Self::BUCKETS - 1)
    }

    /// Upper bound (inclusive) of bucket `i`, the value percentile
    /// queries resolve to.
    ///
    /// # Panics
    ///
    /// Panics if `i >= Self::BUCKETS`.
    #[must_use]
    pub fn bucket_upper(i: usize) -> SimDuration {
        assert!(i < Self::BUCKETS, "bucket index out of range");
        if i == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((1u64 << i) - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.counts[Self::bucket_of(d)] += 1;
        self.total += 1;
        self.sum += u128::from(d.as_nanos());
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Number of samples recorded.
    #[must_use]
    pub const fn len(&self) -> u64 {
        self.total
    }

    /// `true` if no samples have been recorded.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact arithmetic mean (tracked alongside the buckets), or zero
    /// when empty.
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum / u128::from(self.total)) as u64)
    }

    /// The `p`-th percentile (nearest-rank over buckets), reported as the
    /// matching bucket's upper bound; zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(Self::BUCKETS - 1)
    }

    /// Per-bucket counts, index 0 first.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Extend<SimDuration> for LogHistogram {
    fn extend<T: IntoIterator<Item = SimDuration>>(&mut self, iter: T) {
        for d in iter {
            self.record(d);
        }
    }
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "log-histogram(n={}, mean={})", self.total, self.mean())
    }
}

/// One stripe of an [`AtomicLogHistogram`]: a full bucket array plus a
/// nanosecond sum, all independently updatable with relaxed atomics.
struct AtomicStripe {
    counts: [AtomicU64; LogHistogram::BUCKETS],
    /// Low word of the stripe's exact sample sum. Wraps freely; each
    /// `fetch_add` that wraps it bumps `sum_hi` by exactly one (the adds
    /// serialise atomically, so the adder that observes the wrap is
    /// unique), making `sum_hi << 64 | sum_lo` exact at quiesce.
    sum_lo: AtomicU64,
    sum_hi: AtomicU64,
}

impl AtomicStripe {
    fn new() -> Self {
        AtomicStripe {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_lo: AtomicU64::new(0),
            sum_hi: AtomicU64::new(0),
        }
    }
}

/// Hands every recording thread a stable stripe token on first use, so
/// threads spread across stripes without hashing a `ThreadId` per call.
fn stripe_token() -> usize {
    static NEXT_TOKEN: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static TOKEN: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    TOKEN.with(|t| {
        let mut v = t.get();
        if v == usize::MAX {
            v = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
            t.set(v);
        }
        v
    })
}

/// A lock-free, concurrently writable variant of [`LogHistogram`].
///
/// Same power-of-two nanosecond buckets, same saturation at the top
/// bucket — but recording is a single relaxed `fetch_add` into one of a
/// power-of-two set of *stripes*, each thread sticking to the stripe its
/// token selects, so concurrent recorders on different threads never
/// contend on a cache line. [`snapshot`](AtomicLogHistogram::snapshot)
/// folds the stripes into an ordinary [`LogHistogram`], which merges,
/// reports percentiles, and serialises like any other.
///
/// Snapshots taken while writers are active are *per-bucket consistent*
/// (every count read was really recorded, the total is derived from the
/// counts actually read, nothing is double-counted); at quiesce a
/// snapshot is exact and equals the [`LogHistogram`] the same samples
/// would have produced in any recording order.
///
/// # Examples
///
/// ```
/// use agentrack_sim::{AtomicLogHistogram, LogHistogram, SimDuration};
///
/// let h = AtomicLogHistogram::new(4);
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             for ms in [1u64, 2, 3] {
///                 h.record(SimDuration::from_millis(ms));
///             }
///         });
///     }
/// });
/// let snap = h.snapshot();
/// assert_eq!(snap.len(), 12);
///
/// // The snapshot agrees with a sequential LogHistogram of the samples.
/// let mut seq = LogHistogram::new();
/// for _ in 0..4 {
///     for ms in [1u64, 2, 3] {
///         seq.record(SimDuration::from_millis(ms));
///     }
/// }
/// assert_eq!(snap, seq);
/// ```
pub struct AtomicLogHistogram {
    stripes: Box<[AtomicStripe]>,
    mask: usize,
}

impl AtomicLogHistogram {
    /// Creates an empty histogram with `stripes` stripes (rounded up to
    /// a power of two, minimum 1). One stripe is ~400 bytes; 8 is plenty
    /// for a handful of recording threads, 1 minimises memory when
    /// contention is impossible.
    #[must_use]
    pub fn new(stripes: usize) -> Self {
        let n = stripes.max(1).next_power_of_two();
        AtomicLogHistogram {
            stripes: (0..n).map(|_| AtomicStripe::new()).collect(),
            mask: n - 1,
        }
    }

    /// Records one duration sample. Lock-free; callable from any thread.
    pub fn record(&self, d: SimDuration) {
        self.record_value(d.as_nanos());
    }

    /// Records one raw `u64` sample into the same log₂ buckets — for
    /// dimensionless quantities (batch occupancy, queue depths) that
    /// want bounded-memory percentiles without pretending to be time.
    pub fn record_value(&self, v: u64) {
        let stripe = &self.stripes[stripe_token() & self.mask];
        let bucket = LogHistogram::bucket_of(SimDuration::from_nanos(v));
        stripe.counts[bucket].fetch_add(1, Ordering::Relaxed);
        let prev = stripe.sum_lo.fetch_add(v, Ordering::Relaxed);
        if prev.checked_add(v).is_none() {
            stripe.sum_hi.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds every stripe into a plain [`LogHistogram`]. The total is
    /// derived from the bucket counts read, so percentile queries on the
    /// snapshot are always internally consistent, even if writers were
    /// active during the fold.
    #[must_use]
    pub fn snapshot(&self) -> LogHistogram {
        let mut counts = [0u64; LogHistogram::BUCKETS];
        let mut sum = 0u128;
        for stripe in self.stripes.iter() {
            for (mine, theirs) in counts.iter_mut().zip(stripe.counts.iter()) {
                *mine += theirs.load(Ordering::Relaxed);
            }
            let hi = stripe.sum_hi.load(Ordering::Relaxed);
            let lo = stripe.sum_lo.load(Ordering::Relaxed);
            sum = sum.wrapping_add((u128::from(hi) << 64) | u128::from(lo));
        }
        let total = counts.iter().sum();
        LogHistogram { counts, total, sum }
    }

    /// Number of samples recorded so far (a snapshot-level sum).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.stripes
            .iter()
            .flat_map(|s| s.counts.iter())
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// `true` if no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for AtomicLogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomicLogHistogram")
            .field("stripes", &self.stripes.len())
            .field("len", &self.len())
            .finish()
    }
}

/// Sliding-window message-rate estimator: the "running statistics of the
/// requests received" each IAgent maintains (paper §4).
///
/// The window is divided into fixed buckets so memory stays bounded no
/// matter how hot an IAgent gets; the rate is the bucket total divided by
/// the covered span.
///
/// # Examples
///
/// ```
/// use agentrack_sim::{SimDuration, SimTime, WindowedRate};
///
/// let mut rate = WindowedRate::new(SimDuration::from_secs(1), 10);
/// let mut t = SimTime::ZERO;
/// // 100 events over one second → ~100 msg/s.
/// for _ in 0..100 {
///     rate.record(t);
///     t += SimDuration::from_millis(10);
/// }
/// let estimate = rate.rate_per_sec(t);
/// assert!((90.0..=110.0).contains(&estimate), "{estimate}");
/// ```
#[derive(Debug, Clone)]
pub struct WindowedRate {
    bucket_width: SimDuration,
    bucket_count: usize,
    /// (bucket start, events in bucket); oldest first.
    buckets: VecDeque<(SimTime, u64)>,
}

impl WindowedRate {
    /// Creates an estimator over `window`, divided into `buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `buckets == 0`.
    #[must_use]
    pub fn new(window: SimDuration, buckets: usize) -> Self {
        assert!(!window.is_zero() && buckets > 0, "degenerate rate window");
        assert!(
            window.as_nanos() >= buckets as u64,
            "window too small for the bucket count (bucket width would be zero)"
        );
        WindowedRate {
            bucket_width: window / buckets as u64,
            bucket_count: buckets,
            buckets: VecDeque::with_capacity(buckets + 1),
        }
    }

    fn bucket_start(&self, at: SimTime) -> SimTime {
        let w = self.bucket_width.as_nanos();
        SimTime::from_nanos(at.as_nanos() / w * w)
    }

    fn evict(&mut self, now: SimTime) {
        let window = self.bucket_width * self.bucket_count as u64;
        while let Some(&(start, _)) = self.buckets.front() {
            // A bucket covers [start, start + width); drop it once it lies
            // entirely before the window [now - window, now].
            if now.saturating_since(start + self.bucket_width) >= window {
                self.buckets.pop_front();
            } else {
                break;
            }
        }
    }

    /// Records one message at `at`. Timestamps must be non-decreasing;
    /// an out-of-order timestamp is clamped into the newest bucket (the
    /// deque stays sorted, so eviction and rate queries stay correct)
    /// and trips a `debug_assert!`.
    pub fn record(&mut self, at: SimTime) {
        let mut start = self.bucket_start(at);
        if let Some(&(newest, _)) = self.buckets.back() {
            debug_assert!(
                start >= newest,
                "WindowedRate::record called with an out-of-order timestamp \
                 ({at} precedes bucket starting at {newest})"
            );
            start = start.max(newest);
        }
        match self.buckets.back_mut() {
            Some((s, count)) if *s == start => *count += 1,
            _ => self.buckets.push_back((start, 1)),
        }
        self.evict(at);
    }

    /// Estimated message rate per second over the window ending at `now`.
    #[must_use]
    pub fn rate_per_sec(&mut self, now: SimTime) -> f64 {
        self.evict(now);
        let events: u64 = self.buckets.iter().map(|&(_, c)| c).sum();
        let window = self.bucket_width * self.bucket_count as u64;
        if window.is_zero() {
            return 0.0;
        }
        events as f64 / window.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.to_string(), "5");
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
        h.extend((1..=100).map(SimDuration::from_millis));
        assert_eq!(h.len(), 100);
        assert_eq!(h.mean(), SimDuration::from_micros(50_500));
        assert_eq!(h.percentile(50.0), SimDuration::from_millis(50));
        assert_eq!(h.percentile(99.0), SimDuration::from_millis(99));
        assert_eq!(h.percentile(100.0), SimDuration::from_millis(100));
        assert_eq!(h.min(), SimDuration::from_millis(1));
        assert_eq!(h.max(), SimDuration::from_millis(100));
        assert!(h.to_string().contains("n=100"));
    }

    #[test]
    fn many_samples_answer_like_a_sorted_list() {
        // A long stream with repeats, zeros, gaps wider than one byte and
        // a few samples of 2^32 ns and more.
        let mut h = Histogram::new();
        let mut all = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..(3 * 16_384 + 777) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ns = match i % 97 {
                0 => 0,
                1 => 5_000_000_000 + x % 1000,
                2 => u64::from(u32::MAX),
                _ => 100_000 + x % 3_000_000,
            };
            h.record(SimDuration::from_nanos(ns));
            all.push(ns);
        }
        all.sort_unstable();
        let n = all.len();
        assert_eq!(h.len(), n);
        assert_eq!(h.min(), SimDuration::from_nanos(all[0]));
        assert_eq!(h.max(), SimDuration::from_nanos(all[n - 1]));
        let sum: u128 = all.iter().map(|&ns| u128::from(ns)).sum();
        assert_eq!(h.mean(), SimDuration::from_nanos((sum / n as u128) as u64));
        for p in [0.0, 0.1, 1.0, 25.0, 50.0, 95.0, 98.5, 99.0, 99.9, 100.0] {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            let want = SimDuration::from_nanos(all[rank.saturating_sub(1)]);
            assert_eq!(h.percentile(p), want, "p{p}");
        }
        // Recording after a query sorts again and stays exact.
        h.extend((0..16_384).map(SimDuration::from_nanos));
        assert_eq!(h.len(), n + 16_384);
        assert_eq!(h.percentile(0.0), SimDuration::ZERO);
    }

    #[test]
    fn histogram_is_exact_across_the_half_width_boundary() {
        // Samples of 1..=10 s straddle 2^32 ns (≈ 4.29 s), recorded out
        // of order: the statistics must read as one sorted sequence.
        let mut h = Histogram::new();
        h.extend([7u64, 2, 10, 4, 5, 1, 9, 3, 8, 6].map(SimDuration::from_secs));
        h.record(SimDuration::from_nanos(u32::MAX.into()));
        assert_eq!(h.len(), 11);
        assert_eq!(h.min(), SimDuration::from_secs(1));
        assert_eq!(h.max(), SimDuration::from_secs(10));
        assert_eq!(h.percentile(30.0), SimDuration::from_secs(4));
        assert_eq!(h.percentile(45.0), SimDuration::from_nanos(u32::MAX.into()));
        assert_eq!(h.percentile(50.0), SimDuration::from_secs(5));
        assert_eq!(h.percentile(100.0), SimDuration::from_secs(10));
        let total = 55_000_000_000u64 + u64::from(u32::MAX);
        assert_eq!(h.mean(), SimDuration::from_nanos(total / 11));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_checks_range() {
        let mut h = Histogram::new();
        let _ = h.percentile(101.0);
    }

    #[test]
    fn empty_histograms_report_zero_everywhere() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(0.0), SimDuration::ZERO);
        assert_eq!(h.percentile(50.0), SimDuration::ZERO);
        assert_eq!(h.percentile(100.0), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);

        let l = LogHistogram::new();
        assert!(l.is_empty());
        assert_eq!(l.mean(), SimDuration::ZERO);
        assert_eq!(l.percentile(0.0), SimDuration::ZERO);
        assert_eq!(l.percentile(99.9), SimDuration::ZERO);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_millis(7));
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), SimDuration::from_millis(7));
        }

        let mut l = LogHistogram::new();
        l.record(SimDuration::from_nanos(1000));
        // 1000 ns lands in bucket 10 ([512, 1024)), upper bound 1023.
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(l.percentile(p), SimDuration::from_nanos(1023));
        }
        assert_eq!(l.mean(), SimDuration::from_nanos(1000));
    }

    #[test]
    fn log_histogram_merge_combines_disjoint_ranges() {
        // One histogram of fast samples, one of slow ones: after the
        // merge the percentile sweep must cross both bucket ranges.
        let mut fast = LogHistogram::new();
        fast.extend((0..10).map(|_| SimDuration::from_nanos(100)));
        let mut slow = LogHistogram::new();
        slow.extend((0..10).map(|_| SimDuration::from_millis(100)));

        let mut merged = fast.clone();
        merged.merge(&slow);
        assert_eq!(merged.len(), 20);
        assert_eq!(merged.percentile(25.0), fast.percentile(50.0));
        assert_eq!(merged.percentile(75.0), slow.percentile(50.0));
        // The exact sum survives the merge.
        let want = (10 * 100 + 10 * 100_000_000) / 20;
        assert_eq!(merged.mean(), SimDuration::from_nanos(want));
    }

    #[test]
    fn log_histogram_saturates_at_the_top_bucket() {
        let mut l = LogHistogram::new();
        // ~11.6 virtual days: far past the top bucket's nominal range.
        let huge = SimDuration::from_secs(1_000_000);
        l.record(huge);
        l.record(SimDuration::from_nanos(u64::MAX));
        let top = LogHistogram::bucket_upper(LogHistogram::BUCKETS - 1);
        assert_eq!(l.percentile(50.0), top);
        assert_eq!(l.percentile(100.0), top);
        assert_eq!(l.counts()[LogHistogram::BUCKETS - 1], 2);
        // Zero goes to bucket 0, never the saturated end.
        l.record(SimDuration::ZERO);
        assert_eq!(l.counts()[0], 1);
        assert_eq!(l.percentile(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn log_percentile_checks_range() {
        let l = LogHistogram::new();
        let _ = l.percentile(-0.5);
    }

    #[test]
    fn atomic_log_histogram_matches_sequential_recording() {
        let atomic = AtomicLogHistogram::new(3); // rounds up to 4 stripes
        let mut seq = LogHistogram::new();
        for n in [0u64, 1, 100, 1_000, 1_000_000, u64::MAX] {
            atomic.record(SimDuration::from_nanos(n));
            seq.record(SimDuration::from_nanos(n));
        }
        assert_eq!(atomic.len(), 6);
        assert!(!atomic.is_empty());
        assert_eq!(atomic.snapshot(), seq);
        assert_eq!(atomic.snapshot().percentile(50.0), seq.percentile(50.0));
    }

    #[test]
    fn atomic_log_histogram_concurrent_recorders_lose_nothing() {
        let h = AtomicLogHistogram::new(8);
        let threads = 4;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = &h;
                s.spawn(move || {
                    for i in 0..per_thread {
                        h.record_value(t * per_thread + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.len(), threads * per_thread);
        let mut seq = LogHistogram::new();
        for v in 0..threads * per_thread {
            seq.record(SimDuration::from_nanos(v));
        }
        // Same multiset of samples in a different order and stripe
        // layout: the folded snapshot must be identical.
        assert_eq!(snap, seq);
    }

    #[test]
    fn atomic_log_histogram_empty_snapshot_is_empty() {
        let h = AtomicLogHistogram::new(1);
        assert!(h.is_empty());
        assert_eq!(h.snapshot(), LogHistogram::new());
    }

    #[test]
    fn rate_tracks_steady_stream() {
        let mut r = WindowedRate::new(SimDuration::from_secs(1), 10);
        let mut t = SimTime::ZERO;
        for _ in 0..500 {
            r.record(t);
            t += SimDuration::from_millis(2); // 500 msg/s
        }
        let est = r.rate_per_sec(t);
        assert!((450.0..=550.0).contains(&est), "rate estimate {est}");
    }

    #[test]
    fn rate_decays_after_the_stream_stops() {
        let mut r = WindowedRate::new(SimDuration::from_secs(1), 10);
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            r.record(t);
            t += SimDuration::from_millis(10);
        }
        assert!(r.rate_per_sec(t) > 50.0);
        // Ten seconds of silence: the window has rolled past every event.
        let later = t + SimDuration::from_secs(10);
        assert_eq!(r.rate_per_sec(later), 0.0);
    }

    #[test]
    fn rate_of_a_burst_is_averaged_over_the_window() {
        let mut r = WindowedRate::new(SimDuration::from_secs(1), 10);
        let t = SimTime::ZERO + SimDuration::from_secs(5);
        for _ in 0..300 {
            r.record(t);
        }
        // 300 events in one instant over a 1 s window.
        let est = r.rate_per_sec(t);
        assert!((250.0..=350.0).contains(&est), "burst estimate {est}");
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_window_panics() {
        let _ = WindowedRate::new(SimDuration::ZERO, 4);
    }

    /// Regression: an out-of-order timestamp used to push a bucket with
    /// an *older* start behind the newest one, breaking the deque's
    /// sorted invariant — eviction would then stop at the misplaced
    /// bucket and the rate estimate counted stale events forever. The
    /// invariant now trips a `debug_assert!`, and in release builds the
    /// sample is clamped into the newest bucket.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out-of-order timestamp")]
    fn out_of_order_record_asserts_in_debug() {
        let mut r = WindowedRate::new(SimDuration::from_secs(1), 10);
        r.record(SimTime::ZERO + SimDuration::from_millis(500));
        r.record(SimTime::ZERO + SimDuration::from_millis(100));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn out_of_order_record_is_clamped_in_release() {
        let mut r = WindowedRate::new(SimDuration::from_secs(1), 10);
        r.record(SimTime::ZERO + SimDuration::from_millis(500));
        // 400 ms out of order: lands in the newest bucket, not behind it.
        r.record(SimTime::ZERO + SimDuration::from_millis(100));
        // Both events count: two in a 1 s window.
        assert_eq!(
            r.rate_per_sec(SimTime::ZERO + SimDuration::from_millis(500)),
            2.0
        );
        // The deque must stay sorted so the window keeps rolling: after
        // ten quiet seconds both events are outside the window.
        let later = SimTime::ZERO + SimDuration::from_secs(11);
        assert_eq!(r.rate_per_sec(later), 0.0);
    }
}
