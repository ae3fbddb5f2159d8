//! Log-linear ("HDR-style") histograms.
//!
//! Values `< 2^sub_bits` get exact unit buckets; above that, each power-of-
//! two octave is split into `2^sub_bits` linear sub-buckets, bounding the
//! relative quantization error at `2^-sub_bits` (≈1.6% for the default 6
//! bits). Recording is O(1) (a leading-zeros count, one range check and
//! an add), percentile queries are one walk — no full sort of the sample
//! set, which is what lets the workload stats report p999 over millions
//! of FCTs without holding or sorting them.
//!
//! Memory is O(occupied range): a histogram stores counts only for the
//! buckets between its lowest and highest recorded value, starting empty
//! and widening when a record lands outside them. The full table would
//! be `(65 − sub_bits) << sub_bits` buckets — 3 776 (30 KB) at the default
//! 6 bits — which a per-flow histogram holding one latency never needs.

/// Default sub-bucket resolution: 64 linear buckets per octave.
pub const DEFAULT_SUB_BITS: u32 = 6;

/// A log-linear histogram over `u64` values.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    sub_bits: u32,
    /// Bucket index of `counts[0]`.
    lo: usize,
    /// Counts of buckets `lo..lo + counts.len()`; empty before the first
    /// record.
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new(DEFAULT_SUB_BITS)
    }
}

impl LogHistogram {
    pub fn new(sub_bits: u32) -> Self {
        assert!((1..=16).contains(&sub_bits), "sub_bits must be in 1..=16");
        LogHistogram {
            sub_bits,
            lo: 0,
            counts: Vec::new(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    #[inline]
    fn index(&self, v: u64) -> usize {
        let sub = self.sub_bits;
        if v < (1 << sub) {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let octave = msb - sub + 1;
        (((octave as usize) << sub) + ((v >> (msb - sub)) as usize)) - (1 << sub)
    }

    /// Inclusive lower edge of bucket `i`.
    fn bucket_low(&self, i: usize) -> u64 {
        let sub = self.sub_bits;
        if i < (1 << sub) {
            return i as u64;
        }
        let octave = (i >> sub) as u32;
        let within = (i & ((1usize << sub) - 1)) as u64;
        ((1u64 << sub) + within) << (octave - 1)
    }

    /// Inclusive upper edge of bucket `i` (its "highest equivalent value").
    fn bucket_high(&self, i: usize) -> u64 {
        let sub = self.sub_bits;
        if i < (1 << sub) {
            return i as u64;
        }
        let octave = (i >> sub) as u32;
        self.bucket_low(i) + ((1u64 << (octave - 1)) - 1)
    }

    /// Widens the stored range to take bucket `ix`. Always inlined: the
    /// compiler does not inline into a cold path on its own, and an
    /// outlined call taking `&mut self` would pin every field in memory.
    #[inline(always)]
    fn widen(&mut self, ix: usize) {
        (self.lo, self.counts) = widened(self.lo, std::mem::take(&mut self.counts), ix);
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        let ix = self.index(v);
        match self.counts.get_mut(ix.wrapping_sub(self.lo)) {
            Some(c) => *c += n,
            None => {
                self.widen(ix);
                self.counts[ix - self.lo] += n;
            }
        }
        self.total += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v as u128 * n as u128;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact observed minimum (not quantized). 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact observed maximum (not quantized). 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Heap bytes held: the stored bucket range.
    pub fn heap_bytes(&self) -> usize {
        self.counts.capacity() * size_of::<u64>()
    }

    /// Nearest-rank percentile (`p` in 0..=100): the highest equivalent
    /// value of the bucket holding the ⌈p% · count⌉-th smallest sample —
    /// within one bucket width of the exact sorted answer, clamped to the
    /// exact observed min/max. 0 when empty.
    pub fn value_at_percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bucket_high(self.lo + i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram (same resolution) into this one.
    pub fn merge(&mut self, o: &LogHistogram) {
        assert_eq!(self.sub_bits, o.sub_bits, "histogram resolutions differ");
        if let Some(last) = o.counts.len().checked_sub(1) {
            self.widen(o.lo);
            self.widen(o.lo + last);
            let from = o.lo - self.lo;
            for (a, b) in self.counts[from..].iter_mut().zip(&o.counts) {
                *a += b;
            }
        }
        self.total += o.total;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
        self.sum += o.sum;
    }

    /// Samples strictly above `v`, at bucket granularity: samples that
    /// landed in `v`'s own bucket count as *not* above — the same
    /// quantization rule the percentile queries use. Exact when `v` is a
    /// bucket edge (always, below `2^sub_bits`).
    pub fn count_above(&self, v: u64) -> u64 {
        let from = (self.index(v) + 1).saturating_sub(self.lo).min(self.counts.len());
        self.counts[from..].iter().sum()
    }

    /// Non-empty `(bucket_low, bucket_high, count)` triples, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_low(self.lo + i), self.bucket_high(self.lo + i), c))
            .collect()
    }

    /// The standard summary tuple `(p50, p99, p999)`.
    pub fn p50_p99_p999(&self) -> (u64, u64, u64) {
        (
            self.value_at_percentile(50.0),
            self.value_at_percentile(99.0),
            self.value_at_percentile(99.9),
        )
    }
}

/// `counts` stored from bucket `lo`, widened to take bucket `ix`. Upward
/// it grows like a `Vec`; downward it at least doubles the stored length,
/// so a falling stream re-copies the counts only O(log range) times.
/// Out of line and by value: the record path's call then cannot touch a
/// histogram's other fields, which stay in registers across a loop of
/// records.
#[cold]
#[inline(never)]
fn widened(lo: usize, mut counts: Vec<u64>, ix: usize) -> (usize, Vec<u64>) {
    if counts.is_empty() {
        return (ix, vec![0]);
    }
    if ix < lo {
        let new_lo = ix.min(lo.saturating_sub(counts.len()));
        let mut out = Vec::with_capacity(lo + counts.len() - new_lo);
        out.resize(lo - new_lo, 0);
        out.extend_from_slice(&counts);
        return (new_lo, out);
    }
    if ix >= lo + counts.len() {
        counts.resize(ix - lo + 1, 0);
    }
    (lo, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Exact nearest-rank on a sorted copy, same rank convention as the
    /// histogram.
    fn exact(vals: &mut [u64], p: f64) -> u64 {
        vals.sort_unstable();
        let rank = ((p / 100.0) * vals.len() as f64).ceil().max(1.0) as usize;
        vals[rank - 1]
    }

    /// The histogram's guarantee: the reported percentile lies in the same
    /// bucket as the exact answer, so it is ≥ exact and within one bucket
    /// width above it.
    fn assert_within_one_bucket(h: &LogHistogram, vals: &mut [u64], p: f64) {
        let e = exact(vals, p);
        let got = h.value_at_percentile(p);
        let width = (e >> DEFAULT_SUB_BITS).max(1);
        assert!(
            got >= e.min(h.max()) && got <= e.saturating_add(width),
            "p{p}: hist {got} vs exact {e} (width {width})"
        );
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::default();
        for v in [0u64, 1, 2, 3, 10, 63] {
            h.record(v);
        }
        assert_eq!(h.value_at_percentile(0.0), 0);
        assert_eq!(h.value_at_percentile(50.0), 2);
        assert_eq!(h.value_at_percentile(100.0), 63);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn count_above_is_exact_at_bucket_edges() {
        let mut h = LogHistogram::default();
        for v in [0u64, 1, 2, 3, 10, 63] {
            h.record(v);
        }
        // Below 2^sub_bits every value is its own bucket: exact everywhere.
        assert_eq!(h.count_above(0), 5);
        assert_eq!(h.count_above(3), 2);
        assert_eq!(h.count_above(63), 0);
        // Tail mass above a threshold in the log region.
        let mut big = LogHistogram::default();
        big.record_n(100, 99);
        big.record_n(1 << 30, 1);
        assert_eq!(big.count_above(1 << 20), 1);
        assert_eq!(big.count_above(u64::MAX), 0);
    }

    #[test]
    fn random_uniform_within_one_bucket() {
        let mut rng = StdRng::seed_from_u64(42);
        for range in [1u64 << 10, 1 << 20, 1 << 40] {
            let mut vals: Vec<u64> = (0..10_000).map(|_| rng.random::<u64>() % range).collect();
            let mut h = LogHistogram::default();
            for &v in &vals {
                h.record(v);
            }
            for p in [50.0, 90.0, 99.0, 99.9] {
                assert_within_one_bucket(&h, &mut vals, p);
            }
        }
    }

    #[test]
    fn adversarial_distributions_within_one_bucket() {
        // Constant, bucket boundaries, heavy tail, extremes.
        let cases: Vec<Vec<u64>> = vec![
            vec![7; 1000],
            (0..64).map(|k| 1u64 << k).collect(),
            (6..40).flat_map(|k| [(1u64 << k) - 1, 1 << k, (1 << k) + 1]).collect(),
            {
                // 99% tiny, 1% huge — the p999 lives in the tail.
                let mut v = vec![100u64; 9900];
                v.extend(std::iter::repeat_n(u64::MAX / 2, 100));
                v
            },
            vec![0, 0, 0, u64::MAX],
        ];
        for mut vals in cases {
            let mut h = LogHistogram::default();
            for &v in &vals {
                h.record(v);
            }
            for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
                let e = exact(&mut vals, p);
                let got = h.value_at_percentile(p);
                let width = (e >> DEFAULT_SUB_BITS).max(1);
                assert!(
                    got >= e.min(h.max()) && got <= e.saturating_add(width),
                    "p{p}: hist {got} vs exact {e}"
                );
            }
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut rng = StdRng::seed_from_u64(9);
        let a_vals: Vec<u64> = (0..5000).map(|_| rng.random::<u64>() % 1_000_000).collect();
        let b_vals: Vec<u64> = (0..5000).map(|_| rng.random::<u64>() % 10_000).collect();
        let (mut a, mut b, mut both) =
            (LogHistogram::default(), LogHistogram::default(), LogHistogram::default());
        for &v in &a_vals {
            a.record(v);
            both.record(v);
        }
        for &v in &b_vals {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for p in [1.0, 50.0, 99.0, 99.9] {
            assert_eq!(a.value_at_percentile(p), both.value_at_percentile(p));
        }
        assert!((a.mean() - both.mean()).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_monotone_and_clamped() {
        let mut h = LogHistogram::default();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            h.record(rng.random::<u64>() % (1 << 30));
        }
        let mut prev = 0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.value_at_percentile(p);
            assert!(v >= prev, "monotone");
            assert!(v <= h.max() && v >= h.min());
            prev = v;
        }
        assert_eq!(h.value_at_percentile(100.0), h.max());
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = LogHistogram::default();
        assert_eq!(h.value_at_percentile(99.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        a.record_n(12345, 100);
        for _ in 0..100 {
            b.record(12345);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.value_at_percentile(50.0), b.value_at_percentile(50.0));
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = LogHistogram::default();
        for v in [3u64, 900, 70_000] {
            a.record(v);
        }
        let snapshot = (a.count(), a.min(), a.max(), a.p50_p99_p999(), a.mean());
        // Empty into populated: nothing changes.
        a.merge(&LogHistogram::default());
        assert_eq!((a.count(), a.min(), a.max(), a.p50_p99_p999(), a.mean()), snapshot);
        // Populated into empty: the result is the populated histogram —
        // in particular the empty side's min sentinel must not leak.
        let mut e = LogHistogram::default();
        e.merge(&a);
        assert_eq!((e.count(), e.min(), e.max(), e.p50_p99_p999(), e.mean()), snapshot);
        // Empty into empty stays calm.
        let mut z = LogHistogram::default();
        z.merge(&LogHistogram::default());
        assert!(z.is_empty());
        assert_eq!((z.min(), z.max(), z.value_at_percentile(99.9)), (0, 0, 0));
    }

    #[test]
    fn merge_of_disjoint_ranges_covers_both() {
        // One histogram entirely below the other: the merge's percentiles
        // must walk from the low range into the high one at the right rank.
        let mut lo = LogHistogram::default();
        let mut hi = LogHistogram::default();
        for v in 0..90u64 {
            lo.record(v); // 90 samples in [0, 90)
        }
        for v in 0..10u64 {
            hi.record(1 << 40 | v); // 10 samples around 2^40
        }
        lo.merge(&hi);
        assert_eq!(lo.count(), 100);
        assert_eq!(lo.min(), 0);
        assert_eq!(lo.max(), (1 << 40) | 9);
        // p50 stays in the low range; p99+ lands in the high range.
        assert!(lo.value_at_percentile(50.0) < 90);
        assert!(lo.value_at_percentile(99.0) >= 1 << 40);
        assert!(lo.value_at_percentile(99.9) >= 1 << 40);
        // Bucket triples are ascending and disjoint across the gap.
        let buckets = lo.nonzero_buckets();
        let total: u64 = buckets.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 100);
        for w in buckets.windows(2) {
            assert!(w[0].1 < w[1].0, "buckets must stay ordered: {w:?}");
        }
    }

    #[test]
    #[should_panic(expected = "histogram resolutions differ")]
    fn merge_refuses_mismatched_resolution() {
        let mut a = LogHistogram::new(6);
        a.merge(&LogHistogram::new(8));
    }

    #[test]
    fn p999_on_single_bucket_data_is_that_bucket() {
        // All mass in one bucket: every percentile (p0.1 through p99.9)
        // must report the same value — the exact one, thanks to min/max
        // clamping, even for a coarse 1-sub-bit histogram.
        for sub_bits in [1, DEFAULT_SUB_BITS, 16] {
            let mut h = LogHistogram::new(sub_bits);
            h.record_n(123_457, 100_000);
            for p in [0.1, 50.0, 99.0, 99.9, 100.0] {
                assert_eq!(h.value_at_percentile(p), 123_457, "sub_bits={sub_bits} p={p}");
            }
            assert_eq!(h.p50_p99_p999(), (123_457, 123_457, 123_457));
        }
        // A single *sample* is its own p99.9 too.
        let mut one = LogHistogram::default();
        one.record(7);
        assert_eq!(one.p50_p99_p999(), (7, 7, 7));
    }

    #[test]
    fn extreme_values_saturate_without_overflow() {
        // u64::MAX must land in the last bucket (not index out of bounds),
        // survive a merge, and report exactly through the max clamp; the
        // running sum must not wrap even with many maximal samples.
        let mut h = LogHistogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record_n(u64::MAX, 1000);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.value_at_percentile(100.0), u64::MAX);
        assert_eq!(h.value_at_percentile(99.9), u64::MAX);
        assert!(h.mean() > u64::MAX as f64 * 0.99);
        let mut other = LogHistogram::default();
        other.record(0);
        other.merge(&h);
        assert_eq!(other.min(), 0);
        assert_eq!(other.max(), u64::MAX);
        // The finest resolution exercises the largest bucket table.
        let mut fine = LogHistogram::new(16);
        fine.record(u64::MAX);
        assert_eq!(fine.value_at_percentile(50.0), u64::MAX);
    }

    /// The dense layout the occupancy-following one replaced, kept as its
    /// specification: every bucket of the full table, zero-filled up
    /// front. Bucket edges come from an empty histogram of the same
    /// resolution.
    struct Dense {
        shape: LogHistogram,
        counts: Vec<u64>,
        total: u64,
        min: u64,
        max: u64,
        sum: u128,
    }

    impl Dense {
        fn new(sub_bits: u32) -> Self {
            let n_buckets = (65 - sub_bits as usize) << sub_bits;
            Dense {
                shape: LogHistogram::new(sub_bits),
                counts: vec![0; n_buckets],
                total: 0,
                min: u64::MAX,
                max: 0,
                sum: 0,
            }
        }

        fn record(&mut self, v: u64) {
            self.counts[self.shape.index(v)] += 1;
            self.total += 1;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
            self.sum += v as u128;
        }

        fn merge(&mut self, o: &Dense) {
            for (a, b) in self.counts.iter_mut().zip(&o.counts) {
                *a += b;
            }
            self.total += o.total;
            self.min = self.min.min(o.min);
            self.max = self.max.max(o.max);
            self.sum += o.sum;
        }

        fn value_at_percentile(&self, p: f64) -> u64 {
            if self.total == 0 {
                return 0;
            }
            let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return self.shape.bucket_high(i).clamp(self.min, self.max);
                }
            }
            self.max
        }

        fn count_above(&self, v: u64) -> u64 {
            self.counts[self.shape.index(v) + 1..].iter().sum()
        }

        fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
            let s = &self.shape;
            let nonzero = self.counts.iter().enumerate().filter(|&(_, &c)| c > 0);
            nonzero.map(|(i, &c)| (s.bucket_low(i), s.bucket_high(i), c)).collect()
        }
    }

    fn both(sub_bits: u32, vals: &[u64]) -> (LogHistogram, Dense) {
        let (mut h, mut d) = (LogHistogram::new(sub_bits), Dense::new(sub_bits));
        for &v in vals {
            h.record(v);
            d.record(v);
        }
        (h, d)
    }

    /// Every query of `h` answers as the dense reference `d` does: a
    /// p0…p100 percentile grid, `count_above` at, around, below and above
    /// every stored value, the bucket triples and the exact summaries.
    fn assert_same(h: &LogHistogram, d: &Dense) {
        let grid = (0..=40).map(|k| f64::from(k) * 2.5).chain([0.1, 1.0, 99.0, 99.9, 99.99]);
        for p in grid {
            assert_eq!(h.value_at_percentile(p), d.value_at_percentile(p), "p{p}");
        }
        let buckets = d.nonzero_buckets();
        assert_eq!(h.nonzero_buckets(), buckets);
        // Every edge of up to ~32 buckets: the dense sum walks the whole
        // table per call.
        let step = buckets.len().div_ceil(32).max(1);
        let edges = buckets.iter().step_by(step).flat_map(|&(lo, hi, _)| [lo, hi]);
        let around = edges.flat_map(|e| [e.saturating_sub(1), e, e.saturating_add(1)]);
        for v in around.chain([0, 1, d.min, d.max, u64::MAX - 1, u64::MAX]) {
            assert_eq!(h.count_above(v), d.count_above(v), "count_above({v})");
        }
        let mean = if d.total == 0 { 0.0 } else { d.sum as f64 / d.total as f64 };
        let min = if d.total == 0 { 0 } else { d.min };
        assert_eq!((h.count(), h.min(), h.max(), h.mean()), (d.total, min, d.max, mean));
        let p = |q| d.value_at_percentile(q);
        assert_eq!(h.p50_p99_p999(), (p(50.0), p(99.0), p(99.9)));
    }

    /// Streams at each resolution: random over three ranges, the
    /// adversarial shapes above, and falling values that widen the stored
    /// range downward (one stream starts at the top of `u64`).
    fn oracle_streams() -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(77);
        let mut streams: Vec<Vec<u64>> = [1u64 << 10, 1 << 20, 1 << 40]
            .iter()
            .map(|&range| (0..2_000).map(|_| rng.random::<u64>() % range).collect())
            .collect();
        streams.extend([
            vec![7; 100],
            (0..64).map(|k| 1u64 << k).collect(),
            (6..40).flat_map(|k| [(1u64 << k) - 1, 1 << k, (1 << k) + 1]).collect(),
            std::iter::repeat_n(100u64, 990).chain([u64::MAX / 2; 10]).collect(),
            vec![0, 0, 0, u64::MAX],
            (0..64).rev().map(|k| 1u64 << k).collect(),
            (0..500u64).rev().map(|k| k * k * 1_000).collect(),
            vec![u64::MAX, 1 << 40, 1 << 20, 1 << 10, 100, 3, 0],
            vec![],
        ]);
        streams
    }

    #[test]
    fn occupancy_layout_matches_the_dense_reference() {
        for sub_bits in [1, DEFAULT_SUB_BITS, 16] {
            for vals in oracle_streams() {
                let (h, d) = both(sub_bits, &vals);
                assert_same(&h, &d);
            }
        }
    }

    /// Merges in both directions over disjoint, overlapping, nested and
    /// empty ranges answer as the dense merge does.
    #[test]
    fn occupancy_merge_matches_the_dense_reference() {
        let span = |lo: u64, hi: u64, n: u64| -> Vec<u64> {
            (0..n).map(|k| lo + (hi - lo) * k / n.max(2).saturating_sub(1).max(1)).collect()
        };
        let pairs: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (span(0, 90, 90), span(1 << 40, (1 << 40) + 9, 10)),
            (span(1_000, 50_000, 200), span(20_000, 900_000, 300)),
            (span(10, 1 << 30, 400), span(5_000, 6_000, 50)),
            (span(3, 70_000, 30), vec![]),
            (vec![], vec![]),
            (vec![u64::MAX], vec![0]),
        ];
        for sub_bits in [1, DEFAULT_SUB_BITS, 16] {
            for (a, b) in &pairs {
                for (x, y) in [(a, b), (b, a)] {
                    let (mut h, mut d) = both(sub_bits, x);
                    let (h2, d2) = both(sub_bits, y);
                    h.merge(&h2);
                    d.merge(&d2);
                    assert_same(&h, &d);
                }
            }
        }
    }

    /// Storage follows the recorded range, not the resolution: one sample
    /// holds one bucket at every `sub_bits`, and a value below the stored
    /// range widens it without moving any count.
    #[test]
    fn storage_follows_the_occupied_range() {
        for sub_bits in [1, DEFAULT_SUB_BITS, 16] {
            let mut h = LogHistogram::new(sub_bits);
            assert_eq!(h.heap_bytes(), 0);
            h.record(123_456);
            assert_eq!(h.heap_bytes(), size_of::<u64>());
            h.record(5);
            let buckets: Vec<u64> = h.nonzero_buckets().iter().map(|&(.., c)| c).collect();
            assert_eq!(buckets, vec![1, 1]);
            assert_eq!(h.counts.len(), h.index(123_456) - h.index(5) + 1);
        }
    }
}
