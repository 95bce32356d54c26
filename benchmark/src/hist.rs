//! One log-linear histogram for every latency the benchmark reports.
//!
//! Values are virtual nanoseconds. Each power of two is cut into
//! [`SUB`] equal sub-buckets, so a reported percentile is within
//! 1/SUB ≈ 0.4 % of the true sample. Values below `SUB` are exact to the
//! unit.

/// Sub-buckets per octave.
const SUB: u64 = 256;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Octaves above the exact range (covers the full `u64` range).
const OCTAVES: usize = (64 - SUB_BITS) as usize;

/// The percentiles the tail rule chooses among, lowest first.
const TAIL_LADDER: [f64; 5] = [0.9, 0.99, 0.999, 0.9999, 0.99999];

/// A log-linear histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; (OCTAVES + 1) * SUB as usize],
            n: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        // v has its top bit at position `msb` ≥ SUB_BITS; the next
        // SUB_BITS bits below the top one select the sub-bucket.
        let msb = 63 - v.leading_zeros();
        let octave = (msb - SUB_BITS + 1) as usize;
        let sub = ((v >> (msb - SUB_BITS)) - SUB) as usize;
        octave * SUB as usize + sub
    }

    /// `(lowest value, width)` of bucket `b`.
    fn range(b: usize) -> (u64, u64) {
        let octave = b / SUB as usize;
        let sub = (b % SUB as usize) as u64;
        if octave == 0 {
            return (sub, 1);
        }
        ((SUB + sub) << (octave - 1), 1 << (octave - 1))
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    /// Number of samples recorded.
    pub fn n(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The non-empty buckets as `(bucket, count)`, for sending a
    /// histogram from the repetition's process to the run's.
    pub fn sparse(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, c)| *c > 0)
            .collect()
    }

    /// The histogram [`sparse`](Self::sparse) described; `None` for a
    /// bucket that does not exist.
    pub fn from_sparse(buckets: &[(usize, u64)]) -> Option<Histogram> {
        let mut h = Histogram::new();
        for &(b, c) in buckets {
            *h.counts.get_mut(b)? += c;
            h.n += c;
        }
        Some(h)
    }

    /// The value at quantile `q` in `[0, 1]`: the bucket whose cumulative
    /// count reaches `ceil(q·n)`, interpolated linearly by rank inside it
    /// (the model's latencies are few distinct values; interpolation keeps
    /// the figure sensitive to how many samples sit on each). Zero when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (b, c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = Self::range(b);
                return lo as f64 + width as f64 * ((rank - seen) as f64 - 0.5) / *c as f64;
            }
            seen += c;
        }
        unreachable!("cumulative count reaches n")
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest percentile of the ladder 90/99/99.9/… that still has at
    /// least ten samples beyond it; `None` below 100 samples, where even
    /// p90 is ten samples deep or less.
    pub fn tail_quantile(&self) -> Option<f64> {
        TAIL_LADDER
            .iter()
            .copied()
            .rev()
            .find(|q| self.supports(*q))
    }

    /// Whether `q` has at least ten samples beyond it.
    pub fn supports(&self, q: f64) -> bool {
        self.n as f64 * (1.0 - q) >= 10.0 - 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lone_sample_reads_back_within_its_bucket() {
        for v in [
            0u64,
            1,
            17,
            255,
            256,
            257,
            1000,
            65_535,
            1 << 20,
            123_456_789,
            u64::MAX / 3,
        ] {
            let mut h = Histogram::new();
            h.record(v);
            let got = h.median();
            let err = (got - v as f64).abs();
            assert!(
                err <= (v as f64 / SUB as f64).max(1.0),
                "{v} -> {got} (err {err})"
            );
        }
    }

    #[test]
    fn quantiles_interpolate_by_rank_inside_a_bucket() {
        // Two distinct latencies, as the model produces: the median moves
        // with the share of samples on each, and never leaves the bucket.
        let shares = |fast: u64| {
            let mut h = Histogram::new();
            for _ in 0..fast {
                h.record(160_000);
            }
            for _ in 0..(1_000 - fast) {
                h.record(200_000);
            }
            h.median()
        };
        let (a, b) = (shares(600), shares(900));
        assert!(a > b, "more fast samples pull the median down: {a} vs {b}");
        for m in [a, b] {
            assert!((m - 160_000.0).abs() / 160_000.0 < 1.0 / SUB as f64, "{m}");
        }
    }

    #[test]
    fn buckets_are_monotone_in_the_value() {
        let ascending = (0..200_000u64)
            .chain((18..64).map(|s| 1u64 << s))
            .chain([u64::MAX]);
        let mut last = 0usize;
        for v in ascending {
            let b = Histogram::bucket(v);
            assert!(b >= last, "bucket({v}) went backwards");
            let (lo, width) = Histogram::range(b);
            assert!(
                lo <= v && v - lo < width,
                "{v} outside its bucket [{lo}, +{width})"
            );
            last = b;
        }
        assert!(last < (OCTAVES + 1) * SUB as usize);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        assert_eq!(h.n(), 10_000);
        let close = |got: f64, want: f64| (got - want).abs() / want < 0.005;
        assert!(close(h.median(), 500_000.0), "{}", h.median());
        assert!(close(h.quantile(0.99), 990_000.0), "{}", h.quantile(0.99));
        assert!(close(h.quantile(1.0), 1_000_000.0));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        let with_n = |n: u64| {
            let mut h = Histogram::new();
            for v in 0..n {
                h.record(v);
            }
            h
        };
        assert_eq!(with_n(99).tail_quantile(), None);
        assert_eq!(with_n(100).tail_quantile(), Some(0.9));
        assert_eq!(with_n(999).tail_quantile(), Some(0.9));
        assert_eq!(with_n(1_000).tail_quantile(), Some(0.99));
        assert_eq!(with_n(20_000).tail_quantile(), Some(0.999));
        assert_eq!(with_n(100_000).tail_quantile(), Some(0.9999));
        assert!(with_n(1_000).supports(0.99));
        assert!(!with_n(999).supports(0.99));
    }

    #[test]
    fn sparse_form_round_trips() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 70_000, 1 << 40] {
            h.record(v);
        }
        let back = Histogram::from_sparse(&h.sparse()).expect("own buckets exist");
        assert_eq!(back.n(), 4);
        assert_eq!(back.sparse(), h.sparse());
        assert!(Histogram::from_sparse(&[(usize::MAX, 1)]).is_none());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.n(), 3);
        assert!((a.quantile(1.0) - 1_000_000.0).abs() / 1_000_000.0 < 0.005);
        assert!((a.quantile(0.01) - 10.0).abs() < 1.0);
    }
}
