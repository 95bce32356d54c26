//! Seeded, splittable PRNG for deterministic tests and simulations.
//!
//! The generator is xoshiro256** (Blackman & Vigna), seeded through
//! SplitMix64 so that any 64-bit seed — including 0 — yields a
//! well-mixed state. Every simulation run in the workspace derives its
//! randomness from an explicit seed, so a printed seed is always enough
//! to reproduce a run exactly. No `rand` crate, no OS entropy: the same
//! seed produces the same stream on every platform and every run.

/// The SplitMix64 step: turns a counter into a well-mixed 64-bit value.
/// Used for state seeding and for deriving per-name sub-seeds.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256** generator with the small surface the workspace
/// actually uses. Construction from a seed is total and deterministic.
///
/// # Example
///
/// ```
/// use mirage_testkit::rng::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator seeded from `seed` via SplitMix64 (the construction
    /// recommended by the xoshiro authors).
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// A generator for a named sub-stream of `seed`: the same seed with
    /// different names yields statistically independent streams. Used so
    /// each property test / simulation component draws from its own
    /// stream while the whole run remains reproducible from one seed.
    pub fn for_stream(seed: u64, name: &str) -> Rng {
        Rng::new(seed ^ fnv1a(name.as_bytes()))
    }

    /// The next 64 uniformly random bits (the xoshiro256** step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly random bits (upper half of a 64-bit draw).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform draw from `range` (half-open or inclusive), e.g.
    /// `rng.gen_range(0..10)` or `rng.gen_range(1..=6)`.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformInt,
        R: SampleRange<T>,
    {
        let (lo, hi_inclusive) = range.bounds();
        T::sample(self, lo, hi_inclusive)
    }

    /// `true` with probability `p` (clamped to [0, 1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        // Compare against a 53-bit uniform in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    /// Fills `dest` with uniformly random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// An unbiased index in `0..len` (Fisher–Yates helper). `len` must be
    /// non-zero.
    pub fn gen_index(&mut self, len: usize) -> usize {
        debug_assert!(len > 0, "gen_index needs a non-empty range");
        // Lemire's multiply-shift; bias is < 2^-64 * len, irrelevant here.
        ((self.next_u64() as u128 * len as u128) >> 64) as usize
    }

    /// Shuffles `slice` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }
}

/// FNV-1a over `bytes` — used to derive per-name sub-seeds and by the
/// deterministic hasher in [`crate::hash`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

/// Integer types [`Rng::gen_range`] can sample uniformly.
pub trait UniformInt: Copy {
    /// A uniform draw in `[lo, hi]` (both inclusive).
    fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self;
    /// `self - 1`, saturating; lets range impls convert `..end` to an
    /// inclusive bound.
    fn dec(self) -> Self;
}

macro_rules! impl_uniform_uint {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                debug_assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                if span == 0 || span > u64::MAX as u128 {
                    // Full-width draw.
                    return rng.next_u64() as $t;
                }
                let draw = (rng.next_u64() as u128 * span) >> 64;
                lo.wrapping_add(draw as $t)
            }
            #[inline]
            fn dec(self) -> Self { self.saturating_sub(1) }
        }
    )*};
}

impl_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_int {
    ($($t:ty => $u:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                debug_assert!(lo <= hi, "gen_range: empty range");
                // Shift into unsigned space, sample there, shift back.
                let ulo = (lo as $u).wrapping_sub(<$t>::MIN as $u);
                let uhi = (hi as $u).wrapping_sub(<$t>::MIN as $u);
                let draw = <$u as UniformInt>::sample(rng, ulo, uhi);
                draw.wrapping_add(<$t>::MIN as $u) as $t
            }
            #[inline]
            fn dec(self) -> Self { self.saturating_sub(1) }
        }
    )*};
}

impl_uniform_int!(i32 => u32, i64 => u64);

/// Ranges [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// `(lo, hi)` with both ends inclusive.
    fn bounds(&self) -> (T, T);
}

impl<T: UniformInt> SampleRange<T> for std::ops::Range<T> {
    fn bounds(&self) -> (T, T) {
        (self.start, self.end.dec())
    }
}

impl<T: UniformInt> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn bounds(&self) -> (T, T) {
        (*self.start(), *self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Locked reference vectors: seed 0 and seed 1 must produce exactly
    /// these first outputs forever. If an edit to the generator changes
    /// these, every recorded simulation seed in the repo is invalidated —
    /// that is a breaking change, not a refactor.
    #[test]
    fn splitmix64_reference_vector() {
        // First three outputs of SplitMix64 from state 0. The first value
        // is the well-known mix of the golden-gamma increment itself.
        let mut s = 0u64;
        let first = splitmix64(&mut s);
        let second = splitmix64(&mut s);
        let third = splitmix64(&mut s);
        assert_eq!(first, 0xE220_A839_7B1D_CDAF);
        assert_eq!(second, 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(third, 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_reference_vector_seed_zero() {
        let mut rng = Rng::new(0);
        let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        let want = [
            0x99EC_5F36_CB75_F2B4,
            0xBF6E_1F78_4956_452A,
            0x1A5F_849D_4933_E6E0,
            0x6AA5_94F1_262D_2D2C,
            0xBBA5_AD4A_1F84_2E59,
            0xFFEF_8375_D9EB_CACA,
            0x6C16_0DEE_D2F5_4C98,
            0x8920_AD64_8FC3_0A3F,
        ];
        assert_eq!(got, want, "xoshiro256** stream for seed 0 changed");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(0xDEAD_BEEF);
        let mut b = Rng::new(0xDEAD_BEEF);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let av: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            let v: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w: usize = rng.gen_range(0..=5);
            assert!(w <= 5);
            let x: i32 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&x));
        }
    }

    #[test]
    fn gen_range_covers_the_range() {
        let mut rng = Rng::new(3);
        let mut seen = [false; 8];
        for _ in 0..400 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "800 draws missed a bucket: {seen:?}");
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut rng = Rng::new(11);
        let mut v: Vec<u32> = (0..32).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<u32>>());

        let mut rng2 = Rng::new(11);
        let mut v2: Vec<u32> = (0..32).collect();
        rng2.shuffle(&mut v2);
        assert_eq!(v, v2, "same seed must shuffle identically");
    }

    #[test]
    fn fill_bytes_deterministic_and_covers_tail() {
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        let mut buf_a = [0u8; 13];
        let mut buf_b = [0u8; 13];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
        assert!(buf_a.iter().any(|&x| x != 0));
    }

    #[test]
    fn named_streams_are_independent() {
        let mut a = Rng::for_stream(42, "threadsim");
        let mut b = Rng::for_stream(42, "blocksim");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Rng::new(1);
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
    }
}
