//! SplitMix64 seeding and the xoshiro256\*\* generator.
//!
//! Reference algorithms: Sebastiano Vigna's public-domain C versions
//! (<https://prng.di.unimi.it/>). The known-answer tests at the bottom pin
//! this implementation to those references so a refactor can never silently
//! change every experiment in the workspace.

use std::ops::{Range, RangeInclusive};

/// Advances a SplitMix64 state and returns the next output.
///
/// Used for seed expansion ([`Rng::seed_from_u64`]) and stream derivation
/// ([`stream_seed`]); also handy wherever a one-shot hash of a `u64` is
/// needed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the seed of an independent sub-stream from a base seed.
///
/// Per-core RNGs (stall generators, actor jitter) use
/// `stream_seed(base, core_index)` so that adding a core never shifts the
/// random sequence observed by existing cores, which `wrapping_add`-style
/// seed offsets cannot guarantee (they alias: `stream 1 of seed s` equals
/// `stream 0 of seed s+1`).
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed;
    let a = splitmix64(&mut s);
    let mut t = stream.wrapping_mul(0xa076_1d64_78bd_642f).wrapping_add(a);
    splitmix64(&mut t)
}

/// xoshiro256\*\* — the workspace's pseudo-random generator.
///
/// 256-bit state, period 2^256 − 1, passes BigCrush; not cryptographically
/// secure, which is fine: the simulator needs reproducibility and speed,
/// not unpredictability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator from a single `u64` by SplitMix64 expansion —
    /// the standard recipe recommended by the xoshiro authors (also what
    /// `rand`'s `SeedableRng::seed_from_u64` did for our previous StdRng).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut st = seed;
        let s = [
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
        ];
        Rng { s }
    }

    /// Builds a generator from raw state words (for known-answer tests).
    ///
    /// # Panics
    ///
    /// Panics if all four words are zero — the all-zero state is the one
    /// fixed point of xoshiro256\*\* and would emit zeros forever.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "xoshiro256** state must be non-zero"
        );
        Rng { s }
    }

    /// The next raw 64-bit output.
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

    /// A uniformly random value of type `T` (see [`Sample`] for the
    /// distribution each type uses).
    pub fn random<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniformly random value in `range`.
    ///
    /// Integer ranges use rejection sampling (no modulo bias); `f64`
    /// ranges scale a 53-bit uniform into `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_in(self)
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Splits off an independent generator, advancing `self`.
    ///
    /// The child is seeded from the parent's next output through SplitMix64
    /// expansion, so parent and child sequences are uncorrelated.
    pub fn split(&mut self) -> Rng {
        Rng::seed_from_u64(self.next_u64())
    }

    /// Uniform in `[0, n)` without modulo bias (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Largest multiple of n that fits in u64, minus one: accept only
        // outputs below it so every residue is equally likely.
        let zone = u64::MAX - u64::MAX.wrapping_rem(n).wrapping_add(1).wrapping_rem(n);
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % n;
            }
        }
    }
}

/// Types [`Rng::random`] can produce.
pub trait Sample {
    /// Draws one value from `rng`.
    fn sample(rng: &mut Rng) -> Self;
}

macro_rules! sample_int {
    ($($t:ty),*) => {$(
        impl Sample for $t {
            fn sample(rng: &mut Rng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Sample for bool {
    fn sample(rng: &mut Rng) -> Self {
        // Top bit: the ** scrambler's high bits are the best-mixed.
        rng.next_u64() >> 63 == 1
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample(rng: &mut Rng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample(rng: &mut Rng) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges [`Rng::random_range`] can sample from.
pub trait SampleRange {
    /// The element type of the range.
    type Output;

    /// Draws one value inside the range.
    fn sample_in(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_in(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = self.end as u64 - self.start as u64;
                self.start + rng.below(span) as $t
            }
        }

        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_in(self, rng: &mut Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain: every output is in range.
                    return rng.next_u64() as $t;
                }
                start + rng.below(span) as $t
            }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample_in(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let u: f64 = rng.random();
        let v = self.start + u * (self.end - self.start);
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answers() {
        // Reference vectors from Vigna's splitmix64.c with seed 0.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut s), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn xoshiro_known_answers() {
        // Hand-checkable vectors for state {1, 2, 3, 4}:
        // out0 = rotl(2*5, 7) * 9 = 1280 * 9 = 11520; the update then sets
        // s[1] = 0, so out1 = 0; the next update gives s[1] = 262149, so
        // out2 = rotl(262149*5, 7) * 9 = 1310745 * 128 * 9 = 1509978240.
        let mut r = Rng::from_state([1, 2, 3, 4]);
        assert_eq!(r.next_u64(), 11520);
        assert_eq!(r.next_u64(), 0);
        assert_eq!(r.next_u64(), 1_509_978_240);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(2019);
        let mut b = Rng::seed_from_u64(2019);
        for _ in 0..256 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert!((0..16).any(|_| a.next_u64() != b.next_u64()));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn all_zero_state_rejected() {
        let _ = Rng::from_state([0; 4]);
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.random_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.random_range(10u64..=20);
            assert!((10..=20).contains(&w));
            let f = r.random_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn inclusive_range_hits_both_endpoints() {
        let mut r = Rng::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[r.random_range(0usize..=3)] = true;
        }
        assert!(seen.iter().all(|&s| s), "endpoints missed: {seen:?}");
    }

    #[test]
    fn full_u64_inclusive_range_does_not_panic() {
        let mut r = Rng::seed_from_u64(5);
        let _ = r.random_range(0u64..=u64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = Rng::seed_from_u64(0);
        let _ = r.random_range(5u64..5);
    }

    #[test]
    fn below_is_unbiased_enough() {
        // Chi-squared-ish sanity check over a non-power-of-two modulus.
        let mut r = Rng::seed_from_u64(11);
        let mut counts = [0u32; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[r.random_range(0usize..7)] += 1;
        }
        let expected = n as f64 / 7.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket {i}: {c} vs expected {expected}");
        }
    }

    #[test]
    fn f64_sample_is_in_unit_interval() {
        let mut r = Rng::seed_from_u64(13);
        for _ in 0..10_000 {
            let v: f64 = r.random();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn bool_sample_is_balanced() {
        let mut r = Rng::seed_from_u64(17);
        let ones = (0..10_000).filter(|_| r.random::<bool>()).count();
        assert!((4_500..=5_500).contains(&ones), "bias: {ones}/10000");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..64).collect();
        let mut b = a.clone();
        Rng::seed_from_u64(9).shuffle(&mut a);
        Rng::seed_from_u64(9).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..64).collect::<Vec<u32>>());
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = Rng::seed_from_u64(21);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        let mut again = [0u8; 13];
        Rng::seed_from_u64(21).fill_bytes(&mut again);
        assert_eq!(buf, again);
    }

    #[test]
    fn split_decorrelates() {
        let mut parent = Rng::seed_from_u64(2019);
        let mut child = parent.split();
        // Child and advanced parent must not produce the same stream.
        assert!((0..16).any(|_| parent.next_u64() != child.next_u64()));
    }

    #[test]
    fn stream_seed_separates_streams() {
        assert_ne!(stream_seed(2019, 0), stream_seed(2019, 1));
        assert_ne!(stream_seed(2019, 1), stream_seed(2020, 0));
        // The wrapping_add aliasing problem this replaces must not occur.
        assert_ne!(stream_seed(2019, 1), stream_seed(2019 + 1, 0));
    }
}
