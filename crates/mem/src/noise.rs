//! Noise sources: Gaussian latency jitter and Poisson background stalls.
//!
//! Real-machine timing attacks fight two noise classes the paper discusses
//! (§5.2, §5.4): per-access latency variance (DRAM scheduling, prefetchers)
//! and coarse interruptions (timer interrupts, SMIs, scheduler preemption).
//! Both are modeled here with seeded RNGs so every experiment is exactly
//! reproducible.

use mee_rng::Rng;
use mee_types::{Cycles, ModelError};

/// Box–Muller pairs computed per refill of [`GaussianJitter`]'s buffer.
/// At most 32: [`box_muller_batch`] flags the pairs in a `u32`.
const BATCH: usize = 16;

/// Every pair's flag bit of a batch.
const ALL_FLAGS: u32 = u32::MAX >> (32 - BATCH);

/// Seeded Gaussian jitter, sampled via Box–Muller and clamped to ±4σ.
///
/// Pairs are computed [`BATCH`] at a time by [`box_muller_batch`]. The RNG
/// is private and feeds nothing else, so drawing a batch's uniforms ahead
/// changes when they are drawn, not which sample each one feeds.
#[derive(Debug, Clone)]
pub struct GaussianJitter {
    rng: Rng,
    std: f64,
    /// The current batch's quantized variates, pair by pair: the cosine
    /// variate, then the sine variate.
    buf: [i64; 2 * BATCH],
    /// Index of the next variate of `buf` to hand out; `2 * BATCH` once the
    /// batch is used up.
    next: usize,
}

impl GaussianJitter {
    /// Creates a jitter source with standard deviation `std` cycles.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if `std` is negative or
    /// non-finite.
    pub fn new(std: f64, seed: u64) -> Result<Self, ModelError> {
        validate_std(std)?;
        Ok(GaussianJitter {
            rng: Rng::seed_from_u64(seed),
            std,
            buf: [0; 2 * BATCH],
            next: 2 * BATCH,
        })
    }

    /// Samples one jitter value in cycles (may be negative).
    pub fn sample(&mut self) -> i64 {
        if self.std == 0.0 {
            return 0;
        }
        if self.next == 2 * BATCH {
            self.refill();
        }
        let j = self.buf[self.next];
        self.next += 1;
        j
    }

    /// Draws the next [`BATCH`] uniform pairs, in the order a pair-at-a-time
    /// sampler draws them, and quantizes their Box–Muller pairs into `buf`.
    fn refill(&mut self) {
        let mut u1 = [0.0; BATCH];
        let mut u2 = [0.0; BATCH];
        for (u1, u2) in u1.iter_mut().zip(&mut u2) {
            *u1 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
            *u2 = self.rng.random();
        }
        box_muller_batch(&u1, &u2, self.std, &mut self.buf);
        self.next = 0;
    }

    /// Adds jitter to a base latency, never letting the result drop below
    /// half the base (latency cannot go negative or implausibly small).
    pub fn apply(&mut self, base: Cycles) -> Cycles {
        let j = self.sample();
        let floor = (base.raw() / 2) as i64;
        let jittered = (base.raw() as i64 + j).max(floor);
        Cycles::new(jittered as u64)
    }
}

/// Checks a jitter standard deviation: finite and non-negative.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] otherwise.
pub(crate) fn validate_std(std: f64) -> Result<(), ModelError> {
    if std >= 0.0 && std.is_finite() {
        Ok(())
    } else {
        Err(ModelError::InvalidConfig {
            reason: format!("jitter_std {std} must be finite and non-negative"),
        })
    }
}

/// Quantized Box–Muller pairs for [`BATCH`] uniform pairs
/// `u1 ∈ [MIN_POSITIVE, 1)`, `u2 ∈ [0, 1)`: with `r = √(−2 ln u1)` and
/// `θ = 2π·u2`, pair `i` gets `out[2i] = round(clamp(r cos θ, ±4)·std)`
/// and `out[2i + 1]` the same for `r sin θ`, where `round` is
/// [`f64::round`] (half away from zero).
///
/// The result is bit-identical to evaluating that expression with libm
/// ([`box_muller_libm`]). The polynomial fast path runs over the whole
/// batch in separate loops with no early exit; a pair with a variate
/// within [`TIE_MARGIN_PER_STD`] of a rounding tie (every pair, when `std`
/// is at least [`FAST_STD_MAX`]) is flagged and recomputed by libm, which
/// alone can decide it. Returns the flags, bit `i` for pair `i`.
#[inline]
fn box_muller_batch(
    u1: &[f64; BATCH],
    u2: &[f64; BATCH],
    std: f64,
    out: &mut [i64; 2 * BATCH],
) -> u32 {
    let (r, sin, cos) = polar_batch(u1, u2);
    let margin = std * TIE_MARGIN_PER_STD;
    // `x − n` is exact and within ±0.5; near a tie the `bool` is false.
    let quantize = |z: f64| {
        let x = z.clamp(-4.0, 4.0) * std;
        let n = (x + ROUND_MAGIC) - ROUND_MAGIC;
        (n as i64, 0.5 - (x - n).abs() >= margin)
    };
    let mut flags = 0;
    for (i, pair) in out.chunks_exact_mut(2).enumerate() {
        let (c, c_ok) = quantize(r[i] * cos[i]);
        let (s, s_ok) = quantize(r[i] * sin[i]);
        pair.copy_from_slice(&[c, s]);
        flags |= u32::from(!(c_ok & s_ok)) << i;
    }
    if std >= FAST_STD_MAX {
        flags = ALL_FLAGS;
    }
    let mut pending = flags;
    while pending != 0 {
        let i = pending.trailing_zeros() as usize;
        let (c, s) = box_muller_libm(u1[i], u2[i], std);
        out[2 * i..2 * i + 2].copy_from_slice(&[c, s]);
        pending &= pending - 1;
    }
    flags
}

/// The fast path's polar coordinates of a batch, one loop per function:
/// `r = √(−2·ln_fast u1)`, then `sincos_2pi_fast u2`.
#[inline(always)]
fn polar_batch(u1: &[f64; BATCH], u2: &[f64; BATCH]) -> ([f64; BATCH], [f64; BATCH], [f64; BATCH]) {
    let mut r = [0.0; BATCH];
    for (r, &u1) in r.iter_mut().zip(u1) {
        *r = (-2.0 * ln_fast(u1)).sqrt();
    }
    let (mut sin, mut cos) = ([0.0; BATCH], [0.0; BATCH]);
    for ((sin, cos), &u2) in sin.iter_mut().zip(&mut cos).zip(u2) {
        (*sin, *cos) = sincos_2pi_fast(u2);
    }
    (r, sin, cos)
}

/// The libm expression that defines the jitter's values; the fallback of
/// [`box_muller_batch`].
#[cold]
#[inline(never)]
fn box_muller_libm(u1: f64, u2: f64, std: f64) -> (i64, i64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    let quantize = |z: f64| (z.clamp(-4.0, 4.0) * std).round() as i64;
    (quantize(r * theta.cos()), quantize(r * theta.sin()))
}

/// Largest `std` the fast path serves; see [`TIE_MARGIN_PER_STD`].
const FAST_STD_MAX: f64 = 1e9;

/// How close (per cycle of `std`) a scaled variate may come to a
/// `k + 0.5` tie before [`box_muller_batch`] hands the pair to libm.
///
/// Let `ε = 2⁻⁵³`, and bound `r ≤ R = 37.64` (`u1 ≥ f64::MIN_POSITIVE`
/// gives `−2 ln u1 ≤ 1416.8`). Against the exact `z = r·cos(2π·u2)` (the
/// sine is alike):
///
/// * libm's value is off by at most `R·(5ε + 9.5e-16) ≤ 5.7e-14`: `ln`
///   within 1 ulp and `sqrt` correctly rounded put `r` within `2ε`
///   relative; `θ = 2·PI·u2` is off by `2·|PI − π| + ε·2π ≤ 9.5e-16`;
///   `cos` is within 1 ulp (`2ε`); the product adds `ε`.
/// * [`ln_fast`] is within `10ε` relative (the atanh series' remainder is
///   below `2.4e-17` relative; the reduction is exact, and the sum
///   `e·ln 2 + ln m` at most doubles the terms' rounding), so `r` is
///   within `6ε`; [`sincos_2pi_fast`] is within `4ε + 5e-17` absolute (an
///   exact quadrant reduction, Taylor remainders below `5e-17`, evaluation
///   rounding); the product adds `ε`. In all, `R·(11ε + 5e-17) ≤ 4.8e-14`.
///
/// Clamping is 1-Lipschitz and the product with `std` adds at most `8ε`
/// per unit of `std` on each side, so the two scaled variates differ by
/// less than `1.1e-13·std`. The margin is 100× that. Outside a tie's
/// margin both round to the same integer, and `f64::round` agrees with the
/// fast path's round-half-even everywhere but at exact ties. At
/// [`FAST_STD_MAX`] the margin is still `0.011`, and the scaled variate
/// `|x| ≤ 4·std` stays far below the `2⁵¹` the quantization needs.
const TIE_MARGIN_PER_STD: f64 = 100.0 * 1.1e-13;

/// `1.5·2⁵²`: adding and subtracting it rounds any `|x| < 2⁵¹` to the
/// nearest integer, ties to even.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `ln u` for a positive normal `u`: `u = 2^e·m` with `m ∈ [√½, √2)`
/// (exact bit manipulation, no branch), then `ln m = 2·atanh(s)` with
/// `s = (m − 1)/(m + 1)`, `|s| ≤ 0.1716`, by its series through `s¹⁹`.
#[inline]
fn ln_fast(u: f64) -> f64 {
    /// `1/(2j + 1)`: `atanh(s) = s·Σ ATANH[j]·s²ʲ`. The first omitted
    /// term bounds the remainder: `s²⁰/21 < 2.4e-17` relative.
    const ATANH: [f64; 10] = [
        1.0,
        1.0 / 3.0,
        1.0 / 5.0,
        1.0 / 7.0,
        1.0 / 9.0,
        1.0 / 11.0,
        1.0 / 13.0,
        1.0 / 15.0,
        1.0 / 17.0,
        1.0 / 19.0,
    ];
    /// The bits of `√½` (rounded down): subtracting them makes the
    /// exponent field count binades of `[√½, √2)` instead of `[1, 2)`.
    const SQRT_HALF_BITS: i64 = 0x3fe6_a09e_667f_3bcc;
    let bits = u.to_bits() as i64;
    let e = (bits - SQRT_HALF_BITS) >> 52;
    let m = f64::from_bits((bits - (e << 52)) as u64);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    e as f64 * std::f64::consts::LN_2 + 2.0 * s * poly(s * s, &ATANH)
}

/// `(sin 2πu, cos 2πu)` for `u ∈ [0, 1)`. `4u = q + g` with `q` an
/// integer quadrant and `g ∈ [−½, ½]`, both exact; then
/// `sin(πg/2)` and `cos(πg/2)` by Taylor polynomials in `g` through `g¹⁵`
/// and `g¹⁶`, whose first omitted terms are below `5e-17`. The quadrant
/// swaps and negates them without a branch.
#[inline]
fn sincos_2pi_fast(u: f64) -> (f64, f64) {
    /// `(−1)ʲ(π/2)²ʲ⁺¹/(2j+1)!`: `sin(πg/2) = g·Σ SIN[j]·g²ʲ`.
    const SIN: [f64; 8] = [
        std::f64::consts::FRAC_PI_2,
        -0.645_964_097_506_246_3,
        0.079_692_626_246_167_05,
        -0.004_681_754_135_318_688,
        0.000_160_441_184_787_359_83,
        -3.598_843_235_212_085e-6,
        5.692_172_921_967_927e-8,
        -6.688_035_109_811_468e-10,
    ];
    /// `(−1)ʲ(π/2)²ʲ/(2j)!`: `cos(πg/2) = Σ COS[j]·g²ʲ`.
    const COS: [f64; 9] = [
        1.0,
        -1.233_700_550_136_169_7,
        0.253_669_507_901_048_03,
        -0.020_863_480_763_352_96,
        0.000_919_260_274_839_426_6,
        -2.520_204_237_306_060_7e-5,
        4.710_874_778_818_172e-7,
        -6.386_603_083_791_852e-9,
        6.565_963_114_979_473e-11,
    ];
    let t = 4.0 * u;
    let q = (t + ROUND_MAGIC) - ROUND_MAGIC;
    let g = t - q;
    let w = g * g;
    let (s, c) = ((g * poly(w, &SIN)).to_bits(), poly(w, &COS).to_bits());
    // Quadrant q: (sin, cos) = (s, c), (c, −s), (−s, −c), (−c, s).
    let q = q as u64;
    let swap = 0u64.wrapping_sub(q & 1);
    let (sin, cos) = ((s & !swap) | (c & swap), (c & !swap) | (s & swap));
    (
        f64::from_bits(sin ^ ((q & 2) << 62)),
        f64::from_bits(cos ^ (((q + 1) & 2) << 62)),
    )
}

/// `Σ c[j]·xʲ` as two Horner chains in `x²`, over the even and the odd
/// coefficients, which halves the chain of dependent operations.
#[inline(always)]
fn poly(x: f64, c: &[f64]) -> f64 {
    let x2 = x * x;
    horner(x2, c.iter().step_by(2)) + x * horner(x2, c.iter().skip(1).step_by(2))
}

/// `Σ c[j]·xʲ` over the coefficients `c` yields, by Horner's rule.
#[inline(always)]
fn horner<'a>(x: f64, c: impl DoubleEndedIterator<Item = &'a f64>) -> f64 {
    c.rev().fold(0.0, |acc, &k| acc * x + k)
}

/// Poisson-process background stalls: each stall has a uniform duration in
/// `[min, max]` and stalls arrive with exponential inter-arrival times.
#[derive(Debug, Clone)]
pub struct StallGenerator {
    rng: Rng,
    mean_interval: u64,
    min: Cycles,
    max: Cycles,
    next_at: u64,
}

impl StallGenerator {
    /// Creates a stall source. `mean_interval == 0` disables stalls.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(mean_interval: u64, min: Cycles, max: Cycles, seed: u64) -> Self {
        assert!(min <= max, "stall min must not exceed max");
        let mut g = StallGenerator {
            rng: Rng::seed_from_u64(seed),
            mean_interval,
            min,
            max,
            next_at: 0,
        };
        g.next_at = g.draw_interval(0);
        g
    }

    /// A generator that never stalls.
    pub fn disabled() -> Self {
        Self::new(0, Cycles::ZERO, Cycles::ZERO, 0)
    }

    fn draw_interval(&mut self, from: u64) -> u64 {
        if self.mean_interval == 0 {
            return u64::MAX;
        }
        let u: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
        let gap = (-u.ln() * self.mean_interval as f64).ceil() as u64;
        from.saturating_add(gap.max(1))
    }

    /// Returns the total stall cycles triggered in the half-open window
    /// `[from, to)` of a core's local clock, advancing internal state.
    ///
    /// Allocation-free: this runs once per simulated memory op.
    pub fn stall_in(&mut self, from: Cycles, to: Cycles) -> Cycles {
        let mut total = Cycles::ZERO;
        self.for_each_stall_in(from, to, |_, dur| total += dur);
        total
    }

    /// Calls `f(trigger_time, duration)` for every stall event triggered in
    /// `[from, to)`, advancing internal state.
    ///
    /// Used by the machine's busy-wait primitive, where only the portion of
    /// a stall spilling past the wake-up deadline actually delays the
    /// waiter.
    pub fn for_each_stall_in(
        &mut self,
        from: Cycles,
        to: Cycles,
        mut f: impl FnMut(Cycles, Cycles),
    ) {
        while self.next_at >= from.raw() && self.next_at < to.raw() {
            let dur = if self.min == self.max {
                self.min.raw()
            } else {
                self.rng.random_range(self.min.raw()..=self.max.raw())
            };
            f(Cycles::new(self.next_at), Cycles::new(dur));
            self.next_at = self.draw_interval(self.next_at);
        }
        // If the clock jumped past pending stalls entirely, catch up.
        while self.next_at < from.raw() {
            self.next_at = self.draw_interval(from.raw());
        }
    }

    /// Collects [`Self::for_each_stall_in`] events into a `Vec` — the
    /// convenient form for tests and cold paths.
    pub fn stall_events_in(&mut self, from: Cycles, to: Cycles) -> Vec<(Cycles, Cycles)> {
        let mut events = Vec::new();
        self.for_each_stall_in(from, to, |at, dur| events.push((at, dur)));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn zero_std_is_silent() {
        let mut j = GaussianJitter::new(0.0, 1).unwrap();
        for _ in 0..100 {
            assert_eq!(j.sample(), 0);
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = GaussianJitter::new(10.0, 42).unwrap();
        let mut b = GaussianJitter::new(10.0, 42).unwrap();
        for _ in 0..50 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn jitter_moments_are_roughly_right() {
        let mut j = GaussianJitter::new(20.0, 7).unwrap();
        let n = 20_000;
        let samples: Vec<i64> = (0..n).map(|_| j.sample()).collect();
        let mean = samples.iter().sum::<i64>() as f64 / n as f64;
        let var = samples
            .iter()
            .map(|&s| (s as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 1.0, "mean = {mean}");
        assert!((var.sqrt() - 20.0).abs() < 1.5, "std = {}", var.sqrt());
    }

    /// The jitter pair as the libm expression computed it before the fast
    /// path existed: both variates as `f64`, quantized on use.
    fn reference_pair(u1: f64, u2: f64, std: f64) -> (i64, i64) {
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        let quantize = |z: f64| (z.clamp(-4.0, 4.0) * std).round() as i64;
        (quantize(r * theta.cos()), quantize(r * theta.sin()))
    }

    /// The standard deviations the equivalence sweep runs at.
    const STDS: [f64; 6] = [0.3, 10.0, 20.0, 40.0, 500.0, 1e4];

    /// A Box–Muller input pair: `u1` half the time as the sampler draws
    /// it, half the time log-uniform over every binade down to
    /// `MIN_POSITIVE` (the clamped tail); `u2` as drawn, or a quadrant
    /// boundary.
    fn draw_inputs(rng: &mut Rng) -> (f64, f64) {
        let u1 = if rng.random::<bool>() {
            rng.random_range(f64::MIN_POSITIVE..1.0)
        } else {
            let exponent = rng.random_range(1..1023u64);
            f64::from_bits(exponent << 52 | rng.next_u64() >> 12)
        };
        let u2 = if rng.random_range(0..16u32) == 0 {
            f64::from(rng.random_range(0..4u32)) / 4.0
        } else {
            rng.random()
        };
        (u1, u2)
    }

    /// Runs the batch kernel on `inputs`; returns its pairs and its
    /// fallback flags.
    fn run_batch(inputs: &[(f64, f64); BATCH], std: f64) -> ([(i64, i64); BATCH], u32) {
        let (u1, u2) = (inputs.map(|p| p.0), inputs.map(|p| p.1));
        let mut out = [0; 2 * BATCH];
        let flags = box_muller_batch(&u1, &u2, std, &mut out);
        (std::array::from_fn(|i| (out[2 * i], out[2 * i + 1])), flags)
    }

    /// Asserts that every pair of `got` is the libm pair of its inputs.
    fn assert_reference(inputs: &[(f64, f64)], got: &[(i64, i64)], std: f64) {
        for (&(u1, u2), &pair) in inputs.iter().zip(got) {
            let expected = reference_pair(u1, u2, std);
            assert_eq!(pair, expected, "u1 = {u1:e}, u2 = {u2:e}, std = {std}");
        }
    }

    #[test]
    fn fast_pair_matches_the_libm_pair() {
        use mee_rng::prop::{check, PropConfig};
        const BATCHES: usize = 64;
        let fallbacks: Vec<Cell<u64>> = STDS.iter().map(|_| Cell::new(0)).collect();
        let cfg = PropConfig::from_env(64);
        check("fast_pair_matches_the_libm_pair", &cfg, |rng| {
            for _ in 0..BATCHES {
                let inputs: [(f64, f64); BATCH] = std::array::from_fn(|_| draw_inputs(rng));
                for (&std, fell_back) in STDS.iter().zip(&fallbacks) {
                    let (got, flags) = run_batch(&inputs, std);
                    assert_reference(&inputs, &got, std);
                    fell_back.set(fell_back.get() + u64::from(flags.count_ones()));
                }
            }
        });
        let pairs = u64::from(cfg.cases) * (BATCHES * BATCH) as u64;
        for (std, fell_back) in STDS.iter().zip(&fallbacks) {
            let share = fell_back.get() as f64 / pairs as f64;
            eprintln!(
                "std {std}: {} of {pairs} pairs fell back to libm",
                fell_back.get()
            );
            assert!(share < 1e-4, "std {std}: fallback share {share}");
        }
    }

    #[test]
    fn tie_inputs_take_the_libm_fallback() {
        // `u1 = 1e-5` gives `r ≈ 4.8`, so the cosine (`u2 = 0`) or sine
        // (`u2 = 0.25`) variate clamps to exactly ±4 and `std` puts it on
        // a tie, where round-half-even and `f64::round` part ways. The
        // last pair lands within a few ulps of 0.5 without clamping.
        let r = (-2.0 * 0.3f64.ln()).sqrt();
        let ties = [
            (1e-5, 0.0, 0.125, (1, 0)),
            (1e-5, 0.5, 0.625, (-3, 0)),
            (1e-5, 0.25, 0.625, (0, 3)),
            (0.3, 0.0, 0.5 / r, reference_pair(0.3, 0.0, 0.5 / r)),
        ];
        // Ordinary pairs: `u1 ≥ 0.01` keeps `r` below 3.1, so no variate
        // clamps, and none lands near a tie at these `std`s.
        let mut rng = Rng::seed_from_u64(5);
        let ordinary: [(f64, f64); BATCH] =
            std::array::from_fn(|_| (rng.random_range(0.01..1.0), rng.random()));
        for (u1, u2, std, expected) in ties {
            assert_eq!(reference_pair(u1, u2, std), expected);
            let (got, flags) = run_batch(&ordinary, std);
            assert_eq!(flags, 0, "std {std}: an ordinary pair fell back");
            assert_reference(&ordinary, &got, std);
            // The tie first, in the middle and last in its batch: only its
            // own pair falls back, and the whole batch is libm's.
            for pos in [0, BATCH / 2, BATCH - 1] {
                let mut inputs = ordinary;
                inputs[pos] = (u1, u2);
                let (got, flags) = run_batch(&inputs, std);
                assert_eq!(flags, 1 << pos, "u1 {u1}, u2 {u2}, std {std} at {pos}");
                assert_eq!(got[pos], expected);
                assert_reference(&inputs, &got, std);
            }
        }
        // At and beyond the fast range every pair goes to libm.
        for std in [FAST_STD_MAX, 2e12] {
            let (got, flags) = run_batch(&ordinary, std);
            assert_eq!(flags, ALL_FLAGS, "std {std}");
            assert_reference(&ordinary, &got, std);
        }
    }

    /// Each polynomial stays within the error its share of the
    /// [`TIE_MARGIN_PER_STD`] derivation allows, measured against libm
    /// (whose own error is added to the bound), in the lanes of the
    /// kernel's batch.
    #[test]
    fn fast_primitives_stay_within_their_error_bounds() {
        const EPS: f64 = f64::EPSILON / 2.0;
        let mut rng = Rng::seed_from_u64(23);
        for _ in 0..200_000 / BATCH {
            let inputs: [(f64, f64); BATCH] = std::array::from_fn(|_| draw_inputs(&mut rng));
            let (r, sin, cos) = polar_batch(&inputs.map(|p| p.0), &inputs.map(|p| p.1));
            for (i, &(u1, u2)) in inputs.iter().enumerate() {
                let exact = u1.ln();
                let err = (ln_fast(u1) - exact).abs();
                assert!(err <= 12.0 * EPS * exact.abs(), "ln({u1:e}) off by {err:e}");
                // `√` halves `ln`'s relative error and adds its rounding.
                let exact_r = (-2.0 * exact).sqrt();
                let err = (r[i] - exact_r).abs();
                assert!(err <= 8.0 * EPS * exact_r, "r({u1:e}) off by {err:e}");
                let theta = 2.0 * std::f64::consts::PI * u2;
                let bound = 6.0 * EPS + 1e-15;
                assert!(
                    (sin[i] - theta.sin()).abs() <= bound,
                    "sin(2π·{u2:e}) = {:e}",
                    sin[i]
                );
                assert!(
                    (cos[i] - theta.cos()).abs() <= bound,
                    "cos(2π·{u2:e}) = {:e}",
                    cos[i]
                );
            }
        }
    }

    /// Asserts that `jitter`'s next `pairs` pairs of samples are the libm
    /// pairs of the uniforms `rng` draws, drawn pair by pair.
    fn assert_replays(jitter: &mut GaussianJitter, rng: &mut Rng, pairs: usize) {
        let std = jitter.std;
        for _ in 0..pairs {
            let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.random();
            let (first, second) = reference_pair(u1, u2, std);
            assert_eq!(jitter.sample(), first, "std {std}");
            assert_eq!(jitter.sample(), second, "std {std}");
        }
    }

    #[test]
    fn sampler_replays_the_libm_sampler() {
        // 5 000 pairs cross over 300 batch boundaries; from `FAST_STD_MAX`
        // on, every pair is libm's.
        for (seed, std) in [(1, 40.0), (2, 0.3), (3, 1e4), (4, FAST_STD_MAX), (5, 2e12)] {
            let mut jitter = GaussianJitter::new(std, seed).unwrap();
            assert_replays(&mut jitter, &mut Rng::seed_from_u64(seed), 5_000);
        }
        // σ = 0 draws nothing: once σ is positive, the sampler replays the
        // stream of a fresh one.
        let mut jitter = GaussianJitter::new(0.0, 6).unwrap();
        for _ in 0..3 * BATCH {
            assert_eq!(jitter.sample(), 0);
        }
        jitter.std = 40.0;
        assert_replays(&mut jitter, &mut Rng::seed_from_u64(6), 3 * BATCH);
        // A clone taken mid-batch, between a pair's two variates, carries
        // on exactly like the original.
        let mut jitter = GaussianJitter::new(40.0, 7).unwrap();
        let mut rng = Rng::seed_from_u64(7);
        assert_replays(&mut jitter, &mut rng, 2 * BATCH + BATCH / 2);
        let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        let (first, second) = reference_pair(u1, rng.random(), 40.0);
        assert_eq!(jitter.sample(), first);
        let mut clone = jitter.clone();
        assert_eq!(clone.sample(), second);
        assert_eq!(jitter.sample(), second);
        assert_replays(&mut clone, &mut rng.clone(), 3 * BATCH);
        assert_replays(&mut jitter, &mut rng, 3 * BATCH);
    }

    #[test]
    fn jitter_rejects_negative_and_non_finite_std() {
        for std in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    GaussianJitter::new(std, 0),
                    Err(ModelError::InvalidConfig { .. })
                ),
                "std {std} accepted"
            );
        }
    }

    #[test]
    fn apply_never_goes_below_half_base() {
        let mut j = GaussianJitter::new(500.0, 3).unwrap();
        for _ in 0..1000 {
            let c = j.apply(Cycles::new(100));
            assert!(c.raw() >= 50);
        }
    }

    #[test]
    fn disabled_stalls_never_fire() {
        let mut s = StallGenerator::disabled();
        assert_eq!(
            s.stall_in(Cycles::ZERO, Cycles::new(u64::MAX / 2)),
            Cycles::ZERO
        );
    }

    #[test]
    fn stall_rate_matches_mean_interval() {
        let mut s = StallGenerator::new(10_000, Cycles::new(100), Cycles::new(100), 11);
        let horizon = 10_000_000u64;
        let mut fired = 0u64;
        let mut t = 0u64;
        let step = 1000u64;
        while t < horizon {
            let stall = s.stall_in(Cycles::new(t), Cycles::new(t + step));
            fired += stall.raw() / 100;
            t += step;
        }
        let expected = horizon / 10_000;
        assert!(
            (fired as f64 - expected as f64).abs() < expected as f64 * 0.2,
            "fired = {fired}, expected ~{expected}"
        );
    }

    #[test]
    fn stall_durations_within_bounds() {
        let mut s = StallGenerator::new(1_000, Cycles::new(50), Cycles::new(200), 5);
        let mut t = 0u64;
        for _ in 0..1000 {
            let stall = s.stall_in(Cycles::new(t), Cycles::new(t + 500));
            // Multiple stalls can land in one window; each is in [50, 200].
            if stall.raw() > 0 {
                assert!(stall.raw() >= 50);
            }
            t += 500;
        }
    }

    #[test]
    #[should_panic(expected = "min must not exceed max")]
    fn stall_rejects_inverted_bounds() {
        let _ = StallGenerator::new(100, Cycles::new(10), Cycles::new(5), 0);
    }
}
