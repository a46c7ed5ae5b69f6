//! Noise sources: Gaussian latency jitter and Poisson background stalls.
//!
//! Real-machine timing attacks fight two noise classes the paper discusses
//! (§5.2, §5.4): per-access latency variance (DRAM scheduling, prefetchers)
//! and coarse interruptions (timer interrupts, SMIs, scheduler preemption).
//! Both are modeled here with seeded RNGs so every experiment is exactly
//! reproducible.

use mee_rng::Rng;
use mee_types::Cycles;

/// Seeded Gaussian jitter, sampled via Box–Muller and clamped to ±4σ.
#[derive(Debug, Clone)]
pub struct GaussianJitter {
    rng: Rng,
    std: f64,
    /// Second Box–Muller variate of the last pair, already quantized.
    spare: Option<i64>,
}

impl GaussianJitter {
    /// Creates a jitter source with standard deviation `std` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or non-finite.
    pub fn new(std: f64, seed: u64) -> Self {
        assert!(std >= 0.0 && std.is_finite(), "jitter std must be >= 0");
        GaussianJitter {
            rng: Rng::seed_from_u64(seed),
            std,
            spare: None,
        }
    }

    /// Samples one jitter value in cycles (may be negative).
    pub fn sample(&mut self) -> i64 {
        if self.std == 0.0 {
            return 0;
        }
        if let Some(j) = self.spare.take() {
            return j;
        }
        let u1: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.random();
        let (j, spare) = box_muller_pair(u1, u2, self.std);
        self.spare = Some(spare);
        j
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

/// One quantized Box–Muller pair for the uniforms `u1 ∈ [MIN_POSITIVE, 1)`
/// and `u2 ∈ [0, 1)`: with `r = √(−2 ln u1)` and `θ = 2π·u2`, returns
/// `round(clamp(r cos θ, ±4)·std)` and the same for `r sin θ`, where
/// `round` is [`f64::round`] (half away from zero).
///
/// The result is bit-identical to evaluating that expression with libm
/// ([`box_muller_libm`]), which is what it falls back to when the
/// polynomial fast path ([`box_muller_fast`]) cannot vouch for the
/// rounding.
fn box_muller_pair(u1: f64, u2: f64, std: f64) -> (i64, i64) {
    box_muller_fast(u1, u2, std).unwrap_or_else(|| box_muller_libm(u1, u2, std))
}

/// The libm expression that defines the jitter's values; the fallback of
/// [`box_muller_pair`].
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
/// `k + 0.5` tie before [`box_muller_fast`] hands the pair to libm.
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

/// [`box_muller_pair`] by polynomials, or `None` when either scaled
/// variate lands within [`TIE_MARGIN_PER_STD`] of a tie (or `std` is
/// outside the fast range), where only libm's own rounding can decide.
#[inline]
fn box_muller_fast(u1: f64, u2: f64, std: f64) -> Option<(i64, i64)> {
    if std >= FAST_STD_MAX {
        return None;
    }
    let r = (-2.0 * ln_fast(u1)).sqrt();
    let (sin, cos) = sincos_2pi_fast(u2);
    let margin = std * TIE_MARGIN_PER_STD;
    let quantize = |z: f64| {
        let x = z.clamp(-4.0, 4.0) * std;
        let n = (x + ROUND_MAGIC) - ROUND_MAGIC;
        // `x − n` is exact and within ±0.5.
        (0.5 - (x - n).abs() >= margin).then_some(n as i64)
    };
    Some((quantize(r * cos)?, quantize(r * sin)?))
}

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
        let mut j = GaussianJitter::new(0.0, 1);
        for _ in 0..100 {
            assert_eq!(j.sample(), 0);
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = GaussianJitter::new(10.0, 42);
        let mut b = GaussianJitter::new(10.0, 42);
        for _ in 0..50 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn jitter_moments_are_roughly_right() {
        let mut j = GaussianJitter::new(20.0, 7);
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

    #[test]
    fn fast_pair_matches_the_libm_pair() {
        use mee_rng::prop::{check, PropConfig};
        const PAIRS: usize = 1_000;
        let fallbacks: Vec<Cell<u64>> = STDS.iter().map(|_| Cell::new(0)).collect();
        let cfg = PropConfig::from_env(64);
        check("fast_pair_matches_the_libm_pair", &cfg, |rng| {
            for _ in 0..PAIRS {
                let (u1, u2) = draw_inputs(rng);
                for (&std, fell_back) in STDS.iter().zip(&fallbacks) {
                    let expected = reference_pair(u1, u2, std);
                    let got = box_muller_pair(u1, u2, std);
                    assert_eq!(got, expected, "u1 = {u1:e}, u2 = {u2:e}, std = {std}");
                    if box_muller_fast(u1, u2, std).is_none() {
                        fell_back.set(fell_back.get() + 1);
                    }
                }
            }
        });
        let pairs = u64::from(cfg.cases) * PAIRS as u64;
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
        for (u1, u2, std, expected) in ties {
            assert_eq!(
                box_muller_fast(u1, u2, std),
                None,
                "u1 {u1}, u2 {u2}, std {std}"
            );
            assert_eq!(box_muller_pair(u1, u2, std), expected);
            assert_eq!(reference_pair(u1, u2, std), expected);
        }
        // Outside the fast range every pair goes to libm.
        assert_eq!(box_muller_fast(0.5, 0.1, FAST_STD_MAX), None);
        assert_eq!(
            box_muller_pair(0.5, 0.1, 2e12),
            reference_pair(0.5, 0.1, 2e12)
        );
    }

    /// Each polynomial stays within the error its share of the
    /// [`TIE_MARGIN_PER_STD`] derivation allows, measured against libm
    /// (whose own error is added to the bound).
    #[test]
    fn fast_primitives_stay_within_their_error_bounds() {
        const EPS: f64 = f64::EPSILON / 2.0;
        let mut rng = Rng::seed_from_u64(23);
        for _ in 0..200_000 {
            let (u1, u2) = draw_inputs(&mut rng);
            let exact = u1.ln();
            let err = (ln_fast(u1) - exact).abs();
            assert!(err <= 12.0 * EPS * exact.abs(), "ln({u1:e}) off by {err:e}");
            let theta = 2.0 * std::f64::consts::PI * u2;
            let (sin, cos) = sincos_2pi_fast(u2);
            let bound = 6.0 * EPS + 1e-15;
            assert!(
                (sin - theta.sin()).abs() <= bound,
                "sin(2π·{u2:e}) = {sin:e}"
            );
            assert!(
                (cos - theta.cos()).abs() <= bound,
                "cos(2π·{u2:e}) = {cos:e}"
            );
        }
    }

    #[test]
    fn sampler_replays_the_libm_sampler() {
        for (seed, std) in [(1, 40.0), (2, 0.3), (3, 1e4)] {
            let mut jitter = GaussianJitter::new(std, seed);
            let mut rng = Rng::seed_from_u64(seed);
            for _ in 0..5_000 {
                let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.random();
                let (first, second) = reference_pair(u1, u2, std);
                assert_eq!(jitter.sample(), first);
                assert_eq!(jitter.sample(), second);
            }
        }
    }

    #[test]
    fn apply_never_goes_below_half_base() {
        let mut j = GaussianJitter::new(500.0, 3);
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
