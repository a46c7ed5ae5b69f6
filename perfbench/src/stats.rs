//! Aggregation shared by every workload: the per-op estimate over passes,
//! nearest-rank percentiles, and the FNV-1a fingerprint of simulated
//! outcomes.
//!
//! Every run executes a fixed op list several times (passes) and folds
//! each op's host times over the passes into one estimate.

/// How a run folds one op's host times over its passes into one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// The least time. Contention on a shared host only ever adds time, so
    /// over enough passes the minimum finds each op's quiet moments.
    Min,
    /// The nearest-rank median, for op lists that afford too few passes
    /// for the minimum of them to be steady.
    Median,
}

/// Per op, the estimate of its host time over all passes, or `None` if the
/// op failed (returned an error) in any pass.
///
/// `passes[p][i]` is op `i`'s time in pass `p`; every pass must hold the
/// same number of ops.
///
/// # Panics
///
/// Panics if `passes` is empty or the passes differ in length.
pub fn per_op(passes: &[Vec<Option<u64>>], estimator: Estimator) -> Vec<Option<u64>> {
    let ops = passes.first().expect("at least one pass").len();
    assert!(
        passes.iter().all(|p| p.len() == ops),
        "every pass runs the same op list"
    );
    (0..ops)
        .map(|i| {
            let times: Option<Vec<u64>> = passes.iter().map(|pass| pass[i]).collect();
            times.map(|t| fold(&t, estimator))
        })
        .collect()
}

/// Folds one quantity's samples over passes into one estimate.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn fold(samples: &[u64], estimator: Estimator) -> u64 {
    match estimator {
        Estimator::Min => *samples.iter().min().expect("at least one pass"),
        Estimator::Median => median(samples),
    }
}

/// Nearest-rank percentile `p` (in `0..=100`) of an ascending-sorted slice:
/// the smallest value with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`. A percentile is reported only when at least ten do.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The fewest samples for which at least `beyond` lie past percentile `p`.
pub fn min_samples_for(p: f64, beyond: usize) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= beyond)
        .expect("unbounded search")
}

/// Nearest-rank median of unsorted samples.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 50.0)
}

/// 64-bit FNV-1a over explicitly little-endian words, so a fingerprint
/// depends only on the values hashed, never on the host or on a hasher
/// implementation that may change.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Folds in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds in one word.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds in a length-prefixed word sequence.
    pub fn words(&mut self, words: impl ExactSizeIterator<Item = u64>) -> &mut Self {
        self.u64(words.len() as u64);
        for w in words {
            self.u64(w);
        }
        self
    }

    /// Folds in a length-prefixed bit sequence.
    pub fn bits(&mut self, bits: &[bool]) -> &mut Self {
        self.words(bits.iter().map(|&b| u64::from(b)))
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_min_keeps_each_ops_least_time() {
        let passes = vec![
            vec![Some(30), Some(10), Some(7)],
            vec![Some(20), Some(12), Some(9)],
            vec![Some(25), Some(11), Some(5)],
        ];
        let min = per_op(&passes, Estimator::Min);
        assert_eq!(min, vec![Some(20), Some(10), Some(5)]);
        let median = per_op(&passes, Estimator::Median);
        assert_eq!(median, vec![Some(25), Some(11), Some(7)]);
    }

    #[test]
    fn an_op_that_failed_in_any_pass_has_no_time() {
        let passes = vec![vec![Some(3), None], vec![Some(2), Some(4)]];
        for est in [Estimator::Min, Estimator::Median] {
            assert_eq!(per_op(&passes, est), vec![Some(2), None]);
        }
    }

    #[test]
    fn a_slow_pass_cannot_raise_the_minimum() {
        let quiet = vec![Some(100); 4];
        let contended = vec![Some(400); 4];
        let once = per_op(std::slice::from_ref(&quiet), Estimator::Min);
        let mixed = per_op(&[contended.clone(), quiet, contended], Estimator::Min);
        assert_eq!(once, mixed);
    }

    #[test]
    fn a_minority_of_slow_passes_cannot_move_the_median() {
        let quiet = vec![Some(100); 4];
        let contended = vec![Some(400); 4];
        let mixed = per_op(&[quiet.clone(), contended, quiet], Estimator::Median);
        assert_eq!(mixed, vec![Some(100); 4]);
    }

    #[test]
    #[should_panic(expected = "same op list")]
    fn ragged_passes_are_rejected() {
        let _ = per_op(&[vec![Some(1)], vec![Some(1), Some(2)]], Estimator::Min);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 90.0), 90);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&[7], 90.0), 7);
        assert_eq!(median(&[5, 1, 3]), 3);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond_it() {
        assert_eq!(min_samples_for(90.0, 10), 100);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(200, 90.0), 20);
        assert_eq!(min_samples_for(50.0, 10), 20);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(Fnv64::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv64::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn fingerprints_see_order_values_and_lengths() {
        let fp = |bits: &[bool]| Fnv64::default().bits(bits).finish();
        assert_eq!(fp(&[true, false]), fp(&[true, false]));
        assert_ne!(fp(&[true, false]), fp(&[false, true]));
        assert_ne!(fp(&[true]), fp(&[true, false]));
        let words = |w: &[u64]| Fnv64::default().words(w.iter().copied()).finish();
        assert_ne!(words(&[1, 2]), words(&[2, 1]));
        assert_ne!(words(&[]), words(&[0]));
    }
}
