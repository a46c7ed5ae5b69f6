//! Constant-memory, deterministically-mergeable aggregators.
//!
//! A fleet-scale campaign (10⁵–10⁶ sessions) cannot retain per-session
//! logs; each shard folds its sessions into a fixed set of per-series
//! aggregates and only those survive. Two structures carry everything the
//! statistical claims need:
//!
//! * [`StreamStats`] — count / mean / variance / min / max via Welford's
//!   online algorithm, merged across shards with Chan's parallel formula;
//! * [`QuantileSketch`] — a deterministic quantile sketch: values are
//!   quantized onto an order-preserving 19-bit grid (sign + exponent +
//!   7 mantissa bits of the IEEE-754 representation, ≲0.8 % relative
//!   error) and counted per bucket. Merging adds counts, so it is exact,
//!   commutative, and *independent of merge order* — the property that
//!   lets a resumed campaign reproduce an uninterrupted one bit for bit.
//!
//! Floating-point means are **not** order-independent, so the campaign
//! fixes the fold order instead: sessions in index order within a shard,
//! shards in index order at the final merge. Same order ⇒ same bits, at
//! any thread count, interrupted or not.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Welford-online count/mean/variance plus min/max of one series.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamStats {
    /// How many values were folded in.
    pub count: u64,
    /// Running arithmetic mean.
    pub mean: f64,
    /// Sum of squared deviations from the mean (Welford's `M2`).
    pub m2: f64,
    /// Smallest value seen (`+inf` when empty).
    pub min: f64,
    /// Largest value seen (`-inf` when empty).
    pub max: f64,
}

impl StreamStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one value in.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: campaign series are measurements, and
    /// a NaN here would silently poison every downstream statistic.
    pub fn push(&mut self, v: f64) {
        assert!(v.is_finite(), "non-finite campaign sample: {v}");
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another accumulator in (Chan et al.'s parallel merge).
    ///
    /// Merging is deterministic for a fixed merge *order*; the campaign
    /// always merges shards in ascending shard index.
    pub fn merge(&mut self, other: &StreamStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * (other.count as f64 / total as f64);
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64 / total as f64);
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Population variance (`0` when fewer than two values).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }
}

/// How many high bits of the order-preserving u64 image of an `f64` the
/// sketch keys on: 1 sign + 11 exponent + 7 mantissa bits. 7 mantissa bits
/// bound the relative quantization error by 2⁻⁷ ≈ 0.8 %.
const KEY_BITS: u32 = 19;
const KEY_SHIFT: u32 = 64 - KEY_BITS;

/// Maps an `f64` onto a totally-ordered `u64` (the classic sign-flip
/// trick), so truncating high bits buckets *by value order*.
fn orderable(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

fn unorderable(ord: u64) -> f64 {
    if ord >> 63 == 1 {
        f64::from_bits(ord & !(1 << 63))
    } else {
        f64::from_bits(!ord)
    }
}

/// A deterministic, exactly-mergeable quantile sketch.
///
/// Values are counted in buckets keyed by the top [`KEY_BITS`] bits of
/// their order-preserving integer image; a quantile query walks the bucket
/// counts in key (= value) order and returns the *lower bound* of the
/// bucket containing the nearest-rank sample. Everything is integer
/// arithmetic over a `BTreeMap`, so:
///
/// * queries are deterministic;
/// * merges add counts and are therefore exact and commutative;
/// * memory is bounded by the number of *distinct buckets* touched (≤ one
///   per ~0.8 % of value range per decade), never by the session count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuantileSketch {
    counts: BTreeMap<u32, u64>,
    total: u64,
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one value.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value.
    pub fn push(&mut self, v: f64) {
        assert!(v.is_finite(), "non-finite campaign sample: {v}");
        let key = (orderable(v) >> KEY_SHIFT) as u32;
        *self.counts.entry(key).or_insert(0) += 1;
        self.total += 1;
    }

    /// Adds another sketch's counts in — exact, commutative, associative.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (&key, &count) in &other.counts {
            *self.counts.entry(key).or_insert(0) += count;
        }
        self.total += other.total;
    }

    /// Total values counted.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// How many distinct buckets are occupied (the memory footprint).
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// The `p`-th percentile (`0 ≤ p ≤ 100`), as the lower bound of the
    /// bucket holding the nearest-rank sample; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 100]`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.total == 0 {
            return None;
        }
        let rank = (p / 100.0 * (self.total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (&key, &count) in &self.counts {
            seen += count;
            if seen > rank {
                return Some(unorderable(u64::from(key) << KEY_SHIFT));
            }
        }
        unreachable!("rank {rank} beyond total {}", self.total);
    }

    /// Serializes as `key:count` pairs in key order (checkpoint format).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (&key, &count) in &self.counts {
            if !out.is_empty() {
                out.push(' ');
            }
            write!(out, "{key:05x}:{count}").unwrap();
        }
        out
    }

    /// Parses [`QuantileSketch::encode`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed pair.
    pub fn decode(s: &str) -> Result<Self, String> {
        let mut sketch = QuantileSketch::new();
        for pair in s.split_whitespace() {
            let (key, count) = pair
                .split_once(':')
                .ok_or_else(|| format!("malformed sketch pair {pair:?}"))?;
            let key = u32::from_str_radix(key, 16)
                .map_err(|e| format!("malformed sketch key {key:?}: {e}"))?;
            let count: u64 = count
                .parse()
                .map_err(|e| format!("malformed sketch count {count:?}: {e}"))?;
            if key >> KEY_BITS != 0 {
                return Err(format!("sketch key {key:#x} exceeds {KEY_BITS} bits"));
            }
            if count == 0 {
                return Err(format!("zero count for sketch key {key:#x}"));
            }
            *sketch.counts.entry(key).or_insert(0) += count;
            sketch.total += count;
        }
        Ok(sketch)
    }
}

/// All aggregates of one named series: moments plus quantile sketch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeriesAgg {
    /// Moment statistics.
    pub stats: StreamStats,
    /// Quantile sketch.
    pub sketch: QuantileSketch,
}

impl SeriesAgg {
    /// An empty series aggregate.
    pub fn new() -> Self {
        SeriesAgg {
            stats: StreamStats::new(),
            sketch: QuantileSketch::new(),
        }
    }

    /// Folds one value into both structures.
    pub fn push(&mut self, v: f64) {
        self.stats.push(v);
        self.sketch.push(v);
    }

    /// Folds another series aggregate in (shard-order discipline applies
    /// to the `stats` half; the sketch is order-independent).
    pub fn merge(&mut self, other: &SeriesAgg) {
        self.stats.merge(&other.stats);
        self.sketch.merge(&other.sketch);
    }

    /// The `p`-th percentile as reported: the sketch's bucket lower bound,
    /// clamped to the exact `[min, max]` of the series so a quantile never
    /// falls outside the values seen; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 100]`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        self.sketch
            .quantile(p)
            .map(|v| v.clamp(self.stats.min, self.stats.max))
    }
}

/// The completed aggregate of one shard: which sessions it covered and one
/// [`SeriesAgg`] per campaign series, in series order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardAggregate {
    /// The shard's index in the campaign partition.
    pub shard: usize,
    /// First session index the shard covers (inclusive).
    pub lo: usize,
    /// One past the last session index (exclusive).
    pub hi: usize,
    /// Per-series aggregates, index-aligned with the campaign's series
    /// names.
    pub series: Vec<SeriesAgg>,
}

impl ShardAggregate {
    /// An empty aggregate for `shard` covering sessions `lo..hi` with
    /// `nseries` series.
    pub fn empty(shard: usize, lo: usize, hi: usize, nseries: usize) -> Self {
        ShardAggregate {
            shard,
            lo,
            hi,
            series: (0..nseries).map(|_| SeriesAgg::new()).collect(),
        }
    }

    /// Sessions this shard covers.
    pub fn sessions(&self) -> u64 {
        (self.hi - self.lo) as u64
    }

    /// Folds one session's sample vector in (one value per series, in
    /// series order).
    ///
    /// # Panics
    ///
    /// Panics when the sample arity does not match the series count.
    pub fn push_session(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.series.len(),
            "session produced {} values for {} series",
            values.len(),
            self.series.len()
        );
        for (agg, &v) in self.series.iter_mut().zip(values) {
            agg.push(v);
        }
    }
}

/// The campaign-wide aggregate: every completed shard folded together in
/// ascending shard order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignAggregate {
    /// Sessions folded in (excludes quarantined shards).
    pub sessions: u64,
    /// `(name, aggregate)` per series, in campaign series order.
    pub series: Vec<(String, SeriesAgg)>,
}

impl CampaignAggregate {
    /// Merges `shards` (must be sorted by ascending shard index — the fold
    /// order *is* the determinism contract) under the campaign's series
    /// names.
    ///
    /// # Panics
    ///
    /// Panics when the shards are not in ascending order or a shard's
    /// series arity disagrees with `names`.
    pub fn merge_shards(names: &[String], shards: &[ShardAggregate]) -> Self {
        let mut series: Vec<(String, SeriesAgg)> = names
            .iter()
            .map(|n| (n.clone(), SeriesAgg::new()))
            .collect();
        let mut sessions = 0u64;
        let mut prev: Option<usize> = None;
        for shard in shards {
            assert!(
                prev.is_none_or(|p| p < shard.shard),
                "shards must merge in ascending index order"
            );
            prev = Some(shard.shard);
            assert_eq!(shard.series.len(), names.len(), "series arity mismatch");
            sessions += shard.sessions();
            for ((_, acc), s) in series.iter_mut().zip(&shard.series) {
                acc.merge(s);
            }
        }
        CampaignAggregate { sessions, series }
    }

    /// Looks a series up by name.
    pub fn series(&self, name: &str) -> Option<&SeriesAgg> {
        self.series.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Renders the aggregate as a deterministic multi-line table: one line
    /// per series with count, mean/min/max (both decimal and exact bit
    /// pattern), variance, and sketch quantiles — the golden-snapshot
    /// format. Byte-identical across thread counts and across
    /// interrupted-and-resumed runs.
    pub fn render(&self) -> String {
        let mut out = format!("sessions {}\n", self.sessions);
        for (name, agg) in &self.series {
            let s = &agg.stats;
            let q = |p: f64| {
                agg.quantile(p)
                    .map_or_else(|| "-".to_owned(), |v| format!("{v:.6}"))
            };
            writeln!(
                out,
                "series {name} count {} mean {:.6}/{:016x} var {:.6} min {:.6} max {:.6} \
                 p10 {} p50 {} p90 {} p95 {} buckets {}",
                s.count,
                s.mean,
                s.mean.to_bits(),
                s.variance(),
                s.min,
                s.max,
                q(10.0),
                q(50.0),
                q(90.0),
                q(95.0),
                agg.sketch.buckets(),
            )
            .unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_moments() {
        let values = [3.0, 1.5, -2.0, 8.25, 0.0, 4.5];
        let mut s = StreamStats::new();
        for v in values {
            s.push(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
        assert_eq!(s.count, 6);
        assert!((s.mean - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min, -2.0);
        assert_eq!(s.max, 8.25);
    }

    #[test]
    fn fixed_order_merge_is_bit_deterministic() {
        // The determinism contract: folding sessions in index order within
        // shards, then merging shards in index order, gives the same bits
        // regardless of how sessions were *scheduled*. Simulate two shard
        // layouts of the same data and check the invariant holds per run.
        let values: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 11.0).collect();
        let fold = |chunks: &[&[f64]]| {
            let mut parts: Vec<StreamStats> = Vec::new();
            for c in chunks {
                let mut s = StreamStats::new();
                for &v in *c {
                    s.push(v);
                }
                parts.push(s);
            }
            let mut total = StreamStats::new();
            for p in &parts {
                total.merge(p);
            }
            total
        };
        let a = fold(&[&values[..50], &values[50..]]);
        let b = fold(&[&values[..50], &values[50..]]);
        // Same layout, any number of times: identical bits.
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.m2.to_bits(), b.m2.to_bits());
        assert_eq!(a.count, 100);
    }

    #[test]
    fn merge_handles_empty_sides() {
        let mut s = StreamStats::new();
        s.merge(&StreamStats::new());
        assert_eq!(s.count, 0);
        let mut full = StreamStats::new();
        full.push(2.0);
        s.merge(&full);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 2.0);
        full.merge(&StreamStats::new());
        assert_eq!(full.count, 1);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_samples_rejected() {
        StreamStats::new().push(f64::NAN);
    }

    #[test]
    fn sketch_quantiles_track_true_quantiles() {
        let mut sk = QuantileSketch::new();
        let n = 10_000;
        for i in 0..n {
            // A skewed but deterministic distribution.
            sk.push(1.0 + (i as f64 / n as f64).powi(3) * 999.0);
        }
        assert_eq!(sk.count(), n as u64);
        for (p, want) in [
            (50.0, 1.0 + 0.5f64.powi(3) * 999.0),
            (95.0, 1.0 + 0.95f64.powi(3) * 999.0),
        ] {
            let got = sk.quantile(p).unwrap();
            let rel = (got - want).abs() / want;
            assert!(rel < 0.01, "p{p}: got {got}, want ≈{want} (rel {rel})");
        }
        // Constant memory: far fewer buckets than samples.
        assert!(sk.buckets() < 1500, "{} buckets", sk.buckets());
    }

    #[test]
    fn sketch_merge_is_exact_and_order_independent() {
        let mut all = QuantileSketch::new();
        let mut left = QuantileSketch::new();
        let mut right = QuantileSketch::new();
        for i in 0..500 {
            let v = (i as f64).sin() * 40.0;
            all.push(v);
            if i % 2 == 0 {
                left.push(v);
            } else {
                right.push(v);
            }
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert_eq!(lr, rl, "sketch merge must commute");
        assert_eq!(lr, all, "sketch merge must be exact");
    }

    #[test]
    fn sketch_handles_negatives_zero_and_singletons() {
        let mut sk = QuantileSketch::new();
        for v in [-5.0, -1.0, 0.0, 1.0, 5.0] {
            sk.push(v);
        }
        assert!(sk.quantile(0.0).unwrap() <= -5.0 * (1.0 - 0.01));
        assert_eq!(sk.quantile(50.0).unwrap(), 0.0);
        assert!(sk.quantile(100.0).unwrap() >= 5.0 * (1.0 - 0.01));
        assert_eq!(QuantileSketch::new().quantile(50.0), None);
    }

    #[test]
    fn constant_series_reports_its_value_at_every_quantile() {
        // 560/17 is the channel's constant kbps; its bucket's lower bound
        // is 32.75, below every value the series holds.
        let v = 560.0 / 17.0;
        let mut agg = SeriesAgg::new();
        for _ in 0..16 {
            agg.push(v);
        }
        assert!(agg.sketch.quantile(50.0).unwrap() < v);
        for p in [0.0, 10.0, 50.0, 90.0, 95.0, 100.0] {
            assert_eq!(agg.quantile(p), Some(v), "p{p}");
        }
        assert_eq!(SeriesAgg::new().quantile(50.0), None);
        let mut shard = ShardAggregate::empty(0, 0, 1, 1);
        shard.series[0] = agg;
        let render = CampaignAggregate::merge_shards(&["kbps".to_owned()], &[shard]).render();
        assert!(
            render.contains(&format!("p10 {v:.6} p50 {v:.6} p90 {v:.6} p95 {v:.6}")),
            "{render}"
        );
    }

    #[test]
    fn sketch_encode_decode_round_trips() {
        let mut sk = QuantileSketch::new();
        for i in 0..257 {
            sk.push((i % 13) as f64 * 3.5 - 7.0);
        }
        let encoded = sk.encode();
        let decoded = QuantileSketch::decode(&encoded).unwrap();
        assert_eq!(sk, decoded);
        assert_eq!(encoded, decoded.encode(), "canonical form");
        // Corruption is a loud error, not a skewed sketch.
        assert!(QuantileSketch::decode("zz:1").is_err());
        assert!(QuantileSketch::decode("123").is_err());
        assert!(QuantileSketch::decode("fffff:0").is_err());
    }

    #[test]
    fn shard_aggregate_folds_sessions_per_series() {
        let mut shard = ShardAggregate::empty(2, 8, 12, 2);
        for i in 0..4 {
            shard.push_session(&[i as f64, 10.0 * i as f64]);
        }
        assert_eq!(shard.sessions(), 4);
        assert_eq!(shard.series[0].stats.count, 4);
        assert!((shard.series[1].stats.mean - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ascending index order")]
    fn campaign_merge_rejects_out_of_order_shards() {
        let names = vec!["x".to_owned()];
        let shards = vec![
            ShardAggregate::empty(1, 4, 8, 1),
            ShardAggregate::empty(0, 0, 4, 1),
        ];
        let _ = CampaignAggregate::merge_shards(&names, &shards);
    }

    #[test]
    fn campaign_render_is_deterministic_and_names_series() {
        let names = vec!["ber".to_owned(), "kbps".to_owned()];
        let mut s0 = ShardAggregate::empty(0, 0, 2, 2);
        s0.push_session(&[0.01, 35.0]);
        s0.push_session(&[0.02, 34.5]);
        let mut s1 = ShardAggregate::empty(1, 2, 3, 2);
        s1.push_session(&[0.0, 36.0]);
        let agg = CampaignAggregate::merge_shards(&names, &[s0.clone(), s1.clone()]);
        let again = CampaignAggregate::merge_shards(&names, &[s0, s1]);
        assert_eq!(agg.render(), again.render());
        assert_eq!(agg.sessions, 3);
        assert!(agg.render().contains("series ber "));
        assert!(agg.render().contains("series kbps "));
        assert!(agg.series("ber").is_some());
        assert!(agg.series("nope").is_none());
    }
}
