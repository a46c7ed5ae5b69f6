//! Sweep-level benchmark reporting: one JSON line per session plus one
//! aggregate object, written both to stdout and to `BENCH_sweep.json` so
//! the trajectory can be diffed across commits (ci.sh checks the schema).
//!
//! A session line carries everything needed to replay that session alone:
//! its index, its split seed (feed it to `AttackSetup::new` /
//! `run_channel_sweep` with one session), and the measured statistics. The
//! aggregate pools bit-error rates, rates and probe times across the sweep
//! with nearest-rank percentiles.

use std::io::Write as _;
use std::path::Path;

use mee_attack::experiments::ChannelSweepPoint;

/// One session as a JSON line.
pub fn session_line(sweep_name: &str, p: &ChannelSweepPoint) -> String {
    format!(
        "{{\"name\":\"{sweep_name}/session\",\"index\":{},\"seed\":{},\"bits\":{},\
         \"bit_errors\":{},\"kbps\":{:.1},\"probe_p50_cycles\":{},\"probe_p95_cycles\":{}}}",
        p.index,
        p.seed,
        p.bits,
        p.bit_errors,
        p.kbps,
        p.probe_p50.raw(),
        p.probe_p95.raw()
    )
}

/// A finished sweep: plan parameters plus per-session records.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Sweep name (`group/case`).
    pub name: String,
    /// Root seed the session seeds were split from.
    pub root_seed: u64,
    /// Worker threads the sweep ran on.
    pub threads: usize,
    /// Bits transmitted per session.
    pub bits_per_session: usize,
    /// Per-session results, in session order.
    pub records: Vec<ChannelSweepPoint>,
}

/// Nearest-rank percentile ([`mee_sweep::percentile`]) of an unsorted
/// sample set.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    mee_sweep::percentile(&sorted, p)
}

impl SweepReport {
    /// Pooled bit-error rate across every session.
    pub fn ber_mean(&self) -> f64 {
        let bits: usize = self.records.iter().map(|r| r.bits).sum();
        let errors: usize = self.records.iter().map(|r| r.bit_errors).sum();
        errors as f64 / bits as f64
    }

    /// The `p`-th percentile of per-session bit-error rates.
    pub fn ber_percentile(&self, p: f64) -> f64 {
        let rates: Vec<f64> = self
            .records
            .iter()
            .map(|r| r.bit_errors as f64 / r.bits as f64)
            .collect();
        percentile(&rates, p)
    }

    /// The aggregate as one JSON object — the `BENCH_sweep.json` schema.
    pub fn aggregate_json(&self) -> String {
        let kbps: Vec<f64> = self.records.iter().map(|r| r.kbps).collect();
        let probe_p50: Vec<f64> = self
            .records
            .iter()
            .map(|r| r.probe_p50.raw() as f64)
            .collect();
        let probe_p95: Vec<f64> = self
            .records
            .iter()
            .map(|r| r.probe_p95.raw() as f64)
            .collect();
        format!(
            "{{\"name\":{:?},\"root_seed\":{},\"sessions\":{},\"threads\":{},\
             \"bits_per_session\":{},\"ber_mean\":{:.4},\"ber_p95\":{:.4},\
             \"kbps_p50\":{:.1},\"kbps_p95\":{:.1},\"probe_p50_cycles\":{:.0},\
             \"probe_p95_cycles\":{:.0}}}",
            self.name,
            self.root_seed,
            self.records.len(),
            self.threads,
            self.bits_per_session,
            self.ber_mean(),
            self.ber_percentile(95.0),
            percentile(&kbps, 50.0),
            percentile(&kbps, 95.0),
            percentile(&probe_p50, 50.0),
            percentile(&probe_p95, 95.0),
        )
    }

    /// Prints one line per session followed by the aggregate line.
    pub fn emit(&self) -> &Self {
        for r in &self.records {
            println!("{}", session_line(&self.name, r));
        }
        println!("{}", self.aggregate_json());
        self
    }

    /// Writes the aggregate object (with a trailing newline) to `path` —
    /// conventionally `BENCH_sweep.json` in the repository root.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", self.aggregate_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_types::Cycles;

    fn report() -> SweepReport {
        SweepReport {
            name: "channel/seed_sweep".into(),
            root_seed: 2019,
            threads: 2,
            bits_per_session: 10,
            records: (0..4)
                .map(|i| ChannelSweepPoint {
                    index: i,
                    seed: 100 + i as u64,
                    bits: 10,
                    bit_errors: i,
                    kbps: 35.0 + i as f64,
                    elapsed: Cycles::new(10_000),
                    probe_p50: Cycles::new(480),
                    probe_p95: Cycles::new(700 + i as u64),
                })
                .collect(),
        }
    }

    #[test]
    fn aggregate_pools_and_ranks() {
        let r = report();
        // 0+1+2+3 errors over 40 bits.
        assert!((r.ber_mean() - 0.15).abs() < 1e-12);
        assert!((r.ber_percentile(95.0) - 0.3).abs() < 1e-12);
        let json = r.aggregate_json();
        for key in [
            "\"name\"",
            "\"root_seed\"",
            "\"sessions\"",
            "\"threads\"",
            "\"bits_per_session\"",
            "\"ber_mean\"",
            "\"ber_p95\"",
            "\"kbps_p50\"",
            "\"kbps_p95\"",
            "\"probe_p50_cycles\"",
            "\"probe_p95_cycles\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"sessions\":4"));
        assert!(
            !json.contains("host_ns"),
            "host times are not part of the artifact"
        );
    }

    #[test]
    fn session_lines_carry_the_replay_seed() {
        let r = report();
        let line = session_line(&r.name, &r.records[2]);
        assert!(line.contains("\"seed\":102"), "line: {line}");
        assert!(line.contains("\"index\":2"), "line: {line}");
    }

    #[test]
    fn write_emits_one_json_object() {
        let r = report();
        let dir = std::env::temp_dir().join("mee_sweep_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sweep.json");
        r.write(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.trim(), r.aggregate_json());
    }
}
