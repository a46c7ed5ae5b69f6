//! Resilience-sweep benchmark reporting: one JSON line per
//! (session, intensity) cell plus one aggregate object, written both to
//! stdout and to `BENCH_resilience.json` so the fault-tolerance trajectory
//! can be diffed across commits (ci.sh checks the schema).
//!
//! A cell line carries everything needed to replay it alone: the session's
//! split seed (feed it to `run_resilience`) and the fault intensity label.
//! The aggregate pools the three intensities across sessions and reports
//! the headline robustness numbers: how hard the heavy plan degrades the
//! raw channel, and what the recovering stack still delivers.
//! The aggregate holds no host-side field such as the thread count, so
//! runs at any `--threads` compare with `cmp` (ci.sh does).

use std::io::Write as _;
use std::path::Path;

/// One (session, intensity) cell of a resilience sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct IntensityRecord {
    /// Session position in the sweep.
    pub index: usize,
    /// The session's split seed (replayable standalone).
    pub seed: u64,
    /// Fault-plan intensity label (`off` / `light` / `heavy`).
    pub intensity: &'static str,
    /// Fault events that actually fired across the session's phases.
    pub faults_applied: usize,
    /// Raw (non-recovering) bit error rate.
    pub raw_ber: f64,
    /// Bit error rate after session-level self-healing (no ARQ).
    pub robust_ber: f64,
    /// Residual error rate of the recovering ARQ stack.
    pub residual_rate: f64,
    /// ARQ retransmissions.
    pub retransmissions: usize,
    /// Times the ARQ widened its timing window.
    pub window_escalations: usize,
    /// The timing window the ARQ finished on, in cycles.
    pub final_window_cycles: u64,
    /// Honest measured goodput of the ARQ transfer.
    pub goodput_kbps: f64,
}

impl IntensityRecord {
    /// The cell as one JSON line.
    pub fn json_line(&self, sweep_name: &str) -> String {
        format!(
            "{{\"name\":\"{sweep_name}/cell\",\"index\":{},\"seed\":{},\"intensity\":\"{}\",\
             \"faults_applied\":{},\"raw_ber\":{:.4},\"robust_ber\":{:.4},\
             \"residual_rate\":{:.4},\"retransmissions\":{},\"window_escalations\":{},\
             \"final_window_cycles\":{},\"goodput_kbps\":{:.2}}}",
            self.index,
            self.seed,
            self.intensity,
            self.faults_applied,
            self.raw_ber,
            self.robust_ber,
            self.residual_rate,
            self.retransmissions,
            self.window_escalations,
            self.final_window_cycles,
            self.goodput_kbps,
        )
    }
}

/// A finished resilience sweep: plan parameters plus per-cell records.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Sweep name (`group/case`).
    pub name: String,
    /// Root seed the session seeds were split from.
    pub root_seed: u64,
    /// Payload bits per phase per session.
    pub bits_per_session: usize,
    /// Per-cell records, session-major, intensities in plan order.
    pub records: Vec<IntensityRecord>,
}

impl ResilienceReport {
    fn pooled_ber(&self, intensity: &str) -> f64 {
        let cells: Vec<&IntensityRecord> = self
            .records
            .iter()
            .filter(|r| r.intensity == intensity)
            .collect();
        if cells.is_empty() {
            return 0.0;
        }
        cells.iter().map(|r| r.raw_ber).sum::<f64>() / cells.len() as f64
    }

    /// How many times worse the heavy plan makes the raw channel,
    /// relative to the unfaulted baseline. A clean baseline is floored at
    /// one pooled error-rate quantum so the ratio stays finite.
    pub fn degradation_x(&self) -> f64 {
        let floor = 1.0 / (self.bits_per_session.max(1) as f64);
        self.pooled_ber("heavy") / self.pooled_ber("off").max(floor)
    }

    /// The worst residual error rate of the recovering stack anywhere in
    /// the sweep.
    pub fn residual_worst(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.residual_rate)
            .fold(0.0, f64::max)
    }

    /// The aggregate as one JSON object — the `BENCH_resilience.json`
    /// schema.
    pub fn aggregate_json(&self) -> String {
        let sessions = self
            .records
            .iter()
            .map(|r| r.index)
            .max()
            .map_or(0, |m| m + 1);
        let heavy: Vec<&IntensityRecord> = self
            .records
            .iter()
            .filter(|r| r.intensity == "heavy")
            .collect();
        let retx: usize = heavy.iter().map(|r| r.retransmissions).sum();
        let escalations: usize = heavy.iter().map(|r| r.window_escalations).sum();
        let goodput_heavy_mean = if heavy.is_empty() {
            0.0
        } else {
            heavy.iter().map(|r| r.goodput_kbps).sum::<f64>() / heavy.len() as f64
        };
        format!(
            "{{\"name\":{:?},\"root_seed\":{},\"sessions\":{},\
             \"bits_per_session\":{},\"raw_ber_off\":{:.4},\"raw_ber_light\":{:.4},\
             \"raw_ber_heavy\":{:.4},\"degradation_x\":{:.2},\"residual_worst\":{:.4},\
             \"retransmissions_heavy\":{},\"window_escalations_heavy\":{},\
             \"goodput_heavy_kbps\":{:.2}}}",
            self.name,
            self.root_seed,
            sessions,
            self.bits_per_session,
            self.pooled_ber("off"),
            self.pooled_ber("light"),
            self.pooled_ber("heavy"),
            self.degradation_x(),
            self.residual_worst(),
            retx,
            escalations,
            goodput_heavy_mean,
        )
    }

    /// Prints one line per cell followed by the aggregate line.
    pub fn emit(&self) -> &Self {
        for r in &self.records {
            println!("{}", r.json_line(&self.name));
        }
        println!("{}", self.aggregate_json());
        self
    }

    /// Writes the aggregate object (with a trailing newline) to `path` —
    /// conventionally `BENCH_resilience.json` in the repository root.
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

    fn report() -> ResilienceReport {
        let cell = |index: usize, intensity: &'static str, raw_ber: f64| IntensityRecord {
            index,
            seed: 500 + index as u64,
            intensity,
            faults_applied: if intensity == "off" { 0 } else { 40 },
            raw_ber,
            robust_ber: raw_ber / 2.0,
            residual_rate: 0.0,
            retransmissions: if intensity == "heavy" { 6 } else { 0 },
            window_escalations: usize::from(intensity == "heavy"),
            final_window_cycles: if intensity == "heavy" { 60_000 } else { 15_000 },
            goodput_kbps: if intensity == "heavy" { 2.0 } else { 16.0 },
        };
        ResilienceReport {
            name: "resilience/fault_sweep".into(),
            root_seed: 2019,
            bits_per_session: 64,
            records: vec![
                cell(0, "off", 0.02),
                cell(0, "light", 0.03),
                cell(0, "heavy", 0.12),
                cell(1, "off", 0.02),
                cell(1, "light", 0.02),
                cell(1, "heavy", 0.16),
            ],
        }
    }

    #[test]
    fn aggregate_pools_per_intensity() {
        let r = report();
        assert!(
            (r.degradation_x() - 7.0).abs() < 1e-9,
            "{}",
            r.degradation_x()
        );
        assert_eq!(r.residual_worst(), 0.0);
        let json = r.aggregate_json();
        for key in [
            "\"name\"",
            "\"root_seed\"",
            "\"sessions\"",
            "\"bits_per_session\"",
            "\"raw_ber_off\"",
            "\"raw_ber_light\"",
            "\"raw_ber_heavy\"",
            "\"degradation_x\"",
            "\"residual_worst\"",
            "\"retransmissions_heavy\"",
            "\"window_escalations_heavy\"",
            "\"goodput_heavy_kbps\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"sessions\":2"));
        assert!(json.contains("\"retransmissions_heavy\":12"));
        assert!(
            !json.contains("\"threads\""),
            "the thread count is not part of the artifact"
        );
    }

    #[test]
    fn degradation_ratio_survives_a_clean_baseline() {
        let mut r = report();
        for rec in r.records.iter_mut().filter(|r| r.intensity == "off") {
            rec.raw_ber = 0.0;
        }
        let d = r.degradation_x();
        assert!(d.is_finite() && d > 0.0, "ratio {d} must stay finite");
    }

    #[test]
    fn cell_lines_carry_the_replay_seed_and_intensity() {
        let r = report();
        let line = r.records[2].json_line(&r.name);
        assert!(line.contains("\"seed\":500"), "line: {line}");
        assert!(line.contains("\"intensity\":\"heavy\""), "line: {line}");
    }

    #[test]
    fn write_emits_one_json_object() {
        let r = report();
        let dir = std::env::temp_dir().join("mee_resilience_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_resilience.json");
        r.write(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.trim(), r.aggregate_json());
    }
}
