//! Figure 5: histogram of protected-region access latency by MEE hit level.

use std::fmt;

use mee_engine::HitLevel;
use mee_types::ModelError;

use crate::recon::latency::LatencyCensus;
use crate::report;
use crate::setup::AttackSetup;

/// The paper's strides: 64 B, 512 B, 4 KiB, 32 KiB, 256 KiB.
pub const PAPER_STRIDES: [usize; 5] = [64, 512, 4096, 32 << 10, 256 << 10];

/// Figure-5 output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig5Result {
    /// One census per stride.
    pub censuses: Vec<LatencyCensus>,
}

impl Fig5Result {
    /// Pools every sample across strides.
    pub fn pooled(&self) -> LatencyCensus {
        LatencyCensus {
            stride: 0,
            samples: self
                .censuses
                .iter()
                .flat_map(|c| c.samples.iter().copied())
                .collect(),
        }
    }
}

/// Runs the Figure-5 census.
///
/// # Errors
///
/// Propagates machine errors.
pub fn run_fig5(seed: u64, samples: usize, passes: usize) -> Result<Fig5Result, ModelError> {
    let mut setup = AttackSetup::new(seed)?;
    let mut censuses = Vec::new();
    for &stride in &PAPER_STRIDES {
        // Page-and-above strides need a working set larger than the MEE
        // cache, or version lines simply stay resident between passes and
        // the deep-walk levels never appear.
        let n = if stride >= 4096 { samples * 6 } else { samples };
        censuses.push(crate::recon::latency::census_for_stride(
            &mut setup, stride, n, passes,
        )?);
    }
    Ok(Fig5Result { censuses })
}

impl fmt::Display for Fig5Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 5 — protected data region main-memory access latency by MEE hit level"
        )?;
        let pooled = self.pooled();
        let mut rows = Vec::new();
        for level in HitLevel::ALL {
            let count = pooled.level_histogram()[level.ladder_index()];
            let mean = pooled
                .mean_at(level)
                .map(|c| c.raw().to_string())
                .unwrap_or_else(|| "-".into());
            rows.push(vec![level.label().to_string(), count.to_string(), mean]);
        }
        f.write_str(&report::table(
            &["hit level", "samples", "mean cycles"],
            &rows,
        ))?;

        writeln!(
            f,
            "\nlatency histogram (all strides pooled, 40-cycle bins):"
        )?;
        let samples: Vec<u64> = pooled.samples.iter().map(|s| s.latency.raw()).collect();
        f.write_str(&report::latency_histogram(&samples, 40, 30))?;

        writeln!(f, "\nper-stride dominant level:")?;
        let rows: Vec<Vec<String>> = self
            .censuses
            .iter()
            .map(|c| {
                vec![
                    format!("{} B", c.stride),
                    c.dominant_level()
                        .map(|l| l.label().to_string())
                        .unwrap_or_else(|| "-".into()),
                ]
            })
            .collect();
        f.write_str(&report::table(&["stride", "dominant hit level"], &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_ladder_holds() {
        let r = run_fig5(102, 48, 2).unwrap();
        let pooled = r.pooled();
        // Versions-hit mean ≈ 480 and strictly below any deeper level mean.
        let versions = pooled.mean_at(HitLevel::Versions).unwrap();
        assert!(
            (420..=560).contains(&versions.raw()),
            "versions = {versions}"
        );
        for level in [HitLevel::L0, HitLevel::L1, HitLevel::L2, HitLevel::Root] {
            if let Some(m) = pooled.mean_at(level) {
                assert!(m > versions, "{level} mean {m} not above versions");
            }
        }
        let text = r.to_string();
        assert!(text.contains("Figure 5"));
        assert!(text.contains("versions hit"));
    }
}
