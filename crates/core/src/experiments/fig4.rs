//! Figure 4: eviction probability vs candidate-set size, and the capacity
//! estimate.

use std::fmt;

use mee_types::ModelError;

use crate::recon::capacity::{run_capacity_experiment, CapacityResult};
use crate::report;
use crate::setup::AttackSetup;

/// The paper's x-axis.
pub const PAPER_SIZES: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// Figure-4 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// The sweep.
    pub capacity: CapacityResult,
}

/// Runs the Figure-4 experiment: `trials` eviction tests per candidate-set
/// size (the paper uses 100).
///
/// # Errors
///
/// Propagates machine errors.
pub fn run_fig4(seed: u64, trials: usize) -> Result<Fig4Result, ModelError> {
    let mut setup = AttackSetup::new(seed)?;
    let capacity = run_capacity_experiment(&mut setup, &PAPER_SIZES, trials, 0)?;
    Ok(Fig4Result { capacity })
}

impl fmt::Display for Fig4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4 — eviction probability vs candidate address set size \
             ({} trials per point)",
            self.capacity.trials
        )?;
        let rows: Vec<Vec<String>> = self
            .capacity
            .points
            .iter()
            .map(|(k, p)| vec![k.to_string(), format!("{p:.2}")])
            .collect();
        f.write_str(&report::table(
            &["candidates", "eviction probability"],
            &rows,
        ))?;
        let entries: Vec<(String, f64)> = self
            .capacity
            .points
            .iter()
            .map(|(k, p)| (format!("k={k:<3}"), *p))
            .collect();
        f.write_str(&report::bar_chart(&entries, 40))?;
        match self.capacity.estimated_capacity_bytes {
            Some(bytes) => writeln!(
                f,
                "estimated MEE cache capacity: {} KiB (paper: 64 KiB)",
                bytes / 1024
            ),
            None => writeln!(f, "eviction probability never saturated — capacity unknown"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_reproduces_shape_and_capacity() {
        let r = run_fig4(101, 25).unwrap();
        let first = r.capacity.points.first().unwrap().1;
        let last = r.capacity.points.last().unwrap().1;
        assert!(first < 0.3, "p(2) = {first}");
        assert!(last > 0.85, "p(64) = {last}");
        if let Some(bytes) = r.capacity.estimated_capacity_bytes {
            assert_eq!(bytes, 64 * 1024);
        }
        let text = r.to_string();
        assert!(text.contains("Figure 4"));
        assert!(text.contains("64"));
    }
}
