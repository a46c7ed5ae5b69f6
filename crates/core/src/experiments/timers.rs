//! §3 challenge 4: the cost of each timestamp primitive available to
//! enclave code (Figure 2's three approaches).

use std::fmt;

use mee_mem::AddressSpaceKind;
use mee_types::{Cycles, ModelError};

use crate::report;
use crate::setup::AttackSetup;

/// Cost census of the timing primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimersResult {
    /// `rdtsc` cost outside an enclave (Figure 2(a)).
    pub rdtsc_cost: Cycles,
    /// Whether `rdtsc` faults inside an enclave (it must).
    pub rdtsc_faults_in_enclave: bool,
    /// Sampled OCALL round-trip costs (Figure 2(b); paper: 8000–15000).
    pub ocall_costs: Vec<Cycles>,
    /// Hyperthread timer-mailbox read cost (Figure 2(c); paper: ~50).
    pub timer_read_cost: Cycles,
    /// The mailbox refresh quantum (timestamp granularity).
    pub timer_quantum: u64,
}

/// Measures every primitive on a fresh machine.
///
/// # Errors
///
/// Propagates machine errors.
pub fn run_timers(seed: u64, ocall_samples: usize) -> Result<TimersResult, ModelError> {
    let mut setup = AttackSetup::quiet(seed)?;
    let quantum = setup.machine.config().timer_quantum;

    // rdtsc outside an enclave.
    let regular = setup.machine.create_process(AddressSpaceKind::Regular);
    let core = setup.spy.core;
    let before = setup.machine.core_now(core);
    setup.machine.rdtsc(core, regular)?;
    let rdtsc_cost = setup.machine.core_now(core) - before;

    // rdtsc inside the enclave faults.
    let rdtsc_faults_in_enclave = setup.machine.rdtsc(core, setup.spy.proc).is_err();

    // OCALL round trips.
    let mut ocall_costs = Vec::with_capacity(ocall_samples);
    for _ in 0..ocall_samples {
        let before = setup.machine.core_now(core);
        setup.machine.ocall_rdtsc(core);
        ocall_costs.push(setup.machine.core_now(core) - before);
    }

    // Timer-mailbox read.
    let before = setup.machine.core_now(core);
    setup.machine.timer_read(core);
    let timer_read_cost = setup.machine.core_now(core) - before;

    Ok(TimersResult {
        rdtsc_cost,
        rdtsc_faults_in_enclave,
        ocall_costs,
        timer_read_cost,
        timer_quantum: quantum,
    })
}

impl TimersResult {
    /// Min/max OCALL cost observed.
    pub fn ocall_range(&self) -> (Cycles, Cycles) {
        let min = self
            .ocall_costs
            .iter()
            .min()
            .copied()
            .unwrap_or(Cycles::ZERO);
        let max = self
            .ocall_costs
            .iter()
            .max()
            .copied()
            .unwrap_or(Cycles::ZERO);
        (min, max)
    }
}

impl fmt::Display for TimersResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Timing primitives available to enclave code (paper §3)")?;
        let (omin, omax) = self.ocall_range();
        let rows = vec![
            vec![
                "rdtsc (non-enclave, fig 2a)".to_string(),
                self.rdtsc_cost.raw().to_string(),
                "faults inside SGX1 enclaves".to_string(),
            ],
            vec![
                "OCALL rdtsc (fig 2b)".to_string(),
                format!("{}–{}", omin.raw(), omax.raw()),
                "paper: 8000–15000 cycles".to_string(),
            ],
            vec![
                "timer-thread mailbox (fig 2c)".to_string(),
                self.timer_read_cost.raw().to_string(),
                format!(
                    "paper: ~50 cycles, ±{}-cycle granularity",
                    self.timer_quantum
                ),
            ],
        ];
        f.write_str(&report::table(
            &["primitive", "cost (cycles)", "notes"],
            &rows,
        ))?;
        writeln!(
            f,
            "rdtsc in enclave: {}",
            if self.rdtsc_faults_in_enclave {
                "#UD fault (as on SGX1)"
            } else {
                "UNEXPECTEDLY PERMITTED"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_costs_match_paper() {
        let r = run_timers(107, 16).unwrap();
        assert!(r.rdtsc_faults_in_enclave);
        assert_eq!(r.timer_read_cost, Cycles::new(50));
        let (min, max) = r.ocall_range();
        assert!(min.raw() >= 8_000, "ocall min {min}");
        assert!(max.raw() <= 15_000, "ocall max {max}");
        // OCALL is two orders of magnitude worse than the mailbox.
        assert!(min.raw() > r.timer_read_cost.raw() * 100);
        assert!(r.to_string().contains("OCALL"));
    }
}
