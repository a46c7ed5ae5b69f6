//! Stealth comparison (extension): the MEE channel vs classic LLC
//! Prime+Probe, as seen by LLC-state defenses.
//!
//! The paper's abstract calls the MEE cache "a shared resource but only
//! utilized when accessing the integrity tree data", providing "opportunity
//! for a stealthy covert channel attack", and §5.5 notes that the deployed
//! detector/defense literature watches the LLC. This experiment quantifies
//! that: during a transmission we count *conflict evictions the channel
//! inflicts on the LLC* — what occupancy-based defenses (e.g. CATalyst-
//! style partition monitors) and eviction-pattern detectors observe. The
//! MEE channel's working set is a handful of lines that it flushes itself
//! (`clflush` leaves no conflict evictions); the LLC channel lives by
//! hammering one LLC set with conflict misses.

use std::fmt;

use mee_types::{Cycles, ModelError};

use crate::channel::llc::LlcSession;
use crate::channel::{random_bits, ChannelConfig, Session};
use crate::report;
use crate::setup::AttackSetup;

/// Footprint of one channel run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelFootprint {
    /// Raw rate in KBps.
    pub kbps: f64,
    /// Bit error rate.
    pub error_rate: f64,
    /// LLC conflict evictions caused per transmitted bit.
    pub llc_evictions_per_bit: f64,
    /// MEE-cache walks per transmitted bit.
    pub mee_walks_per_bit: f64,
}

/// Stealth-comparison output.
#[derive(Debug, Clone, PartialEq)]
pub struct StealthResult {
    /// The paper's MEE-cache channel.
    pub mee_channel: ChannelFootprint,
    /// The classic LLC Prime+Probe channel.
    pub llc_channel: ChannelFootprint,
    /// Bits per run.
    pub bits: usize,
}

/// Runs both channels for `bits` random bits and compares footprints.
///
/// # Errors
///
/// Propagates machine and setup errors.
pub fn run_stealth(seed: u64, bits: usize) -> Result<StealthResult, ModelError> {
    // MEE channel.
    let mee_channel = {
        let mut setup = AttackSetup::new(seed)?;
        let session = Session::establish(&mut setup, &ChannelConfig::default())?;
        let llc_evictions_before = setup.machine.llc().stats().evictions;
        let mee_reads_before = setup.machine.mee().stats().reads;
        let payload = random_bits(bits, seed);
        let out = session.transmit(&mut setup, &payload)?;
        ChannelFootprint {
            kbps: out.kbps,
            error_rate: out.error_rate(),
            llc_evictions_per_bit: (setup.machine.llc().stats().evictions - llc_evictions_before)
                as f64
                / bits as f64,
            mee_walks_per_bit: (setup.machine.mee().stats().reads - mee_reads_before) as f64
                / bits as f64,
        }
    };

    // LLC channel.
    let llc_channel = {
        let mut setup = AttackSetup::new(seed.wrapping_add(1))?;
        let session = LlcSession::establish(&mut setup, Cycles::new(4_000))?;
        let llc_evictions_before = setup.machine.llc().stats().evictions;
        let mee_reads_before = setup.machine.mee().stats().reads;
        let payload = random_bits(bits, seed.wrapping_add(1));
        let out = session.transmit(&mut setup, &payload)?;
        ChannelFootprint {
            kbps: out.kbps,
            error_rate: out.errors.rate(),
            llc_evictions_per_bit: (setup.machine.llc().stats().evictions - llc_evictions_before)
                as f64
                / bits as f64,
            mee_walks_per_bit: (setup.machine.mee().stats().reads - mee_reads_before) as f64
                / bits as f64,
        }
    };

    Ok(StealthResult {
        mee_channel,
        llc_channel,
        bits,
    })
}

impl fmt::Display for StealthResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Stealth comparison (extension) — footprint per transmitted bit \
             ({} random bits per channel)",
            self.bits
        )?;
        let row = |name: &str, c: &ChannelFootprint| {
            vec![
                name.to_string(),
                format!("{:.1}", c.kbps),
                report::pct(c.error_rate),
                format!("{:.2}", c.llc_evictions_per_bit),
                format!("{:.2}", c.mee_walks_per_bit),
            ]
        };
        let rows = vec![
            row("MEE cache (this work)", &self.mee_channel),
            row("LLC Prime+Probe [7]", &self.llc_channel),
        ];
        f.write_str(&report::table(
            &[
                "channel",
                "rate (KBps)",
                "error",
                "LLC evictions/bit",
                "MEE walks/bit",
            ],
            &rows,
        ))?;
        writeln!(
            f,
            "the LLC channel is faster but lives on LLC conflict evictions, \
             visible to occupancy/eviction monitors; the MEE channel flushes \
             its own lines and leaves the LLC essentially undisturbed"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mee_channel_is_quieter_in_the_llc() {
        let r = run_stealth(401, 192).unwrap();
        // Both channels actually work.
        assert!(r.mee_channel.error_rate < 0.08);
        assert!(r.llc_channel.error_rate < 0.08);
        // LLC channel is faster (the paper concedes this)…
        assert!(r.llc_channel.kbps > r.mee_channel.kbps);
        // …but inflicts far more LLC conflict evictions.
        assert!(
            r.llc_channel.llc_evictions_per_bit > r.mee_channel.llc_evictions_per_bit * 3.0,
            "LLC {} vs MEE {} evictions/bit",
            r.llc_channel.llc_evictions_per_bit,
            r.mee_channel.llc_evictions_per_bit
        );
        // And the MEE channel is the only one touching the MEE.
        assert!(r.mee_channel.mee_walks_per_bit > 1.0);
        assert!(r.llc_channel.mee_walks_per_bit < 0.01);
    }
}
