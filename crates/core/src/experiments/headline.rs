//! The headline numbers (§1, §5.4): ~35 KBps at ~1.7% error with a
//! 15000-cycle window and no error handling — plus the coded extension.

use std::fmt;

use mee_types::ModelError;

use crate::channel::coding::{deframe, frame};
use crate::channel::{random_bits, BitErrors, ChannelConfig, Session};
use crate::report;
use crate::setup::AttackSetup;

/// Headline output.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadlineResult {
    /// Raw channel rate in KBps.
    pub kbps: f64,
    /// Raw bit error rate (no error handling, as in the paper).
    pub raw_error_rate: f64,
    /// Residual error rate after the Hamming(7,4) + preamble extension
    /// (counts the coding overhead against the rate below).
    pub coded_error_rate: f64,
    /// Effective data rate of the coded channel in KBps.
    pub coded_kbps: f64,
    /// Bits transmitted for the raw measurement.
    pub bits: usize,
}

/// Runs the headline measurement with `bits` random payload bits.
///
/// # Errors
///
/// Propagates machine and setup errors.
pub fn run_headline(seed: u64, bits: usize) -> Result<HeadlineResult, ModelError> {
    let mut setup = AttackSetup::new(seed)?;
    let cfg = ChannelConfig::default();
    let session = Session::establish(&mut setup, &cfg)?;

    // Raw channel.
    let payload = random_bits(bits, seed);
    let raw = session.transmit(&mut setup, &payload)?;

    // Coded channel: frame, transmit, deframe.
    let data = random_bits(bits / 2, seed.wrapping_add(1));
    let framed = frame(&data);
    let coded_out = session.transmit(&mut setup, &framed)?;
    let decoded = deframe(&coded_out.received, data.len(), 4).unwrap_or_default();
    let coded_errors = BitErrors::compare(&data, &decoded);
    let coded_kbps = raw.kbps * (data.len() as f64 / framed.len() as f64);

    Ok(HeadlineResult {
        kbps: raw.kbps,
        raw_error_rate: raw.error_rate(),
        coded_error_rate: coded_errors.rate(),
        coded_kbps,
        bits,
    })
}

impl fmt::Display for HeadlineResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Headline — 15000-cycle window, {} random bits",
            self.bits
        )?;
        let rows = vec![
            vec![
                "raw (paper)".to_string(),
                format!("{:.1}", self.kbps),
                report::pct(self.raw_error_rate),
            ],
            vec![
                "Hamming(7,4) coded (extension)".to_string(),
                format!("{:.1}", self.coded_kbps),
                report::pct(self.coded_error_rate),
            ],
        ];
        f.write_str(&report::table(
            &["channel", "rate (KBps)", "error rate"],
            &rows,
        ))?;
        writeln!(f, "paper reports: 35 KBps at 1.7% error, no error handling")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_matches_paper_band() {
        let r = run_headline(106, 1024).unwrap();
        assert!((30.0..=40.0).contains(&r.kbps), "kbps = {}", r.kbps);
        assert!(r.raw_error_rate < 0.08, "raw error = {}", r.raw_error_rate);
        // Coding reduces the error rate (or keeps a clean run clean).
        assert!(
            r.coded_error_rate <= r.raw_error_rate + 0.005,
            "coded {} vs raw {}",
            r.coded_error_rate,
            r.raw_error_rate
        );
        assert!(r.coded_kbps < r.kbps);
        assert!(r.to_string().contains("Headline"));
    }
}
