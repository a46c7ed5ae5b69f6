//! DRAM bank/row-buffer latency model.

use mee_types::{Cycles, LineAddr, ModelError};

use crate::noise::{validate_std, GaussianJitter};

/// Geometry and timing of the DRAM subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of banks (power of two); consecutive rows interleave across
    /// banks.
    pub banks: usize,
    /// Row-buffer size in cache lines (power of two).
    pub row_lines: usize,
    /// Latency when the target row is already open in its bank.
    pub row_hit: Cycles,
    /// Latency when the bank must precharge + activate a new row.
    pub row_miss: Cycles,
    /// Gaussian jitter standard deviation in cycles.
    pub jitter_std: f64,
    /// RNG seed for the jitter source.
    pub seed: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            banks: 16,
            row_lines: 128, // 8 KiB rows
            row_hit: Cycles::new(170),
            row_miss: Cycles::new(210),
            jitter_std: 40.0,
            seed: 0x0d5a,
        }
    }
}

impl DramConfig {
    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for non-power-of-two geometry,
    /// `row_hit > row_miss`, or a negative or non-finite `jitter_std`.
    pub fn validate(&self) -> Result<(), ModelError> {
        let fail = |reason: String| Err(ModelError::InvalidConfig { reason });
        if !self.banks.is_power_of_two() {
            return fail(format!("bank count {} not a power of two", self.banks));
        }
        if !self.row_lines.is_power_of_two() {
            return fail(format!("row size {} not a power of two", self.row_lines));
        }
        if self.row_hit > self.row_miss {
            return fail("row_hit latency must not exceed row_miss".into());
        }
        validate_std(self.jitter_std)
    }
}

/// Stateful DRAM model: per-bank open rows, with jitter.
///
/// Address mapping: the row index is `line / row_lines`, and rows stripe
/// across banks (`row % banks`), the common open-page interleaving. The
/// state makes *stride pattern* matter: sequential sweeps enjoy row hits,
/// scattered probes pay activations — one of the noise floors the paper's
/// single-way probe has to survive.
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
    open_rows: Vec<Option<u64>>,
    jitter: GaussianJitter,
    accesses: u64,
    row_hits: u64,
    /// `log2(row_lines)` — the geometry is validated power-of-two, so the
    /// per-access row/bank mapping is a shift and a mask, not two divides.
    row_shift: u32,
    bank_mask: u64,
}

impl DramModel {
    /// Creates a DRAM model with all banks closed.
    ///
    /// # Errors
    ///
    /// Propagates [`DramConfig::validate`] failures.
    pub fn new(cfg: DramConfig) -> Result<Self, ModelError> {
        cfg.validate()?;
        Ok(DramModel {
            jitter: GaussianJitter::new(cfg.jitter_std, cfg.seed)?,
            open_rows: vec![None; cfg.banks],
            row_shift: cfg.row_lines.trailing_zeros(),
            bank_mask: cfg.banks as u64 - 1,
            cfg,
            accesses: 0,
            row_hits: 0,
        })
    }

    /// Returns the configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Performs one line fetch and returns its latency.
    pub fn access(&mut self, line: LineAddr) -> Cycles {
        self.accesses += 1;
        let row = line.raw() >> self.row_shift;
        let bank = (row & self.bank_mask) as usize;
        let base = if self.open_rows[bank] == Some(row) {
            self.row_hits += 1;
            self.cfg.row_hit
        } else {
            self.open_rows[bank] = Some(row);
            self.cfg.row_miss
        };
        self.jitter.apply(base)
    }

    /// Fraction of accesses that hit an open row so far.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }

    /// Total accesses performed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Closes every bank's row buffer (e.g. after a refresh window).
    pub fn close_all_rows(&mut self) {
        for r in &mut self.open_rows {
            *r = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(cfg: DramConfig) -> DramModel {
        DramModel::new(DramConfig {
            jitter_std: 0.0,
            ..cfg
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(DramConfig::default().validate().is_ok());
        assert!(DramConfig {
            banks: 3,
            ..DramConfig::default()
        }
        .validate()
        .is_err());
        assert!(DramConfig {
            row_lines: 100,
            ..DramConfig::default()
        }
        .validate()
        .is_err());
        assert!(DramConfig {
            row_hit: Cycles::new(500),
            ..DramConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn bad_jitter_is_a_typed_error_not_a_panic() {
        for jitter_std in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let cfg = DramConfig {
                jitter_std,
                ..DramConfig::default()
            };
            assert!(
                matches!(cfg.validate(), Err(ModelError::InvalidConfig { .. })),
                "jitter_std {jitter_std} accepted"
            );
            assert!(DramModel::new(cfg).is_err());
        }
    }

    #[test]
    fn first_access_is_a_row_miss() {
        let mut d = quiet(DramConfig::default());
        assert_eq!(d.access(LineAddr::new(0)), Cycles::new(210));
    }

    #[test]
    fn same_row_hits_after_activation() {
        let mut d = quiet(DramConfig::default());
        d.access(LineAddr::new(0));
        assert_eq!(d.access(LineAddr::new(1)), Cycles::new(170));
        assert!(d.row_hit_rate() > 0.0);
    }

    #[test]
    fn different_rows_same_bank_conflict() {
        let cfg = DramConfig::default();
        let mut d = quiet(cfg.clone());
        let row_stride = cfg.row_lines as u64;
        let bank_cycle = cfg.banks as u64 * row_stride;
        d.access(LineAddr::new(0)); // row 0, bank 0
        d.access(LineAddr::new(bank_cycle)); // row banks, bank 0 again
        assert_eq!(d.access(LineAddr::new(0)), Cycles::new(210)); // row 0 evicted
    }

    #[test]
    fn sequential_sweep_mostly_row_hits() {
        let mut d = quiet(DramConfig::default());
        for i in 0..1024u64 {
            d.access(LineAddr::new(i));
        }
        assert!(d.row_hit_rate() > 0.9, "rate = {}", d.row_hit_rate());
        assert_eq!(d.accesses(), 1024);
    }

    #[test]
    fn close_all_rows_forces_misses() {
        let mut d = quiet(DramConfig::default());
        d.access(LineAddr::new(0));
        d.close_all_rows();
        assert_eq!(d.access(LineAddr::new(1)), Cycles::new(210));
    }

    #[test]
    fn jitter_perturbs_but_preserves_scale() {
        let mut d = DramModel::new(DramConfig::default()).unwrap();
        let lat = d.access(LineAddr::new(0));
        assert!((105..=380).contains(&lat.raw()), "latency = {lat}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || DramModel::new(DramConfig::default()).unwrap();
        let (mut a, mut b) = (mk(), mk());
        for i in 0..256u64 {
            assert_eq!(
                a.access(LineAddr::new(i * 37)),
                b.access(LineAddr::new(i * 37))
            );
        }
    }
}
