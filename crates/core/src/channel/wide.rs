//! The *wide* channel (extension): several MEE-cache sets in parallel.
//!
//! The paper's channel sends one bit per timing window through one cache
//! set. Nothing stops the pair from agreeing on several in-page offsets:
//! each of the 8 version blocks of a page maps to a *different* MEE-cache
//! set (offset `o` lands on set `≡ 2o+1 (mod 16)` within its alignment
//! class), so up to 8 independent lanes coexist without colliding. The
//! trojan sweeps the eviction sets of all `1` lanes inside the window; the
//! spy probes one monitor address per lane in its guard slot.
//!
//! Throughput: a lane's `1` costs ≈ 9000 cycles of trojan time, so the
//! window must grow with the lane count and the speedup saturates around
//! `15000 / 9000 ≈ 1.7×` — but latency per symbol improves, and the lanes
//! share one setup. The [`wide` experiment](crate::experiments::wide)
//! quantifies the trade-off.

use mee_machine::{CoreHandle, NoopHook};
use mee_types::{Cycles, ModelError, VirtAddr};

use crate::channel::config::ChannelConfig;
use crate::channel::session::Session;
use crate::channel::spy::TimedProbe;
use crate::channel::windowed::{run_windows, Flow, Schedule, Slot, TransmitOutcome, WindowAction};
use crate::setup::AttackSetup;
use crate::threshold::LatencyClassifier;

/// One lane: an eviction set and a monitor address in one MEE-cache set.
#[derive(Debug, Clone)]
pub struct Lane {
    /// The trojan's eviction addresses for this lane.
    pub eviction_set: Vec<VirtAddr>,
    /// The spy's monitor address for this lane.
    pub monitor: VirtAddr,
    /// The agreed in-page offset this lane uses.
    pub offset: usize,
}

/// A multi-lane channel.
#[derive(Debug, Clone)]
pub struct WideSession {
    /// The lanes, in symbol bit order (lane 0 = most significant).
    pub lanes: Vec<Lane>,
    /// Window per symbol.
    pub window: Cycles,
    classifier: LatencyClassifier,
}

impl WideSession {
    /// Establishes `lanes` parallel lanes (1 ..= 8) by running the ordinary
    /// establishment once per agreed offset.
    ///
    /// The window defaults to `max(cfg.window, lanes × 9500 + 2500)` so the
    /// trojan can sweep every active lane within one window.
    ///
    /// # Errors
    ///
    /// Propagates establishment errors; returns
    /// [`ModelError::InvalidConfig`] for a lane count outside `1..=8`.
    pub fn establish(
        setup: &mut AttackSetup,
        cfg: &ChannelConfig,
        lanes: usize,
    ) -> Result<Self, ModelError> {
        if !(1..=8).contains(&lanes) {
            return Err(ModelError::InvalidConfig {
                reason: format!("lane count {lanes} must be in 1..=8 (one per version block)"),
            });
        }
        cfg.validate()?;
        let mut built = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let lane_cfg = ChannelConfig {
                agreed_offset: lane,
                ..cfg.clone()
            };
            let session = Session::establish(setup, &lane_cfg)?;
            built.push(Lane {
                eviction_set: session.eviction_set,
                monitor: session.monitor,
                offset: lane,
            });
        }
        let min_window = Cycles::new(lanes as u64 * 9_500 + 2_500);
        Ok(WideSession {
            lanes: built,
            window: cfg.window.max(min_window),
            classifier: LatencyClassifier::from_timing(&setup.machine.config().timing),
        })
    }

    /// Transmits `bits` (flattened symbols: window `w` carries bits
    /// `w*lanes .. (w+1)*lanes`, zero-padded at the tail).
    ///
    /// # Errors
    ///
    /// Propagates machine errors; returns [`ModelError::InvalidConfig`] for
    /// a zero window.
    pub fn transmit(
        &self,
        setup: &mut AttackSetup,
        bits: &[bool],
    ) -> Result<TransmitOutcome, ModelError> {
        let lanes = self.lanes.len();
        let symbols = bits.len().div_ceil(lanes);
        let mut padded = bits.to_vec();
        padded.resize(symbols * lanes, false);

        let schedule = Schedule::agree(
            &setup.machine,
            setup.spy.core,
            setup.trojan.core,
            self.window,
        )?;
        let lane_sets = self.lanes.iter().map(|l| l.eviction_set.clone()).collect();
        let timer_classifier = LatencyClassifier {
            bias: setup.machine.config().timing.timer_read,
            ..self.classifier
        };
        let guard = Cycles::new((lanes as u64 * 800 + 400).min(self.window.raw() / 2));
        let monitors = self.lanes.iter().map(|l| l.monitor).collect();
        let (probe, _) = run_windows(
            &mut setup.machine,
            schedule,
            symbols,
            (
                setup.spy.core,
                setup.spy.proc,
                TimedProbe::new(monitors, guard, timer_classifier),
            ),
            (
                setup.trojan.core,
                setup.trojan.proc,
                LaneSweep::new(lane_sets, padded),
            ),
            &mut [],
            &mut NoopHook,
        )?;
        Ok(TransmitOutcome::new(
            &setup.machine,
            schedule,
            symbols,
            bits,
            probe.decoded_bits(),
            probe.probe_times(),
            &[],
        ))
    }
}

/// The multi-lane trojan's action: per window, sweeps the eviction set of
/// every lane whose bit is `1` (forward, `mfence`, backward, rotating
/// starts). Unlike [`EvictionSweep`](crate::channel::EvictionSweep), the
/// fence rides on the last forward access's step.
#[derive(Debug)]
pub struct LaneSweep {
    lane_sets: Vec<Vec<VirtAddr>>,
    bits: Vec<bool>,
    rotation: usize,
    /// The lane being swept and the position in its forward-then-backward
    /// order (`0 .. 2n`).
    lane: usize,
    pos: usize,
}

impl LaneSweep {
    /// Creates the multi-lane trojan's action, sending `bits` as symbols of
    /// `lane_sets.len()` bits, one per window.
    ///
    /// # Panics
    ///
    /// Panics if any lane's eviction set is empty or `bits.len()` is not a
    /// multiple of the lane count.
    pub fn new(lane_sets: Vec<Vec<VirtAddr>>, bits: Vec<bool>) -> Self {
        assert!(lane_sets.iter().all(|s| !s.is_empty()), "empty lane set");
        assert_eq!(
            bits.len() % lane_sets.len(),
            0,
            "bits must fill whole symbols"
        );
        LaneSweep {
            lane_sets,
            bits,
            rotation: 0,
            lane: 0,
            pos: 0,
        }
    }

    /// First active lane at or after `lane` in `symbol`, if any.
    fn next_active(&self, symbol: usize, lane: usize) -> Option<usize> {
        let lanes = self.lane_sets.len();
        (lane..lanes).find(|&l| self.bits[symbol * lanes + l])
    }
}

impl WindowAction for LaneSweep {
    const LEAD_IN: bool = true;

    fn step(&mut self, at: Slot, cpu: &mut CoreHandle<'_>) -> Result<Flow, ModelError> {
        if at.k > 0 {
            let set = &self.lane_sets[self.lane];
            let n = set.len();
            let idx = if self.pos < n {
                (self.rotation + self.pos) % n
            } else {
                (self.rotation + (2 * n - 1 - self.pos)) % n
            };
            cpu.read_flush(set[idx])?;
            self.pos += 1;
            if self.pos == n {
                cpu.mfence();
            }
            if self.pos < 2 * n {
                return Ok(Flow::Continue);
            }
        }
        // Window entered or lane done: sweep the next active lane, or wait
        // out the window.
        let from = if at.k == 0 { 0 } else { self.lane + 1 };
        match self.next_active(at.i, from) {
            Some(lane) => {
                self.lane = lane;
                self.pos = 0;
                Ok(Flow::Continue)
            }
            None if at.k == 0 => Ok(Flow::Idle),
            None => {
                self.rotation = self.rotation.wrapping_add(1);
                Ok(Flow::Wait)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::message::random_bits;

    #[test]
    fn lane_sets_occupy_distinct_mee_sets() {
        let mut setup = AttackSetup::quiet(501).unwrap();
        let wide = WideSession::establish(&mut setup, &ChannelConfig::default(), 3).unwrap();
        let geo = *setup.machine.mee().geometry();
        let sets = setup.machine.mee().cache().config().sets;
        let set_of = |proc, va| {
            let pa = setup.machine.translate(proc, va).unwrap();
            geo.version_line(geo.walk_path(pa.line()).version)
                .set_index(sets)
        };
        let lane_sets: Vec<usize> = wide
            .lanes
            .iter()
            .map(|l| set_of(setup.spy.proc, l.monitor))
            .collect();
        for i in 0..lane_sets.len() {
            for j in i + 1..lane_sets.len() {
                assert_ne!(lane_sets[i], lane_sets[j], "lanes {i}/{j} collide");
            }
        }
    }

    #[test]
    fn two_lane_channel_is_error_free_quiet() {
        let mut setup = AttackSetup::quiet(502).unwrap();
        let wide = WideSession::establish(&mut setup, &ChannelConfig::default(), 2).unwrap();
        let bits = random_bits(64, 502);
        let out = wide.transmit(&mut setup, &bits).unwrap();
        assert_eq!(out.received, bits);
    }

    #[test]
    fn wide_channel_beats_single_lane_throughput() {
        let mut setup = AttackSetup::quiet(503).unwrap();
        let single = WideSession::establish(&mut setup, &ChannelConfig::default(), 1).unwrap();
        let bits = random_bits(48, 503);
        let single_out = single.transmit(&mut setup, &bits).unwrap();

        let mut setup2 = AttackSetup::quiet(503).unwrap();
        let wide = WideSession::establish(&mut setup2, &ChannelConfig::default(), 4).unwrap();
        let wide_out = wide.transmit(&mut setup2, &bits).unwrap();

        assert_eq!(wide_out.received, bits, "wide channel corrupted data");
        assert!(
            wide_out.kbps > single_out.kbps * 1.2,
            "wide {} KBps vs single {} KBps",
            wide_out.kbps,
            single_out.kbps
        );
    }

    #[test]
    fn transmit_rejects_a_zero_window() {
        let mut setup = AttackSetup::quiet(505).unwrap();
        let wide = WideSession {
            lanes: vec![Lane {
                eviction_set: setup.trojan.candidates(8, 0),
                monitor: setup.spy.candidate(0, 0),
                offset: 0,
            }],
            window: Cycles::ZERO,
            classifier: LatencyClassifier::from_timing(&setup.machine.config().timing),
        };
        assert!(matches!(
            wide.transmit(&mut setup, &[true, false]),
            Err(ModelError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn lane_count_bounds_enforced() {
        let mut setup = AttackSetup::quiet(504).unwrap();
        assert!(WideSession::establish(&mut setup, &ChannelConfig::default(), 0).is_err());
        assert!(WideSession::establish(&mut setup, &ChannelConfig::default(), 9).is_err());
    }
}
