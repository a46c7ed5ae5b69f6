//! A reliable (error-free) transport over the MEE channel (extension).
//!
//! The paper compares against Maurice et al.'s *error-free* LLC covert
//! channel (\[9\]) and reports its own rates "without any error handling".
//! This module closes that gap with a stop-and-wait ARQ:
//!
//! * the **forward** session carries data frames — a sequence bit, the
//!   payload chunk, and a CRC-8 — from the trojan to the spy;
//! * a second, **reverse** session (established with the roles swapped:
//!   the spy owns an eviction set, the trojan a monitor address — the
//!   medium is symmetric) carries 4-bit ACK/NAK replies;
//! * corrupted frames (bad CRC or wrong sequence bit) are retransmitted
//!   until acknowledged, bounding the residual error rate at the CRC's
//!   undetected-error probability (< 0.4% per corrupted frame, and frames
//!   are rarely corrupted to begin with).
//!
//! Because the two directions share the MEE cache but use different
//! agreed offsets (hence different cache sets), they do not collide.

use std::collections::VecDeque;

use mee_machine::{NoopHook, StepHook};
use mee_types::{Cycles, ModelError};

use crate::channel::config::{ChannelConfig, RecoveryPolicy};
use crate::channel::leak::{bits_to_bytes, bytes_to_bits};
use crate::channel::session::Session;
use crate::setup::AttackSetup;

/// CRC-8 (polynomial 0x07), bitwise over a bool slice.
pub fn crc8(bits: &[bool]) -> u8 {
    let mut crc: u8 = 0;
    for &bit in bits {
        let msb = (crc & 0x80) != 0;
        crc <<= 1;
        if msb ^ bit {
            crc ^= 0x07;
        }
    }
    crc
}

/// Builds a data frame: sequence bit + `chunk` zero-padded to `chunk_len`
/// bits + CRC-8 computed over *everything before it* — the sequence bit
/// included, so a flipped sequence bit is caught by the CRC even when the
/// flip makes it match the other sequence value.
fn build_frame(seq: bool, chunk: &[bool], chunk_len: usize) -> Vec<bool> {
    let mut frame = vec![seq];
    let mut padded = chunk.to_vec();
    padded.resize(chunk_len, false);
    frame.extend_from_slice(&padded);
    frame.extend(bytes_to_bits(&[crc8(&frame)]));
    frame
}

/// Receiver-side frame validation: length, CRC over the seq bit + payload,
/// and the expected sequence bit.
fn frame_is_valid(rx: &[bool], frame_len: usize, seq: bool) -> bool {
    rx.len() == frame_len && {
        let (body, crc_bits) = rx.split_at(rx.len() - 8);
        crc8(body) == bits_to_bytes(crc_bits)[0] && body[0] == seq
    }
}

/// The ACK reply pattern (4 bits) — chosen with Hamming distance 4 from
/// the NAK pattern so a single flipped reply bit cannot convert one into
/// the other.
const ACK: [bool; 4] = [true, false, true, false];
/// The NAK reply pattern.
const NAK: [bool; 4] = [false, true, false, true];

/// Statistics of one reliable transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableStats {
    /// Data frames delivered.
    pub frames: usize,
    /// Retransmissions performed.
    pub retransmissions: usize,
    /// Total forward bits on the wire (including frame overhead).
    pub wire_bits: usize,
    /// Times the link widened its timing window (graceful degradation).
    pub window_escalations: usize,
    /// The timing window in effect when the transfer finished.
    pub final_window: Cycles,
    /// Measured simulated time of the whole transfer — ACK rounds, backoff
    /// idling, and retransmissions included — so goodput reported from it
    /// is honest.
    pub elapsed: Cycles,
}

/// A bidirectional reliable link: data forward, ACKs backward.
#[derive(Debug, Clone)]
pub struct ReliableLink {
    forward: Session,
    reverse: Session,
    /// Payload bits per frame.
    chunk: usize,
    /// Give up after this many retransmissions of one frame at the top
    /// ladder rung (escalating to a wider rung refreshes the budget).
    max_retries: usize,
    /// Graceful-degradation behaviour under sustained frame errors.
    recovery: RecoveryPolicy,
}

impl ReliableLink {
    /// Establishes both directions. The forward session uses
    /// `cfg.agreed_offset`; the reverse session uses the next offset
    /// (mod 8) so the two directions occupy different MEE-cache sets.
    ///
    /// # Errors
    ///
    /// Propagates establishment errors from either direction.
    pub fn establish(setup: &mut AttackSetup, cfg: &ChannelConfig) -> Result<Self, ModelError> {
        let forward = Session::establish(setup, cfg)?;
        let reverse_cfg = ChannelConfig {
            agreed_offset: (cfg.agreed_offset + 1) % 8,
            ..cfg.clone()
        };
        let (sender, receiver) = (setup.spy, setup.trojan);
        let reverse = Session::establish_directed(setup, sender, receiver, &reverse_cfg)?;
        Ok(ReliableLink {
            forward,
            reverse,
            chunk: 16,
            max_retries: 16,
            recovery: RecoveryPolicy::default(),
        })
    }

    /// Replaces the recovery policy (validated at send time). The ladder's
    /// first rung should match the sessions' operating window; a window
    /// not on the ladder starts escalation from the bottom rung.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// The forward direction's current timing window (it widens when the
    /// link degrades gracefully, and stays widened for subsequent sends).
    pub fn current_window(&self) -> Cycles {
        self.forward.config.window
    }

    /// The forward (data) session.
    pub fn forward(&self) -> &Session {
        &self.forward
    }

    /// The reverse (ACK) session.
    pub fn reverse(&self) -> &Session {
        &self.reverse
    }

    /// Sends `payload` reliably; returns the receiver's copy (equal to the
    /// payload unless the CRC was defeated or a frame exhausted its
    /// retries) plus transfer statistics.
    ///
    /// # Errors
    ///
    /// * Propagates machine errors.
    /// * Returns [`ModelError::InvalidConfig`] if a frame exhausts
    ///   `max_retries` (the channel is catastrophically broken).
    pub fn send(
        &mut self,
        setup: &mut AttackSetup,
        payload: &[bool],
    ) -> Result<(Vec<bool>, ReliableStats), ModelError> {
        self.send_with(setup, payload, &mut NoopHook)
    }

    /// Like [`Self::send`] with a [`StepHook`] (e.g. a fault injector)
    /// applied to every wire transmission, forward and reverse.
    ///
    /// Under sustained frame errors the link heals itself instead of
    /// thrashing: failed attempts back off exponentially (both cores idle,
    /// letting an interrupt storm pass), and when the frame-error rate over
    /// the recent attempts exceeds the policy threshold the link widens
    /// both directions' timing windows to the next ladder rung — trading
    /// honestly-reported goodput for reliability. The widened window
    /// persists for subsequent sends on this link.
    ///
    /// # Errors
    ///
    /// * Propagates machine errors, including errors raised by the hook.
    /// * Returns [`ModelError::InvalidConfig`] for an invalid recovery
    ///   policy, or if a frame exhausts `max_retries` even at the top
    ///   ladder rung.
    pub fn send_with(
        &mut self,
        setup: &mut AttackSetup,
        payload: &[bool],
        hook: &mut dyn StepHook,
    ) -> Result<(Vec<bool>, ReliableStats), ModelError> {
        self.recovery.validate()?;
        let started = Self::link_now(setup, &self.forward);
        let mut delivered = Vec::with_capacity(payload.len());
        let mut stats = ReliableStats {
            frames: 0,
            retransmissions: 0,
            wire_bits: 0,
            window_escalations: 0,
            final_window: self.forward.config.window,
            elapsed: Cycles::ZERO,
        };
        let ladder = self.recovery.window_ladder.clone();
        let mut rung = ladder
            .iter()
            .position(|&w| w == self.forward.config.window)
            .unwrap_or(0);
        // Sliding window of recent attempt outcomes (true = failed).
        let mut recent: VecDeque<bool> = VecDeque::with_capacity(self.recovery.fer_window);
        let mut consecutive_fails = 0u32;
        let mut seq = false;
        for chunk in payload.chunks(self.chunk) {
            let mut tries = 0;
            loop {
                if tries > self.max_retries {
                    return Err(ModelError::InvalidConfig {
                        reason: format!(
                            "frame {} exhausted {} retransmissions",
                            stats.frames, self.max_retries
                        ),
                    });
                }
                tries += 1;

                let frame = build_frame(seq, chunk, self.chunk);
                let out = self.forward.transmit_hooked(setup, &frame, &mut [], hook)?;
                stats.wire_bits += frame.len();
                let rx = &out.received;

                // Receiver-side validation (the spy would do this).
                let ok = frame_is_valid(rx, frame.len(), seq);

                // Reply on the reverse channel.
                let reply = if ok { ACK } else { NAK };
                let reply_out = self.reverse.transmit_hooked(setup, &reply, &mut [], hook)?;
                let acked = {
                    // Nearest-pattern decode of the reply.
                    let r = &reply_out.received;
                    let dist = |p: &[bool; 4]| {
                        p.iter().zip(r.iter()).filter(|(a, b)| a != b).count()
                            + p.len().saturating_sub(r.len())
                    };
                    dist(&ACK) < dist(&NAK)
                };

                let success = ok && acked;
                if recent.len() == self.recovery.fer_window {
                    recent.pop_front();
                }
                recent.push_back(!success);

                if success {
                    delivered.extend_from_slice(&rx[1..1 + chunk.len()]);
                    stats.frames += 1;
                    seq = !seq;
                    consecutive_fails = 0;
                    break;
                }
                // NAK, damaged frame, or damaged reply: retransmit. If the
                // frame was fine but the ACK got lost, the duplicate is
                // filtered by the sequence bit on the receiver side — here
                // the sender view suffices because `delivered` only grows on
                // accept.
                stats.retransmissions += 1;
                consecutive_fails += 1;

                // Graceful degradation: widen the window when the recent
                // frame-error rate says the current rung cannot carry the
                // channel.
                let fails = recent.iter().filter(|&&f| f).count();
                let fer_exceeded = recent.len() >= self.recovery.fer_window.min(4)
                    && fails as f64 > self.recovery.fer_threshold * recent.len() as f64;
                if fer_exceeded && rung + 1 < ladder.len() {
                    rung += 1;
                    self.forward.config.window = ladder[rung];
                    self.reverse.config.window = ladder[rung];
                    stats.window_escalations += 1;
                    recent.clear();
                    // Each rung gets a fresh retry budget: the bound is
                    // `max_retries` per frame *per rung*, and exhaustion
                    // means even the widest window cannot carry the channel.
                    tries = 0;
                }

                // Exponential backoff: idle both cores so a correlated
                // burst (interrupt storm, thrashing co-runner) passes
                // instead of eating further retries.
                if self.recovery.backoff_base > Cycles::ZERO {
                    let exp = consecutive_fails
                        .saturating_sub(1)
                        .min(self.recovery.max_backoff_exp);
                    let pause = Cycles::new(self.recovery.backoff_base.raw() << exp);
                    let resume = Self::link_now(setup, &self.forward) + pause;
                    setup
                        .machine
                        .preempt_until(self.forward.sender.core, resume);
                    setup
                        .machine
                        .preempt_until(self.forward.receiver.core, resume);
                }
            }
        }
        stats.final_window = self.forward.config.window;
        stats.elapsed = Self::link_now(setup, &self.forward).saturating_sub(started);
        Ok((delivered, stats))
    }

    /// The later of the two link cores' clocks.
    fn link_now(setup: &AttackSetup, session: &Session) -> Cycles {
        setup
            .machine
            .core_now(session.sender.core)
            .max(setup.machine.core_now(session.receiver.core))
    }

    /// Effective goodput in KBps for a completed transfer.
    ///
    /// Uses the *measured* elapsed time in [`ReliableStats::elapsed`] —
    /// which includes ACK rounds, backoff idling, and every retransmission
    /// — so a degraded link reports its honestly reduced rate. Falls back
    /// to a window-count estimate for stats without a measurement.
    pub fn goodput_kbps(
        &self,
        setup: &AttackSetup,
        payload_bits: usize,
        stats: &ReliableStats,
    ) -> f64 {
        let clock = setup.machine.config().timing.clock_hz();
        if stats.elapsed > Cycles::ZERO {
            return (payload_bits as f64 / 8.0) / stats.elapsed.to_seconds(clock) / 1000.0;
        }
        let window = self.forward.config.window.raw() as f64;
        let frame_bits = (self.chunk + 9) as f64;
        let frames_sent = stats.frames as f64 + stats.retransmissions as f64;
        // Each frame costs its windows plus an ACK round (4+2 windows).
        let cycles = frames_sent * ((frame_bits + 2.0) + 7.0) * window;
        (payload_bits as f64 / 8.0) / (cycles / clock) / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::message::random_bits;

    #[test]
    fn crc8_detects_single_bit_flips() {
        let data = random_bits(24, 1);
        let c = crc8(&data);
        for i in 0..data.len() {
            let mut d = data.clone();
            d[i] = !d[i];
            assert_ne!(crc8(&d), c, "flip at {i} undetected");
        }
    }

    #[test]
    fn ack_nak_distance_is_four() {
        let d = ACK.iter().zip(NAK.iter()).filter(|(a, b)| a != b).count();
        assert_eq!(d, 4);
    }

    #[test]
    fn crc_covers_the_sequence_bit() {
        // Regression: the CRC is computed over `[seq] + payload`, so a
        // frame whose *only* corrupted bit is the sequence bit must be
        // rejected by the CRC check alone — even against the flipped
        // sequence expectation, where the seq comparison would pass.
        let payload = random_bits(16, 9);
        let frame = build_frame(false, &payload, 16);
        assert!(frame_is_valid(&frame, frame.len(), false));

        let mut corrupted = frame.clone();
        corrupted[0] = !corrupted[0]; // flip only the seq bit
        assert!(
            !frame_is_valid(&corrupted, frame.len(), false),
            "seq flip undetected"
        );
        assert!(
            !frame_is_valid(&corrupted, frame.len(), true),
            "a lone seq-bit flip must fail the CRC, not just the seq comparison"
        );
    }

    #[test]
    fn reliable_transfer_is_exact_on_quiet_machine() {
        let mut setup = AttackSetup::quiet(701).unwrap();
        let mut link = ReliableLink::establish(&mut setup, &ChannelConfig::default()).unwrap();
        let payload = random_bits(96, 701);
        let (rx, stats) = link.send(&mut setup, &payload).unwrap();
        assert_eq!(rx, payload);
        assert_eq!(stats.retransmissions, 0);
        assert_eq!(stats.frames, 6);
        assert_eq!(stats.window_escalations, 0, "quiet link must not degrade");
        assert_eq!(stats.final_window, Cycles::new(15_000));
        assert!(stats.elapsed > Cycles::ZERO, "elapsed must be measured");
    }

    #[test]
    fn reliable_transfer_is_exact_under_noise() {
        let mut setup = AttackSetup::new(702).unwrap();
        let mut link = ReliableLink::establish(&mut setup, &ChannelConfig::default()).unwrap();
        let payload = random_bits(256, 702);
        let (rx, stats) = link.send(&mut setup, &payload).unwrap();
        assert_eq!(
            rx, payload,
            "ARQ failed to deliver exactly ({} retransmissions)",
            stats.retransmissions
        );
        // Under ~1-2% raw BER with ~25-bit frames, some retransmissions are
        // expected but the link must not thrash.
        assert!(stats.retransmissions < stats.frames, "link thrashing");
    }

    #[test]
    fn measured_goodput_is_honest_about_overheads() {
        let mut setup = AttackSetup::quiet(704).unwrap();
        let mut link = ReliableLink::establish(&mut setup, &ChannelConfig::default()).unwrap();
        let payload = random_bits(64, 704);
        let (_, stats) = link.send(&mut setup, &payload).unwrap();
        let goodput = link.goodput_kbps(&setup, payload.len(), &stats);
        // The raw channel runs at ~35 KBps; the ARQ's framing plus ACK
        // rounds must report something meaningfully lower, not the raw rate.
        assert!(goodput > 0.0);
        assert!(
            goodput < 30.0,
            "measured goodput {goodput} ignores protocol overhead"
        );
    }

    #[test]
    fn reverse_channel_runs_spy_to_trojan() {
        let mut setup = AttackSetup::quiet(703).unwrap();
        let link = ReliableLink::establish(&mut setup, &ChannelConfig::default()).unwrap();
        assert_eq!(link.forward.sender.proc, setup.trojan.proc);
        assert_eq!(link.reverse.sender.proc, setup.spy.proc);
        assert_ne!(
            link.forward.config.agreed_offset,
            link.reverse.config.agreed_offset
        );
    }
}
