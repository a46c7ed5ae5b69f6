//! The differential oracle: run one trace on two machine builds and diff
//! the observable transcripts.
//!
//! This is the gate for any future machine rewrite (e.g. a new cache or MEE
//! model): build the current machine and the candidate from the same config,
//! drive both with the same instruction trace, and demand an empty
//! [`TranscriptDiff`]. The transcript records everything an attacker-level
//! observer can see — per-op latency, loaded values, faults, and the
//! ground-truth MEE hit level — plus end-of-trace cache statistics.
//!
//! The module also ships a miniature two-actor covert-channel session
//! ([`covert_exchange_trace`]) so the oracle can be exercised on the exact
//! access pattern the paper's attack produces.

use std::fmt;

use mee_cache::CacheStats;
use mee_engine::MeeStats;
use mee_machine::{CoreId, Machine, PolicyKind, ProcId};
use mee_mem::AddressSpaceKind;
use mee_types::{Cycles, ModelError, VirtAddr};

/// One instruction of a machine trace. `proc` indexes the process vector
/// returned by the machine builder, so traces stay portable across builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleOp {
    /// Issuing core index.
    pub core: usize,
    /// Index into the builder's process vector.
    pub proc: usize,
    /// What to execute.
    pub kind: OpKind,
}

/// The instruction itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `read_value` at the address.
    Read(VirtAddr),
    /// `write` of the digest to the address.
    Write(VirtAddr, u64),
    /// `clflush` of the address.
    Clflush(VirtAddr),
    /// Serializing fence.
    Mfence,
    /// Pure computation for the given cycle count.
    Advance(u64),
    /// Establishment sweep: read-then-`clflush` over `pages` 4 KiB-strided
    /// addresses starting at the base (reverse order when `rev`), issued
    /// through the batched `sweep_read_flush` path. One record carries the
    /// batch's total latency, so a trace mixing sweeps with per-op loops
    /// pins the batch APIs into the differential tier.
    Sweep {
        /// First (lowest) address of the 4 KiB-strided run.
        base: VirtAddr,
        /// Number of strided addresses.
        pages: u16,
        /// Sweep in descending address order (the backward pass).
        rev: bool,
    },
}

impl OracleOp {
    /// Shorthand for a read op.
    pub fn read(core: usize, proc: usize, va: u64) -> Self {
        OracleOp {
            core,
            proc,
            kind: OpKind::Read(VirtAddr::new(va)),
        }
    }

    /// Shorthand for a write op.
    pub fn write(core: usize, proc: usize, va: u64, digest: u64) -> Self {
        OracleOp {
            core,
            proc,
            kind: OpKind::Write(VirtAddr::new(va), digest),
        }
    }

    /// Shorthand for a clflush op.
    pub fn clflush(core: usize, proc: usize, va: u64) -> Self {
        OracleOp {
            core,
            proc,
            kind: OpKind::Clflush(VirtAddr::new(va)),
        }
    }

    /// Shorthand for an advance op.
    pub fn advance(core: usize, cycles: u64) -> Self {
        OracleOp {
            core,
            proc: 0,
            kind: OpKind::Advance(cycles),
        }
    }

    /// Shorthand for a forward establishment sweep.
    pub fn sweep(core: usize, proc: usize, base: u64, pages: u16) -> Self {
        OracleOp {
            core,
            proc,
            kind: OpKind::Sweep {
                base: VirtAddr::new(base),
                pages,
                rev: false,
            },
        }
    }

    /// Shorthand for a backward establishment sweep.
    pub fn sweep_rev(core: usize, proc: usize, base: u64, pages: u16) -> Self {
        OracleOp {
            core,
            proc,
            kind: OpKind::Sweep {
                base: VirtAddr::new(base),
                pages,
                rev: true,
            },
        }
    }

    /// The per-op expansion of a [`OpKind::Sweep`]: the equivalent
    /// read + `clflush` loop, for holding the batched path and the split
    /// path observationally identical on the same machine.
    pub fn expand_sweep(&self) -> Vec<OracleOp> {
        let OpKind::Sweep { base, pages, rev } = self.kind else {
            return vec![*self];
        };
        let mut ops = Vec::with_capacity(2 * pages as usize);
        let mut order: Vec<u64> = (0..u64::from(pages)).collect();
        if rev {
            order.reverse();
        }
        for i in order {
            let va = base.raw() + i * 4096;
            ops.push(OracleOp::read(self.core, self.proc, va));
            ops.push(OracleOp::clflush(self.core, self.proc, va));
        }
        ops
    }
}

/// Everything observable about one executed op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Latency charged to the issuing core (0 for failed ops).
    pub latency: u64,
    /// Value loaded by a read.
    pub value: Option<u64>,
    /// Ladder index where the MEE walk stopped, if the op reached the MEE.
    pub mee_hit: Option<usize>,
    /// Rendered error, if the op faulted.
    pub error: Option<String>,
}

/// Executes one op against a machine, capturing its observable outcome.
pub fn exec_op(m: &mut Machine, procs: &[ProcId], op: &OracleOp) -> OpRecord {
    let core = CoreId::new(op.core);
    let mut rec = OpRecord {
        latency: 0,
        value: None,
        mee_hit: None,
        error: None,
    };
    let Some(&proc) = procs.get(op.proc) else {
        rec.error = Some(format!("trace proc index {} out of range", op.proc));
        return rec;
    };
    match op.kind {
        OpKind::Read(va) => match m.read_value(core, proc, va) {
            Ok((lat, value)) => {
                rec.latency = lat.raw();
                rec.value = Some(value);
                rec.mee_hit = m.last_mee_hit().map(|h| h.ladder_index());
            }
            Err(e) => rec.error = Some(e.to_string()),
        },
        OpKind::Write(va, digest) => match m.write(core, proc, va, digest) {
            Ok(lat) => {
                rec.latency = lat.raw();
                rec.mee_hit = m.last_mee_hit().map(|h| h.ladder_index());
            }
            Err(e) => rec.error = Some(e.to_string()),
        },
        OpKind::Clflush(va) => match m.clflush(core, proc, va) {
            Ok(lat) => rec.latency = lat.raw(),
            Err(e) => rec.error = Some(e.to_string()),
        },
        OpKind::Mfence => rec.latency = m.mfence(core).raw(),
        OpKind::Advance(cycles) => rec.latency = m.advance(core, Cycles::new(cycles)).raw(),
        OpKind::Sweep { base, pages, rev } => {
            let addrs: Vec<VirtAddr> = (0..u64::from(pages))
                .map(|i| VirtAddr::new(base.raw() + i * 4096))
                .collect();
            match m.sweep_read_flush(core, proc, &addrs, rev) {
                Ok(total) => {
                    rec.latency = total.raw();
                    rec.mee_hit = m.last_mee_hit().map(|h| h.ladder_index());
                }
                Err(e) => rec.error = Some(e.to_string()),
            }
        }
    }
    rec
}

/// The observable outcome of a whole trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transcript {
    /// Per-op records, in trace order.
    pub records: Vec<OpRecord>,
    /// Final MEE statistics.
    pub mee_stats: MeeStats,
    /// Final LLC statistics.
    pub llc_stats: CacheStats,
    /// Sorted raw line addresses resident in the MEE cache at the end.
    pub mee_resident: Vec<u64>,
}

/// Runs a trace against a machine and returns the transcript.
pub fn run_trace(m: &mut Machine, procs: &[ProcId], trace: &[OracleOp]) -> Transcript {
    let records = trace.iter().map(|op| exec_op(m, procs, op)).collect();
    let mut mee_resident: Vec<u64> = m.mee().cache().resident_lines().map(|l| l.raw()).collect();
    mee_resident.sort_unstable();
    Transcript {
        records,
        mee_stats: m.mee().stats(),
        llc_stats: m.llc().stats(),
        mee_resident,
    }
}

/// One step where the two transcripts disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Trace index of the disagreeing op.
    pub index: usize,
    /// Outcome on machine A.
    pub a: OpRecord,
    /// Outcome on machine B.
    pub b: OpRecord,
}

/// The diff of two transcripts. Empty means the machines are observationally
/// identical on this trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranscriptDiff {
    /// Per-op disagreements.
    pub divergences: Vec<Divergence>,
    /// End-state disagreement (stats or residency), if any.
    pub summary: Option<String>,
}

impl TranscriptDiff {
    /// True when the transcripts matched op-for-op and in final state.
    pub fn is_empty(&self) -> bool {
        self.divergences.is_empty() && self.summary.is_none()
    }
}

impl fmt::Display for TranscriptDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "transcripts identical");
        }
        for d in &self.divergences {
            writeln!(f, "op {}: A {:?} != B {:?}", d.index, d.a, d.b)?;
        }
        if let Some(s) = &self.summary {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Structurally compares two transcripts.
pub fn diff_transcripts(a: &Transcript, b: &Transcript) -> TranscriptDiff {
    let divergences = a
        .records
        .iter()
        .zip(&b.records)
        .enumerate()
        .filter(|(_, (ra, rb))| ra != rb)
        .map(|(index, (ra, rb))| Divergence {
            index,
            a: ra.clone(),
            b: rb.clone(),
        })
        .collect();
    let mut summary = None;
    if a.records.len() != b.records.len() {
        summary = Some(format!(
            "record counts differ: {} vs {}",
            a.records.len(),
            b.records.len()
        ));
    } else if a.mee_stats != b.mee_stats {
        summary = Some(format!(
            "MEE stats differ: {:?} vs {:?}",
            a.mee_stats, b.mee_stats
        ));
    } else if a.llc_stats != b.llc_stats {
        summary = Some(format!(
            "LLC stats differ: {:?} vs {:?}",
            a.llc_stats, b.llc_stats
        ));
    } else if a.mee_resident != b.mee_resident {
        summary = Some(format!(
            "MEE cache residency differs: {:?} vs {:?}",
            a.mee_resident, b.mee_resident
        ));
    }
    TranscriptDiff {
        divergences,
        summary,
    }
}

/// Runs one trace on two independently built machines and diffs the
/// transcripts — the gate for engine rewrites.
pub struct DifferentialOracle<A, B> {
    build_a: A,
    build_b: B,
}

impl<A, B> DifferentialOracle<A, B>
where
    A: Fn() -> Result<(Machine, Vec<ProcId>), ModelError>,
    B: Fn() -> Result<(Machine, Vec<ProcId>), ModelError>,
{
    /// Creates an oracle from two machine builders. Each builder returns the
    /// machine plus the process vector trace ops index into.
    pub fn new(build_a: A, build_b: B) -> Self {
        DifferentialOracle { build_a, build_b }
    }

    /// Builds both machines, runs the trace on each, and diffs.
    ///
    /// # Errors
    ///
    /// Propagates builder failures (trace-level faults are recorded in the
    /// transcripts instead).
    pub fn run(&self, trace: &[OracleOp]) -> Result<TranscriptDiff, ModelError> {
        let (ta, tb) = (self.transcript_a(trace)?, self.transcript_b(trace)?);
        Ok(diff_transcripts(&ta, &tb))
    }

    /// Runs the trace on a fresh A build only.
    ///
    /// # Errors
    ///
    /// Propagates builder failures.
    pub fn transcript_a(&self, trace: &[OracleOp]) -> Result<Transcript, ModelError> {
        let (mut m, procs) = (self.build_a)()?;
        Ok(run_trace(&mut m, &procs, trace))
    }

    /// Runs the trace on a fresh B build only.
    ///
    /// # Errors
    ///
    /// Propagates builder failures.
    pub fn transcript_b(&self, trace: &[OracleOp]) -> Result<Transcript, ModelError> {
        let (mut m, procs) = (self.build_b)()?;
        Ok(run_trace(&mut m, &procs, trace))
    }
}

// ---------------------------------------------------------------------------
// A miniature two-actor covert-channel session
// ---------------------------------------------------------------------------

/// Spy enclave base address in the channel builder.
pub const SPY_BASE: u64 = 0x100_0000;
/// Trojan enclave base address in the channel builder.
pub const TROJAN_BASE: u64 = 0x200_0000;

/// Builds the two-enclave machine for [`covert_exchange_trace`]: process 0
/// is the spy (2 pages at [`SPY_BASE`]), process 1 the trojan (2 pages at
/// [`TROJAN_BASE`]), over a 2-set × 2-way MEE cache so three trojan walks
/// always thrash the versions set.
///
/// # Errors
///
/// Propagates machine construction/mapping failures.
pub fn channel_machine(mee_policy: PolicyKind) -> Result<(Machine, Vec<ProcId>), ModelError> {
    let mut m = Machine::new(crate::machine_spec::tiny_config(mee_policy))?;
    let spy = m.create_process(AddressSpaceKind::Enclave);
    m.map_pages(spy, VirtAddr::new(SPY_BASE), 2)?;
    let trojan = m.create_process(AddressSpaceKind::Enclave);
    m.map_pages(trojan, VirtAddr::new(TROJAN_BASE), 2)?;
    Ok((m, vec![spy, trojan]))
}

/// A covert exchange trace plus the probe indices needed to decode it.
#[derive(Debug, Clone)]
pub struct ExchangeTrace {
    /// The full instruction trace for both actors.
    pub trace: Vec<OracleOp>,
    /// Probe index of the calibration round with an idle trojan (bit 0).
    pub ref0: usize,
    /// Probe index of the calibration round with a thrashing trojan (bit 1).
    pub ref1: usize,
    /// Probe indices of the data rounds, one per message bit.
    pub probes: Vec<usize>,
}

/// Builds the paper-shaped covert exchange: per round, the spy flushes and
/// re-reads its monitor line while the trojan either walks three distinct
/// version blocks — thrashing the MEE cache (bit 1) — or stays idle
/// (bit 0). Two calibration rounds with known bits precede the message, so
/// [`decode_exchange`] can threshold probe latencies without any
/// out-of-band timing model.
pub fn covert_exchange_trace(bits: &[bool]) -> ExchangeTrace {
    let mut trace = Vec::new();
    let mut probes = Vec::new();
    // Warm-up: establish the monitor line's walk footprint.
    trace.push(OracleOp::read(0, 0, SPY_BASE));
    let round = |trace: &mut Vec<OracleOp>, bit: bool| -> usize {
        trace.push(OracleOp::clflush(0, 0, SPY_BASE));
        trace.push(OracleOp {
            core: 0,
            proc: 0,
            kind: OpKind::Mfence,
        });
        if bit {
            // Three distinct version blocks: guaranteed eviction of the
            // monitor's walk footprint from the tiny MEE cache.
            for off in [0u64, 512, 1024] {
                trace.push(OracleOp::clflush(1, 1, TROJAN_BASE + off));
                trace.push(OracleOp::read(1, 1, TROJAN_BASE + off));
            }
        } else {
            trace.push(OracleOp::advance(1, 4000));
        }
        let probe = trace.len();
        trace.push(OracleOp::read(0, 0, SPY_BASE));
        probe
    };
    let ref0 = round(&mut trace, false);
    let ref1 = round(&mut trace, true);
    for &bit in bits {
        let probe = round(&mut trace, bit);
        probes.push(probe);
    }
    ExchangeTrace {
        trace,
        ref0,
        ref1,
        probes,
    }
}

/// Decodes a transcript of [`covert_exchange_trace`]: a probe slower than
/// the idle calibration latency plus an eighth of the calibration gap is a
/// thrashed walk, bit 1. The threshold hugs the idle reference because in
/// the noiseless model an idle-round probe reproduces it *exactly*, while
/// thrashed probes vary (upward) with DRAM bank state.
pub fn decode_exchange(t: &Transcript, x: &ExchangeTrace) -> Vec<bool> {
    let (r0, r1) = (t.records[x.ref0].latency, t.records[x.ref1].latency);
    let threshold = r0 + r1.saturating_sub(r0) / 8;
    x.probes
        .iter()
        .map(|&i| t.records[i].latency > threshold)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_builds_have_empty_diff() {
        let x = covert_exchange_trace(&[true, false, true]);
        let oracle = DifferentialOracle::new(
            || channel_machine(PolicyKind::TreePlru),
            || channel_machine(PolicyKind::TreePlru),
        );
        let diff = oracle.run(&x.trace).unwrap();
        assert!(diff.is_empty(), "self-diff not empty: {diff}");
    }

    #[test]
    fn exchange_decodes_exactly() {
        let sent = [true, false, true, true, false, false, true, false];
        let x = covert_exchange_trace(&sent);
        let (mut m, procs) = channel_machine(PolicyKind::TreePlru).unwrap();
        let t = run_trace(&mut m, &procs, &x.trace);
        assert_eq!(decode_exchange(&t, &x), sent);
    }

    #[test]
    fn trace_errors_are_recorded_not_fatal() {
        let (mut m, procs) = channel_machine(PolicyKind::TreePlru).unwrap();
        let bad = OracleOp::read(0, 0, 0xdead_0000); // unmapped
        let t = run_trace(&mut m, &procs, &[bad]);
        assert!(t.records[0]
            .error
            .as_deref()
            .unwrap()
            .contains("page fault"));
    }
}
