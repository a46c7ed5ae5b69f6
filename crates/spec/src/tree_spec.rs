//! Tree-level invariant: `tree-consistency`.
//!
//! The SGX-style counter tree must stay MAC/version-consistent under
//! arbitrary interleavings of writes and verified reads: every untampered
//! read returns the last value written (last-write-wins) and verifies at
//! every level. After a tamper at any level, verified reads of every line
//! whose walk crosses the flipped counter must fail with an integrity
//! violation, while lines outside the blast radius keep verifying.
//!
//! Programs run against a one-page tree (8 version blocks sharing a single
//! L0/L1/L2 spine), so a counter tamper at L0 or above poisons the whole
//! page while a versions-level tamper poisons only block 0 — both blast
//! radii are asserted exactly. A write *after* a tamper re-MACs the written
//! path and can legitimately "heal" parts of the damage, so from that point
//! the checker only requires the tree not to panic.

use mee_mem::PhysLayout;
use mee_tree::{IntegrityTree, TreeGeometry, TreeLevel};
use mee_types::{LineAddr, ModelError};

use crate::counterexample::Counterexample;
use crate::enumerate::for_each_program;
use crate::Budget;

/// Data-line offsets of the palette: both ends of block 0, the start of
/// block 1, and the last line of the page (block 7).
pub const PALETTE: [u64; 4] = [0, 7, 8, 63];

/// One operation against a bare [`IntegrityTree`]. Address operands are
/// palette indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeOp {
    /// Write `value` to palette address `k`.
    Write(usize, u64),
    /// Verified read of palette address `k`.
    Read(usize),
    /// Flip the stored digest of palette address `k`.
    TamperDigest(usize),
    /// Flip a counter at ladder level `0..4` (versions, L0, L1, L2), node 0.
    TamperCounter(usize),
}

/// Formats a tree trace (`w0.1 r2 td1 tc0`).
pub fn fmt_tree_ops(ops: &[TreeOp]) -> String {
    let tokens: Vec<String> = ops
        .iter()
        .map(|op| match op {
            TreeOp::Write(k, v) => format!("w{k}.{v}"),
            TreeOp::Read(k) => format!("r{k}"),
            TreeOp::TamperDigest(k) => format!("td{k}"),
            TreeOp::TamperCounter(l) => format!("tc{l}"),
        })
        .collect();
    tokens.join(" ")
}

/// Parses the output of [`fmt_tree_ops`].
///
/// # Errors
///
/// Returns a message naming the first malformed token.
pub fn parse_tree_ops(trace: &str) -> Result<Vec<TreeOp>, String> {
    trace
        .split_whitespace()
        .map(|tok| {
            let bad = || {
                format!("malformed tree op {tok:?} (expected w<k>.<v>, r<k>, td<k>, or tc<level>)")
            };
            if let Some(rest) = tok.strip_prefix("td") {
                return rest.parse().map(TreeOp::TamperDigest).map_err(|_| bad());
            }
            if let Some(rest) = tok.strip_prefix("tc") {
                let level: usize = rest.parse().map_err(|_| bad())?;
                if level > 3 {
                    return Err(format!("tamper level {level} out of range (0..=3)"));
                }
                return Ok(TreeOp::TamperCounter(level));
            }
            if let Some(rest) = tok.strip_prefix('w') {
                let (k, v) = rest.split_once('.').ok_or_else(bad)?;
                return Ok(TreeOp::Write(
                    k.parse().map_err(|_| bad())?,
                    v.parse().map_err(|_| bad())?,
                ));
            }
            if let Some(rest) = tok.strip_prefix('r') {
                return rest.parse().map(TreeOp::Read).map_err(|_| bad());
            }
            Err(bad())
        })
        .collect()
}

fn ladder_level(l: usize) -> TreeLevel {
    match l {
        0 => TreeLevel::Version,
        1 => TreeLevel::L0,
        2 => TreeLevel::L1,
        _ => TreeLevel::L2,
    }
}

fn build_tree() -> Result<(IntegrityTree, Vec<LineAddr>), String> {
    let layout = PhysLayout::new(4096, 8192).map_err(|e| e.to_string())?;
    let geo = TreeGeometry::new(layout.prm_data(), layout.prm_tree()).map_err(|e| e.to_string())?;
    let base = geo.data_region().base().line();
    let pal = PALETTE
        .iter()
        .map(|&k| LineAddr::new(base.raw() + k))
        .collect();
    Ok((IntegrityTree::new(geo, 0x2019), pal))
}

/// Runs `ops` on a fresh one-page tree and checks last-write-wins plus the
/// exact tamper blast radius described in the module docs.
///
/// # Errors
///
/// Returns the violation detail, or a message for out-of-range operands.
pub fn check_tree_program(ops: &[TreeOp]) -> Result<(), String> {
    let (mut tree, pal) = build_tree()?;
    let mut shadow = [0u64; PALETTE.len()];
    // Both tamper primitives XOR a single bit, so two flips of the same spot
    // cancel: track parities, not sticky flags.
    let mut digest_flips = [0u32; PALETTE.len()];
    let mut counter_flips = [0u32; 4];
    // A write after a tamper re-MACs its path; blast-radius assertions are
    // unsound from then on.
    let mut muddied = false;
    let index_ok = |i: usize, k: usize| -> Result<(), String> {
        if k < PALETTE.len() {
            Ok(())
        } else {
            Err(format!("step {i}: palette index {k} out of range"))
        }
    };
    fn is_affected(digest_flips: &[u32], counter_flips: &[u32; 4], k: usize) -> bool {
        digest_flips[k] % 2 == 1
            // Versions node 0 covers data block 0 only.
            || (counter_flips[0] % 2 == 1 && PALETTE[k] < 8)
            // The single L0/L1/L2 spine covers the whole page.
            || counter_flips[1..].iter().any(|&f| f % 2 == 1)
    }
    for (i, op) in ops.iter().enumerate() {
        let tampered = digest_flips
            .iter()
            .chain(&counter_flips)
            .any(|&f| f % 2 == 1);
        match *op {
            TreeOp::Write(k, v) => {
                index_ok(i, k)?;
                tree.write(pal[k], v)
                    .map_err(|e| format!("step {i}: write failed: {e}"))?;
                shadow[k] = v;
                if tampered {
                    muddied = true;
                }
            }
            TreeOp::Read(k) => {
                index_ok(i, k)?;
                let result = tree.read_verified(pal[k]);
                if muddied {
                    continue;
                }
                if is_affected(&digest_flips, &counter_flips, k) {
                    match result {
                        Err(ModelError::IntegrityViolation { .. }) => {}
                        Err(e) => {
                            return Err(format!(
                                "step {i}: tampered read of palette {k} failed with {e}, \
                                 expected an integrity violation"
                            ));
                        }
                        Ok(v) => {
                            return Err(format!(
                                "step {i}: read of palette {k} returned {v:#x} despite a tamper \
                                 on its walk (forgery accepted)"
                            ));
                        }
                    }
                } else {
                    match result {
                        Ok(v) if v == shadow[k] => {}
                        Ok(v) => {
                            return Err(format!(
                                "step {i}: read of palette {k} returned {v:#x}, expected {:#x} \
                                 (last-write-wins broken)",
                                shadow[k]
                            ));
                        }
                        Err(e) => {
                            return Err(format!(
                                "step {i}: clean read of palette {k} failed verification: {e}"
                            ));
                        }
                    }
                }
            }
            TreeOp::TamperDigest(k) => {
                index_ok(i, k)?;
                tree.tamper_digest(pal[k])
                    .map_err(|e| format!("step {i}: tamper_digest failed: {e}"))?;
                digest_flips[k] += 1;
            }
            TreeOp::TamperCounter(l) => {
                tree.tamper_counter(ladder_level(l), 0);
                counter_flips[l] += 1;
            }
        }
    }
    Ok(())
}

/// Exhaustively checks `tree-consistency`.
pub fn enumerate_tree_invariant(budget: &Budget, out: &mut Vec<Counterexample>) {
    let pal = PALETTE.len();
    // Symbols: writes of two distinct values, reads, digest tampers, counter
    // tampers at each level.
    let symbols = 2 * pal + pal + pal + 4;
    let decode = |s: usize| -> TreeOp {
        if s < 2 * pal {
            TreeOp::Write(s % pal, 1 + (s / pal) as u64)
        } else if s < 3 * pal {
            TreeOp::Read(s - 2 * pal)
        } else if s < 4 * pal {
            TreeOp::TamperDigest(s - 3 * pal)
        } else {
            TreeOp::TamperCounter(s - 4 * pal)
        }
    };
    let mut go = true;
    for_each_program(symbols, budget.tree_len, |prog| {
        let mut ops: Vec<TreeOp> = prog.iter().map(|&s| decode(s)).collect();
        // Cap the cost of each case by ending with a full palette sweep —
        // it also guarantees every program *observes* its final state.
        ops.extend((0..pal).map(TreeOp::Read));
        if let Err(detail) = check_tree_program(&ops) {
            out.push(Counterexample {
                invariant: "tree-consistency",
                config: "geom=tiny".into(),
                trace: fmt_tree_ops(&ops),
                detail,
                seed: None,
            });
            go = out.len() < budget.max_counterexamples;
        }
        go
    });
}

/// Replays a `tree-consistency` recipe.
///
/// # Errors
///
/// Returns a message for malformed traces.
pub fn replay_tree_recipe(config: &str, trace: &str) -> Result<Option<Counterexample>, String> {
    let ops = parse_tree_ops(trace)?;
    Ok(check_tree_program(&ops).err().map(|detail| Counterexample {
        invariant: "tree-consistency",
        config: config.to_owned(),
        trace: trace.to_owned(),
        detail,
        seed: None,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_ops_round_trip() {
        let ops = vec![
            TreeOp::Write(0, 2),
            TreeOp::Read(3),
            TreeOp::TamperDigest(1),
            TreeOp::TamperCounter(2),
        ];
        let s = fmt_tree_ops(&ops);
        assert_eq!(s, "w0.2 r3 td1 tc2");
        assert_eq!(parse_tree_ops(&s).unwrap(), ops);
        assert!(parse_tree_ops("tc4").is_err());
    }

    #[test]
    fn last_write_wins_and_verifies() {
        let ops = parse_tree_ops("w0.1 w0.2 r0 w3.1 r3 r1").unwrap();
        check_tree_program(&ops).unwrap();
    }

    #[test]
    fn version_tamper_blast_radius_is_block_zero() {
        // tc0 poisons lines 0 and 7 (block 0) but not 8 or 63.
        let ops = parse_tree_ops("w0.1 w2.1 tc0 r0 r1 r2 r3").unwrap();
        check_tree_program(&ops).unwrap();
    }

    #[test]
    fn upper_level_tamper_poisons_the_whole_page() {
        for level in 1..=3 {
            let trace = format!("w0.1 tc{level} r0 r1 r2 r3");
            let ops = parse_tree_ops(&trace).unwrap();
            check_tree_program(&ops).unwrap_or_else(|e| panic!("level {level}: {e}"));
        }
    }

    #[test]
    fn digest_tamper_hits_one_line_only() {
        let ops = parse_tree_ops("w1.2 td1 r1 r0 r2 r3").unwrap();
        check_tree_program(&ops).unwrap();
    }

    #[test]
    fn double_tampers_cancel() {
        // Both tamper primitives are XOR flips: applying one twice restores
        // the tree, and the checker's parity tracking must agree.
        for trace in ["td0 td0 r0 r1 r2 r3", "tc1 tc1 r0 r3", "w0.1 tc0 tc0 r0"] {
            let ops = parse_tree_ops(trace).unwrap();
            check_tree_program(&ops).unwrap_or_else(|e| panic!("{trace:?}: {e}"));
        }
    }
}
