//! The functional integrity tree: counters, tags, verification.

use mee_types::{FxHashMap, LineAddr, ModelError, TREE_ARITY};

use crate::geometry::{TreeGeometry, TreeLevel};
use crate::mac::MacTag;

/// A functional SGX-style counter tree over a protected data region.
///
/// Stores one freshness counter per data line (held in version lines), one
/// per tree node at every level, a MAC per node line, and a `PD_Tag` MAC per
/// data line. Reads verify the full chain; writes bump the counter path and
/// re-tag it. Tampering with any stored value is detected on the next read.
///
/// Data contents are modeled as 64-bit digests (the simulator tracks *where*
/// data is and *whether it verifies*, not full byte contents).
///
/// Tag storage is **lazy**: a fresh tree's half-million tags are all
/// deterministic functions of the all-zero initial state, so they are not
/// materialized at construction. An absent map entry *is* the pristine tag;
/// it only becomes an explicit entry when a write (or a replayed snapshot)
/// re-tags that line/node. Verification of an absent entry short-circuits to
/// "is the covered state still all-zero?", falling back to comparing the
/// recomputed pristine MAC on the rare tampered path — bit-identical to
/// storing every tag eagerly, at none of the construction cost.
#[derive(Debug, Clone)]
pub struct IntegrityTree {
    geo: TreeGeometry,
    key: u64,
    /// Digest per data line, sparse; unwritten lines read as 0.
    digests: FxHashMap<u64, u64>,
    /// PD_Tag per data line, sparse; absent = pristine tag.
    pd_tags: FxHashMap<u64, MacTag>,
    /// Freshness counter per data line (contents of version lines).
    ctr_data: Vec<u64>,
    /// Counter per version line (contents of L0 lines).
    ctr_version: Vec<u64>,
    /// Counter per L0 line (contents of L1 lines).
    ctr_l0: Vec<u64>,
    /// Counter per L1 line (contents of L2 lines).
    ctr_l1: Vec<u64>,
    /// Counter per L2 line (on-die root SRAM — tamper-proof by assumption).
    ctr_l2: Vec<u64>,
    /// Embedded MAC per node line, per level, sparse; absent = pristine MAC.
    mac_version: FxHashMap<u64, MacTag>,
    mac_l0: FxHashMap<u64, MacTag>,
    mac_l1: FxHashMap<u64, MacTag>,
    mac_l2: FxHashMap<u64, MacTag>,
    reads: u64,
    writes: u64,
    /// Mutation generation: bumped by every state change (write, tamper,
    /// replay). Verification results are memoized against it.
    generation: u64,
    /// Generation at which each data line's `PD_Tag` last verified
    /// (`0` = never). A stamp equal to [`Self::generation`] proves the line
    /// verified against the *current* state, so the MAC recomputation can
    /// be skipped — verification is pure, so this is observationally
    /// identical and saves the dominant per-read host cost.
    verified_pd: Vec<u64>,
    /// Same memo per node, per level (Version, L0, L1, L2).
    verified_node: [Vec<u64>; 4],
}

/// Folds child counters into a MAC payload word.
fn fold_payload<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    words.into_iter().fold(0xabcd_ef01_2345_6789u64, |acc, w| {
        acc.rotate_left(7) ^ w.wrapping_mul(0x2545_f491_4f6c_dd1d)
    })
}

impl IntegrityTree {
    /// Creates a fresh tree (all counters zero, all tags consistent) keyed
    /// by `key`.
    pub fn new(geo: TreeGeometry, key: u64) -> Self {
        let data_lines = geo.data_lines() as usize;
        let v = geo.lines_at(TreeLevel::Version) as usize;
        let l0 = geo.lines_at(TreeLevel::L0) as usize;
        let l1 = geo.lines_at(TreeLevel::L1) as usize;
        let l2 = geo.lines_at(TreeLevel::L2) as usize;
        IntegrityTree {
            geo,
            key,
            digests: FxHashMap::default(),
            pd_tags: FxHashMap::default(),
            ctr_data: vec![0; data_lines],
            ctr_version: vec![0; v],
            ctr_l0: vec![0; l0],
            ctr_l1: vec![0; l1],
            ctr_l2: vec![0; l2],
            mac_version: FxHashMap::default(),
            mac_l0: FxHashMap::default(),
            mac_l1: FxHashMap::default(),
            mac_l2: FxHashMap::default(),
            reads: 0,
            writes: 0,
            generation: 1,
            verified_pd: vec![0; data_lines],
            verified_node: [vec![0; v], vec![0; l0], vec![0; l1], vec![0; l2]],
        }
    }

    /// Invalidates every memoized verification result. Every mutation path
    /// must call this before returning.
    fn touch(&mut self) {
        self.generation += 1;
    }

    /// The geometry of this tree.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geo
    }

    /// Number of verified reads performed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of writes performed.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Writes `digest` to a protected data line: stores the value, bumps the
    /// freshness counters along the whole verification path, and re-tags
    /// every touched node.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadPhysAddr`] if the line is not protected data.
    pub fn write(&mut self, data_line: LineAddr, digest: u64) -> Result<(), ModelError> {
        self.check_covered(data_line)?;
        self.touch();
        self.writes += 1;
        let idx = self.geo.data_line_index(data_line);
        let p = self.geo.walk_path(data_line);

        self.ctr_data[idx as usize] = self.ctr_data[idx as usize].wrapping_add(1);
        self.ctr_version[p.version as usize] = self.ctr_version[p.version as usize].wrapping_add(1);
        self.ctr_l0[p.l0 as usize] = self.ctr_l0[p.l0 as usize].wrapping_add(1);
        self.ctr_l1[p.l1 as usize] = self.ctr_l1[p.l1 as usize].wrapping_add(1);
        self.ctr_l2[p.l2 as usize] = self.ctr_l2[p.l2 as usize].wrapping_add(1);

        self.digests.insert(idx, digest);
        let tag = self.pd_tag_for(idx);
        self.pd_tags.insert(idx, tag);
        let mac = self.node_mac(TreeLevel::Version, p.version);
        self.mac_version.insert(p.version, mac);
        let mac = self.node_mac(TreeLevel::L0, p.l0);
        self.mac_l0.insert(p.l0, mac);
        let mac = self.node_mac(TreeLevel::L1, p.l1);
        self.mac_l1.insert(p.l1, mac);
        let mac = self.node_mac(TreeLevel::L2, p.l2);
        self.mac_l2.insert(p.l2, mac);
        Ok(())
    }

    /// Reads a protected data line, verifying the full chain bottom-up:
    /// `PD_Tag`, then the version / L0 / L1 / L2 node MACs against their
    /// parents' counters (L2 against the on-die root).
    ///
    /// # Errors
    ///
    /// * [`ModelError::BadPhysAddr`] if the line is not protected data.
    /// * [`ModelError::IntegrityViolation`] at the first level whose tag
    ///   does not verify.
    pub fn read_verified(&mut self, data_line: LineAddr) -> Result<u64, ModelError> {
        self.read_partial(data_line, 4)
    }

    /// Reads a protected data line, verifying only the bottom `node_levels`
    /// node MACs (plus the `PD_Tag`, which is always checked).
    ///
    /// This is how the MEE actually behaves: once the walk *hits* in the MEE
    /// cache at some level, everything above was already verified at fill
    /// time and is trusted (paper §2.2 — "as soon as a MEE cache hit occurs,
    /// MEE stops integrity check"). `node_levels = 0` models a versions hit,
    /// `4` a walk all the way to the on-die root.
    ///
    /// # Errors
    ///
    /// * [`ModelError::BadPhysAddr`] if the line is not protected data.
    /// * [`ModelError::IntegrityViolation`] at the first checked level whose
    ///   tag does not verify.
    ///
    /// # Panics
    ///
    /// Panics if `node_levels > 4`.
    pub fn read_partial(
        &mut self,
        data_line: LineAddr,
        node_levels: usize,
    ) -> Result<u64, ModelError> {
        assert!(node_levels <= 4, "at most 4 node levels exist");
        self.check_covered(data_line)?;
        self.reads += 1;
        let idx = self.geo.data_line_index(data_line);
        let p = self.geo.walk_path(data_line);

        let violation = |level: usize| ModelError::IntegrityViolation {
            line: data_line,
            level,
        };
        if !self.pd_tag_verifies(idx) {
            return Err(violation(0));
        }
        let checks: [(TreeLevel, u64, usize); 4] = [
            (TreeLevel::Version, p.version, 0),
            (TreeLevel::L0, p.l0, 1),
            (TreeLevel::L1, p.l1, 2),
            (TreeLevel::L2, p.l2, 3),
        ];
        for &(level, node, report) in checks.iter().take(node_levels) {
            if !self.node_mac_verifies(level, node) {
                return Err(violation(report));
            }
        }
        Ok(self.digests.get(&idx).copied().unwrap_or(0))
    }

    /// Checks the stored `PD_Tag` of a data line against a recomputation.
    ///
    /// An absent entry is the tag the fresh tree would have stored
    /// (digest 0, counter 0): if the current state is still all-zero the
    /// recomputation trivially matches; otherwise fall back to comparing
    /// the explicit pristine MAC, which is what the eager store compared.
    fn pd_tag_verifies(&mut self, idx: u64) -> bool {
        if self.verified_pd[idx as usize] == self.generation {
            return true;
        }
        let ok = match self.pd_tags.get(&idx) {
            Some(stored) => *stored == self.pd_tag_for(idx),
            None => {
                let digest = self.digests.get(&idx).copied().unwrap_or(0);
                (digest == 0 && self.ctr_data[idx as usize] == 0)
                    || MacTag::compute(self.key, idx, 0, 0) == self.pd_tag_for(idx)
            }
        };
        if ok {
            self.verified_pd[idx as usize] = self.generation;
        }
        ok
    }

    /// Checks a stored node MAC against a recomputation, treating an absent
    /// entry as the pristine (all-zero-state) MAC — see [`Self::pd_tag_verifies`].
    fn node_mac_verifies(&mut self, level: TreeLevel, node: u64) -> bool {
        if self.verified_node[level.ladder_index()][node as usize] == self.generation {
            return true;
        }
        let stored = match level {
            TreeLevel::Version => self.mac_version.get(&node),
            TreeLevel::L0 => self.mac_l0.get(&node),
            TreeLevel::L1 => self.mac_l1.get(&node),
            TreeLevel::L2 => self.mac_l2.get(&node),
        };
        let ok = match stored {
            Some(stored) => *stored == self.node_mac(level, node),
            None => {
                let (children, freshness) = self.node_inputs(level, node);
                (freshness == 0 && children.iter().all(|&c| c == 0))
                    || self.pristine_node_mac(level, node) == self.node_mac(level, node)
            }
        };
        if ok {
            self.verified_node[level.ladder_index()][node as usize] = self.generation;
        }
        ok
    }

    /// Corrupts the stored digest of a data line without re-tagging — an
    /// attacker flipping bits in DRAM.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadPhysAddr`] if the line is not protected data.
    pub fn tamper_digest(&mut self, data_line: LineAddr) -> Result<(), ModelError> {
        self.check_covered(data_line)?;
        self.touch();
        let idx = self.geo.data_line_index(data_line);
        let old = self.digests.get(&idx).copied().unwrap_or(0);
        self.digests.insert(idx, old ^ 0x1);
        Ok(())
    }

    /// Corrupts a stored freshness counter at `level` without re-tagging —
    /// an attacker rolling a counter forward in DRAM. Root counters cannot
    /// be tampered (they are on-die by assumption).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for `level`.
    pub fn tamper_counter(&mut self, level: TreeLevel, node: u64) {
        assert!(
            node < self.geo.lines_at(level),
            "tamper_counter: node {node} out of range for {level:?} \
             ({} lines)",
            self.geo.lines_at(level)
        );
        self.touch();
        match level {
            TreeLevel::Version => {
                // Counters *in* a version line are the per-data-line ones.
                self.ctr_data[(node * TREE_ARITY as u64) as usize] ^= 1;
            }
            TreeLevel::L0 => self.ctr_version[(node * TREE_ARITY as u64) as usize] ^= 1,
            TreeLevel::L1 => self.ctr_l0[(node * TREE_ARITY as u64) as usize] ^= 1,
            TreeLevel::L2 => self.ctr_l1[(node * TREE_ARITY as u64) as usize] ^= 1,
        }
    }

    /// Attempts a replay: restores the digest, `PD_Tag`, and data counter of
    /// `data_line` to `snapshot` (a previously captured [`Self::snapshot`])
    /// without touching the tree above — the classic rollback attack the
    /// counter tree exists to stop.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadPhysAddr`] if the line is not protected data.
    pub fn replay(
        &mut self,
        data_line: LineAddr,
        snapshot: (u64, MacTag, u64),
    ) -> Result<(), ModelError> {
        self.check_covered(data_line)?;
        self.touch();
        let idx = self.geo.data_line_index(data_line) as usize;
        let (digest, tag, ctr) = snapshot;
        self.digests.insert(idx as u64, digest);
        self.pd_tags.insert(idx as u64, tag);
        self.ctr_data[idx] = ctr;
        // Recompute the version-line MAC as the attacker would have captured
        // it — but its freshness input (the L0 counter) has moved on, so
        // verification still fails above. We restore the *old* MAC verbatim:
        // the attacker replays ciphertext, not recomputed tags.
        Ok(())
    }

    /// Captures the digest, `PD_Tag`, and data counter of a line for a later
    /// [`Self::replay`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadPhysAddr`] if the line is not protected data.
    pub fn snapshot(&self, data_line: LineAddr) -> Result<(u64, MacTag, u64), ModelError> {
        self.check_covered(data_line)?;
        let idx = self.geo.data_line_index(data_line) as usize;
        Ok((
            self.digests.get(&(idx as u64)).copied().unwrap_or(0),
            self.pd_tags
                .get(&(idx as u64))
                .copied()
                .unwrap_or_else(|| MacTag::compute(self.key, idx as u64, 0, 0)),
            self.ctr_data[idx],
        ))
    }

    /// Returns the stored digest of a data line *without* verification or
    /// statistics — models reading plaintext already resident in an on-chip
    /// cache, which the MEE never sees.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadPhysAddr`] if the line is not protected data.
    pub fn peek(&self, data_line: LineAddr) -> Result<u64, ModelError> {
        self.check_covered(data_line)?;
        let idx = self.geo.data_line_index(data_line);
        Ok(self.digests.get(&idx).copied().unwrap_or(0))
    }

    fn check_covered(&self, data_line: LineAddr) -> Result<(), ModelError> {
        if self.geo.covers(data_line.base()) {
            Ok(())
        } else {
            Err(ModelError::BadPhysAddr {
                pa: data_line.base(),
            })
        }
    }

    /// PD_Tag of a data line: MAC over (address, digest) fresh under the
    /// line's version counter.
    fn pd_tag_for(&self, idx: u64) -> MacTag {
        let digest = self.digests.get(&idx).copied().unwrap_or(0);
        MacTag::compute(self.key, idx, digest, self.ctr_data[idx as usize])
    }

    /// The child-counter slice and freshness counter feeding node `node`'s
    /// MAC at `level`.
    fn node_inputs(&self, level: TreeLevel, node: u64) -> (&[u64], u64) {
        let arity = TREE_ARITY as u64;
        let (children, freshness): (&[u64], u64) = match level {
            TreeLevel::Version => (&self.ctr_data, self.ctr_version[node as usize]),
            TreeLevel::L0 => (&self.ctr_version, self.ctr_l0[node as usize]),
            TreeLevel::L1 => (&self.ctr_l0, self.ctr_l1[node as usize]),
            TreeLevel::L2 => (&self.ctr_l1, self.ctr_l2[node as usize]),
        };
        let start = (node * arity) as usize;
        let end = (start + arity as usize).min(children.len());
        (&children[start..end], freshness)
    }

    /// Embedded MAC of node `node` at `level`: MAC over the node's child
    /// counters, fresh under the node's own counter held one level up.
    fn node_mac(&self, level: TreeLevel, node: u64) -> MacTag {
        let (children, freshness) = self.node_inputs(level, node);
        let payload = fold_payload(children.iter().copied());
        let tweak = self.geo.level_line(level, node).raw();
        MacTag::compute(self.key, tweak, payload, freshness)
    }

    /// The MAC a fresh tree would have stored for node `node` at `level`:
    /// all child counters and the freshness counter zero.
    fn pristine_node_mac(&self, level: TreeLevel, node: u64) -> MacTag {
        let (children, _) = self.node_inputs(level, node);
        let payload = fold_payload(std::iter::repeat_n(0, children.len()));
        let tweak = self.geo.level_line(level, node).raw();
        MacTag::compute(self.key, tweak, payload, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_mem::PhysLayout;
    use mee_rng::prop::{check, vec_of, PropConfig};

    fn tree() -> IntegrityTree {
        let layout = PhysLayout::new(1 << 20, 2 << 20).unwrap();
        let geo = TreeGeometry::new(layout.prm_data(), layout.prm_tree()).unwrap();
        IntegrityTree::new(geo, 0xdead_beef)
    }

    fn data_line(t: &IntegrityTree, index: u64) -> LineAddr {
        LineAddr::new(t.geometry().data_region().base().line().raw() + index)
    }

    #[test]
    fn fresh_tree_verifies_everywhere() {
        let mut t = tree();
        for i in [0u64, 1, 7, 63, 64, 1000] {
            let line = data_line(&t, i % t.geometry().data_lines());
            assert_eq!(t.read_verified(line).unwrap(), 0);
        }
        assert_eq!(t.reads(), 6);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut t = tree();
        let line = data_line(&t, 42);
        t.write(line, 0xcafe).unwrap();
        assert_eq!(t.read_verified(line).unwrap(), 0xcafe);
        t.write(line, 0xf00d).unwrap();
        assert_eq!(t.read_verified(line).unwrap(), 0xf00d);
        assert_eq!(t.writes(), 2);
    }

    #[test]
    fn writes_do_not_disturb_neighbors() {
        let mut t = tree();
        let a = data_line(&t, 0);
        let b = data_line(&t, 1); // same version block
        let c = data_line(&t, 9); // different block, same L0
        t.write(a, 1).unwrap();
        assert_eq!(t.read_verified(b).unwrap(), 0);
        assert_eq!(t.read_verified(c).unwrap(), 0);
    }

    #[test]
    fn digest_tamper_detected_at_level_zero() {
        let mut t = tree();
        let line = data_line(&t, 5);
        t.write(line, 7).unwrap();
        t.tamper_digest(line).unwrap();
        match t.read_verified(line) {
            Err(ModelError::IntegrityViolation { level, .. }) => assert_eq!(level, 0),
            other => panic!("tamper not detected: {other:?}"),
        }
    }

    #[test]
    fn counter_tamper_detected() {
        for level in TreeLevel::ALL {
            let mut t = tree();
            let line = data_line(&t, 0);
            t.write(line, 7).unwrap();
            t.tamper_counter(level, 0);
            assert!(
                t.read_verified(line).is_err(),
                "counter tamper at {level:?} not detected"
            );
        }
    }

    #[test]
    fn tamper_on_never_written_line_detected() {
        // Exercises the lazy-tag slow path: the victim line has no explicit
        // tag entry (never written), so detection must come from comparing
        // against the pristine MAC.
        let mut t = tree();
        let line = data_line(&t, 11);
        t.tamper_digest(line).unwrap();
        match t.read_verified(line) {
            Err(ModelError::IntegrityViolation { level, .. }) => assert_eq!(level, 0),
            other => panic!("tamper on pristine line not detected: {other:?}"),
        }
        // A pristine counter tamper is likewise caught without any stored tag.
        let mut t = tree();
        t.tamper_counter(TreeLevel::L0, 0);
        assert!(t.read_verified(data_line(&t, 0)).is_err());
    }

    #[test]
    fn snapshot_of_pristine_line_replays_cleanly() {
        // A snapshot taken before any write must capture the pristine tag,
        // so replaying it onto the untouched line is a no-op that verifies.
        let mut t = tree();
        let line = data_line(&t, 8);
        let snap = t.snapshot(line).unwrap();
        t.replay(line, snap).unwrap();
        assert_eq!(t.read_verified(line).unwrap(), 0);
    }

    #[test]
    fn replay_attack_detected() {
        let mut t = tree();
        let line = data_line(&t, 3);
        t.write(line, 0x01d).unwrap();
        let snap = t.snapshot(line).unwrap();
        t.write(line, 0x4ee).unwrap();
        assert_eq!(t.read_verified(line).unwrap(), 0x4ee);
        // Attacker restores the old DRAM contents (digest + tag + counter).
        t.replay(line, snap).unwrap();
        assert!(
            t.read_verified(line).is_err(),
            "rollback was not detected — freshness is broken"
        );
    }

    #[test]
    fn foreign_lines_rejected() {
        let mut t = tree();
        assert!(t.write(LineAddr::new(0), 1).is_err());
        assert!(t.read_verified(LineAddr::new(0)).is_err());
        assert!(t.snapshot(LineAddr::new(0)).is_err());
    }

    #[test]
    fn untampered_sibling_still_verifies_after_tamper() {
        let mut t = tree();
        let victim = data_line(&t, 0);
        // A line in a different L2 subtree entirely.
        let far = data_line(&t, t.geometry().data_lines() - 1);
        t.write(victim, 7).unwrap();
        t.tamper_digest(victim).unwrap();
        assert!(t.read_verified(victim).is_err());
        assert!(t.read_verified(far).is_ok());
    }

    /// Arbitrary write sequences always verify afterwards, and the last
    /// write wins.
    #[test]
    fn write_sequences_verify() {
        check("write_sequences_verify", &PropConfig::from_env(24), |rng| {
            let ops = vec_of(rng, 1..40, |r| {
                (r.random_range(0u64..2048), r.random_range(0u64..u64::MAX))
            });
            let mut t = tree();
            let lines = t.geometry().data_lines();
            let mut last = std::collections::HashMap::new();
            for &(idx, val) in &ops {
                let line = data_line(&t, idx % lines);
                t.write(line, val).unwrap();
                last.insert(idx % lines, val);
            }
            for (&idx, &val) in &last {
                let line = data_line(&t, idx);
                assert_eq!(t.read_verified(line).unwrap(), val);
            }
        });
    }
}
