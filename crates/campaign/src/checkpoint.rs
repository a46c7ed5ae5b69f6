//! Atomic, checksummed per-shard checkpoints.
//!
//! One file per completed shard, named `shard-<index>.ckpt`, written with
//! the classic crash-safe discipline: serialize to `<name>.tmp`, `fsync`,
//! then `rename` over the final name (and `fsync` the directory where the
//! platform allows it). A kill at *any* instant therefore leaves every
//! shard file either absent or complete — never half-written — which is
//! the atomicity half of the resume-≡-uninterrupted argument (DESIGN.md
//! "Crash-safe campaigns").
//!
//! The payload is a line-oriented text format carrying the exact bit
//! patterns of every floating-point aggregate (hex `f64::to_bits`), the
//! campaign fingerprint (so checkpoints from a different campaign are a
//! typed [`CheckpointError::Mismatch`], not silently merged data), and a
//! trailing FNV-64 checksum over everything above it. A flipped byte
//! anywhere fails the checksum and surfaces as a loud
//! [`CheckpointError::Corrupt`] with a replay recipe — the campaign never
//! silently recomputes over corrupted state.

use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::agg::{QuantileSketch, SeriesAgg, ShardAggregate, StreamStats};

/// Magic first line of every checkpoint file; bump the version on any
/// format change so stale files fail as [`CheckpointError::Mismatch`].
const MAGIC: &str = "MEECAMPAIGN v1";

/// FNV-1a 64-bit — the workspace's standing content-fingerprint hash.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything that must match between a checkpoint and the campaign
/// resuming from it. The fingerprint folds the name, seed space, shard
/// partition, series names, and the driver's body-version tag, so *any*
/// parameter drift refuses the old files instead of merging stale data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignIdentity {
    /// Campaign name (artifact / report naming).
    pub name: String,
    /// Root seed of the session seed space.
    pub root_seed: u64,
    /// Total sessions in the campaign.
    pub sessions: usize,
    /// Number of shards the seed space is partitioned into.
    pub shards: usize,
    /// Series names, in order.
    pub series: Vec<String>,
    /// Driver-supplied body version tag (e.g. `channel/v1 bits=64`): any
    /// change to what a session computes must change this string.
    pub body_version: String,
}

impl CampaignIdentity {
    /// The 64-bit fingerprint embedded in every shard checkpoint.
    pub fn fingerprint(&self) -> u64 {
        let mut desc = format!(
            "{}|{}|{}|{}|{}",
            self.name, self.root_seed, self.sessions, self.shards, self.body_version
        );
        for s in &self.series {
            desc.push('|');
            desc.push_str(s);
        }
        fnv64(desc.as_bytes())
    }
}

/// Why a checkpoint could not be used.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure (open/read/write/rename).
    Io {
        /// The path being accessed.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file exists but its content fails the checksum or the grammar
    /// — bit rot, truncation, or hand editing. Never silently recomputed.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What exactly failed.
        detail: String,
    },
    /// The file is a well-formed checkpoint of a *different* campaign
    /// (fingerprint or shard-geometry drift).
    Mismatch {
        /// The offending file.
        path: PathBuf,
        /// Which field disagreed, expected vs. found.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(
                    f,
                    "campaign checkpoint I/O error at {}: {source}",
                    path.display()
                )
            }
            CheckpointError::Corrupt { path, detail } => write!(
                f,
                "corrupt campaign checkpoint {}: {detail} | replay: delete this file and rerun \
                 with resume enabled — the shard recomputes deterministically from its seed \
                 range (corruption is never silently recomputed over)",
                path.display()
            ),
            CheckpointError::Mismatch { path, detail } => write!(
                f,
                "campaign checkpoint {} belongs to a different campaign: {detail} (refusing to \
                 mix checkpoints — use a fresh checkpoint directory or delete the stale files)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The checkpoint file name of shard `index`.
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index:05}.ckpt")
}

fn hex_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_hex_f64(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 bit pattern {s:?}: {e}"))
}

/// Serializes a shard aggregate under `identity` (deterministic bytes:
/// same aggregate ⇒ same file content, which is what makes the ci.sh
/// `cmp`-level resume check possible).
pub fn encode(identity: &CampaignIdentity, shard: &ShardAggregate) -> String {
    let mut body = format!(
        "{MAGIC}\nfingerprint {:016x}\ncampaign {} root {} sessions {} shards {}\n\
         shard {} sessions {}..{}\n",
        identity.fingerprint(),
        identity.name,
        identity.root_seed,
        identity.sessions,
        identity.shards,
        shard.shard,
        shard.lo,
        shard.hi,
    );
    for (name, agg) in identity.series.iter().zip(&shard.series) {
        let s = &agg.stats;
        body.push_str(&format!(
            "series {name} count {} mean {} m2 {} min {} max {}\n",
            s.count,
            hex_f64(s.mean),
            hex_f64(s.m2),
            hex_f64(s.min),
            hex_f64(s.max),
        ));
        body.push_str(&format!("sketch {name} {}\n", agg.sketch.encode()));
    }
    let checksum = fnv64(body.as_bytes());
    body.push_str(&format!("checksum {checksum:016x}\n"));
    body
}

/// Atomically writes shard `shard` of `identity` into `dir`: temp file,
/// `fsync`, rename, directory `fsync` (best-effort on platforms without
/// directory handles).
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on any filesystem failure.
pub fn write(
    dir: &Path,
    identity: &CampaignIdentity,
    shard: &ShardAggregate,
) -> Result<PathBuf, CheckpointError> {
    let final_path = dir.join(shard_file_name(shard.shard));
    let tmp_path = dir.join(format!("{}.tmp", shard_file_name(shard.shard)));
    let io = |path: &Path| {
        let path = path.to_path_buf();
        move |source| CheckpointError::Io { path, source }
    };
    let body = encode(identity, shard);
    let mut f = File::create(&tmp_path).map_err(io(&tmp_path))?;
    f.write_all(body.as_bytes()).map_err(io(&tmp_path))?;
    f.sync_all().map_err(io(&tmp_path))?;
    drop(f);
    std::fs::rename(&tmp_path, &final_path).map_err(io(&final_path))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// Loads and fully validates shard `index` of `identity` from `dir`.
/// Returns `Ok(None)` when the shard has no checkpoint yet.
///
/// # Errors
///
/// * [`CheckpointError::Io`] — unreadable file;
/// * [`CheckpointError::Corrupt`] — checksum or grammar failure (a single
///   flipped byte lands here);
/// * [`CheckpointError::Mismatch`] — a valid checkpoint of a different
///   campaign, shard, session range, or series set.
pub fn load(
    dir: &Path,
    identity: &CampaignIdentity,
    index: usize,
    expected_range: std::ops::Range<usize>,
) -> Result<Option<ShardAggregate>, CheckpointError> {
    let path = dir.join(shard_file_name(index));
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(source) => return Err(CheckpointError::Io { path, source }),
    };
    // Invalid UTF-8 is corruption of a file we wrote as text, not an I/O
    // failure — it must carry the corrupt-checkpoint replay recipe.
    let raw = match String::from_utf8(bytes) {
        Ok(s) => s,
        Err(_) => {
            return Err(CheckpointError::Corrupt {
                path,
                detail: "checkpoint is not valid UTF-8".into(),
            })
        }
    };
    decode(&raw, identity, index, expected_range)
        .map(Some)
        .map_err(|e| match e {
            DecodeError::Corrupt(detail) => CheckpointError::Corrupt {
                path: path.clone(),
                detail,
            },
            DecodeError::Mismatch(detail) => CheckpointError::Mismatch {
                path: path.clone(),
                detail,
            },
        })
}

enum DecodeError {
    Corrupt(String),
    Mismatch(String),
}

fn decode(
    raw: &str,
    identity: &CampaignIdentity,
    index: usize,
    expected_range: std::ops::Range<usize>,
) -> Result<ShardAggregate, DecodeError> {
    use DecodeError::{Corrupt, Mismatch};

    // 1. Checksum first: a corrupt file must fail *here*, before any field
    // of it is believed.
    let body_end = raw
        .rfind("checksum ")
        .ok_or_else(|| Corrupt("missing checksum line".into()))?;
    let (body, checksum_line) = raw.split_at(body_end);
    let stated = checksum_line
        .trim()
        .strip_prefix("checksum ")
        .ok_or_else(|| Corrupt("malformed checksum line".into()))?;
    let stated = u64::from_str_radix(stated, 16)
        .map_err(|e| Corrupt(format!("malformed checksum value: {e}")))?;
    let actual = fnv64(body.as_bytes());
    if stated != actual {
        return Err(Corrupt(format!(
            "checksum mismatch: file says {stated:016x}, content hashes to {actual:016x}"
        )));
    }

    // 2. Grammar + identity.
    let mut lines = body.lines();
    let magic = lines.next().ok_or_else(|| Corrupt("empty file".into()))?;
    if magic != MAGIC {
        return Err(Mismatch(format!(
            "version line {magic:?}, expected {MAGIC:?}"
        )));
    }
    let fp_line = lines
        .next()
        .ok_or_else(|| Corrupt("missing fingerprint".into()))?;
    let fp = fp_line
        .strip_prefix("fingerprint ")
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| Corrupt(format!("malformed fingerprint line {fp_line:?}")))?;
    let expected_fp = identity.fingerprint();
    if fp != expected_fp {
        return Err(Mismatch(format!(
            "fingerprint {fp:016x}, this campaign is {expected_fp:016x} (name/seed/shard \
             partition/series/body version drifted)"
        )));
    }
    // Fingerprint equality already implies campaign-line equality; skip it.
    let _campaign_line = lines
        .next()
        .ok_or_else(|| Corrupt("missing campaign line".into()))?;
    let shard_line = lines
        .next()
        .ok_or_else(|| Corrupt("missing shard line".into()))?;
    let expected_shard_line = format!(
        "shard {index} sessions {}..{}",
        expected_range.start, expected_range.end
    );
    if shard_line != expected_shard_line {
        return Err(Mismatch(format!(
            "shard line {shard_line:?}, expected {expected_shard_line:?}"
        )));
    }

    // 3. Series payload.
    let mut series = Vec::with_capacity(identity.series.len());
    for name in &identity.series {
        let stats_line = lines
            .next()
            .ok_or_else(|| Corrupt(format!("missing series line for {name:?}")))?;
        // `series <name> count <n> mean <hex> m2 <hex> min <hex> max <hex>`
        let fields: Vec<&str> = stats_line.split_whitespace().collect();
        let malformed =
            |what: &str| Corrupt(format!("malformed series line {stats_line:?}: {what}"));
        if fields.len() != 12
            || fields[0] != "series"
            || [fields[2], fields[4], fields[6], fields[8], fields[10]]
                != ["count", "mean", "m2", "min", "max"]
        {
            return Err(malformed(
                "want `series <name> count <n> mean/m2/min/max <hex bits>`",
            ));
        }
        if fields[1] != name {
            return Err(Mismatch(format!(
                "series {:?} where this campaign expects {name:?}",
                fields[1]
            )));
        }
        let count: u64 = fields[3]
            .parse()
            .map_err(|e| malformed(&format!("bad count: {e}")))?;
        let bits = |i: usize| parse_hex_f64(fields[i]).map_err(Corrupt);
        let stats = StreamStats {
            count,
            mean: bits(5)?,
            m2: bits(7)?,
            min: bits(9)?,
            max: bits(11)?,
        };
        let sketch_line = lines
            .next()
            .ok_or_else(|| Corrupt(format!("missing sketch line for {name:?}")))?;
        let sketch_body = sketch_line
            .strip_prefix(&format!("sketch {name}"))
            .ok_or_else(|| Corrupt(format!("malformed sketch line {sketch_line:?}")))?;
        let sketch = QuantileSketch::decode(sketch_body).map_err(Corrupt)?;
        if sketch.count() != count {
            return Err(Corrupt(format!(
                "series {name:?}: sketch holds {} values, stats hold {count}",
                sketch.count()
            )));
        }
        series.push(SeriesAgg { stats, sketch });
    }
    if lines.next().is_some() {
        return Err(Corrupt("trailing content after last series".into()));
    }

    Ok(ShardAggregate {
        shard: index,
        lo: expected_range.start,
        hi: expected_range.end,
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity() -> CampaignIdentity {
        CampaignIdentity {
            name: "test/campaign".into(),
            root_seed: 2019,
            sessions: 16,
            shards: 4,
            series: vec!["ber".into(), "kbps".into()],
            body_version: "test/v1".into(),
        }
    }

    fn shard() -> ShardAggregate {
        let mut s = ShardAggregate::empty(1, 4, 8, 2);
        for i in 0..4 {
            s.push_session(&[0.01 * i as f64, 35.0 + i as f64]);
        }
        s
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mee_campaign_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_is_exact() {
        let dir = tmp_dir("round_trip");
        let id = identity();
        let s = shard();
        write(&dir, &id, &s).unwrap();
        let loaded = load(&dir, &id, 1, 4..8).unwrap().expect("present");
        assert_eq!(loaded, s, "bit-exact round trip");
        // Deterministic bytes: encoding twice is identical.
        assert_eq!(encode(&id, &s), encode(&id, &s));
    }

    #[test]
    fn absent_shard_is_none_not_an_error() {
        let dir = tmp_dir("absent");
        assert!(load(&dir, &identity(), 3, 12..16).unwrap().is_none());
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let dir = tmp_dir("flip");
        let id = identity();
        let s = shard();
        let path = write(&dir, &id, &s).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // Flip one byte at a spread of positions (every byte would be slow;
        // a stride covers header, stats, sketch, and checksum regions).
        for pos in (0..pristine.len()).step_by(7) {
            let mut bad = pristine.clone();
            bad[pos] ^= 0x20;
            if bad == pristine {
                continue;
            }
            std::fs::write(&path, &bad).unwrap();
            let err = load(&dir, &id, 1, 4..8).expect_err(&format!("flip at {pos} accepted"));
            assert!(
                matches!(
                    err,
                    CheckpointError::Corrupt { .. } | CheckpointError::Mismatch { .. }
                ),
                "flip at {pos}: wrong error {err}"
            );
        }
        std::fs::write(&path, &pristine).unwrap();
        assert!(
            load(&dir, &id, 1, 4..8).unwrap().is_some(),
            "pristine restored"
        );
    }

    #[test]
    fn corrupt_error_carries_replay_recipe() {
        let dir = tmp_dir("recipe");
        let id = identity();
        let path = write(&dir, &id, &shard()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&dir, &id, 1, 4..8).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("corrupt campaign checkpoint"), "msg: {msg}");
        assert!(msg.contains("replay:"), "no replay recipe: {msg}");
        assert!(
            msg.contains("never silently recomputed"),
            "policy not stated: {msg}"
        );
    }

    #[test]
    fn different_campaign_is_a_mismatch_not_corruption() {
        let dir = tmp_dir("mismatch");
        let id = identity();
        write(&dir, &id, &shard()).unwrap();
        let other = CampaignIdentity {
            root_seed: 7,
            ..identity()
        };
        let err = load(&dir, &other, 1, 4..8).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "got {err}");
        assert!(err.to_string().contains("different campaign"));
        // Same campaign, different shard geometry claimed by the caller.
        let err = load(&dir, &id, 1, 4..9).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "got {err}");
    }

    #[test]
    fn fingerprint_covers_every_identity_field() {
        let base = identity().fingerprint();
        assert_ne!(
            CampaignIdentity {
                name: "x".into(),
                ..identity()
            }
            .fingerprint(),
            base
        );
        assert_ne!(
            CampaignIdentity {
                root_seed: 1,
                ..identity()
            }
            .fingerprint(),
            base
        );
        assert_ne!(
            CampaignIdentity {
                sessions: 8,
                ..identity()
            }
            .fingerprint(),
            base
        );
        assert_ne!(
            CampaignIdentity {
                shards: 2,
                ..identity()
            }
            .fingerprint(),
            base
        );
        assert_ne!(
            CampaignIdentity {
                series: vec!["ber".into()],
                ..identity()
            }
            .fingerprint(),
            base
        );
        assert_ne!(
            CampaignIdentity {
                body_version: "test/v2".into(),
                ..identity()
            }
            .fingerprint(),
            base
        );
    }

    #[test]
    fn no_tmp_file_survives_a_successful_write() {
        let dir = tmp_dir("tmpfile");
        write(&dir, &identity(), &shard()).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }
}
