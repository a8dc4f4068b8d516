//! Session snapshot persistence: [`sp_core::GameSession`] ⇄ file.
//!
//! A snapshot file holds exactly the state that fixes a session's
//! configuration — `α`, the backend mode, the game's own metric store,
//! the profile, and a sparse session's [`SparseParams`] — plus the WAL
//! compaction mark. It serves two roles:
//!
//! * **eviction spill**: the registry writes the file, drops the
//!   in-memory session, and the next request restores it transparently;
//! * **cold start**: a fresh server process (or the explicit `load` op)
//!   can resurrect a session nothing in memory remembers.
//!
//! Nothing derived is stored: overlay distance rows, retained `G_{-i}`
//! rows, the CSR and a sparse sketch are recomputed. A restored session
//! starts cold ([`GameSession::restore`]) and re-warms lazily through
//! the session's own cache tiers. The fidelity contract is still
//! *bit-identity* — every query on the restored session answers with
//! exactly the bits the source session would have produced — because
//! cached answers equal fresh ones bit for bit (property-tested in
//! `sp-core`, and end to end in `tests/proptest_snapshot.rs`).
//!
//! # Layout
//!
//! Binary, in the [`sp_wire::binary`] grammar the WAL already speaks
//! (LEB128 varints, little-endian IEEE-754 floats), framed by a magic
//! and the WAL's CRC-32:
//!
//! ```text
//! file    := "SPSNAP01"  body  crc32:u32le    (CRC-32/IEEE over magic + body)
//! body    := mode:u8  alpha:f64  metric  profile  [params]  mark:varint
//! mode    := 0 dense | 1 sparse                (params present iff sparse)
//! metric  := 0 n:varint  f64 × n²              (dense matrix, row-major)
//!          | 1 n:varint  f64 × n               (line positions)
//! profile := (k:varint  target:varint × k) × n (out-links per peer, ascending)
//! params  := landmarks:varint  ball_cap:varint  window:varint
//!            unreach_penalty:f64
//! ```
//!
//! A dense 112-peer session spills ~100 KB, almost all of it the
//! matrix. Equal sessions write byte-identical files. A restored dense
//! matrix must be a metric: restore runs
//! [`Game::check_triangle_inequality`], as `create` does on a matrix
//! spec, and rejects a violation. A torn, truncated, extended or
//! bit-flipped file fails its CRC or the bounds-checked decode and
//! surfaces as [`io::ErrorKind::InvalidData`], never as a panic or a
//! different session.
//!
//! # Legacy JSON files
//!
//! Earlier releases wrote JSON snapshots under the same file names, and
//! a spill directory is the WAL's durable base, so those still load,
//! read-only. The loader dispatches on the first byte: `{` is JSON.
//! `"sp-serve/session-snapshot/v1"` (dense) restores its `matrix` and
//! `profile`, with the triangle check, and ignores its cached rows;
//! `"sp-serve/session-snapshot/v2-sparse"` restores its geometry,
//! profile and `params`. A legacy file is only replaced when its
//! session is next spilled dirty: a restored session that is evicted
//! again without a mutation keeps the JSON file it came from.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use sp_core::{Game, GameSession, SessionSnapshot, SparseParams, StrategyProfile};
use sp_graph::DistanceMatrix;
use sp_json::Value;

use crate::wal::crc32;
use crate::wire::binary::{Reader, Writer};
use crate::wire::WireError;

/// Magic leading every binary snapshot file (format version 01).
pub const MAGIC: &[u8; 8] = b"SPSNAP01";

const MODE_DENSE: u8 = 0;
const MODE_SPARSE: u8 = 1;
const METRIC_MATRIX: u8 = 0;
const METRIC_LINE: u8 = 1;

/// Encodes a session as snapshot file bytes carrying WAL mark `mark`
/// (0 outside WAL deployments). Counts one export on the session.
#[must_use]
pub fn encode(session: &mut GameSession, mark: u64) -> Vec<u8> {
    let SessionSnapshot { profile, sparse } = session.snapshot();
    let game = session.game();
    let mut w = Writer::new();
    w.bytes(MAGIC);
    w.u8(if sparse.is_some() {
        MODE_SPARSE
    } else {
        MODE_DENSE
    });
    w.f64(game.alpha());
    if let Some(positions) = game.line_positions() {
        w.u8(METRIC_LINE);
        w.usize(positions.len());
        positions.iter().for_each(|&x| w.f64(x));
    } else {
        let n = game.n();
        w.u8(METRIC_MATRIX);
        w.usize(n);
        for i in 0..n {
            (0..n).for_each(|j| w.f64(game.distance(i, j)));
        }
    }
    for (_, links) in profile.iter() {
        w.usize(links.len());
        links.iter().for_each(|t| w.usize(t.index()));
    }
    if let Some(p) = sparse {
        w.usize(p.landmarks);
        w.usize(p.ball_cap);
        w.usize(p.window);
        w.f64(p.unreach_penalty);
    }
    w.varint(mark);
    let mut bytes = w.into_vec();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// Rebuilds a session and its WAL mark from snapshot file bytes: the
/// binary format, or a legacy JSON file (first byte `{`).
///
/// # Errors
///
/// A human-readable message on a bad magic or CRC, a malformed or
/// trailing field, a non-metric dense matrix, or an inconsistent
/// profile.
pub fn decode(bytes: &[u8]) -> Result<(GameSession, u64), String> {
    if bytes.first() == Some(&b'{') {
        return decode_legacy(bytes);
    }
    let (data, crc) = bytes
        .split_last_chunk::<4>()
        .ok_or("snapshot is shorter than its checksum")?;
    if !data.starts_with(MAGIC) {
        return Err("not a session snapshot (magic mismatch)".to_owned());
    }
    if u32::from_le_bytes(*crc) != crc32(data) {
        return Err("snapshot checksum mismatch".to_owned());
    }
    let mut r = Reader::new(data);
    let wire = |e: WireError| e.message;
    r.bytes(MAGIC.len()).map_err(wire)?;
    let mode = r.u8().map_err(wire)?;
    let alpha = r.f64().map_err(wire)?;
    let game = match r.u8().map_err(wire)? {
        METRIC_MATRIX => {
            let n = r.usize().map_err(wire)?;
            let cells = n
                .checked_mul(n)
                .filter(|&c| c <= r.remaining() / 8)
                .ok_or("matrix exceeds the snapshot size")?;
            let flat = (0..cells).map(|_| r.f64()).collect::<Result<Vec<f64>, _>>();
            metric_game(n, flat.map_err(wire)?, alpha)?
        }
        METRIC_LINE => {
            let n = r.count(8).map_err(wire)?;
            let positions = (0..n).map(|_| r.f64()).collect::<Result<Vec<f64>, _>>();
            Game::from_line_positions(positions.map_err(wire)?, alpha).map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown metric tag {other}")),
    };
    let n = game.n();
    let mut links: Vec<(usize, usize)> = Vec::new();
    for i in 0..n {
        for _ in 0..r.count(1).map_err(wire)? {
            links.push((i, r.usize().map_err(wire)?));
        }
    }
    let profile = StrategyProfile::from_links(n, &links).map_err(|e| e.to_string())?;
    let sparse = match mode {
        MODE_DENSE => None,
        MODE_SPARSE => Some(SparseParams {
            landmarks: r.usize().map_err(wire)?,
            ball_cap: r.usize().map_err(wire)?,
            window: r.usize().map_err(wire)?,
            unreach_penalty: r.f64().map_err(wire)?,
        }),
        other => return Err(format!("unknown backend mode tag {other}")),
    };
    let mark = r.varint().map_err(wire)?;
    r.finish().map_err(wire)?;
    let session = GameSession::restore(game, SessionSnapshot { profile, sparse })
        .map_err(|e| e.to_string())?;
    Ok((session, mark))
}

/// A dense game over a row-major matrix, which must be a metric: the
/// cached oracles read metric rows as certified lower bounds, so a
/// restored matrix is checked as `create` checks a matrix spec.
fn metric_game(n: usize, flat: Vec<f64>, alpha: f64) -> Result<Game, String> {
    let matrix = DistanceMatrix::from_row_major(n, flat).map_err(|e| e.to_string())?;
    let game = Game::new(matrix, alpha).map_err(|e| e.to_string())?;
    game.check_triangle_inequality()
        .map_err(|e| format!("snapshot matrix is not a metric: {e}"))?;
    Ok(game)
}

/// Reads a legacy JSON snapshot: v1 dense (cached rows ignored) or v2
/// sparse. See the module docs.
fn decode_legacy(bytes: &[u8]) -> Result<(GameSession, u64), String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    let v: Value = text
        .parse()
        .map_err(|e: sp_json::JsonError| e.to_string())?;
    let sparse = match v.get("format").and_then(Value::as_str) {
        Some("sp-serve/session-snapshot/v1") => false,
        Some("sp-serve/session-snapshot/v2-sparse") => true,
        Some(f) => return Err(format!("unsupported snapshot format {f:?}")),
        None => return Err("snapshot is missing its format tag".to_owned()),
    };
    let alpha = v
        .get("alpha")
        .and_then(Value::as_f64)
        .ok_or("snapshot needs a numeric 'alpha'")?;
    let numbers = |x: &Value, what: &str| -> Result<Vec<f64>, String> {
        x.as_array()
            .ok_or(format!("{what} must be an array"))?
            .iter()
            .map(|e| e.as_f64().ok_or(format!("{what} entries must be numbers")))
            .collect()
    };
    let game = match v.get("positions_1d").filter(|p| !p.is_null()) {
        Some(p) if sparse => Game::from_line_positions(numbers(p, "positions_1d")?, alpha)
            .map_err(|e| e.to_string())?,
        _ => {
            let rows = v
                .get("matrix")
                .and_then(Value::as_array)
                .ok_or("snapshot needs a 'matrix' array")?;
            let n = rows.len();
            // sp-lint: allow(dense-alloc, reason = "decoding the explicitly dense legacy matrix; sparse legacy files take the positions arm")
            let mut flat = Vec::with_capacity(n * n);
            for row in rows {
                let r = numbers(row, "matrix rows")?;
                if r.len() != n {
                    return Err("matrix must be square".to_owned());
                }
                flat.extend(r);
            }
            metric_game(n, flat, alpha)?
        }
    };
    let n = game.n();
    let strategies = v
        .get("profile")
        .and_then(Value::as_array)
        .filter(|s| s.len() == n)
        .ok_or(format!("snapshot needs a 'profile' of {n} strategies"))?;
    let mut links: Vec<(usize, usize)> = Vec::new();
    for (i, s) in strategies.iter().enumerate() {
        for t in s.as_array().ok_or("profile strategies must be arrays")? {
            links.push((i, t.as_usize().ok_or("profile links must be peer indices")?));
        }
    }
    let profile = StrategyProfile::from_links(n, &links).map_err(|e| e.to_string())?;
    let sparse = if sparse {
        let pv = v.get("params").ok_or("sparse snapshot needs 'params'")?;
        let field = |key: &str| {
            pv.get(key)
                .and_then(Value::as_usize)
                .ok_or(format!("params needs a non-negative integer {key:?}"))
        };
        Some(SparseParams {
            landmarks: field("landmarks")?,
            ball_cap: field("ball_cap")?,
            window: field("window")?,
            unreach_penalty: pv
                .get("unreach_penalty")
                .and_then(sp_json::decode_f64)
                .ok_or("params needs a numeric 'unreach_penalty'")?,
        })
    } else {
        None
    };
    // Marks are WAL record counts; far below 2^53, so the JSON number
    // round-trips exactly.
    let mark = v.get("wal_mark").and_then(Value::as_usize).unwrap_or(0) as u64;
    let session = GameSession::restore(game, SessionSnapshot { profile, sparse })
        .map_err(|e| e.to_string())?;
    Ok((session, mark))
}

/// Writes a session snapshot to `path` atomically (temp file + rename),
/// so a crash mid-spill never leaves a truncated snapshot behind. No
/// fsync — the non-WAL spill path, where durability is best-effort by
/// contract.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save(path: &Path, session: &mut GameSession) -> io::Result<()> {
    save_with_mark(path, session, 0, false)
}

/// [`save`], additionally recording the WAL compaction mark: the
/// session's WAL record count at the moment of the snapshot. Recovery
/// replays only WAL records *after* the mark, which is what makes the
/// crash window between "snapshot written" and "WAL truncated" safe —
/// records at or below the mark are already inside the snapshot, and
/// the mark says so.
///
/// Under `fsync` the snapshot is made *durable*, not just atomic: the
/// temp file is synced before the rename and the directory entry after
/// it. The WAL compaction that follows a spill truncates records the
/// snapshot claims to cover, so the snapshot must be on disk — not in
/// the page cache — before that truncation can happen; otherwise power
/// loss could keep the (durably renamed) truncated log while losing
/// the snapshot, making acknowledged records at or below the mark
/// unrecoverable.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_with_mark(
    path: &Path,
    session: &mut GameSession,
    mark: u64,
    fsync: bool,
) -> io::Result<()> {
    save_counted(path, session, mark, fsync).map(drop)
}

/// [`save_with_mark`], returning the number of bytes the file holds.
///
/// # Errors
///
/// Propagates filesystem errors.
pub(crate) fn save_counted(
    path: &Path,
    session: &mut GameSession,
    mark: u64,
    fsync: bool,
) -> io::Result<usize> {
    let bytes = encode(session, mark);
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        if fsync {
            f.sync_data()?;
        }
    }
    fs::rename(&tmp, path)?;
    if fsync {
        crate::wal::sync_parent_dir(path)?;
    }
    Ok(bytes.len())
}

/// Reads a session snapshot from `path`.
///
/// # Errors
///
/// Propagates filesystem errors; malformed content surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn load(path: &Path) -> io::Result<GameSession> {
    Ok(load_with_mark(path)?.0)
}

/// [`load`], also returning the WAL compaction mark recorded by
/// [`save_with_mark`] (0 when absent — every pre-WAL snapshot).
///
/// # Errors
///
/// Propagates filesystem errors; malformed content surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn load_with_mark(path: &Path) -> io::Result<(GameSession, u64)> {
    decode(&fs::read(path)?).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::{BackendMode, BestResponseMethod, Move, PeerId};
    use sp_metric::LineSpace;

    fn warmed_session() -> GameSession {
        let game =
            Game::from_space(&LineSpace::new(vec![0.0, 1.0, 3.0, 4.5, 9.0]).unwrap(), 1.5).unwrap();
        let profile =
            StrategyProfile::from_links(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 0)])
                .unwrap();
        let mut s = GameSession::new(game, profile).unwrap();
        let _ = s.social_cost();
        let _ = s.best_response(PeerId::new(2), BestResponseMethod::Greedy);
        s.apply(Move::AddLink {
            from: PeerId::new(0),
            to: PeerId::new(3),
        })
        .unwrap();
        let _ = s.peer_cost(PeerId::new(4));
        s
    }

    #[test]
    fn value_roundtrip_is_bit_identical() {
        let mut s = warmed_session();
        let bytes = encode(&mut s, 7);
        assert_eq!(s.stats().snapshot_exports, 1);
        // Matrix plus a few bytes of header, profile and checksum.
        assert!(bytes.len() < 25 * 8 + 40, "{} bytes", bytes.len());
        let (mut restored, mark) = decode(&bytes).unwrap();
        assert_eq!(mark, 7);
        assert_eq!(restored.snapshot(), s.snapshot());
        assert_eq!(restored.game(), s.game());
        assert_eq!(
            restored.social_cost().total().to_bits(),
            s.social_cost().total().to_bits()
        );
        assert_eq!(restored.stats().snapshot_restores, 1);
        // Equal sessions encode to equal bytes.
        assert_eq!(encode(&mut restored, 7), bytes);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sp-serve-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let mut s = warmed_session();
        save_with_mark(&path, &mut s, 3, false).unwrap();
        let (back, mark) = load_with_mark(&path).unwrap();
        assert_eq!(back.profile(), s.profile());
        assert_eq!(mark, 3);
        assert_eq!(
            save_counted(&path, &mut s, 3, false).unwrap() as u64,
            fs::metadata(&path).unwrap().len()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_a_non_metric_matrix() {
        // Spill files whose matrix breaks d(0, 2) <= d(0, 1) + d(1, 2):
        // the cached oracles would read its rows as unsound lower bounds,
        // so restore refuses them, as WAL replay refuses the same `create`.
        let dir = std::env::temp_dir().join(format!("sp-serve-nonmetric-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let text = r#"{"format": "sp-serve/session-snapshot/v1", "alpha": 1.0,
            "matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
            "profile": [[1], [2], [0]], "overlay_rows": [], "residual_rows": []}"#;
        let metric = text.replace('5', "2");
        // The binary form of the same file, built from the metric one.
        fs::write(&path, &metric).unwrap();
        let mut s = load(&path).unwrap();
        let mut binary = encode(&mut s, 0);
        let at = binary
            .windows(8)
            .position(|w| w == 2.0f64.to_le_bytes())
            .unwrap();
        binary[at..at + 8].copy_from_slice(&5.0f64.to_le_bytes());
        let at = binary
            .windows(8)
            .rposition(|w| w == 2.0f64.to_le_bytes())
            .unwrap();
        binary[at..at + 8].copy_from_slice(&5.0f64.to_le_bytes());
        let end = binary.len() - 4;
        let crc = crc32(&binary[..end]);
        binary[end..].copy_from_slice(&crc.to_le_bytes());
        for bad in [text.as_bytes().to_vec(), binary] {
            fs::write(&path, bad).unwrap();
            let Err(err) = load(&path) else {
                panic!("a non-metric matrix must not restore");
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("not a metric"), "{err}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sparse_roundtrip_restores_mode_profile_and_params() {
        let positions: Vec<f64> = (0..40).map(|i| f64::from(i) * 1.25).collect();
        let game = Game::from_line_positions(positions, 0.8).unwrap();
        let mut s = GameSession::new_sparse(game, StrategyProfile::empty(40)).unwrap();
        s.apply(Move::AddLink {
            from: PeerId::new(0),
            to: PeerId::new(1),
        })
        .unwrap();
        s.apply(Move::AddLink {
            from: PeerId::new(1),
            to: PeerId::new(2),
        })
        .unwrap();
        let bytes = encode(&mut s, 0);
        assert!(
            bytes.len() < 40 * 8 + 100,
            "sparse snapshots must not carry a quadratic matrix"
        );
        let (mut back, _) = decode(&bytes).unwrap();
        assert_eq!(back.backend_mode(), BackendMode::Sparse);
        assert_eq!(back.profile(), s.profile());
        assert_eq!(back.sparse_params(), s.sparse_params());
        assert_eq!(back.game(), s.game());
        assert_eq!(
            back.social_cost().total().to_bits(),
            s.social_cost().total().to_bits()
        );
        assert_eq!(back.stats().snapshot_restores, 1);
    }

    #[test]
    fn rejects_foreign_and_malformed_values() {
        assert!(decode(br#"{ "format": "nope" }"#).is_err());
        assert!(decode(br#"{ "alpha": 1.0 }"#).is_err());
        assert!(decode(b"").is_err());
        assert!(decode(b"SPSNAP02").is_err());
        let mut s = warmed_session();
        let good = encode(&mut s, 0);
        // A flipped bit fails the checksum; so does a dropped byte.
        let mut bad = good.clone();
        bad[20] ^= 1;
        assert!(decode(&bad).unwrap_err().contains("checksum"));
        assert!(decode(&good[..good.len() - 1]).is_err());
        // A valid checksum over a malformed body still fails to decode.
        let mut bad = good[..good.len() - 4].to_vec();
        bad.push(0);
        let crc = crc32(&bad);
        bad.extend_from_slice(&crc.to_le_bytes());
        assert!(decode(&bad).unwrap_err().contains("trailing"));
    }
}
