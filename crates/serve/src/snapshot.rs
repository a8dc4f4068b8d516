//! Session snapshot persistence: [`sp_core::GameSession`] ⇄ sp-json ⇄
//! file.
//!
//! A snapshot file is self-contained — it carries the game (latency
//! matrix plus `α`), the profile, and both warm cache tiers — so it
//! serves two roles:
//!
//! * **eviction spill**: the registry writes the file, drops the
//!   in-memory session, and the next request restores it transparently;
//! * **cold start**: a fresh server process (or the explicit `load` op)
//!   can resurrect a session nothing in memory remembers.
//!
//! The fidelity contract is *bit-identity*: every query on the restored
//! session answers with exactly the bits the source session would have
//! produced. Finite floats survive the text round trip because the
//! printer emits shortest-round-trip renderings; infinite overlay
//! distances (disconnected overlays are legal states) go through
//! [`sp_json::encode_f64`]. Row order in the file is deterministic, so
//! equal sessions produce byte-identical files.
//!
//! Dense format (`"format": "sp-serve/session-snapshot/v1"`):
//!
//! ```json
//! {
//!   "format": "sp-serve/session-snapshot/v1",
//!   "alpha": 2.0,
//!   "matrix": [[0.0, 1.5], [1.5, 0.0]],
//!   "profile": [[1], []],
//!   "overlay_rows": [[0, [0.0, 1.5]]],
//!   "residual_rows": [[0, 1, [ "inf", 0.0 ]]]
//! }
//! ```
//!
//! The matrix must be a metric: restore runs
//! [`Game::check_triangle_inequality`], as `create` does on a matrix
//! spec, and rejects a violation.
//!
//! Sparse sessions ([`sp_core::GameSession::new_sparse`]) use the v2
//! format: no matrix, no row tiers — the landmark sketch is cheap to
//! rebuild and is deliberately outside the bit-identity contract, so
//! the file carries only what reconstruction needs (geometry, profile,
//! tuning parameters). A 10⁵-peer sparse session spills kilobytes of
//! positions where a dense matrix would spill gigabytes:
//!
//! ```json
//! {
//!   "format": "sp-serve/session-snapshot/v2-sparse",
//!   "alpha": 2.0,
//!   "positions_1d": [0.0, 1.5, 4.0],
//!   "profile": [[1], [], []],
//!   "params": { "landmarks": 8, "ball_cap": 64, "window": 16,
//!               "unreach_penalty": 1000000.0 }
//! }
//! ```

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use sp_core::{BackendMode, Game, GameSession, SessionSnapshot, SparseParams, StrategyProfile};
use sp_graph::DistanceMatrix;
use sp_json::{decode_f64, encode_f64, Value};

/// The format tag of dense-session snapshot files.
pub const FORMAT: &str = "sp-serve/session-snapshot/v1";

/// The format tag of sparse-session snapshot files.
pub const FORMAT_V2_SPARSE: &str = "sp-serve/session-snapshot/v2-sparse";

fn profile_value(profile: &StrategyProfile) -> Value {
    Value::Array(
        profile
            .iter()
            .map(|(_, links)| Value::Array(links.iter().map(|t| Value::from(t.index())).collect()))
            .collect(),
    )
}

/// Serialises a session to a value: game + profile + warm cache tiers
/// for dense sessions (v1), geometry + profile + tuning parameters for
/// sparse ones (v2).
#[must_use]
pub fn session_to_value(session: &mut GameSession) -> Value {
    if session.backend_mode() == BackendMode::Sparse {
        return sparse_session_to_value(session);
    }
    let game = session.game_arc();
    let n = game.n();
    let matrix: Value = Value::Array(
        (0..n)
            .map(|i| Value::Array((0..n).map(|j| Value::Number(game.distance(i, j))).collect()))
            .collect(),
    );
    let snap = session.snapshot();
    let profile = profile_value(&snap.profile);
    let row_value = |row: &[f64]| Value::Array(row.iter().map(|&x| encode_f64(x)).collect());
    let overlay: Value = Value::Array(
        snap.overlay_rows
            .iter()
            .map(|(u, row)| Value::Array(vec![Value::from(*u), row_value(row)]))
            .collect(),
    );
    let residual: Value = Value::Array(
        snap.residual_rows
            .iter()
            .map(|(i, v, row)| Value::Array(vec![Value::from(*i), Value::from(*v), row_value(row)]))
            .collect(),
    );
    Value::Object(vec![
        ("format".to_owned(), Value::from(FORMAT)),
        ("alpha".to_owned(), Value::Number(game.alpha())),
        ("matrix".to_owned(), matrix),
        ("profile".to_owned(), profile),
        ("overlay_rows".to_owned(), overlay),
        ("residual_rows".to_owned(), residual),
    ])
}

/// The v2 body: geometry, profile, and [`SparseParams`] — everything a
/// [`GameSession::restore_sparse`] needs, nothing quadratic. Sparse
/// sessions built over a dense matrix store (possible through the core
/// API, not through the service spec) fall back to persisting the
/// matrix so the file stays self-contained.
fn sparse_session_to_value(session: &mut GameSession) -> Value {
    let game = session.game_arc();
    let profile = profile_value(&session.snapshot().profile);
    let params = session.sparse_params().unwrap_or_default();
    let geometry = match game.line_positions() {
        Some(pos) => (
            "positions_1d".to_owned(),
            Value::Array(pos.iter().map(|&x| Value::Number(x)).collect()),
        ),
        None => {
            let n = game.n();
            (
                "matrix".to_owned(),
                Value::Array(
                    (0..n)
                        .map(|i| {
                            Value::Array(
                                (0..n).map(|j| Value::Number(game.distance(i, j))).collect(),
                            )
                        })
                        .collect(),
                ),
            )
        }
    };
    Value::Object(vec![
        ("format".to_owned(), Value::from(FORMAT_V2_SPARSE)),
        ("alpha".to_owned(), Value::Number(game.alpha())),
        geometry,
        ("profile".to_owned(), profile),
        (
            "params".to_owned(),
            Value::Object(vec![
                ("landmarks".to_owned(), Value::from(params.landmarks)),
                ("ball_cap".to_owned(), Value::from(params.ball_cap)),
                ("window".to_owned(), Value::from(params.window)),
                (
                    "unreach_penalty".to_owned(),
                    encode_f64(params.unreach_penalty),
                ),
            ]),
        ),
    ])
}

fn decode_row(v: &Value, what: &str) -> Result<Vec<f64>, String> {
    v.as_array()
        .ok_or_else(|| format!("{what} must be an array"))?
        .iter()
        .map(|x| decode_f64(x).ok_or_else(|| format!("{what} holds a non-distance entry")))
        .collect()
}

/// Rebuilds a session from a value produced by [`session_to_value`],
/// dispatching on the format tag (v1 dense, v2 sparse).
///
/// # Errors
///
/// Returns a human-readable message on a missing/mismatched format tag,
/// malformed fields, or a snapshot [`sp_core::GameSession::restore`]
/// rejects as inconsistent.
pub fn session_from_value(v: &Value) -> Result<GameSession, String> {
    match v.get("format").and_then(Value::as_str) {
        Some(f) if f == FORMAT => dense_session_from_value(v),
        Some(f) if f == FORMAT_V2_SPARSE => sparse_session_from_value(v),
        Some(f) => Err(format!("unsupported snapshot format {f:?}")),
        None => Err("snapshot is missing its format tag".to_owned()),
    }
}

fn parse_alpha(v: &Value) -> Result<f64, String> {
    v.get("alpha")
        .and_then(Value::as_f64)
        .ok_or_else(|| "snapshot needs a numeric 'alpha'".to_owned())
}

fn parse_matrix_game(v: &Value, alpha: f64) -> Result<Game, String> {
    let rows = v
        .get("matrix")
        .and_then(Value::as_array)
        .ok_or("snapshot needs a 'matrix' array")?;
    let n = rows.len();
    // sp-lint: allow(dense-alloc, reason = "decoding the explicitly dense v1 matrix wire format; sparse snapshots take the v2 positions path")
    let mut flat = Vec::with_capacity(n * n);
    for row in rows {
        let r = row.as_array().ok_or("matrix rows must be arrays")?;
        if r.len() != n {
            return Err("matrix must be square".to_owned());
        }
        for x in r {
            flat.push(x.as_f64().ok_or("matrix entries must be numbers")?);
        }
    }
    let matrix = DistanceMatrix::from_row_major(n, flat).map_err(|e| e.to_string())?;
    let game = Game::new(matrix, alpha).map_err(|e| e.to_string())?;
    // The cached oracles read metric rows as certified lower bounds, so a
    // restored matrix must be a metric, as `create` requires of a spec.
    game.check_triangle_inequality()
        .map_err(|e| format!("snapshot matrix is not a metric: {e}"))?;
    Ok(game)
}

fn parse_profile(v: &Value, n: usize) -> Result<StrategyProfile, String> {
    let strategies = v
        .get("profile")
        .and_then(Value::as_array)
        .ok_or("snapshot needs a 'profile' array")?;
    if strategies.len() != n {
        return Err(format!(
            "profile has {} strategies for {n} peers",
            strategies.len()
        ));
    }
    let mut links: Vec<(usize, usize)> = Vec::new();
    for (i, s) in strategies.iter().enumerate() {
        for t in s.as_array().ok_or("profile strategies must be arrays")? {
            links.push((i, t.as_usize().ok_or("profile links must be peer indices")?));
        }
    }
    StrategyProfile::from_links(n, &links).map_err(|e| e.to_string())
}

fn dense_session_from_value(v: &Value) -> Result<GameSession, String> {
    let alpha = parse_alpha(v)?;
    let game = parse_matrix_game(v, alpha)?;
    let n = game.n();
    let profile = parse_profile(v, n)?;

    let mut overlay_rows: Vec<(usize, Vec<f64>)> = Vec::new();
    for entry in v
        .get("overlay_rows")
        .and_then(Value::as_array)
        .ok_or("snapshot needs an 'overlay_rows' array")?
    {
        let [src, row] = entry
            .as_array()
            .ok_or("overlay_rows entries must be [source, row] pairs")?
        else {
            return Err("overlay_rows entries must be [source, row] pairs".to_owned());
        };
        let u = src
            .as_usize()
            .ok_or("overlay row source must be an index")?;
        overlay_rows.push((u, decode_row(row, "overlay row")?));
    }
    let mut residual_rows: Vec<(usize, usize, Vec<f64>)> = Vec::new();
    for entry in v
        .get("residual_rows")
        .and_then(Value::as_array)
        .ok_or("snapshot needs a 'residual_rows' array")?
    {
        let [excluded, src, row] = entry
            .as_array()
            .ok_or("residual_rows entries must be [excluded, source, row] triples")?
        else {
            return Err("residual_rows entries must be [excluded, source, row] triples".to_owned());
        };
        let i = excluded
            .as_usize()
            .ok_or("residual excluded peer must be an index")?;
        let s = src.as_usize().ok_or("residual source must be an index")?;
        residual_rows.push((i, s, decode_row(row, "residual row")?));
    }

    GameSession::restore(
        game,
        SessionSnapshot {
            profile,
            overlay_rows,
            residual_rows,
        },
    )
    .map_err(|e| e.to_string())
}

fn sparse_session_from_value(v: &Value) -> Result<GameSession, String> {
    let alpha = parse_alpha(v)?;
    let game = match v.get("positions_1d").filter(|p| !p.is_null()) {
        Some(p) => {
            let positions = p
                .as_array()
                .ok_or("positions_1d must be an array")?
                .iter()
                .map(|x| x.as_f64().ok_or("positions_1d entries must be numbers"))
                .collect::<Result<Vec<f64>, _>>()?;
            Game::from_line_positions(positions, alpha).map_err(|e| e.to_string())?
        }
        None => parse_matrix_game(v, alpha)?,
    };
    let profile = parse_profile(v, game.n())?;
    let pv = v.get("params").ok_or("sparse snapshot needs 'params'")?;
    let field = |key: &str| {
        pv.get(key)
            .and_then(Value::as_usize)
            .ok_or_else(|| format!("params needs a non-negative integer {key:?}"))
    };
    let params = SparseParams {
        landmarks: field("landmarks")?,
        ball_cap: field("ball_cap")?,
        window: field("window")?,
        unreach_penalty: pv
            .get("unreach_penalty")
            .and_then(decode_f64)
            .ok_or("params needs a numeric 'unreach_penalty'")?,
    };
    GameSession::restore_sparse(game, profile, params).map_err(|e| e.to_string())
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
/// the mark says so. A zero mark is omitted from the file (byte-for-
/// byte the historical format, which non-WAL deployments still write).
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
    let mut value = session_to_value(session);
    if mark > 0 {
        if let Value::Object(fields) = &mut value {
            fields.push(("wal_mark".to_owned(), Value::Number(mark as f64)));
        }
    }
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(value.to_string_compact().as_bytes())?;
        if fsync {
            f.sync_data()?;
        }
    }
    fs::rename(&tmp, path)?;
    if fsync {
        crate::wal::sync_parent_dir(path)?;
    }
    Ok(())
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
    let text = fs::read_to_string(path)?;
    let value: Value = text
        .parse()
        .map_err(|e: sp_json::JsonError| io::Error::new(io::ErrorKind::InvalidData, e))?;
    // Marks are WAL record counts; far below 2^53, so the JSON number
    // round-trips exactly.
    let mark = value.get("wal_mark").and_then(Value::as_usize).unwrap_or(0) as u64;
    let session =
        session_from_value(&value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok((session, mark))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::{BestResponseMethod, Move, PeerId};
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
        let snap_before = s.snapshot();
        let v = session_to_value(&mut s);
        // Through the full text pipeline, as the spill path does.
        let text = v.to_string_compact();
        let mut restored = session_from_value(&text.parse().unwrap()).unwrap();
        assert_eq!(restored.snapshot(), snap_before);
        assert_eq!(restored.profile(), s.profile());
        assert_eq!(restored.game(), s.game());
        // And queries agree bitwise.
        assert_eq!(
            restored.social_cost().total().to_bits(),
            s.social_cost().total().to_bits()
        );
        assert_eq!(restored.stats().snapshot_restores, 1);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sp-serve-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let mut s = warmed_session();
        save(&path, &mut s).unwrap();
        let mut back = load(&path).unwrap();
        assert_eq!(back.profile(), s.profile());
        assert_eq!(back.snapshot().overlay_rows, s.snapshot().overlay_rows);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_a_non_metric_matrix() {
        // A spill file whose matrix breaks d(0, 2) <= d(0, 1) + d(1, 2):
        // the cached oracles would read its rows as unsound lower bounds,
        // so restore refuses it, as WAL replay refuses the same `create`.
        let dir = std::env::temp_dir().join(format!("sp-serve-nonmetric-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let text = r#"{"format": "sp-serve/session-snapshot/v1", "alpha": 1.0,
            "matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
            "profile": [[1], [2], [0]], "overlay_rows": [], "residual_rows": []}"#;
        fs::write(&path, text).unwrap();
        let Err(err) = load(&path) else {
            panic!("a non-metric matrix must not restore");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not a metric"), "{err}");
        // The same file with a metric matrix restores.
        fs::write(&path, text.replace('5', "2")).unwrap();
        assert!(load(&path).is_ok());
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
        let v = session_to_value(&mut s);
        assert_eq!(
            v.get("format").and_then(Value::as_str),
            Some(FORMAT_V2_SPARSE)
        );
        assert!(
            v.get("matrix").is_none(),
            "sparse snapshots must not carry a quadratic matrix"
        );
        let text = v.to_string_compact();
        let mut back = session_from_value(&text.parse().unwrap()).unwrap();
        assert_eq!(back.backend_mode(), sp_core::BackendMode::Sparse);
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
        assert!(session_from_value(&sp_json::json!({ "format": "nope" })).is_err());
        assert!(session_from_value(&sp_json::json!({ "alpha": 1.0 })).is_err());
        let mut s = warmed_session();
        let good = session_to_value(&mut s);
        // Corrupt one overlay row length.
        let mut bad = good.clone();
        if let Value::Object(fields) = &mut bad {
            for (k, v) in fields.iter_mut() {
                if k == "overlay_rows" {
                    if let Value::Array(rows) = v {
                        if let Some(Value::Array(pair)) = rows.first_mut() {
                            pair[1] = Value::Array(vec![Value::Number(1.0)]);
                        }
                    }
                }
            }
        }
        assert!(session_from_value(&bad).is_err());
    }
}
