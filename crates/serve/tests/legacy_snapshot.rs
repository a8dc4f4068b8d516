//! Spill directories written in the legacy JSON snapshot format still
//! recover.
//!
//! `tests/fixtures/legacy/` holds two sessions exactly as the JSON
//! snapshot writer left them: `legacy-dense` (a v1 file, with its cached
//! overlay and residual rows) and `legacy-sparse` (a v2 file), each
//! spilled by an `evict` under the WAL and then mutated further, so its
//! log carries a tail past the snapshot mark. The script is below
//! ([`dense_spec`], [`sparse_spec`], [`BEFORE_SPILL`], [`AFTER_SPILL`]);
//! the files were produced by running it against a registry with
//! `Durability::Wal` and shutting down without a final spill.
//!
//! Registry startup must recover both sessions from snapshot + WAL
//! tail, every query must answer bit-identically to a fresh session
//! built from the same game and final profile, and the audit chain must
//! verify. A v1 file whose matrix breaks the triangle inequality must
//! still be refused with `InvalidData`.

use std::fs;
use std::path::{Path, PathBuf};

use sp_core::{BackendMode, BestResponseMethod, GameSession, LinkSet, Move, PeerId};
use sp_serve::config::Durability;
use sp_serve::registry::{RegistryConfig, SessionRegistry};
use sp_serve::wire::{binary, GameSpec, Geometry, Response, ResultBody, SessionOp, SessionRequest};
use sp_serve::{ops, snapshot, spec};

const SESSIONS: [&str; 2] = ["legacy-dense", "legacy-sparse"];

/// Eight peers in the plane, spilled as a v1 dense snapshot.
fn dense_spec() -> GameSpec {
    GameSpec {
        alpha: 1.5,
        geometry: Geometry::Points2D(vec![
            (0.0, 0.0),
            (1.0, 0.5),
            (2.5, 0.0),
            (3.0, 2.0),
            (1.5, 3.0),
            (0.0, 2.0),
            (4.0, 4.0),
            (2.0, 1.5),
        ]),
        links: vec![
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 0),
        ],
        mode: BackendMode::Dense,
    }
}

/// Twelve peers on a line, spilled as a v2 sparse snapshot.
fn sparse_spec() -> GameSpec {
    GameSpec {
        alpha: 0.8,
        geometry: Geometry::Line(vec![
            0.0, 1.0, 2.5, 3.0, 4.75, 6.0, 7.5, 8.0, 9.25, 11.0, 12.5, 13.0,
        ]),
        links: vec![(0, 1), (1, 2), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)],
        mode: BackendMode::Sparse,
    }
}

fn add(from: usize, to: usize) -> Move {
    Move::AddLink {
        from: PeerId::new(from),
        to: PeerId::new(to),
    }
}

/// Moves applied (with queries warming the caches) before the `evict`
/// that wrote the snapshot file.
const BEFORE_SPILL: [(usize, usize); 2] = [(0, 3), (2, 5)];

/// Moves applied after the spill: the WAL tail recovery must replay.
const AFTER_SPILL: [(usize, usize); 2] = [(4, 7), (6, 1)];

/// The last tail record replaces one peer's whole strategy.
fn final_move() -> Move {
    Move::SetStrategy {
        peer: PeerId::new(5),
        links: [0, 2].into_iter().map(PeerId::new).collect::<LinkSet>(),
    }
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy")
}

/// Copies the fixtures into a scratch directory (recovery rewrites the
/// logs it opens).
fn scratch_copy(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sp-serve-legacy-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    for entry in fs::read_dir(fixture_dir()).unwrap() {
        let path = entry.unwrap().path();
        fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    dir
}

fn wal_config(dir: &Path) -> RegistryConfig {
    RegistryConfig {
        spill_dir: dir.to_path_buf(),
        durability: Durability::Wal {
            group_commit: 1,
            fsync: false,
        },
        ..RegistryConfig::default()
    }
}

fn call(registry: &SessionRegistry, session: &str, op: SessionOp) -> Response {
    registry
        .submit(SessionRequest {
            id: None,
            session: session.to_owned(),
            op,
        })
        .expect("accepted")
        .recv()
        .expect("answered")
}

/// A fresh, cold session over the spec's game and the profile the whole
/// script leaves behind.
fn fresh_session(spec: &GameSpec) -> GameSession {
    let (game, profile) = spec::build(spec).unwrap();
    let mut walk = GameSession::new(game.clone(), profile).unwrap();
    for &(from, to) in BEFORE_SPILL.iter().chain(&AFTER_SPILL) {
        walk.apply(add(from, to)).unwrap();
    }
    walk.apply(final_move()).unwrap();
    let mut fresh = match spec.mode {
        BackendMode::Dense => GameSession::new(game, walk.profile().clone()),
        BackendMode::Sparse => GameSession::new_sparse(game, walk.profile().clone()),
    }
    .unwrap();
    ops::tune_for_service(&mut fresh);
    fresh
}

fn queries(n: usize) -> Vec<SessionOp> {
    let mut list = vec![
        SessionOp::SocialCost,
        SessionOp::Stretch,
        SessionOp::NashGap {
            method: BestResponseMethod::Greedy,
        },
    ];
    for i in 0..n {
        for method in [BestResponseMethod::Greedy, BestResponseMethod::LocalSearch] {
            list.push(SessionOp::BestResponse {
                peer: PeerId::new(i),
                method,
            });
        }
    }
    list
}

#[test]
fn legacy_spill_files_recover_bit_identically() {
    let dir = scratch_copy("ok");
    let registry = SessionRegistry::new(wal_config(&dir)).expect("legacy directory recovers");
    let stats = registry.stats();
    assert_eq!(stats.sessions_restored, 2, "both snapshots load: {stats:?}");
    // Each tail past the mark: the `evict` itself, AFTER_SPILL, and
    // the final move.
    assert_eq!(
        stats.wal_replays,
        2 * (AFTER_SPILL.len() as u64 + 2),
        "each log replays its tail past the mark"
    );
    let workers = registry.spawn_workers(1);
    for (name, spec) in SESSIONS.into_iter().zip([dense_spec(), sparse_spec()]) {
        let mut fresh = fresh_session(&spec);
        for op in queries(fresh.n()) {
            let expected = Response::ok(None, ops::execute_query(&op, &mut fresh).unwrap());
            let served = call(&registry, name, op.clone());
            assert_eq!(
                binary::encode_response(&served),
                binary::encode_response(&expected),
                "{name}: {op:?} answered {served:?}, a fresh session {expected:?}"
            );
        }
        match call(&registry, name, SessionOp::WalVerify).outcome {
            Ok(ResultBody::WalVerified { .. }) => {}
            other => panic!("{name}: wal_verify must pass, got {other:?}"),
        }
        // The replayed tail dirtied the session, so its next spill
        // replaces the legacy file with the binary format, which
        // restores to the same answers.
        call(&registry, name, SessionOp::Evict);
        let tag = sp_graph::fnv1a(name.as_bytes());
        let file = fs::read(dir.join(format!("{name}-{tag:016x}.json"))).unwrap();
        assert!(file.starts_with(snapshot::MAGIC), "{name} was rewritten");
        let expected = ops::execute_query(&SessionOp::SocialCost, &mut fresh).unwrap();
        assert_eq!(
            call(&registry, name, SessionOp::SocialCost).outcome,
            Ok(expected)
        );
    }
    registry.shutdown();
    for w in workers {
        w.join().expect("worker joins");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_legacy_non_metric_matrix_is_refused() {
    let dir = scratch_copy("nonmetric");
    let tag = sp_graph::fnv1a(b"legacy-dense");
    let path = dir.join(format!("legacy-dense-{tag:016x}.json"));
    // Stretch d(0, 1) far past d(0, 2) + d(2, 1), keeping it symmetric.
    let text = fs::read_to_string(&path).unwrap();
    let mut value: sp_json::Value = text.parse().unwrap();
    let sp_json::Value::Object(fields) = &mut value else {
        panic!("a v1 snapshot is a JSON object");
    };
    let (_, matrix) = fields.iter_mut().find(|(k, _)| k == "matrix").unwrap();
    let sp_json::Value::Array(rows) = matrix else {
        panic!("the v1 matrix is an array");
    };
    for (i, j) in [(0, 1), (1, 0)] {
        let sp_json::Value::Array(row) = &mut rows[i] else {
            panic!("matrix rows are arrays");
        };
        row[j] = sp_json::Value::Number(1000.0);
    }
    fs::write(&path, value.to_string_compact()).unwrap();
    let Err(err) = SessionRegistry::new(wal_config(&dir)) else {
        panic!("a non-metric legacy matrix must not recover");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("not a metric"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}
