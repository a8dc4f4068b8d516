//! Wire-level observability: the `metrics` and `trace_tail` ops, the
//! obs-off refusal path, and the work-counter carry across eviction.
//!
//! The carry test is the regression gate for a real bug: before
//! `EntryState::carried`, evicting a session threw away its resident
//! [`sp_core::SessionStats`] — a restore came back with fresh counters
//! (`snapshot_restores = 1`, everything else 0), so `metrics` silently
//! under-reported all work done before the eviction. The server now
//! banks a departing incarnation's stats at both eviction sites (the
//! explicit `evict` op and the budget enforcer) and reports
//! carried + resident.

use std::path::PathBuf;

use sp_core::{BackendMode, BestResponseMethod, Move, PeerId};
use sp_serve::client::ServeClient;
use sp_serve::config::ServeConfig;
use sp_serve::obs::ObsConfig;
use sp_serve::server::{IoModel, Server};
use sp_serve::wire::{ErrorCode, GameSpec, Geometry, MetricsBody, PROTO_BINARY, PROTO_JSON};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sp-serve-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The small 4-peer line game the registry tests use.
fn spec() -> GameSpec {
    GameSpec {
        alpha: 1.0,
        geometry: Geometry::Line(vec![0.0, 1.0, 3.0, 4.0]),
        links: vec![(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)],
        mode: BackendMode::Dense,
    }
}

fn obs_server(tag: &str, io: IoModel) -> (Server, PathBuf) {
    let dir = test_dir(tag);
    let server = Server::start(
        ServeConfig::new()
            .workers(1)
            .io(io)
            .spill_dir(dir.clone())
            .obs(ObsConfig {
                enabled: true,
                quiet: true,
                ..ObsConfig::default()
            }),
    )
    .expect("server starts");
    (server, dir)
}

fn counter(m: &MetricsBody, name: &str) -> u64 {
    m.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// Without `--obs`, both observability ops refuse with a typed
/// `bad_request` — not a hang, not a protocol error.
#[test]
fn metrics_and_trace_tail_require_obs() {
    let dir = test_dir("off");
    let server =
        Server::start(ServeConfig::new().workers(1).spill_dir(dir.clone())).expect("server starts");
    let mut client = ServeClient::connect(server.local_addr(), PROTO_JSON).expect("connect");
    let err = client.metrics().expect_err("metrics must refuse");
    assert_eq!(err.code, ErrorCode::BadRequest);
    let err = client
        .trace_tail(None, None)
        .expect_err("trace_tail must refuse");
    assert_eq!(err.code, ErrorCode::BadRequest);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `work.nash_peers_pruned` reports the peers a certified `nash_gap`
/// scan never solved: on the empty profile every peer's improvement is
/// infinite, so the first peer settles the gap and the other three are
/// ruled out.
#[test]
fn nash_gap_pruning_is_a_work_counter() {
    let (server, dir) = obs_server("pruned", IoModel::Threaded);
    let mut client = ServeClient::connect(server.local_addr(), PROTO_JSON).expect("connect");
    let empty = GameSpec {
        links: Vec::new(),
        ..spec()
    };
    client.create("gap", empty).expect("create");
    client
        .nash_gap("gap", BestResponseMethod::Greedy)
        .expect("nash_gap");
    let m = client.metrics().expect("metrics");
    assert_eq!(counter(&m, "work.nash_peers_pruned"), 3, "{m:?}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The regression gate (see module docs): `work.*` counters must not
/// reset across evict → restore, and must not double-count either.
#[test]
fn work_counters_survive_evict_and_restore() {
    let (server, dir) = obs_server("carry", IoModel::Threaded);
    let mut client = ServeClient::connect(server.local_addr(), PROTO_JSON).expect("connect");

    client.create("carry", spec()).expect("create");
    client
        .apply_batch(
            "carry",
            vec![
                Move::AddLink {
                    from: PeerId::new(0),
                    to: PeerId::new(2),
                },
                Move::AddLink {
                    from: PeerId::new(3),
                    to: PeerId::new(1),
                },
            ],
        )
        .expect("apply_batch");

    let before = client.metrics().expect("metrics");
    let batches = counter(&before, "work.batch_applies");
    assert!(batches >= 1, "batch must be counted: {before:?}");

    // Evict: the resident incarnation (and its counters) leaves memory.
    client.evict("carry").expect("evict");
    let evicted = client.metrics().expect("metrics after evict");
    assert_eq!(
        counter(&evicted, "work.batch_applies"),
        batches,
        "eviction must not lose work counters"
    );
    assert!(counter(&evicted, "work.snapshot_exports") >= 1);
    assert!(counter(&evicted, "obs.sessions_evicted") >= 1);

    // Touch the session: transparent restore from the spill file.
    client
        .social_cost("carry")
        .expect("restore via social_cost");
    let restored = client.metrics().expect("metrics after restore");
    assert_eq!(
        counter(&restored, "work.batch_applies"),
        batches,
        "restore must neither lose nor double-count carried work"
    );
    assert!(counter(&restored, "work.snapshot_restores") >= 1);
    assert!(counter(&restored, "obs.sessions_restored") >= 1);

    // A second evict/restore round stays exact: the carry merges once
    // per departure, never once per report. The session is clean after
    // the restore, so the second evict reuses the spill file rather
    // than re-exporting — exports stay at 1 while restores reach 2.
    client.evict("carry").expect("second evict");
    client.social_cost("carry").expect("second restore");
    let again = client.metrics().expect("metrics after second round");
    assert_eq!(counter(&again, "work.batch_applies"), batches);
    assert_eq!(counter(&again, "work.snapshot_exports"), 1);
    assert!(counter(&again, "work.snapshot_restores") >= 2);
    assert!(counter(&again, "obs.sessions_evicted") >= 2);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `metrics` and `trace_tail` speak both codecs, and the tail reflects
/// completed requests with well-formed per-phase offsets and real op
/// names. Requests on one connection are strictly sequential, so every
/// earlier request's span has finished by the time the tail is read.
#[test]
fn trace_tail_reports_completed_spans_over_binary() {
    let (server, dir) = obs_server("tail", IoModel::Reactor);
    let mut client = ServeClient::connect(server.local_addr(), PROTO_BINARY).expect("connect");

    client.create("traced", spec()).expect("create");
    for _ in 0..3 {
        client.social_cost("traced").expect("social_cost");
    }

    let metrics = client.metrics().expect("metrics over binary");
    assert!(counter(&metrics, "obs.spans_completed") >= 4);
    assert!(
        metrics
            .histograms
            .iter()
            .any(|h| h.name.starts_with("op.") && h.count > 0),
        "per-op latency histograms must fill: {metrics:?}"
    );

    let tail = client.trace_tail(Some(4), None).expect("trace_tail");
    assert!(
        !tail.is_empty() && tail.len() <= 4,
        "tail len: {}",
        tail.len()
    );
    for span in &tail {
        assert!(!span.op.is_empty(), "op tag must name the opcode");
        let mut last = 0u64;
        for &off in &span.phases_ns {
            if off != 0 {
                assert!(off >= last, "phase offsets ran backwards: {span:?}");
                last = off;
            }
        }
        assert_eq!(span.total_ns, last, "total is the last stamped offset");
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
