//! End-to-end replay equivalence: a concurrent sp-serve under memory
//! pressure answers bit-identically to a single-threaded, no-eviction
//! reference executor — through **either codec and either I/O engine**.
//!
//! The two `acceptance_replay_*` tests are the acceptance gate: the
//! mixed 10k-request workload over 256 sessions runs against a live TCP
//! server with a 56 MiB registry budget — below the workload's
//! resident footprint, so the registry must continuously evict LRU
//! sessions to disk and restore them on their next request — across 8
//! closed-loop client connections and a multi-worker scheduler, once
//! over protocol 1 (JSON frames) and once over protocol 2 (compact
//! binary frames). Every one of the 10k responses must equal, bit for
//! bit, what the reference executor computes with every session
//! permanently resident (binary responses are decoded and re-encoded
//! through the shared JSON encoder for the comparison, which is exactly
//! the codec-equivalence claim).
//!
//! Every server here runs with **observability on** (quiet wall-clock
//! spans): the bit-identity assertions double as the proof that tracing
//! observes the pipeline without steering it — `--obs` must never
//! change a response byte, on either engine, through either codec.

use std::path::PathBuf;

use sp_json::Value;
use sp_serve::client::ServeClient;
use sp_serve::config::ServeConfig;
use sp_serve::obs::ObsConfig;
use sp_serve::server::{IoModel, Server};
use sp_serve::wire::{Request, ResultBody, SessionOp, PROTO_BINARY, PROTO_JSON};
use sp_serve::workload::{self, WorkloadConfig};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sp-serve-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_replay(
    tag: &str,
    cfg: &WorkloadConfig,
    budget: usize,
    workers: usize,
    clients: usize,
    io: IoModel,
    proto: u8,
) -> (
    Vec<Value>,
    Vec<Value>,
    sp_serve::registry::RegistryStats,
    usize,
) {
    let dir = test_dir(tag);
    let server = Server::start(
        ServeConfig::new()
            .workers(workers)
            .io(io)
            .memory_budget(budget)
            .spill_dir(dir.clone())
            .queue_capacity(32)
            .obs(ObsConfig {
                enabled: true,
                quiet: true,
                ..ObsConfig::default()
            }),
    )
    .expect("server starts");
    let addr = server.local_addr();

    let script = workload::build_script(cfg);
    let explicit_evicts = script
        .iter()
        .filter(|r| matches!(&r.request, Request::Session(s) if matches!(s.op, SessionOp::Evict)))
        .count();
    let outcome = workload::replay(addr, &script, clients, proto).expect("replay completes");
    let stats = server.registry().stats();

    // Protocol sanity: the registry-level ops answer inline (over a
    // fresh typed connection, whatever the replay spoke).
    let mut client = ServeClient::connect(addr, PROTO_JSON).expect("ping connection");
    assert_eq!(client.ping(), Ok(ResultBody::Pong));

    // Observability sanity: the replay's spans landed in the registry
    // and the tail is well-formed (monotone phase offsets).
    let metrics = client.metrics().expect("metrics answers with --obs on");
    let spans_completed = metrics
        .counters
        .iter()
        .find(|(name, _)| name == "obs.spans_completed")
        .map_or(0, |&(_, v)| v);
    // A conn thread finishes its span just *after* the response bytes
    // reach the client, so the final response per connection may still
    // be mid-finish when `metrics` answers — allow that much slack.
    let floor = (cfg.requests - clients) as u64;
    assert!(
        spans_completed >= floor,
        "every replayed request must complete a span: {spans_completed} < {floor}"
    );
    let tail = client.trace_tail(None, None).expect("trace_tail answers");
    assert!(!tail.is_empty(), "trace tail must hold recent spans");
    for span in &tail {
        let mut last = 0u64;
        for &off in &span.phases_ns {
            if off != 0 {
                assert!(off >= last, "phase offsets ran backwards: {span:?}");
                last = off;
            }
        }
        assert_eq!(
            span.total_ns, last,
            "total must be the last stamp: {span:?}"
        );
    }

    server.shutdown();
    let reference = workload::reference_responses(&script);
    let _ = std::fs::remove_dir_all(&dir);
    (outcome.responses, reference, stats, explicit_evicts)
}

fn assert_identical(served: &[Value], reference: &[Value]) {
    if let Err((k, s, r)) = workload::verify(served, reference) {
        panic!("response {k} diverged:\n  served:    {s}\n  reference: {r}");
    }
}

fn assert_quick_outcome(
    cfg: &WorkloadConfig,
    served: &[Value],
    reference: &[Value],
    stats: &sp_serve::registry::RegistryStats,
) {
    assert_eq!(served.len(), cfg.requests);
    assert!(
        served.iter().all(|r| r["ok"] == true),
        "quick workload must not produce errors"
    );
    assert_identical(served, reference);
    assert!(
        stats.sessions_evicted > 0,
        "evict ops must spill: {stats:?}"
    );
    assert!(
        stats.sessions_restored > 0,
        "spilled sessions must restore: {stats:?}"
    );
    assert_eq!(stats.requests_served, cfg.requests as u64);
}

/// Small smoke on the default (reactor) engine: generous budget
/// (explicit `evict` ops still force spill/restore cycles), several
/// workers and clients.
#[test]
fn quick_replay_is_bit_identical() {
    let cfg = WorkloadConfig::quick();
    let (served, reference, stats, _) =
        run_replay("quick", &cfg, 64 << 20, 4, 4, IoModel::Reactor, PROTO_JSON);
    assert_quick_outcome(&cfg, &served, &reference, &stats);
}

/// The same smoke over the negotiated binary protocol.
#[test]
fn quick_replay_is_bit_identical_over_binary() {
    let cfg = WorkloadConfig::quick();
    let (served, reference, stats, _) = run_replay(
        "quick-bin",
        &cfg,
        64 << 20,
        4,
        4,
        IoModel::Reactor,
        PROTO_BINARY,
    );
    assert_quick_outcome(&cfg, &served, &reference, &stats);
}

/// The same smoke on the portable thread-per-connection engine: both
/// I/O models must answer any request sequence identically.
#[test]
fn quick_replay_is_bit_identical_on_threaded_io() {
    let cfg = WorkloadConfig::quick();
    let (served, reference, stats, _) = run_replay(
        "quick-threaded",
        &cfg,
        64 << 20,
        4,
        4,
        IoModel::Threaded,
        PROTO_JSON,
    );
    assert_quick_outcome(&cfg, &served, &reference, &stats);
}

/// The acceptance gate's registry budget: below the workload's resident
/// footprint (about 68 MiB with every session resident), so LRU
/// pressure, not only the scripted `evict` ops, drives spills — about
/// 870 evictions against 582 scripted ones.
const ACCEPTANCE_BUDGET: usize = 56 << 20;

fn acceptance_replay(tag: &str, proto: u8) {
    let cfg = WorkloadConfig::acceptance();
    let (served, reference, stats, explicit_evicts) =
        run_replay(tag, &cfg, ACCEPTANCE_BUDGET, 4, 8, IoModel::Reactor, proto);
    assert_eq!(served.len(), 10_000);
    assert!(
        served.iter().all(|r| r["ok"] == true),
        "acceptance workload must not produce errors"
    );
    assert_identical(&served, &reference);

    // The budget — not just the scripted evict ops — must have driven
    // evictions: more spills than explicit requests proves LRU pressure.
    assert!(
        stats.sessions_evicted > explicit_evicts as u64,
        "expected budget-driven evictions beyond the {explicit_evicts} scripted ones: {stats:?}"
    );
    assert!(
        stats.sessions_restored as usize > explicit_evicts / 2,
        "evicted sessions must keep getting restored: {stats:?}"
    );
    // The last responses are sent *before* their workers' final
    // `enforce_budget` pass, so the post-replay reading may race a
    // transient overshoot of at most the few slots admitted since the
    // previous pass — allow one workers' worth of slots of slack.
    assert!(
        stats.resident_bytes <= ACCEPTANCE_BUDGET + (4 << 20),
        "registry ended far above budget: {stats:?}"
    );
    assert_eq!(stats.requests_served, 10_000);
}

/// The acceptance gate (see module docs) over protocol 1: 10k requests,
/// 256 sessions, 56 MiB budget, bit-identical to the no-eviction
/// reference.
#[test]
fn acceptance_replay_is_bit_identical_under_eviction() {
    acceptance_replay("acceptance", PROTO_JSON);
}

/// The acceptance gate again over protocol 2: the same 10k script
/// through the compact binary codec, still bit-identical.
#[test]
fn acceptance_replay_is_bit_identical_over_binary() {
    acceptance_replay("acceptance-bin", PROTO_BINARY);
}
