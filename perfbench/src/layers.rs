//! Per-layer probes: calls into each layer's public functions, timed
//! from outside inside benchmark spans, plus the layers' own counters.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

use sp_core::{Game, GameSession, SessionStats, StrategyProfile};
use sp_graph::{CsrGraph, DijkstraScratch};
use sp_serve::wal::SessionWal;
use sp_serve::wire::{Codec, Request, Response, ResultBody, SessionOp};
use sp_serve::workload::ScriptRequest;
use sp_serve::{ops, snapshot};

use crate::report::Report;
use crate::stats::{median, ratio};
use crate::trace::Tracer;

/// Most requests a probe pass replays (besides the time cap): plenty
/// for per-layer medians, and it keeps the spans file small.
pub const PROBE_REQUESTS: usize = 20_000;

/// Request classes the metrics are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `apply`, `apply_batch`.
    Mutate,
    /// `social_cost`, `stretch`.
    Read,
    BestResponse,
    /// `nash_gap`, `run_dynamics`.
    Heavy,
    /// `snapshot`, `evict`, `load`.
    Lifecycle,
    Create,
    Other,
}

impl Class {
    /// The classes a served mix reports.
    pub const SERVED: [Class; 5] = [
        Class::Mutate,
        Class::Read,
        Class::BestResponse,
        Class::Heavy,
        Class::Lifecycle,
    ];

    pub fn of_op(op: &SessionOp) -> Class {
        match op {
            SessionOp::Apply { .. } | SessionOp::ApplyBatch { .. } => Class::Mutate,
            SessionOp::SocialCost | SessionOp::Stretch => Class::Read,
            SessionOp::BestResponse { .. } => Class::BestResponse,
            SessionOp::NashGap { .. } | SessionOp::RunDynamics(_) => Class::Heavy,
            SessionOp::Snapshot | SessionOp::Evict | SessionOp::Load => Class::Lifecycle,
            SessionOp::Create(_) => Class::Create,
            _ => Class::Other,
        }
    }

    pub fn of_request(r: &Request) -> Class {
        match r {
            Request::Session(s) => Class::of_op(&s.op),
            _ => Class::Other,
        }
    }

    /// The class of a wire op name (as `trace_tail` spans carry it).
    pub fn of_op_name(name: &str) -> Option<Class> {
        Some(match name {
            "apply" | "apply_batch" => Class::Mutate,
            "social_cost" | "stretch" => Class::Read,
            "best_response" => Class::BestResponse,
            "nash_gap" | "run_dynamics" => Class::Heavy,
            "snapshot" | "evict" | "load" => Class::Lifecycle,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::Mutate => "mutate",
            Class::Read => "read",
            Class::BestResponse => "best_response",
            Class::Heavy => "heavy",
            Class::Lifecycle => "lifecycle",
            Class::Create => "create",
            Class::Other => "other",
        }
    }

    /// `mutate ∪ read ∪ best_response`.
    pub fn is_interactive(self) -> bool {
        matches!(self, Class::Mutate | Class::Read | Class::BestResponse)
    }

    /// Span name of an in-process `respond_request` call.
    pub fn inproc_span(self) -> &'static str {
        match self {
            Class::Mutate => "registry.respond.mutate",
            Class::Read => "registry.respond.read",
            Class::BestResponse => "registry.respond.best_response",
            Class::Heavy => "registry.respond.heavy",
            Class::Lifecycle => "registry.respond.lifecycle",
            Class::Create => "registry.respond.create",
            Class::Other => "registry.respond.other",
        }
    }

    /// Span name of an `ops::execute_query` call.
    pub fn exec_span(self) -> &'static str {
        match self {
            Class::Mutate => "session.exec.mutate",
            Class::Read => "session.exec.read",
            Class::BestResponse => "session.exec.best_response",
            Class::Heavy => "session.exec.heavy",
            Class::Lifecycle => "session.exec.lifecycle",
            Class::Create => "session.exec.create",
            Class::Other => "session.exec.other",
        }
    }
}

/// Full single-source sweeps a session paid: cache fills plus oracle
/// candidate sweeps of both engines.
pub fn sweeps(s: &SessionStats) -> usize {
    s.full_sssp + s.seq_oracle_swept + s.oracle_rows_swept
}

/// `graph.*`, `oracle.*` and `session.*` counters from `SessionStats`.
pub fn work_counters(w: &SessionStats, report: &mut Report) {
    let f = |x: usize| x as f64;
    report.set("graph.sssp_rows", "count", f(sweeps(w)));
    report.set("graph.relaxations", "count", f(w.incremental_relaxations));
    report.set("oracle.builds", "count", f(w.oracle_builds));
    report.set("oracle.refills_skipped", "count", f(w.seq_refills_skipped));
    oracle_ratios(w, "", report);
    report.set("session.csr_rebuilds", "count", f(w.csr_rebuilds));
    report.put(
        "session.row_survival",
        "ratio",
        ratio(
            f(w.rows_preserved),
            f(w.rows_preserved + w.rows_invalidated),
        ),
        None,
        "no row was repaired",
    );
}

/// The oracle's useful-outcome ratios, optionally under a name suffix.
pub fn oracle_ratios(w: &SessionStats, suffix: &str, report: &mut Report) {
    let f = |x: usize| x as f64;
    report.put(
        &format!("oracle.row_hit_ratio{suffix}"),
        "ratio",
        ratio(
            f(w.seq_oracle_hits),
            f(w.seq_oracle_hits + w.seq_oracle_swept),
        ),
        None,
        "no sequential oracle build",
    );
    report.put(
        &format!("oracle.round_reuse_ratio{suffix}"),
        "ratio",
        ratio(
            f(w.oracle_rows_reused),
            f(w.oracle_rows_reused + w.oracle_rows_swept),
        ),
        None,
        "no simultaneous-round oracle build",
    );
    if suffix.is_empty() {
        report.put(
            "oracle.lazy_reject_ratio",
            "ratio",
            ratio(
                f(w.lazy_certified_rejects),
                f(w.lazy_certified_rejects + w.lazy_exact_evals),
            ),
            None,
            "lazy oracle is opt-in and off on every session",
        );
    }
}

/// `graph.row_us`: `CsrGraph::dijkstra_row_with` from every source of
/// up to 16 final overlays.
pub fn graph_rows<'a>(
    tracer: &mut Tracer,
    overlays: impl Iterator<Item = (&'a Game, &'a StrategyProfile)>,
    report: &mut Report,
) {
    for (game, profile) in overlays.take(16) {
        let Ok(g) = sp_core::topology(game, profile) else {
            continue;
        };
        let csr = CsrGraph::from_digraph(&g);
        let mut scratch = DijkstraScratch::new();
        for source in 0..csr.node_count() {
            tracer.span("graph.row", None, None, || {
                std::hint::black_box(csr.dijkstra_row_with(source, &mut scratch).len())
            });
        }
    }
    let (v, n) = tracer.median_us("graph.row");
    report.set_n("graph.row_us", "us", v, n);
}

/// Payload bytes and request count per codec.
#[derive(Debug, Default)]
pub struct WireTally {
    bytes: [usize; 2],
    requests: usize,
    decode_failures: usize,
}

const CODECS: [(Codec, &str, &str, &str, &str); 2] = [
    (
        Codec::Json,
        "wire.json.encode",
        "wire.json.decode",
        "wire.json.encode_us",
        "wire.json.decode_us",
    ),
    (
        Codec::Binary,
        "wire.binary.encode",
        "wire.binary.decode",
        "wire.binary.encode_us",
        "wire.binary.decode_us",
    ),
];

/// Encodes and decodes one request and its response with both codecs.
pub fn wire_probe(
    tracer: &mut Tracer,
    parent: Option<usize>,
    req: &Request,
    resp: &Response,
    tally: &mut WireTally,
) {
    let id = req.id();
    for (k, (codec, enc, dec, _, _)) in CODECS.iter().enumerate() {
        let (rb, pb) = tracer.span(enc, parent, id, || {
            (codec.encode_request(req), codec.encode_response(resp))
        });
        tally.bytes[k] += rb.len() + pb.len();
        let ok = tracer.span(dec, parent, id, || {
            codec.decode_request(&rb).is_ok() && codec.decode_response(&pb, req.code()).is_ok()
        });
        if !ok {
            tally.decode_failures += 1;
        }
    }
    tally.requests += 1;
}

/// `wire.*` metrics from the probe's spans and tally. Times are per
/// request: its request plus its response.
pub fn wire_report(
    tracer: &Tracer,
    tally: &WireTally,
    report: &mut Report,
    problems: &mut Vec<String>,
) {
    for (k, (_, enc, dec, enc_metric, dec_metric)) in CODECS.iter().enumerate() {
        let (v, n) = tracer.per_request_median_us(enc);
        report.set_n(enc_metric, "us", v, n);
        let (v, n) = tracer.per_request_median_us(dec);
        report.set_n(dec_metric, "us", v, n);
        let name = if k == 0 {
            "wire.json.bytes_per_req"
        } else {
            "wire.binary.bytes_per_req"
        };
        report.put(
            name,
            "bytes",
            ratio(tally.bytes[k] as f64, tally.requests as f64),
            Some(tally.requests),
            "no requests",
        );
    }
    if tally.decode_failures > 0 {
        problems.push(format!(
            "{} wire round trips failed to decode",
            tally.decode_failures
        ));
    }
}

/// A reference-style pass over the requests that ran (script order,
/// every session resident): times `ops::execute_query` per class, both
/// codecs on each request and its response, and — when the workload
/// enters those layers — `SessionWal::append`/`commit` with fsync on the
/// mutating requests and `snapshot::save`/`load` at the scripted
/// `evict` points. Stops taking new ops after `cap` or
/// [`PROBE_REQUESTS`]; creates always run.
#[allow(clippy::too_many_arguments)]
pub fn session_probe(
    tracer: &mut Tracer,
    executed: &[&ScriptRequest],
    cap: Duration,
    dir: &Path,
    wal: bool,
    snapshots: bool,
    report: &mut Report,
    problems: &mut Vec<String>,
) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        problems.push(format!("probe directory: {e}"));
        return;
    }
    let mut sessions: BTreeMap<String, GameSession> = BTreeMap::new();
    let mut wals: BTreeMap<String, SessionWal> = BTreeMap::new();
    let mut wal_records = 0usize;
    let mut rewarm_pending: BTreeSet<String> = BTreeSet::new();
    let (mut rewarm, mut snap_bytes) = (Vec::new(), Vec::new());
    let mut tally = WireTally::default();
    let start = Instant::now();
    for (k, r) in executed.iter().enumerate() {
        let class = Class::of_request(&r.request);
        if class != Class::Create && (start.elapsed() >= cap || k >= PROBE_REQUESTS) {
            break;
        }
        let Request::Session(sr) = &r.request else {
            continue;
        };
        let id = sr.id;
        let parent = tracer.begin("probe.request", None, id);
        let response = match &sr.op {
            SessionOp::Create(spec) => {
                match tracer.span("session.create", Some(parent), id, || {
                    ops::build_session(spec)
                }) {
                    Ok(s) => {
                        let body = ops::create_result(&s);
                        sessions.insert(sr.session.clone(), s);
                        Response::ok(id, body)
                    }
                    Err(e) => Response::err(id, e),
                }
            }
            op => {
                let Some(session) = sessions.get_mut(&sr.session) else {
                    tracer.end(parent);
                    continue;
                };
                match op {
                    SessionOp::Load => Response::ok(id, ops::loaded_result(session)),
                    SessionOp::Snapshot => Response::ok(id, ResultBody::Persisted),
                    SessionOp::Evict => {
                        if snapshots {
                            let path = dir.join(format!("{}.snap", sr.session));
                            let saved = tracer.span("snapshot.save", Some(parent), id, || {
                                snapshot::save(&path, session)
                            });
                            if saved.is_ok() {
                                snap_bytes
                                    .push(std::fs::metadata(&path).map_or(0, |m| m.len()) as f64);
                                match tracer.span("snapshot.load", Some(parent), id, || {
                                    snapshot::load(&path)
                                }) {
                                    Ok(mut restored) => {
                                        ops::tune_for_service(&mut restored);
                                        *session = restored;
                                        rewarm_pending.insert(sr.session.clone());
                                    }
                                    Err(e) => problems.push(format!("snapshot::load: {e}")),
                                }
                            }
                        }
                        Response::ok(id, ResultBody::Evicted)
                    }
                    _ => {
                        let before = sweeps(&session.stats());
                        let result = tracer.span(class.exec_span(), Some(parent), id, || {
                            ops::execute_query(op, session)
                        });
                        if rewarm_pending.remove(&sr.session) {
                            rewarm.push((sweeps(&session.stats()) - before) as f64);
                        }
                        match result {
                            Ok(body) => Response::ok(id, body),
                            Err(e) => Response::err(id, e),
                        }
                    }
                }
            }
        };
        if wal && sr.op.is_wal_logged() {
            let w = match wals.entry(sr.session.clone()) {
                Entry::Occupied(e) => Some(e.into_mut()),
                Entry::Vacant(v) => {
                    match SessionWal::create(&dir.join(format!("{}.wal", sr.session)), true) {
                        Ok(w) => Some(v.insert(w)),
                        Err(e) => {
                            problems.push(format!("SessionWal::create: {e}"));
                            None
                        }
                    }
                }
            };
            if let Some(w) = w {
                let appended = tracer.span("wal.append", Some(parent), id, || w.append(&r.request));
                let committed = tracer.span("wal.commit", Some(parent), id, || w.commit());
                if let Err(e) = appended.and(committed) {
                    problems.push(format!("WAL append/commit: {e}"));
                }
                wal_records += 1;
            }
        }
        wire_probe(tracer, Some(parent), &r.request, &response, &mut tally);
        tracer.end(parent);
    }
    wire_report(tracer, &tally, report, problems);
    for class in [
        Class::Mutate,
        Class::Read,
        Class::BestResponse,
        Class::Heavy,
    ] {
        let name = format!("session.exec_us.{}", class.name());
        let (v, n) = tracer.median_us(class.exec_span());
        if n == 0 {
            report.na(&name, "us", "class not in this workload's mix");
        } else {
            report.set_n(&name, "us", v, n);
        }
    }
    if wal {
        drop(wals);
        let bytes: u64 = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "wal"))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        let (v, n) = tracer.median_us("wal.append");
        report.set_n("wal.append_us", "us", v, n);
        let (v, n) = tracer.median_us("wal.commit");
        report.set_n("wal.commit_ms", "ms", v.map(|us| us / 1e3), n);
        report.put(
            "wal.bytes_per_record",
            "bytes",
            ratio(bytes as f64, wal_records as f64),
            Some(wal_records),
            "no WAL records",
        );
    } else {
        for (m, u) in [
            ("wal.append_us", "us"),
            ("wal.commit_ms", "ms"),
            ("wal.bytes_per_record", "bytes"),
            ("wal.records_per_fsync", "ratio"),
        ] {
            report.na(m, u, "durability is off: the wal layer is never entered");
        }
    }
    if snapshots {
        report.set_n(
            "snapshot.bytes",
            "bytes",
            median(&snap_bytes),
            snap_bytes.len(),
        );
        let (v, n) = tracer.median_us("snapshot.save");
        report.set_n("snapshot.save_ms", "ms", v.map(|us| us / 1e3), n);
        let (v, n) = tracer.median_us("snapshot.load");
        report.set_n("snapshot.load_ms", "ms", v.map(|us| us / 1e3), n);
        report.set_n(
            "snapshot.rewarm_rows",
            "count",
            median(&rewarm),
            rewarm.len(),
        );
    } else {
        for (m, u) in [
            ("snapshot.bytes", "bytes"),
            ("snapshot.save_ms", "ms"),
            ("snapshot.load_ms", "ms"),
            ("snapshot.rewarm_rows", "count"),
        ] {
            report.na(m, u, "nothing spills: the snapshot layer is never entered");
        }
    }
    graph_rows(
        tracer,
        sessions.values().map(|s| (s.game(), s.profile())),
        report,
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Marks the layers a served workload never enters.
pub fn not_entered_by_serve(report: &mut Report) {
    for (m, u) in [
        ("dynamics.activations", "count"),
        ("dynamics.moves", "count"),
        ("dynamics.rounds", "count"),
        ("dynamics.seq_s", "s"),
        ("dynamics.sim_s", "s"),
        ("dynamics.measure_s", "s"),
    ] {
        report.na(
            m,
            u,
            "dynamics_batch only: served run_dynamics ops count as heavy requests",
        );
    }
    for a in ["alpha1", "alpha2", "alpha4"] {
        for m in ["oracle.row_hit_ratio", "oracle.round_reuse_ratio"] {
            report.na(
                &format!("{m}.{a}"),
                "ratio",
                "alpha split is dynamics_batch only (served sessions draw alpha from [1, 3.9])",
            );
        }
    }
}
