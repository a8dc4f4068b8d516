//! The two served workloads: an in-process `sp-serve` `Server` with two
//! workers on the reactor engine, driven closed loop by two client
//! connections. Closed loop because each tenant's next op depends on
//! its last reply; session `i` belongs to client `i % 2`, so
//! per-session order (the service contract) holds however the pool
//! schedules, and a run cut by the clock has executed a prefix of every
//! session's requests.
//!
//! * `serve_spill` — `workload::build_script`'s mix over 256 dense
//!   sessions × 112 peers under a 64 MiB budget, binary protocol, WAL
//!   with group commit 32 and real fsync. Keeps eviction, snapshot and
//!   WAL busy.
//! * `serve_resident` — the same generator over 64 sessions × 32 peers
//!   with the default budget and the `snapshot` / `evict` / `load` ops
//!   dropped, JSON protocol, durability off: nothing ever spills, so
//!   codec, I/O and registry dispatch are a large share of each request.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use sp_serve::client::ServeClient;
use sp_serve::config::{Durability, ServeConfig};
use sp_serve::obs::ObsConfig;
use sp_serve::registry::{RegistryConfig, SessionRegistry};
use sp_serve::server::{respond_request, IoModel, Server};
use sp_serve::wire::{
    binary, MetricsBody, Response, ResultBody, TraceSpanBody, PROTO_BINARY, PROTO_JSON,
};
use sp_serve::workload::{self, ScriptRequest, WorkloadConfig};

use crate::env::Setup;
use crate::layers::{self, Class};
use crate::report::Report;
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::{env, Outcome, RunConfig};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Spill,
    Resident,
}

#[derive(Debug, Clone)]
struct Spec {
    sessions: usize,
    peers: usize,
    budget: usize,
    proto: u8,
    durability: Durability,
    lifecycle: bool,
    requests: usize,
    /// Set-ups per run; `setup_s` is their median.
    setups: usize,
}

fn spec(kind: Kind, cfg: &RunConfig) -> Spec {
    let secs = cfg.seconds.as_secs_f64();
    // Scripts are sized well past what the clock lets through, so a run
    // never runs out of requests before its time is up.
    match (kind, cfg.tiny) {
        (Kind::Spill, false) => Spec {
            sessions: 256,
            peers: 112,
            budget: 64 << 20,
            proto: PROTO_BINARY,
            durability: Durability::wal(),
            lifecycle: true,
            requests: 256 + (1500.0 * secs) as usize,
            setups: 5,
        },
        (Kind::Resident, false) => Spec {
            sessions: 64,
            peers: 32,
            budget: RegistryConfig::default().memory_budget,
            proto: PROTO_JSON,
            durability: Durability::Off,
            lifecycle: false,
            requests: 64 + (25_000.0 * secs) as usize,
            setups: 5,
        },
        (Kind::Spill, true) => Spec {
            sessions: 12,
            peers: 12,
            budget: 96 << 10,
            proto: PROTO_BINARY,
            durability: Durability::wal(),
            lifecycle: true,
            requests: 1200,
            setups: 3,
        },
        (Kind::Resident, true) => Spec {
            sessions: 8,
            peers: 10,
            budget: RegistryConfig::default().memory_budget,
            proto: PROTO_JSON,
            durability: Durability::Off,
            lifecycle: false,
            requests: 2400,
            setups: 3,
        },
    }
}

/// The generated inputs: the `create` prefix and the op stream.
struct Workload {
    creates: Vec<ScriptRequest>,
    ops: Vec<ScriptRequest>,
}

fn build(spec: &Spec, seed: u64) -> Workload {
    let mut script = workload::build_script(&WorkloadConfig {
        sessions: spec.sessions,
        requests: spec.requests,
        peers: spec.peers,
        seed,
    });
    let mut ops = script.split_off(spec.sessions);
    if !spec.lifecycle {
        ops.retain(|r| Class::of_request(&r.request) != Class::Lifecycle);
    }
    Workload {
        creates: script,
        ops: interleave_by_class(ops),
    }
}

/// Re-interleaves the op stream so every class recurs at its share of
/// the whole stream (smooth weighted round robin), keeping each class's
/// own requests in generated order. A run executes a prefix of the
/// stream, and heavy ops (about 1 % of requests, a quarter of the CPU)
/// otherwise arrive at a seed-dependent density that moved CPU per
/// request by ±20 % between seeds. Any op is valid at any point of a
/// session's life, and the reference runs the same stream.
fn interleave_by_class(ops: Vec<ScriptRequest>) -> Vec<ScriptRequest> {
    let total = ops.len() as i64;
    let mut queues: BTreeMap<Class, std::collections::VecDeque<ScriptRequest>> = BTreeMap::new();
    for r in ops {
        queues
            .entry(Class::of_request(&r.request))
            .or_default()
            .push_back(r);
    }
    let shares: Vec<(Class, i64)> = queues.iter().map(|(c, q)| (*c, q.len() as i64)).collect();
    let mut credit: BTreeMap<Class, i64> = shares.iter().map(|&(c, _)| (c, 0)).collect();
    let mut out = Vec::with_capacity(total as usize);
    for _ in 0..total {
        for &(c, n) in &shares {
            *credit.get_mut(&c).expect("every class has credit") += n;
        }
        let pick = shares
            .iter()
            .map(|&(c, _)| c)
            .max_by_key(|c| (credit[c], std::cmp::Reverse(*c)))
            .expect("at least one class");
        *credit.get_mut(&pick).expect("every class has credit") -= total;
        out.push(
            queues
                .get_mut(&pick)
                .and_then(std::collections::VecDeque::pop_front)
                .expect("smooth round robin never overdraws a class"),
        );
    }
    out
}

fn serve_config(spec: &Spec, dir: &Path, obs: bool) -> ServeConfig {
    ServeConfig::new()
        .workers(WORKERS)
        .io(IoModel::Reactor)
        .proto(spec.proto)
        .memory_budget(spec.budget)
        .spill_dir(dir)
        .durability(spec.durability)
        .obs(if obs {
            ObsConfig::enabled()
        } else {
            ObsConfig::default()
        })
}

/// One request a client completed (or lost to a transport error).
struct Done {
    /// Index into the request slice that was driven.
    idx: usize,
    start: Instant,
    end: Instant,
    response: Option<Response>,
}

struct Driven {
    done: Vec<Done>,
    start: Instant,
    end: Instant,
    /// Connections that never came up.
    connect_failures: usize,
    /// CPU seconds the client threads used.
    client_cpu_s: f64,
}

/// Drives `reqs` closed loop over [`CLIENTS`] connections until every
/// request is answered or `limit` has elapsed since the common start.
fn drive(addr: SocketAddr, proto: u8, reqs: &[ScriptRequest], limit: Option<Duration>) -> Driven {
    let barrier = Barrier::new(CLIENTS + 1);
    let (start, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let client = ServeClient::connect(addr, proto);
                    barrier.wait();
                    let start = Instant::now();
                    let Ok(mut client) = client else {
                        return (None, env::own_cpu_s());
                    };
                    let mut out = Vec::new();
                    for (idx, r) in reqs.iter().enumerate() {
                        if r.session_index % CLIENTS != c {
                            continue;
                        }
                        if limit.is_some_and(|l| start.elapsed() >= l) {
                            break;
                        }
                        let t0 = Instant::now();
                        let response = client.request(&r.request).ok();
                        let lost = response.is_none();
                        out.push(Done {
                            idx,
                            start: t0,
                            end: Instant::now(),
                            response,
                        });
                        if lost {
                            break;
                        }
                    }
                    // The thread's CPU time dies with it: report it now.
                    (Some(out), env::own_cpu_s())
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (start, results)
    });
    let connect_failures = results.iter().filter(|(r, _)| r.is_none()).count();
    let client_cpu_s = results.iter().map(|(_, cpu)| cpu).sum();
    let mut done: Vec<Done> = results
        .into_iter()
        .filter_map(|(r, _)| r)
        .flatten()
        .collect();
    done.sort_by_key(|d| d.idx);
    let end = done.iter().map(|d| d.end).max().unwrap_or(start);
    Driven {
        done,
        start,
        end,
        connect_failures,
        client_cpu_s,
    }
}

/// A started server with its `create` prefix applied.
struct Live {
    server: Server,
    dir: PathBuf,
    creates: Driven,
}

/// One set-up: generate the script from the seed, start the server and
/// apply the `create` prefix. Returns the workload, the live server and
/// the set-up's CPU and wall seconds.
fn set_up(
    spec: &Spec,
    seed: u64,
    dir: PathBuf,
    obs: bool,
) -> Result<(Workload, Live, Setup), String> {
    let threads = env::thread_cpu_s();
    let t0 = Instant::now();
    let wl = build(spec, seed);
    let server = Server::start(serve_config(spec, &dir, obs))
        .map_err(|e| format!("server start failed: {e}"))?;
    let creates = drive(server.local_addr(), spec.proto, &wl.creates, None);
    let setup = Setup {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: env::cpu_s_since(&threads) + creates.client_cpu_s,
    };
    let live = Live {
        server,
        dir,
        creates,
    };
    Ok((wl, live, setup))
}

fn tear_down(live: Live) {
    shut_down(live.server);
    let _ = std::fs::remove_dir_all(&live.dir);
}

/// `Server::shutdown`, kept from hanging. The reactor can miss its stop
/// wake-up: when a worker's completion wake is drained in the same pass,
/// the drain also swallows the stop wake, and the loop blocks in
/// `epoll_wait` for good (seen once in about 300 shutdowns). Until the
/// shutdown returns, a connection attempt every 50 ms makes the
/// listener readable, so the loop wakes and sees its stop flag.
fn shut_down(server: Server) {
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let stopping = scope.spawn(move || server.shutdown());
        while !stopping.is_finished() {
            let _ = std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(50));
            std::thread::sleep(Duration::from_millis(50));
        }
    });
}

/// Compares served responses with `workload::reference_typed` over the
/// requests that actually ran (every create plus each session's executed
/// prefix — sessions are independent, so that subset's reference is the
/// full script's reference restricted to it). Bytes of the binary
/// encoding are compared, so floats must match bit for bit.
fn verify(wl: &Workload, live: &Live, measured: &Driven, problems: &mut Vec<String>) {
    let mut subset: Vec<(usize, &ScriptRequest, Option<&Response>)> = Vec::new();
    let mut served_creates: HashMap<usize, &Response> = HashMap::new();
    for d in &live.creates.done {
        if let Some(r) = &d.response {
            served_creates.insert(d.idx, r);
        }
    }
    for (i, r) in wl.creates.iter().enumerate() {
        subset.push((i, r, served_creates.get(&i).copied()));
    }
    for d in &measured.done {
        subset.push((
            wl.creates.len() + d.idx,
            &wl.ops[d.idx],
            d.response.as_ref(),
        ));
    }
    subset.sort_by_key(|(k, _, _)| *k);
    // Reference sessions are independent: run the two client partitions
    // on two threads.
    let parts: Vec<Vec<&(usize, &ScriptRequest, Option<&Response>)>> = (0..CLIENTS)
        .map(|c| {
            subset
                .iter()
                .filter(|(_, r, _)| r.session_index % CLIENTS == c)
                .collect()
        })
        .collect();
    let mismatches: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .map(|part| {
                scope.spawn(move || {
                    let script: Vec<ScriptRequest> =
                        part.iter().map(|(_, r, _)| (*r).clone()).collect();
                    let reference = workload::reference_typed(&script);
                    let mut bad = Vec::new();
                    for ((k, _, served), want) in part.iter().zip(&reference) {
                        match served {
                            None => {} // lost to transport; counted as failed
                            Some(got)
                                if binary::encode_response(got)
                                    == binary::encode_response(want) => {}
                            Some(got) => {
                                bad.push(format!("request {k}: served {got:?}, reference {want:?}"))
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let shown = mismatches.len().min(5);
    problems.extend(mismatches.iter().take(shown).cloned());
    if mismatches.len() > shown {
        problems.push(format!(
            "... {} reference mismatches in all",
            mismatches.len()
        ));
    }
}

/// Every session must pass a strict on-disk `wal_verify`.
fn wal_sweep(spec: &Spec, addr: SocketAddr, problems: &mut Vec<String>) {
    let mut client = match ServeClient::connect(addr, spec.proto) {
        Ok(c) => c,
        Err(e) => {
            problems.push(format!("wal_verify sweep could not connect: {e}"));
            return;
        }
    };
    for i in 0..spec.sessions {
        let name = workload::session_name(i);
        match client.wal_verify(&name) {
            Ok(ResultBody::WalVerified { .. }) => {}
            other => problems.push(format!("wal_verify {name}: {other:?}")),
        }
    }
}

/// Client-observed latency samples (ms) per class.
fn class_samples(wl: &Workload, d: &Driven) -> BTreeMap<Class, Vec<f64>> {
    let mut out: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for done in d.done.iter().filter(|x| x.response.is_some()) {
        let ms = (done.end - done.start).as_secs_f64() * 1e3;
        out.entry(Class::of_request(&wl.ops[done.idx].request))
            .or_default()
            .push(ms);
    }
    out
}

fn failures(d: &Driven) -> u64 {
    let errors = d
        .done
        .iter()
        .filter(|x| x.response.as_ref().is_none_or(|r| r.outcome.is_err()))
        .count();
    (errors + d.connect_failures) as u64
}

fn throughput(d: &Driven) -> f64 {
    let completed = d.done.iter().filter(|x| x.response.is_some()).count();
    completed as f64 / (d.end - d.start).as_secs_f64()
}

fn end_to_end(
    kind: Kind,
    wl: &Workload,
    measured: &Driven,
    setups: &[Setup],
    disk_bytes: u64,
    report: &mut Report,
) {
    let rps = throughput(measured);
    report.set("req_per_s", "req/s", rps);
    let by_class = class_samples(wl, measured);
    let all: Vec<f64> = by_class.values().flatten().copied().collect();
    report.set_n("latency_p50_ms", "ms", percentile(&all, 0.5), all.len());
    let interactive: Vec<f64> = by_class
        .iter()
        .filter(|(c, _)| c.is_interactive())
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    report.set_n(
        "interactive_p99_ms",
        "ms",
        percentile(&interactive, 0.99),
        interactive.len(),
    );
    for class in Class::SERVED {
        let name = format!("{}_p50_ms", class.name());
        match by_class.get(&class) {
            Some(v) => report.set_n(&name, "ms", percentile(v, 0.5), v.len()),
            None => report.na(&name, "ms", "class not in this workload's mix"),
        }
    }
    let attempted = measured.done.len().max(1) as f64;
    report.set("error_rate", "share", failures(measured) as f64 / attempted);
    crate::env::report_setups(setups, report);
    report.set("disk_mb", "MB", disk_bytes as f64 / 1e6);
    report.na("activations_per_s", "activations/s", "dynamics_batch only");
    if kind == Kind::Resident {
        report.na(
            "lifecycle_p50_ms",
            "ms",
            "serve_spill only: no lifecycle ops",
        );
    }
}

pub fn run(kind: Kind, cfg: &RunConfig) -> Outcome {
    let spec = spec(kind, cfg);
    let mut out = Outcome::default();
    out.env
        .push(("spill_fs".into(), env::fs_type(&cfg.work_dir)));
    out.env.push((
        "fsync".into(),
        match spec.durability {
            Durability::Off => "off(no-wal)".into(),
            Durability::Wal {
                group_commit,
                fsync,
            } => format!("wal(group_commit={group_commit},fsync={fsync})"),
        },
    ));
    out.env.push(("proto".into(), spec.proto.to_string()));
    out.env.push((
        "load".into(),
        format!("closed-loop,clients={CLIENTS},workers={WORKERS},io=reactor"),
    ));
    let result = if cfg.trace {
        traced(kind, cfg, &spec, &mut out)
    } else {
        untraced(kind, cfg, &spec, &mut out)
    };
    if let Err(e) = result {
        out.problems.push(e);
    }
    out
}

fn untraced(kind: Kind, cfg: &RunConfig, spec: &Spec, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut last = None;
    for rep in 0..spec.setups {
        if let Some((_, prev)) = last.take() {
            tear_down(prev);
        }
        let (wl, live, t) = set_up(
            spec,
            cfg.seed,
            cfg.work_dir.join(format!("setup-{rep}")),
            false,
        )?;
        setups.push(t);
        last = Some((wl, live));
    }
    let (wl, live) = last.expect("at least one set-up");
    let (cpu0, wait0) = (env::cpu_seconds(), env::runqueue_wait_seconds());
    let measured = drive(
        live.server.local_addr(),
        spec.proto,
        &wl.ops,
        Some(cfg.seconds),
    );
    let (cpu1, wait1) = (env::cpu_seconds(), env::runqueue_wait_seconds());
    // Peak RSS is read before any reference executor runs.
    let rss = env::peak_rss_mb();
    if spec.durability.is_wal() {
        wal_sweep(spec, live.server.local_addr(), &mut out.problems);
    }
    let disk = env::dir_bytes(&live.dir);
    let st = live.server.registry().stats();
    out.notes.push(format!(
        "registry evictions={} restores={} wal_records={} wal_fsyncs={}",
        st.sessions_evicted, st.sessions_restored, st.wal_records, st.wal_fsyncs
    ));
    out.notes.push(format!(
        "measured wall_s={:.3} runqueue_wait_s={:.3} (threads runnable but not running)",
        (measured.end - measured.start).as_secs_f64(),
        wait1 - wait0
    ));
    end_to_end(kind, &wl, &measured, &setups, disk, &mut out.report);
    let completed = measured
        .done
        .iter()
        .filter(|x| x.response.is_some())
        .count();
    out.report.put(
        "cpu_us_per_op",
        "us",
        cpu1.zip(cpu0)
            .map(|(b, a)| (b - a) * 1e6 / completed as f64),
        None,
        "no /proc/self/stat",
    );
    out.report
        .put("peak_rss_mb", "MB", rss, None, "no /proc/self/status");
    out.attempted = measured.done.len() as u64;
    out.failed = failures(&measured);
    if failures(&live.creates) > 0 {
        out.problems
            .push("a create of the set-up failed".to_owned());
    }
    verify(&wl, &live, &measured, &mut out.problems);
    tear_down(live);
    Ok(())
}

fn traced(kind: Kind, cfg: &RunConfig, spec: &Spec, out: &mut Outcome) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let report = &mut out.report;
    // The untraced baseline for the tracing overhead.
    let (base_wl, live, _) = set_up(spec, cfg.seed, cfg.work_dir.join("untraced"), false)?;
    let base = drive(
        live.server.local_addr(),
        spec.proto,
        &base_wl.ops,
        Some(cfg.seconds),
    );
    tear_down(live);
    let (wl, live, _) = set_up(spec, cfg.seed, cfg.work_dir.join("traced"), true)?;
    let addr = live.server.local_addr();
    let measured = drive(addr, spec.proto, &wl.ops, Some(cfg.seconds));
    for d in &measured.done {
        tracer.record(
            "io.request",
            tracer.at_ns(d.start),
            tracer.at_ns(d.end),
            wl.ops[d.idx].request.id(),
        );
    }
    let (metrics, tail) = match ServeClient::connect(addr, spec.proto).and_then(|mut c| {
        let m = c
            .metrics()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let t = c
            .trace_tail(Some(1 << 16), None)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok((m, t))
    }) {
        Ok(x) => x,
        Err(e) => {
            out.problems.push(format!("metrics/trace_tail failed: {e}"));
            (
                MetricsBody {
                    counters: vec![],
                    gauges: vec![],
                    histograms: vec![],
                },
                vec![],
            )
        }
    };
    let rstats = live.server.registry().stats();
    let work = live.server.registry().work_stats();
    if spec.durability.is_wal() {
        wal_sweep(spec, addr, &mut out.problems);
    }
    out.attempted = measured.done.len() as u64;
    out.failed = failures(&measured);
    if failures(&live.creates) > 0 {
        out.problems
            .push("a create of the set-up failed".to_owned());
    }
    verify(&wl, &live, &measured, &mut out.problems);
    tear_down(live);

    report.set(
        "obs.overhead_frac",
        "ratio",
        1.0 - throughput(&measured) / throughput(&base),
    );
    layers::work_counters(&work, report);
    served_layers(kind, &wl, &measured, &metrics, &tail, &rstats, report);

    // Requests that ran, in script order: every create plus each
    // session's executed prefix.
    let executed: Vec<&ScriptRequest> = wl
        .creates
        .iter()
        .chain(measured.done.iter().map(|d| &wl.ops[d.idx]))
        .collect();
    let cap = cfg.seconds / 2;
    ping_rtt(&mut tracer, spec, &cfg.work_dir, report);
    inproc(&mut tracer, spec, &executed, cap, &cfg.work_dir, report);
    layers::session_probe(
        &mut tracer,
        &executed,
        cap,
        &cfg.work_dir.join("probe"),
        spec.durability.is_wal(),
        spec.lifecycle,
        report,
        &mut out.problems,
    );
    layers::not_entered_by_serve(report);

    let path = crate::spans_file(if kind == Kind::Spill {
        "serve_spill"
    } else {
        "serve_resident"
    });
    tracer
        .write(&path)
        .map_err(|e| format!("writing spans to {}: {e}", path.display()))
}

/// Layer numbers read from the traced server: its `metrics`, its
/// `trace_tail` spans, registry counters, and the client's own samples.
fn served_layers(
    kind: Kind,
    wl: &Workload,
    measured: &Driven,
    metrics: &MetricsBody,
    tail: &[TraceSpanBody],
    rstats: &sp_serve::registry::RegistryStats,
    report: &mut Report,
) {
    let requests = measured.done.len() as f64;
    // `trace_tail` holds the server's last completed spans: compare them
    // with the client's view of the same last requests.
    let mut last: Vec<&Done> = measured
        .done
        .iter()
        .filter(|d| d.response.is_some())
        .collect();
    last.sort_by_key(|d| d.end);
    let mut client: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for d in &last[last.len().saturating_sub(tail.len())..] {
        client
            .entry(Class::of_request(&wl.ops[d.idx].request))
            .or_default()
            .push((d.end - d.start).as_secs_f64() * 1e3);
    }
    let mut server: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let mut waits = Vec::new();
    for s in tail {
        if let Some(c) = Class::of_op_name(&s.op) {
            server.entry(c).or_default().push(s.total_ns as f64 / 1e3);
        }
        // phases_ns: decode, enqueue, dequeue, ... as offsets from decode.
        let (enq, deq) = (s.phases_ns[1], s.phases_ns[2]);
        if enq > 0 && deq >= enq {
            waits.push((deq - enq) as f64 / 1e3);
        }
    }
    report.set_n("registry.queue_wait_us", "us", median(&waits), waits.len());
    for class in Class::SERVED {
        let name = format!("io.residual_us.{}", class.name());
        match (client.get(&class), server.get(&class)) {
            (Some(c), Some(s)) => {
                let residual = median(c).zip(median(s)).map(|(c, s)| c * 1e3 - s);
                report.put(&name, "us", residual, Some(s.len()), "too few samples");
            }
            _ => report.na(&name, "us", "class not in this workload's mix"),
        }
    }
    let wakeups = metrics
        .counters
        .iter()
        .find(|(k, _)| k == "reactor.wakeups")
        .map(|&(_, v)| v as f64);
    report.put(
        "io.wakeups_per_req",
        "ratio",
        wakeups.and_then(|w| ratio(w, requests)),
        None,
        "no reactor.wakeups counter",
    );
    report.set(
        "registry.evictions",
        "count",
        rstats.sessions_evicted as f64,
    );
    report.set(
        "registry.restores",
        "count",
        rstats.sessions_restored as f64,
    );
    report.put(
        "registry.restores_per_kreq",
        "1/kreq",
        ratio(rstats.sessions_restored as f64 * 1e3, requests),
        None,
        "no requests",
    );
    if kind == Kind::Spill {
        report.put(
            "wal.records_per_fsync",
            "ratio",
            ratio(rstats.wal_records as f64, rstats.wal_fsyncs as f64),
            None,
            "no fsyncs",
        );
    }
}

fn ping_rtt(tracer: &mut Tracer, spec: &Spec, work: &Path, report: &mut Report) {
    for (io, name, metric) in [
        (
            IoModel::Reactor,
            "io.ping.reactor",
            "io.ping_rtt_us.reactor",
        ),
        (
            IoModel::Threaded,
            "io.ping.threaded",
            "io.ping_rtt_us.threaded",
        ),
    ] {
        let dir = work.join(name);
        let Ok(server) = Server::start(ServeConfig::new().workers(WORKERS).io(io).spill_dir(&dir))
        else {
            report.na(metric, "us", "server did not start");
            continue;
        };
        if let Ok(mut client) = ServeClient::connect(server.local_addr(), spec.proto) {
            for _ in 0..50 {
                let _ = client.ping();
            }
            for _ in 0..500 {
                tracer.span(name, None, None, || client.ping().is_ok());
            }
        }
        shut_down(server);
        let _ = std::fs::remove_dir_all(&dir);
        let (v, n) = tracer.median_us(name);
        report.set_n(metric, "us", v, n);
    }
}

/// `server::respond_request` timed per request with no socket and no
/// codec, on a registry configured like the workload's.
fn inproc(
    tracer: &mut Tracer,
    spec: &Spec,
    executed: &[&ScriptRequest],
    cap: Duration,
    work: &Path,
    report: &mut Report,
) {
    let dir = work.join("inproc");
    let registry = match SessionRegistry::new(RegistryConfig {
        memory_budget: spec.budget,
        spill_dir: dir.clone(),
        durability: spec.durability,
        ..RegistryConfig::default()
    }) {
        Ok(r) => r,
        Err(e) => {
            for class in Class::SERVED {
                report.na(
                    &format!("registry.inproc_us.{}", class.name()),
                    "us",
                    &e.to_string(),
                );
            }
            return;
        }
    };
    let workers = registry.spawn_workers(WORKERS);
    let start = Instant::now();
    for (k, r) in executed.iter().enumerate() {
        let class = Class::of_request(&r.request);
        if class != Class::Create && (start.elapsed() >= cap || k >= layers::PROBE_REQUESTS) {
            break;
        }
        let req = r.request.clone();
        tracer.span(class.inproc_span(), None, r.request.id(), || {
            respond_request(&registry, req)
        });
    }
    registry.shutdown();
    for h in workers {
        let _ = h.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
    for class in Class::SERVED {
        let name = format!("registry.inproc_us.{}", class.name());
        let (v, n) = tracer.median_us(class.inproc_span());
        if n == 0 {
            report.na(&name, "us", "class not in this workload's mix");
        } else {
            report.set_n(&name, "us", v, n);
        }
    }
}
