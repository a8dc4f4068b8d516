//! `dynamics_batch`: the paper's own workload, offline, no server.
//!
//! Seeded dense Euclidean instances cycle over n ∈ {64, 88, 112} and
//! α ∈ {1, 2, 4} (oracle reuse falls as α grows, so α is varied). Each
//! instance starts from a bidirectional ring plus two random out-links
//! per peer (a connected overlay, so every cost is finite) and runs,
//! through the public `sp-dynamics` / `GameSession` API with default
//! configs apart from the rule and the round caps:
//!
//! 1. sequential better-response dynamics to convergence or a round cap;
//! 2. simultaneous Greedy best-response rounds on the sharded engine;
//! 3. measurements: social cost, max stretch and Nash gap.
//!
//! Every output is checked against the fresh-oracle reference engines
//! (`oracle_reuse: false`, one-shard simultaneous rounds, uncached best
//! responses).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::prelude::*;
use sp_core::{
    BackendMode, BestResponseMethod, Game, GameSession, PeerId, SessionStats, StrategyProfile,
};
use sp_dynamics::simultaneous::{run_simultaneous, SimultaneousConfig, SimultaneousOutcome};
use sp_dynamics::{DynamicsConfig, DynamicsOutcome, DynamicsRunner, ResponseRule};
use sp_serve::wire::{
    DynamicsBody, DynamicsRule, DynamicsSpec, GameSpec, Geometry, Request, Response, ResultBody,
    SessionOp, SessionRequest, SocialCostBody,
};

use crate::env::Setup;
use crate::layers::{self, Class, WireTally};
use crate::report::Report;
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::{env, Outcome, RunConfig};

const NS: [usize; 3] = [64, 88, 112];
const TINY_NS: [usize; 3] = [10, 12, 14];
const ALPHAS: [f64; 3] = [1.0, 2.0, 4.0];
const SEQ_ROUNDS: usize = 2;
const SIM_ROUNDS: usize = 2;
/// Instances per cycle over every (n, α) cell.
const CELLS: usize = 9;
const METHOD: BestResponseMethod = BestResponseMethod::Greedy;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Instances of a traced run: one per (n, α) cell, so its counts repeat
/// exactly for a given seed.
const TRACED_INSTANCES: usize = CELLS;

struct Instance {
    spec: GameSpec,
    alpha: f64,
    game: Game,
    start: StrategyProfile,
}

fn instance(seed: u64, k: usize, tiny: bool) -> Instance {
    let n = if tiny { TINY_NS[k % 3] } else { NS[k % 3] };
    let alpha = ALPHAS[(k / 3) % 3];
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k as u64);
    let mut points = Vec::with_capacity(n);
    while points.len() < n {
        let p = (
            f64::from(rng.random_range(0u32..100_000)) / 1000.0,
            f64::from(rng.random_range(0u32..100_000)) / 1000.0,
        );
        if !points.contains(&p) {
            points.push(p);
        }
    }
    let mut links = Vec::with_capacity(4 * n);
    for p in 0..n {
        links.push((p, (p + 1) % n));
        links.push(((p + 1) % n, p));
        for _ in 0..2 {
            let q = rng.random_range(0..n);
            if q != p && !links.contains(&(p, q)) {
                links.push((p, q));
            }
        }
    }
    let spec = GameSpec {
        alpha,
        geometry: Geometry::Points2D(points),
        links,
        mode: BackendMode::Dense,
    };
    let (game, start) = sp_serve::spec::build(&spec).expect("generated spec is valid");
    Instance {
        spec,
        alpha,
        game,
        start,
    }
}

fn seq_config(oracle_reuse: bool) -> DynamicsConfig {
    DynamicsConfig {
        rule: ResponseRule::BetterResponse,
        max_rounds: SEQ_ROUNDS,
        oracle_reuse,
        ..DynamicsConfig::default()
    }
}

fn sim_config(parallelism: Option<usize>) -> SimultaneousConfig {
    SimultaneousConfig {
        method: METHOD,
        max_rounds: SIM_ROUNDS,
        parallelism,
        ..SimultaneousConfig::default()
    }
}

/// What one instance produced, for the reference comparison.
struct Result3 {
    seq: DynamicsOutcome,
    sim: SimultaneousOutcome,
    /// Social link cost, social stretch cost, max stretch, Nash gap.
    measures: [f64; 4],
}

struct Ran {
    k: usize,
    result: Result3,
    times: [Duration; 3],
    stats: SessionStats,
}

fn activations(r: &Result3, n: usize) -> usize {
    r.seq.steps + r.sim.rounds * n
}

/// Runs the three phases on one instance. Spans are recorded when a
/// tracer is given.
fn run_instance(
    inst: &Instance,
    mut session: GameSession,
    mut tracer: Option<&mut Tracer>,
) -> (Result3, [Duration; 3], SessionStats) {
    let span = |name: &'static str, t: &mut Option<&mut Tracer>| {
        t.as_mut().map(|t| t.begin(name, None, None))
    };
    let close = |id: Option<usize>, t: &mut Option<&mut Tracer>| {
        if let (Some(id), Some(t)) = (id, t.as_mut()) {
            t.end(id);
        }
    };
    let t0 = Instant::now();
    let s = span("dynamics.seq", &mut tracer);
    let seq = DynamicsRunner::new(&inst.game, seq_config(true)).run_session(&mut session);
    close(s, &mut tracer);
    let t1 = Instant::now();
    let s = span("dynamics.sim", &mut tracer);
    let sim = run_simultaneous(&inst.game, seq.profile.clone(), &sim_config(None));
    close(s, &mut tracer);
    let t2 = Instant::now();
    let s = span("dynamics.measure", &mut tracer);
    let mut m = GameSession::new(inst.game.clone(), sim.profile.clone()).expect("sizes match");
    let r = span(Class::Read.exec_span(), &mut tracer);
    let sc = m.social_cost();
    close(r, &mut tracer);
    let r = span(Class::Read.exec_span(), &mut tracer);
    let ms = m.max_stretch();
    close(r, &mut tracer);
    let r = span(Class::Heavy.exec_span(), &mut tracer);
    let gap = m.nash_gap(METHOD).expect("peers in range");
    close(r, &mut tracer);
    close(s, &mut tracer);
    let t3 = Instant::now();
    let mut stats = session.stats();
    stats.merge(&sim.stats);
    stats.merge(&m.stats());
    let result = Result3 {
        seq,
        sim,
        measures: [sc.link_cost, sc.stretch_cost, ms, gap],
    };
    (result, [t1 - t0, t2 - t1, t3 - t2], stats)
}

/// The fresh-oracle reference for one instance.
fn reference(inst: &Instance) -> Result3 {
    let seq = DynamicsRunner::new(&inst.game, seq_config(false)).run(inst.start.clone());
    let sim = run_simultaneous(&inst.game, seq.profile.clone(), &sim_config(Some(1)));
    let sc = sp_core::social_cost(&inst.game, &sim.profile).expect("sizes match");
    let ms = sp_core::max_stretch(&inst.game, &sim.profile).expect("sizes match");
    let mut fresh = GameSession::new(inst.game.clone(), sim.profile.clone()).expect("sizes match");
    let mut gap = 0.0f64;
    for i in 0..inst.game.n() {
        let imp = fresh
            .best_response_uncached(PeerId::new(i), METHOD)
            .expect("peer in range")
            .improvement();
        if imp > gap {
            gap = imp;
        }
    }
    Result3 {
        seq,
        sim,
        measures: [sc.link_cost, sc.stretch_cost, ms, gap],
    }
}

fn compare(k: usize, got: &Result3, want: &Result3) -> Option<String> {
    let same_seq = got.seq.profile == want.seq.profile
        && got.seq.termination == want.seq.termination
        && got.seq.steps == want.seq.steps
        && got.seq.moves == want.seq.moves;
    let same_sim = got.sim.profile == want.sim.profile
        && got.sim.termination == want.sim.termination
        && got.sim.rounds == want.sim.rounds
        && got.sim.moves == want.sim.moves;
    let same_measures = got
        .measures
        .iter()
        .zip(&want.measures)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    (!(same_seq && same_sim && same_measures)).then(|| {
        format!(
            "instance {k}: sequential {same_seq}, simultaneous {same_sim}, measures {same_measures} \
             (measured {:?} vs reference {:?})",
            got.measures, want.measures
        )
    })
}

/// Checks every instance that ran against the reference, two at a time.
fn verify(instances: &[Instance], ran: &[Ran], problems: &mut Vec<String>) {
    let found: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|part| {
                scope.spawn(move || {
                    ran.iter()
                        .skip(part)
                        .step_by(2)
                        .filter_map(|r| compare(r.k, &r.result, &reference(&instances[r.k])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    problems.extend(found);
}

/// Instance generation plus session build: the batch's set-up.
fn set_up(cfg: &RunConfig, count: usize) -> (Vec<Instance>, Vec<GameSession>, Setup) {
    let threads = env::thread_cpu_s();
    let t0 = Instant::now();
    let instances: Vec<Instance> = (0..count)
        .map(|k| instance(cfg.seed, k, cfg.tiny))
        .collect();
    let sessions = instances
        .iter()
        .map(|i| GameSession::new(i.game.clone(), i.start.clone()).expect("sizes match"))
        .collect();
    let setup = Setup {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: env::cpu_s_since(&threads),
    };
    (instances, sessions, setup)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    out.env.push(("spill_fs".into(), "none(no-disk)".into()));
    out.env.push(("fsync".into(), "none(no-disk)".into()));
    out.env.push((
        "load".into(),
        format!("offline,seq_rounds={SEQ_ROUNDS},sim_rounds={SIM_ROUNDS},method=greedy"),
    ));
    // Sized well past what the clock lets through (a few hundred ms per
    // instance), so the batch never runs dry before its time is up.
    let count = if cfg.trace {
        TRACED_INSTANCES
    } else {
        CELLS
            * (2 + (cfg.seconds.as_secs_f64() * if cfg.tiny { 40.0 } else { 0.9 }).ceil() as usize)
    };
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take()); // free the previous set before building the next
        let (instances, sessions, t) = set_up(cfg, count);
        setups.push(t);
        built = Some((instances, sessions));
    }
    let (instances, sessions) = built.expect("at least one set-up");
    let mut tracer = cfg.trace.then(Tracer::new);
    let mut ran = Vec::new();
    let cpu0 = env::cpu_seconds();
    let start = Instant::now();
    for (k, session) in sessions.into_iter().enumerate() {
        // Whole (n, α) cycles only, so every run weighs the cells alike.
        if !cfg.trace && k % CELLS == 0 && start.elapsed() >= cfg.seconds {
            break;
        }
        let (result, times, stats) = run_instance(&instances[k], session, tracer.as_mut());
        ran.push(Ran {
            k,
            result,
            times,
            stats,
        });
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cpu = env::cpu_seconds().zip(cpu0).map(|(b, a)| b - a);
    let rss = env::peak_rss_mb();
    if !cfg.trace && ran.len() == instances.len() {
        eprintln!("perfbench: dynamics_batch ran out of instances before --seconds elapsed");
    }
    let total_acts: usize = ran
        .iter()
        .map(|r| activations(&r.result, instances[r.k].game.n()))
        .sum();
    out.attempted = ran.len() as u64;
    let report = &mut out.report;
    if let Some(tracer) = tracer.as_mut() {
        traced_layers(tracer, &instances, &ran, report, &mut out.problems);
        let path = crate::spans_file("dynamics_batch");
        if let Err(e) = tracer.write(&path) {
            out.problems
                .push(format!("writing spans to {}: {e}", path.display()));
        }
    } else {
        let acts_per_s = total_acts as f64 / elapsed;
        let job_ms: Vec<f64> = ran
            .iter()
            .map(|r| r.times.iter().sum::<Duration>().as_secs_f64() * 1e3)
            .collect();
        report.set("activations_per_s", "activations/s", acts_per_s);
        report.put(
            "cpu_us_per_op",
            "us",
            cpu.map(|c| c * 1e6 / total_acts as f64),
            None,
            "no /proc/self/stat",
        );
        report.set_n(
            "latency_p50_ms",
            "ms",
            percentile(&job_ms, 0.5),
            job_ms.len(),
        );
        env::report_setups(&setups, report);
        report.put("peak_rss_mb", "MB", rss, None, "no /proc/self/status");
        report.set("error_rate", "share", 0.0);
        for (m, u) in [
            ("req_per_s", "req/s"),
            ("interactive_p99_ms", "ms"),
            ("mutate_p50_ms", "ms"),
            ("read_p50_ms", "ms"),
            ("best_response_p50_ms", "ms"),
            ("heavy_p50_ms", "ms"),
            ("lifecycle_p50_ms", "ms"),
            ("disk_mb", "MB"),
        ] {
            report.na(
                m,
                u,
                "served workloads only (latency_p50_ms here is per instance)",
            );
        }
    }
    verify(&instances, &ran, &mut out.problems);
    out
}

fn traced_layers(
    tracer: &mut Tracer,
    instances: &[Instance],
    ran: &[Ran],
    report: &mut Report,
    problems: &mut Vec<String>,
) {
    let mut total = SessionStats::default();
    let mut by_alpha: BTreeMap<u64, SessionStats> = BTreeMap::new();
    let (mut acts, mut moves, mut rounds) = (0usize, 0usize, 0usize);
    let mut phase = [Duration::ZERO; 3];
    for r in ran {
        let inst = &instances[r.k];
        let n = inst.game.n();
        total.merge(&r.stats);
        by_alpha
            .entry(inst.alpha as u64)
            .or_default()
            .merge(&r.stats);
        acts += activations(&r.result, n);
        moves += r.result.seq.moves + r.result.sim.moves;
        rounds += r.result.seq.steps.div_ceil(n) + r.result.sim.rounds;
        for (p, t) in phase.iter_mut().zip(r.times) {
            *p += t;
        }
    }
    report.set("dynamics.activations", "count", acts as f64);
    report.set("dynamics.moves", "count", moves as f64);
    report.set("dynamics.rounds", "count", rounds as f64);
    report.set("dynamics.seq_s", "s", phase[0].as_secs_f64());
    report.set("dynamics.sim_s", "s", phase[1].as_secs_f64());
    report.set("dynamics.measure_s", "s", phase[2].as_secs_f64());
    layers::work_counters(&total, report);
    for (alpha, stats) in &by_alpha {
        layers::oracle_ratios(stats, &format!(".alpha{alpha}"), report);
    }
    for class in [Class::Read, Class::Heavy] {
        let (v, n) = tracer.median_us(class.exec_span());
        report.set_n(&format!("session.exec_us.{}", class.name()), "us", v, n);
    }
    for class in [Class::Mutate, Class::BestResponse] {
        report.na(
            &format!("session.exec_us.{}", class.name()),
            "us",
            "the batch issues no such call outside the dynamics engines",
        );
    }
    layers::graph_rows(
        tracer,
        ran.iter()
            .map(|r| (&instances[r.k].game, &r.result.sim.profile)),
        report,
    );
    // The batch expressed as the requests a client would send to have
    // it served, with the responses it produced: the codec cost of
    // serving this workload.
    let mut tally = WireTally::default();
    let mut id = 0u64;
    for r in ran {
        let inst = &instances[r.k];
        let [link, stretch_cost, max_stretch, gap] = r.result.measures;
        let social = SocialCostBody {
            link_cost: link,
            stretch_cost,
            total: link + stretch_cost,
        };
        let pairs = [
            (
                SessionOp::Create(inst.spec.clone()),
                ResultBody::Created {
                    n: inst.game.n(),
                    alpha: inst.alpha,
                    links: inst.start.link_count(),
                    mode: BackendMode::Dense,
                },
            ),
            (
                SessionOp::RunDynamics(DynamicsSpec {
                    rule: DynamicsRule::Better,
                    max_rounds: Some(SEQ_ROUNDS),
                    tolerance: None,
                    detect_cycles: None,
                }),
                ResultBody::Dynamics(DynamicsBody {
                    termination: r.result.seq.termination.clone(),
                    steps: r.result.seq.steps,
                    moves: r.result.seq.moves,
                    social_cost: social,
                }),
            ),
            (SessionOp::SocialCost, ResultBody::SocialCost(social)),
            (SessionOp::Stretch, ResultBody::Stretch { max_stretch }),
            (
                SessionOp::NashGap { method: METHOD },
                ResultBody::NashGap { gap },
            ),
        ];
        for (op, body) in pairs {
            let req = Request::Session(SessionRequest {
                id: Some(id),
                session: format!("b{:04}", r.k),
                op,
            });
            let resp = Response::ok(Some(id), body);
            layers::wire_probe(tracer, None, &req, &resp, &mut tally);
            id += 1;
        }
    }
    layers::wire_report(tracer, &tally, report, problems);
    let no_server = "dynamics_batch runs no server";
    for (m, u) in crate::report::PER_LAYER {
        if m.starts_with("registry.")
            || m.starts_with("snapshot.")
            || m.starts_with("wal.")
            || m.starts_with("io.")
            || m.starts_with("obs.")
        {
            report.na(m, u, no_server);
        }
    }
}
