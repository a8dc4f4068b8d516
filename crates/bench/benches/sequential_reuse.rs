//! Persistent oracle cache vs fresh oracles on a sequential dynamics run.
//!
//! Scenario (the workload the cross-move `OracleCache` was built for,
//! ROADMAP open item #1 of PR 3): a full sequential **better-response**
//! dynamics run — the paper's Section-5 low-churn dynamic, where every
//! accepted move is a single-link drop/add/swap — on a 64-peer α = 1
//! instance, two best-response rounds into the run. The pre-cache
//! engine (`DynamicsConfig { oracle_reuse: false }`) sweeps a fresh
//! `G_{-i}` oracle per activation — `n - 1` Dijkstra sweeps each, every
//! activation, forever. The cached engine runs the lazy certified-bound
//! scan over the session's persistent two-tier cache: each candidate row
//! starts as a lower bound (a valid but dirty overlay row, else the
//! deflated metric row), candidate moves whose bound cannot improve are
//! rejected on it, and only survivors pay for exact rows — overlay rows
//! that survived `apply` clean, residual `G_{-i}` rows retained across
//! moves, or a fresh sweep that the residual tier then keeps. No overlay
//! row is refilled up front, and residual rows are swept on the
//! session's own overlay CSR, so `apply` repairs them instead of
//! dropping the whole tier. Measured on this instance: 10.5× fewer
//! sweeps than the fresh engine (5.4× while every `apply` dropped the
//! residual tier, 2.6× when every row was made exact up front); the
//! gate below asserts 2×.
//!
//! Wall-clock is machine-dependent, so besides the timed comparison the
//! bench reports and **asserts** the machine-independent metric: total
//! oracle SSSP sweeps over the whole run must drop by at least 2×, with
//! both engines producing bit-identical runs. Snapshot committed as
//! `BENCH_sequential_reuse.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use sp_core::{BestResponseMethod, Game, GameSession, SessionStats, StrategyProfile};
use sp_dynamics::{DynamicsConfig, DynamicsOutcome, DynamicsRunner, ResponseRule};
use sp_metric::generators;

/// Warm-up method only: the measured run plays better responses.
const METHOD: BestResponseMethod = BestResponseMethod::Greedy;
const N: usize = 64;
const MAX_ROUNDS: usize = 12;

fn instance(n: usize, seed: u64) -> (Game, StrategyProfile) {
    instance_at_alpha(n, seed, 1.0)
}

fn instance_at_alpha(n: usize, seed: u64, alpha: f64) -> (Game, StrategyProfile) {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = generators::uniform_square(n, 100.0, &mut rng);
    let game = Game::from_space(&space, alpha).expect("valid placement");
    // A sparse random starting overlay (~3 out-links per peer): the run
    // then performs a realistic mix of adds, drops, and rewires before
    // settling.
    let links: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| {
            let mut rng = StdRng::seed_from_u64(seed ^ (i as u64) << 32);
            (0..3)
                .map(move |_| (i, rng.random_range(0..n)))
                .collect::<Vec<_>>()
        })
        .filter(|&(a, b)| a != b)
        .collect();
    let profile = StrategyProfile::from_links(n, &links).expect("valid links");
    // Advance two sequential rounds so the monitored run starts from an
    // overlay with best-response structure (the steady state a long run
    // spends its time in), mirroring the parallel_round methodology.
    let warmup = DynamicsConfig {
        rule: ResponseRule::BestResponseWith(METHOD),
        max_rounds: 2,
        detect_cycles: false,
        ..DynamicsConfig::default()
    };
    let profile = DynamicsRunner::new(&game, warmup).run(profile).profile;
    (game, profile)
}

fn run_engine(
    game: &Game,
    start: &StrategyProfile,
    oracle_reuse: bool,
) -> (DynamicsOutcome, SessionStats) {
    let config = DynamicsConfig {
        rule: ResponseRule::BetterResponse,
        max_rounds: MAX_ROUNDS,
        oracle_reuse,
        ..DynamicsConfig::default()
    };
    let mut session = GameSession::new(game.clone(), start.clone()).expect("sizes match");
    let mut runner = DynamicsRunner::new(game, config);
    let out = runner.run_session(&mut session);
    (out, session.stats())
}

/// Total single-source sweeps an engine paid across the run: cache
/// fills (`full_sssp`) plus oracle candidate sweeps — all `n - 1` per
/// build for the fresh engine, only the rows whose bound could still win
/// (and no tier served) for the cached one.
fn oracle_sweeps(stats: &SessionStats, n: usize, fresh_oracles: bool) -> usize {
    let oracle = if fresh_oracles {
        stats.oracle_builds * (n - 1)
    } else {
        stats.seq_oracle_swept
    };
    stats.full_sssp + oracle
}

fn bench_sequential_reuse(c: &mut Criterion) {
    let (game, start) = instance(N, 42);

    let mut group = c.benchmark_group("sequential_dynamics_oracles");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("fresh", N), &N, |b, _| {
        b.iter(|| run_engine(&game, &start, false));
    });
    group.bench_with_input(BenchmarkId::new("cached", N), &N, |b, _| {
        b.iter(|| run_engine(&game, &start, true));
    });
    group.finish();

    // Verify the engines agree and report the counters once, outside the
    // timed loops.
    let (fresh_out, fresh_stats) = run_engine(&game, &start, false);
    let (cached_out, cached_stats) = run_engine(&game, &start, true);
    assert_eq!(fresh_out.profile, cached_out.profile, "engines diverged");
    assert_eq!(fresh_out.termination, cached_out.termination);
    assert_eq!(fresh_out.steps, cached_out.steps);
    assert_eq!(fresh_out.moves, cached_out.moves);

    let fresh_sweeps = oracle_sweeps(&fresh_stats, N, true);
    let cached_sweeps = oracle_sweeps(&cached_stats, N, false);
    let reduction = fresh_sweeps as f64 / cached_sweeps.max(1) as f64;
    let rejects = cached_stats.lazy_certified_rejects;
    let evals = cached_stats.lazy_exact_evals;
    println!(
        "n={N}: {} activations, {} moves; oracle SSSP sweeps {fresh_sweeps} (fresh) vs \
         {cached_sweeps} (cached: {} fills + {} fallback sweeps, {rejects} candidate moves \
         rejected on a certified bound, {evals} escalated to exact rows, {} residual rows \
         invalidated by repairs) — {reduction:.1}x less work",
        cached_out.steps,
        cached_out.moves,
        cached_stats.full_sssp,
        cached_stats.seq_oracle_swept,
        cached_stats.seq_oracle_invalidated,
    );
    c.report_value(
        &format!("seq_oracle_sweeps/fresh/{N}"),
        fresh_sweeps as f64,
        "sweeps",
    );
    c.report_value(
        &format!("seq_oracle_sweeps/cached/{N}"),
        cached_sweeps as f64,
        "sweeps",
    );
    c.report_value(&format!("seq_oracle_sweeps/reduction/{N}"), reduction, "x");
    c.report_value(
        &format!("seq_lazy_certified_rejects/{N}"),
        rejects as f64,
        "hits",
    );
    c.report_value(&format!("seq_lazy_exact_evals/{N}"), evals as f64, "count");
    assert!(
        reduction >= 2.0,
        "the persistent oracle cache must cut sequential oracle SSSP work at least 2x, \
         got {reduction:.2}x ({fresh_sweeps} vs {cached_sweeps})"
    );

    bench_monitored_mover(c, &game, &start);
    bench_monitored_refills(c, &game, &start);
    bench_lazy_oracle(c);
}

const MONITOR_STEPS: usize = 24;

/// The *monitoring* loop: mutate one hot peer, then immediately query
/// that peer's best response — the `sp-serve` pattern of an `apply`
/// followed by a same-peer `best_response`.
fn monitor(session: &mut GameSession, method: BestResponseMethod) {
    for k in 0..MONITOR_STEPS {
        let peer = sp_core::PeerId::new(7);
        let br = session.best_response(peer, method).expect("in bounds");
        // Perturb the hot peer's links deterministically so every step
        // invalidates rows tight on its out-links.
        let t = sp_core::PeerId::new((11 + 5 * k) % N);
        let links = if t == peer {
            br.links
        } else if br.links.contains(t) {
            br.links.without(t)
        } else {
            br.links.with(t)
        };
        session
            .apply(sp_core::Move::SetStrategy { peer, links })
            .expect("in bounds");
    }
}

/// The monitoring loop on the default Greedy path: the lazy oracle
/// refills no overlay row up front, so the mover's own edits cost only
/// the rows whose bound could still win. Gated counters: total monitor
/// sweeps (must not regress) and the bound outcomes.
fn bench_monitored_mover(c: &mut Criterion, game: &Game, start: &StrategyProfile) {
    let mut group = c.benchmark_group("monitored_mover");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("cached", N), &N, |b, _| {
        b.iter(|| {
            let mut s = GameSession::new(game.clone(), start.clone()).expect("sizes match");
            monitor(&mut s, METHOD);
        });
    });
    group.finish();

    let mut session = GameSession::new(game.clone(), start.clone()).expect("sizes match");
    monitor(&mut session, METHOD);
    let stats = session.stats();
    let sweeps = stats.full_sssp + stats.seq_oracle_swept;
    println!(
        "monitored mover: {MONITOR_STEPS} apply+query steps — {} row fills, {} fallback \
         sweeps, {} candidate scores rejected on a certified bound, {} escalated",
        stats.full_sssp,
        stats.seq_oracle_swept,
        stats.lazy_certified_rejects,
        stats.lazy_exact_evals,
    );
    c.report_value(
        &format!("monitor_oracle_sweeps/{N}"),
        sweeps as f64,
        "sweeps",
    );
    c.report_value(
        &format!("monitor_lazy_certified_rejects/{N}"),
        stats.lazy_certified_rejects as f64,
        "hits",
    );
    c.report_value(
        &format!("monitor_lazy_exact_evals/{N}"),
        stats.lazy_exact_evals as f64,
        "count",
    );
    assert!(
        stats.lazy_certified_rejects > stats.lazy_exact_evals,
        "certified bounds should settle most candidate scores here: {stats:?}"
    );
}

/// The lazy-refill scenario (ROADMAP open item resolved in PR 5) on a
/// method whose oracle still makes every candidate row exact up front
/// (local search). The mover's own edits invalidate overlay rows that
/// its retained residual rows (which ignore the mover's links by
/// construction) survive, so `ensure_rows_for_oracle` skips their
/// refills instead of re-sweeping rows the oracle build would then
/// ignore. Gated counters: total monitor sweeps (must not regress) and
/// the fraction of refills skipped (must stay high).
fn bench_monitored_refills(c: &mut Criterion, game: &Game, start: &StrategyProfile) {
    const REFILL_METHOD: BestResponseMethod = BestResponseMethod::LocalSearch;
    let mut session = GameSession::new(game.clone(), start.clone()).expect("sizes match");
    monitor(&mut session, REFILL_METHOD);
    let stats = session.stats();
    let sweeps = stats.full_sssp + stats.seq_oracle_swept;
    let skip_rate = stats.seq_refills_skipped as f64
        / (stats.seq_refills_skipped + stats.full_sssp).max(1) as f64;
    println!(
        "monitored mover (local search): {MONITOR_STEPS} apply+rebuild steps — {} refills \
         paid, {} skipped ({:.1}% of invalid rows served residual-first), {} fallback sweeps",
        stats.full_sssp,
        stats.seq_refills_skipped,
        skip_rate * 100.0,
        stats.seq_oracle_swept,
    );
    c.report_value(
        &format!("monitor_oracle_sweeps/local_search/{N}"),
        sweeps as f64,
        "sweeps",
    );
    c.report_value(
        &format!("monitor_refill_skip_rate/local_search/{N}"),
        skip_rate,
        "ratio",
    );
    assert!(
        stats.seq_refills_skipped > 0,
        "the monitoring pattern must exercise the lazy refill: {stats:?}"
    );
    assert!(
        skip_rate > 0.5,
        "lazy refills should absorb most invalidations here, got {skip_rate:.2}"
    );
}

/// The certified-lower-bound oracle at α = 4, the regime where
/// cross-move row reuse is weakest, so bound-driven rejection matters
/// most: `first_improving_move` rejects hopeless candidates from a
/// certified bound without materialising their exact `G_{-i}` rows, and
/// pays exact evaluation only for survivors — bit-identically to the
/// fresh-oracle engine. The gated counters: candidates absorbed by the
/// certified bound (`hits`, must stay high), exact evaluations paid
/// (`count`, must not regress), and their ratio as the headline
/// reduction (`x`).
fn bench_lazy_oracle(c: &mut Criterion) {
    const ALPHA: f64 = 4.0;
    let (game, start) = instance_at_alpha(N, 42, ALPHA);

    let mut group = c.benchmark_group("lazy_oracle_dynamics");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("lazy", N), &N, |b, _| {
        b.iter(|| run_engine(&game, &start, true));
    });
    group.finish();

    let (fresh_out, _) = run_engine(&game, &start, false);
    let (lazy_out, lazy_stats) = run_engine(&game, &start, true);
    assert_eq!(fresh_out.profile, lazy_out.profile, "lazy oracle diverged");
    assert_eq!(fresh_out.termination, lazy_out.termination);
    assert_eq!(fresh_out.steps, lazy_out.steps);
    assert_eq!(fresh_out.moves, lazy_out.moves);

    let rejects = lazy_stats.lazy_certified_rejects;
    let evals = lazy_stats.lazy_exact_evals;
    let reduction = (rejects + evals) as f64 / evals.max(1) as f64;
    println!(
        "lazy oracle (alpha={ALPHA}): {} activations — {} candidates certified away, \
         {} exact evaluations paid ({reduction:.1}x fewer evals than an eager scan)",
        lazy_out.steps, rejects, evals,
    );
    c.report_value(
        &format!("lazy_certified_rejects/{N}"),
        rejects as f64,
        "hits",
    );
    c.report_value(&format!("lazy_exact_evals/{N}"), evals as f64, "count");
    c.report_value(&format!("lazy_eval_reduction/{N}"), reduction, "x");
    assert!(
        rejects > 0 && evals > 0,
        "the lazy scan must both reject and evaluate: {lazy_stats:?}"
    );
    assert!(
        reduction >= 1.5,
        "certified bounds must absorb a meaningful share of candidate evaluations, \
         got {reduction:.2}x ({rejects} rejects vs {evals} evals)"
    );
}

criterion_group!(benches, bench_sequential_reuse);
criterion_main!(benches);
