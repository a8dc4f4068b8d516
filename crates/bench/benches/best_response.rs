//! Benchmarks of the best-response solvers (E1/E4 kernel): the facility
//! location reduction under each solve strategy, plus the served Greedy
//! equilibrium check.
//!
//! The equilibrium check runs one `GameSession::nash_gap(Greedy)` on the
//! shape a served session starts from: 112 peers in the Euclidean
//! plane, a bidirectional ring, α = 2. Each peer's response is a lazy
//! greedy over lazily resolved candidate rows; a closed facility whose
//! score, carried over from an earlier pass, certifies it cannot win is
//! skipped unscored. The bench reports the machine-independent work of
//! that one call — facility scores, oracle sweeps, stale-score skips —
//! and **asserts** the greedy scores at least 3× fewer facilities than
//! the textbook greedy, which scores every closed facility every pass.
//! Snapshot committed as `BENCH_best_response.json`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use sp_core::{
    best_response, BestResponseMethod, Game, GameSession, PeerId, SessionStats, StrategyProfile,
};
use sp_metric::generators;

fn setup(n: usize) -> (Game, StrategyProfile) {
    let mut rng = StdRng::seed_from_u64(11);
    let space = generators::uniform_square(n, 100.0, &mut rng);
    let game = Game::from_space(&space, 4.0).expect("valid");
    // A plausible mid-dynamics profile: directed ring plus shortcuts.
    let mut links: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    links.extend((0..n).map(|i| (i, (i + n / 2) % n)));
    let profile = StrategyProfile::from_links(n, &links).expect("valid");
    (game, profile)
}

fn bench_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("best_response");
    for n in [12usize, 16, 24] {
        let (game, profile) = setup(n);
        for (name, method) in [
            ("exact_bb", BestResponseMethod::Exact),
            ("greedy", BestResponseMethod::Greedy),
            ("local_search", BestResponseMethod::LocalSearch),
        ] {
            group.bench_with_input(
                BenchmarkId::new(name, n),
                &(&game, &profile),
                |b, (game, profile)| {
                    b.iter(|| {
                        black_box(
                            best_response(game, profile, PeerId::new(0), method).expect("valid"),
                        )
                    });
                },
            );
        }
        // Enumeration only fits the smaller sizes.
        if n <= 16 {
            group.bench_with_input(
                BenchmarkId::new("exact_enumeration", n),
                &(&game, &profile),
                |b, (game, profile)| {
                    b.iter(|| {
                        black_box(
                            best_response(
                                game,
                                profile,
                                PeerId::new(0),
                                BestResponseMethod::ExactEnumeration,
                            )
                            .expect("valid"),
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

/// Peers in a served session (`sp_serve::workload` creates 112).
const SERVED_N: usize = 112;

/// The served starting shape: uniform points in the plane, a
/// bidirectional ring, α = 2.
fn served_instance() -> (Game, StrategyProfile) {
    let n = SERVED_N;
    let mut rng = StdRng::seed_from_u64(7);
    let space = generators::uniform_square(n, 100.0, &mut rng);
    let game = Game::from_space(&space, 2.0).expect("valid placement");
    let links: Vec<(usize, usize)> = (0..n)
        .flat_map(|p| [(p, (p + 1) % n), ((p + 1) % n, p)])
        .collect();
    let profile = StrategyProfile::from_links(n, &links).expect("valid links");
    (game, profile)
}

/// One Greedy `nash_gap` on a fresh session, with the session's work.
fn greedy_gap(game: &Game, profile: &StrategyProfile) -> (f64, SessionStats) {
    let mut session = GameSession::new(game.clone(), profile.clone()).expect("sizes match");
    let gap = session
        .nash_gap(BestResponseMethod::Greedy)
        .expect("in bounds");
    (gap, session.stats())
}

fn bench_served_nash_gap(c: &mut Criterion) {
    let (game, profile) = served_instance();
    let mut group = c.benchmark_group("served_nash_gap");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("greedy", SERVED_N), &SERVED_N, |b, _| {
        b.iter(|| black_box(greedy_gap(&game, &profile)))
    });
    group.finish();

    let (gap, stats) = greedy_gap(&game, &profile);
    let sweeps = stats.full_sssp + stats.seq_oracle_swept;
    let textbook = stats.lazy_greedy_scores + stats.lazy_stale_skips;
    println!(
        "served nash_gap(Greedy) = {gap}: {} facility scores, {} stale-score skips \
         ({textbook} textbook scores), {sweeps} oracle sweeps",
        stats.lazy_greedy_scores, stats.lazy_stale_skips,
    );
    c.report_value(
        &format!("greedy_scores/{SERVED_N}"),
        stats.lazy_greedy_scores as f64,
        "count",
    );
    c.report_value(
        &format!("oracle_sweeps/{SERVED_N}"),
        sweeps as f64,
        "sweeps",
    );
    c.report_value(
        &format!("stale_skips/{SERVED_N}"),
        stats.lazy_stale_skips as f64,
        "hits",
    );
    assert!(
        3 * stats.lazy_greedy_scores <= textbook,
        "stale-score skips should spare at least 2/3 of the textbook scores: {stats:?}"
    );
}

criterion_group!(benches, bench_methods, bench_served_nash_gap);
criterion_main!(benches);
