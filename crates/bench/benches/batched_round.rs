//! Batched vs per-move cache repair on one simultaneous round.
//!
//! Scenario (the workload `GameSession::apply_batch` was built for): a
//! round of simultaneous-move dynamics where k peers switch strategies
//! at once. The per-move path commits each accepted update through
//! [`GameSession::apply`] — k CSR rebuilds and k repair scans over the
//! valid rows. The batched path commits the identical updates through
//! one [`GameSession::apply_batch`] — a single rebuild and a single
//! repair pass against the union of changed links.
//!
//! Besides the wall-clock comparison (snapshot committed as
//! `BENCH_batched_apply.json`), the bench reports each path's CSR
//! rebuilds, repair-scan row visits and full sweeps as counters
//! (`bench_check --compare` gates them) and asserts the ratios: ≥ 2×
//! fewer CSR rebuilds and strictly fewer repair-scan row visits for the
//! batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use sp_core::{BestResponseMethod, Game, GameSession, Move, PeerId, SessionStats, StrategyProfile};
use sp_metric::generators;

const METHOD: BestResponseMethod = BestResponseMethod::Greedy;

fn instance(n: usize, seed: u64) -> (Game, StrategyProfile) {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = generators::uniform_square(n, 100.0, &mut rng);
    let game = Game::from_space(&space, 4.0).expect("valid placement");
    // A sparse random starting overlay (~3 out-links per peer) so the
    // round performs a realistic mix of adds, drops, and rewires.
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
    (game, profile)
}

/// The accepted updates of one simultaneous round: every peer's response
/// against the same starting profile.
fn round_moves(game: &Game, start: &StrategyProfile) -> Vec<Move> {
    let mut session = GameSession::new(game.clone(), start.clone()).expect("sizes match");
    (0..game.n())
        .filter_map(|i| {
            let peer = PeerId::new(i);
            let br = session.best_response(peer, METHOD).expect("valid");
            (br.improves(1e-9) && &br.links != session.profile().strategy(peer)).then_some(
                Move::SetStrategy {
                    peer,
                    links: br.links,
                },
            )
        })
        .collect()
}

/// Warm session, stats reset, so the counters cover only the commit.
/// Built once per instance; the timed loops clone it (a flat memcpy)
/// instead of re-paying the n cold sweeps inside every sample.
fn warm_session(game: &Game, start: &StrategyProfile) -> GameSession {
    let mut session = GameSession::new(game.clone(), start.clone()).expect("sizes match");
    let _ = session.social_cost();
    session.reset_stats();
    session
}

fn commit_per_move(warm: &GameSession, moves: &[Move]) -> (f64, SessionStats) {
    let mut session = warm.clone();
    for mv in moves {
        session.apply(mv.clone()).expect("valid");
    }
    (session.social_cost().total(), session.stats())
}

fn commit_batched(warm: &GameSession, moves: &[Move]) -> (f64, SessionStats) {
    let mut session = warm.clone();
    session.apply_batch(moves).expect("valid");
    (session.social_cost().total(), session.stats())
}

fn bench_batched_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("simultaneous_round_commit");
    group.sample_size(10);
    for n in [32usize, 64] {
        let (game, start) = instance(n, 42);
        let moves = round_moves(&game, &start);
        let warm = warm_session(&game, &start);
        group.bench_with_input(BenchmarkId::new("per_move", n), &n, |b, _| {
            b.iter(|| commit_per_move(&warm, &moves));
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
            b.iter(|| commit_batched(&warm, &moves));
        });
    }
    group.finish();

    // Report the counters once, outside the timed loops.
    for n in [32usize, 64] {
        let (game, start) = instance(n, 42);
        let moves = round_moves(&game, &start);
        let warm = warm_session(&game, &start);
        assert!(
            moves.len() >= 2,
            "instance must accept a multi-move round, got {}",
            moves.len()
        );
        let (cost_seq, per_move) = commit_per_move(&warm, &moves);
        let (cost_bat, batched) = commit_batched(&warm, &moves);
        let agree = (cost_seq.is_infinite() && cost_bat.is_infinite())
            || (cost_seq - cost_bat).abs() <= 1e-6 * (1.0 + cost_seq.abs());
        assert!(
            agree,
            "paths disagree on the committed cost: {cost_seq} vs {cost_bat}"
        );
        let rebuild_ratio = per_move.csr_rebuilds as f64 / batched.csr_rebuilds.max(1) as f64;
        let visits_per_move = per_move.rows_invalidated + per_move.rows_preserved;
        let visits_batched = batched.rows_invalidated + batched.rows_preserved;
        println!(
            "n={n}: {} accepted moves; CSR rebuilds {} vs {} ({rebuild_ratio:.1}x fewer); \
             repair-scan row visits {visits_per_move} vs {visits_batched}; full sweeps \
             afterwards {} vs {}",
            moves.len(),
            per_move.csr_rebuilds,
            batched.csr_rebuilds,
            per_move.full_sssp,
            batched.full_sssp,
        );
        for (path, stats, visits) in [
            ("per_move", per_move, visits_per_move),
            ("batched", batched, visits_batched),
        ] {
            c.report_value(
                &format!("csr_rebuilds/{path}/{n}"),
                stats.csr_rebuilds as f64,
                "rebuilds",
            );
            c.report_value(
                &format!("repair_visits/{path}/{n}"),
                visits as f64,
                "visits",
            );
            c.report_value(
                &format!("full_sweeps/{path}/{n}"),
                stats.full_sssp as f64,
                "sweeps",
            );
        }
        assert!(
            rebuild_ratio >= 2.0,
            "batch must save at least 2x the CSR rebuilds, got {rebuild_ratio:.2}x"
        );
        assert!(
            visits_batched < visits_per_move,
            "batch must visit fewer rows in repair scans: {visits_batched} vs {visits_per_move}"
        );
    }
}

criterion_group!(benches, bench_batched_round);
criterion_main!(benches);
