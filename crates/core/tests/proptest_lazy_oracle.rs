//! Property tests pinning the session's lazy certified-bound oracle to
//! the fresh-oracle reference.
//!
//! A dense [`GameSession`] serves `first_improving_move` and every
//! [`BestResponseMethod::Greedy`] query (`best_response`, `nash_gap`,
//! `best_responses_round`) from lazily resolved candidate rows: each row
//! starts as a certified lower bound (a dirty overlay row or the deflated
//! metric row) and pays an exact `G_{-i}` sweep only while its bound can
//! still win. None of that may change a bit of any answer. Every query
//! here is compared **bitwise** against the `*_uncached` reference, which
//! sweeps a fresh `G_{-i}` oracle per call, over:
//!
//! * line, Euclidean and validated explicit-matrix games;
//! * interleaved `apply` scripts, querying both peers a move names before
//!   and after it — including the apply → same-peer monitor pattern;
//! * fresh sessions whose every overlay row is still invalid, so every
//!   bound starts from the metric;
//! * one-shard and `k`-shard simultaneous rounds.

use proptest::prelude::*;
use rand::prelude::*;
use sp_core::{
    BestResponse, BestResponseMethod, Game, GameSession, LinkSet, Move, PeerId, StrategyProfile,
};
use sp_graph::DistanceMatrix;
use sp_metric::{generators, LineSpace};

const GREEDY: BestResponseMethod = BestResponseMethod::Greedy;
const TOL: f64 = 1e-9;

/// CI's determinism matrix sets `SP_TEST_PARALLELISM` to pin every
/// shard-count parameter these tests would otherwise draw.
fn forced_parallelism() -> Option<usize> {
    std::env::var("SP_TEST_PARALLELISM").ok()?.parse().ok()
}

/// A game of `n` peers from `seed` over one of three geometries: a line
/// (`0`), the Euclidean plane (`1`), or the metric closure of a random
/// weight matrix, validated like an `sp-serve` matrix spec (`2`).
fn game_for(kind: u8, n: usize, seed: u64, alpha: f64) -> Game {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        0 => {
            let positions: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..100.0)).collect();
            let space = LineSpace::new(positions).expect("distinct with probability 1");
            Game::from_space(&space, alpha).unwrap()
        }
        1 => Game::from_space(&generators::uniform_square(n, 100.0, &mut rng), alpha).unwrap(),
        _ => {
            let mut w = DistanceMatrix::new_filled(n, 0.0);
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = rng.random_range(1.0..50.0);
                    w[(i, j)] = d;
                    w[(j, i)] = d;
                }
            }
            let game = Game::from_space(&generators::metric_closure(&w), alpha).unwrap();
            game.check_triangle_inequality()
                .expect("a metric closure passes the serve-side validation");
            game
        }
    }
}

/// A random game, starting profile and `(kind, from, to)` move script.
#[allow(clippy::type_complexity)]
fn arb_instance() -> impl Strategy<Value = (Game, StrategyProfile, Vec<(u8, usize, usize)>)> {
    (0u8..3, 2usize..=8, 0u64..10_000, 0.1f64..8.0).prop_flat_map(|(kind, n, seed, alpha)| {
        let max_links = (n * (n - 1)).min(18);
        (
            proptest::collection::vec((0..n, 0..n), 0..=max_links),
            proptest::collection::vec((0u8..3, 0..n, 0..n), 1..10),
        )
            .prop_map(move |(pairs, script)| {
                let game = game_for(kind, n, seed, alpha);
                let links: Vec<(usize, usize)> =
                    pairs.into_iter().filter(|&(u, v)| u != v).collect();
                let profile = StrategyProfile::from_links(n, &links).unwrap();
                (game, profile, script)
            })
    })
}

fn script_move(n: usize, kind: u8, from: usize, to: usize) -> Option<Move> {
    if from == to {
        return None;
    }
    let (from_p, to_p) = (PeerId::new(from), PeerId::new(to));
    Some(match kind {
        0 => Move::AddLink {
            from: from_p,
            to: to_p,
        },
        1 => Move::RemoveLink {
            from: from_p,
            to: to_p,
        },
        _ => {
            let links: LinkSet = (0..n)
                .filter(|&v| v != from && !(v + to).is_multiple_of(3))
                .collect();
            Move::SetStrategy {
                peer: from_p,
                links,
            }
        }
    })
}

fn same_response(
    what: &str,
    got: Option<&BestResponse>,
    want: Option<&BestResponse>,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (None, None) => Ok(()),
        (Some(a), Some(b)) => {
            prop_assert_eq!(a.peer, b.peer, "{}", what);
            prop_assert_eq!(&a.links, &b.links, "{}: links for {:?}", what, a.peer);
            prop_assert_eq!(
                a.cost.to_bits(),
                b.cost.to_bits(),
                "{}: cost for {:?}: {} vs {}",
                what,
                a.peer,
                a.cost,
                b.cost
            );
            prop_assert_eq!(
                a.current_cost.to_bits(),
                b.current_cost.to_bits(),
                "{}: current cost",
                what
            );
            prop_assert_eq!(a.exact, b.exact, "{}", what);
            Ok(())
        }
        _ => Err(TestCaseError::Fail(format!(
            "{what}: cached {got:?} vs uncached {want:?}"
        ))),
    }
}

/// Cached better response and Greedy best response of `peer` against
/// the uncached reference, on the same session (the reference never
/// reads or writes the oracle cache).
fn check_peer(s: &mut GameSession, peer: PeerId) -> Result<(), TestCaseError> {
    let mv = s.first_improving_move(peer, TOL).unwrap();
    let want = s.first_improving_move_uncached(peer, TOL).unwrap();
    same_response("first_improving_move", mv.as_ref(), want.as_ref())?;
    let br = s.best_response(peer, GREEDY).unwrap();
    let want = s.best_response_uncached(peer, GREEDY).unwrap();
    same_response("greedy best_response", Some(&br), Some(&want))
}

/// `nash_gap(Greedy)` as the uncached reference computes it.
fn uncached_gap(s: &mut GameSession) -> f64 {
    let mut gap = 0.0f64;
    for i in 0..s.n() {
        let imp = s
            .best_response_uncached(PeerId::new(i), GREEDY)
            .unwrap()
            .improvement();
        if imp > gap {
            gap = imp;
        }
    }
    gap
}

fn uncached_round(game: &Game, profile: &StrategyProfile) -> Vec<BestResponse> {
    let mut fresh = GameSession::from_refs(game, profile).unwrap();
    (0..game.n())
        .map(|i| {
            fresh
                .best_response_uncached(PeerId::new(i), GREEDY)
                .unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interleaved apply scripts: both peers a move names are queried
    /// before it, the mover again right after it (the apply → same-peer
    /// monitor pattern), and every peer plus `nash_gap` at the end.
    #[test]
    fn lazy_queries_are_bitwise_uncached_across_applies(
        (game, profile, script) in arb_instance(),
    ) {
        let n = game.n();
        let mut s = GameSession::from_refs(&game, &profile).unwrap();
        for &(kind, from, to) in &script {
            check_peer(&mut s, PeerId::new(from))?;
            check_peer(&mut s, PeerId::new(to))?;
            if let Some(mv) = script_move(n, kind, from, to) {
                s.apply(mv).unwrap();
            }
            check_peer(&mut s, PeerId::new(from))?;
        }
        for i in 0..n {
            check_peer(&mut s, PeerId::new(i))?;
        }
        let gap = s.nash_gap(GREEDY).unwrap();
        prop_assert_eq!(gap.to_bits(), uncached_gap(&mut s).to_bits());
        // Every lazy query accounts each candidate row at most once.
        let stats = s.stats();
        prop_assert!(stats.seq_oracle_hits + stats.seq_oracle_swept <= stats.oracle_builds * (n - 1));
    }

    /// Fresh sessions: every overlay row is invalid when the first cached
    /// query runs, so every bound starts as the deflated metric row.
    #[test]
    fn lazy_queries_on_fresh_sessions_are_bitwise_uncached(
        (game, profile, _script) in arb_instance(),
    ) {
        let mut reference = GameSession::from_refs(&game, &profile).unwrap();
        for i in 0..game.n() {
            let peer = PeerId::new(i);
            let mut cold = GameSession::from_refs(&game, &profile).unwrap();
            let mv = cold.first_improving_move(peer, TOL).unwrap();
            let want = reference.first_improving_move_uncached(peer, TOL).unwrap();
            same_response("cold first_improving_move", mv.as_ref(), want.as_ref())?;
            let mut cold = GameSession::from_refs(&game, &profile).unwrap();
            let br = cold.best_response(peer, GREEDY).unwrap();
            let want = reference.best_response_uncached(peer, GREEDY).unwrap();
            same_response("cold greedy best_response", Some(&br), Some(&want))?;
        }
        let mut cold = GameSession::from_refs(&game, &profile).unwrap();
        let gap = cold.nash_gap(GREEDY).unwrap();
        prop_assert_eq!(gap.to_bits(), uncached_gap(&mut reference).to_bits());
    }

    /// Greedy simultaneous rounds, one shard and `k` shards, after an
    /// apply script, against per-peer uncached responses on a fresh
    /// session.
    #[test]
    fn lazy_greedy_rounds_are_bitwise_uncached(
        (game, profile, script) in arb_instance(),
        shards in 2usize..6,
    ) {
        let n = game.n();
        let peers: Vec<PeerId> = (0..n).map(PeerId::new).collect();
        for workers in [1, forced_parallelism().unwrap_or(shards)] {
            let mut s = GameSession::from_refs(&game, &profile).unwrap();
            s.set_parallelism(Some(workers));
            for &(kind, from, to) in &script {
                if let Some(mv) = script_move(n, kind, from, to) {
                    s.apply(mv).unwrap();
                }
                let round = s.best_responses_round(&peers, GREEDY).unwrap();
                let want = uncached_round(&game, s.profile());
                for (got, want) in round.iter().zip(&want) {
                    same_response("greedy round", Some(got), Some(want))?;
                }
            }
        }
    }
}

/// Rounding regression: on these line positions the stored latency
/// `fl(c − a)` exceeds the shortest-path sum `fl(fl(b − a) + fl(c − b))`
/// by one ulp, so an undeflated metric row is not a lower bound on the
/// residual row through `a`. The cached answers must still be the
/// uncached ones, for every peer, on a fresh session and after applies.
#[test]
fn metric_bound_survives_a_float_triangle_violation() {
    let (a, b, c) = (
        3.845_338_943_564_591_3,
        33.387_954_726_624_71,
        98.692_248_909_096_89,
    );
    assert!(
        c - a > (b - a) + (c - b),
        "the triple must break the float triangle"
    );
    let positions = vec![a, b, c, 150.0, 0.5];
    let chain = [
        (0, 1),
        (1, 0),
        (1, 2),
        (2, 1),
        (2, 3),
        (3, 2),
        (4, 0),
        (0, 4),
    ];
    for alpha in [0.01, 0.5, 1.0, 4.0] {
        let game = Game::from_space(&LineSpace::new(positions.clone()).unwrap(), alpha).unwrap();
        let profile = StrategyProfile::from_links(5, &chain).unwrap();
        for peer in 0..5 {
            let peer = PeerId::new(peer);
            let mut cold = GameSession::from_refs(&game, &profile).unwrap();
            check_peer(&mut cold, peer).unwrap();
            let mut warm = GameSession::from_refs(&game, &profile).unwrap();
            let _ = warm.social_cost();
            warm.apply(Move::RemoveLink {
                from: PeerId::new(4),
                to: PeerId::new(0),
            })
            .unwrap();
            check_peer(&mut warm, peer).unwrap();
        }
    }
}

/// The apply → same-peer monitor loop the serve layer runs: the hot
/// peer's own edits dirty the rows its next query reads.
#[test]
fn monitor_pattern_stays_bitwise_uncached() {
    let mut rng = StdRng::seed_from_u64(7);
    let game = Game::from_space(&generators::uniform_square(24, 100.0, &mut rng), 2.0).unwrap();
    let ring: Vec<(usize, usize)> = (0..24)
        .flat_map(|p| [(p, (p + 1) % 24), ((p + 1) % 24, p)])
        .collect();
    let mut s = GameSession::new(game, StrategyProfile::from_links(24, &ring).unwrap()).unwrap();
    let hot = PeerId::new(5);
    for k in 0..16 {
        let br = s.best_response(hot, GREEDY).unwrap();
        let want = s.best_response_uncached(hot, GREEDY).unwrap();
        same_response("monitor best_response", Some(&br), Some(&want)).unwrap();
        let t = PeerId::new((9 + 7 * k) % 24);
        let links = if t == hot {
            br.links
        } else if br.links.contains(t) {
            br.links.without(t)
        } else {
            br.links.with(t)
        };
        s.apply(Move::SetStrategy { peer: hot, links }).unwrap();
        check_peer(&mut s, hot).unwrap();
    }
    let stats = s.stats();
    assert!(
        stats.lazy_certified_rejects > 0 && stats.lazy_exact_evals > 0,
        "the monitor loop must exercise both bound outcomes: {stats:?}"
    );
}
