//! Property tests pinning the certified equilibrium scan to the
//! solve-every-peer reference.
//!
//! A dense [`GameSession`] answers `nash_gap` and `is_nash` by solving
//! best responses only for peers whose certified improvement bound can
//! still change the answer. The reference here is the loop the scan
//! replaces: one `best_response_uncached` per peer (a fresh `G_{-i}`
//! oracle each), the running maximum for the gap, and an ascending scan
//! that keeps the first strictly larger improving deviation. Answers
//! must agree **bitwise** — the gap, and the deviation's peer, links
//! and both costs — for Greedy and LocalSearch up to 24 peers and Exact
//! up to 10, over:
//!
//! * random profiles, which often leave some peer with infinite cost;
//! * profiles settled by best-response dynamics under the tested
//!   method, mostly equilibria with gap 0;
//! * tie-heavy symmetric instances — an evenly spaced line with a path
//!   overlay, a regular polygon with a ring overlay, a square grid —
//!   where several peers share the largest improvement;
//! * the empty profile, where every peer's improvement is infinite.

use proptest::prelude::*;
use rand::prelude::*;
use sp_core::{
    BestResponse, BestResponseMethod, Game, GameSession, LinkSet, Move, NashTest, PeerId,
    StrategyProfile,
};
use sp_metric::{generators, Euclidean2D, LineSpace, Point2};

/// The tested methods with the largest `n` each runs at.
const METHODS: [(BestResponseMethod, usize); 3] = [
    (BestResponseMethod::Greedy, 24),
    (BestResponseMethod::LocalSearch, 24),
    (BestResponseMethod::Exact, 10),
];

/// Every peer linked to both neighbours on a cycle (`ring`) or a path.
fn neighbour_links(n: usize, ring: bool) -> Vec<(usize, usize)> {
    let edges = if ring { n } else { n - 1 };
    (0..edges)
        .flat_map(|p| [(p, (p + 1) % n), ((p + 1) % n, p)])
        .filter(|&(a, b)| a != b)
        .collect()
}

/// A game and starting profile for `shape`:
///
/// * `0` — uniform points in the plane, random links;
/// * `1` — a random line, random links;
/// * `2` — an evenly spaced line with a bidirectional path;
/// * `3` — a regular polygon with a bidirectional ring;
/// * `4` — a square grid with a bidirectional snake through it;
/// * `5` — uniform points in the plane, the empty profile;
/// * `6` — a regular polygon, the complete profile.
fn instance(shape: u8, n: usize, seed: u64, alpha: f64, density: usize) -> (Game, StrategyProfile) {
    let mut rng = StdRng::seed_from_u64(seed);
    let random_links = |rng: &mut StdRng| -> Vec<(usize, usize)> {
        (0..n * density / 2)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .filter(|&(a, b)| a != b)
            .collect()
    };
    let (game, links) = match shape {
        0 => {
            let space = generators::uniform_square(n, 100.0, &mut rng);
            let links = random_links(&mut rng);
            (Game::from_space(&space, alpha).unwrap(), links)
        }
        1 => {
            let positions: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..100.0)).collect();
            let space = LineSpace::new(positions).expect("distinct with probability 1");
            let links = random_links(&mut rng);
            (Game::from_space(&space, alpha).unwrap(), links)
        }
        2 => {
            let space = LineSpace::new((0..n).map(|p| p as f64).collect()).unwrap();
            (
                Game::from_space(&space, alpha).unwrap(),
                neighbour_links(n, false),
            )
        }
        3 => {
            let step = std::f64::consts::TAU / n as f64;
            let points = (0..n)
                .map(|p| {
                    Point2::new(
                        10.0 * (p as f64 * step).cos(),
                        10.0 * (p as f64 * step).sin(),
                    )
                })
                .collect();
            let space = Euclidean2D::new(points).unwrap();
            (
                Game::from_space(&space, alpha).unwrap(),
                neighbour_links(n, true),
            )
        }
        4 => {
            let cols = (n as f64).sqrt().ceil() as usize;
            let points = (0..n)
                .map(|p| Point2::new((p % cols) as f64, (p / cols) as f64))
                .collect();
            let space = Euclidean2D::new(points).unwrap();
            (
                Game::from_space(&space, alpha).unwrap(),
                neighbour_links(n, false),
            )
        }
        5 => {
            let space = generators::uniform_square(n, 100.0, &mut rng);
            (Game::from_space(&space, alpha).unwrap(), Vec::new())
        }
        _ => {
            let (game, _) = instance(3, n, seed, alpha, density);
            let all = (0..n).flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)));
            (game, all.collect())
        }
    };
    let profile = StrategyProfile::from_links(n, &links).unwrap();
    (game, profile)
}

/// Best-response dynamics under `method` for at most `passes` sweeps,
/// applying any response that improves at all and changes the links.
fn settle(
    game: &Game,
    profile: StrategyProfile,
    method: BestResponseMethod,
    passes: usize,
) -> StrategyProfile {
    let mut session = GameSession::new(game.clone(), profile).unwrap();
    for _ in 0..passes {
        let mut moved = false;
        for p in 0..game.n() {
            let peer = PeerId::new(p);
            let br = session.best_response(peer, method).unwrap();
            if br.improvement() > 0.0 && &br.links != session.profile().strategy(peer) {
                session
                    .apply(Move::SetStrategy {
                        peer,
                        links: br.links,
                    })
                    .unwrap();
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    session.into_profile()
}

/// The deviation a full ascending scan reports: `(peer, links, old cost
/// bits, new cost bits)`.
type Found = Option<(PeerId, LinkSet, u64, u64)>;

/// The reference: every peer's fresh-oracle response, the running
/// maximum improvement, the first strictly largest improving one, and
/// how many peers share a positive maximum.
fn reference(
    game: &Game,
    profile: &StrategyProfile,
    method: BestResponseMethod,
    tol: f64,
) -> (f64, Found, usize) {
    let mut session = GameSession::new(game.clone(), profile.clone()).unwrap();
    let responses: Vec<BestResponse> = (0..game.n())
        .map(|p| {
            session
                .best_response_uncached(PeerId::new(p), method)
                .unwrap()
        })
        .collect();
    let mut gap = 0.0f64;
    let mut best: Option<&BestResponse> = None;
    for br in &responses {
        if br.improvement() > gap {
            gap = br.improvement();
        }
        if br.improves(tol) && best.is_none_or(|b| br.improvement() > b.improvement()) {
            best = Some(br);
        }
    }
    let found = best.map(|b| {
        (
            b.peer,
            b.links.clone(),
            b.current_cost.to_bits(),
            b.cost.to_bits(),
        )
    });
    let sharing = responses
        .iter()
        .filter(|br| gap > 0.0 && br.improvement() == gap)
        .count();
    (gap, found, sharing)
}

/// Checks both scans against the reference, `is_nash` at tolerance
/// `tol`; returns how many peers share the largest improvement and how
/// many the gap scan pruned.
fn check(
    game: &Game,
    profile: &StrategyProfile,
    method: BestResponseMethod,
    tol: f64,
) -> Result<(usize, usize), TestCaseError> {
    let (want_gap, want_dev, sharing) = reference(game, profile, method, tol);

    let mut session = GameSession::new(game.clone(), profile.clone()).unwrap();
    let gap = session.nash_gap(method).unwrap();
    prop_assert_eq!(
        gap.to_bits(),
        want_gap.to_bits(),
        "{:?} gap: {} vs {}",
        method,
        gap,
        want_gap
    );
    let pruned = session.stats().nash_peers_pruned;

    // A fresh session, and the same session again with every cache warm.
    let test = NashTest {
        method,
        tolerance: tol,
    };
    for mut s in [
        GameSession::new(game.clone(), profile.clone()).unwrap(),
        session,
    ] {
        let report = s.is_nash(&test).unwrap();
        prop_assert_eq!(report.is_nash(), want_dev.is_none());
        let got = report
            .best_deviation
            .map(|d| (d.peer, d.links, d.old_cost.to_bits(), d.new_cost.to_bits()));
        prop_assert_eq!(&got, &want_dev, "{:?} deviation", method);
        let mut fresh = GameSession::new(game.clone(), profile.clone()).unwrap();
        let costs: Vec<u64> = fresh.all_peer_costs().iter().map(|c| c.to_bits()).collect();
        let got_costs: Vec<u64> = report.peer_costs.iter().map(|c| c.to_bits()).collect();
        prop_assert_eq!(got_costs, costs, "peer costs");
    }
    Ok((sharing, pruned))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The pruned `nash_gap` and `is_nash` answer bit-identically to
    /// solving every peer, on random, settled, symmetric and empty
    /// profiles.
    #[test]
    fn pruned_scan_matches_every_peer_solved(
        method_ix in 0usize..3,
        shape in 0u8..7,
        n_raw in 2usize..=24,
        seed in 0u64..10_000,
        alpha in 0.2f64..12.0,
        tiny_alpha in proptest::bool::ANY,
        density in 0usize..5,
        settled in proptest::bool::ANY,
        zero_tol in proptest::bool::ANY,
    ) {
        let (method, max_n) = METHODS[method_ix];
        let n = 2 + (n_raw - 2) % (max_n - 1);
        // A tiny α makes linking everyone the best response, whose
        // cost meets the response-cost floor up to rounding.
        let alpha = if tiny_alpha { alpha * 1e-6 } else { alpha };
        let (game, start) = instance(shape, n, seed, alpha, density);
        let profile = if settled { settle(&game, start, method, 6) } else { start };
        // At zero tolerance a deviation improving by one ulp counts.
        let tol = if zero_tol { 0.0 } else { 1e-9 };
        let _ = check(&game, &profile, method, tol)?;
    }
}

/// Symmetric instances at fixed sizes, where ties for the largest
/// improvement are the rule: each symmetric shape under every method,
/// with α from tiny to large. At a tiny α linking everyone is every
/// peer's best response, and on the complete profile (shape `6`) its
/// cost meets both the current cost and the response-cost floor up to
/// rounding — the instances where the floor's float slack decides.
#[test]
fn tie_heavy_instances_match_every_peer_solved() {
    let (mut tied, mut pruned) = (0, 0);
    for (method, max_n) in METHODS {
        for shape in [2u8, 3, 4, 6] {
            for n in [max_n / 2, max_n] {
                for alpha in [1e-6, 1e-3, 0.5, 2.0, 7.0] {
                    for tol in [0.0, 1e-9] {
                        let (game, profile) = instance(shape, n, 0, alpha, 0);
                        let (sharing, skipped) = check(&game, &profile, method, tol).unwrap();
                        tied += usize::from(sharing > 1);
                        pruned += skipped;
                    }
                }
            }
        }
    }
    assert!(
        tied > 0,
        "no instance had two peers sharing the largest improvement"
    );
    assert!(pruned > 0, "the bound never pruned a peer");
}
