//! Property tests for snapshot persistence fidelity.
//!
//! The registry's whole eviction story rests on one contract: a
//! session restored from its snapshot file — the game and the profile,
//! with every cache cold — answers **bit-identically** to the source
//! session, whatever interleaving of mutations and queries warmed the
//! source. These tests drive arbitrary apply/query scripts on dense and
//! sparse sessions, push the session through the file bytes (the same
//! `snapshot::encode` / `snapshot::decode` pair the spill path uses),
//! and compare the game, the profile and every query, now and after
//! further traffic. A second property pins the file's integrity: no
//! truncation, extension or byte flip can make it panic or restore a
//! different session.

use proptest::prelude::*;
use rand::prelude::*;
use sp_core::{BestResponseMethod, Game, GameSession, LinkSet, Move, PeerId, StrategyProfile};
use sp_metric::generators;
use sp_serve::snapshot;

/// A random small session (dense over points in the plane, or sparse
/// over line positions) and an interleaved script of moves
/// (`kind < 3`) and queries (`kind >= 3`).
fn arb_script() -> impl Strategy<Value = (GameSession, Vec<(u8, usize, usize)>)> {
    (2usize..=7, 0u64..10_000, 0.1f64..6.0, proptest::bool::ANY).prop_flat_map(
        |(n, seed, alpha, sparse)| {
            let max_links = (n * (n - 1)).min(14);
            (
                proptest::collection::vec((0..n, 0..n), 0..=max_links),
                proptest::collection::vec((0u8..8, 0..n, 0..n), 1..14),
            )
                .prop_map(move |(pairs, script)| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let links: Vec<(usize, usize)> =
                        pairs.into_iter().filter(|&(u, v)| u != v).collect();
                    let profile = StrategyProfile::from_links(n, &links).unwrap();
                    let session = if sparse {
                        let positions = (0..n).map(|_| rng.random_range(0.0..10.0)).collect();
                        let game = Game::from_line_positions(positions, alpha).unwrap();
                        GameSession::new_sparse(game, profile).unwrap()
                    } else {
                        let space = generators::uniform_square(n, 10.0, &mut rng);
                        let game = Game::from_space(&space, alpha).unwrap();
                        GameSession::new(game, profile).unwrap()
                    };
                    (session, script)
                })
        },
    )
}

/// Plays one script step: moves mutate, queries warm the cache tiers
/// (best responses populate the residual tier, cost queries the overlay
/// tier).
fn step(session: &mut GameSession, kind: u8, a: usize, b: usize) {
    let n = session.n();
    match kind {
        0 if a != b => {
            session
                .apply(Move::AddLink {
                    from: PeerId::new(a),
                    to: PeerId::new(b),
                })
                .unwrap();
        }
        1 if a != b => {
            session
                .apply(Move::RemoveLink {
                    from: PeerId::new(a),
                    to: PeerId::new(b),
                })
                .unwrap();
        }
        2 => {
            let links: LinkSet = (0..n)
                .filter(|&v| v != a && !(v + b).is_multiple_of(3))
                .collect();
            session
                .apply(Move::SetStrategy {
                    peer: PeerId::new(a),
                    links,
                })
                .unwrap();
        }
        3 => {
            let _ = session.social_cost();
        }
        4 => {
            let _ = session.best_response(PeerId::new(a), BestResponseMethod::Greedy);
        }
        5 => {
            let _ = session.peer_cost(PeerId::new(a));
        }
        6 => {
            let _ = session.max_stretch();
        }
        7 => {
            let _ = session.first_improving_move(PeerId::new(a), 1e-9);
        }
        _ => {}
    }
}

/// Every query the service answers from a session, compared bitwise.
fn assert_same_answers(
    original: &mut GameSession,
    restored: &mut GameSession,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        original.social_cost().total().to_bits(),
        restored.social_cost().total().to_bits()
    );
    prop_assert_eq!(
        original.max_stretch().to_bits(),
        restored.max_stretch().to_bits()
    );
    for i in 0..original.n() {
        let peer = PeerId::new(i);
        let a = original.peer_cost(peer).unwrap();
        let b = restored.peer_cost(peer).unwrap();
        prop_assert_eq!(a.to_bits(), b.to_bits(), "peer {} cost bits differ", i);
        for method in [BestResponseMethod::Greedy, BestResponseMethod::LocalSearch] {
            let br_o = original.best_response(peer, method).unwrap();
            let br_r = restored.best_response(peer, method).unwrap();
            prop_assert_eq!(&br_o.links, &br_r.links, "peer {} {:?} links", i, method);
            prop_assert_eq!(br_o.cost.to_bits(), br_r.cost.to_bits());
        }
        let fm_o = original.first_improving_move(peer, 1e-9).unwrap();
        let fm_r = restored.first_improving_move(peer, 1e-9).unwrap();
        prop_assert_eq!(
            fm_o.map(|r| (r.links, r.cost.to_bits())),
            fm_r.map(|r| (r.links, r.cost.to_bits())),
            "peer {} first improving move differs",
            i
        );
    }
    prop_assert_eq!(
        original
            .nash_gap(BestResponseMethod::Greedy)
            .unwrap()
            .to_bits(),
        restored
            .nash_gap(BestResponseMethod::Greedy)
            .unwrap()
            .to_bits()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Restoring from the file's game + profile yields the same game,
    /// profile and backend tuning, and a session that *behaves*
    /// identically to the warm source — now, and under further
    /// interleaved traffic replayed on both.
    #[test]
    fn snapshot_roundtrip_is_bit_identical((mut original, script) in arb_script()) {
        for &(kind, a, b) in &script {
            step(&mut original, kind, a, b);
        }

        let bytes = snapshot::encode(&mut original, 0);
        let (mut restored, mark) = snapshot::decode(&bytes).unwrap();
        prop_assert_eq!(mark, 0);
        prop_assert_eq!(restored.game(), original.game(), "game diverged");
        prop_assert_eq!(original.snapshot(), restored.snapshot(), "profile or mode diverged");
        prop_assert_eq!(restored.stats().snapshot_restores, 1);

        assert_same_answers(&mut original, &mut restored)?;

        // …and keep answering equal after further interleaved traffic
        // replayed on both (the "restored session keeps living" case a
        // registry depends on).
        for &(kind, a, b) in script.iter().rev() {
            step(&mut original, kind, a, b);
            step(&mut restored, kind, a, b);
            prop_assert_eq!(
                original.social_cost().total().to_bits(),
                restored.social_cost().total().to_bits(),
                "post-restore behaviour diverged"
            );
        }
        prop_assert_eq!(original.profile(), restored.profile());
        assert_same_answers(&mut original, &mut restored)?;
    }

    /// Snapshot files are deterministic: the same session state writes
    /// byte-identical files, warm or cold (what makes the registry's
    /// skip-rewrite `dirty` optimisation safe to reason about).
    #[test]
    fn snapshot_bytes_are_deterministic((mut a, script) in arb_script()) {
        let (mut b, _) = snapshot::decode(&snapshot::encode(&mut a, 0)).unwrap();
        for &(kind, x, y) in &script {
            step(&mut a, kind, x, y);
            step(&mut b, kind, x, y);
        }
        prop_assert_eq!(snapshot::encode(&mut a, 9), snapshot::encode(&mut b, 9));
    }

    /// Every strict prefix of a snapshot file, the file with trailing
    /// bytes appended, and the file with any one byte changed either
    /// fails to decode or decodes to the very session it came from —
    /// never a panic, never a different session.
    #[test]
    fn corrupt_snapshots_fail_or_restore_the_same_session(
        (mut session, script) in arb_script(),
        mark in 0u64..1_000,
        tail in proptest::collection::vec(0u8..=255, 1..12),
        mask in 1u8..=255,
    ) {
        for &(kind, a, b) in &script {
            step(&mut session, kind, a, b);
        }
        let good = snapshot::encode(&mut session, mark);
        let mut check = |bytes: &[u8], what: &str| -> Result<(), TestCaseError> {
            if let Ok((mut back, m)) = snapshot::decode(bytes) {
                prop_assert_eq!(m, mark, "{} restored another mark", what);
                prop_assert_eq!(
                    snapshot::encode(&mut back, m), good.clone(),
                    "{} restored another session", what
                );
            }
            Ok(())
        };
        for len in 0..good.len() {
            check(&good[..len], "a prefix")?;
        }
        let mut extended = good.clone();
        extended.extend_from_slice(&tail);
        check(&extended, "an extension")?;
        for at in 0..good.len() {
            let mut flipped = good.clone();
            flipped[at] ^= mask;
            check(&flipped, "a flipped byte")?;
        }

        // Through the file path, a rejected file is `InvalidData`.
        let dir = std::env::temp_dir().join(format!("sp-serve-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        std::fs::write(&path, &good[..good.len() - 1]).unwrap();
        let Err(err) = snapshot::load(&path) else {
            panic!("a truncated file must not load");
        };
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
