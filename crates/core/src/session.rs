//! Session-oriented game evaluation with cached overlay state.
//!
//! The free functions ([`peer_cost`](crate::peer_cost),
//! [`social_cost`](crate::social_cost), …) rebuild the overlay graph and
//! rerun shortest paths on every call, which is wasteful in hot loops
//! like best-response dynamics where successive queries differ by a
//! single peer's out-links. A [`GameSession`] owns the game and the
//! current profile and keeps three derived structures resident:
//!
//! * the overlay CSR snapshot;
//! * the overlay distance matrix, with **per-row validity** — rows are
//!   (re)computed lazily, one Dijkstra sweep at a time;
//! * the stretch matrix, derived from the distances on demand.
//!
//! [`GameSession::apply`] mutates the profile through [`Move`]s and
//! repairs the cache incrementally instead of discarding it:
//!
//! * a row `u` survives a **removed** link `(i, j)` untouched when no
//!   shortest path from `u` used that link (checked in `O(1)` per row
//!   per removed link via `d_u(i) + w(i,j) > d_u(j)`);
//! * an **added** link `(i, j)` triggers a decrease-only re-relaxation
//!   seeded at `j` ([`sp_graph::CsrGraph::relax_decrease_into`]) — work
//!   proportional to the region whose distances actually improve, not a
//!   full APSP;
//! * rows that cannot be repaired cheaply are merely marked invalid and
//!   recomputed the next time something reads them.
//!
//! Multi-move churn events (a simultaneous round, a peer departure) go
//! through [`GameSession::apply_batch`], which folds any number of
//! [`Move`]s into **one** profile mutation, **one** CSR rebuild, and a
//! **single** repair pass: one removed-edge tightness scan over the
//! valid rows against the union of all removed links, and one seeded
//! decrease-only relaxation per surviving row covering all added links.
//! Bulk row refills (a cold [`GameSession::social_cost`], the rows
//! dropped by a batch) are sharded over `std::thread::available_parallelism`
//! scoped worker threads ([`sp_graph::CsrGraph::dijkstra_rows_with`]),
//! each with its own [`DijkstraScratch`].
//!
//! Both row tiers — the overlay matrix and the residual `G_{-i}` rows
//! that back the best-response oracles — live in one
//! [`OracleCache`](crate::oracle_cache), so every oracle the session
//! hands out (a sequential [`GameSession::best_response`] activation,
//! the sharded [`GameSession::best_responses_round`] fan-out) is served
//! and invalidated by the same code path. The uncached variants
//! ([`GameSession::best_response_uncached`],
//! [`GameSession::first_improving_move_uncached`]) sweep a fresh
//! `G_{-i}` oracle per call; they are the reference the cached paths are
//! property-tested bit-identical against, and the baseline the
//! `sequential_reuse` bench measures the cache's savings from.
//!
//! Better responses and Greedy best responses read the cache lazily:
//! each candidate row starts as a certified lower bound (a valid but
//! dirty overlay row, else the metric row deflated for rounding and the
//! accepted triangle slack) and pays for an exact `G_{-i}` row only
//! while that bound can still strictly beat the incumbent move or
//! greedy pick. Equilibrium checks ([`GameSession::nash_gap`],
//! [`GameSession::is_nash`]) apply the same idea one level up: they
//! solve a peer's best response only while a certified bound on its
//! improvement can still change the answer.
//!
//! [`SessionStats`] counts the sweeps actually performed, so benchmarks
//! and tests can verify the cache earns its keep.
//!
//! # Backends
//!
//! Everything above describes the **dense** backend — the default, and
//! the exact reference. A session can instead be created in **sparse**
//! mode ([`GameSession::new_sparse`]), which swaps the `O(n²)` distance
//! matrix for landmark sketches plus bounded-radius sweeps (see
//! [`crate::backend`] for the mode-selection guidance). Sparse sessions
//! answer the heuristic [`GameSession::local_response`] without ever
//! materialising a matrix, and route the certified queries
//! (`best_response`, `nash_gap`, `is_nash`) through exact per-peer
//! `G_{-i}` sweeps — `O(n)` memory at a time — counted in
//! [`SessionStats::sparse_exact_fallbacks`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use sp_graph::{CsrGraph, DiGraph, DijkstraScratch, DistanceMatrix};

use crate::backend::{BackendMode, DenseBackend, SessionBackend};
use crate::best_response::{
    check_solvable, response_cost_floor, response_cost_floor_free, LazyRows, OracleReuse,
    ResponseOracle,
};
use crate::cost::peer_cost_from_distances;
use crate::equilibrium::{Deviation, NashReport, NashTest};
use crate::sparse::{LocalCounts, SparseBackend, SparseParams};
use crate::{
    BestResponse, BestResponseMethod, CoreError, Game, LinkSet, PeerId, SocialCost, StrategyProfile,
};

/// Relative tolerance for the "was this removed edge on a shortest
/// path?" test. Conservative: ties invalidate the row (costs a recompute,
/// never correctness). Shared with the best-response oracle's cached-row
/// reuse test, which asks the same question about a peer's out-links.
pub(crate) const EDGE_ON_PATH_EPS: f64 = 1e-9;

/// Minimum number of invalid rows before a bulk refill shards the sweeps
/// over worker threads; below this the per-thread spawn cost outweighs
/// the Dijkstra work on the instance sizes the workspace runs.
const PAR_ROWS_MIN: usize = 32;

/// Minimum number of activated peers before
/// [`GameSession::best_responses_round`] shards its oracles over worker
/// threads under automatic parallelism; smaller rounds run on the calling
/// thread (still against the shared round-start snapshot).
const PAR_ORACLES_MIN: usize = 8;

/// A unilateral change to the current profile, applied through
/// [`GameSession::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Move {
    /// Replace `peer`'s entire out-link set (what best-response dynamics
    /// does each accepted activation).
    SetStrategy {
        /// The moving peer.
        peer: PeerId,
        /// Its new out-links.
        links: LinkSet,
    },
    /// Add the single link `from → to`.
    AddLink {
        /// Link owner.
        from: PeerId,
        /// Link target.
        to: PeerId,
    },
    /// Remove the single link `from → to`.
    RemoveLink {
        /// Link owner.
        from: PeerId,
        /// Link target.
        to: PeerId,
    },
}

/// Counters describing how much shortest-path work a session performed.
///
/// `full_sssp / n` is the number of APSP-equivalents actually computed;
/// the legacy rebuild-per-call path performs one full APSP per
/// `social_cost` and one sweep (plus a topology rebuild) per `peer_cost`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Overlay CSR snapshots built.
    pub csr_rebuilds: usize,
    /// Full single-source sweeps (one distance-matrix row from scratch).
    pub full_sssp: usize,
    /// Seeded decrease-only re-relaxations (cheap incremental repairs).
    pub incremental_relaxations: usize,
    /// Rows dropped by [`GameSession::apply`] because a removed link may
    /// have carried a shortest path.
    pub rows_invalidated: usize,
    /// Rows that survived an [`GameSession::apply`] untouched or via a
    /// cheap repair.
    pub rows_preserved: usize,
    /// Best-response oracles built (each costs `n - 1` sweeps, counted
    /// separately from `full_sssp`).
    pub oracle_builds: usize,
    /// Calls to [`GameSession::apply_batch`] that reached the repair pass
    /// (batches that were pure no-ops are not counted).
    pub batch_applies: usize,
    /// Individual moves folded into those batched applies.
    pub batch_moves: usize,
    /// Bulk row refills that ran sharded over worker threads.
    pub parallel_passes: usize,
    /// Rows recomputed inside parallel passes (also counted in
    /// [`SessionStats::full_sssp`]).
    pub parallel_rows: usize,
    /// Calls to [`GameSession::best_responses_round`] that actually
    /// fanned oracles out over worker shards.
    pub oracle_parallel_rounds: usize,
    /// Worker shards spawned across those parallel rounds.
    pub oracle_shards: usize,
    /// Oracle candidate rows served from the round-frozen distance
    /// snapshot instead of a fresh `G_{-i}` sweep.
    pub oracle_rows_reused: usize,
    /// Oracle candidate rows that did pay a fresh `G_{-i}` sweep (the
    /// candidate's shortest paths may route through the responding peer).
    /// Lazy (Greedy) round queries count only the rows they made exact;
    /// rows their bounds settled appear in neither round counter.
    pub oracle_rows_swept: usize,
    /// Candidate rows served without a sweep by **sequential** cached
    /// oracle builds ([`GameSession::best_response`],
    /// [`GameSession::first_improving_move`], `nash_gap`, `is_nash`) —
    /// overlay-row reuse plus residual-row hits. The round engine's
    /// reuse is counted separately in
    /// [`SessionStats::oracle_rows_reused`].
    /// Lazy queries (better responses, Greedy) count only the rows they
    /// made exact; rows their bounds settled appear in neither this nor
    /// [`SessionStats::seq_oracle_swept`].
    pub seq_oracle_hits: usize,
    /// Residual `G_{-i}` rows dropped by [`GameSession::apply`] /
    /// [`GameSession::apply_batch`] repair because a removed link (owned
    /// by another peer) could have been tight on them.
    pub seq_oracle_invalidated: usize,
    /// Candidate rows that paid a fresh `G_{-i}` sweep inside sequential
    /// cached oracle builds (neither cache tier could serve them).
    pub seq_oracle_swept: usize,
    /// Invalid overlay rows a cached oracle build did **not** refill
    /// because the residual tier already served them (the lazy-refill
    /// path; each skip saves one full sweep `ensure_all_rows` would have
    /// paid).
    pub seq_refills_skipped: usize,
    /// Snapshots exported via [`GameSession::snapshot`] — the spill half
    /// of an eviction cycle in a session registry.
    pub snapshot_exports: usize,
    /// `1` when this session was rebuilt by [`GameSession::restore`]
    /// (registries count restores by summing this over live sessions).
    pub snapshot_restores: usize,
    /// Landmark sketch rows swept by a sparse backend — the initial
    /// `2·L` build rows plus every row the post-move repair rebuilt
    /// (also counted in [`SessionStats::full_sssp`]).
    pub sparse_sketch_rows: usize,
    /// Bounded-radius Dijkstra sweeps performed by
    /// [`GameSession::local_response`] candidate evaluation.
    pub sparse_ball_sweeps: usize,
    /// Demand entries a sparse candidate evaluation answered with a
    /// certified sketch upper bound instead of an exact distance.
    pub sparse_sketch_hits: usize,
    /// Candidate moves a sparse [`GameSession::local_response`] pruned on
    /// the stretch-floor bound without evaluating them.
    pub sparse_pruned_candidates: usize,
    /// Certified queries on a sparse session that fell back to exact
    /// `G_{-i}` evaluation (`best_response`, `nash_gap`, `is_nash`,
    /// `first_improving_move`, and `local_response` on instances small
    /// enough that the window covers every peer).
    pub sparse_exact_fallbacks: usize,
    /// Candidate evaluations the lazy certified-bound oracle settled on a
    /// lower-bound row alone: single-link moves rejected by a cached
    /// [`GameSession::first_improving_move`], and facility scores a
    /// cached [`BestResponseMethod::Greedy`] response (`best_response`,
    /// `nash_gap`, `is_nash`, `best_responses_round`) dropped, either on
    /// a lower-bound row or on a stale-score bound
    /// ([`SessionStats::lazy_stale_skips`]). Each one skips the exact
    /// rows an eager oracle would have swept or converted.
    pub lazy_certified_rejects: usize,
    /// Candidate evaluations of the same paths whose lower bound could
    /// still win and therefore paid for exact rows.
    pub lazy_exact_evals: usize,
    /// Facility evaluations of cached Greedy responses that scored a
    /// row; the textbook greedy would have scored these plus
    /// [`SessionStats::lazy_stale_skips`].
    pub lazy_greedy_scores: usize,
    /// Facility evaluations of cached Greedy responses skipped because a
    /// score carried over from an earlier greedy pass certifies they
    /// cannot win (also counted in
    /// [`SessionStats::lazy_certified_rejects`]).
    pub lazy_stale_skips: usize,
    /// Peers a dense [`GameSession::nash_gap`] or
    /// [`GameSession::is_nash`] never solved a best response for,
    /// because a certified bound on their improvement showed it could
    /// not change the answer.
    pub nash_peers_pruned: usize,
}

impl SessionStats {
    /// Full APSP-equivalents computed for cost queries: `full_sssp / n`.
    #[must_use]
    pub fn apsp_equivalents(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.full_sssp as f64 / n as f64
        }
    }

    /// Adds every counter of `other` into `self` — the one true way to
    /// aggregate stats across forks, rounds, or repeated runs. The
    /// exhaustive destructure makes "added a field, forgot a merge
    /// site" a compile error, and the `counters` marker lets `sp-lint`
    /// cross-check the field list besides.
    // sp-lint: counters(SessionStats)
    pub fn merge(&mut self, other: &SessionStats) {
        let SessionStats {
            csr_rebuilds,
            full_sssp,
            incremental_relaxations,
            rows_invalidated,
            rows_preserved,
            oracle_builds,
            batch_applies,
            batch_moves,
            parallel_passes,
            parallel_rows,
            oracle_parallel_rounds,
            oracle_shards,
            oracle_rows_reused,
            oracle_rows_swept,
            seq_oracle_hits,
            seq_oracle_invalidated,
            seq_oracle_swept,
            seq_refills_skipped,
            snapshot_exports,
            snapshot_restores,
            sparse_sketch_rows,
            sparse_ball_sweeps,
            sparse_sketch_hits,
            sparse_pruned_candidates,
            sparse_exact_fallbacks,
            lazy_certified_rejects,
            lazy_exact_evals,
            lazy_greedy_scores,
            lazy_stale_skips,
            nash_peers_pruned,
        } = *other;
        self.csr_rebuilds += csr_rebuilds;
        self.full_sssp += full_sssp;
        self.incremental_relaxations += incremental_relaxations;
        self.rows_invalidated += rows_invalidated;
        self.rows_preserved += rows_preserved;
        self.oracle_builds += oracle_builds;
        self.batch_applies += batch_applies;
        self.batch_moves += batch_moves;
        self.parallel_passes += parallel_passes;
        self.parallel_rows += parallel_rows;
        self.oracle_parallel_rounds += oracle_parallel_rounds;
        self.oracle_shards += oracle_shards;
        self.oracle_rows_reused += oracle_rows_reused;
        self.oracle_rows_swept += oracle_rows_swept;
        self.seq_oracle_hits += seq_oracle_hits;
        self.seq_oracle_invalidated += seq_oracle_invalidated;
        self.seq_oracle_swept += seq_oracle_swept;
        self.seq_refills_skipped += seq_refills_skipped;
        self.snapshot_exports += snapshot_exports;
        self.snapshot_restores += snapshot_restores;
        self.sparse_sketch_rows += sparse_sketch_rows;
        self.sparse_ball_sweeps += sparse_ball_sweeps;
        self.sparse_sketch_hits += sparse_sketch_hits;
        self.sparse_pruned_candidates += sparse_pruned_candidates;
        self.sparse_exact_fallbacks += sparse_exact_fallbacks;
        self.lazy_certified_rejects += lazy_certified_rejects;
        self.lazy_exact_evals += lazy_exact_evals;
        self.lazy_greedy_scores += lazy_greedy_scores;
        self.lazy_stale_skips += lazy_stale_skips;
        self.nash_peers_pruned += nash_peers_pruned;
    }
}

/// The state that fixes a [`GameSession`]'s configuration besides its
/// (immutable) [`Game`]: the profile, plus the backend tuning of a
/// sparse session.
///
/// [`GameSession::restore`] rebuilds a session from a snapshot and the
/// game such that every subsequent query answers **bit-identically** to
/// the source session — the contract that lets a service spill sessions
/// to disk under memory pressure and page them back in without
/// observable effect. Everything derived (overlay distance rows,
/// retained `G_{-i}` rows, the CSR, the stretch matrix, a sparse
/// sketch) is left out: the restored session starts cold and re-warms
/// lazily, and cached answers equal fresh ones bit for bit
/// (property-tested in `proptest_session.rs` and
/// `proptest_lazy_oracle.rs`). A sparse session's landmark sketch is
/// rebuilt the same way; its heuristic answers stay outside the
/// bit-identity contract, as they always have. Work counters are left
/// out too.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The strategy profile at capture time.
    pub profile: StrategyProfile,
    /// The sparse backend's tuning parameters; `None` for a dense
    /// session.
    pub sparse: Option<SparseParams>,
}

/// A stateful evaluation handle: a [`Game`], the current
/// [`StrategyProfile`], and lazily maintained overlay caches.
///
/// All query methods take `&mut self` because they fill caches on
/// demand; none of them changes the profile. Only [`GameSession::apply`]
/// and [`GameSession::set_profile`] do.
///
/// # Example
///
/// ```
/// use sp_core::{GameSession, Move, Game, PeerId, StrategyProfile};
/// use sp_metric::LineSpace;
///
/// let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0, 3.0]).unwrap(), 1.0).unwrap();
/// let chain = StrategyProfile::from_links(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
/// let mut session = GameSession::new(game, chain).unwrap();
///
/// let before = session.social_cost().total();
/// session.apply(Move::AddLink { from: PeerId::new(0), to: PeerId::new(2) }).unwrap();
/// let after = session.social_cost().total();
/// // The extra link costs α = 1 and saves no stretch on a line.
/// assert_eq!(after, before + 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct GameSession {
    /// The immutable game, reference-counted so
    /// [`GameSession::fork_readonly`] shards share one copy of the
    /// underlying O(n²) distance matrix instead of cloning it per shard.
    game: Arc<Game>,
    profile: StrategyProfile,
    /// Overlay CSR snapshot; `None` when no query has needed it yet (or
    /// after a full reset).
    csr: Option<CsrGraph>,
    /// The pluggable distance backend. Dense sessions hold the two-tier
    /// row cache (overlay distance rows with per-row validity plus
    /// retained residual `G_{-i}` oracle rows); sparse sessions hold
    /// landmark sketches and bounded-sweep state. Both are repaired —
    /// never discarded — by [`GameSession::apply`] / `apply_batch`.
    backend: SessionBackend,
    /// Cached stretch matrix; cleared by every profile mutation.
    stretch: Option<DistanceMatrix>,
    scratch: DijkstraScratch,
    /// Worker-thread override for bulk row refills; `None` = auto.
    parallelism: Option<usize>,
    stats: SessionStats,
}

/// Which [`SessionStats`] bucket a cached oracle build counts into:
/// sequential activations vs the simultaneous-round fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OracleCounter {
    Sequential,
    Round,
}

impl GameSession {
    /// Creates a session owning `game` and `profile`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProfileSizeMismatch`] when the profile and
    /// game disagree on the number of peers.
    pub fn new(game: Game, profile: StrategyProfile) -> Result<Self, CoreError> {
        if profile.n() != game.n() {
            return Err(CoreError::ProfileSizeMismatch {
                expected: game.n(),
                actual: profile.n(),
            });
        }
        let n = game.n();
        Ok(GameSession {
            game: Arc::new(game),
            profile,
            csr: None,
            backend: SessionBackend::Dense(DenseBackend::new(n)),
            stretch: None,
            scratch: DijkstraScratch::new(),
            parallelism: None,
            stats: SessionStats::default(),
        })
    }

    /// Convenience constructor cloning borrowed inputs — what the legacy
    /// free-function wrappers use.
    ///
    /// # Errors
    ///
    /// Same as [`GameSession::new`].
    pub fn from_refs(game: &Game, profile: &StrategyProfile) -> Result<Self, CoreError> {
        GameSession::new(game.clone(), profile.clone())
    }

    /// Creates a session on the **sparse** landmark backend with default
    /// [`SparseParams`] — the mode for instances too large for the dense
    /// `8n²`-byte matrix. See [`crate::backend`] for when to pick which
    /// mode.
    ///
    /// # Errors
    ///
    /// Same as [`GameSession::new`].
    pub fn new_sparse(game: Game, profile: StrategyProfile) -> Result<Self, CoreError> {
        GameSession::new_sparse_with(game, profile, SparseParams::default())
    }

    /// Like [`GameSession::new_sparse`] with explicit tuning parameters.
    ///
    /// # Errors
    ///
    /// Same as [`GameSession::new`].
    pub fn new_sparse_with(
        game: Game,
        profile: StrategyProfile,
        params: SparseParams,
    ) -> Result<Self, CoreError> {
        if profile.n() != game.n() {
            return Err(CoreError::ProfileSizeMismatch {
                expected: game.n(),
                actual: profile.n(),
            });
        }
        let backend = SessionBackend::Sparse(Box::new(SparseBackend::new(&game, params)));
        Ok(GameSession {
            game: Arc::new(game),
            profile,
            csr: None,
            backend,
            stretch: None,
            scratch: DijkstraScratch::new(),
            parallelism: None,
            stats: SessionStats::default(),
        })
    }

    /// Which backend this session evaluates on.
    #[must_use]
    pub fn backend_mode(&self) -> BackendMode {
        self.backend.mode()
    }

    /// The sparse tuning parameters, when this is a sparse session
    /// (`None` on dense sessions) — what a service persists so a
    /// restored session behaves identically.
    #[must_use]
    pub fn sparse_params(&self) -> Option<SparseParams> {
        if self.backend.is_sparse() {
            Some(*self.backend.sparse().params())
        } else {
            None
        }
    }

    /// The game being evaluated.
    #[must_use]
    pub fn game(&self) -> &Game {
        &self.game
    }

    /// A shared handle to the game — what service layers clone to keep
    /// the game alive while the session itself is mutably borrowed (the
    /// dynamics runner borrows the game and the session at once), without
    /// copying the O(n²) distance matrix.
    #[must_use]
    pub fn game_arc(&self) -> Arc<Game> {
        Arc::clone(&self.game)
    }

    /// The current profile.
    #[must_use]
    pub fn profile(&self) -> &StrategyProfile {
        &self.profile
    }

    /// Number of peers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.game.n()
    }

    /// Consumes the session, returning the current profile.
    #[must_use]
    pub fn into_profile(self) -> StrategyProfile {
        self.profile
    }

    /// Forks a read-only evaluation snapshot of the current state — the
    /// per-shard session behind [`GameSession::best_responses_round`].
    ///
    /// The fork **shares** the immutable [`Game`] (one atomic increment,
    /// no O(n²) distance-matrix copy) and snapshots the mutable caches as
    /// they stand: the overlay CSR, the distance matrix with its per-row
    /// validity, and the profile. Nothing is recomputed. The fork gets a
    /// fresh [`DijkstraScratch`] (so shards never contend) and zeroed
    /// [`SessionStats`], and its bulk refills are pinned to the calling
    /// thread (`Some(1)`) — shards must not nest worker pools. Retained
    /// residual oracle rows are **not** carried into the fork (a shard
    /// lives for one round and would never read its own stores), so the
    /// fork is cheap even when the parent's residual cache is full.
    ///
    /// The fork is an independent session: mutating it (or the parent)
    /// never affects the other.
    #[must_use]
    pub fn fork_readonly(&self) -> GameSession {
        let backend = match &self.backend {
            SessionBackend::Dense(b) => {
                SessionBackend::Dense(DenseBackend::from_cache(b.cache.fork()))
            }
            // Sparse state is already O(n); clone it wholesale so the
            // fork answers sketch queries without resweeping landmarks.
            SessionBackend::Sparse(b) => SessionBackend::Sparse(b.clone()),
        };
        GameSession {
            game: Arc::clone(&self.game),
            profile: self.profile.clone(),
            csr: self.csr.clone(),
            backend,
            stretch: None,
            scratch: DijkstraScratch::new(),
            parallelism: Some(1),
            stats: SessionStats::default(),
        }
    }

    /// Work counters accumulated since creation (or the last
    /// [`GameSession::reset_stats`]).
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Zeroes the work counters.
    pub fn reset_stats(&mut self) {
        self.stats = SessionStats::default();
    }

    /// Shrinks (or grows) the byte budget behind the retained-residual
    /// oracle tier. The default budget (64 MiB) assumes this session is
    /// the process's main tenant; a multi-session host like the
    /// `sp-serve` registry calls this with a per-tenant slice so one
    /// oracle-heavy session cannot monopolise the host's memory. Affects
    /// only how many rows are *retained* (work), never the value any
    /// tier serves (bit-identity is cap-independent).
    pub fn set_residual_budget(&mut self, bytes: usize) {
        if !self.backend.is_sparse() {
            self.backend.dense_mut().set_budget(bytes);
        }
    }

    /// Semantic size of this session's mutable state in bytes: the
    /// profile, the overlay CSR snapshot, the cached stretch matrix, and
    /// both tiers of the oracle cache. The (shared, immutable) [`Game`]
    /// is excluded — registries account for it per slot, since sessions
    /// may share one game through [`GameSession::game_arc`].
    ///
    /// Sizes are computed from the data's shape, not from allocator
    /// bookkeeping, so the same session state reports the same bytes on
    /// every machine — which is what lets a registry's eviction decisions
    /// (and the benches that count them) stay deterministic.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let n = self.game.n();
        let usize_b = std::mem::size_of::<usize>();
        let f64_b = std::mem::size_of::<f64>();
        let profile = n * std::mem::size_of::<LinkSet>()
            + self.profile.link_count() * std::mem::size_of::<PeerId>();
        let csr = self.csr.as_ref().map_or(0, |c| {
            (n + 1) * usize_b + c.edge_count() * (usize_b + f64_b)
        });
        let stretch = self.stretch.as_ref().map_or(0, |_| n * n * f64_b);
        profile + csr + stretch + self.backend.memory_bytes()
    }

    /// Captures the session's persistent state — the profile and the
    /// backend mode with its tuning — for spill-to-disk persistence. See
    /// [`SessionSnapshot`] for the fidelity contract.
    #[must_use]
    pub fn snapshot(&mut self) -> SessionSnapshot {
        self.stats.snapshot_exports += 1;
        SessionSnapshot {
            profile: self.profile.clone(),
            sparse: self.sparse_params(),
        }
    }

    /// Rebuilds a session from `game` and a snapshot captured by
    /// [`GameSession::snapshot`], on the backend the snapshot names
    /// ([`GameSession::new`] or [`GameSession::new_sparse_with`]). Every
    /// cache starts cold, and every query on the restored session
    /// answers bit-identically to the source session (property-tested
    /// in `crates/serve/tests/proptest_snapshot.rs`). Work counters start
    /// fresh except [`SessionStats::snapshot_restores`], which is `1`.
    ///
    /// # Errors
    ///
    /// [`CoreError::ProfileSizeMismatch`] when the profile disagrees
    /// with the game on the peer count.
    pub fn restore(game: Game, snapshot: SessionSnapshot) -> Result<Self, CoreError> {
        let mut session = match snapshot.sparse {
            None => GameSession::new(game, snapshot.profile)?,
            Some(params) => GameSession::new_sparse_with(game, snapshot.profile, params)?,
        };
        session.stats.snapshot_restores = 1;
        Ok(session)
    }

    /// Replaces the whole profile, discarding every cache. Prefer
    /// [`GameSession::apply`] for single-peer changes — that is the
    /// operation the incremental repair is built for.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProfileSizeMismatch`] on size disagreement.
    pub fn set_profile(&mut self, profile: StrategyProfile) -> Result<(), CoreError> {
        if profile.n() != self.game.n() {
            return Err(CoreError::ProfileSizeMismatch {
                expected: self.game.n(),
                actual: profile.n(),
            });
        }
        self.profile = profile;
        self.invalidate_all();
        Ok(())
    }

    fn invalidate_all(&mut self) {
        self.csr = None;
        self.backend.invalidate();
        self.stretch = None;
    }

    /// Applies a unilateral move, repairing the distance cache
    /// incrementally, and returns the links the peer held before.
    ///
    /// # Errors
    ///
    /// * [`CoreError::PeerOutOfBounds`] for out-of-range peers (either
    ///   endpoint of a single-link move, or a target inside
    ///   [`Move::SetStrategy`] links);
    /// * [`CoreError::SelfLink`] when a move would create a self-link.
    pub fn apply(&mut self, mv: Move) -> Result<LinkSet, CoreError> {
        self.validate_move(&mv)?;
        let (peer, new_links) = self.resolve_validated(&mv);
        let old_links = self.profile.strategy(peer).clone();
        if old_links == new_links {
            return Ok(old_links);
        }

        let mut added: Vec<(usize, usize, f64)> = Vec::new();
        let mut removed: Vec<(usize, usize, f64)> = Vec::new();
        self.edge_diff(
            peer.index(),
            &old_links,
            &new_links,
            &mut added,
            &mut removed,
        );

        self.profile
            .set_strategy(peer, new_links)
            .expect("move endpoints validated above");
        self.repair_after_edges(&added, &removed);
        Ok(old_links)
    }

    /// Applies a whole batch of moves — a simultaneous round, a churn
    /// event — as **one** cache transaction: the profile is mutated move
    /// by move (later moves see earlier ones), but the overlay CSR is
    /// rebuilt once and the distance rows are repaired in a single pass
    /// against the *net* edge change, so moves that cancel out inside
    /// the batch cost nothing.
    ///
    /// Returns, for each move in order, the links its peer held
    /// immediately before that move — exactly what a sequence of
    /// [`GameSession::apply`] calls would have returned.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GameSession::apply`], checked for **every**
    /// move up front: a failed batch leaves the session untouched.
    pub fn apply_batch(&mut self, moves: &[Move]) -> Result<Vec<LinkSet>, CoreError> {
        for mv in moves {
            self.validate_move(mv)?;
        }
        let n = self.game.n();
        let mut previous = Vec::with_capacity(moves.len());
        let mut pre_batch: Vec<Option<LinkSet>> = vec![None; n];
        for mv in moves {
            let (peer, new_links) = self.resolve_validated(mv);
            let old = self.profile.strategy(peer).clone();
            if pre_batch[peer.index()].is_none() {
                pre_batch[peer.index()] = Some(old.clone());
            }
            if old != new_links {
                self.profile
                    .set_strategy(peer, new_links)
                    .expect("validated above");
            }
            previous.push(old);
        }

        // Net edge diff of every touched peer against its pre-batch
        // strategy — the union the single repair pass runs on.
        let mut added: Vec<(usize, usize, f64)> = Vec::new();
        let mut removed: Vec<(usize, usize, f64)> = Vec::new();
        for (i, old) in pre_batch.iter().enumerate() {
            let Some(old) = old else { continue };
            let new = self.profile.strategy(PeerId::new(i));
            self.edge_diff(i, old, new, &mut added, &mut removed);
        }
        if added.is_empty() && removed.is_empty() {
            return Ok(previous);
        }
        self.stats.batch_applies += 1;
        self.stats.batch_moves += moves.len();
        self.repair_after_edges(&added, &removed);
        Ok(previous)
    }

    /// Bounds- and self-link-checks one move without touching any state.
    fn validate_move(&self, mv: &Move) -> Result<(), CoreError> {
        let n = self.game.n();
        let check = |peer: PeerId| -> Result<(), CoreError> {
            if peer.index() >= n {
                return Err(CoreError::PeerOutOfBounds {
                    peer: peer.index(),
                    n,
                });
            }
            Ok(())
        };
        match mv {
            Move::SetStrategy { peer, links } => {
                check(*peer)?;
                for t in links.iter() {
                    check(t)?;
                    if t == *peer {
                        return Err(CoreError::SelfLink { peer: peer.index() });
                    }
                }
            }
            Move::AddLink { from, to } => {
                check(*from)?;
                check(*to)?;
                if from == to {
                    return Err(CoreError::SelfLink { peer: from.index() });
                }
            }
            Move::RemoveLink { from, to } => {
                check(*from)?;
                check(*to)?;
            }
        }
        Ok(())
    }

    /// Resolves an already-validated move to `(peer, its new link set)`
    /// against the *current* profile.
    fn resolve_validated(&self, mv: &Move) -> (PeerId, LinkSet) {
        match mv {
            Move::SetStrategy { peer, links } => (*peer, links.clone()),
            Move::AddLink { from, to } => (*from, self.profile.strategy(*from).with(*to)),
            Move::RemoveLink { from, to } => (*from, self.profile.strategy(*from).without(*to)),
        }
    }

    /// Appends the `(from, to, weight)` edges by which `new` differs from
    /// `old` for peer `i` — the diff representation both repair paths
    /// consume.
    fn edge_diff(
        &self,
        i: usize,
        old: &LinkSet,
        new: &LinkSet,
        added: &mut Vec<(usize, usize, f64)>,
        removed: &mut Vec<(usize, usize, f64)>,
    ) {
        for t in new.iter().filter(|t| !old.contains(*t)) {
            added.push((i, t.index(), self.game.distance(i, t.index())));
        }
        for t in old.iter().filter(|t| !new.contains(*t)) {
            removed.push((i, t.index(), self.game.distance(i, t.index())));
        }
    }

    /// The shared repair pass behind [`GameSession::apply`] and
    /// [`GameSession::apply_batch`]: given the net `(from, to, weight)`
    /// edge changes already written to the profile, lets the
    /// [`OracleCache`] drop rows whose shortest paths may have used a
    /// removed edge (overlay **and** residual tiers) and decrease-relax
    /// the survivors for the added edges.
    fn repair_after_edges(
        &mut self,
        added: &[(usize, usize, f64)],
        removed: &[(usize, usize, f64)],
    ) {
        self.stretch = None;

        if self.backend.is_sparse() {
            // Same lazy bail-out shape as the dense tier: with nothing
            // cached, dropping the CSR is strictly cheaper than
            // rebuilding it just to repair an empty sketch.
            if self.csr.is_none() || !self.backend.sparse().has_cached_state() {
                self.csr = None;
                self.backend.invalidate();
                return;
            }
            self.rebuild_csr();
            let csr = self.csr.as_ref().expect("just rebuilt");
            let repair = self
                .backend
                .sparse_mut()
                .repair(csr, added, removed, &mut self.scratch);
            self.stats.rows_invalidated += repair.rows_rebuilt;
            self.stats.rows_preserved += repair.rows_preserved;
            self.stats.full_sssp += repair.rows_rebuilt;
            self.stats.sparse_sketch_rows += repair.rows_rebuilt;
            return;
        }

        // Residual rows can outlive every overlay row (a removal that is
        // tight for all sources invalidates the whole overlay tier while
        // the residual tier repairs in place), so the lazy bail-out must
        // check both tiers: wiping live residual rows here would re-pay
        // sweeps the cache already earned.
        if self.csr.is_none()
            || (!self.backend.dense().any_valid_row() && !self.backend.dense().has_residual_rows())
        {
            // Nothing cached worth repairing; stay lazy.
            self.csr = None;
            self.backend.invalidate();
            return;
        }

        // The edge set changed: refresh the CSR snapshot (O(m), cheap
        // next to the sweeps it lets us keep).
        self.rebuild_csr();
        let csr = self.csr.as_ref().expect("just rebuilt");
        let counts =
            self.backend
                .dense_mut()
                .repair_after_edges(csr, added, removed, &mut self.scratch);
        self.stats.rows_invalidated += counts.rows_invalidated;
        self.stats.rows_preserved += counts.rows_preserved;
        self.stats.incremental_relaxations += counts.incremental_relaxations;
        self.stats.seq_oracle_invalidated += counts.residual_invalidated;
    }

    fn rebuild_csr(&mut self) {
        let mut g = DiGraph::new(self.game.n());
        for (i, s) in self.profile.iter() {
            for j in s.iter() {
                g.add_edge(
                    i.index(),
                    j.index(),
                    self.game.distance(i.index(), j.index()),
                );
            }
        }
        self.csr = Some(CsrGraph::from_digraph(&g));
        self.stats.csr_rebuilds += 1;
    }

    fn ensure_csr(&mut self) {
        if self.csr.is_none() {
            self.rebuild_csr();
        }
    }

    /// Makes an exact distance row for source `u` available and returns
    /// it: the cached overlay row (dense) or the transient single-row
    /// buffer (sparse — the row stays valid until the next mutation).
    fn row(&mut self, u: usize) -> &[f64] {
        self.ensure_csr();
        let csr = self.csr.as_ref().expect("ensured above");
        if self.backend.is_sparse() {
            if self
                .backend
                .sparse_mut()
                .compute_row(csr, u, &mut self.scratch)
            {
                self.stats.full_sssp += 1;
            }
            return self.backend.sparse().row_ref(u);
        }
        if self
            .backend
            .dense_mut()
            .ensure_row(csr, u, &mut self.scratch)
        {
            self.stats.full_sssp += 1;
        }
        self.backend.dense().row(u)
    }

    /// Overrides the worker-thread count for every sharded code path:
    /// bulk row refills **and** the oracle fan-out of
    /// [`GameSession::best_responses_round`].
    ///
    /// `None` (the default) derives it from
    /// `std::thread::available_parallelism` and only shards when enough
    /// work queues up (`PAR_ROWS_MIN` invalid rows, `PAR_ORACLES_MIN`
    /// activated peers); an explicit `Some(k > 1)` shards unconditionally
    /// (tests use this to exercise the threaded paths on any machine),
    /// and `Some(1)` forces the sequential paths. `Some(0)` would name a
    /// worker pool that can run nothing, so it is **clamped to
    /// `Some(1)`** — the documented fallback is the calling thread, never
    /// a panic or a silent no-op pool.
    pub fn set_parallelism(&mut self, workers: Option<usize>) {
        self.parallelism = workers.map(|w| w.max(1));
    }

    /// The worker-thread count the sharded paths would use right now:
    /// the [`GameSession::set_parallelism`] override if one is set,
    /// otherwise `std::thread::available_parallelism`.
    #[must_use]
    pub fn resolved_parallelism(&self) -> usize {
        self.worker_count()
    }

    fn worker_count(&self) -> usize {
        self.parallelism.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Makes every row valid: the invalid rows are recomputed with one
    /// full sweep each, sharded over worker threads when there are
    /// enough of them to pay for the spawns.
    fn ensure_all_rows(&mut self) {
        debug_assert!(
            !self.backend.is_sparse(),
            "ensure_all_rows materialises the full matrix; sparse paths must not reach it"
        );
        let invalid = self.backend.dense().invalid_row_count();
        if invalid == 0 {
            return;
        }
        let workers = self.worker_count().min(invalid);
        if workers > 1 && (self.parallelism.is_some() || invalid >= PAR_ROWS_MIN) {
            self.ensure_csr();
            let csr = self.csr.as_ref().expect("ensured above");
            csr.dijkstra_rows_with(self.backend.dense_mut().invalid_jobs(), workers);
            self.backend.dense_mut().mark_all_valid();
            self.stats.full_sssp += invalid;
            self.stats.parallel_passes += 1;
            self.stats.parallel_rows += invalid;
        } else {
            for u in 0..self.game.n() {
                let _ = self.row(u);
            }
        }
    }

    /// Individual cost of `peer` under the current profile:
    /// `c_i(s) = α·|s_i| + Σ_{j≠i} stretch(i, j)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PeerOutOfBounds`] for out-of-range peers.
    pub fn peer_cost(&mut self, peer: PeerId) -> Result<f64, CoreError> {
        if peer.index() >= self.game.n() {
            return Err(CoreError::PeerOutOfBounds {
                peer: peer.index(),
                n: self.game.n(),
            });
        }
        let _ = self.row(peer.index());
        let row = self.backend.stored_row(peer.index());
        Ok(peer_cost_from_distances(
            &self.game,
            &self.profile,
            peer,
            row,
        ))
    }

    /// Individual costs of every peer. Dense sessions fill the whole
    /// distance cache; sparse sessions stream one transient row per peer
    /// (`O(n)` memory, `n` sweeps).
    #[must_use]
    pub fn all_peer_costs(&mut self) -> Vec<f64> {
        if self.backend.is_sparse() {
            return (0..self.game.n())
                .map(|u| {
                    self.peer_cost(PeerId::new(u))
                        .expect("peer index in range by construction")
                })
                .collect();
        }
        self.ensure_all_rows();
        (0..self.game.n())
            .map(|u| {
                peer_cost_from_distances(
                    &self.game,
                    &self.profile,
                    PeerId::new(u),
                    self.backend.dense().row(u),
                )
            })
            .collect()
    }

    /// Social cost of the current profile, decomposed into link and
    /// stretch terms. Sparse sessions stream the summation one transient
    /// row at a time — `n` sweeps, never an `n × n` matrix.
    #[must_use]
    pub fn social_cost(&mut self) -> SocialCost {
        if self.backend.is_sparse() {
            let n = self.game.n();
            let mut stretch_cost = 0.0f64;
            'souter: for u in 0..n {
                let _ = self.row(u);
                let row = self.backend.stored_row(u);
                for j in 0..n {
                    if j != u {
                        stretch_cost += row[j] / self.game.distance(u, j);
                    }
                }
                if stretch_cost.is_infinite() {
                    stretch_cost = f64::INFINITY;
                    break 'souter;
                }
            }
            return SocialCost {
                link_cost: self.game.alpha() * self.profile.link_count() as f64,
                stretch_cost,
            };
        }
        self.ensure_all_rows();
        let n = self.game.n();
        let mut stretch_cost = 0.0f64;
        'outer: for u in 0..n {
            let row = self.backend.dense().row(u);
            for j in 0..n {
                if j != u {
                    stretch_cost += row[j] / self.game.distance(u, j);
                }
            }
            if stretch_cost.is_infinite() {
                stretch_cost = f64::INFINITY;
                break 'outer;
            }
        }
        SocialCost {
            link_cost: self.game.alpha() * self.profile.link_count() as f64,
            stretch_cost,
        }
    }

    /// The overlay distance matrix `d_G(i, j)` (fills every row).
    ///
    /// On a **sparse** session this is the documented `O(n²)` escape
    /// hatch — the matrix is materialised transiently for small-instance
    /// debugging and dropped again on the next mutation. Large-`n`
    /// sparse flows must stay on `local_response` / `peer_cost` /
    /// `social_cost`, which never call this.
    pub fn overlay_distances(&mut self) -> &DistanceMatrix {
        if self.backend.is_sparse() {
            self.ensure_csr();
            if !self.backend.sparse().escape_ready() {
                self.stats.full_sssp += self.game.n();
            }
            let csr = self.csr.as_ref().expect("ensured above");
            return self
                .backend
                .sparse_mut()
                .escape_matrix(csr, &mut self.scratch);
        }
        self.ensure_all_rows();
        self.backend.dense().matrix()
    }

    /// The stretch matrix `d_G(i, j) / d(i, j)` (cached until the next
    /// profile mutation). Sparse sessions route through the
    /// [`GameSession::overlay_distances`] escape hatch.
    pub fn stretch_matrix(&mut self) -> &DistanceMatrix {
        if self.stretch.is_none() {
            let n = self.game.n();
            // sp-lint: allow(dense-alloc, reason = "the stretch matrix is inherently n^2; sparse flows never request it")
            let mut s = DistanceMatrix::new_filled(n, 1.0);
            if self.backend.is_sparse() {
                let game = Arc::clone(&self.game);
                let d = self.overlay_distances();
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            s[(i, j)] = d[(i, j)] / game.distance(i, j);
                        }
                    }
                }
            } else {
                self.ensure_all_rows();
                for i in 0..n {
                    let row = self.backend.dense().row(i);
                    for j in 0..n {
                        if i != j {
                            s[(i, j)] = row[j] / self.game.distance(i, j);
                        }
                    }
                }
            }
            self.stretch = Some(s);
        }
        self.stretch.as_ref().expect("filled above")
    }

    /// The largest stretch over all ordered pairs (`1.0` for fewer than
    /// two peers, `∞` when some peer cannot reach some other peer).
    #[must_use]
    pub fn max_stretch(&mut self) -> f64 {
        let n = self.game.n();
        let s = self.stretch_matrix();
        let mut m = 1.0f64;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m = m.max(s[(i, j)]);
                }
            }
        }
        m
    }

    /// `peer`'s best response against the fixed rest of the current
    /// profile, served from the persistent oracle cache: a candidate
    /// row comes verbatim from the overlay distance matrix whenever none
    /// of `peer`'s out-links is tight on its shortest paths (the same
    /// conservative test the removal repair uses, so reuse never changes
    /// a value), from a retained residual `G_{-i}` row swept by an
    /// earlier build otherwise, and only pays a fresh sweep when neither
    /// tier can serve it — that sweep is then retained for the next
    /// build. Because [`GameSession::apply`] repairs both tiers
    /// per-move, consecutive activations in sequential dynamics serve
    /// most candidate rows without sweeping.
    ///
    /// [`BestResponseMethod::Greedy`] runs on the lazy certified-bound
    /// oracle: every candidate row starts as a lower bound (a valid but
    /// dirty overlay row, else the deflated metric row), the greedy drops
    /// a candidate whose bound cannot beat its running pick, and only
    /// rows that still can are made exact — nothing is refilled up
    /// front. The other methods make every candidate row exact first,
    /// refilling the invalid overlay rows no residual row covers.
    ///
    /// Bit-identical to [`GameSession::best_response_uncached`]
    /// (property-tested in `crates/core/tests/proptest_session.rs` and
    /// `proptest_lazy_oracle.rs`, including across arbitrary interleaved
    /// `apply` sequences); cache tier accounting lands in
    /// [`SessionStats::seq_oracle_hits`] /
    /// [`SessionStats::seq_oracle_swept`], and the Greedy bound outcomes
    /// in [`SessionStats::lazy_certified_rejects`] /
    /// [`SessionStats::lazy_exact_evals`].
    ///
    /// # Errors
    ///
    /// Same conditions as the free [`crate::best_response`].
    pub fn best_response(
        &mut self,
        peer: PeerId,
        method: BestResponseMethod,
    ) -> Result<BestResponse, CoreError> {
        self.best_response_counted(peer, method, OracleCounter::Sequential)
    }

    /// Like [`GameSession::best_response`], but always builds a fresh
    /// `G_{-i}` oracle — `n - 1` Dijkstra sweeps, no cache reads or
    /// stores. This is the reference implementation the cached path is
    /// property-tested against, and the pre-cache baseline the
    /// `sequential_reuse` bench measures savings from.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GameSession::best_response`].
    pub fn best_response_uncached(
        &mut self,
        peer: PeerId,
        method: BestResponseMethod,
    ) -> Result<BestResponse, CoreError> {
        let current_cost = self.peer_cost(peer)?;
        if self.game.n() <= 1 {
            return Ok(Self::trivial_response(peer, current_cost));
        }
        let oracle =
            ResponseOracle::build_with(&self.game, &self.profile, peer, &mut self.scratch)?;
        self.stats.oracle_builds += 1;
        let solved = oracle.solve(method)?;
        Ok(self.finish_response(peer, method, solved, current_cost))
    }

    /// The response on a game too small to have candidates (`n <= 1`):
    /// the empty strategy at cost 0, trivially exact. One definition so
    /// the cached and uncached paths cannot diverge on the contract.
    fn trivial_response(peer: PeerId, current_cost: f64) -> BestResponse {
        BestResponse {
            peer,
            links: LinkSet::new(),
            cost: 0.0,
            current_cost,
            exact: true,
        }
    }

    /// Bounds-checks `peer` and reports whether the game is too small
    /// for any single-link move to exist (`n <= 1`) — the shared guard
    /// of the better-response paths.
    fn too_small_for_moves(&self, peer: PeerId) -> Result<bool, CoreError> {
        if self.game.n() <= 1 {
            if peer.index() >= self.game.n() {
                return Err(CoreError::PeerOutOfBounds {
                    peer: peer.index(),
                    n: self.game.n(),
                });
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Makes the overlay rows a cached oracle build for `peer` will read
    /// valid — lazily: an invalid row `u` whose residual twin `(peer, u)`
    /// is retained stays invalid, because the build serves it from the
    /// residual tier (exact by the repair invariants) and refilling it
    /// here would pay a full sweep for a value the build never reads.
    /// Rows no tier covers are refilled, sharded over worker threads when
    /// enough queue up — the same policy as
    /// [`GameSession::ensure_all_rows`].
    fn ensure_rows_for_oracle(&mut self, peer: PeerId) {
        let n = self.game.n();
        let i = peer.index();
        let mut need: Vec<usize> = Vec::new();
        let mut skipped = 0usize;
        for u in 0..n {
            if self.backend.dense().row_is_valid(u) {
                continue;
            }
            if u != i && self.backend.dense().residual_row(i, u).is_some() {
                skipped += 1;
            } else {
                need.push(u);
            }
        }
        self.stats.seq_refills_skipped += skipped;
        if need.is_empty() {
            return;
        }
        let workers = self.worker_count().min(need.len());
        if workers > 1 && (self.parallelism.is_some() || need.len() >= PAR_ROWS_MIN) {
            self.ensure_csr();
            let csr = self.csr.as_ref().expect("ensured above");
            csr.dijkstra_rows_with(self.backend.dense_mut().jobs_for(&need), workers);
            self.backend.dense_mut().mark_rows_valid(&need);
            self.stats.full_sssp += need.len();
            self.stats.parallel_passes += 1;
            self.stats.parallel_rows += need.len();
        } else {
            for u in need {
                let _ = self.row(u);
            }
        }
    }

    /// Counts one cached oracle query and its row accounting into the
    /// requested [`SessionStats`] bucket.
    fn count_oracle(&mut self, counter: OracleCounter, reuse: OracleReuse) {
        self.stats.oracle_builds += 1;
        match counter {
            OracleCounter::Sequential => {
                self.stats.seq_oracle_hits += reuse.hits();
                self.stats.seq_oracle_swept += reuse.rows_swept;
            }
            OracleCounter::Round => {
                self.stats.oracle_rows_reused += reuse.hits();
                self.stats.oracle_rows_swept += reuse.rows_swept;
            }
        }
    }

    /// Builds the eager cached oracle for `peer` (every candidate row
    /// exact up front) — the path of the exact and local-search methods.
    fn cached_oracle(
        &mut self,
        peer: PeerId,
        counter: OracleCounter,
    ) -> Result<ResponseOracle, CoreError> {
        self.ensure_rows_for_oracle(peer);
        self.ensure_csr();
        let (oracle, reuse): (ResponseOracle, OracleReuse) = ResponseOracle::build_from_cache(
            &self.game,
            &self.profile,
            peer,
            self.csr.as_ref().expect("ensured above"),
            self.backend.dense_mut(),
            &mut self.scratch,
        )?;
        self.count_oracle(counter, reuse);
        Ok(oracle)
    }

    /// Runs `query` over the lazy certified-bound rows for `peer` (dense
    /// sessions): no overlay refill up front, and a candidate row pays a
    /// `G_{-i}` sweep only while its lower bound can still win. Counts
    /// the row accounting into `counter`'s bucket and the bound outcomes
    /// into [`SessionStats::lazy_certified_rejects`] /
    /// [`SessionStats::lazy_exact_evals`] (Greedy queries also into
    /// [`SessionStats::lazy_greedy_scores`] /
    /// [`SessionStats::lazy_stale_skips`]).
    fn lazy_query<T>(
        &mut self,
        peer: PeerId,
        counter: OracleCounter,
        query: impl FnOnce(&mut LazyRows<'_>) -> T,
    ) -> Result<T, CoreError> {
        self.ensure_csr();
        let mut rows = LazyRows::new(
            &self.game,
            &self.profile,
            peer,
            self.csr.as_ref().expect("ensured above"),
            self.backend.dense_mut(),
            &mut self.scratch,
        )?;
        let out = query(&mut rows);
        let scan = rows.scan();
        self.count_oracle(counter, scan.reuse);
        self.stats.lazy_certified_rejects += scan.certified_rejects;
        self.stats.lazy_exact_evals += scan.exact_evals;
        self.stats.lazy_greedy_scores += scan.greedy_scores;
        self.stats.lazy_stale_skips += scan.stale_skips;
        Ok(out)
    }

    /// Shared body of the cached response paths.
    fn best_response_counted(
        &mut self,
        peer: PeerId,
        method: BestResponseMethod,
        counter: OracleCounter,
    ) -> Result<BestResponse, CoreError> {
        let current_cost = self.peer_cost(peer)?;
        if self.game.n() <= 1 {
            return Ok(Self::trivial_response(peer, current_cost));
        }
        if self.backend.is_sparse() {
            // Certified queries on a sparse session pay an exact fresh
            // `G_{-i}` oracle — `O(n)` memory, never an n×n matrix — so
            // the verdict carries the same guarantees as dense mode.
            self.stats.sparse_exact_fallbacks += 1;
            let oracle =
                ResponseOracle::build_with(&self.game, &self.profile, peer, &mut self.scratch)?;
            self.stats.oracle_builds += 1;
            let solved = oracle.solve(method)?;
            return Ok(self.finish_response(peer, method, solved, current_cost));
        }
        let solved = if method == BestResponseMethod::Greedy {
            self.lazy_query(peer, counter, |rows| rows.greedy())?
        } else {
            self.cached_oracle(peer, counter)?.solve(method)?
        };
        Ok(self.finish_response(peer, method, solved, current_cost))
    }

    /// Shared tail of the oracle-backed response paths: take the solved
    /// UFL instance, falling back to the current strategy when a
    /// heuristic comes out worse.
    fn finish_response(
        &self,
        peer: PeerId,
        method: BestResponseMethod,
        (links, cost): (LinkSet, f64),
        current_cost: f64,
    ) -> BestResponse {
        // sp-lint: allow(float-eps, reason = "conservative accept: a heuristic tie or epsilon-worse solution keeps the current strategy, which is always valid")
        if cost > current_cost {
            // Heuristics may come out worse; keeping the current strategy
            // is then the better (valid) response.
            return BestResponse {
                peer,
                links: self.profile.strategy(peer).clone(),
                cost: current_cost,
                current_cost,
                exact: method.is_exact(),
            };
        }
        BestResponse {
            peer,
            links,
            cost,
            current_cost,
            exact: method.is_exact(),
        }
    }

    /// Best responses of every peer in `peers` against the **frozen**
    /// current profile — the oracle fan-out of one simultaneous-move
    /// round.
    ///
    /// The session first makes every distance row valid (that snapshot is
    /// the round-start state all oracles read), then computes one cached
    /// oracle (the [`GameSession::best_response`] code path, counted into
    /// the round counters) per activated peer. When the
    /// [`GameSession::set_parallelism`] knob resolves to more than one
    /// worker — and, under automatic parallelism, at least
    /// `PAR_ORACLES_MIN` peers are activated — activation position `p`
    /// is assigned to shard `p mod k` (a deterministic round-robin
    /// interleave, so fallback-sweep-heavy peers spread evenly across
    /// shards instead of clustering in one contiguous chunk), each shard
    /// runs on its own worker thread over a
    /// [`GameSession::fork_readonly`] snapshot with a per-thread
    /// [`DijkstraScratch`], and the results are scattered back into
    /// activation order.
    ///
    /// **Determinism contract:** the returned responses are identical —
    /// bit-for-bit, including tie-breaking — whatever the shard count,
    /// because every shard evaluates the same frozen snapshot with the
    /// same per-peer code path and the interleave is a pure function of
    /// `(position, shard count)` that the merge inverts exactly. Shard
    /// oracle/reuse counters are folded into this session's
    /// [`SessionStats`]; `oracle_parallel_rounds`/`oracle_shards` record
    /// the fan-out itself.
    ///
    /// # Errors
    ///
    /// [`CoreError::PeerOutOfBounds`] for any out-of-range peer (checked
    /// up front), plus the [`GameSession::best_response`] conditions; the
    /// error of the lowest-indexed failing shard is returned.
    pub fn best_responses_round(
        &mut self,
        peers: &[PeerId],
        method: BestResponseMethod,
    ) -> Result<Vec<BestResponse>, CoreError> {
        let n = self.game.n();
        for &p in peers {
            if p.index() >= n {
                return Err(CoreError::PeerOutOfBounds { peer: p.index(), n });
            }
        }
        if peers.is_empty() {
            return Ok(Vec::new());
        }
        if n <= 1 || self.backend.is_sparse() {
            // Sparse sessions evaluate the round sequentially through the
            // exact fallback path — no frozen matrix to fan out over.
            return peers
                .iter()
                .map(|&p| self.best_response(p, method))
                .collect();
        }
        // Freeze the round-start snapshot every oracle will read.
        self.ensure_all_rows();
        let workers = self.worker_count().min(peers.len());
        let shards =
            if workers > 1 && (self.parallelism.is_some() || peers.len() >= PAR_ORACLES_MIN) {
                workers
            } else {
                1
            };
        if shards <= 1 {
            return peers
                .iter()
                .map(|&p| self.best_response_counted(p, method, OracleCounter::Round))
                .collect();
        }

        // Deterministic round-robin interleave: activation position p
        // computes on shard p % shards. Every shard is non-empty because
        // shards <= peers.len().
        let mut shard_peers: Vec<Vec<PeerId>> = vec![Vec::new(); shards];
        for (pos, &p) in peers.iter().enumerate() {
            shard_peers[pos % shards].push(p);
        }
        let mut forks: Vec<GameSession> = (0..shards).map(|_| self.fork_readonly()).collect();
        self.stats.oracle_parallel_rounds += 1;
        self.stats.oracle_shards += shards;
        let results: Vec<Result<Vec<BestResponse>, CoreError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shard_peers
                .iter()
                .zip(forks.iter_mut())
                .map(|(mine, shard)| {
                    scope.spawn(move || {
                        mine.iter()
                            .map(|&p| shard.best_response_counted(p, method, OracleCounter::Round))
                            .collect::<Result<Vec<_>, _>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oracle shard thread panicked"))
                .collect()
        });
        // Scatter the shard results back into activation order (shard s
        // computed positions s, s + shards, s + 2·shards, …).
        let mut slots: Vec<Option<BestResponse>> = peers.iter().map(|_| None).collect();
        for (s, (result, shard)) in results.into_iter().zip(&forks).enumerate() {
            // Fold the fork's counters in wholesale: forks are
            // read-only, so only oracle-path counters can be non-zero,
            // and an exhaustive merge can never silently drop a counter
            // a future PR adds.
            self.stats.merge(&shard.stats());
            for (k, br) in result?.into_iter().enumerate() {
                slots[s + k * shards] = Some(br);
            }
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("interleave covers every activation position"))
            .collect())
    }

    /// First strictly improving single-link move for `peer` (drop, add,
    /// swap — in that order), or `None`; the "better response" used by
    /// low-churn dynamics.
    ///
    /// Served by the lazy certified-bound oracle over the persistent
    /// cache: each candidate row starts as a lower bound (a valid but
    /// dirty overlay row, else the deflated metric row), adds and swaps
    /// whose bound cannot pass the improvement test are rejected on it,
    /// and only survivors pay for exact rows (overlay-clean, residual,
    /// or a fresh `G_{-i}` sweep that the residual tier keeps). No overlay
    /// row is refilled up front. Bit-identical to
    /// [`GameSession::first_improving_move_uncached`].
    ///
    /// # Errors
    ///
    /// Same conditions as the free [`crate::first_improving_move`].
    pub fn first_improving_move(
        &mut self,
        peer: PeerId,
        tol: f64,
    ) -> Result<Option<BestResponse>, CoreError> {
        if self.too_small_for_moves(peer)? {
            return Ok(None);
        }
        if self.backend.is_sparse() {
            self.stats.sparse_exact_fallbacks += 1;
            return self.first_improving_move_uncached(peer, tol);
        }
        self.lazy_query(peer, OracleCounter::Sequential, |rows| {
            rows.first_improving_move(tol)
        })
    }

    /// Like [`GameSession::first_improving_move`], but always sweeps a
    /// fresh `G_{-i}` oracle — the cache-free reference and bench
    /// baseline, mirroring [`GameSession::best_response_uncached`].
    ///
    /// # Errors
    ///
    /// Same conditions as the free [`crate::first_improving_move`].
    pub fn first_improving_move_uncached(
        &mut self,
        peer: PeerId,
        tol: f64,
    ) -> Result<Option<BestResponse>, CoreError> {
        if self.too_small_for_moves(peer)? {
            return Ok(None);
        }
        let oracle =
            ResponseOracle::build_with(&self.game, &self.profile, peer, &mut self.scratch)?;
        self.stats.oracle_builds += 1;
        Ok(oracle.first_improving_move(peer, self.profile.strategy(peer), tol))
    }

    /// Builds the landmark sketch (and transpose) of a sparse session if
    /// absent, charging the `2·L` landmark sweeps to the stats.
    fn ensure_sparse_ready(&mut self) {
        self.ensure_csr();
        let csr = self.csr.as_ref().expect("ensured above");
        let swept = self
            .backend
            .sparse_mut()
            .ensure_ready(csr, &mut self.scratch);
        if swept > 0 {
            self.stats.full_sssp += swept;
            self.stats.sparse_sketch_rows += swept;
        }
    }

    /// Certified bounds `(lower, upper)` on the overlay distance
    /// `d_G(u, v)` under the current profile: `lower ≤ d_G(u, v) ≤
    /// upper` always holds. Dense sessions answer exactly
    /// (`lower == upper`); sparse sessions combine the landmark sketch
    /// with the metric lower bound without sweeping from `u`.
    ///
    /// # Errors
    ///
    /// [`CoreError::PeerOutOfBounds`] for out-of-range peers.
    pub fn dist_bounds(&mut self, u: PeerId, v: PeerId) -> Result<(f64, f64), CoreError> {
        let n = self.game.n();
        for p in [u, v] {
            if p.index() >= n {
                return Err(CoreError::PeerOutOfBounds { peer: p.index(), n });
            }
        }
        if self.backend.is_sparse() {
            self.ensure_sparse_ready();
            return Ok(self
                .backend
                .sparse()
                .dist_bounds(&self.game, u.index(), v.index()));
        }
        let d = self.row(u.index())[v.index()];
        Ok((d, d))
    }

    /// The sparse session's native better response: a **deterministic
    /// heuristic** move for `peer` evaluated against its metric window
    /// only — exact distances inside a bounded ball, certified sketch
    /// upper bounds beyond it, stretch-floor pruning for hopeless
    /// candidates — or `None` when no evaluated move improves.
    ///
    /// Cost model: `O(window · ball_cap · log)` per call, independent of
    /// `n` once the sketch is built. Never materialises a matrix. The
    /// returned move carries `exact: false` — large-`n` dynamics trade
    /// per-move optimality for tractability, converging on the same
    /// better-response principle the paper's dynamics use.
    ///
    /// On a **dense** session this simply forwards to
    /// [`GameSession::first_improving_move`] (exact), so driver code can
    /// call it unconditionally. Sparse sessions whose window already
    /// covers every peer (`window + 1 ≥ n`) also route to the exact scan
    /// — a sparse session on a small instance decides **bit-identically**
    /// to a dense one.
    ///
    /// # Errors
    ///
    /// [`CoreError::PeerOutOfBounds`] for out-of-range peers.
    pub fn local_response(
        &mut self,
        peer: PeerId,
        tol: f64,
    ) -> Result<Option<BestResponse>, CoreError> {
        if peer.index() >= self.game.n() {
            return Err(CoreError::PeerOutOfBounds {
                peer: peer.index(),
                n: self.game.n(),
            });
        }
        if self.too_small_for_moves(peer)? {
            return Ok(None);
        }
        if !self.backend.is_sparse() {
            return self.first_improving_move(peer, tol);
        }
        if self.backend.sparse().window() + 1 >= self.game.n() {
            self.stats.sparse_exact_fallbacks += 1;
            return self.first_improving_move_uncached(peer, tol);
        }
        self.ensure_sparse_ready();
        let csr = self.csr.as_ref().expect("sketch build ensured the CSR");
        let mut counts = LocalCounts::default();
        let result = self.backend.sparse_mut().local_response(
            &self.game,
            &self.profile,
            csr,
            peer,
            tol,
            &mut counts,
        );
        self.stats.sparse_ball_sweeps += counts.ball_sweeps;
        self.stats.sparse_sketch_hits += counts.sketch_hits;
        self.stats.sparse_pruned_candidates += counts.pruned;
        Ok(result)
    }

    /// The largest improvement any single peer can gain by deviating
    /// (0.0 at equilibrium, `∞` if someone can restore connectivity).
    /// Oracles come from the persistent cache, so monitoring loops that
    /// call this between moves pay only for what changed.
    ///
    /// Dense sessions solve best responses only for peers that can still
    /// raise the maximum. Every peer gets a certified **upper bound** on
    /// its improvement, `ub_i = c_i − LB_i`: its current cost less a
    /// certified lower bound on the cost of any response. `LB_i` starts
    /// as a floor that reads no row (`α + (n − 1)·δ`, every assignment
    /// entry being at least the metric deflation `δ`) and is tightened
    /// to the overlay-row floor `Σ_j min(1 + α, s_j)` — an `O(n²)` pass —
    /// only when a peer comes up for solving. Peers are visited in
    /// descending `ub_i`, lower index first on ties; a peer whose bound
    /// cannot strictly beat the running maximum is skipped, and so is
    /// every peer after it. A skipped peer's improvement is at most the
    /// maximum already found, and the maximum does not depend on visit
    /// order, so the gap is bit-identical to solving every peer — for
    /// every [`BestResponseMethod`], since each method's reported cost is
    /// at least the certified bound (the derivation is at
    /// `best_response::response_slack_unit`). Skipped peers count in
    /// [`SessionStats::nash_peers_pruned`]. Sparse sessions solve every
    /// peer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GameSession::best_response`].
    pub fn nash_gap(&mut self, method: BestResponseMethod) -> Result<f64, CoreError> {
        let mut gap = 0.0f64;
        if self.backend.is_sparse() || self.game.n() < 2 {
            for i in 0..self.game.n() {
                let imp = self.best_response(PeerId::new(i), method)?.improvement();
                // sp-lint: allow(float-eps, reason = "running max: exact comparison of computed values; ties leave the identical max")
                if imp > gap {
                    gap = imp;
                }
            }
            return Ok(gap);
        }
        check_solvable(method, self.game.n())?;
        let mut scan = self.certified_scan();
        // sp-lint: allow(float-eps, reason = "certified prune: the bound's float slack is derived at response_slack_unit; a tie cannot raise the max")
        while let Some(peer) = self.next_to_solve(&mut scan, |b| b.ub <= gap) {
            let imp = self.best_response(PeerId::new(peer), method)?.improvement();
            // sp-lint: allow(float-eps, reason = "running max: exact comparison of computed values; ties leave the identical max")
            if imp > gap {
                gap = imp;
            }
        }
        Ok(gap)
    }

    /// Checks whether the current profile is a (pure) Nash equilibrium.
    ///
    /// The reported deviation is the one with the largest improvement
    /// among peers whose response passes [`BestResponse::improves`],
    /// the lowest peer index among equal improvements. Dense sessions
    /// find it with the certified scan of [`GameSession::nash_gap`]: a
    /// peer is skipped when its improvement bound cannot beat the
    /// current pick under that `(improvement, lower index)` order, or
    /// when its response-cost floor already fails the tolerance test.
    /// The report — deviation peer, links and costs — is bit-identical
    /// to solving every peer; skipped peers count in
    /// [`SessionStats::nash_peers_pruned`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`GameSession::best_response`].
    pub fn is_nash(&mut self, test: &NashTest) -> Result<NashReport, CoreError> {
        let mut best: Option<Deviation> = None;
        let consider = |br: BestResponse, best: &mut Option<Deviation>| {
            if !br.improves(test.tolerance) {
                return;
            }
            let dev = Deviation {
                peer: br.peer,
                links: br.links,
                old_cost: br.current_cost,
                new_cost: br.cost,
            };
            let replace = best.as_ref().is_none_or(|b| {
                let (new, old) = (dev.improvement(), b.improvement());
                new > old || (new == old && dev.peer < b.peer)
            });
            if replace {
                *best = Some(dev);
            }
        };
        if self.backend.is_sparse() || self.game.n() < 2 {
            let peer_costs = self.all_peer_costs();
            for i in 0..self.game.n() {
                consider(self.best_response(PeerId::new(i), test.method)?, &mut best);
            }
            return Ok(NashReport {
                best_deviation: best,
                certified_exact: test.method.is_exact(),
                peer_costs,
            });
        }
        check_solvable(test.method, self.game.n())?;
        let mut scan = self.certified_scan();
        let ruled_out = |b: &PeerBound, best: &Option<Deviation>| {
            // `improves` needs `cost < threshold`, and the cost is at
            // least the floor.
            let threshold = b.current - test.tolerance * (1.0 + b.current.abs());
            let floored = b.current.is_finite() && b.floor >= threshold;
            floored
                || best.as_ref().is_some_and(|d| {
                    let top = d.improvement();
                    b.ub < top || (b.ub == top && b.peer > d.peer.index())
                })
        };
        while let Some(peer) = self.next_to_solve(&mut scan, |b| ruled_out(b, &best)) {
            consider(
                self.best_response(PeerId::new(peer), test.method)?,
                &mut best,
            );
        }
        Ok(NashReport {
            best_deviation: best,
            certified_exact: test.method.is_exact(),
            peer_costs: scan.costs,
        })
    }

    /// Starts the certified equilibrium scan of a dense session with
    /// `n ≥ 2` peers: fills every overlay row (the same sweeps per-peer
    /// cost queries pay), takes every peer's current cost, and queues
    /// every peer on the row-free floor.
    fn certified_scan(&mut self) -> CertifiedScan {
        let costs = self.all_peer_costs();
        let free = response_cost_floor_free(&self.game);
        let queue = costs
            .iter()
            .enumerate()
            .map(|(peer, &current)| PeerBound::new(peer, current, free, false))
            .collect();
        CertifiedScan {
            costs,
            queue,
            through: Vec::new(),
        }
    }

    /// The next peer the certified scan must solve, in descending
    /// improvement bound (lower index first on ties), or `None` when
    /// every peer is solved or ruled out. A peer `ruled_out` rejects —
    /// given the answer so far — is dropped and counted in
    /// [`SessionStats::nash_peers_pruned`]; a peer still on the row-free
    /// floor is first tightened to the overlay-row floor
    /// (`best_response::response_cost_floor`) and requeued.
    fn next_to_solve(
        &mut self,
        scan: &mut CertifiedScan,
        ruled_out: impl Fn(&PeerBound) -> bool,
    ) -> Option<usize> {
        while let Some(bound) = scan.queue.pop() {
            if ruled_out(&bound) {
                self.stats.nash_peers_pruned += 1;
                continue;
            }
            if bound.refined {
                return Some(bound.peer);
            }
            let cache = self.backend.dense();
            let rows = response_cost_floor(&self.game, bound.peer, cache, &mut scan.through);
            let floor = bound.floor.max(rows);
            scan.queue
                .push(PeerBound::new(bound.peer, bound.current, floor, true));
        }
        None
    }
}

/// The state of a certified equilibrium scan ([`GameSession::nash_gap`],
/// [`GameSession::is_nash`]).
struct CertifiedScan {
    /// Every peer's current cost.
    costs: Vec<f64>,
    /// Peers neither solved nor ruled out, highest bound first.
    queue: BinaryHeap<PeerBound>,
    /// Reusable buffer of `best_response::response_cost_floor`.
    through: Vec<f64>,
}

/// One peer's entry in the certified equilibrium scan, ordered by
/// improvement bound, then lower peer index first.
#[derive(Debug, Clone, Copy)]
struct PeerBound {
    peer: usize,
    /// The peer's current cost.
    current: f64,
    /// Certified lower bound on the cost of any response of `peer`.
    floor: f64,
    /// Certified upper bound on `peer`'s improvement: `current − floor`
    /// (`+∞` when that is NaN, so it is never ruled out).
    ub: f64,
    /// Whether `floor` includes the overlay-row floor yet.
    refined: bool,
}

impl PeerBound {
    fn new(peer: usize, current: f64, floor: f64, refined: bool) -> Self {
        let ub = current - floor;
        PeerBound {
            peer,
            current,
            floor,
            ub: if ub.is_nan() { f64::INFINITY } else { ub },
            refined,
        }
    }
}

impl Ord for PeerBound {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ub
            .total_cmp(&other.ub)
            .then_with(|| other.peer.cmp(&self.peer))
    }
}

impl PartialOrd for PeerBound {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for PeerBound {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for PeerBound {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        all_peer_costs, best_response, is_nash, max_stretch, nash_gap, social_cost, stretch_matrix,
    };
    use sp_metric::LineSpace;

    fn game(alpha: f64) -> Game {
        Game::from_space(
            &LineSpace::new(vec![0.0, 1.0, 3.0, 4.0, 7.5]).unwrap(),
            alpha,
        )
        .unwrap()
    }

    fn detour_game() -> Game {
        let m = DistanceMatrix::from_row_major(
            4,
            vec![
                0.0, 1.0, 1.8, 2.4, //
                1.0, 0.0, 1.0, 1.9, //
                1.8, 1.0, 0.0, 1.0, //
                2.4, 1.9, 1.0, 0.0,
            ],
        )
        .unwrap();
        Game::new(m, 0.8).unwrap()
    }

    fn assert_matches_free_functions(session: &mut GameSession) {
        let game = session.game().clone();
        let profile = session.profile().clone();
        let sc = social_cost(&game, &profile).unwrap();
        let got = session.social_cost();
        assert!(
            (sc.total() - got.total()).abs() < 1e-9
                || (sc.total().is_infinite() && got.total().is_infinite()),
            "social cost mismatch: {} vs {}",
            sc.total(),
            got.total()
        );
        let batch = all_peer_costs(&game, &profile).unwrap();
        for (i, expected) in batch.iter().enumerate() {
            let got = session.peer_cost(PeerId::new(i)).unwrap();
            assert!(
                (expected - got).abs() < 1e-9 || (expected.is_infinite() && got.is_infinite()),
                "peer {i}: {expected} vs {got}"
            );
        }
        let s_free = stretch_matrix(&game, &profile).unwrap();
        assert_eq!(session.stretch_matrix(), &s_free);
        let ms = max_stretch(&game, &profile).unwrap();
        let ms_s = session.max_stretch();
        assert!((ms - ms_s).abs() < 1e-12 || (ms.is_infinite() && ms_s.is_infinite()));
    }

    #[test]
    fn fresh_session_matches_free_functions() {
        let g = game(1.3);
        for links in [
            vec![],
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
            vec![
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
                (3, 4),
                (4, 3),
            ],
        ] {
            let p = StrategyProfile::from_links(5, &links).unwrap();
            let mut s = GameSession::from_refs(&g, &p).unwrap();
            assert_matches_free_functions(&mut s);
        }
    }

    #[test]
    fn apply_add_and_remove_stay_consistent() {
        let g = detour_game();
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 2), (2, 1), (1, 0)])
            .unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        // Warm every cache first so apply() exercises the repair path.
        let _ = s.social_cost();
        let moves = [
            Move::AddLink {
                from: PeerId::new(0),
                to: PeerId::new(3),
            },
            Move::RemoveLink {
                from: PeerId::new(1),
                to: PeerId::new(2),
            },
            Move::AddLink {
                from: PeerId::new(1),
                to: PeerId::new(3),
            },
            Move::SetStrategy {
                peer: PeerId::new(2),
                links: [0usize, 3].into_iter().collect(),
            },
            Move::RemoveLink {
                from: PeerId::new(0),
                to: PeerId::new(3),
            },
        ];
        for mv in moves {
            s.apply(mv).unwrap();
            assert_matches_free_functions(&mut s);
        }
    }

    #[test]
    fn apply_returns_previous_links_and_rejects_bad_moves() {
        let g = game(1.0);
        let p = StrategyProfile::from_links(5, &[(0, 1), (0, 2)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let old = s
            .apply(Move::SetStrategy {
                peer: PeerId::new(0),
                links: LinkSet::new(),
            })
            .unwrap();
        assert_eq!(old.len(), 2);
        assert!(matches!(
            s.apply(Move::AddLink {
                from: PeerId::new(9),
                to: PeerId::new(0)
            }),
            Err(CoreError::PeerOutOfBounds { peer: 9, n: 5 })
        ));
        assert!(matches!(
            s.apply(Move::AddLink {
                from: PeerId::new(1),
                to: PeerId::new(1)
            }),
            Err(CoreError::SelfLink { peer: 1 })
        ));
        assert!(matches!(
            s.apply(Move::SetStrategy {
                peer: PeerId::new(1),
                links: [7usize].into_iter().collect(),
            }),
            Err(CoreError::PeerOutOfBounds { peer: 7, n: 5 })
        ));
    }

    #[test]
    fn session_best_response_and_nash_match_free_functions() {
        let g = detour_game();
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 0), (1, 2), (3, 2)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        for i in 0..4 {
            let peer = PeerId::new(i);
            let free = best_response(&g, &p, peer, BestResponseMethod::Exact).unwrap();
            let sess = s.best_response(peer, BestResponseMethod::Exact).unwrap();
            assert!((free.cost - sess.cost).abs() < 1e-9, "peer {i}");
            assert_eq!(free.links, sess.links, "peer {i}");
        }
        let free_report = is_nash(&g, &p, &NashTest::exact()).unwrap();
        let sess_report = s.is_nash(&NashTest::exact()).unwrap();
        assert_eq!(free_report.is_nash(), sess_report.is_nash());
        let free_gap = nash_gap(&g, &p, BestResponseMethod::Exact).unwrap();
        let sess_gap = s.nash_gap(BestResponseMethod::Exact).unwrap();
        assert!(
            (free_gap - sess_gap).abs() < 1e-9
                || (free_gap.is_infinite() && sess_gap.is_infinite())
        );
    }

    #[test]
    fn incremental_repair_avoids_full_sweeps_for_additions() {
        let g = game(2.0);
        let chain = StrategyProfile::from_links(
            5,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
                (3, 4),
                (4, 3),
            ],
        )
        .unwrap();
        let mut s = GameSession::from_refs(&g, &chain).unwrap();
        let _ = s.social_cost();
        let warm = s.stats();
        assert_eq!(warm.full_sssp, 5);
        // A pure addition must not trigger any fresh full sweep.
        s.apply(Move::AddLink {
            from: PeerId::new(0),
            to: PeerId::new(4),
        })
        .unwrap();
        let _ = s.social_cost();
        let after = s.stats();
        assert_eq!(after.full_sssp, warm.full_sssp, "additions repair in place");
        assert_eq!(after.rows_invalidated, 0);
        assert!(after.rows_preserved >= 5);
    }

    #[test]
    fn removal_preserves_unaffected_rows() {
        let g = game(2.0);
        // Star out of peer 0 plus chain back-links; removing 0 -> 4 only
        // affects rows that route through that link.
        let p = StrategyProfile::from_links(
            5,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 0),
                (2, 0),
                (3, 0),
                (4, 0),
            ],
        )
        .unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let _ = s.social_cost();
        s.apply(Move::RemoveLink {
            from: PeerId::new(0),
            to: PeerId::new(4),
        })
        .unwrap();
        let stats = s.stats();
        assert!(
            stats.rows_invalidated < 5,
            "some rows must survive a removal: {stats:?}"
        );
        assert_matches_free_functions(&mut s);
    }

    #[test]
    fn apply_batch_matches_sequential_applies() {
        let g = detour_game();
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 2), (2, 1), (1, 0)])
            .unwrap();
        let moves = vec![
            Move::AddLink {
                from: PeerId::new(0),
                to: PeerId::new(3),
            },
            Move::RemoveLink {
                from: PeerId::new(1),
                to: PeerId::new(2),
            },
            Move::SetStrategy {
                peer: PeerId::new(2),
                links: [0usize, 3].into_iter().collect(),
            },
            // Cancels the first move: the net diff must not contain 0 -> 3.
            Move::RemoveLink {
                from: PeerId::new(0),
                to: PeerId::new(3),
            },
        ];

        let mut batched = GameSession::from_refs(&g, &p).unwrap();
        let _ = batched.social_cost();
        let mut sequential = GameSession::from_refs(&g, &p).unwrap();
        let _ = sequential.social_cost();

        let previous = batched.apply_batch(&moves).unwrap();
        let expected: Vec<LinkSet> = moves
            .iter()
            .map(|mv| sequential.apply(mv.clone()).unwrap())
            .collect();
        assert_eq!(previous, expected, "per-move prior links must match");
        assert_eq!(batched.profile(), sequential.profile());
        assert_matches_free_functions(&mut batched);

        // One transaction: a single CSR rebuild for the whole batch, and
        // the batch counters ticked.
        let bs = batched.stats();
        let ss = sequential.stats();
        assert_eq!(bs.csr_rebuilds, 2, "warm-up + one batch rebuild");
        assert!(ss.csr_rebuilds > bs.csr_rebuilds);
        assert_eq!(bs.batch_applies, 1);
        assert_eq!(bs.batch_moves, 4);
        assert_eq!(ss.batch_applies, 0);
    }

    #[test]
    fn apply_batch_validates_everything_up_front() {
        let g = game(1.0);
        let p = StrategyProfile::from_links(5, &[(0, 1)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let _ = s.social_cost();
        let before_profile = s.profile().clone();
        let before_stats = s.stats();
        let err = s.apply_batch(&[
            Move::AddLink {
                from: PeerId::new(0),
                to: PeerId::new(2),
            },
            Move::AddLink {
                from: PeerId::new(7),
                to: PeerId::new(0),
            },
        ]);
        assert!(matches!(
            err,
            Err(CoreError::PeerOutOfBounds { peer: 7, n: 5 })
        ));
        assert_eq!(s.profile(), &before_profile, "failed batch must not mutate");
        assert_eq!(s.stats(), before_stats);
        assert!(s.apply_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn lazy_refill_skips_residual_served_rows_bit_identically() {
        // Monitoring pattern: the hot peer mutates, then immediately
        // rebuilds its own oracle. Its edits invalidate overlay rows
        // that its residual rows (which ignore its links) survive, so
        // the lazy refill must skip those rows' sweeps — and the lazy
        // build must stay bit-identical to the fresh-oracle reference.
        let g = detour_game();
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let mut lazy = GameSession::from_refs(&g, &p).unwrap();
        let mut fresh = GameSession::from_refs(&g, &p).unwrap();
        let hot = PeerId::new(0);
        let mut skipped_total = 0usize;
        for k in 0..6 {
            let a = lazy.best_response(hot, BestResponseMethod::Exact).unwrap();
            let b = fresh
                .best_response_uncached(hot, BestResponseMethod::Exact)
                .unwrap();
            assert_eq!(a.links, b.links, "step {k}");
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "step {k}");
            let t = PeerId::new(1 + (k % 3));
            let links = if t == hot {
                a.links.clone()
            } else if a.links.contains(t) {
                a.links.without(t)
            } else {
                a.links.with(t)
            };
            lazy.apply(Move::SetStrategy {
                peer: hot,
                links: links.clone(),
            })
            .unwrap();
            fresh.apply(Move::SetStrategy { peer: hot, links }).unwrap();
            skipped_total = lazy.stats().seq_refills_skipped;
        }
        assert!(
            skipped_total > 0,
            "the monitoring loop must exercise the lazy refill: {:?}",
            lazy.stats()
        );
        assert_matches_free_functions(&mut lazy);
    }

    #[test]
    fn memory_bytes_tracks_cache_growth() {
        let g = game(1.0);
        let p = StrategyProfile::from_links(5, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let cold = s.memory_bytes();
        assert!(cold > 0, "even a cold session owns its overlay matrix");
        let _ = s.social_cost();
        let warm = s.memory_bytes();
        assert!(warm > cold, "the CSR snapshot must be accounted");
        let _ = s.stretch_matrix();
        let stretched = s.memory_bytes();
        assert!(stretched > warm, "the stretch matrix must be accounted");
        let _ = s.best_response(PeerId::new(0), BestResponseMethod::Exact);
        assert!(
            s.memory_bytes() >= stretched,
            "retained residual rows never shrink the accounting"
        );
        // Deterministic: same state, same bytes.
        let mut t = GameSession::from_refs(&g, &p).unwrap();
        let _ = t.social_cost();
        assert_eq!(t.memory_bytes(), warm);
    }

    #[test]
    fn snapshot_restore_roundtrips_profile() {
        let g = detour_game();
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let _ = s.social_cost();
        let _ = s.best_response(PeerId::new(1), BestResponseMethod::Exact);
        let snap = s.snapshot();
        assert_eq!(snap.profile, p);
        assert_eq!(snap.sparse, None);
        assert_eq!(s.stats().snapshot_exports, 1);
        let mut restored = GameSession::restore(g.clone(), snap.clone()).unwrap();
        assert_eq!(restored.profile(), s.profile());
        assert_eq!(restored.stats().snapshot_restores, 1);
        assert!(
            restored.memory_bytes() < s.memory_bytes(),
            "a restored session starts cold"
        );

        // Cold and warm answer bit-identically, now and after more moves.
        let moves = [
            Move::AddLink {
                from: PeerId::new(0),
                to: PeerId::new(2),
            },
            Move::RemoveLink {
                from: PeerId::new(2),
                to: PeerId::new(3),
            },
        ];
        for mv in std::iter::once(None).chain(moves.into_iter().map(Some)) {
            if let Some(mv) = mv {
                s.apply(mv.clone()).unwrap();
                restored.apply(mv).unwrap();
            }
            assert_eq!(
                restored.social_cost().total().to_bits(),
                s.social_cost().total().to_bits()
            );
            assert_eq!(restored.max_stretch().to_bits(), s.max_stretch().to_bits());
            for i in 0..4 {
                let peer = PeerId::new(i);
                for m in [BestResponseMethod::Greedy, BestResponseMethod::LocalSearch] {
                    let (a, b) = (
                        s.best_response(peer, m).unwrap(),
                        restored.best_response(peer, m).unwrap(),
                    );
                    assert_eq!(a.links, b.links);
                    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
                }
                let (a, b) = (
                    s.first_improving_move(peer, 1e-9).unwrap(),
                    restored.first_improving_move(peer, 1e-9).unwrap(),
                );
                assert_eq!(a.map(|r| r.links), b.map(|r| r.links));
            }
            assert_eq!(
                restored
                    .nash_gap(BestResponseMethod::Greedy)
                    .unwrap()
                    .to_bits(),
                s.nash_gap(BestResponseMethod::Greedy).unwrap().to_bits()
            );
        }

        // A profile of the wrong size is rejected, not installed.
        let bad = SessionSnapshot {
            profile: StrategyProfile::empty(3),
            sparse: None,
        };
        assert!(matches!(
            GameSession::restore(g, bad),
            Err(CoreError::ProfileSizeMismatch { .. })
        ));
    }

    #[test]
    fn apply_batch_with_cancelling_moves_is_free() {
        let g = game(1.0);
        let p = StrategyProfile::from_links(5, &[(0, 1), (1, 0)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let _ = s.social_cost();
        let warm = s.stats();
        let prev = s
            .apply_batch(&[
                Move::AddLink {
                    from: PeerId::new(2),
                    to: PeerId::new(3),
                },
                Move::RemoveLink {
                    from: PeerId::new(2),
                    to: PeerId::new(3),
                },
            ])
            .unwrap();
        assert_eq!(prev.len(), 2);
        assert!(prev[0].is_empty());
        assert!(prev[1].contains(PeerId::new(3)));
        let after = s.stats();
        assert_eq!(
            after.csr_rebuilds, warm.csr_rebuilds,
            "net no-op skips the rebuild"
        );
        assert_eq!(after.batch_applies, 0, "no-op batches are not counted");
    }

    #[test]
    fn batched_removals_scan_rows_once() {
        let g = game(2.0);
        // Star out of peer 0: removing two spokes in one batch must run a
        // single repair scan (one rebuild), not one per removal.
        let p = StrategyProfile::from_links(
            5,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 0),
                (2, 0),
                (3, 0),
                (4, 0),
            ],
        )
        .unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let _ = s.social_cost();
        let warm = s.stats();
        s.apply_batch(&[
            Move::RemoveLink {
                from: PeerId::new(0),
                to: PeerId::new(3),
            },
            Move::RemoveLink {
                from: PeerId::new(0),
                to: PeerId::new(4),
            },
        ])
        .unwrap();
        let after = s.stats();
        assert_eq!(after.csr_rebuilds - warm.csr_rebuilds, 1);
        assert_eq!(
            (after.rows_invalidated + after.rows_preserved)
                - (warm.rows_invalidated + warm.rows_preserved),
            5,
            "each valid row is visited exactly once by the batch repair"
        );
        assert_matches_free_functions(&mut s);
    }

    #[test]
    fn parallel_refill_matches_sequential() {
        let g = game(1.5);
        let p = StrategyProfile::from_links(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let mut par = GameSession::from_refs(&g, &p).unwrap();
        par.set_parallelism(Some(3));
        let mut seq = GameSession::from_refs(&g, &p).unwrap();
        seq.set_parallelism(Some(1));

        let a = par.social_cost();
        let b = seq.social_cost();
        assert_eq!(a, b);
        assert_eq!(par.overlay_distances(), seq.overlay_distances());
        assert_eq!(par.stats().parallel_passes, 1);
        assert_eq!(par.stats().parallel_rows, 5);
        assert_eq!(
            par.stats().full_sssp,
            5,
            "parallel rows count as full sweeps"
        );
        assert_eq!(seq.stats().parallel_passes, 0);
        assert_matches_free_functions(&mut par);

        // Invalidate some rows and refill again through the threaded path.
        par.apply(Move::RemoveLink {
            from: PeerId::new(1),
            to: PeerId::new(2),
        })
        .unwrap();
        seq.apply(Move::RemoveLink {
            from: PeerId::new(1),
            to: PeerId::new(2),
        })
        .unwrap();
        assert_eq!(par.social_cost(), seq.social_cost());
        assert_matches_free_functions(&mut par);
    }

    #[test]
    fn certified_scan_fails_like_a_solve_on_oversized_enumeration() {
        let n = 26;
        let line = LineSpace::new((0..n).map(|p| p as f64).collect()).unwrap();
        let g = Game::from_space(&line, 1.0).unwrap();
        let mut s = GameSession::new(g, StrategyProfile::complete(n)).unwrap();
        let method = BestResponseMethod::ExactEnumeration;
        let want = s.best_response(PeerId::new(0), method).unwrap_err();
        assert_eq!(want, CoreError::InstanceTooLarge { n, limit: 25 });
        assert_eq!(s.nash_gap(method).unwrap_err(), want);
        let test = NashTest::exact_enumeration();
        assert_eq!(s.is_nash(&test).unwrap_err(), want);
    }

    #[test]
    fn peer_cost_is_lazy_one_row() {
        let g = game(1.0);
        let p = StrategyProfile::complete(5);
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let _ = s.peer_cost(PeerId::new(2)).unwrap();
        assert_eq!(s.stats().full_sssp, 1, "peer_cost computes a single row");
    }

    #[test]
    fn set_profile_resets_cache() {
        let g = game(1.0);
        let mut s = GameSession::from_refs(&g, &StrategyProfile::complete(5)).unwrap();
        let dense = s.social_cost();
        s.set_profile(StrategyProfile::empty(5)).unwrap();
        let empty = s.social_cost();
        assert!(dense.is_connected());
        assert!(!empty.is_connected());
        assert!(s.set_profile(StrategyProfile::empty(3)).is_err());
    }

    #[test]
    fn set_parallelism_zero_clamps_to_one() {
        let g = game(1.5);
        let p = StrategyProfile::from_links(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        s.set_parallelism(Some(0));
        assert_eq!(
            s.resolved_parallelism(),
            1,
            "Some(0) must fall back to the calling thread"
        );
        // The clamped knob behaves exactly like Some(1): sequential refills.
        let _ = s.social_cost();
        assert_eq!(s.stats().parallel_passes, 0);
        let responses = s
            .best_responses_round(
                &(0..5).map(PeerId::new).collect::<Vec<_>>(),
                BestResponseMethod::Exact,
            )
            .unwrap();
        assert_eq!(responses.len(), 5);
        assert_eq!(s.stats().oracle_parallel_rounds, 0);
    }

    #[test]
    fn fork_readonly_shares_game_and_snapshots_caches() {
        let g = detour_game();
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let _ = s.social_cost();
        let warm_sweeps = s.stats().full_sssp;
        let mut fork = s.fork_readonly();
        // The fork starts with zeroed counters and every row already
        // valid: reading costs recomputes nothing.
        assert_eq!(fork.stats(), SessionStats::default());
        assert_eq!(fork.social_cost(), s.social_cost());
        assert_eq!(fork.stats().full_sssp, 0, "snapshot rows must be reused");
        assert_eq!(s.stats().full_sssp, warm_sweeps);
        // Forks are independent sessions: mutating one leaves the other.
        fork.apply(Move::RemoveLink {
            from: PeerId::new(0),
            to: PeerId::new(1),
        })
        .unwrap();
        assert_ne!(fork.profile(), s.profile());
        assert_matches_free_functions(&mut fork);
        assert_matches_free_functions(&mut s);
    }

    #[test]
    fn cached_best_response_matches_fresh_oracle() {
        let g = detour_game();
        let p = StrategyProfile::from_links(4, &[(0, 1), (1, 0), (1, 2), (3, 2)]).unwrap();
        for method in [BestResponseMethod::Exact, BestResponseMethod::Greedy] {
            let mut s = GameSession::from_refs(&g, &p).unwrap();
            for i in 0..4 {
                let peer = PeerId::new(i);
                let a = s.best_response_uncached(peer, method).unwrap();
                let b = s.best_response(peer, method).unwrap();
                assert_eq!(a.links, b.links, "peer {i}");
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "peer {i}");
                assert_eq!(a.current_cost.to_bits(), b.current_cost.to_bits());
            }
            let stats = s.stats();
            assert!(
                stats.seq_oracle_hits > 0,
                "some candidate rows must come from the cache: {stats:?}"
            );
            assert_eq!(
                stats.seq_oracle_hits + stats.seq_oracle_swept,
                4 * 3,
                "every candidate row of every cached build is accounted for"
            );
        }
    }

    #[test]
    fn residual_rows_survive_unrelated_moves() {
        let g = game(1.2);
        // A hub at peer 0 forces candidate rows through its out-links,
        // so the first cached build pays fresh G_{-0} sweeps.
        let p = StrategyProfile::from_links(
            5,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 0),
                (2, 0),
                (3, 0),
                (4, 0),
            ],
        )
        .unwrap();
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        let hub = PeerId::new(0);
        let first = s.best_response(hub, BestResponseMethod::Exact).unwrap();
        let swept_once = s.stats().seq_oracle_swept;
        assert!(swept_once > 0, "hub oracle must sweep at least one row");
        // The hub moving does not change G_{-0}: a second activation must
        // serve every previously swept row from the residual tier.
        s.apply(Move::AddLink {
            from: hub,
            to: PeerId::new(2),
        })
        .unwrap();
        s.apply(Move::RemoveLink {
            from: hub,
            to: PeerId::new(2),
        })
        .unwrap();
        let second = s.best_response(hub, BestResponseMethod::Exact).unwrap();
        assert_eq!(first.links, second.links);
        assert_eq!(
            s.stats().seq_oracle_swept,
            swept_once,
            "re-activating the mover itself must not re-sweep residual rows: {:?}",
            s.stats()
        );
        // A *removal by another peer* that can carry shortest paths kills
        // the affected residual rows.
        s.apply(Move::RemoveLink {
            from: PeerId::new(3),
            to: PeerId::new(0),
        })
        .unwrap();
        assert!(
            s.stats().seq_oracle_invalidated > 0,
            "tight removals must drop residual rows: {:?}",
            s.stats()
        );
        // And correctness always wins: the cached response still matches
        // the fresh oracle bit for bit.
        let a = s
            .best_response_uncached(hub, BestResponseMethod::Exact)
            .unwrap();
        let b = s.best_response(hub, BestResponseMethod::Exact).unwrap();
        assert_eq!(a.links, b.links);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    }

    #[test]
    fn residual_rows_outlive_a_fully_invalidated_overlay() {
        // Bidirectional chain 0-1-2-3-4 on the line metric. A cached
        // build for the middle peer 2 sweeps residual G_{-2} rows for
        // every candidate that routes through it (all four: each side
        // reaches the other only via 2).
        let g = game(1.0);
        let chain = StrategyProfile::from_links(
            5,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
                (3, 4),
                (4, 3),
            ],
        )
        .unwrap();
        let mut s = GameSession::from_refs(&g, &chain).unwrap();
        let mid = PeerId::new(2);
        let _ = s.best_response(mid, BestResponseMethod::Exact).unwrap();
        assert!(s.stats().seq_oracle_swept > 0, "chain middle must sweep");

        // Cutting 0 <-> 1 is tight for every overlay row (each side of
        // the cut reaches the other through it, and the endpoint rows use
        // it directly), so the whole overlay tier invalidates — while the
        // residual rows for sources that never crossed the cut in G_{-2}
        // survive the same repair.
        let before = s.stats();
        s.apply_batch(&[
            Move::RemoveLink {
                from: PeerId::new(1),
                to: PeerId::new(0),
            },
            Move::RemoveLink {
                from: PeerId::new(0),
                to: PeerId::new(1),
            },
        ])
        .unwrap();
        assert_eq!(
            s.stats().rows_invalidated - before.rows_invalidated,
            5,
            "the cut must invalidate every overlay row"
        );

        // The NEXT apply used to take the lazy bail-out (no valid
        // overlay rows) and wipe the surviving residual tier with it.
        s.apply(Move::AddLink {
            from: PeerId::new(0),
            to: PeerId::new(2),
        })
        .unwrap();

        // Re-activating peer 2: candidates 3 and 4 still route through
        // it, their residual rows survived both repairs (no removed edge
        // was tight on them in G_{-2}), and must be served without a
        // fresh sweep.
        let swept_before = s.stats().seq_oracle_swept;
        let hits_before = s.stats().seq_oracle_hits;
        let cached = s.best_response(mid, BestResponseMethod::Exact).unwrap();
        assert!(
            s.stats().seq_oracle_hits - hits_before >= 2,
            "residual rows for sources 3 and 4 must survive and serve: {:?}",
            s.stats()
        );
        assert!(
            s.stats().seq_oracle_swept - swept_before <= 2,
            "only the rows the cut genuinely touched may re-sweep: {:?}",
            s.stats()
        );
        let fresh = s
            .best_response_uncached(mid, BestResponseMethod::Exact)
            .unwrap();
        assert_eq!(fresh.links, cached.links);
        assert_eq!(fresh.cost.to_bits(), cached.cost.to_bits());
    }

    #[test]
    fn sharded_round_matches_sequential_and_counts_shards() {
        let g = game(1.2);
        let p = StrategyProfile::from_links(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let peers: Vec<PeerId> = (0..5).map(PeerId::new).collect();
        let mut seq = GameSession::from_refs(&g, &p).unwrap();
        let baseline: Vec<BestResponse> = peers
            .iter()
            .map(|&peer| seq.best_response(peer, BestResponseMethod::Exact).unwrap())
            .collect();
        for shards in [2usize, 3, 7, 12] {
            let mut s = GameSession::from_refs(&g, &p).unwrap();
            s.set_parallelism(Some(shards));
            let got = s
                .best_responses_round(&peers, BestResponseMethod::Exact)
                .unwrap();
            assert_eq!(got.len(), baseline.len());
            for (a, b) in baseline.iter().zip(&got) {
                assert_eq!(a.peer, b.peer);
                assert_eq!(a.links, b.links, "shards = {shards}");
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "shards = {shards}");
            }
            let stats = s.stats();
            assert_eq!(stats.oracle_parallel_rounds, 1);
            assert_eq!(stats.oracle_shards, shards.min(peers.len()));
            assert_eq!(stats.oracle_builds, peers.len());
        }
        // Out-of-bounds peers are rejected up front.
        let mut s = GameSession::from_refs(&g, &p).unwrap();
        s.set_parallelism(Some(2));
        assert!(matches!(
            s.best_responses_round(&[PeerId::new(9)], BestResponseMethod::Exact),
            Err(CoreError::PeerOutOfBounds { peer: 9, n: 5 })
        ));
        assert!(s
            .best_responses_round(&[], BestResponseMethod::Exact)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn single_peer_and_empty_profiles() {
        let g = Game::from_space(&LineSpace::new(vec![0.0]).unwrap(), 1.0).unwrap();
        let mut s = GameSession::from_refs(&g, &StrategyProfile::empty(1)).unwrap();
        assert_eq!(s.peer_cost(PeerId::new(0)).unwrap(), 0.0);
        assert_eq!(s.max_stretch(), 1.0);
        let br = s
            .best_response(PeerId::new(0), BestResponseMethod::Exact)
            .unwrap();
        assert!(br.links.is_empty());
    }
}
