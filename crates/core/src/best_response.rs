use sp_facility::{
    solve_branch_and_bound, solve_enumeration, solve_greedy, solve_greedy_over, solve_local_search,
    FacilityError, FacilityProblem, GreedyRows,
};
use sp_graph::{edge_on_path, CsrGraph, DijkstraScratch};

use crate::oracle_cache::OracleCache;
use crate::session::EDGE_ON_PATH_EPS;
use crate::{
    topology_without_peer, CoreError, Game, LinkSet, PeerId, StrategyProfile,
    METRIC_TRIANGLE_TOLERANCE,
};

/// How a peer's best response is computed.
///
/// The reduction to facility location (see [`best_response`]) is exact;
/// the method determines how the resulting UFL instance is solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BestResponseMethod {
    /// Exact, by branch-and-bound. The default: exact at any size the
    /// experiments use.
    #[default]
    Exact,
    /// Exact, by subset enumeration. Limited to 24 candidate neighbours
    /// (i.e. `n <= 25`); used to cross-validate the branch-and-bound.
    ExactEnumeration,
    /// Greedy marginal-gain heuristic (`O(log)`-approximate).
    Greedy,
    /// Add/drop/swap local search seeded by greedy (locally optimal).
    LocalSearch,
}

impl BestResponseMethod {
    /// Returns `true` when the method guarantees an optimal response.
    #[must_use]
    pub fn is_exact(self) -> bool {
        matches!(
            self,
            BestResponseMethod::Exact | BestResponseMethod::ExactEnumeration
        )
    }
}

/// The outcome of a best-response computation for one peer.
#[derive(Debug, Clone, PartialEq)]
pub struct BestResponse {
    /// The responding peer.
    pub peer: PeerId,
    /// The (near-)optimal strategy found.
    pub links: LinkSet,
    /// Cost of playing [`BestResponse::links`] against the fixed rest.
    pub cost: f64,
    /// Cost of the peer's current strategy in the same profile.
    pub current_cost: f64,
    /// Whether the method guarantees `links` is exactly optimal.
    pub exact: bool,
}

impl BestResponse {
    /// `current_cost − cost`, the incentive to deviate. Positive iff the
    /// response strictly improves. (`+∞` when the response connects a peer
    /// that currently cannot reach everyone.)
    #[must_use]
    pub fn improvement(&self) -> f64 {
        if self.current_cost.is_infinite() && self.cost.is_infinite() {
            0.0
        } else {
            self.current_cost - self.cost
        }
    }

    /// Returns `true` if the response improves by more than a relative
    /// tolerance `tol · (1 + |current_cost|)` — the standard test used by
    /// equilibrium checks to absorb floating-point noise.
    #[must_use]
    pub fn improves(&self, tol: f64) -> bool {
        if self.cost.is_infinite() {
            return false;
        }
        if self.current_cost.is_infinite() {
            return true;
        }
        self.cost < self.current_cost - tol * (1.0 + self.current_cost.abs())
    }
}

/// How a [`ResponseOracle::build_from_cache`] call sourced its candidate
/// rows: overlay-row reuse, residual-row hits, or fresh `G_{-i}` sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OracleReuse {
    /// Candidate rows served verbatim from the overlay distance matrix.
    pub(crate) rows_reused: usize,
    /// Candidate rows served from retained residual `G_{-i}` rows.
    pub(crate) residual_hits: usize,
    /// Candidate rows that paid a fresh `G_{-i}` sweep.
    pub(crate) rows_swept: usize,
}

impl OracleReuse {
    /// Rows that did **not** pay a sweep, whatever tier served them.
    pub(crate) fn hits(&self) -> usize {
        self.rows_reused + self.residual_hits
    }
}

/// The best-response reduction: candidate links as facilities, other peers
/// as clients. Built once per (profile, peer) and reusable for evaluating
/// arbitrary candidate strategies cheaply.
pub(crate) struct ResponseOracle {
    /// Candidate link targets, in ascending peer order; facility `k`
    /// corresponds to `candidates[k]`.
    candidates: Vec<usize>,
    problem: FacilityProblem,
}

impl ResponseOracle {
    pub(crate) fn build(
        game: &Game,
        profile: &StrategyProfile,
        peer: PeerId,
    ) -> Result<Self, CoreError> {
        let mut scratch = DijkstraScratch::new();
        ResponseOracle::build_with(game, profile, peer, &mut scratch)
    }

    /// Like [`ResponseOracle::build`] but reuses caller-provided Dijkstra
    /// scratch memory (the `GameSession` hot path).
    pub(crate) fn build_with(
        game: &Game,
        profile: &StrategyProfile,
        peer: PeerId,
        scratch: &mut DijkstraScratch,
    ) -> Result<Self, CoreError> {
        let n = game.n();
        if peer.index() >= n {
            return Err(CoreError::PeerOutOfBounds {
                peer: peer.index(),
                n,
            });
        }
        let i = peer.index();
        let g_minus = topology_without_peer(game, profile, peer)?;
        let csr = CsrGraph::from_digraph(&g_minus);
        let candidates: Vec<usize> = (0..n).filter(|&v| v != i).collect();
        let mut assignment = Vec::with_capacity(candidates.len());
        for &v in &candidates {
            let buf = csr.dijkstra_row_with(v, scratch);
            assignment.push(assign_row(game, i, &candidates, v, buf));
        }
        let problem = FacilityProblem::with_uniform_open_cost(game.alpha(), assignment)
            .expect("reduction produces non-negative costs by construction");
        Ok(ResponseOracle {
            candidates,
            problem,
        })
    }

    /// Like [`ResponseOracle::build_with`], but serves candidate rows
    /// from a persistent [`OracleCache`] instead of sweeping `G_{-i}`
    /// from every candidate.
    ///
    /// The oracle needs residual distances `D_{G_{-i}}(v, j)` — shortest
    /// paths that avoid `i`'s out-links. Per candidate `v`, in order:
    ///
    /// 1. the cached full-overlay row `d_G(v, ·)` is already that row
    ///    whenever **no** out-link of `i` is tight on any of `v`'s
    ///    shortest paths, checked in `O(deg(i))` with the same
    ///    conservative tightness test the cache's removal repair uses
    ///    (`d_v(i) + w > d_v(t)` beyond [`EDGE_ON_PATH_EPS`]; ties fall
    ///    through, so reuse never changes a value);
    /// 2. a **residual row** retained from an earlier build for the same
    ///    peer — kept exact across profile mutations by
    ///    [`OracleCache::repair_after_edges`] — is used as-is;
    /// 3. otherwise the row pays a fresh `G_{-i}` sweep, and the result
    ///    is retained for the next build (space permitting).
    ///
    /// Candidate rows that are **invalid** in the overlay tier skip
    /// straight to step 2 — the lazy refill leaves a row invalid exactly
    /// when the residual tier serves it, so step 3 only pays for rows no
    /// tier covers. Returns the oracle plus the per-tier row accounting.
    pub(crate) fn build_from_cache(
        game: &Game,
        profile: &StrategyProfile,
        peer: PeerId,
        cache: &mut OracleCache,
        scratch: &mut DijkstraScratch,
    ) -> Result<(Self, OracleReuse), CoreError> {
        // A candidate row may legitimately be invalid in the overlay
        // tier: the lazy refill (`GameSession::ensure_rows_for_oracle`)
        // leaves rows alone when the residual tier already serves them.
        // The tier order is unchanged — overlay when valid and clean,
        // residual, fresh sweep — and every tier is exact, so laziness
        // never changes a value.
        let mut rows = LazyRows::new(game, profile, peer, cache, scratch)?;
        for k in 0..rows.candidates.len() {
            rows.ensure_exact(k);
        }
        let reuse = rows.scan.reuse;
        let assignment: Vec<Vec<f64>> = rows
            .rows
            .into_iter()
            .map(|row| match row {
                LazyRow::Exact(r) => r,
                LazyRow::Unresolved | LazyRow::Lower(_) => unreachable!("every row made exact"),
            })
            .collect();
        let problem = FacilityProblem::with_uniform_open_cost(game.alpha(), assignment)
            .expect("reduction produces non-negative costs by construction");
        Ok((
            ResponseOracle {
                candidates: rows.candidates,
                problem,
            },
            reuse,
        ))
    }

    /// First strictly improving single-link change (drop, add, swap — in
    /// that order) from `current`, or `None`. Shared by the free
    /// [`first_improving_move`] and `GameSession::first_improving_move`.
    pub(crate) fn first_improving_move(
        &self,
        peer: PeerId,
        current: &LinkSet,
        tol: f64,
    ) -> Option<BestResponse> {
        let current_cost = self.eval(current);
        let improves = |cost: f64| -> bool {
            if cost.is_infinite() {
                return false;
            }
            if current_cost.is_infinite() {
                return true;
            }
            cost < current_cost - tol * (1.0 + current_cost.abs())
        };
        let wrap = |links: LinkSet, cost: f64| BestResponse {
            peer,
            links,
            cost,
            current_cost,
            exact: false,
        };

        // Drops.
        for j in current.iter() {
            let cand = current.without(j);
            let c = self.eval(&cand);
            if improves(c) {
                return Some(wrap(cand, c));
            }
        }
        // Adds.
        for &v in self.candidates() {
            let vp = PeerId::new(v);
            if current.contains(vp) {
                continue;
            }
            let cand = current.with(vp);
            let c = self.eval(&cand);
            if improves(c) {
                return Some(wrap(cand, c));
            }
        }
        // Swaps.
        for j in current.iter() {
            for &v in self.candidates() {
                let vp = PeerId::new(v);
                if current.contains(vp) {
                    continue;
                }
                let cand = current.without(j).with(vp);
                let c = self.eval(&cand);
                if improves(c) {
                    return Some(wrap(cand, c));
                }
            }
        }
        None
    }

    /// Cost of `peer` playing `links` against the fixed rest — identical
    /// to [`peer_cost`] on the deviated profile (asserted by tests), but
    /// `O(n·|links|)` instead of a Dijkstra.
    pub(crate) fn eval(&self, links: &LinkSet) -> f64 {
        let open: Vec<usize> = links
            .iter()
            .map(|p| {
                self.candidates
                    .binary_search(&p.index())
                    .expect("link target must be a valid candidate")
            })
            .collect();
        self.problem.cost_of(&open)
    }

    pub(crate) fn solve(&self, method: BestResponseMethod) -> Result<(LinkSet, f64), CoreError> {
        let sol = match method {
            BestResponseMethod::Exact => solve_branch_and_bound(&self.problem),
            BestResponseMethod::ExactEnumeration => {
                solve_enumeration(&self.problem).map_err(|e| match e {
                    FacilityError::TooManyFacilities { facilities, limit } => {
                        CoreError::InstanceTooLarge {
                            n: facilities + 1,
                            limit: limit + 1,
                        }
                    }
                    other => panic!("unexpected facility error: {other}"),
                })?
            }
            BestResponseMethod::Greedy => solve_greedy(&self.problem),
            BestResponseMethod::LocalSearch => solve_local_search(&self.problem, None),
        };
        let links: LinkSet = sol.open.iter().map(|&f| self.candidates[f]).collect();
        Ok((links, sol.cost))
    }

    pub(crate) fn candidates(&self) -> &[usize] {
        &self.candidates
    }
}

/// Accounting for one lazy query ([`LazyRows::first_improving_move`] or
/// [`LazyRows::greedy`]): the exact-tier row sourcing it shares with
/// [`ResponseOracle::build_from_cache`], plus the bound-tier outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LazyScan {
    /// Exact-tier row accounting (overlay reuse / residual hits / sweeps).
    pub(crate) reuse: OracleReuse,
    /// Candidate evaluations (single-link moves, or greedy facility
    /// scores) settled on a certified lower bound alone.
    pub(crate) certified_rejects: usize,
    /// Candidate evaluations whose lower bound could still win and so
    /// paid for exact rows.
    pub(crate) exact_evals: usize,
    /// Greedy facility evaluations that scored a row
    /// ([`sp_facility::GreedyWork::scores`]).
    pub(crate) greedy_scores: usize,
    /// Greedy facility evaluations skipped on a stale-score bound (also
    /// counted in `certified_rejects`).
    pub(crate) stale_skips: usize,
}

/// The factor that turns a metric distance `d(v, j)` into a certified
/// lower bound on every `G_{-i}` shortest-path sum from `v` to `j`, as
/// Dijkstra computes it in floating point, on an `n`-peer game.
///
/// Two effects can push a path sum below `d(v, j)` even though the
/// latencies form a metric:
///
/// * rounding: the path sum is a left fold of up to `n − 1`
///   non-negative terms, which loses at most a relative `(n − 1)·ε/2`
///   (and the stored latencies themselves can break the triangle
///   inequality by an ulp — on a line, `fl(c − a)` can exceed
///   `fl(fl(b − a) + fl(c − b))`);
/// * input tolerance: an explicit matrix is accepted when every triangle
///   holds within a relative [`METRIC_TRIANGLE_TOLERANCE`], which a path
///   of `m` edges can compound up to `(1 + tol)^(m − 1)`.
///
/// Dividing by `(1 + tol)^n` and shrinking by `(n + 4)·ε` covers both
/// with room to spare, including the rounding of the product itself.
fn metric_deflation(n: usize) -> f64 {
    let n = n as f64;
    (1.0 - (n + 4.0) * f64::EPSILON) / (1.0 + METRIC_TRIANGLE_TOLERANCE).powf(n)
}

/// Peer `i`'s assignment row through candidate `v`:
/// `(d_iv + D(v, j)) / d_met(i, j)` over the candidate positions `j`.
fn assign_row(game: &Game, i: usize, candidates: &[usize], v: usize, residual: &[f64]) -> Vec<f64> {
    let d_iv = game.distance(i, v);
    candidates
        .iter()
        .map(|&j| (d_iv + residual[j]) / game.distance(i, j))
        .collect()
}

/// A candidate row in a lazy query, already assignment-converted
/// (`(d_iv + D(v, j)) / d_met(i, j)` over client positions).
enum LazyRow {
    /// Not yet touched by any evaluation.
    Unresolved,
    /// A certified **lower bound** on the exact assignment row: either a
    /// valid-but-dirty overlay row (`d_G(v, ·) ≤ D_{G_{-i}}(v, ·)` since
    /// removing `i`'s links only lengthens paths) or the deflated metric
    /// row (see [`metric_deflation`]).
    Lower(Vec<f64>),
    /// The exact residual assignment row: overlay-clean, residual-tier,
    /// or freshly swept, in that order.
    Exact(Vec<f64>),
}

/// Lazily resolved candidate rows for one `(profile, peer)` query — the
/// session's cached oracle for better responses and Greedy best
/// responses, and the row source behind
/// [`ResponseOracle::build_from_cache`].
///
/// The eager build makes every candidate row exact up front (and so
/// pays a fresh `G_{-i}` sweep for every row a move by a hub peer
/// dirtied). The lazy queries instead resolve rows to the *weakest
/// sufficient tier*: certified lower bounds serve rejection, and only
/// candidates whose bound can still strictly beat the incumbent pay for
/// exact rows. Both use the one tier order here, and every accepted
/// answer is computed from exact rows only, so answers are bit-identical
/// (same links, same cost) to a fresh `G_{-i}` oracle's.
pub(crate) struct LazyRows<'a> {
    game: &'a Game,
    profile: &'a StrategyProfile,
    peer: PeerId,
    cache: &'a mut OracleCache,
    scratch: &'a mut DijkstraScratch,
    /// `peer`'s out-links `(target, weight)` for the overlay-clean test.
    out: Vec<(usize, f64)>,
    candidates: Vec<usize>,
    rows: Vec<LazyRow>,
    g_minus: Option<CsrGraph>,
    deflation: f64,
    scan: LazyScan,
}

impl<'a> LazyRows<'a> {
    /// An all-unresolved row store for `peer`.
    ///
    /// # Errors
    ///
    /// [`CoreError::PeerOutOfBounds`] for an out-of-range peer.
    pub(crate) fn new(
        game: &'a Game,
        profile: &'a StrategyProfile,
        peer: PeerId,
        cache: &'a mut OracleCache,
        scratch: &'a mut DijkstraScratch,
    ) -> Result<Self, CoreError> {
        let n = game.n();
        let i = peer.index();
        if i >= n {
            return Err(CoreError::PeerOutOfBounds { peer: i, n });
        }
        let out: Vec<(usize, f64)> = profile
            .strategy(peer)
            .iter()
            .map(|t| (t.index(), game.distance(i, t.index())))
            .collect();
        let candidates: Vec<usize> = (0..n).filter(|&v| v != i).collect();
        let rows = (0..candidates.len()).map(|_| LazyRow::Unresolved).collect();
        Ok(LazyRows {
            game,
            profile,
            peer,
            cache,
            scratch,
            out,
            candidates,
            rows,
            g_minus: None,
            deflation: metric_deflation(n),
            scan: LazyScan::default(),
        })
    }

    /// The accounting so far.
    pub(crate) fn scan(&self) -> LazyScan {
        self.scan
    }

    fn assign(&self, v: usize, residual: &[f64]) -> Vec<f64> {
        assign_row(self.game, self.peer.index(), &self.candidates, v, residual)
    }

    /// Tries the two *free exact* tiers (overlay-clean, residual).
    /// Returns the exact row on a hit.
    fn try_free_exact(&mut self, k: usize) -> Option<Vec<f64>> {
        let i = self.peer.index();
        let v = self.candidates[k];
        let overlay = self.cache.row_is_valid(v).then(|| {
            let cached = self.cache.row(v);
            let d_vi = cached[i];
            self.out
                .iter()
                .all(|&(t, w)| !edge_on_path(d_vi, w, cached[t], EDGE_ON_PATH_EPS))
        });
        if overlay == Some(true) {
            self.scan.reuse.rows_reused += 1;
            return Some(self.assign(v, self.cache.row(v)));
        }
        if let Some(residual) = self.cache.residual_row(i, v) {
            self.scan.reuse.residual_hits += 1;
            return Some(self.assign(v, residual));
        }
        None
    }

    /// Ensures `rows[k]` holds at least a certified lower bound and
    /// returns whether it is exact. Free exact tiers are preferred (they
    /// cost the same `O(n)` conversion); otherwise a valid-but-dirty
    /// overlay row, and failing that the deflated metric row, serve as
    /// the bound — neither pays a sweep.
    fn ensure_bound(&mut self, k: usize) -> bool {
        if !matches!(self.rows[k], LazyRow::Unresolved) {
            return matches!(self.rows[k], LazyRow::Exact(_));
        }
        if let Some(exact) = self.try_free_exact(k) {
            self.rows[k] = LazyRow::Exact(exact);
            return true;
        }
        let v = self.candidates[k];
        let lower = if self.cache.row_is_valid(v) {
            // Valid but dirty: a lower bound on the residual row.
            self.assign(v, self.cache.row(v))
        } else {
            // `assign` over the deflated metric row, in one pass.
            let (game, i) = (self.game, self.peer.index());
            let d_iv = game.distance(i, v);
            self.candidates
                .iter()
                .map(|&j| (d_iv + game.distance(v, j) * self.deflation) / game.distance(i, j))
                .collect()
        };
        self.rows[k] = LazyRow::Lower(lower);
        false
    }

    /// Ensures `rows[k]` is exact, sweeping `G_{-i}` if no free tier
    /// serves it (and retaining the swept row in the residual tier,
    /// exactly like the eager build).
    fn ensure_exact(&mut self, k: usize) {
        match self.rows[k] {
            LazyRow::Exact(_) => return,
            LazyRow::Unresolved => {
                if let Some(exact) = self.try_free_exact(k) {
                    self.rows[k] = LazyRow::Exact(exact);
                    return;
                }
            }
            // A `Lower` row already failed both free tiers; nothing in
            // the cache changes mid-query except residual rows we store
            // ourselves, one per candidate, so re-checking cannot hit.
            LazyRow::Lower(_) => {}
        }
        self.scan.reuse.rows_swept += 1;
        if self.g_minus.is_none() {
            let g = topology_without_peer(self.game, self.profile, self.peer)
                .expect("peer bounds checked in LazyRows::new");
            self.g_minus = Some(CsrGraph::from_digraph(&g));
        }
        let csr = self.g_minus.as_ref().expect("built above");
        let v = self.candidates[k];
        let buf = csr.dijkstra_row_with(v, self.scratch);
        let row = assign_row(self.game, self.peer.index(), &self.candidates, v, buf);
        self.cache.store_residual(self.peer.index(), v, buf);
        self.rows[k] = LazyRow::Exact(row);
    }

    fn resolved(&self, k: usize) -> &[f64] {
        match &self.rows[k] {
            LazyRow::Lower(r) | LazyRow::Exact(r) => r,
            LazyRow::Unresolved => unreachable!("rows are resolved before they are read"),
        }
    }

    /// `FacilityProblem::cost_of` replicated over the lazy rows: open
    /// costs accumulate per facility, then one ascending client pass
    /// taking the per-client min over open rows. With all-exact rows the
    /// result is bit-identical to the eager oracle's `eval`.
    fn cost_with(&self, open: &[usize]) -> f64 {
        let alpha = self.game.alpha();
        let mut total = 0.0;
        for _ in open {
            total += alpha;
        }
        for c in 0..self.candidates.len() {
            let mut best = f64::INFINITY;
            for &k in open {
                let a = self.resolved(k)[c];
                if a < best {
                    best = a;
                }
            }
            total += best;
        }
        total
    }

    /// Exact cost of opening `open` (facility positions).
    fn eval_exact(&mut self, open: &[usize]) -> f64 {
        for &k in open {
            self.ensure_exact(k);
        }
        self.cost_with(open)
    }

    /// Certified lower bound on the cost of opening `open`: per-entry
    /// `lower ≤ exact` makes every per-client min and hence the total a
    /// lower bound, so a bound that fails the improvement test certifies
    /// the exact cost fails it too.
    fn eval_lower(&mut self, open: &[usize]) -> f64 {
        for &k in open {
            self.ensure_bound(k);
        }
        self.cost_with(open)
    }

    fn positions(&self, links: &LinkSet) -> Vec<usize> {
        links
            .iter()
            .map(|p| {
                self.candidates
                    .binary_search(&p.index())
                    .expect("link target must be a valid candidate")
            })
            .collect()
    }

    /// [`first_improving_move`] semantics over lazily resolved rows.
    ///
    /// Candidate adds and swaps are rejected on **certified lower
    /// bounds** and escalate to exact rows only when the bound survives
    /// the improvement test. Drops evaluate exact directly (their rows
    /// are the current links', needed anyway for the current cost).
    ///
    /// The scan visits moves in the identical drop/add/swap order with
    /// the identical improvement predicate, rejection by bound is sound
    /// (`bound ≤ exact`, and the predicate is monotone in cost), and
    /// every accepted move's cost comes from exact rows — so the
    /// returned move (or `None`) is bit-identical to the fresh oracle's.
    pub(crate) fn first_improving_move(&mut self, tol: f64) -> Option<BestResponse> {
        let (peer, profile) = (self.peer, self.profile);
        let current = profile.strategy(peer);
        let current_open = self.positions(current);
        let current_cost = self.eval_exact(&current_open);
        let improves = |cost: f64| -> bool {
            if cost.is_infinite() {
                return false;
            }
            if current_cost.is_infinite() {
                return true;
            }
            cost < current_cost - tol * (1.0 + current_cost.abs())
        };
        let wrap = |links: LinkSet, cost: f64| BestResponse {
            peer,
            links,
            cost,
            current_cost,
            exact: false,
        };

        // Drops: all rows involved are current-link rows, already exact.
        for j in current.iter() {
            let cand = current.without(j);
            let open = self.positions(&cand);
            let c = self.eval_exact(&open);
            if improves(c) {
                return Some(wrap(cand, c));
            }
        }
        // Adds, then swaps: bound first, escalate only on a surviving
        // bound.
        let adds = self.candidates.iter().map(|&v| (None, v));
        let swaps = current
            .iter()
            .flat_map(|j| self.candidates.iter().map(move |&v| (Some(j), v)));
        let moves: Vec<(Option<PeerId>, usize)> = adds.chain(swaps).collect();
        for (drop, v) in moves {
            let vp = PeerId::new(v);
            if current.contains(vp) {
                continue;
            }
            let cand = match drop {
                Some(j) => current.without(j).with(vp),
                None => current.with(vp),
            };
            let open = self.positions(&cand);
            if !improves(self.eval_lower(&open)) {
                self.scan.certified_rejects += 1;
                continue;
            }
            self.scan.exact_evals += 1;
            let c = self.eval_exact(&open);
            if improves(c) {
                return Some(wrap(cand, c));
            }
        }
        None
    }

    /// The Greedy best response over lazily resolved rows: the one
    /// [`solve_greedy_over`] implementation, with this store as its row
    /// source. Returns the chosen links and their cost, bit-identical to
    /// [`ResponseOracle::solve`] with [`BestResponseMethod::Greedy`] on a
    /// fresh oracle.
    pub(crate) fn greedy(&mut self) -> (LinkSet, f64) {
        let (sol, work) = solve_greedy_over(self);
        self.scan.certified_rejects += work.certified_rejects;
        self.scan.exact_evals += work.escalations;
        self.scan.greedy_scores += work.scores;
        self.scan.stale_skips += work.stale_skips;
        let links: LinkSet = sol.open.iter().map(|&f| self.candidates[f]).collect();
        (links, sol.cost)
    }
}

impl GreedyRows for LazyRows<'_> {
    fn facility_count(&self) -> usize {
        self.candidates.len()
    }

    fn client_count(&self) -> usize {
        self.candidates.len()
    }

    fn open_cost(&self, _f: usize) -> f64 {
        self.game.alpha()
    }

    fn bound(&mut self, f: usize) -> bool {
        self.ensure_bound(f)
    }

    fn exact(&mut self, f: usize) {
        self.ensure_exact(f);
    }

    fn row(&self, f: usize) -> &[f64] {
        self.resolved(f)
    }
}

/// Computes `peer`'s best response to `profile` (all other strategies
/// fixed).
///
/// The computation removes `peer`'s out-links, computes residual shortest
/// paths `D(v, j)`, and solves the facility-location instance with opening
/// cost `α` and assignment costs `(d(i,v) + D(v,j)) / d(i,j)` — an *exact*
/// reformulation of the peer's strategy space (shortest paths never
/// revisit the source).
///
/// # Errors
///
/// * [`CoreError::ProfileSizeMismatch`] / [`CoreError::PeerOutOfBounds`]
///   for malformed inputs;
/// * [`CoreError::InstanceTooLarge`] if
///   [`BestResponseMethod::ExactEnumeration`] is asked for more than 25
///   peers.
///
/// # Example
///
/// ```
/// use sp_core::{best_response, BestResponseMethod, Game, PeerId, StrategyProfile};
/// use sp_metric::LineSpace;
///
/// let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0, 2.0]).unwrap(), 0.5).unwrap();
/// let p = StrategyProfile::empty(3);
/// let br = best_response(&game, &p, PeerId::new(0), BestResponseMethod::Exact).unwrap();
/// // From the empty profile the peer must link everyone it wants to reach.
/// assert_eq!(br.links.len(), 2);
/// assert!(br.improves(1e-9));
/// ```
pub fn best_response(
    game: &Game,
    profile: &StrategyProfile,
    peer: PeerId,
    method: BestResponseMethod,
) -> Result<BestResponse, CoreError> {
    // One-shot wrapper on a throwaway session: the fresh `G_{-i}` oracle
    // (`n - 1` sweeps) beats the cached path here, which would fill all
    // `n` overlay rows first and then drop the cache unread. Hot loops
    // hold a session and get `GameSession::best_response` reuse instead.
    crate::GameSession::from_refs(game, profile)?.best_response_uncached(peer, method)
}

/// Finds the first strictly improving **single-link** move (drop, add, or
/// swap, in that order, targets in ascending order) for `peer`, or `None`
/// if no such move improves by more than the relative tolerance.
///
/// This is the "better response" used by better-response dynamics; it is
/// much cheaper than a full best response and produces the small,
/// incremental topology changes discussed in the paper's Section 5.
///
/// # Errors
///
/// Same conditions as [`best_response`].
pub fn first_improving_move(
    game: &Game,
    profile: &StrategyProfile,
    peer: PeerId,
    tol: f64,
) -> Result<Option<BestResponse>, CoreError> {
    if game.n() <= 1 {
        if peer.index() >= game.n() {
            return Err(CoreError::PeerOutOfBounds {
                peer: peer.index(),
                n: game.n(),
            });
        }
        return Ok(None);
    }
    let oracle = ResponseOracle::build(game, profile, peer)?;
    Ok(oracle.first_improving_move(peer, profile.strategy(peer), tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{peer_cost, social_cost};
    use sp_graph::DistanceMatrix;
    use sp_metric::LineSpace;

    fn line_game(alpha: f64) -> Game {
        Game::from_space(&LineSpace::new(vec![0.0, 1.0, 2.0, 3.0]).unwrap(), alpha).unwrap()
    }

    /// On these line positions `fl(c − a)` exceeds the path sum
    /// `fl(fl(b − a) + fl(c − b))` Dijkstra computes over `a → b → c`.
    const BROKEN_TRIPLE: [f64; 3] = [
        3.845_338_943_564_591_3,
        33.387_954_726_624_71,
        98.692_248_909_096_89,
    ];

    /// Every lower-bound row a fresh lazy store hands out (all overlay
    /// rows invalid, so every bound is the deflated metric row) is
    /// entrywise `≤` the exact row of a fresh `G_{-i}` oracle.
    fn assert_bounds_below_exact(game: &Game, profile: &StrategyProfile) {
        for i in 0..game.n() {
            let peer = PeerId::new(i);
            let exact = ResponseOracle::build(game, profile, peer).unwrap();
            let mut cache = OracleCache::new(game.n());
            let mut scratch = DijkstraScratch::new();
            let mut rows = LazyRows::new(game, profile, peer, &mut cache, &mut scratch).unwrap();
            for k in 0..game.n() - 1 {
                rows.ensure_bound(k);
                for (c, (&lo, &ex)) in rows
                    .resolved(k)
                    .iter()
                    .zip(exact.problem.assignment_row(k))
                    .enumerate()
                {
                    assert!(
                        lo <= ex,
                        "peer {i} facility {k} client {c}: bound {lo} > exact {ex}"
                    );
                }
            }
        }
    }

    #[test]
    fn deflated_metric_bound_covers_float_triangle_violations() {
        let [a, b, c] = BROKEN_TRIPLE;
        let game = Game::from_space(&LineSpace::new(vec![a, b, c]).unwrap(), 1.0).unwrap();
        let chain = StrategyProfile::from_links(3, &[(0, 1), (1, 2)]).unwrap();
        let csr = CsrGraph::from_digraph(&crate::topology(&game, &chain).unwrap());
        let path_sum = csr.dijkstra_row_with(0, &mut DijkstraScratch::new())[2];
        assert!(
            game.distance(0, 2) > path_sum,
            "the raw metric is not a bound here"
        );
        assert!(game.distance(0, 2) * metric_deflation(3) <= path_sum);

        // Through the lazy store, with a peer far off the triple and one
        // right next to it (so the ulp survives the assignment division).
        for extra in [0.5, a - 1e-3, 150.0] {
            let game =
                Game::from_space(&LineSpace::new(vec![a, b, c, extra]).unwrap(), 1.0).unwrap();
            let links = [(0, 1), (1, 2), (2, 1), (1, 0), (3, 0), (0, 3)];
            assert_bounds_below_exact(&game, &StrategyProfile::from_links(4, &links).unwrap());
        }
    }

    #[test]
    fn deflated_metric_bound_covers_the_validation_tolerance() {
        // d(0, 2) sits just inside the tolerance the triangle check
        // allows, so the path 0 → 1 → 2 is shorter than the metric.
        let slack = 1.0 + 0.9 * METRIC_TRIANGLE_TOLERANCE;
        let d02 = (40.0 + 60.0) * slack;
        let m = DistanceMatrix::from_row_major(
            4,
            vec![
                0.0, 40.0, d02, 70.0, //
                40.0, 0.0, 60.0, 50.0, //
                d02, 60.0, 0.0, 80.0, //
                70.0, 50.0, 80.0, 0.0,
            ],
        )
        .unwrap();
        let game = Game::new(m, 1.0).unwrap();
        game.check_triangle_inequality().unwrap();
        let links = [(0, 1), (1, 2), (2, 1), (1, 0), (3, 1), (1, 3)];
        assert_bounds_below_exact(&game, &StrategyProfile::from_links(4, &links).unwrap());
    }

    #[test]
    fn oracle_eval_matches_peer_cost() {
        let game = line_game(1.3);
        let p = StrategyProfile::from_links(4, &[(1, 0), (1, 2), (2, 3), (3, 0)]).unwrap();
        let peer = PeerId::new(0);
        let oracle = ResponseOracle::build(&game, &p, peer).unwrap();
        for links in [
            LinkSet::new(),
            [1usize].into_iter().collect::<LinkSet>(),
            [1usize, 3].into_iter().collect::<LinkSet>(),
            LinkSet::all_except(4, peer),
        ] {
            let via_oracle = oracle.eval(&links);
            let deviated = p.with_strategy(peer, links.clone()).unwrap();
            let direct = peer_cost(&game, &deviated, peer).unwrap();
            assert!(
                (via_oracle - direct).abs() < 1e-9
                    || (via_oracle.is_infinite() && direct.is_infinite()),
                "links {links}: oracle {via_oracle} vs direct {direct}"
            );
        }
    }

    #[test]
    fn exact_methods_agree() {
        let game = line_game(0.8);
        let p = StrategyProfile::from_links(4, &[(1, 0), (2, 1), (3, 2)]).unwrap();
        for peer in 0..4 {
            let a = best_response(&game, &p, PeerId::new(peer), BestResponseMethod::Exact).unwrap();
            let b = best_response(
                &game,
                &p,
                PeerId::new(peer),
                BestResponseMethod::ExactEnumeration,
            )
            .unwrap();
            assert!(
                (a.cost - b.cost).abs() < 1e-9,
                "peer {peer}: {} vs {}",
                a.cost,
                b.cost
            );
        }
    }

    #[test]
    fn best_response_cost_is_deviated_profile_cost() {
        let game = line_game(2.0);
        let p = StrategyProfile::empty(4);
        let br = best_response(&game, &p, PeerId::new(2), BestResponseMethod::Exact).unwrap();
        let deviated = p.with_strategy(PeerId::new(2), br.links.clone()).unwrap();
        let direct = peer_cost(&game, &deviated, PeerId::new(2)).unwrap();
        assert!((br.cost - direct).abs() < 1e-9);
        assert!(br.exact);
        assert!(br.improvement().is_infinite());
    }

    #[test]
    fn heuristics_never_beat_exact() {
        let game = line_game(1.0);
        let p = StrategyProfile::from_links(4, &[(0, 3), (3, 0), (1, 2), (2, 1)]).unwrap();
        for peer in 0..4 {
            let exact =
                best_response(&game, &p, PeerId::new(peer), BestResponseMethod::Exact).unwrap();
            for m in [BestResponseMethod::Greedy, BestResponseMethod::LocalSearch] {
                let h = best_response(&game, &p, PeerId::new(peer), m).unwrap();
                assert!(h.cost >= exact.cost - 1e-9);
                assert!(!h.exact);
                // Heuristic responses never exceed the current cost.
                assert!(h.cost <= h.current_cost + 1e-9 || h.current_cost.is_infinite());
            }
        }
    }

    #[test]
    fn single_peer_game_trivial_response() {
        let game = Game::from_space(&LineSpace::new(vec![0.0]).unwrap(), 1.0).unwrap();
        let p = StrategyProfile::empty(1);
        let br = best_response(&game, &p, PeerId::new(0), BestResponseMethod::Exact).unwrap();
        assert!(br.links.is_empty());
        assert_eq!(br.cost, 0.0);
    }

    #[test]
    fn first_improving_move_connects_isolated_peer() {
        let game = line_game(0.5);
        let p = StrategyProfile::from_links(4, &[(1, 0), (1, 2), (2, 3), (3, 1), (0, 1)]).unwrap();
        // Remove peer 0's link: it becomes disconnected.
        let mut q = p.clone();
        q.set_strategy(PeerId::new(0), LinkSet::new()).unwrap();
        let mv = first_improving_move(&game, &q, PeerId::new(0), 1e-9).unwrap();
        let mv = mv.expect("an isolated peer must want to add a link");
        assert_eq!(mv.links.len(), 1);
        assert!(mv.cost.is_finite());
    }

    #[test]
    fn no_improving_move_in_clear_equilibrium() {
        // Two peers: each must link the other; any change disconnects or
        // adds nothing.
        let game = Game::from_space(&LineSpace::new(vec![0.0, 1.0]).unwrap(), 1.0).unwrap();
        let p = StrategyProfile::complete(2);
        for i in 0..2 {
            assert!(first_improving_move(&game, &p, PeerId::new(i), 1e-9)
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn improvement_and_improves_edge_cases() {
        let br = BestResponse {
            peer: PeerId::new(0),
            links: LinkSet::new(),
            cost: f64::INFINITY,
            current_cost: f64::INFINITY,
            exact: true,
        };
        assert_eq!(br.improvement(), 0.0);
        assert!(!br.improves(1e-9));
        let br2 = BestResponse {
            cost: 5.0,
            current_cost: f64::INFINITY,
            ..br.clone()
        };
        assert!(br2.improves(1e-9));
        assert!(br2.improvement().is_infinite());
        let br3 = BestResponse {
            cost: 5.0,
            current_cost: 5.0 + 1e-12,
            ..br.clone()
        };
        assert!(!br3.improves(1e-9));
    }

    #[test]
    fn best_response_reduces_social_cost_when_played() {
        // Sanity: a strictly improving response strictly lowers the
        // deviating peer's cost (social cost may move either way).
        let game = line_game(0.5);
        let p = StrategyProfile::empty(4);
        let br = best_response(&game, &p, PeerId::new(0), BestResponseMethod::Exact).unwrap();
        assert!(br.improves(1e-9));
        let q = p.with_strategy(PeerId::new(0), br.links.clone()).unwrap();
        let _ = social_cost(&game, &q).unwrap();
        assert!(peer_cost(&game, &q, PeerId::new(0)).unwrap() < f64::INFINITY);
    }
}
