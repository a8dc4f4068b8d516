use crate::{FacilityProblem, FacilitySolution};

/// Lexicographic score used to compare candidate open sets even when some
/// clients are still unserved (assignment cost `+∞`): fewer unserved
/// clients always wins; ties are broken by the finite part of the cost.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Score {
    unserved: usize,
    finite_cost: f64,
}

impl Score {
    fn better_than(self, other: Score) -> bool {
        // sp-lint: allow(float-eps, reason = "the greedy's exact score order: scores are the textbook's own float folds, and bit-identity with it needs exact comparison")
        self.unserved < other.unserved
            || (self.unserved == other.unserved && self.finite_cost < other.finite_cost)
    }

    fn total(self) -> f64 {
        if self.unserved > 0 {
            f64::INFINITY
        } else {
            self.finite_cost
        }
    }
}

/// Per-client state: best and second-best assignment value among open
/// facilities, plus which facility achieves the best.
struct ServeState {
    best_f: Vec<usize>,
    best_v: Vec<f64>,
    second_v: Vec<f64>,
}

const NO_FACILITY: usize = usize::MAX;

fn recompute_state(p: &FacilityProblem, open: &[usize]) -> ServeState {
    let nc = p.client_count();
    let mut best_f = vec![NO_FACILITY; nc];
    let mut best_v = vec![f64::INFINITY; nc];
    let mut second_v = vec![f64::INFINITY; nc];
    for &f in open {
        for c in 0..nc {
            let a = p.assignment_cost(f, c);
            if a < best_v[c] {
                second_v[c] = best_v[c];
                best_v[c] = a;
                best_f[c] = f;
            } else if a < second_v[c] {
                second_v[c] = a;
            }
        }
    }
    ServeState {
        best_f,
        best_v,
        second_v,
    }
}

fn score_from_values<I: Iterator<Item = f64>>(open_cost: f64, values: I) -> Score {
    let mut unserved = 0usize;
    let mut finite = open_cost;
    for v in values {
        if v.is_finite() {
            finite += v;
        } else {
            unserved += 1;
        }
    }
    Score {
        unserved,
        finite_cost: finite,
    }
}

fn open_cost_sum(p: &FacilityProblem, open: &[usize]) -> f64 {
    open.iter().map(|&f| p.open_cost(f)).sum()
}

/// Where [`solve_greedy_over`] reads a UFL instance's assignment rows.
///
/// Opening costs are finite and non-negative and row entries are
/// non-negative or `+∞`, as [`FacilityProblem`] checks; the greedy's
/// early exits and stale-score bounds rely on it.
///
/// A source may hand out a row first as a **certified lower bound**
/// (every entry `≤` the exact entry) and make it exact only when the
/// greedy asks. [`FacilityProblem`] serves every row exact; the
/// selfish-peers session serves cached shortest-path rows this way, so
/// a candidate link whose bound already loses never pays the sweep
/// behind its exact row.
pub trait GreedyRows {
    /// Number of facilities.
    fn facility_count(&self) -> usize;
    /// Number of clients (the length of every row).
    fn client_count(&self) -> usize;
    /// Opening cost of facility `f`.
    fn open_cost(&self, f: usize) -> f64;
    /// Makes row `f` readable through [`GreedyRows::row`] as at least a
    /// certified lower bound, and returns whether it is already exact.
    fn bound(&mut self, f: usize) -> bool;
    /// Makes row `f` exact.
    fn exact(&mut self, f: usize);
    /// Row `f` as last resolved by [`GreedyRows::bound`] or
    /// [`GreedyRows::exact`].
    fn row(&self, f: usize) -> &[f64];
}

impl GreedyRows for &FacilityProblem {
    fn facility_count(&self) -> usize {
        FacilityProblem::facility_count(self)
    }

    fn client_count(&self) -> usize {
        FacilityProblem::client_count(self)
    }

    fn open_cost(&self, f: usize) -> f64 {
        FacilityProblem::open_cost(self, f)
    }

    fn bound(&mut self, _f: usize) -> bool {
        true
    }

    fn exact(&mut self, _f: usize) {}

    fn row(&self, f: usize) -> &[f64] {
        self.assignment_row(f)
    }
}

/// What one [`solve_greedy_over`] run read: how many facility
/// evaluations scored a row and how many a stale-score bound skipped,
/// plus, over a source with lower-bound rows, how many evaluations such
/// a row settled on its own and how many had to make their row exact.
/// Every pass evaluates each unopened facility once, so `scores +
/// stale_skips` is what the textbook greedy scores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyWork {
    /// Evaluations rejected without making their row exact: on a
    /// lower-bound row's score, or on a stale-score bound (those are
    /// also counted in [`GreedyWork::stale_skips`]).
    pub certified_rejects: usize,
    /// Evaluations whose lower-bound row could still win and so was
    /// made exact.
    pub escalations: usize,
    /// Evaluations that scored a row (an escalated one scores both of
    /// its rows but counts once).
    pub scores: usize,
    /// Evaluations skipped because a certified bound on the score,
    /// carried over from an earlier pass, shows it cannot win.
    pub stale_skips: usize,
}

/// Score of opening one more facility with assignment row `row` on top
/// of the per-client incumbents `best_v`. With `exit = Some(bound)` it
/// returns `None` as soon as a partial score shows it cannot strictly
/// beat `bound`; with `None` it always sums every client.
///
/// The early exit is exact: every term is non-negative, and IEEE
/// addition of a non-negative term never decreases a sum, so neither
/// the unserved count nor the finite part of a partial score can shrink
/// as more clients are added. A full score is summed in client order
/// from the opening cost, so a surviving score is bit-identical to the
/// textbook computation.
fn score_within(open_cost: f64, best_v: &[f64], row: &[f64], exit: Option<Score>) -> Option<Score> {
    let mut partial = Score {
        unserved: 0,
        finite_cost: open_cost,
    };
    for (&b, &a) in best_v.iter().zip(row) {
        let v = b.min(a);
        if v.is_finite() {
            partial.finite_cost += v;
        } else {
            partial.unserved += 1;
        }
        if exit.is_some_and(|bound| !partial.better_than(bound)) {
            return None;
        }
    }
    Some(partial)
}

/// The float-rounding slack of a stale-score bound, per unit of
/// magnitude: a bound carried from pass `s` to pass `t` is lowered by
/// `stale_slack_unit(nc, nf) · (score_s + O_t + D_t)`.
///
/// Write `u = ε/2` for the unit roundoff and `γ_k = k·u / (1 − k·u)`.
/// A facility's score is a left fold of `nc + 2` non-negative terms
/// (open-cost sum `O`, its own opening cost, one `min(best_v, a)` per
/// client), so it lies within a relative `γ_{nc+1}` of the exact sum
/// `T` of the same terms. In exact arithmetic `best_v` only falls and
/// `min(·, a)` is monotone and 1-Lipschitz, so
/// `T_t ≥ T_s + (O_t − O_s) − (E_t − E_s)`, where `E` is the exact total
/// of `best_v` drops, and `T_t ≤ T_s + (O_t − O_s)`. Three float effects
/// separate that from the bound the greedy evaluates:
///
/// * the two scores: `γ_{nc+1}·(T_s + T_t) ≤ (nc + 1)·ε·(score_s + O_t)`
///   up to second-order terms;
/// * the drop total `D`: every drop is one subtraction (relative `u`)
///   summed per pass over `nc` clients and then over at most `nf`
///   passes, so `|D − E| ≤ γ_{nc+nf+1}·E` at both ends, and
///   `(E_t − E_s)` is within `(nc + nf + 1)·ε·D_t` of `D_t − D_s`;
/// * the four roundings of `score_s + (O_t − O_s) − (D_t − D_s) − slack`
///   and the two of the magnitude sum and its product with the unit,
///   each at most `u` times a value below `score_s + O_t + D_t`.
///
/// Together that is under `(nc + nf + 4)·ε` per unit of magnitude;
/// `nc + nf + 8` leaves room for the second-order terms. Overflow turns
/// the bound into `−∞` or NaN, and a NaN bound is not used. Sums of
/// subnormal floats are exact, so underflow only shrinks the error.
fn stale_slack_unit(nc: usize, nf: usize) -> f64 {
    (nc + nf + 8) as f64 * f64::EPSILON
}

/// A facility's score from the last pass that scored it in full, with
/// the open-cost sum and drop total it was taken at.
#[derive(Debug, Clone, Copy)]
struct StaleScore {
    score: f64,
    open_base: f64,
    drops: f64,
}

impl StaleScore {
    /// A certified lower bound on the facility's score at a pass with
    /// open-cost sum `open_base` and drop total `drops` (see
    /// [`stale_slack_unit`]), or `None` when overflow made it NaN.
    fn bound(self, open_base: f64, drops: f64, slack_unit: f64) -> Option<f64> {
        let slack = slack_unit * (self.score + open_base + drops);
        let lb = self.score + (open_base - self.open_base) - (drops - self.drops) - slack;
        (!lb.is_nan()).then_some(lb)
    }
}

/// Whether score `s` of facility `f` beats the running pick under the
/// `(Score, index)` order — or, before any pick, strictly beats `cur`,
/// the score of the current open set.
fn beats(s: Score, f: usize, pick: Option<(usize, Score)>, cur: Score) -> bool {
    match pick {
        None => s.better_than(cur),
        Some((p, ps)) => s.better_than(ps) || (s == ps && f < p),
    }
}

/// Classic greedy: repeatedly open the facility with the best marginal
/// improvement, stopping when nothing improves.
///
/// Runs in `O(F² · C)` in the worst case (see [`solve_greedy_over`] for
/// what the certified bounds skip). Gives the standard
/// `O(log C)`-approximation for UFL; exactness is *not* guaranteed —
/// use the exact solvers when the result feeds a Nash-equilibrium
/// verdict. See [`solve_greedy_over`] for the evaluation order and
/// tie-breaking.
///
/// # Example
///
/// ```
/// use sp_facility::{FacilityProblem, solve_greedy};
///
/// let p = FacilityProblem::with_uniform_open_cost(1.0, vec![
///     vec![0.5, 9.0],
///     vec![9.0, 0.5],
/// ]).unwrap();
/// let s = solve_greedy(&p);
/// assert_eq!(s.open, vec![0, 1]);
/// ```
#[must_use]
pub fn solve_greedy(p: &FacilityProblem) -> FacilitySolution {
    let mut rows = p;
    solve_greedy_over(&mut rows).0
}

/// [`solve_greedy`] over any [`GreedyRows`] source: a lazy (Minoux)
/// greedy that opens the same set at a bitwise-equal cost as the
/// textbook greedy, which scores every closed facility every pass and
/// opens the first index among the strictly best scores.
///
/// **Pick.** Each pass opens the facility minimal under the
/// `(Score, index)` order among those strictly better than the current
/// open set — the textbook pick — so the visit order is free.
///
/// **Certificate.** Opening a facility only lowers the per-client
/// incumbents `best_v`, so a closed facility's score can only fall by
/// as much as they did: a score taken at pass `s` bounds the score at a
/// later pass `t` from below by
/// `score_s + (O_t − O_s) − (D_t − D_s)`, where `O` is the open-cost
/// sum and `D` the running total of `best_v` drops, minus a float slack
/// (derived in the source, at the private `stale_slack_unit`). Bounds
/// exist only once every client is served (an unserved client's drop is
/// infinite), both when a score is recorded and when its bound is used.
///
/// **Visit order.** Facilities without a bound go first, in index
/// order; the rest follow in ascending order of their bound, so the
/// running pick is strong early. A facility whose bound cannot beat the
/// running pick is skipped unscored. Before every client is served no
/// facility has a bound, and each pass is the textbook index-order
/// scan: a facility is dropped as soon as a partial score cannot beat
/// the running pick. Once every client is served, a visited facility is
/// scored in full so that its recorded score is that pass's exact float
/// score.
///
/// **Rows.** Lower-bound rows are scored first; since a lower-bound
/// score never beats a bound its exact score cannot, a row is made
/// exact only when its lower-bound score still wins, and a lower-bound
/// score recorded as a stale score still bounds the exact one. Opened
/// rows are always exact, so the result does not depend on the bounds
/// the source hands out.
///
/// **Complexity.** `O(F² · C)` in the worst case, like the textbook
/// greedy, plus an `O(F log F)` sort per pass; on the selfish-peers
/// instances most late-pass facilities are skipped unscored.
/// [`GreedyWork`] counts scores, skips and row escalations.
#[must_use]
pub fn solve_greedy_over<R: GreedyRows>(rows: &mut R) -> (FacilitySolution, GreedyWork) {
    let nf = rows.facility_count();
    let nc = rows.client_count();
    let mut work = GreedyWork::default();
    if nc == 0 {
        let empty = FacilitySolution {
            open: Vec::new(),
            cost: 0.0,
        };
        return (empty, work);
    }
    let slack_unit = stale_slack_unit(nc, nf);
    let mut open: Vec<usize> = Vec::new();
    let mut is_open = vec![false; nf];
    let mut best_v = vec![f64::INFINITY; nc];
    let mut drops = 0.0;
    let mut stale: Vec<Option<StaleScore>> = vec![None; nf];
    let mut order: Vec<(f64, usize)> = Vec::with_capacity(nf);
    let mut cur = Score {
        unserved: nc,
        finite_cost: 0.0,
    };

    loop {
        let open_base = open.iter().map(|&g| rows.open_cost(g)).sum::<f64>();
        // Scores are recorded only in served passes, and once served
        // every later pass is, so a recorded score is always usable.
        let served = cur.unserved == 0;
        // A facility without a usable bound sorts first, in index order,
        // under a bound of `−∞` that never skips it; before every client
        // is served that is every facility.
        order.clear();
        order.extend((0..nf).filter(|&f| !is_open[f]).map(|f| {
            let lb = stale[f].and_then(|st| st.bound(open_base, drops, slack_unit));
            (lb.unwrap_or(f64::NEG_INFINITY), f)
        }));
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut pick: Option<(usize, Score)> = None;
        for &(lb, f) in &order {
            let thr = pick.map_or(cur, |(_, s)| s);
            let ties_win = pick.is_some_and(|(p, _)| f < p);
            // sp-lint: allow(float-eps, reason = "certified stale-score bound: the float slack is derived at stale_slack_unit, so an exact comparison is sound")
            if !(lb < thr.finite_cost || (lb == thr.finite_cost && ties_win)) {
                work.stale_skips += 1;
                work.certified_rejects += 1;
                continue;
            }
            work.scores += 1;
            let oc = open_base + rows.open_cost(f);
            // Unserved passes visit in index order, so a tie never wins
            // there and the strict prefix exit is exact.
            let exit = (!served).then_some(thr);
            let exact = rows.bound(f);
            let mut s = score_within(oc, &best_v, rows.row(f), exit);
            if !exact {
                // A lower-bound score that loses certifies the exact
                // one does; one that wins pays for the exact row.
                if s.is_some_and(|s| beats(s, f, pick, cur)) {
                    work.escalations += 1;
                    rows.exact(f);
                    s = score_within(oc, &best_v, rows.row(f), exit);
                } else {
                    work.certified_rejects += 1;
                }
            }
            let Some(s) = s else { continue };
            if served {
                stale[f] = Some(StaleScore {
                    score: s.finite_cost,
                    open_base,
                    drops,
                });
            }
            if beats(s, f, pick, cur) {
                pick = Some((f, s));
            }
        }
        match pick {
            Some((f, s)) => {
                is_open[f] = true;
                open.push(f);
                let mut drop = 0.0;
                for (b, &a) in best_v.iter_mut().zip(rows.row(f)) {
                    let nb = b.min(a);
                    if served {
                        drop += *b - nb;
                    }
                    *b = nb;
                }
                drops += drop;
                cur = s;
            }
            None => break,
        }
    }
    open.sort_unstable();
    let sol = FacilitySolution {
        cost: cur.total(),
        open,
    };
    (sol, work)
}

/// Add/drop/swap local search, seeded by `start` (or [`solve_greedy`] when
/// `None`). Takes the best strictly-improving move until a local optimum.
///
/// Runs in `O(F² · C)` per iteration with an iteration cap of
/// `16 · F² + 64`. For metric assignment costs this is the classic
/// constant-factor approximation; it is also the incumbent provider for
/// [`crate::solve_branch_and_bound`].
///
/// # Example
///
/// ```
/// use sp_facility::{FacilityProblem, solve_local_search};
///
/// let p = FacilityProblem::with_uniform_open_cost(1.0, vec![
///     vec![0.5, 9.0],
///     vec![9.0, 0.5],
/// ]).unwrap();
/// let s = solve_local_search(&p, None);
/// assert_eq!(s.open, vec![0, 1]);
/// ```
#[must_use]
pub fn solve_local_search(p: &FacilityProblem, start: Option<&[usize]>) -> FacilitySolution {
    let nf = p.facility_count();
    let nc = p.client_count();
    if nc == 0 {
        return FacilitySolution {
            open: Vec::new(),
            cost: 0.0,
        };
    }
    let mut open: Vec<usize> = match start {
        Some(s) => {
            let mut v = s.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        }
        None => solve_greedy(p).open,
    };

    #[derive(Clone, Copy)]
    enum Move {
        Add(usize),
        Drop(usize),
        Swap { open_f: usize, close_f: usize },
    }

    let max_iters = 16 * nf * nf + 64;
    for _ in 0..max_iters {
        let state = recompute_state(p, &open);
        let oc = open_cost_sum(p, &open);
        let cur = score_from_values(oc, state.best_v.iter().copied());

        let mut best_move: Option<(Move, Score)> = None;
        let consider = |m: Move, s: Score, best_move: &mut Option<(Move, Score)>| {
            if s.better_than(cur) && best_move.is_none_or(|(_, bs)| s.better_than(bs)) {
                *best_move = Some((m, s));
            }
        };

        let is_open = {
            let mut mask = vec![false; nf];
            for &f in &open {
                mask[f] = true;
            }
            mask
        };

        // ADD moves.
        for f in 0..nf {
            if is_open[f] {
                continue;
            }
            let s = score_from_values(
                oc + p.open_cost(f),
                (0..nc).map(|c| state.best_v[c].min(p.assignment_cost(f, c))),
            );
            consider(Move::Add(f), s, &mut best_move);
        }
        // DROP moves.
        for &g in &open {
            let s = score_from_values(
                oc - p.open_cost(g),
                (0..nc).map(|c| {
                    if state.best_f[c] == g {
                        state.second_v[c]
                    } else {
                        state.best_v[c]
                    }
                }),
            );
            consider(Move::Drop(g), s, &mut best_move);
        }
        // SWAP moves.
        for f in 0..nf {
            if is_open[f] {
                continue;
            }
            for &g in &open {
                let s = score_from_values(
                    oc + p.open_cost(f) - p.open_cost(g),
                    (0..nc).map(|c| {
                        let base = if state.best_f[c] == g {
                            state.second_v[c]
                        } else {
                            state.best_v[c]
                        };
                        base.min(p.assignment_cost(f, c))
                    }),
                );
                consider(
                    Move::Swap {
                        open_f: f,
                        close_f: g,
                    },
                    s,
                    &mut best_move,
                );
            }
        }

        match best_move {
            Some((Move::Add(f), _)) => open.push(f),
            Some((Move::Drop(g), _)) => open.retain(|&x| x != g),
            Some((Move::Swap { open_f, close_f }, _)) => {
                open.retain(|&x| x != close_f);
                open.push(open_f);
            }
            None => break,
        }
    }

    open.sort_unstable();
    let cost = p.cost_of(&open);
    FacilitySolution { open, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_enumeration;

    fn line_problem(nf: usize, open_cost: f64) -> FacilityProblem {
        let rows: Vec<Vec<f64>> = (0..nf)
            .map(|f| (0..nf).map(|c| ((f as f64) - (c as f64)).abs()).collect())
            .collect();
        FacilityProblem::with_uniform_open_cost(open_cost, rows).unwrap()
    }

    #[test]
    fn greedy_reaches_feasibility() {
        let p = FacilityProblem::with_uniform_open_cost(
            1.0,
            vec![vec![1.0, f64::INFINITY], vec![f64::INFINITY, 1.0]],
        )
        .unwrap();
        let s = solve_greedy(&p);
        assert_eq!(s.open, vec![0, 1]);
        assert!(s.cost.is_finite());
    }

    #[test]
    fn greedy_skips_facilities_on_stale_scores() {
        let p = line_problem(24, 1.0);
        let (sol, work) = solve_greedy_over(&mut &p);
        assert!(sol.open.len() > 2, "{sol:?}");
        assert!(work.stale_skips > 0, "{work:?}");
        assert_eq!(work.certified_rejects, work.stale_skips);
        assert_eq!(work.escalations, 0);
        let visits: usize = (0..=sol.open.len()).map(|k| 24 - k).sum();
        assert_eq!(work.scores + work.stale_skips, visits);
    }

    #[test]
    fn greedy_never_beats_optimal_and_local_search_never_beats_optimal() {
        for oc in [0.0, 0.3, 1.0, 5.0, 50.0] {
            let p = line_problem(8, oc);
            let opt = solve_enumeration(&p).unwrap();
            let g = solve_greedy(&p);
            let l = solve_local_search(&p, None);
            assert!(
                g.cost >= opt.cost - 1e-9,
                "greedy {} < opt {}",
                g.cost,
                opt.cost
            );
            assert!(l.cost >= opt.cost - 1e-9);
            assert!(
                l.cost <= g.cost + 1e-9,
                "local search must not be worse than its seed"
            );
        }
    }

    #[test]
    fn local_search_escapes_bad_start() {
        let p = line_problem(6, 0.5);
        // Start from the worst possible single facility.
        let s = solve_local_search(&p, Some(&[0]));
        let opt = solve_enumeration(&p).unwrap();
        assert!(
            (s.cost - opt.cost).abs() < 1e-9,
            "ls={} opt={}",
            s.cost,
            opt.cost
        );
    }

    #[test]
    fn local_search_cost_is_consistent() {
        let p = line_problem(7, 2.0);
        let s = solve_local_search(&p, None);
        assert!((s.cost - p.cost_of(&s.open)).abs() < 1e-12);
    }

    #[test]
    fn empty_clients_short_circuit() {
        let p = FacilityProblem::new(vec![2.0], vec![vec![]]).unwrap();
        assert_eq!(solve_greedy(&p).cost, 0.0);
        assert_eq!(solve_local_search(&p, None).cost, 0.0);
    }

    #[test]
    fn greedy_handles_totally_infeasible() {
        let p = FacilityProblem::with_uniform_open_cost(
            1.0,
            vec![vec![f64::INFINITY], vec![f64::INFINITY]],
        )
        .unwrap();
        let s = solve_greedy(&p);
        assert!(s.cost.is_infinite());
    }

    #[test]
    fn score_ordering_prefers_served_clients() {
        let a = Score {
            unserved: 1,
            finite_cost: 0.0,
        };
        let b = Score {
            unserved: 0,
            finite_cost: 1000.0,
        };
        assert!(b.better_than(a));
        assert!(!a.better_than(b));
        assert_eq!(a.total(), f64::INFINITY);
        assert_eq!(b.total(), 1000.0);
    }
}
