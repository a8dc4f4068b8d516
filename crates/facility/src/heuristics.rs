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

/// What one [`solve_greedy_over`] run read: facility evaluations a
/// lower-bound row settled on its own, and those that had to make their
/// row exact. Both stay 0 over a source whose rows are all exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyWork {
    /// Evaluations rejected on a lower-bound row without making it exact.
    pub certified_rejects: usize,
    /// Evaluations whose lower-bound row could still win and so was
    /// made exact.
    pub escalations: usize,
}

/// Score of opening one more facility with assignment row `row` on top
/// of the per-client incumbents `best_v`, or `None` as soon as a partial
/// score shows it cannot strictly beat `bound`.
///
/// The early exit is exact: every term is non-negative, and IEEE
/// addition of a non-negative term never decreases a sum, so neither
/// the unserved count nor the finite part of a partial score can shrink
/// as more clients are added. A full score is summed in client order
/// from the opening cost, so a surviving score is bit-identical to the
/// textbook computation.
fn score_within(open_cost: f64, best_v: &[f64], row: &[f64], bound: Score) -> Option<Score> {
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
        if !partial.better_than(bound) {
            return None;
        }
    }
    partial.better_than(bound).then_some(partial)
}

/// Classic greedy: repeatedly open the facility with the best marginal
/// improvement, stopping when nothing improves.
///
/// Runs in `O(F² · C)`. Gives the standard `O(log C)`-approximation for
/// UFL; exactness is *not* guaranteed — use the exact solvers when the
/// result feeds a Nash-equilibrium verdict. See [`solve_greedy_over`]
/// for the evaluation order and tie-breaking.
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

/// [`solve_greedy`] over any [`GreedyRows`] source.
///
/// Each pass scans the closed facilities in index order against the
/// running pick (at first, the current open set): a facility replaces
/// the pick only when its score is strictly better, so the first index
/// wins ties. A facility is dropped as soon as a partial score cannot
/// beat the running pick. Lower-bound rows are scored first; since a
/// lower-bound score never beats a bound its exact score cannot, a row
/// is made exact only when its lower-bound score still wins. Opened rows
/// are always exact, so the open set and cost are bit-identical to the
/// textbook greedy over the exact rows, whatever bounds the source hands
/// out.
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
    let mut open: Vec<usize> = Vec::new();
    let mut is_open = vec![false; nf];
    let mut best_v = vec![f64::INFINITY; nc];
    let mut cur = Score {
        unserved: nc,
        finite_cost: 0.0,
    };

    loop {
        let mut pick: Option<(usize, Score)> = None;
        for f in 0..nf {
            if is_open[f] {
                continue;
            }
            let oc = open.iter().map(|&g| rows.open_cost(g)).sum::<f64>() + rows.open_cost(f);
            let bound = pick.map_or(cur, |(_, s)| s);
            let exact = rows.bound(f);
            let Some(s) = score_within(oc, &best_v, rows.row(f), bound) else {
                if !exact {
                    work.certified_rejects += 1;
                }
                continue;
            };
            if exact {
                pick = Some((f, s));
                continue;
            }
            work.escalations += 1;
            rows.exact(f);
            if let Some(s) = score_within(oc, &best_v, rows.row(f), bound) {
                pick = Some((f, s));
            }
        }
        match pick {
            Some((f, s)) => {
                is_open[f] = true;
                open.push(f);
                for (b, &a) in best_v.iter_mut().zip(rows.row(f)) {
                    *b = b.min(a);
                }
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
