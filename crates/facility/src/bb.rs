use crate::heuristics::solve_local_search;
use crate::{FacilityProblem, FacilitySolution};

/// Exact branch-and-bound solver.
///
/// Branches on facilities in decreasing-attractiveness order; prunes with
/// the admissible bound "opening costs so far + per client, the cheaper of
/// its current server and the best undecided facility". The incumbent is
/// seeded with the local-search solution, which makes pruning effective
/// immediately.
///
/// Exponential in the worst case, but in the best-response instances
/// arising from the game it comfortably handles hundreds of facilities
/// (where [`crate::solve_enumeration`] caps out at 24).
///
/// Agrees with enumeration on the optimal **cost** (property-tested); the
/// optimal *set* may differ when several optima tie.
///
/// # Example
///
/// ```
/// use sp_facility::{FacilityProblem, solve_branch_and_bound, solve_enumeration};
///
/// let p = FacilityProblem::with_uniform_open_cost(2.0, vec![
///     vec![1.0, 4.0, 4.0],
///     vec![4.0, 1.0, 4.0],
///     vec![4.0, 4.0, 1.0],
/// ]).unwrap();
/// let bb = solve_branch_and_bound(&p);
/// let enumref = solve_enumeration(&p).unwrap();
/// assert_eq!(bb.cost, enumref.cost);
/// ```
#[must_use]
pub fn solve_branch_and_bound(p: &FacilityProblem) -> FacilitySolution {
    let nf = p.facility_count();
    let nc = p.client_count();
    if nc == 0 {
        return FacilitySolution {
            open: Vec::new(),
            cost: 0.0,
        };
    }
    if nf == 0 {
        return FacilitySolution {
            open: Vec::new(),
            cost: f64::INFINITY,
        };
    }

    // Facility order: most attractive first (low opening + assignment mass).
    // Infinite assignments are clipped for ordering purposes only.
    let mut order: Vec<usize> = (0..nf).collect();
    let attractiveness = |f: usize| -> f64 {
        let row_sum: f64 = p
            .assignment_row(f)
            .iter()
            .map(|&a| if a.is_finite() { a } else { 1e18 })
            .sum();
        p.open_cost(f) + row_sum
    };
    order.sort_by(|&a, &b| attractiveness(a).total_cmp(&attractiveness(b)));

    // suffix_min[i][c] = min assignment cost for client c over order[i..].
    let mut suffix_min = vec![vec![f64::INFINITY; nc]; nf + 1];
    for i in (0..nf).rev() {
        let f = order[i];
        for c in 0..nc {
            suffix_min[i][c] = suffix_min[i + 1][c].min(p.assignment_cost(f, c));
        }
    }

    // Incumbent from local search.
    let seed = solve_local_search(p, None);
    let mut best_cost = seed.cost;
    let mut best_open = seed.open;

    struct Ctx<'a> {
        p: &'a FacilityProblem,
        order: Vec<usize>,
        suffix_min: Vec<Vec<f64>>,
        best_cost: f64,
        best_open: Vec<usize>,
    }

    fn bound(ctx: &Ctx<'_>, idx: usize, open_cost: f64, current: &[f64]) -> f64 {
        let mut b = open_cost;
        for (c, &cur) in current.iter().enumerate() {
            b += cur.min(ctx.suffix_min[idx][c]);
            if b.is_infinite() {
                return f64::INFINITY;
            }
        }
        b
    }

    /// Whether a subtree whose cost is bounded below by `lower` can be
    /// cut against the incumbent's cost `best`: it can at best tie, and
    /// a tie keeps the incumbent. The bound is a different summation
    /// order from a leaf's total, so the search is exact up to that
    /// rounding (callers compare with the exact solvers under a relative
    /// tolerance); a band would only cut more.
    fn prunes(lower: f64, best: f64) -> bool {
        lower >= best
    }

    fn dfs(
        ctx: &mut Ctx<'_>,
        idx: usize,
        open_cost: f64,
        open: &mut Vec<usize>,
        current: &mut Vec<f64>,
    ) {
        let nf = ctx.order.len();
        if idx == nf {
            let total = open_cost + current.iter().sum::<f64>();
            // sp-lint: allow(float-eps, reason = "incumbent update: only a strictly cheaper leaf replaces it, so ties keep the first-found set; an eps band would keep a costlier one")
            if total < ctx.best_cost {
                ctx.best_cost = total;
                ctx.best_open = open.clone();
            }
            return;
        }
        if prunes(bound(ctx, idx, open_cost, current), ctx.best_cost) {
            return;
        }
        let f = ctx.order[idx];

        // Child A: open facility f.
        let mut saved: Vec<(usize, f64)> = Vec::new();
        for c in 0..current.len() {
            let a = ctx.p.assignment_cost(f, c);
            if a < current[c] {
                saved.push((c, current[c]));
                current[c] = a;
            }
        }
        let open_bound = bound(ctx, idx + 1, open_cost + ctx.p.open_cost(f), current);
        // Undo to evaluate the closed child bound from the same state.
        for &(c, v) in saved.iter().rev() {
            current[c] = v;
        }
        let closed_bound = bound(ctx, idx + 1, open_cost, current);

        let explore_open_first = open_bound <= closed_bound;
        for step in 0..2 {
            let do_open = (step == 0) == explore_open_first;
            if do_open {
                if prunes(open_bound, ctx.best_cost) {
                    continue;
                }
                for &(c, _) in &saved {
                    current[c] = ctx.p.assignment_cost(f, c);
                }
                open.push(f);
                dfs(ctx, idx + 1, open_cost + ctx.p.open_cost(f), open, current);
                open.pop();
                for &(c, v) in saved.iter().rev() {
                    current[c] = v;
                }
            } else {
                if prunes(closed_bound, ctx.best_cost) {
                    continue;
                }
                dfs(ctx, idx + 1, open_cost, open, current);
            }
        }
    }

    let mut ctx = Ctx {
        p,
        order,
        suffix_min,
        best_cost,
        best_open,
    };
    let mut open = Vec::new();
    let mut current = vec![f64::INFINITY; nc];
    dfs(&mut ctx, 0, 0.0, &mut open, &mut current);

    best_cost = ctx.best_cost;
    best_open = ctx.best_open;
    best_open.sort_unstable();
    if best_cost.is_infinite() {
        return FacilitySolution {
            open: Vec::new(),
            cost: f64::INFINITY,
        };
    }
    FacilitySolution {
        open: best_open,
        cost: best_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_enumeration;

    #[test]
    fn matches_enumeration_on_fixtures() {
        let cases = vec![
            FacilityProblem::with_uniform_open_cost(
                2.0,
                vec![
                    vec![1.0, 4.0, 4.0],
                    vec![4.0, 1.0, 4.0],
                    vec![4.0, 4.0, 1.0],
                ],
            )
            .unwrap(),
            FacilityProblem::with_uniform_open_cost(0.5, vec![vec![3.0, 0.1], vec![0.1, 3.0]])
                .unwrap(),
            FacilityProblem::new(
                vec![1.0, 10.0, 0.1],
                vec![vec![5.0, 5.0], vec![0.1, 0.1], vec![4.0, 4.0]],
            )
            .unwrap(),
        ];
        for p in cases {
            let a = solve_enumeration(&p).unwrap();
            let b = solve_branch_and_bound(&p);
            assert!(
                (a.cost - b.cost).abs() < 1e-9,
                "enum={} bb={}",
                a.cost,
                b.cost
            );
            assert!((p.cost_of(&b.open) - b.cost).abs() < 1e-9);
        }
    }

    #[test]
    fn no_clients_opens_nothing() {
        let p = FacilityProblem::new(vec![1.0], vec![vec![]]).unwrap();
        let s = solve_branch_and_bound(&p);
        assert!(s.open.is_empty());
        assert_eq!(s.cost, 0.0);
    }

    #[test]
    fn infeasible_instance_reports_infinite() {
        let p = FacilityProblem::with_uniform_open_cost(
            1.0,
            vec![vec![f64::INFINITY], vec![f64::INFINITY]],
        )
        .unwrap();
        let s = solve_branch_and_bound(&p);
        assert!(s.cost.is_infinite());
        assert!(s.open.is_empty());
    }

    #[test]
    fn handles_more_facilities_than_enumeration_limit() {
        // 30 facilities on a "line": client c is served cheaply by facility
        // c only; optimal opens everything (open cost 0.01).
        let nf = 30;
        let rows: Vec<Vec<f64>> = (0..nf)
            .map(|f| {
                (0..nf)
                    .map(|c| ((f as f64) - (c as f64)).abs() + 1.0)
                    .collect()
            })
            .collect();
        let p = FacilityProblem::with_uniform_open_cost(0.01, rows).unwrap();
        let s = solve_branch_and_bound(&p);
        assert_eq!(s.open.len(), 30);
        assert!((s.cost - (0.01 * 30.0 + 30.0)).abs() < 1e-9);
    }

    #[test]
    fn high_open_cost_opens_single_median() {
        let rows = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![2.0, 1.0, 2.0, 3.0],
            vec![3.0, 2.0, 1.0, 2.0],
            vec![4.0, 3.0, 2.0, 1.0],
        ];
        let p = FacilityProblem::with_uniform_open_cost(100.0, rows).unwrap();
        let s = solve_branch_and_bound(&p);
        assert_eq!(s.open.len(), 1);
        // Either median facility (1 or 2) costs 100 + 8.
        assert!((s.cost - 108.0).abs() < 1e-9);
    }
}
