use crate::{FacilityError, FacilityProblem, FacilitySolution};

/// Maximum number of facilities [`solve_enumeration`] accepts (the solver
/// is `O(2^F)`).
pub const ENUMERATION_FACILITY_LIMIT: usize = 24;

/// Exact solver by exhaustive subset enumeration.
///
/// The reference implementation: every other solver is validated against
/// it. Complexity `O(2^F · F · C)` with early pruning on opening costs.
///
/// Ties between subsets of equal cost are broken in favour of *fewer open
/// facilities*, then lexicographically smaller bitmask — so results are
/// deterministic.
///
/// # Errors
///
/// Returns [`FacilityError::TooManyFacilities`] if the instance has more
/// than [`ENUMERATION_FACILITY_LIMIT`] facilities.
///
/// # Example
///
/// ```
/// use sp_facility::{FacilityProblem, solve_enumeration};
///
/// let p = FacilityProblem::with_uniform_open_cost(10.0, vec![
///     vec![1.0, 1.0],
///     vec![0.5, 0.5],
/// ]).unwrap();
/// // High opening cost: open only the better facility.
/// assert_eq!(solve_enumeration(&p).unwrap().open, vec![1]);
/// ```
pub fn solve_enumeration(p: &FacilityProblem) -> Result<FacilitySolution, FacilityError> {
    let nf = p.facility_count();
    if nf > ENUMERATION_FACILITY_LIMIT {
        return Err(FacilityError::TooManyFacilities {
            facilities: nf,
            limit: ENUMERATION_FACILITY_LIMIT,
        });
    }
    let nc = p.client_count();
    if nc == 0 {
        // Opening nothing is optimal when there is nothing to serve.
        return Ok(FacilitySolution {
            open: Vec::new(),
            cost: 0.0,
        });
    }
    if nf == 0 {
        return Ok(FacilitySolution {
            open: Vec::new(),
            cost: f64::INFINITY,
        });
    }

    let mut best_mask: u32 = 0;
    let mut best_cost = f64::INFINITY;
    let mut best_popcount = u32::MAX;

    let open_costs: Vec<f64> = (0..nf).map(|f| p.open_cost(f)).collect();

    for mask in 0u32..(1u32 << nf) {
        let pop = mask.count_ones();
        let mut cost = 0.0;
        for (f, &oc) in open_costs.iter().enumerate() {
            if mask & (1 << f) != 0 {
                cost += oc;
            }
        }
        // sp-lint: allow(float-eps, reason = "exact early exit: the remaining terms are non-negative and IEEE addition is monotone, so a partial sum strictly above the incumbent cannot tie or win")
        if cost > best_cost {
            continue; // opening costs alone already lose
        }
        let mut complete = true;
        for c in 0..nc {
            let mut m = mask;
            let mut cheapest = f64::INFINITY;
            while m != 0 {
                let f = m.trailing_zeros() as usize;
                m &= m - 1;
                let a = p.assignment_cost(f, c);
                if a < cheapest {
                    cheapest = a;
                }
            }
            cost += cheapest;
            // sp-lint: allow(float-eps, reason = "exact early exit: the remaining terms are non-negative and IEEE addition is monotone, so a partial sum strictly above the incumbent cannot tie or win")
            if cost > best_cost {
                complete = false;
                break;
            }
        }
        if !complete || !cost.is_finite() {
            continue;
        }
        // Lexicographic `(cost, popcount, mask)`: neither cost is NaN
        // or `-0.0` (sums start at `+0.0`), so `total_cmp` is `<`/`==`.
        let order = cost
            .total_cmp(&best_cost)
            .then(pop.cmp(&best_popcount))
            .then(mask.cmp(&best_mask));
        if order.is_lt() {
            best_cost = cost;
            best_mask = mask;
            best_popcount = pop;
        }
    }

    if best_cost.is_infinite() {
        // No subset serves every client; report the empty set.
        return Ok(FacilitySolution {
            open: Vec::new(),
            cost: f64::INFINITY,
        });
    }

    let open: Vec<usize> = (0..nf).filter(|f| best_mask & (1 << f) != 0).collect();
    Ok(FacilitySolution {
        open,
        cost: best_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_nothing_without_clients() {
        let p = FacilityProblem::new(vec![1.0, 2.0], vec![vec![], vec![]]).unwrap();
        let s = solve_enumeration(&p).unwrap();
        assert!(s.open.is_empty());
        assert_eq!(s.cost, 0.0);
    }

    #[test]
    fn no_facilities_with_clients_is_infeasible() {
        let p = FacilityProblem::new(vec![], vec![]).unwrap();
        // 0 facilities, 0 clients -> cost 0. Construct 0-facility instance
        // with clients via a row-less matrix is impossible, so emulate the
        // infeasible case with all-infinite assignments.
        let q = FacilityProblem::with_uniform_open_cost(
            1.0,
            vec![vec![f64::INFINITY], vec![f64::INFINITY]],
        )
        .unwrap();
        assert_eq!(solve_enumeration(&p).unwrap().cost, 0.0);
        let s = solve_enumeration(&q).unwrap();
        assert!(s.cost.is_infinite());
        assert!(s.open.is_empty());
    }

    #[test]
    fn picks_cheaper_facility_under_high_open_cost() {
        let p = FacilityProblem::with_uniform_open_cost(
            100.0,
            vec![vec![1.0, 2.0, 3.0], vec![2.0, 1.0, 1.0]],
        )
        .unwrap();
        let s = solve_enumeration(&p).unwrap();
        assert_eq!(s.open, vec![1]);
        assert_eq!(s.cost, 104.0);
    }

    #[test]
    fn opens_everything_under_free_open_cost() {
        let p = FacilityProblem::with_uniform_open_cost(0.0, vec![vec![1.0, 9.0], vec![9.0, 1.0]])
            .unwrap();
        let s = solve_enumeration(&p).unwrap();
        assert_eq!(s.open, vec![0, 1]);
        assert_eq!(s.cost, 2.0);
    }

    #[test]
    fn ties_prefer_fewer_facilities() {
        // Opening facility 1 as well changes nothing (same costs) — the
        // solver must prefer the singleton.
        let p = FacilityProblem::with_uniform_open_cost(0.0, vec![vec![1.0, 1.0], vec![1.0, 1.0]])
            .unwrap();
        let s = solve_enumeration(&p).unwrap();
        assert_eq!(s.open, vec![0]);
    }

    #[test]
    fn rejects_oversized_instances() {
        let rows = vec![vec![1.0]; ENUMERATION_FACILITY_LIMIT + 1];
        let p = FacilityProblem::with_uniform_open_cost(1.0, rows).unwrap();
        assert!(matches!(
            solve_enumeration(&p),
            Err(FacilityError::TooManyFacilities { .. })
        ));
    }

    #[test]
    fn cost_matches_cost_of() {
        let p = FacilityProblem::with_uniform_open_cost(
            1.5,
            vec![
                vec![2.0, 0.5, 4.0],
                vec![1.0, 3.0, 0.5],
                vec![0.5, 2.5, 2.0],
            ],
        )
        .unwrap();
        let s = solve_enumeration(&p).unwrap();
        assert!((s.cost - p.cost_of(&s.open)).abs() < 1e-12);
    }

    #[test]
    fn infinite_assignments_force_specific_facility() {
        let p = FacilityProblem::with_uniform_open_cost(
            1.0,
            vec![vec![1.0, f64::INFINITY], vec![f64::INFINITY, 1.0]],
        )
        .unwrap();
        let s = solve_enumeration(&p).unwrap();
        assert_eq!(s.open, vec![0, 1]);
        assert_eq!(s.cost, 4.0);
    }
}
