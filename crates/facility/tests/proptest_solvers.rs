//! Property tests pinning the solver hierarchy:
//! `enumeration == branch-and-bound <= local search <= greedy` (in cost),
//! plus the lazy greedy's bit-identity to the textbook greedy, over
//! exact rows and over lower-bound rows made exact on demand.

use proptest::prelude::*;
use sp_facility::{
    solve_branch_and_bound, solve_enumeration, solve_greedy, solve_greedy_over, solve_local_search,
    FacilityProblem, FacilitySolution, GreedyRows, GreedyWork,
};

/// The textbook greedy exactly as `solve_greedy` ran before it learned
/// the early exit and the stale-score skips: every candidate's full
/// score, every pass. Kept as the reference the lazy solver must
/// reproduce bit for bit.
#[allow(clippy::needless_range_loop)]
mod textbook {
    use sp_facility::{FacilityProblem, FacilitySolution};

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

    pub fn solve_greedy(p: &FacilityProblem) -> FacilitySolution {
        let nf = p.facility_count();
        let nc = p.client_count();
        if nc == 0 {
            return FacilitySolution {
                open: Vec::new(),
                cost: 0.0,
            };
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
                let oc = open_cost_sum(p, &open) + p.open_cost(f);
                let cand =
                    score_from_values(oc, (0..nc).map(|c| best_v[c].min(p.assignment_cost(f, c))));
                if cand.better_than(cur) && pick.is_none_or(|(_, s)| cand.better_than(s)) {
                    pick = Some((f, cand));
                }
            }
            match pick {
                Some((f, s)) => {
                    is_open[f] = true;
                    open.push(f);
                    for c in 0..nc {
                        best_v[c] = best_v[c].min(p.assignment_cost(f, c));
                    }
                    cur = s;
                }
                None => break,
            }
        }
        open.sort_unstable();
        FacilitySolution {
            cost: cur.total(),
            open,
        }
    }
}

/// A row source that hands out each row first as a lower bound (the
/// exact row scaled by a per-facility factor in `[0, 1]`, some entries
/// zeroed) and serves the exact row only once asked.
struct BoundedRows<'a> {
    exact: &'a FacilityProblem,
    lower: Vec<Vec<f64>>,
    resolved: Vec<bool>,
}

impl GreedyRows for BoundedRows<'_> {
    fn facility_count(&self) -> usize {
        self.exact.facility_count()
    }

    fn client_count(&self) -> usize {
        self.exact.client_count()
    }

    fn open_cost(&self, f: usize) -> f64 {
        self.exact.open_cost(f)
    }

    fn bound(&mut self, f: usize) -> bool {
        self.resolved[f]
    }

    fn exact(&mut self, f: usize) {
        self.resolved[f] = true;
    }

    fn row(&self, f: usize) -> &[f64] {
        if self.resolved[f] {
            self.exact.assignment_row(f)
        } else {
            &self.lower[f]
        }
    }
}

fn assert_bitwise_same(
    got: &FacilitySolution,
    want: &FacilitySolution,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.open, &want.open);
    prop_assert_eq!(
        got.cost.to_bits(),
        want.cost.to_bits(),
        "{} vs {}",
        got.cost,
        want.cost
    );
    Ok(())
}

/// Instances built from a handful of values, so exact ties between
/// candidate scores (and `+∞` entries) are common, with per-facility
/// opening costs drawn the same way.
fn arb_problem_with_ties() -> impl Strategy<Value = FacilityProblem> {
    let entry = || {
        prop_oneof![
            Just(0.0f64),
            Just(0.5),
            Just(1.0),
            Just(2.0),
            Just(f64::INFINITY),
            0.0f64..10.0,
        ]
    };
    (1usize..=8, 1usize..=8).prop_flat_map(move |(nf, nc)| {
        (
            proptest::collection::vec(prop_oneof![Just(0.0f64), Just(1.0), 0.0f64..4.0], nf..=nf),
            proptest::collection::vec(proptest::collection::vec(entry(), nc..=nc), nf..=nf),
        )
            .prop_map(|(costs, rows)| FacilityProblem::new(costs, rows).unwrap())
    })
}

/// `x` moved `steps` ulps up (positive) or down (negative), floored at
/// zero so it stays a valid cost.
fn nudge(x: f64, steps: i32) -> f64 {
    let mut x = x;
    for _ in 0..steps.unsigned_abs() {
        x = if steps > 0 {
            x.next_up()
        } else {
            x.next_down()
        };
    }
    x.max(0.0)
}

/// Instances up to 48×48 whose entries are a few base values and their
/// 1-ulp neighbours, with some `+∞` entries and heterogeneous opening
/// costs (zero among them). Candidate scores then differ by a few ulps
/// across facilities and passes, where the stale-score bound's float
/// slack is what keeps a skip sound.
fn arb_near_tie_problem() -> impl Strategy<Value = FacilityProblem> {
    let base = || prop_oneof![Just(0.0f64), Just(0.5), Just(1.0), 0.0f64..10.0];
    (
        1usize..=48,
        1usize..=48,
        proptest::collection::vec(base(), 4..=4),
    )
        .prop_flat_map(move |(nf, nc, bases)| {
            let entry = (0usize..4, -1i32..=1, 0u8..16);
            let cost = (0u8..3, -1i32..=1, 0.0f64..4.0);
            (
                Just(bases),
                proptest::collection::vec(cost, nf..=nf),
                proptest::collection::vec(proptest::collection::vec(entry, nc..=nc), nf..=nf),
            )
        })
        .prop_map(|(bases, costs, rows)| {
            let costs = costs
                .into_iter()
                .map(|(kind, steps, v)| match kind {
                    0 => 0.0,
                    1 => nudge(bases[0], steps),
                    _ => v,
                })
                .collect();
            let rows = rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|(k, steps, inf)| {
                            if inf == 0 {
                                f64::INFINITY
                            } else {
                                nudge(bases[k], steps)
                            }
                        })
                        .collect()
                })
                .collect();
            FacilityProblem::new(costs, rows).unwrap()
        })
}

/// `p` with lower-bound rows to go with it: each exact row scaled by a
/// per-facility factor in `[0, 1]`, some entries zeroed.
fn with_lower_rows(
    problem: impl Strategy<Value = FacilityProblem>,
) -> impl Strategy<Value = (FacilityProblem, Vec<Vec<f64>>)> {
    problem
        .prop_flat_map(|p| {
            let (nf, nc) = (p.facility_count(), p.client_count());
            (
                Just(p),
                proptest::collection::vec(
                    prop_oneof![Just(0.0f64), Just(1.0), 0.0f64..1.0],
                    nf..=nf,
                ),
                proptest::collection::vec(0u8..5, nf * nc..=nf * nc),
            )
        })
        .prop_map(|(p, scales, zeroed)| {
            let nc = p.client_count();
            let lower = (0..p.facility_count())
                .map(|f| {
                    p.assignment_row(f)
                        .iter()
                        .enumerate()
                        .map(|(c, &a)| {
                            if zeroed[f * nc + c] == 0 {
                                0.0
                            } else {
                                a * scales[f]
                            }
                        })
                        .collect()
                })
                .collect();
            (p, lower)
        })
}

/// Runs the greedy over `lower`, checks it answers bitwise like the
/// textbook greedy over the exact rows, opens only exact rows, escalates
/// exactly the rows it made exact, and evaluates every closed facility
/// once per pass.
fn check_lower_rows(p: &FacilityProblem, lower: Vec<Vec<f64>>) -> Result<(), TestCaseError> {
    let mut rows = BoundedRows {
        exact: p,
        lower,
        resolved: vec![false; p.facility_count()],
    };
    let (got, work) = solve_greedy_over(&mut rows);
    assert_bitwise_same(&got, &textbook::solve_greedy(p))?;
    for &f in &got.open {
        prop_assert!(
            rows.resolved[f],
            "opened facility {} was never made exact",
            f
        );
    }
    prop_assert_eq!(
        work.escalations,
        rows.resolved.iter().filter(|&&r| r).count()
    );
    check_visits(p, &got, work)
}

/// Every pass evaluates each closed facility exactly once, by a score
/// or a stale-score skip, and every skip is a certified rejection.
fn check_visits(
    p: &FacilityProblem,
    got: &FacilitySolution,
    work: GreedyWork,
) -> Result<(), TestCaseError> {
    let nf = p.facility_count();
    let visits: usize = if p.client_count() == 0 {
        0
    } else {
        (0..=got.open.len()).map(|k| nf - k).sum()
    };
    prop_assert_eq!(work.scores + work.stale_skips, visits);
    prop_assert!(work.stale_skips <= work.certified_rejects);
    Ok(())
}

fn arb_problem() -> impl Strategy<Value = FacilityProblem> {
    (1usize..=7, 1usize..=7, 0.0f64..8.0).prop_flat_map(|(nf, nc, open_cost)| {
        proptest::collection::vec(proptest::collection::vec(0.0f64..10.0, nc..=nc), nf..=nf)
            .prop_map(move |rows| FacilityProblem::with_uniform_open_cost(open_cost, rows).unwrap())
    })
}

/// Like `arb_problem` but with some assignments infinite (unreachable).
fn arb_problem_with_gaps() -> impl Strategy<Value = FacilityProblem> {
    (1usize..=6, 1usize..=6, 0.0f64..4.0).prop_flat_map(|(nf, nc, open_cost)| {
        proptest::collection::vec(
            proptest::collection::vec((0.0f64..10.0, proptest::bool::ANY), nc..=nc),
            nf..=nf,
        )
        .prop_map(move |rows| {
            let rows = rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|(v, inf)| if inf { f64::INFINITY } else { v })
                        .collect()
                })
                .collect();
            FacilityProblem::with_uniform_open_cost(open_cost, rows).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn exact_solvers_agree(p in arb_problem()) {
        let e = solve_enumeration(&p).unwrap();
        let b = solve_branch_and_bound(&p);
        prop_assert!((e.cost - b.cost).abs() <= 1e-9 * (1.0 + e.cost.abs()),
            "enum={} bb={}", e.cost, b.cost);
        // Both report costs consistent with their own open sets.
        prop_assert!((p.cost_of(&e.open) - e.cost).abs() <= 1e-9);
        prop_assert!((p.cost_of(&b.open) - b.cost).abs() <= 1e-9);
    }

    #[test]
    fn exact_solvers_agree_with_gaps(p in arb_problem_with_gaps()) {
        let e = solve_enumeration(&p).unwrap();
        let b = solve_branch_and_bound(&p);
        if e.cost.is_infinite() {
            prop_assert!(b.cost.is_infinite());
        } else {
            prop_assert!((e.cost - b.cost).abs() <= 1e-9 * (1.0 + e.cost.abs()));
        }
    }

    #[test]
    fn heuristics_bound_the_optimum(p in arb_problem()) {
        let opt = solve_enumeration(&p).unwrap();
        let g = solve_greedy(&p);
        let l = solve_local_search(&p, None);
        prop_assert!(g.cost >= opt.cost - 1e-9);
        prop_assert!(l.cost >= opt.cost - 1e-9);
        prop_assert!(l.cost <= g.cost + 1e-9, "local search worsened its greedy seed");
        prop_assert!((p.cost_of(&g.open) - g.cost).abs() <= 1e-9);
        prop_assert!((p.cost_of(&l.open) - l.cost).abs() <= 1e-9);
    }

    #[test]
    fn enumeration_beats_every_explicit_subset(p in arb_problem()) {
        // Exhaustively re-verify optimality (independent re-implementation).
        let opt = solve_enumeration(&p).unwrap();
        let nf = p.facility_count();
        for mask in 0u32..(1u32 << nf) {
            let subset: Vec<usize> = (0..nf).filter(|f| mask & (1 << f) != 0).collect();
            prop_assert!(p.cost_of(&subset) >= opt.cost - 1e-9);
        }
    }

    #[test]
    fn local_search_from_any_start_is_no_worse_than_start(
        p in arb_problem(),
        start_mask in 0u32..128,
    ) {
        let nf = p.facility_count();
        let start: Vec<usize> = (0..nf).filter(|f| start_mask & (1 << f) != 0).collect();
        let before = p.cost_of(&start);
        let after = solve_local_search(&p, Some(&start));
        if before.is_finite() {
            prop_assert!(after.cost <= before + 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The early-exit greedy opens the same set at a bitwise-equal cost
    /// as the textbook greedy, ties and unreachable clients included.
    #[test]
    fn early_exit_greedy_is_the_textbook_greedy(p in arb_problem_with_ties()) {
        assert_bitwise_same(&solve_greedy(&p), &textbook::solve_greedy(&p))?;
    }

    #[test]
    fn early_exit_greedy_is_the_textbook_greedy_with_gaps(p in arb_problem_with_gaps()) {
        assert_bitwise_same(&solve_greedy(&p), &textbook::solve_greedy(&p))?;
    }

    /// Over lower-bound rows made exact on demand, the greedy still
    /// answers bitwise like the textbook greedy over the exact rows, and
    /// it only escalates rows whose bound could still win.
    #[test]
    fn lower_bound_rows_give_the_exact_greedy(
        (p, lower) in with_lower_rows(arb_problem_with_ties()),
    ) {
        check_lower_rows(&p, lower)?;
    }

    /// Near ties at scale: the lazy greedy's stale-score skips keep it
    /// bitwise the textbook greedy when candidate scores sit a few ulps
    /// apart, unreachable clients and free facilities included.
    #[test]
    fn lazy_greedy_is_the_textbook_greedy_on_near_ties(p in arb_near_tie_problem()) {
        let (got, work) = solve_greedy_over(&mut &p);
        assert_bitwise_same(&got, &textbook::solve_greedy(&p))?;
        prop_assert_eq!(work.escalations, 0);
        check_visits(&p, &got, work)?;
    }

    #[test]
    fn lazy_greedy_over_lower_rows_is_the_textbook_greedy_on_near_ties(
        (p, lower) in with_lower_rows(arb_near_tie_problem()),
    ) {
        check_lower_rows(&p, lower)?;
    }
}

/// Instances with heterogeneous opening costs, including free facilities —
/// the shape produced by the Fabrikant game's reduction (edges already
/// paid for by others open at cost 0).
fn arb_problem_per_facility_costs() -> impl Strategy<Value = FacilityProblem> {
    (1usize..=6, 1usize..=6).prop_flat_map(|(nf, nc)| {
        (
            proptest::collection::vec(prop_oneof![Just(0.0f64), 0.0f64..6.0], nf..=nf),
            proptest::collection::vec(proptest::collection::vec(0.0f64..10.0, nc..=nc), nf..=nf),
        )
            .prop_map(|(costs, rows)| FacilityProblem::new(costs, rows).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn exact_solvers_agree_with_free_facilities(p in arb_problem_per_facility_costs()) {
        let e = solve_enumeration(&p).unwrap();
        let b = solve_branch_and_bound(&p);
        prop_assert!((e.cost - b.cost).abs() <= 1e-9 * (1.0 + e.cost.abs()),
            "enum={} bb={}", e.cost, b.cost);
    }

    #[test]
    fn free_facilities_do_not_hurt(p in arb_problem_per_facility_costs()) {
        // Opening every zero-cost facility on top of the optimum can only
        // tie or improve; the optimum must therefore already account for
        // them (cost <= cost of optimum-with-frees).
        let opt = solve_enumeration(&p).unwrap();
        let mut with_free: Vec<usize> = opt.open.clone();
        for f in 0..p.facility_count() {
            if p.open_cost(f) == 0.0 && !with_free.contains(&f) {
                with_free.push(f);
            }
        }
        prop_assert!(p.cost_of(&with_free) >= opt.cost - 1e-9);
        // And heuristics remain bounded.
        let g = solve_greedy(&p);
        let l = solve_local_search(&p, None);
        prop_assert!(g.cost >= opt.cost - 1e-9);
        prop_assert!(l.cost >= opt.cost - 1e-9);
    }
}
