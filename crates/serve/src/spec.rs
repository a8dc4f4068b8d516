//! Building games from typed [`GameSpec`]s.
//!
//! Structural validation (shapes, "exactly one geometry", sparse-needs-
//! line) lives in the codecs — [`sp_wire::json::parse_game_spec`] and
//! the binary decoder — which is why this module receives a typed spec,
//! not a JSON object. What stays here is *semantic* validation, the
//! part only game construction can decide: matrix squareness and
//! symmetry, metric axioms, link bounds. Failures carry
//! [`ErrorCode::BadSpec`] with the historical messages.
//!
//! An explicit `matrix` is outside input, so it is also checked against
//! the triangle inequality ([`Game::check_triangle_inequality`], `O(n³)`,
//! within `sp_core::METRIC_TRIANGLE_TOLERANCE`): the engine's cached
//! best-response oracles use metric distances as lower bounds on path
//! lengths, which only holds for a metric. Line and point geometries are
//! metric by construction and skip the check.
//!
//! Dense mode stores line geometries as a precomputed matrix (the
//! historical, bit-identically accounted representation); sparse mode
//! keeps the positions themselves so the game's metric store stays
//! `O(n)` (see `sp_core::backend` — sparse requires the line geometry,
//! which both codecs already enforce, and this builder re-checks).

use sp_core::{BackendMode, Game, StrategyProfile};
use sp_graph::DistanceMatrix;
use sp_metric::{Euclidean2D, LineSpace, Point2};

use crate::wire::{ErrorCode, GameSpec, Geometry, WireError};

fn bad(message: String) -> WireError {
    WireError::new(ErrorCode::BadSpec, message)
}

/// Builds the game and initial profile described by a typed spec.
///
/// # Errors
///
/// Returns a [`ErrorCode::BadSpec`] error when the geometry is
/// semantically invalid (non-square or asymmetric matrix, a matrix that
/// breaks the triangle inequality, bad metric, out-of-bounds links) or
/// when sparse mode is asked for without a line geometry.
pub fn build(spec: &GameSpec) -> Result<(Game, StrategyProfile), WireError> {
    if spec.mode == BackendMode::Sparse && !matches!(spec.geometry, Geometry::Line(_)) {
        return Err(bad(
            "sparse mode requires a positions_1d geometry".to_owned()
        ));
    }
    let game = match &spec.geometry {
        Geometry::Line(positions) => {
            if spec.mode == BackendMode::Sparse {
                Game::from_line_positions(positions.clone(), spec.alpha)
                    .map_err(|e| bad(e.to_string()))?
            } else {
                let space = LineSpace::new(positions.clone()).map_err(|e| bad(e.to_string()))?;
                Game::from_space(&space, spec.alpha).map_err(|e| bad(e.to_string()))?
            }
        }
        Geometry::Points2D(points) => {
            let pts: Vec<Point2> = points.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let space = Euclidean2D::new(pts).map_err(|e| bad(e.to_string()))?;
            Game::from_space(&space, spec.alpha).map_err(|e| bad(e.to_string()))?
        }
        Geometry::Matrix(rows) => {
            let n = rows.len();
            // sp-lint: allow(dense-alloc, reason = "decoding an explicit dense matrix spec; sparse mode requires positions_1d and never reaches this arm")
            let mut flat = Vec::with_capacity(n * n);
            for row in rows {
                if row.len() != n {
                    return Err(bad(format!(
                        "matrix must be square: row of {} in a {n}x{n} matrix",
                        row.len()
                    )));
                }
                flat.extend_from_slice(row);
            }
            let m = DistanceMatrix::from_row_major(n, flat).map_err(|e| bad(e.to_string()))?;
            let game = Game::new(m, spec.alpha).map_err(|e| bad(e.to_string()))?;
            game.check_triangle_inequality()
                .map_err(|e| bad(e.to_string()))?;
            game
        }
    };

    let profile = if spec.links.is_empty() {
        StrategyProfile::empty(game.n())
    } else {
        StrategyProfile::from_links(game.n(), &spec.links).map_err(|e| bad(e.to_string()))?
    };
    Ok((game, profile))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_spec(positions: Vec<f64>, mode: BackendMode) -> GameSpec {
        GameSpec {
            alpha: 1.0,
            geometry: Geometry::Line(positions),
            links: Vec::new(),
            mode,
        }
    }

    #[test]
    fn builds_each_geometry() {
        let (g, p) = build(&line_spec(vec![0.0, 1.0, 3.0], BackendMode::Dense)).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(p.link_count(), 0);

        let (g, p) = build(&GameSpec {
            alpha: 2.0,
            geometry: Geometry::Points2D(vec![(0.0, 0.0), (3.0, 4.0)]),
            links: vec![(0, 1)],
            mode: BackendMode::Dense,
        })
        .unwrap();
        assert_eq!(g.distance(0, 1), 5.0);
        assert_eq!(p.link_count(), 1);

        let (g, _) = build(&GameSpec {
            alpha: 1.0,
            geometry: Geometry::Matrix(vec![vec![0.0, 2.0], vec![2.0, 0.0]]),
            links: Vec::new(),
            mode: BackendMode::Dense,
        })
        .unwrap();
        assert_eq!(g.distance(1, 0), 2.0);
    }

    #[test]
    fn sparse_mode_keeps_the_line_metric_implicit() {
        let (g, _) = build(&line_spec(vec![0.0, 1.0, 3.0, 7.0], BackendMode::Sparse)).unwrap();
        assert!(g.line_positions().is_some(), "sparse must keep O(n) store");
        assert_eq!(g.distance(0, 3), 7.0);

        // Dense line specs keep the historical matrix store (and its
        // historical byte accounting in the registry).
        let (g, _) = build(&line_spec(vec![0.0, 1.0], BackendMode::Dense)).unwrap();
        assert!(g.line_positions().is_none());

        // Sparse needs a line geometry even if a caller bypasses the
        // codec-level check by constructing the spec directly.
        let e = build(&GameSpec {
            alpha: 1.0,
            geometry: Geometry::Matrix(vec![vec![0.0, 1.0], vec![1.0, 0.0]]),
            links: Vec::new(),
            mode: BackendMode::Sparse,
        })
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadSpec);
    }

    #[test]
    fn rejects_bad_specs_semantically() {
        let e = build(&GameSpec {
            alpha: 1.0,
            geometry: Geometry::Matrix(vec![vec![0.0, 1.0]]),
            links: Vec::new(),
            mode: BackendMode::Dense,
        })
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadSpec);
        assert!(e.message.contains("square"), "{e}");

        let e = build(&GameSpec {
            alpha: 1.0,
            geometry: Geometry::Line(vec![0.0, 1.0]),
            links: vec![(0, 5)],
            mode: BackendMode::Dense,
        })
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadSpec);
    }

    #[test]
    fn rejects_a_non_metric_matrix() {
        // d(0, 2) = 10 > d(0, 1) + d(1, 2) = 2: symmetric, positive,
        // zero diagonal — everything `Game::new` checks — but no metric.
        let e = build(&GameSpec {
            alpha: 1.0,
            geometry: Geometry::Matrix(vec![
                vec![0.0, 1.0, 10.0],
                vec![1.0, 0.0, 1.0],
                vec![10.0, 1.0, 0.0],
            ]),
            links: Vec::new(),
            mode: BackendMode::Dense,
        })
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadSpec);
        assert!(e.message.contains("triangle"), "{e}");

        // Tight triangles (a collinear matrix) are metric and accepted.
        build(&GameSpec {
            alpha: 1.0,
            geometry: Geometry::Matrix(vec![
                vec![0.0, 1.0, 2.0],
                vec![1.0, 0.0, 1.0],
                vec![2.0, 1.0, 0.0],
            ]),
            links: Vec::new(),
            mode: BackendMode::Dense,
        })
        .unwrap();
    }
}
