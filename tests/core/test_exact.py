"""Tests for the exact robust-layer solvers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.exact import (
    exact_robust_layers,
    minimal_rank,
    minimal_rank_sampled,
)
from repro.queries.ranking import LinearQuery

from ..conftest import points_strategy


def sampled_upper_bounds(pts, **kw):
    return np.array(
        [minimal_rank_sampled(pts, t, **kw) for t in range(pts.shape[0])]
    )


def crossing_aware_upper_bounds_2d(pts):
    """Sampled ranks at every pairwise crossing lam and the midpoints
    between consecutive crossings — the only places a d=2 minimal rank
    can live, so this reference finds optima that sit on arbitrarily
    narrow intervals a uniform grid would skip."""
    n = pts.shape[0]
    lams = {0.0, 0.5, 1.0}
    for i in range(n):
        for j in range(i + 1, n):
            d = pts[j] - pts[i]
            if (d[0] < 0 < d[1]) or (d[1] < 0 < d[0]):
                lams.add(float(d[1] / (d[1] - d[0])))
    lams = np.array(sorted(lams))
    cand = np.concatenate([lams, (lams[1:] + lams[:-1]) / 2.0])
    scores = pts @ np.column_stack([cand, 1.0 - cand]).T  # (n, q)
    best = np.full(n, n, dtype=np.intp)
    tids = np.arange(n)
    for q in range(scores.shape[1]):
        s = scores[:, q]
        order = np.lexsort((tids, s))
        pos = np.empty(n, dtype=np.intp)
        pos[order] = tids
        np.minimum(best, pos, out=best)
    return best + 1


#: Nine generic points where the 600-weight sample of
#: ``test_sandwiched_by_sampling`` finds the exact layer of only 7/9
#: tuples (it reports tids 1 and 6 at 2 instead of 1).  The exact layers
#: ``[1, 1, 1, 6, 1, 1, 1, 1, 2]`` are right: two million Dirichlet
#: weights reach every one of them.
PINNED_9_POINTS = np.array([
    [0.2570720332796803, 0.21311126435581296, 0.5227691139561341],
    [0.18136612521302242, 0.4085138810570379, 0.5883770040995555],
    [0.024877970825269102, 0.8245234995353675, 0.44558137791637376],
    [0.3947129595912844, 0.944566242912603, 0.6258189753869222],
    [0.5503977147117856, 0.26577166140777553, 0.24299654877765453],
    [0.21721800704830507, 0.7432976794332156, 0.22977706860926683],
    [0.9959604216609506, 0.6464799217039966, 0.22999068889802787],
    [0.40869526825976354, 0.030378903413859404, 0.5367180706026287],
    [0.07447960129107911, 0.8239839612021971, 0.7620587701397603],
])


def arrangement_minimal_ranks_3d(pts, tie_tol=1e-12):
    """Minimal rank of every tuple over the closed weight simplex (d=3).

    A tuple's rank is constant on each cell of the arrangement of its
    n - 1 tie lines ``w . (s - t) = 0`` inside the simplex, so its
    minimum over all weights is attained at one of the arrangement's
    vertices or inside one of its cells.  This scores t at every vertex
    (ties within ``tie_tol`` broken by tid) and at one point inside
    every cell, and returns the smallest rank seen: every minimal rank,
    not an upper bound.  Assumes generic data (no two tuples' tie lines
    coincide).
    """
    n = pts.shape[0]
    tids = np.arange(n)
    # Simplex coordinates (x, y) -> w = (x, y, 1 - x - y); the triangle
    # is x >= 0, y >= 0, x + y <= 1, its sides the last three lines.
    sides = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, -1.0]])
    best = np.full(n, n, dtype=np.intp)
    for t in range(n):
        d = np.delete(pts, t, axis=0) - pts[t]
        # w . (s - t) = a x + b y + c
        a, b, c = np.vstack([
            np.column_stack([d[:, 0] - d[:, 2], d[:, 1] - d[:, 2], d[:, 2]]),
            sides,
        ]).T
        i, j = np.triu_indices(a.size, 1)
        det = a[i] * b[j] - a[j] * b[i]
        crossing = np.abs(det) > 1e-15
        i, j, det = i[crossing], j[crossing], det[crossing]
        xs = (b[i] * c[j] - b[j] * c[i]) / det
        ys = (a[j] * c[i] - a[i] * c[j]) / det
        inside = (xs >= -1e-12) & (ys >= -1e-12) & (xs + ys <= 1 + 1e-12)
        xs, ys = xs[inside], ys[inside]
        probes = [np.column_stack([xs, ys])]
        # No vertex lies strictly between consecutive vertex abscissae,
        # so on the vertical line half-way between two of them the
        # lines cross in a fixed order, and each gap between crossings
        # lies inside one cell.  Every cell spans such a line.
        cuts = np.unique(np.clip(xs, 0.0, 1.0))
        slanted = np.abs(b) > 1e-15
        for x in (cuts[1:] + cuts[:-1]) / 2.0:
            ys_at_x = -(a[slanted] * x + c[slanted]) / b[slanted]
            ys_at_x = np.unique(np.clip(ys_at_x, 0.0, 1.0 - x))
            probes.append(np.column_stack([
                np.full(ys_at_x.size - 1, x),
                (ys_at_x[1:] + ys_at_x[:-1]) / 2.0,
            ]))
        xy = np.vstack(probes)
        weights = np.column_stack([xy, 1.0 - xy.sum(axis=1)])
        gap = pts @ weights.T - pts[t] @ weights.T
        tied = np.abs(gap) <= tie_tol
        before = (gap < 0) & ~tied | tied & (tids < t)[:, None]
        best[t] = 1 + int(before.sum(axis=0).min())
    return best


class TestOneDimension:
    def test_full_ranking(self):
        pts = np.array([[3.0], [1.0], [2.0]])
        assert exact_robust_layers(pts).tolist() == [3, 1, 2]

    def test_ties_broken_by_tid(self):
        pts = np.array([[1.0], [1.0]])
        assert exact_robust_layers(pts).tolist() == [1, 2]

    def test_minimal_rank_matches(self):
        pts = np.array([[3.0], [1.0], [2.0]])
        assert minimal_rank(pts, 0) == 3


class TestTwoDimensions:
    def test_single_point(self):
        assert exact_robust_layers(np.array([[0.3, 0.7]])).tolist() == [1]

    def test_skyline_of_two(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert exact_robust_layers(pts).tolist() == [1, 1]

    def test_dominated_point_is_layer_two(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert exact_robust_layers(pts).tolist() == [1, 2]

    def test_convexly_dominated_point(self):
        # (1,1) sits above the segment from (0, 1.5) to (1.5, 0): some
        # convex combination dominates it, so it is never top-1.
        pts = np.array([[0.0, 1.5], [1.5, 0.0], [1.0, 1.0]])
        layers = exact_robust_layers(pts)
        assert layers.tolist() == [1, 1, 2]

    def test_point_on_hull_but_inside_staircase(self):
        # (0.9, 0.9) is dominated by (0.1, 0.1), and under any weights
        # one of the two corners also precedes it: minimal rank 3.
        pts = np.array([[0.1, 0.1], [0.9, 0.9], [0.0, 1.0], [1.0, 0.0]])
        layers = exact_robust_layers(pts)
        assert layers[1] == 3
        assert layers[0] == 1

    @given(points_strategy(min_rows=2, max_rows=35, min_dims=2, max_dims=2))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_sampling(self, pts):
        exact = exact_robust_layers(pts)
        ub = np.minimum(
            sampled_upper_bounds(pts, n_samples=300, grid_resolution=64),
            crossing_aware_upper_bounds_2d(pts),
        )
        assert np.all(exact <= ub)
        # With the crossing structure in the sample set the optimum is
        # almost always found (a uniform grid alone can miss minima
        # that live only on arbitrarily narrow inter-event intervals).
        assert (exact == ub).mean() >= 0.9

    def test_tie_exactly_at_event(self):
        # Two points symmetric around t: both cross t's score at the
        # same lambda = 0.5.  At that query t ranks behind only the
        # smaller-tid one of its ties... both others tie with t at 1.5.
        pts = np.array([[1.0, 2.0], [2.0, 1.0], [1.5, 1.5]])
        # At w = (0.5, 0.5) all score 1.5; t = tid 2 ranks 3rd there.
        # Away from the event one of the others always beats t.
        assert minimal_rank(pts, 2) == 2
        assert minimal_rank(pts, 0) == 1
        assert minimal_rank(pts, 1) == 1

    def test_duplicate_points_rank_by_tid(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert exact_robust_layers(pts).tolist() == [1, 2]


class TestThreeDimensions:
    def test_small_known_case(self):
        pts = np.array(
            [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.2, 0.9]]
        )
        layers = exact_robust_layers(pts)
        assert layers[0] == 1  # dominates everything
        assert layers[1] == 3  # dominated by both
        assert layers[2] == 2

    @example(PINNED_9_POINTS)
    @given(points_strategy(min_rows=2, max_rows=25, min_dims=3, max_dims=3))
    @settings(max_examples=15, deadline=None)
    def test_sandwiched_by_sampling(self, pts):
        exact = exact_robust_layers(pts)
        ub = sampled_upper_bounds(pts, n_samples=600, grid_resolution=20)
        assert np.all(exact <= ub)
        # A finite sample can miss a minimum that lives only in a small
        # cell, so the sample bounds from above and the arrangement
        # reference decides.
        assert np.array_equal(exact, arrangement_minimal_ranks_3d(pts))

    def test_corner_queries_covered(self):
        # The minimum over the *closed* simplex includes corner
        # queries w = e_i; a tuple best on one attribute only must
        # still get layer 1.
        pts = np.array(
            [[0.0, 0.9, 0.9], [0.9, 0.0, 0.9], [0.9, 0.9, 0.0],
             [0.5, 0.5, 0.5]]
        )
        layers = exact_robust_layers(pts)
        assert layers[0] == layers[1] == layers[2] == 1


class TestSoundnessProperty:
    @given(points_strategy(min_rows=2, max_rows=30, min_dims=2, max_dims=3),
           st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_layering_answers_every_query(self, pts, wseed):
        layers = exact_robust_layers(pts)
        rng = np.random.default_rng(wseed)
        w = rng.dirichlet(np.ones(pts.shape[1]))
        q = LinearQuery(w)
        for k in (1, 2, pts.shape[0] // 2 + 1):
            top = q.top_k(pts, k)
            assert np.all(layers[top] <= k)


class TestErrorsAndBounds:
    def test_rejects_high_dimensions(self):
        with pytest.raises(ValueError, match="d <= 3"):
            exact_robust_layers(np.ones((5, 4)))
        with pytest.raises(ValueError):
            minimal_rank(np.ones((5, 4)), 0)

    def test_minimal_rank_bad_tid(self):
        with pytest.raises(IndexError):
            minimal_rank(np.ones((3, 2)), 5)

    def test_rejects_nan_and_inf(self):
        pts = np.ones((4, 2))
        pts[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            exact_robust_layers(pts)
        pts[0, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            minimal_rank(pts, 0)

    def test_empty_relation(self):
        assert exact_robust_layers(np.zeros((0, 2))).size == 0

    def test_sampled_bound_is_valid_rank(self):
        pts = np.random.default_rng(0).random((40, 4))
        for t in (0, 17, 39):
            ub = minimal_rank_sampled(pts, t, n_samples=100)
            assert 1 <= ub <= 40
