import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosssec import polygon
from crosssec.polygon import MAX_ARC_SEGMENTS, Polygon, arc_points


class TestArcPoints:
    def test_endpoints_exact_radius(self):
        pts = arc_points(1.0, 2.0, 5.0, 0.3, 2.1, 1e-3)
        assert pts[0] == pytest.approx([1.0 + 5.0 * math.cos(0.3),
                                        2.0 + 5.0 * math.sin(0.3)])
        assert pts[-1] == pytest.approx([1.0 + 5.0 * math.cos(2.1),
                                         2.0 + 5.0 * math.sin(2.1)])
        radii = np.hypot(pts[:, 0] - 1.0, pts[:, 1] - 2.0)
        assert np.allclose(radii, 5.0, rtol=0, atol=1e-12)

    def test_sagitta_bound_holds(self):
        tol = 1e-3
        pts = arc_points(0.0, 0.0, 40.0, -1.0, 2.5, tol)
        mids = 0.5 * (pts[:-1] + pts[1:])
        sagitta = 40.0 - np.hypot(mids[:, 0], mids[:, 1])
        assert np.all(sagitta <= tol * (1 + 1e-12))
        assert np.all(sagitta > 0)

    def test_coarse_tolerance_still_samples(self):
        # floor of one segment per 60 degrees even when tol > radius
        pts = arc_points(0.0, 0.0, 1.0, 0.0, 2.0 * math.pi, 100.0)
        assert len(pts) >= 7

    def test_full_circle_closes(self):
        pts = arc_points(3.0, 0.0, 2.0, -math.pi, math.pi, 1e-4)
        assert pts[0] == pytest.approx(pts[-1], abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="radius"):
            arc_points(0, 0, 0.0, 0, 1, 1e-3)
        with pytest.raises(ValueError, match="max_sagitta"):
            arc_points(0, 0, 1.0, 0, 1, 0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="max_sagitta must be positive and finite"):
            arc_points(0, 0, 1.0, 0, 1, tol)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            arc_points(0, 0, radius, 0, 1, 1e-3)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError, match="angles must be finite"):
            arc_points(0, 0, 1.0, 0, math.inf, 1e-3)

    @pytest.mark.parametrize("tol", [1e-300, 1e-14])
    def test_too_fine_tolerance_rejected(self, tol):
        # 1e-300 underflows the chord angle to 0; 1e-14 would need ~1e8 chords
        with pytest.raises(ValueError, match=f"more than {MAX_ARC_SEGMENTS} segments"):
            arc_points(0, 0, 50.0, 0, 2 * math.pi, tol)

    def test_huge_span_rejected(self):
        # the 60-degree floor alone would ask for ~1e12 segments
        with pytest.raises(ValueError, match="segments"):
            arc_points(0, 0, 1.0, 0, 1e12, 100.0)


class TestPolygon:
    def test_square_area(self):
        square = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert square.signed_area() == pytest.approx(4.0)
        assert square.area() == pytest.approx(4.0)
        assert square.is_simple()

    def test_clockwise_negative(self):
        square = Polygon([(0, 0), (0, 2), (2, 2), (2, 0)])
        assert square.signed_area() == pytest.approx(-4.0)
        assert square.area() == pytest.approx(4.0)

    def test_closing_vertex_dropped(self):
        poly = Polygon([(0, 0), (1, 0), (0, 1), (0, 0)])
        assert len(poly) == 3

    def test_too_few_vertices(self):
        with pytest.raises(ValueError, match="at least 3"):
            Polygon([(0, 0), (1, 0), (0, 0)])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Polygon([(0, 0), (1, math.nan), (0, 1)])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            Polygon([(0, 0, 0), (1, 0, 0), (0, 1, 0)])

    def test_vertices_read_only(self):
        poly = Polygon([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ValueError):
            poly.points[0, 0] = 5.0

    def test_iteration(self):
        poly = Polygon([(0, 0), (1, 0), (0, 1)])
        assert [tuple(p) for p in poly] == [(0, 0), (1, 0), (0, 1)]

    def test_bowtie_not_simple(self):
        bowtie = Polygon([(0, 0), (2, 2), (2, 0), (0, 2)])
        assert not bowtie.is_simple()

    def test_touching_vertex_is_simple(self):
        # two triangles sharing one vertex: a pinch, not a crossing
        pinch = Polygon([(0, 0), (1, 1), (2, 0), (1, 1), (0, 2), (-1, 0)])
        assert pinch.is_simple()

    def test_circle_area_converges(self):
        tol = 1e-5
        poly = Polygon(arc_points(0, 0, 10.0, 0, 2 * math.pi, tol))
        exact = math.pi * 100.0
        assert abs(poly.area() - exact) / exact < 1e-5
        assert poly.area() < exact  # inscribed


def all_pairs_is_simple(points) -> bool:
    """Reference: the strict-sign crossing test on every ordered edge pair."""
    a = np.asarray(points, dtype=float)
    b = np.roll(a, -1, axis=0)

    def cross(o, p, q):
        return ((p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1])
                - (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0]))

    ai, bi = a[:, None], b[:, None]
    aj, bj = a[None], b[None]
    hit = ((cross(ai, bi, aj) * cross(ai, bi, bj) < 0.0)
           & (cross(aj, bj, ai) * cross(aj, bj, bi) < 0.0))
    return not hit.any()


def zigzag_band(teeth: int, offset: float = 0.5) -> np.ndarray:
    """Closed band between a zig-zag and its copy shifted right by offset.

    Every edge spans (nearly) the whole x-range, so all ~n^2/2 edge pairs
    overlap in x: the worst case for a sweep over x-extents.
    """
    y = np.arange(teeth + 1, dtype=float)
    x = (np.arange(teeth + 1) % 2).astype(float)
    return np.vstack((np.column_stack((x, y)),
                      np.column_stack((x + offset, y))[::-1]))


# Coordinates on a dyadic grid keep every orientation product exact, so
# the sweep and the reference must agree bit for bit: the sweep's pruning
# only drops pairs whose bounding boxes miss, which cannot cross.
_dyadic = st.integers(-2**20, 2**20).map(lambda v: v / 1024.0)
_small_int = st.integers(-3, 3).map(float)


def _polygons(coord, max_size):
    return st.lists(st.tuples(coord, coord), min_size=3, max_size=max_size)


def _polygon_or_none(points):
    try:
        return Polygon(points)
    except ValueError:  # fewer than 3 vertices once the closing one drops
        return None


class TestIsSimpleSweep:
    @settings(max_examples=300, deadline=None)
    @given(_polygons(_dyadic, 40))
    def test_matches_all_pairs_on_random_polygons(self, points):
        poly = _polygon_or_none(points)
        if poly is not None:
            assert poly.is_simple() == all_pairs_is_simple(poly.points)

    @settings(max_examples=500, deadline=None)
    @given(_polygons(_small_int, 16))
    def test_matches_all_pairs_on_grid_polygons(self, points):
        # a 7x7 grid forces collinear overlapping edges, repeated and
        # shared vertices, vertical edges and equal x-extents
        poly = _polygon_or_none(points)
        if poly is not None:
            assert poly.is_simple() == all_pairs_is_simple(poly.points)

    @settings(max_examples=200, deadline=None)
    @given(_polygons(_small_int, 16), st.integers(1, 5))
    def test_matches_all_pairs_across_chunk_boundaries(self, points, chunk):
        # tiny chunks split rows of candidate pairs between chunks
        poly = _polygon_or_none(points)
        if poly is not None:
            with mock.patch.object(polygon, "_PAIR_CHUNK", chunk):
                assert poly.is_simple() == all_pairs_is_simple(poly.points)

    def test_matches_all_pairs_on_seeded_float_polygons(self):
        rng = np.random.default_rng(7)
        for trial in range(600):
            n = int(rng.integers(3, 40))
            if trial % 2:
                points = rng.normal(size=(n, 2))
            else:  # star-shaped: sorted angles, random radii
                angle = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
                radius = rng.uniform(0.2, 1.0, n)
                points = np.column_stack((radius * np.cos(angle),
                                          radius * np.sin(angle)))
            poly = Polygon(points)
            assert poly.is_simple() == all_pairs_is_simple(poly.points)

    @pytest.mark.parametrize("where", ["first", "middle", "last", "wrap"])
    def test_bowtie_anywhere_is_found(self, where):
        # swapping two consecutive vertices of a convex polygon makes the
        # edges either side of them cross
        n = 400
        angle = 2.0 * np.pi * np.arange(n) / n
        points = 10.0 * np.column_stack((np.cos(angle), np.sin(angle)))
        k = {"first": 0, "middle": n // 2, "last": n - 2, "wrap": n - 1}[where]
        k1 = (k + 1) % n
        assert Polygon(points).is_simple()
        points[[k, k1]] = points[[k1, k]]
        assert not Polygon(points).is_simple()

    def test_t_junction_and_collinear_overlap_are_simple(self):
        # a vertex resting on another edge's interior, then running back
        # along it: touching, never a proper crossing
        t_junction = Polygon([(0, 0), (4, 0), (4, 3), (2, 0), (0, 3)])
        assert t_junction.is_simple()
        overlap = Polygon([(0, 0), (4, 0), (4, 2), (3, 0), (1, 0), (0, 2)])
        assert overlap.is_simple()

    def test_adversarial_zigzag_bounded_memory(self):
        points = zigzag_band(10_000)
        assert len(points) >= 20_000
        poly = Polygon(points)
        tracemalloc.start()
        try:
            simple = poly.is_simple()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert simple
        assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"

    def test_adversarial_zigzag_crossing_found(self):
        points = zigzag_band(1000)
        assert Polygon(points).is_simple()
        k = 1500  # a vertex of the shifted copy, moved onto the far side
        points[k, 0] -= 2.0
        assert not Polygon(points).is_simple()
        assert not all_pairs_is_simple(points)
