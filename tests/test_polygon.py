import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosssec import FabricationParams, forward_geometry, polygon
from crosssec.errors import DegeneratePolygon
from crosssec.geometry import cross_section_outline
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

    def test_shallow_arc_gets_two_chords(self):
        # one chord is within tolerance here, but closes on itself
        pts = arc_points(0.0, 0.0, 1.0, -0.01, 0.01, 1e-3)
        assert len(pts) == 3
        assert Polygon(pts).area() > 0

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


def reference_arc_points(cx, cy, radius, start, end, n) -> np.ndarray:
    """Reference: n chords through np.linspace and np.column_stack."""
    t = np.linspace(start, end, n + 1)
    return np.column_stack((cx + radius * np.cos(t), cy + radius * np.sin(t)))


def hexes(points) -> list[str]:
    return [float(v).hex() for v in np.ravel(points)]


class TestArcPointsBitForBit:
    # arc_points takes np.linspace's steps and writes cos and sin in
    # place; every vertex is bit for bit that of the reference

    @staticmethod
    def check(cx, cy, radius, start, end, tol) -> np.ndarray:
        pts = arc_points(cx, cy, radius, start, end, tol)
        want = reference_arc_points(cx, cy, radius, start, end, len(pts) - 1)
        assert pts.shape == want.shape
        assert hexes(pts) == hexes(want)
        return pts

    def test_seeded_arcs(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            cx, cy = rng.uniform(-1e3, 1e3, 2)
            radius = 10.0 ** rng.uniform(-6, 6)
            start = rng.uniform(-10.0, 10.0)
            end = start + rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 2.0 * math.pi)
            self.check(cx, cy, radius, start, end,
                       radius * 10.0 ** rng.uniform(-8, 1))

    @pytest.mark.parametrize("start, end", [
        (-0.01, 0.01), (0.01, -0.01), (0.3, 0.3), (0.0, 5e-324),
        (-5e-324, 0.0), (1.0, 1.0 + 2.0**-52)])
    def test_two_chord_floor(self, start, end):
        assert len(self.check(1.5, -2.0, 3.0, start, end, 1e-3)) == 3

    @pytest.mark.parametrize("start, end", [
        (2.5, -1.0), (math.pi + 1.2, math.pi - 1.2), (7.0, -7.0)])
    def test_descending_spans(self, start, end):
        pts = self.check(4.0, 1.0, 2.0, start, end, 1e-4)
        assert len(pts) > 3

    @pytest.mark.parametrize("start, end", [
        (-math.pi, math.pi), (0.0, 2.0 * math.pi), (math.pi, -math.pi)])
    def test_full_circle(self, start, end):
        self.check(3.0, 0.0, 2.0, start, end, 1e-4)

    @pytest.mark.parametrize("cx, cy", [(-7.25, -3.5), (-1e6, 0.0), (-0.0, -0.0)])
    def test_negative_centers(self, cx, cy):
        self.check(cx, cy, 1.25, 2.0, 4.5, 1e-5)

    def test_fine_sampling(self):
        # about 10**5 chords on a full circle
        pts = self.check(-2.0, 0.5, 1.0, -math.pi, math.pi, 5e-10)
        assert 90_000 < len(pts) < 110_000


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

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value, column):
        points = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        points[1, column] = value
        with pytest.raises(ValueError, match="polygon vertices must be finite"):
            Polygon(points)

    def test_empty_needs_three_vertices(self):
        with pytest.raises(ValueError, match="at least 3"):
            Polygon(np.empty((0, 2)))

    def test_all_zero_triangle_has_zero_area(self):
        # three vertices at the origin and the closing repeat of the first
        poly = Polygon(np.zeros((4, 2)))
        assert len(poly) == 3
        assert poly.signed_area() == 0.0
        assert poly.area() == 0.0

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


class TestHugeCoordinates:
    SQUARE = [(1e308, 1e308), (-1e308, 1e308), (-1e308, -1e308), (1e308, -1e308)]

    def test_overflowing_area_refused_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegeneratePolygon, match="overflows"):
                Polygon(self.SQUARE).signed_area()

    def test_is_simple_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Polygon(self.SQUARE).is_simple()

    def test_large_finite_area_kept(self):
        square = Polygon([(1e150, 1e150), (-1e150, 1e150), (-1e150, -1e150),
                          (1e150, -1e150)])
        assert square.signed_area() == pytest.approx(4e300, rel=1e-15)


class TestFarFromTheOrigin:
    # a small outline far from the origin, or a tiny or huge one: the
    # shoelace and the orientation tests run on the vertices scaled into
    # [-1, 1], the shoelace also shifted to put the first at the origin
    @staticmethod
    def shifted(points, offset, scale=1.0):
        return Polygon([(offset + scale * x, offset + scale * y)
                        for x, y in points])

    @pytest.mark.parametrize("offset", [1e9, 1e12, 1e15])
    def test_unit_triangle_area(self, offset):
        tri = self.shifted([(0, 0), (1, 0), (0, 1)], offset)
        assert tri.signed_area() == 0.5

    def test_large_area_at_large_offset_kept(self):
        # products of the raw coordinates would overflow at 1e320
        tri = self.shifted([(0, 0), (1, 0), (0, 1)], 1e160, 1e151)
        assert tri.signed_area() == pytest.approx(5e301, rel=1e-6)

    def test_thin_outline_of_huge_extent_kept(self):
        # its shoelace products overflow at any shift, its area does not
        top = 1e155 + 1e145
        thin = Polygon([(0, 0), (1e155, 1e155), (1e155, top)])
        assert thin.signed_area() == pytest.approx(
            0.5 * 1e155 * (top - 1e155), rel=1e-5)

    # a bowtie: edges (0, 1)-(3, 2) and (1, 3)-(2, 0) cross at (1.5, 1.5)
    BOWTIE = [(0, 1), (3, 2), (1, 3), (2, 0)]

    @pytest.mark.parametrize("offset, scale", [
        (0.0, 1.0), (1e300, 1e290), (-1e300, 1e290), (0.0, 1e300),
        (0.0, 1e-300), (1e-290, 1e-300), (0.0, 5e-324)])
    def test_bowtie_found_at_any_offset_and_size(self, offset, scale):
        # at 1e290 the orientations were inf - inf = NaN, and at 1e-300
        # their products underflowed to 0: both read as "no crossing"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not self.shifted(self.BOWTIE, offset, scale).is_simple()

    @pytest.mark.parametrize("offset, scale", [
        (1e300, 1e290), (0.0, 1e300), (0.0, 1e-300)])
    def test_convex_outline_simple_at_any_offset_and_size(self, offset, scale):
        angle = 2.0 * np.pi * np.arange(40) / 40
        ring = np.column_stack((np.cos(angle), np.sin(angle)))
        assert self.shifted(ring, offset, scale).is_simple()


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
        # tiny pieces split the edges of one offset step between pieces
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

    def test_matches_all_pairs_on_section_outlines(self):
        # smooth model outlines of the compare workload's size, whose
        # edges each overlap only the next few in x; half get two
        # consecutive vertices swapped
        rng = np.random.default_rng(24)
        answers = set()
        for trial in range(24):
            s_c = rng.uniform(50.0, 600.0)
            s_s = s_c * rng.uniform(0.6, 1.4)
            section = forward_geometry(FabricationParams(
                s_c, s_s, s_s * rng.uniform(0.0, 0.8)))
            vertices = int(rng.integers(300, 1801))
            points = np.array(cross_section_outline(
                section, section.width * (2.2 / vertices) ** 2).points)
            if trial % 2:
                k = int(rng.integers(len(points)))
                k1 = (k + 1) % len(points)
                points[[k, k1]] = points[[k1, k]]
            poly = Polygon(points)
            simple = poly.is_simple()
            assert simple == all_pairs_is_simple(poly.points)
            answers.add(simple)
        assert answers == {True, False}

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


def reference_signed_area(points) -> float:
    """Reference: the shoelace on the unit-scaled, shifted vertices,
    computed afresh on every call."""
    pts = np.asarray(points, dtype=float)
    e = math.frexp(float(np.max(np.abs(pts))))[1]
    pts = np.ldexp(pts, -e)
    pts = pts - pts[0]
    x = pts[:, 0]
    y = pts[:, 1]
    return math.ldexp(0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])),
                      2 * e)


def section_like_outline(rng) -> np.ndarray:
    """Four circular arcs, side-top-side-bottom, like a three-channel
    section's outline, at a random size and sampling."""
    r_c, r_s = rng.uniform(0.5, 1.5), rng.uniform(0.3, 1.0)
    half_c, half_s = rng.uniform(0.3, 1.4), rng.uniform(1.6, 2.8)
    cx = rng.uniform(0.5, 1.5)
    tol = 10.0 ** rng.uniform(-5, -2)
    arcs = [(cx, r_s, -half_s, half_s), (0.0, r_c, 0.5 * np.pi - half_c,
                                         0.5 * np.pi + half_c),
            (-cx, r_s, np.pi - half_s, np.pi + half_s),
            (0.0, r_c, 1.5 * np.pi - half_c, 1.5 * np.pi + half_c)]
    return np.vstack([arc_points(x, 0.0, r, start, end, tol)[:-1]
                      for x, r, start, end in arcs])


class TestKeptFrame:
    # the unit-scaled frame and the shoelace are computed once per
    # Polygon and kept; every answer equals that of a fresh computation
    OCTAGON = [(50.0 * math.cos(t), 50.0 * math.sin(t))
               for t in np.arange(8) * np.pi / 4]

    @pytest.mark.parametrize("clockwise, computed", [(False, 1), (True, 2)])
    def test_compare_measures_the_outline_once(self, tmp_path, capsys,
                                               clockwise, computed):
        # a clockwise file is measured again as its reversed copy
        from crosssec import cli
        rows = self.OCTAGON[::-1] if clockwise else self.OCTAGON
        path = tmp_path / "outline.csv"
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in rows),
                        encoding="utf-8")
        with mock.patch.object(polygon, "_unit_frame",
                               wraps=polygon._unit_frame) as frame, \
                mock.patch.object(polygon, "_shoelace",
                                  wraps=polygon._shoelace) as shoelace:
            code = cli.main(["compare", "--outline", str(path),
                             "--sc", "152", "--ss", "127", "--l", "76.2"])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert '"area_ratio"' in out
        # the model's sampled side channels have far more than 8 vertices
        for helper in (frame, shoelace):
            sizes = [len(call.args[0]) for call in helper.call_args_list]
            assert sizes.count(len(self.OCTAGON)) == computed

    @pytest.mark.parametrize("points", [
        OCTAGON, OCTAGON[::-1], [(0, 0), (2, 2), (2, 0), (0, 2)],
        [(1e308, 1e308), (-1e308, 1e308), (-1e308, -1e308), (1e308, -1e308)],
    ])
    def test_repeated_calls_match_a_fresh_polygon(self, points):
        kept = Polygon(points)

        def answers(poly):
            try:
                area = poly.signed_area(), poly.area()
            except DegeneratePolygon as exc:
                area = str(exc)
            return area, poly.is_simple()

        first = answers(kept)
        assert answers(kept) == first
        assert answers(kept) == answers(Polygon(points))

    def test_points_cannot_be_rebound(self):
        poly = Polygon(self.OCTAGON)
        with pytest.raises(AttributeError):
            poly.points = np.zeros((3, 2))

    def test_signed_area_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(14)
        for trial in range(2000):
            points = section_like_outline(rng)
            if trial % 2:
                points = points[::-1]
            scale = 10.0 ** rng.uniform(-6, 6)
            offset = 0.0 if trial % 5 == 0 else 10.0 ** rng.uniform(0, 12)
            poly = Polygon(offset + scale * points)
            expected = reference_signed_area(poly.points)
            assert poly.signed_area().hex() == expected.hex()
            assert poly.signed_area().hex() == expected.hex()
