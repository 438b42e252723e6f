import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crosssec import kernels
from crosssec._arcmath import center_area
from crosssec.solver import solve_center_arc_angle

BACKENDS = [pytest.param(kernels, id="numpy")]

LO, HI = 1e-6, 2.0 * math.pi - 1e-6

CASES = [(152.0, 76.2), (127.0, 50.8), (1.0, 0.0), (300.0, 10.0), (5.0, 4.9)]

CHUNK = kernels.CHUNK


def _area_grid(arc_length, strip_width, theta):
    # the whole-grid formula the chunked kernel replaced, kept as reference
    base = np.empty_like(theta)
    chord = np.empty_like(theta)
    small = theta < kernels.SERIES_CUTOFF
    t = theta[small]
    base[small] = t / 6.0 - t**3 / 120.0 + t**5 / 5040.0
    chord[small] = 0.5 - t * t / 48.0 + t**4 / 3840.0
    t = theta[~small]
    base[~small] = (t - np.sin(t)) / (t * t)
    chord[~small] = np.sin(0.5 * t) / t
    return arc_length * arc_length * base + 2.0 * arc_length * strip_width * chord


def reference_argmax(arc_length, strip_width, n, lo, hi):
    step = (hi - lo) / (n - 1)
    area = _area_grid(arc_length, strip_width, lo + step * np.arange(n))
    i = int(np.argmax(area))
    return i, lo + step * i, float(area[i])


@pytest.mark.parametrize("backend", BACKENDS)
class TestGridArgmax:
    @pytest.mark.parametrize("arc,strip", CASES)
    def test_argmax_matches_analytic_root(self, backend, arc, strip):
        n = 50_000
        idx, theta, best = backend.center_area_grid_argmax(arc, strip, n, LO, HI)
        step = (HI - LO) / (n - 1)
        root = solve_center_arc_angle(arc, strip)
        assert 0 <= idx < n
        assert theta == LO + step * idx
        assert abs(theta - root) <= step
        assert best == pytest.approx(center_area(arc, strip, theta), rel=1e-12)

    def test_small_grid_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.center_area_grid_argmax(1.0, 0.0, 1, LO, HI)

    def test_grid_includes_endpoints(self, backend):
        # two-point grid: argmax must be one of the endpoints
        idx, theta, _ = backend.center_area_grid_argmax(1.0, 0.0, 2, 1.0, 4.0)
        assert (idx, theta) in {(0, 1.0), (1, 4.0)}


class TestChunkedScan:
    @pytest.mark.parametrize("n", [2, 3, CHUNK - 1, CHUNK, CHUNK + 1,
                                   3 * CHUNK + 7])
    @pytest.mark.parametrize("arc,strip", CASES)
    def test_bit_identical_to_whole_grid(self, arc, strip, n):
        got = kernels.center_area_grid_argmax(arc, strip, n, LO, HI)
        assert got == reference_argmax(arc, strip, n, LO, HI)

    @pytest.mark.parametrize("n", [10_000, 3 * CHUNK + 7])
    @pytest.mark.parametrize("arc,strip", CASES)
    def test_grid_straddling_series_cutoff(self, arc, strip, n):
        lo, hi = 1e-7, 3e-4
        assert lo < kernels.SERIES_CUTOFF < hi
        got = kernels.center_area_grid_argmax(arc, strip, n, lo, hi)
        assert got == reference_argmax(arc, strip, n, lo, hi)

    def test_tie_across_chunk_boundary_keeps_first_index(self, monkeypatch):
        # a step of 1/5 ulp repeats each angle about five times, so the
        # maximum is a run of equal areas; with 10-point chunks that run
        # crosses a chunk boundary
        arc, strip = 152.0, 76.2
        root = solve_center_arc_angle(arc, strip)
        lo = root - 8 * math.ulp(root)
        hi = lo + 16 * math.ulp(root)
        n = 81
        monkeypatch.setattr(kernels, "CHUNK", 10)
        want = reference_argmax(arc, strip, n, lo, hi)
        step = (hi - lo) / (n - 1)
        area = _area_grid(arc, strip, lo + step * np.arange(n))
        ties = np.flatnonzero(area == want[2])
        assert ties[0] == want[0]
        assert ties[0] // 10 < ties[-1] // 10
        assert kernels.center_area_grid_argmax(arc, strip, n, lo, hi) == want

    def test_constant_grid_keeps_first_index(self, monkeypatch):
        monkeypatch.setattr(kernels, "CHUNK", 4)
        assert kernels.center_area_grid_argmax(5.0, 4.9, 19, 2.0, 2.0) == \
            reference_argmax(5.0, 4.9, 19, 2.0, 2.0)

    @settings(max_examples=60, deadline=None)
    @given(arc=st.floats(1e-3, 1e3), strip_share=st.floats(0.0, 1.0),
           n=st.integers(2, 300), lo=st.floats(1e-8, 1.0),
           span=st.floats(0.0, 6.0), chunk=st.sampled_from([1, 7, 64]))
    def test_matches_whole_grid(self, arc, strip_share, n, lo, span, chunk):
        strip = arc * strip_share
        saved = kernels.CHUNK
        kernels.CHUNK = chunk
        try:
            got = kernels.center_area_grid_argmax(arc, strip, n, lo, lo + span)
        finally:
            kernels.CHUNK = saved
        assert got == reference_argmax(arc, strip, n, lo, lo + span)

    def test_memory_does_not_grow_with_grid(self):
        tracemalloc.start()
        try:
            kernels.center_area_grid_argmax(152.0, 76.2, 4_000_000, LO, HI)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_nan_area_wins_like_numpy_argmax(self):
        got = kernels.center_area_grid_argmax(math.nan, 1.0, 10, LO, HI)
        want = reference_argmax(math.nan, 1.0, 10, LO, HI)
        assert got[:2] == want[:2] == (0, LO)
        assert math.isnan(got[2]) and math.isnan(want[2])
