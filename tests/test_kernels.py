import collections
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crosssec import kernels
from crosssec._arcmath import center_area
from crosssec.solver import solve_center_arc_angle

BACKENDS = [pytest.param(kernels, id="numpy")]

LO, HI = 1e-6, 2.0 * math.pi - 1e-6

CASES = [(152.0, 76.2), (127.0, 50.8), (1.0, 0.0), (300.0, 10.0), (5.0, 4.9)]

CHUNK = kernels.CHUNK

#: Worker counts the threaded scan is forced to, so that a runner with
#: one CPU still exercises the helper threads.
WORKERS = [1, 2, 3, 5]


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


def _chunk_size(n):
    # one worker per CPU, each with at least one full CHUNK of the grid,
    # sharing the CHUNK budget
    workers = max(1, min(kernels._workers(), n // kernels.CHUNK))
    return min(n, max(1, kernels.CHUNK // workers))


def _record_chunks(monkeypatch, hook=None):
    # wrap _area_chunk, recording each chunk's first angle and length;
    # ``hook(theta, out)`` runs after the real evaluation
    seen = collections.Counter()
    lock = threading.Lock()
    real = kernels._area_chunk

    def recording(s, l, theta, out, tmp):
        real(s, l, theta, out, tmp)
        with lock:
            seen[float(theta[0]), theta.size] += 1
        if hook is not None:
            hook(theta, out)

    monkeypatch.setattr(kernels, "_area_chunk", recording)
    return seen


def _expected_chunks(n, lo, hi):
    step = (hi - lo) / (n - 1)
    size = _chunk_size(n)
    return collections.Counter(
        (lo + step * float(start), min(size, n - start))
        for start in range(0, n, size))


def _record_passes(monkeypatch):
    # wrap _area_chunk, counting its float32 (bound pass) and float64
    # (exact pass) calls by first angle and length; keeps each bound maximum
    bound, exact, maxima = (collections.Counter(), collections.Counter(),
                            {})
    lock = threading.Lock()
    real = kernels._area_chunk

    def recording(s, l, theta, out, tmp):
        real(s, l, theta, out, tmp)
        key = float(theta[0]), theta.size
        with lock:
            if theta.dtype == np.float32:
                bound[key] += 1
                maxima[key] = float(out.max())
            else:
                exact[key] += 1

    monkeypatch.setattr(kernels, "_area_chunk", recording)
    return bound, exact, maxima


def _check_passes(bound, exact, maxima, arc, strip, n, lo, hi):
    # every chunk is bounded exactly once or reaches below the floor, each
    # bound is within BOUND_EPS (1 + rho) of the chunk's float64 maximum,
    # and exactly the chunks the rule retains get one float64 scan
    step = (hi - lo) / (n - 1)
    size = _chunk_size(n)
    rho = 2.0 * strip / arc
    slack = 2.0 * kernels.BOUND_EPS * (1.0 + rho)
    low, u = set(), {}
    for start in range(0, n, size):
        m = min(size, n - start)
        theta = lo + step * np.arange(start, start + m)
        if theta.min() < kernels.BOUND_FLOOR:
            low.add(start)
            continue
        u[start] = maxima[float(np.float32(theta[0])), m]
        exact_max = _area_grid(1.0, 0.5 * rho, theta).max()
        assert abs(u[start] - exact_max) <= slack / 2
    assert bound == collections.Counter(
        (float(np.float32(lo + step * float(start))), min(size, n - start))
        for start in u)
    top = max(u.values())
    kept = low | {start for start, v in u.items() if v + slack >= top}
    assert exact == collections.Counter(
        (lo + step * float(start), min(size, n - start)) for start in kept)
    return kept


def _scan_peak(n):
    tracemalloc.start()
    try:
        kernels.center_area_grid_argmax(152.0, 76.2, n, LO, HI)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.fixture(params=WORKERS, ids=lambda w: f"{w}workers")
def forced_workers(request, monkeypatch):
    monkeypatch.setattr(kernels, "_workers", lambda: request.param)
    return request.param


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
    @pytest.mark.parametrize("n", [2, 3, 1000, CHUNK - 1, CHUNK, CHUNK + 1,
                                   2 * CHUNK, 3 * CHUNK + 7, 10**6])
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
        # maximum is a run of equal areas; with a 10-point budget that run
        # crosses a chunk boundary at every worker count
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
        size = _chunk_size(n)
        assert ties[0] // size < ties[-1] // size
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
        assert _scan_peak(4_000_000) < 4 * 2**20

    def test_nan_area_wins_like_numpy_argmax(self):
        got = kernels.center_area_grid_argmax(math.nan, 1.0, 10, LO, HI)
        want = reference_argmax(math.nan, 1.0, 10, LO, HI)
        assert got[:2] == want[:2] == (0, LO)
        assert math.isnan(got[2]) and math.isnan(want[2])

    @pytest.mark.parametrize("n", [3 * CHUNK + 7, 10**6])
    def test_every_chunk_scanned_exactly_once(self, monkeypatch, n):
        passes = _record_passes(monkeypatch)
        got = kernels.center_area_grid_argmax(152.0, 76.2, n, LO, HI)
        kept = _check_passes(*passes, 152.0, 76.2, n, LO, HI)
        assert len(kept) < len(_expected_chunks(n, LO, HI))
        assert got == reference_argmax(152.0, 76.2, n, LO, HI)

    def test_first_nan_wins_across_chunks(self, monkeypatch):
        # NaN areas at grid points 57 and 123, in different chunks; the
        # step is 1/64, so each chunk's first index is exact
        n, lo = 200, 1.0
        hi = lo + (n - 1) / 64
        nan_at = (57, 123)

        def poison(theta, out):
            first = int((theta[0] - lo) * 64)
            for k in nan_at:
                if first <= k < first + theta.size:
                    out[k - first] = math.nan

        monkeypatch.setattr(kernels, "CHUNK", 10)
        _record_chunks(monkeypatch, poison)
        step = (hi - lo) / (n - 1)
        area = _area_grid(5.0, 4.9, lo + step * np.arange(n))
        area[list(nan_at)] = math.nan
        assert int(np.argmax(area)) == nan_at[0]
        idx, theta, best = kernels.center_area_grid_argmax(5.0, 4.9, n, lo, hi)
        assert (idx, theta) == (nan_at[0], lo + step * nan_at[0])
        assert math.isnan(best)

    def test_exception_in_a_chunk_reaches_the_caller(self, monkeypatch,
                                                     capsys):
        def fail(theta, out):
            if theta[0] > 3.0:
                raise RuntimeError("chunk failed")

        monkeypatch.setattr(kernels, "CHUNK", 64)
        _record_chunks(monkeypatch, fail)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk failed"):
            kernels.center_area_grid_argmax(1.0, 0.0, 5000, LO, HI)
        assert threading.active_count() == threads
        assert capsys.readouterr().err == ""


@pytest.mark.usefixtures("forced_workers")
class TestGridArgmaxForcedWorkers(TestGridArgmax):
    """TestGridArgmax again at each forced worker count, with a small
    CHUNK so that its 50 000-point grids are scanned by every worker."""

    @pytest.fixture(autouse=True)
    def small_chunk(self, monkeypatch):
        monkeypatch.setattr(kernels, "CHUNK", 1 << 12)


@pytest.mark.usefixtures("forced_workers")
class TestChunkedScanForcedWorkers(TestChunkedScan):
    """TestChunkedScan again at each forced worker count."""


class TestHelperThreads:
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_exception_in_a_helper_reaches_the_caller(self, monkeypatch,
                                                      capsys, workers):
        # the calling thread holds its first chunk until a helper has
        # failed, so a helper is sure to scan (and fail on) a chunk
        caller = threading.get_ident()
        failed = threading.Event()

        def fail_off_caller(theta, out):
            if threading.get_ident() == caller:
                assert failed.wait(timeout=10)
            else:
                failed.set()
                raise RuntimeError("helper failed")

        monkeypatch.setattr(kernels, "_workers", lambda: workers)
        monkeypatch.setattr(kernels, "CHUNK", 64)
        _record_chunks(monkeypatch, fail_off_caller)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="helper failed"):
            kernels.center_area_grid_argmax(152.0, 76.2, 5000, LO, HI)
        assert failed.is_set()
        assert threading.active_count() == threads
        assert capsys.readouterr().err == ""

    def test_scan_completes_when_no_thread_can_start(self, monkeypatch):
        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(kernels, "_workers", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        n = 3 * CHUNK + 7
        passes = _record_passes(monkeypatch)
        got = kernels.center_area_grid_argmax(152.0, 76.2, n, LO, HI)
        _check_passes(*passes, 152.0, 76.2, n, LO, HI)
        assert got == reference_argmax(152.0, 76.2, n, LO, HI)

    def test_many_workers_claim_each_chunk_once(self, monkeypatch):
        # more workers than CPUs and a short switch interval, so that
        # claims interleave; a lost or doubled claim breaks the count
        monkeypatch.setattr(kernels, "_workers", lambda: 8)
        monkeypatch.setattr(kernels, "CHUNK", 16)
        n = 20_000
        passes = _record_passes(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = kernels.center_area_grid_argmax(152.0, 76.2, n, LO, HI)
        finally:
            sys.setswitchinterval(interval)
        _check_passes(*passes, 152.0, 76.2, n, LO, HI)
        assert got == reference_argmax(152.0, 76.2, n, LO, HI)

    def test_memory_does_not_grow_with_workers(self, monkeypatch):
        monkeypatch.setattr(kernels, "_workers", lambda: 8)
        assert _scan_peak(4_000_000) < 4 * 2**20


class TestBoundPass:
    @settings(max_examples=60, deadline=None)
    @example(rho=0.0, angles=[kernels.BOUND_FLOOR])
    @example(rho=4.0, angles=[kernels.BOUND_FLOOR])
    @example(rho=2.0**100, angles=[kernels.BOUND_FLOOR])
    @given(rho=st.floats(0.0, 2.0**100),
           angles=st.lists(st.floats(kernels.BOUND_FLOOR, 2.0 * math.pi,
                                     exclude_max=True),
                           min_size=1, max_size=64))
    def test_float32_error_far_inside_the_bound(self, rho, angles):
        # the float32 pass's error against the float64 area at s = 1, on
        # the drawn angles and on a dense grid of [BOUND_FLOOR, 2 pi)
        dense = np.linspace(kernels.BOUND_FLOOR, 2.0 * math.pi, 4097)[:-1]
        theta = np.concatenate([angles, dense])
        theta32 = theta.astype(np.float32)
        got = np.empty_like(theta32)
        kernels._area_chunk(1.0, 0.5 * rho, theta32, got,
                            np.empty_like(theta32))
        error = np.abs(got - _area_grid(1.0, 0.5 * rho, theta)).max()
        assert error <= kernels.BOUND_EPS * (1.0 + rho) / 16

    @pytest.mark.parametrize("arc,strip", [(1.0, 2.0**100),
                                           (1.0, math.nan), (math.inf, 1.0)])
    def test_unbounded_rho_scans_every_chunk_unscaled(self, monkeypatch,
                                                       arc, strip):
        # rho = 2 l / s of 2**101, NaN or from an infinite s: no float32
        # pass, and the float64 pass scans every chunk at (s, l) as given
        n = 3 * CHUNK + 7
        bound, exact, _ = _record_passes(monkeypatch)
        got = kernels.center_area_grid_argmax(arc, strip, n, LO, HI)
        assert not bound
        assert exact == _expected_chunks(n, LO, HI)
        with np.errstate(invalid="ignore"):
            want = reference_argmax(arc, strip, n, LO, HI)
        assert got[:2] == want[:2]
        assert got[2] == want[2] or math.isnan(got[2]) and math.isnan(want[2])

    @settings(max_examples=80, deadline=None)
    @example(arc=1e160, share=1e-160, n=1000, chunk=64)
    @example(arc=1e-170, share=0.0, n=1000, chunk=64)
    @given(arc=st.floats(1e-300, 1e300),
           share=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           n=st.integers(2, 2000), chunk=st.sampled_from([64, 1 << 16]))
    def test_extreme_scales_match_scaled_reference(self, arc, share, n,
                                                   chunk):
        # (S_c, L) is scanned at S_c scaled into [0.5, 1) by 2**-k, and the
        # area scaled back by 4**k; where the unscaled areas and both of
        # their terms are normal (every area at least 2**54 times the
        # smallest normal, on this grid), that is the unscaled scan itself
        strip = arc * share
        k = math.frexp(arc)[1]
        saved = kernels.CHUNK
        kernels.CHUNK = chunk
        try:
            got = kernels.center_area_grid_argmax(arc, strip, n, LO, HI)
        finally:
            kernels.CHUNK = saved
        idx, theta, area = reference_argmax(
            math.ldexp(arc, -k), math.ldexp(strip, -k), n, LO, HI)
        with np.errstate(over="ignore"):
            assert got == (idx, theta, float(np.ldexp(area, 2 * k)))
        with np.errstate(over="ignore", invalid="ignore"):
            grid = _area_grid(arc, strip, LO + (HI - LO) / (n - 1)
                              * np.arange(n))
        if np.all(np.isfinite(grid)) and grid.min() >= 2.0**-968:
            assert got == reference_argmax(arc, strip, n, LO, HI)
