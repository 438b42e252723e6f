import collections
import math
import sys
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
    return arc_length * arc_length * base + arc_length * strip_width * (2.0 * chord)


def reference_argmax(arc_length, strip_width, n, lo, hi):
    step = (hi - lo) / (n - 1)
    area = _area_grid(arc_length, strip_width, lo + step * np.arange(n))
    i = int(np.argmax(area))
    return i, lo + step * i, float(area[i])


def _set_chunk(monkeypatch, size):
    # CHUNK = size, cut in the ratio that a fixture cut the default by
    monkeypatch.setattr(kernels, "CHUNK",
                        max(1, size * kernels.CHUNK // CHUNK))


def _piece_size(n):
    # the exact pass scans at most CHUNK points at a time
    return max(1, min(n, kernels.CHUNK))


_SCAN = kernels._scan_chunks.__code__
_REFINE = kernels._refine.__code__


def _record_passes(monkeypatch, hook=None):
    # wrap _area_chunk, counting bound samples (_refine calls) by angle and
    # exact (_scan_chunks) calls by first angle and length; ``hook(theta,
    # out, exact)`` runs after the real evaluation
    bound, exact = collections.Counter(), collections.Counter()
    real = kernels._area_chunk

    def recording(s, l, theta, out, tmp):
        real(s, l, theta, out, tmp)
        caller = sys._getframe(1).f_code
        assert caller in (_SCAN, _REFINE)
        if caller is _SCAN:
            exact[float(theta[0]), theta.size] += 1
        else:
            bound.update(theta.tolist())
        if hook is not None:
            hook(theta, out, caller is _SCAN)

    monkeypatch.setattr(kernels, "_area_chunk", recording)
    return bound, exact


def _pieces(runs, n, lo, hi):
    # the exact-pass calls that scanning the runs [start, stop) makes
    size = _piece_size(n)
    step = (hi - lo) / (n - 1)
    return collections.Counter(
        (lo + step * float(i), min(size, stop - i))
        for start, stop in runs for i in range(start, stop, size))


def _joined(runs):
    # the sorted runs [start, stop), those that touch joined, empty dropped
    out = []
    for start, stop in runs:
        if out and start <= out[-1][1]:
            out[-1] = out[-1][0], max(stop, out[-1][1])
        elif start < stop:
            out.append((start, stop))
    return out


def _two_levels(arc, strip, n, lo, hi):
    # The scan's rule, restated on the whole-grid formula.  The grid starts
    # as one run.  On each of two levels each run [a, b) is sampled at a,
    # a + B, ..., b - 1, and the block between neighbouring samples ta, tb
    # (h = |tb - ta|) is kept when max(A(ta), A(tb)) + M (h^2 / 8 + 2^-26),
    # M = s (s + l) / 12, is at least the top sample so far or not finite
    # (a NaN top keeps all), or when ta or tb is below 0; the kept blocks,
    # both samples included and joined, are the next level's runs.  B is
    # the largest power of two up to n^(2/3), then n^(1/3), or the runs'
    # points over CHUNK // 8 if larger; (s, l) are scaled so that s lies in
    # [0.5, 1).  Returns the sampled angles (once per level) and the runs
    # the exact pass scans.
    k = math.frexp(arc)[1]
    s, l = math.ldexp(arc, -k), math.ldexp(strip, -k)
    step = (hi - lo) / (n - 1)
    theta = lo + step * np.arange(n, dtype=np.float64)
    samples, runs, top = [], [(0, n)], -math.inf
    third = math.log2(n) / 3
    for block in (1 << int(2 * third), 1 << int(third)):
        size = max(block, sum(b - a for a, b in runs)
                   // max(1, kernels.CHUNK // 8))
        kept = []
        for a, b in runs:
            at = [*range(a, b - 1, size), b - 1]
            area = _area_grid(s, l, theta[at])
            samples += theta[at].tolist()
            top = np.max([top, *area])
            h = np.abs(np.diff(theta[at]))
            bound = np.maximum(area[:-1], area[1:]) + s * (s + l) / 12 * (
                h * h / 8 + 2.0**-26)
            keep = (bound >= top) | ~np.isfinite(bound) | np.isnan(top)
            keep |= np.minimum(theta[at][:-1], theta[at][1:]) < 0
            kept += [(at[j], at[j + 1] + 1) for j in np.flatnonzero(keep)]
        runs = _joined(kept)
    return samples, runs


def _check_passes(bound, exact, arc, strip, n, lo, hi):
    # every sample of each level is evaluated exactly once, exactly the
    # runs _two_levels keeps get one exact scan, in pieces of CHUNK points,
    # those runs are disjoint, and something is skipped
    samples, runs = _two_levels(arc, strip, n, lo, hi)
    assert bound == collections.Counter(samples)
    assert exact == _pieces(runs, n, lo, hi)
    assert all(b < c for (_, b), (c, _) in zip(runs, runs[1:]))
    assert sum(b - a for a, b in runs) < n
    return runs


def _scaled_reference(arc, strip, n, lo, hi):
    # the whole-grid argmax at (S_c, L) scaled by 2**-k into [0.5, 1), with
    # the area scaled back by 4**k
    k = math.frexp(arc)[1]
    idx, theta, area = reference_argmax(
        math.ldexp(arc, -k), math.ldexp(strip, -k), n, lo, hi)
    with np.errstate(over="ignore"):
        return idx, theta, float(np.ldexp(area, 2 * k))


def _scan_peak(n, lo=LO, hi=HI):
    tracemalloc.start()
    try:
        kernels.center_area_grid_argmax(152.0, 76.2, n, lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


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
    def test_grid_straddling_series_cutoff(self, monkeypatch, arc, strip,
                                           n):
        # a third of the grid lies below the cutoff, where the areas are
        # series; the bound samples and skips blocks on both sides of it
        lo, hi = 1e-7, 3e-4
        assert lo < kernels.SERIES_CUTOFF < hi
        passes = _record_passes(monkeypatch)
        got = kernels.center_area_grid_argmax(arc, strip, n, lo, hi)
        runs = _check_passes(*passes, arc, strip, n, lo, hi)
        assert got == reference_argmax(arc, strip, n, lo, hi)
        grid = lo + (hi - lo) / (n - 1) * np.arange(n)
        below = np.count_nonzero(grid < kernels.SERIES_CUTOFF)
        assert sum(max(0, min(b, below) - a) for a, b in runs) < below

    def test_tie_across_chunk_boundary_keeps_first_index(self, monkeypatch):
        # a step of 1/5 ulp repeats each angle about five times, so the
        # maximum is a run of equal areas; the bound keeps the whole grid,
        # and with a 10-point budget that run crosses a piece boundary
        arc, strip = 152.0, 76.2
        root = solve_center_arc_angle(arc, strip)
        lo = root - 8 * math.ulp(root)
        hi = lo + 16 * math.ulp(root)
        n = 81
        _set_chunk(monkeypatch, 10)
        want = reference_argmax(arc, strip, n, lo, hi)
        step = (hi - lo) / (n - 1)
        area = _area_grid(arc, strip, lo + step * np.arange(n))
        ties = np.flatnonzero(area == want[2])
        assert ties[0] == want[0]
        assert _two_levels(arc, strip, n, lo, hi)[1] == [(0, n)]
        size = _piece_size(n)
        assert ties[0] // size < ties[-1] // size
        assert kernels.center_area_grid_argmax(arc, strip, n, lo, hi) == want

    def test_constant_grid_keeps_first_index(self, monkeypatch):
        _set_chunk(monkeypatch, 4)
        assert kernels.center_area_grid_argmax(5.0, 4.9, 19, 2.0, 2.0) == \
            reference_argmax(5.0, 4.9, 19, 2.0, 2.0)

    @settings(max_examples=60, deadline=None)
    @given(arc=st.floats(1e-3, 1e3), strip_share=st.floats(0.0, 1.0),
           n=st.integers(2, 300), lo=st.floats(1e-8, 1.0),
           span=st.floats(0.0, 6.0), chunk=st.sampled_from([1, 7, 64]))
    def test_matches_whole_grid(self, arc, strip_share, n, lo, span, chunk):
        strip = arc * strip_share
        saved = kernels.CHUNK
        kernels.CHUNK = max(1, chunk * saved // CHUNK)
        try:
            got = kernels.center_area_grid_argmax(arc, strip, n, lo, lo + span)
        finally:
            kernels.CHUNK = saved
        assert got == reference_argmax(arc, strip, n, lo, lo + span)

    def test_memory_does_not_grow_with_grid(self):
        assert _scan_peak(4_000_000) < 4 * 2**20

    def test_nan_area_wins_like_numpy_argmax(self):
        # a NaN end of the grid makes every angle and area NaN
        got = kernels.center_area_grid_argmax(1.0, 1.0, 10, LO, math.nan)
        with np.errstate(invalid="ignore"):
            want = reference_argmax(1.0, 1.0, 10, LO, math.nan)
        assert got[0] == want[0] == 0
        assert all(math.isnan(x) for x in (*got[1:], *want[1:]))

    @pytest.mark.parametrize("n", [3 * CHUNK + 7, 10**6])
    def test_every_chunk_scanned_exactly_once(self, monkeypatch, n):
        passes = _record_passes(monkeypatch)
        got = kernels.center_area_grid_argmax(152.0, 76.2, n, LO, HI)
        _check_passes(*passes, 152.0, 76.2, n, LO, HI)
        assert got == reference_argmax(152.0, 76.2, n, LO, HI)

    def test_first_nan_wins_across_chunks(self, monkeypatch):
        # NaN areas at grid points 57, 123 and 199, in different pieces,
        # in the bound and the exact pass; 199 is the last grid point, a
        # sample on both levels, so the whole grid is scanned; the step is
        # 1/64, so each index is exact
        n, lo = 200, 1.0
        hi = lo + (n - 1) / 64
        nan_at = (57, 123, 199)

        def poison(theta, out, exact):
            out[np.isin((theta - lo) * 64, nan_at)] = math.nan

        _set_chunk(monkeypatch, 10)
        _record_passes(monkeypatch, poison)
        step = (hi - lo) / (n - 1)
        area = _area_grid(5.0, 4.9, lo + step * np.arange(n))
        area[list(nan_at)] = math.nan
        assert int(np.argmax(area)) == nan_at[0]
        idx, theta, best = kernels.center_area_grid_argmax(5.0, 4.9, n, lo, hi)
        assert (idx, theta) == (nan_at[0], lo + step * nan_at[0])
        assert math.isnan(best)

    def test_exception_in_a_chunk_reaches_the_caller(self, monkeypatch,
                                                     capsys):
        def fail(theta, out, exact):
            if exact and theta[0] > 3.0:
                raise RuntimeError("chunk failed")

        _set_chunk(monkeypatch, 64)
        _record_passes(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="chunk failed"):
            kernels.center_area_grid_argmax(1.0, 0.0, 5000, LO, HI)
        assert capsys.readouterr().err == ""


#: Divisors of the default CHUNK for the scan's smaller-piece variants;
#: none is a power of two, so the pieces do not line up with the bound's
#: power-of-two blocks.
DIVISORS = [3, 5, 7, 11]


class TestChunkedScanSmallerPieces(TestChunkedScan):
    """TestChunkedScan again with CHUNK cut by each divisor: the exact pass
    scans in smaller pieces, so the running maximum is merged across other
    piece boundaries, and the bound's budget of CHUNK // 8 samples a level
    falls with it.  Tests that set a CHUNK of their own cut it alike."""

    @pytest.fixture(autouse=True, params=DIVISORS,
                    ids=lambda d: f"chunk_over_{d}")
    def smaller_pieces(self, request, monkeypatch):
        monkeypatch.setattr(kernels, "CHUNK", CHUNK // request.param)


class TestGridArgmaxSmallChunk(TestGridArgmax):
    """TestGridArgmax again with a CHUNK so small that the exact pass scans
    many pieces and each level of the bound has a budget of at most 8
    samples, at 2**6 and at 2**6 cut by each divisor."""

    @pytest.fixture(autouse=True, params=[1, *DIVISORS],
                    ids=lambda d: f"chunk_64_over_{d}")
    def small_chunk(self, request, monkeypatch):
        monkeypatch.setattr(kernels, "CHUNK", (1 << 6) // request.param)


def _narrow_grid(arc, strip, width):
    # a grid of [root - width, root + width], where the slack of the
    # bound keeps a share of the blocks that falls as the width grows
    root = solve_center_arc_angle(arc, strip)
    return root - width, root + width


class TestScanCost:
    def test_oracle_grids_keep_under_one_percent(self, monkeypatch):
        # 64 seeded (S_c, L) from acceptance criterion 1's domain, S_c in
        # [1, 300] mm and L / S_c in [0, 2], on the oracle's 10^6-point
        # grid: both levels' samples and the exact pass together evaluate
        # at most 0.2% of it
        n = 10**6
        rng = np.random.default_rng(17)
        bound, exact = _record_passes(monkeypatch)
        for arc, share in zip(rng.uniform(1.0, 300.0, 64),
                              rng.uniform(0.0, 2.0, 64)):
            bound.clear()
            exact.clear()
            kernels.center_area_grid_argmax(arc, arc * share, n, LO, HI)
            scanned = sum(size * count for (_, size), count in exact.items())
            assert 0 < scanned and sum(bound.values()) + scanned <= n // 500

    @pytest.mark.parametrize("strip", [2.0**100, 2.0**1000])
    def test_huge_strip_keeps_under_a_tenth_of_a_percent(self, monkeypatch,
                                                         strip):
        # L / S_c far past 2**99 takes the bound like any other input: on
        # the largest oracle grid both levels' samples and the exact pass
        # evaluate under 0.1% of it
        n = 10**8
        bound, exact = _record_passes(monkeypatch)
        kernels.center_area_grid_argmax(1.0, strip, n, LO, HI)
        scanned = sum(size * count for (_, size), count in exact.items())
        assert 0 < scanned and sum(bound.values()) + scanned < n // 1000

    def test_memory_at_the_largest_oracle_grid(self):
        assert _scan_peak(10**8) < 4 * 2**20

    def test_memory_when_the_bound_keeps_every_block(self, monkeypatch):
        # every area of a grid 2e-12 wide around the root lies within the
        # bound's slack of the top, so both levels keep every block and the
        # whole grid is scanned; each level still takes about CHUNK // 8
        # samples at most (n / 128 on the second level without that
        # budget, a 5.6 MiB peak here)
        monkeypatch.setattr(kernels, "CHUNK", 1 << 10)
        n = 2 * 10**6
        lo, hi = _narrow_grid(152.0, 76.2, 1e-12)
        assert _two_levels(152.0, 76.2, n, lo, hi)[1] == [(0, n)]
        assert _scan_peak(n, lo, hi) < 2**20


class TestSeriesCutoff:
    @settings(max_examples=120, deadline=None)
    @example(arc=152.0, share=0.5, n=2, level=0, blocks=0, offset=-1,
             step=1e-3, down=False)
    @example(arc=152.0, share=0.5, n=3, level=0, blocks=0, offset=0,
             step=1e-3, down=True)
    @example(arc=1.0, share=0.0, n=20_000, level=1, blocks=2, offset=1,
             step=1e-4, down=False)
    @example(arc=5.0, share=0.98, n=20_000, level=2, blocks=40, offset=-1,
             step=1e-3, down=True)
    @given(arc=st.floats(1e-3, 1e3),
           share=st.one_of(st.just(0.0), st.floats(1e-4, 1e2)),
           n=st.integers(2, 20_000), level=st.sampled_from([0, 1, 2]),
           blocks=st.integers(0, 40), offset=st.sampled_from([-1, 0, 1]),
           step=st.floats(1e-8, 1e-2), down=st.booleans())
    def test_cutoff_near_a_block_end(self, arc, share, n, level, blocks,
                                     offset, step, down):
        # a grid whose last L angles (or, run downward, first L angles) lie
        # from the cutoff up: L = blocks * B + 1 + offset, B the block size
        # of the bound's first or second level, so that the cutoff falls
        # one point before, on or after a block end, or (level 0) L = 0, 1
        # or 2; the grid starts below 0 once it holds more than about 1e-4
        # / step angles below the cutoff
        third = math.log2(n) / 3
        size = (0, 1 << int(2 * third), 1 << int(third))[level]
        bounded = min(n, max(0, blocks * size + 1 + offset))
        if down:  # angle i is the cutoff + (bounded - i - 1/2) step
            lo = kernels.SERIES_CUTOFF + (bounded - 0.5) * step
            hi = lo - (n - 1) * step
        else:  # angle i is the cutoff + (i - (n - bounded) + 1/2) step
            lo = kernels.SERIES_CUTOFF + (bounded - n + 0.5) * step
            hi = lo + (n - 1) * step
        grid = lo + (hi - lo) / (n - 1) * np.arange(n, dtype=np.float64)
        assert np.count_nonzero(grid >= kernels.SERIES_CUTOFF) == bounded
        strip = arc * share
        got = kernels.center_area_grid_argmax(arc, strip, n, lo, hi)
        assert got == reference_argmax(arc, strip, n, lo, hi)


class TestBoundPass:
    def test_curvature_limit(self):
        # |A''| <= M = s (s + l) / 12 for A = s^2 a + 2 s l b, with a and b
        # differentiated twice by mpmath at 40 digits, on a dense grid of
        # [-4 pi, 4 pi] and near 0, where |b''| comes within 1e-25 of 1/24
        mpmath = pytest.importorskip("mpmath")
        near_zero = [sign * 10.0**-e for e in range(1, 13) for sign in (1, -1)]
        pairs = [(1.0, 0.0), (0.5, 1e-3), (0.75, 1.0), (1.0, 2.0**99)]
        with mpmath.workdps(40):
            def a(t):
                return (t - mpmath.sin(t)) / (t * t)

            def b(t):
                return mpmath.sin(t / 2) / t

            for t in [*np.linspace(-4 * math.pi, 4 * math.pi, 801),
                      *near_zero]:
                t = mpmath.mpf(float(t))
                d2a, d2b = mpmath.diff(a, t, 2), mpmath.diff(b, t, 2)
                for s, l in pairs:
                    s, l = mpmath.mpf(s), mpmath.mpf(l)
                    assert abs(s * s * d2a + 2 * s * l * d2b) <= \
                        s * (s + l) / 12, (t, s, l)

    @settings(max_examples=40, deadline=None)
    @example(s=0.5, rho=0.0, angles=[kernels.SERIES_CUTOFF])
    @example(s=0.75, rho=4.0, angles=[1e-9, kernels.SERIES_CUTOFF,
                                      2.0 * math.pi])
    @example(s=0.5, rho=2.0**100, angles=[
        1e-9, math.nextafter(kernels.SERIES_CUTOFF, 0.0), 1e3])
    @example(s=math.nextafter(1.0, 0.0), rho=0.0,
             angles=[math.nextafter(kernels.SERIES_CUTOFF, 0.0)])
    @given(s=st.floats(0.5, 1.0, exclude_max=True),
           rho=st.one_of(st.just(0.0), st.floats(2.0**-30, 2.0**100)),
           angles=st.lists(st.one_of(
               st.floats(1e-9, 2.0 * kernels.SERIES_CUTOFF),
               st.floats(kernels.SERIES_CUTOFF, 1e3)),
               min_size=1, max_size=16))
    def test_float64_error_far_inside_the_slack(self, s, rho, angles):
        # _area_chunk at the scale the kernel scans (s in [0.5, 1), l = s
        # rho / 2) against a 40-digit area, by series below the cutoff and
        # the closed form from it up: within E / 64, where E = 2**-28 M is
        # the error the bound's slack allows each computed area
        mpmath = pytest.importorskip("mpmath")
        l = 0.5 * s * rho
        angles = sorted(angles)  # _area_chunk takes monotone angles
        theta = np.array(angles)
        got = np.empty_like(theta)
        kernels._area_chunk(s, l, theta, got, np.empty_like(theta))
        allowed = 2.0**-28 * s * (s + l) / 12 / 64
        with mpmath.workdps(40):
            big_s = mpmath.mpf(s)
            for t, area in zip(angles, got.tolist()):
                t = mpmath.mpf(t)
                exact = (big_s * big_s * (t - mpmath.sin(t)) / (t * t)
                         + 2 * big_s * l * mpmath.sin(t / 2) / t)
                assert abs(area - exact) <= allowed, (t, area)

    @settings(max_examples=60, deadline=None)
    @example(arc=152.0, share=0.5, n=20_000, width=1e-12, down=False)
    @example(arc=1.0, share=2.0**99, n=5000, width=1e-1, down=True)
    @example(arc=1e6, share=2.0**1000, n=5000, width=1e-1, down=False)
    @given(arc=st.floats(1e-3, 1e6),
           share=st.one_of(st.just(0.0), st.floats(1e-4, 2.0**1000)),
           n=st.integers(2, 20_000), width=st.floats(1e-12, 1e-1),
           down=st.booleans())
    def test_narrow_grid_around_the_root(self, arc, share, n, width, down):
        # rho = 2 L / S_c up to 2**1001, on [root - width, root + width],
        # either way round
        lo, hi = _narrow_grid(arc, arc * share, width)
        if down:
            lo, hi = hi, lo
        got = kernels.center_area_grid_argmax(arc, arc * share, n, lo, hi)
        assert got == _scaled_reference(arc, arc * share, n, lo, hi)

    @settings(max_examples=60, deadline=None)
    @example(arc=152.0, share=0.5, n=10_000, lo=0.0, span=-2.0 * math.pi)
    @example(arc=1.0, share=2.0**99, n=10_000, lo=2.0 * math.pi, span=50.0)
    @example(arc=1e6, share=2.0**1000, n=10_000, lo=-1.0, span=100.0)
    @given(arc=st.floats(1e-3, 1e6),
           share=st.one_of(st.just(0.0), st.floats(1e-4, 2.0**1000)),
           n=st.integers(2, 20_000), lo=st.floats(-1.0, 20.0),
           span=st.floats(-100.0, 100.0))
    def test_wide_and_decreasing_grids(self, arc, share, n, lo, span):
        # grids that run either way, past 2 pi or below the series cutoff
        got = kernels.center_area_grid_argmax(arc, arc * share, n, lo,
                                              lo + span)
        assert got == _scaled_reference(arc, arc * share, n, lo, lo + span)

    @pytest.mark.parametrize("lo,hi", [(-28.5, 2.0 * math.pi),
                                       (2.0 * math.pi, -28.75)])
    def test_blocks_below_zero_are_kept(self, lo, hi):
        # below 0 the series is a polynomial, not the area: here its peak
        # near -13.86 rad, curved about 2.8 M, tops the area's maximum
        # near 0.27 rad but lies between first-level samples that the
        # bound, without the rule that keeps blocks below 0, would skip
        got = kernels.center_area_grid_argmax(0.75, 5.46, 20_000, lo, hi)
        assert got == _scaled_reference(0.75, 5.46, 20_000, lo, hi)
        assert got[1] == pytest.approx(-13.86, abs=2e-3)

    @pytest.mark.parametrize("arc,strip", [
        (1.0, 2.0**100), (3.0, 2.0**600), (1e-300, 1e-300 * 2.0**1000),
        (1e-200, 1e-200 * 2.0**900), (1.0, 2.0**1022)])
    def test_huge_rho_takes_the_scaled_bounded_path(self, monkeypatch, arc,
                                                    strip):
        # rho = 2 l / s in (2**100, 2**1023]: both levels of the bound run,
        # every area is computed at (s, l) scaled by 2**-k, and the result
        # is the scaled whole-grid argmax
        n = 3 * CHUNK + 7
        scanned_at = set()
        real = kernels._area_chunk

        def noting_scale(s, l, theta, out, tmp):
            scanned_at.add((s, l))
            real(s, l, theta, out, tmp)

        monkeypatch.setattr(kernels, "_area_chunk", noting_scale)
        passes = _record_passes(monkeypatch)
        got = kernels.center_area_grid_argmax(arc, strip, n, LO, HI)
        _check_passes(*passes, arc, strip, n, LO, HI)
        k = math.frexp(arc)[1]
        assert scanned_at == {(math.ldexp(arc, -k), math.ldexp(strip, -k))}
        assert got == _scaled_reference(arc, strip, n, LO, HI)

    @pytest.mark.parametrize("arc,strip", [
        (0.0, 1.0), (-0.0, 0.0), (math.inf, 1.0), (-math.inf, 1.0),
        (math.nan, 1.0), (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan),
        (5e-324, 1.0), (1e-300, 1e300), (1e-10, -1e300), (0.25, 2.0**1023),
        (0.375, -2.0**1023)])
    def test_unrepresentable_inputs_are_refused(self, arc, strip):
        # the scaled scan needs s finite and nonzero, l finite, and l * 2**-k
        # within the float range
        with pytest.raises(ValueError, match="grid scan needs"):
            kernels.center_area_grid_argmax(arc, strip, 1000, LO, HI)

    @pytest.mark.parametrize("arc,strip", [
        (0.5, sys.float_info.max), (0.25, 2.0**1023 - 2.0**970),
        (5e-324, 2.0**-50), (0.75, sys.float_info.max),
        (-0.75, -sys.float_info.max)])
    def test_largest_strips_short_of_the_refusal(self, arc, strip):
        # l * 2**-k up to the largest float: every area stays finite, also
        # where 2 s l 2**-2k overflows, as s l is doubled after its product
        got = kernels.center_area_grid_argmax(arc, strip, 1000, LO, HI)
        assert got == _scaled_reference(arc, strip, 1000, LO, HI)
        assert math.isfinite(got[2])

    def test_area_near_the_float_limit_is_finite(self):
        # 2 s l overflows, but the area (about s l) does not
        i, theta, area = kernels.center_area_grid_argmax(
            0.75, sys.float_info.max, 1000, 1e-6, 6.283)
        assert math.isfinite(area)
        assert area == pytest.approx(
            center_area(0.75, sys.float_info.max, theta), rel=1e-12)

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
        saved = kernels.CHUNK
        kernels.CHUNK = chunk
        try:
            got = kernels.center_area_grid_argmax(arc, strip, n, LO, HI)
        finally:
            kernels.CHUNK = saved
        assert got == _scaled_reference(arc, strip, n, LO, HI)
        with np.errstate(over="ignore", invalid="ignore"):
            grid = _area_grid(arc, strip, LO + (HI - LO) / (n - 1)
                              * np.arange(n))
        if np.all(np.isfinite(grid)) and grid.min() >= 2.0**-968:
            assert got == reference_argmax(arc, strip, n, LO, HI)
