"""Grid-scan kernel for the brute-force area-maximum oracle.

Finds the maximum of the center-channel area over a uniform grid in
float64: it scans only the blocks that two levels of a curvature bound
keep, each grid value through the same operations as in a whole-grid scan
(see :func:`center_area_grid_argmax`).  Scans go in pieces of at most ``CHUNK``
points and hold under four ``CHUNK`` float64 arrays (2 MB), each level of
the bound about ``CHUNK // 8`` samples plus two per run.
"""

import math

import numpy as np

from ._arcmath import SERIES_CUTOFF, series_area

__all__ = ["CHUNK", "SERIES_CUTOFF", "center_area_grid_argmax"]

#: Grid points scanned at once.
CHUNK = 1 << 16


def _area_chunk(s, l, theta, out, tmp):
    # Area = s^2 (theta - sin theta)/theta^2 + 2 s l sin(theta/2)/theta,
    # by series_area below SERIES_CUTOFF, written into ``out``; ``tmp`` is
    # scratch of the same length, and the angles are monotone.
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at theta = 0
        np.sin(theta, out=out)
        np.subtract(theta, out, out=out)
        np.multiply(theta, theta, out=tmp)
        np.divide(out, tmp, out=out)
        np.multiply(s * s, out, out=out)
        np.multiply(0.5, theta, out=tmp)
        np.sin(tmp, out=tmp)
        np.divide(tmp, theta, out=tmp)
        np.multiply(s * l, tmp, out=tmp)
        np.add(tmp, tmp, out=tmp)  # doubled last: 2 s l can overflow first
        np.add(out, tmp, out=out)
    if min(theta[0], theta[-1]) < SERIES_CUTOFF:  # the smallest is at an end
        small = theta < SERIES_CUTOFF
        out[small] = series_area(s, l, theta[small])


def _join(runs):
    # the sorted runs [start, stop) joined where they touch; empty ones go
    joined = []
    for start, stop in runs:
        if joined and start <= joined[-1][1]:
            joined[-1] = joined[-1][0], stop
        elif start < stop:
            joined.append((start, stop))
    return joined


def _refine(s, l, lo, step, runs, size, top):
    # One level of the bound (see center_area_grid_argmax): the kept blocks
    # between neighbouring samples of each run [a, b), taken every ``size``
    # points and at b - 1, joined into runs; and the new top sample.
    size = max(size, sum(b - a for a, b in runs) // (CHUNK // 8 or 1))
    kept, m = [], abs(s) * (abs(s) + abs(l)) / 12.0
    for a, b in runs:
        i = np.arange(a, b - 1 + size, size, dtype=np.float64)
        i[-1] = b - 1
        theta = lo + step * i
        area, tmp = np.empty((2, i.size))
        with np.errstate(all="ignore"):  # a non-finite sample keeps blocks
            _area_chunk(s, l, theta, area, tmp)
            top = np.maximum(top, area.max())  # a NaN sample keeps all
            h = np.abs(theta[1:] - theta[:-1])
            bound = m * (h * h / 8.0 + 2.0 ** -26)
            bound += np.maximum(area[:-1], area[1:])
            # below 0 the series is not the area: those blocks are kept
            bound[np.minimum(theta[:-1], theta[1:]) < 0.0] = math.inf
            keep = np.flatnonzero(~((bound < top) & np.isfinite(bound)))
        kept += [(int(i[k]), int(i[k + 1]) + 1) for k in keep]
    return _join(kept), top


def _scan_chunks(s, l, lo, step, runs):
    # The first ``(grid index, area)`` maximum over the runs [a, b), in grid
    # order and pieces of at most CHUNK points; the first NaN area wins.
    size = min(CHUNK, max(b - a for a, b in runs))
    index = np.arange(size, dtype=np.float64)
    theta, area, tmp = np.empty((3, size))
    best_i, best = 0, -math.inf
    for first, end in runs:
        for start in range(first, end, size):
            m = min(size, end - start)
            t, a = theta[:m], area[:m]
            np.add(index[:m], start, out=t)
            np.multiply(step, t, out=t)
            np.add(lo, t, out=t)
            _area_chunk(s, l, t, a, tmp[:m])
            j = int(np.argmax(a))
            value = float(a[j])
            if value != value:
                return start + j, value
            if value > best:
                best_i, best = start + j, value
    return best_i, best


def center_area_grid_argmax(arc_length, strip_width, n, lo, hi):
    """Return ``(index, angle, area)`` of the grid maximum.

    The grid is ``lo + i * (hi - lo) / (n - 1)`` for ``i`` in ``range(n)``.
    The result is that of ``numpy.argmax`` over the whole grid: ties keep
    the smallest index, and the first NaN area wins.

    Areas are computed at ``(s, l)`` scaled by the power of two ``2**-k``
    that brings ``s`` into [0.5, 1), so none overflows: ``|s l| < |l|``,
    and ``s l`` is formed before it is doubled.  The area returned is
    scaled back by ``4**k`` (inf on overflow).  The whole grid is the
    first run.  Each of two levels samples its runs every ``B`` points and
    at their last, and keeps each block between neighbouring samples whose
    bound is at least the top sample so far or not finite (a NaN sample
    keeps all), or that has an end below 0; the kept blocks, both samples
    included and joined, are the next runs, and the last are scanned.
    ``B`` is the largest power of two up to ``n**(2/3)``, then
    ``n**(1/3)``, or the runs' points over ``CHUNK // 8`` if larger.

    The bound: ``a(t) = (t - sin t) / t**2 = int_0^1 (1 - x) sin(t x) dx``
    and ``b(t) = sin(t / 2) / t = int_0^1 cos(t x / 2) dx / 2``, so
    ``|a''| <= int_0^1 (1 - x) x**2 dx = 1/12`` and ``|b''| <= 1/24`` for
    all real ``t``, and ``A = s**2 a + 2 s l b`` has ``|A''| <= M = |s|
    (|s| + |l|) / 12``.  The grid is monotone, so a block's angles lie
    between its end angles ``ta``, ``tb``, where ``A`` is at most ``M h**2
    / 8`` (``h = |tb - ta|``) above its chord.  From the cutoff up,
    ``_area_chunk`` is within ``E = 2**-28 M`` of ``A``: with ``sin``
    within ``2**-48 |sin t|`` (16 ulp; NumPy's is within 1), ``t - sin t``
    is within ``2**-47 t``, ``a`` within ``2**-47 / t + 2**-51 < 2**-33``
    (``t >= 1e-4``), ``s**2 a`` within ``2**-32 s**2 / 3``, ``2 s l b``
    within ``2**-47 |s l|`` (``sin``, a quotient, two products; ``|b| <=
    1/2``) and their sum within ``2**-32 (s**2 + |s l|) < E``.  Below the
    cutoff, from 0 up, ``series_area`` is off by under ``t**7 / 9!`` in
    ``a`` and ``t**6 / 645120`` in ``b`` (alternating series), below
    ``1e-28``, and its rounding by a few ulps of ``s**2 + |s l|``, so it
    too is within ``E`` of ``A``.  Below 0 the series is a polynomial, not
    ``A``, whose curvature can pass ``M``, so those blocks are kept.  So
    any other block's areas lie below ``max(a, b) + M h**2 / 8 + 2 E``
    for its computed end areas ``a``, ``b``.  The bound adds ``4 E =
    2**-26 M``; its rounding costs under ``2**-49 (12 M + M h**2 / 8 + M)
    < 2 E`` while ``h < 2**10``, and a wider block's bound exceeds all its
    areas (``|A| < 12 M``).  The top sample is the exact pass's area at
    its index, so a skipped block holds neither the maximum nor a tie of
    it.

    Raises:
        ValueError: ``n < 2``, ``s`` zero or not finite, ``l`` not
            finite, or ``l * 2**-k`` beyond the float range.
    """
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    s, l, k = arc_length, strip_width, math.frexp(arc_length)[1]
    if not (s and math.isfinite(s) and math.isfinite(l)
            and (not l or math.frexp(l)[1] - k <= 1024)):
        raise ValueError("grid scan needs s finite and nonzero, l finite and "
                         f"l * 2**-k finite, got s={s!r}, l={l!r}")
    s, l = math.ldexp(s, -k), math.ldexp(l, -k)
    step = (hi - lo) / (n - 1)
    runs, top, third = [(0, n)], -math.inf, math.log2(n) / 3
    for block in (1 << int(2 * third), 1 << int(third)):
        runs, top = _refine(s, l, lo, step, runs, block, top)
    i, best = _scan_chunks(s, l, lo, step, runs)
    with np.errstate(over="ignore"):
        best = float(np.ldexp(best, 2 * k))
    return i, lo + step * i, best
