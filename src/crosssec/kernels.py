"""Grid-scan kernel for the brute-force area-maximum oracle.

Finds the maximum of the center-channel area over a uniform grid in two
float64 passes: a coarse pass bounds each block of the grid by the areas
at its ends and the area's curvature, and an exact pass scans the blocks
that can hold the maximum, each grid value through the same operations as
in a whole-grid evaluation (see :func:`center_area_grid_argmax`).  It runs
on the calling thread plus one plain thread per further CPU (NumPy's
ufuncs release the GIL) while each has a full ``CHUNK`` of kept points,
so the oracle's grids start no thread.  Blocks have at most ``CHUNK //
CPUs`` points, so the exact pass holds under four ``CHUNK`` float64 arrays
(2 MB); the coarse pass holds a few arrays of one sample per block.
"""

import math
import os
import threading

import numpy as np

from ._arcmath import SERIES_CUTOFF, series_area

__all__ = ["CHUNK", "SERIES_CUTOFF", "center_area_grid_argmax"]

#: Grid points scanned at once, summed over all workers.
CHUNK = 1 << 16


def _workers():
    # CPUs this process may run on; tests replace this to force a count
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _area_chunk(s, l, theta, out, tmp):
    # Area = s^2 (theta - sin theta)/theta^2 + 2 s l sin(theta/2)/theta,
    # written into ``out``; ``tmp`` is scratch of the same length.
    np.sin(theta, out=out)
    np.subtract(theta, out, out=out)
    np.multiply(theta, theta, out=tmp)
    np.divide(out, tmp, out=out)
    np.multiply(s * s, out, out=out)
    np.multiply(0.5, theta, out=tmp)
    np.sin(tmp, out=tmp)
    np.divide(tmp, theta, out=tmp)
    np.multiply(2.0 * s * l, tmp, out=tmp)
    np.add(out, tmp, out=out)


def _kept_blocks(s, l, n, lo, step, size):
    # The coarse pass: the starts of the blocks of ``size`` points that
    # may hold the grid maximum (see center_area_grid_argmax).
    ends = np.arange(0, n - 1 + size, size, dtype=np.float64)
    ends[-1] = n - 1  # grid indices 0, B, 2B, ..., n - 1
    theta = lo + step * ends
    area = np.empty_like(theta)
    a = np.arange((n + size - 1) // size)
    b = np.minimum(a + 1, ends.size - 1)  # a one-point last block: a == b
    with np.errstate(all="ignore"):  # a non-finite sample keeps its blocks
        _area_chunk(s, l, theta, area, np.empty_like(theta))
        small = theta < SERIES_CUTOFF
        area[small] = series_area(s, l, theta[small])
        h = np.abs(theta[b] - theta[a])
        m = abs(s) * (abs(s) + abs(l)) / 12.0
        bound = np.maximum(area[a], area[b]) + m * (h * h / 8.0 + 2.0 ** -26)
        skip = ((bound < area.max()) & np.isfinite(bound)
                & (np.minimum(theta[a], theta[b]) >= SERIES_CUTOFF))
    return (np.flatnonzero(~skip) * size).tolist()


def _scan_chunks(claim, s, l, n, lo, step, index, found):
    # Scan the chunks ``claim()`` hands out, appending each chunk's
    # ``(grid index, area)`` maximum to ``found``, through own buffers.
    size = index.size
    theta = np.empty(size)
    area = np.empty(size)
    tmp = np.empty(size)
    for start in iter(claim, None):
        m = min(size, n - start)
        t, a = theta[:m], area[:m]
        np.add(index[:m], start, out=t)
        np.multiply(step, t, out=t)
        np.add(lo, t, out=t)
        # the grid is monotone, so its smallest angle is at an end
        if min(t[0], t[-1]) < SERIES_CUTOFF:
            small = t < SERIES_CUTOFF
            # theta = 0 gives 0/0 here; the series overwrites it below
            with np.errstate(divide="ignore", invalid="ignore"):
                _area_chunk(s, l, t, a, tmp[:m])
            a[small] = series_area(s, l, t[small])
        else:
            _area_chunk(s, l, t, a, tmp[:m])
        j = int(np.argmax(a))
        found.append((start + j, float(a[j])))


def _run(scan, args, starts, workers):
    # ``scan(claim, *args)`` on ``workers`` threads, the caller's included,
    # claiming ``starts`` in order; the first exception is raised here.
    starts = iter(starts)
    lock = threading.Lock()
    errors = []

    def claim():
        with lock:
            return None if errors else next(starts, None)

    def work():
        try:
            scan(claim, *args)
        except BaseException as exc:  # re-raised below, after the join
            with lock:
                errors.append(exc)

    helpers = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work)
            try:
                thread.start()
            except RuntimeError:  # none to spare: the others take its chunks
                break
            helpers.append(thread)
        work()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]


def center_area_grid_argmax(arc_length, strip_width, n, lo, hi):
    """Return ``(index, angle, area)`` of the grid maximum.

    The grid is ``lo + i * (hi - lo) / (n - 1)`` for ``i`` in ``range(n)``.
    The result is that of ``numpy.argmax`` over the whole grid on any
    worker count: ties keep the smallest index, a NaN area wins.  An
    exception in any worker stops the scan and is raised here.

    Both passes take ``(s, l)`` scaled by the power of two ``2**-k`` that
    brings ``s`` into [0.5, 1): every area scales by exactly ``4**-k``, so
    none over- or underflows; the area returned is scaled back (inf on
    overflow).  Blocks have ``B`` points, the largest power of two up to
    ``sqrt(n)`` and ``CHUNK // CPUs``.  The coarse pass evaluates grid
    indices ``0, B, 2B, ..., n - 1``; the exact pass scans each block whose
    bound is at least the top sample or not finite (a NaN sample keeps
    all), or that reaches below ``SERIES_CUTOFF``.

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
    1/2``) and their sum within ``2**-32 (s**2 + |s l|) < E``.  So a
    block's areas lie below ``max(a, b) + M h**2 / 8 + 2 E`` for its
    computed end areas ``a``, ``b``.  The bound adds ``4 E = 2**-26 M``;
    its rounding costs under ``2**-49 (12 M + M h**2 / 8 + M) < 2 E`` while
    ``h < 2**10``, and a wider block's bound exceeds all its areas (``|A|
    < 12 M``).  The top sample is the exact pass's area at its index, so a
    skipped block holds neither the maximum nor a tie of it.

    When ``rho = 2 l / s`` is NaN or above ``2**100``, or ``s`` is 0 or
    not finite, all blocks (``CHUNK // CPUs`` points) are scanned unscaled.
    """
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    step = (hi - lo) / (n - 1)
    cpus = _workers()
    size = max(1, min(n, CHUNK // cpus))
    starts = range(0, n, size)
    s, l, k = arc_length, strip_width, 0
    rho = float(2.0 * (l / s)) if s and math.isfinite(s) else math.nan
    if abs(rho) <= 2.0 ** 100:
        k = math.frexp(s)[1]
        s, l = math.ldexp(s, -k), math.ldexp(l, -k)
        size = min(size, 1 << math.isqrt(n).bit_length() - 1)
        starts = _kept_blocks(s, l, n, lo, step, size)
    workers = max(1, min(cpus, len(starts) * size // CHUNK))
    index = np.arange(size, dtype=np.float64)
    found = []
    _run(_scan_chunks, (s, l, n, lo, step, index, found), starts, workers)
    best_i, best = 0, -np.inf
    for i, value in sorted(found):
        if value != value:
            return i, lo + step * i, value
        if value > best:
            best_i, best = i, value
    with np.errstate(over="ignore"):
        best = float(np.ldexp(best, 2 * k))
    return best_i, lo + step * best_i, best
