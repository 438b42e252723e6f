"""Grid-scan kernel for the brute-force area-maximum oracle.

Finds the maximum of the center-channel area (arc length ``s``, strip
width ``l``) over the uniform grid ``lo + step * i``, ``step = (hi - lo) /
(n - 1)``, in chunks through a few reused buffers, in two passes: a
float32 pass bounds each chunk, and a float64 pass scans only the chunks
that can hold the maximum (see :func:`center_area_grid_argmax`).  In the
float64 pass every grid value goes through the same floating-point
operations as a whole-grid evaluation of the formula, so the result
depends neither on the chunk size nor on which thread scanned which chunk.

A grid of at least two ``CHUNK``s is scanned by one worker per usable CPU
(the calling thread and plain threads started per pass; NumPy's ufuncs
release the GIL), capped so that each worker has a full ``CHUNK`` of the
grid.  ``CHUNK`` is the budget shared by all workers: each scans chunks of
``CHUNK // workers`` points through its own buffers and all share one
read-only index ramp, so working memory stays about four ``CHUNK``
float64 arrays (2 MB) whatever the grid size or worker count.
"""

import math
import os
import threading

import numpy as np

from ._arcmath import SERIES_CUTOFF, series_area

__all__ = ["BOUND_EPS", "BOUND_FLOOR", "CHUNK", "SERIES_CUTOFF",
           "center_area_grid_argmax"]

#: Grid points scanned at once, summed over all workers; four float64
#: buffers of this size stay in cache.
CHUNK = 1 << 16

#: The float32 pass's error per unit of ``1 + |rho|``, at angles from
#: ``BOUND_FLOOR`` up (see ``center_area_grid_argmax``).
BOUND_EPS = 2.0 ** -12
#: Angle (rad) below which a chunk is always scanned in float64.
BOUND_FLOOR = 0.25


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


def _bound_chunks(claim, l, n, lo, step, index, found):
    # Append ``(start, u)`` for each chunk ``claim()`` hands out: ``u`` is
    # its float32 area maximum at s = 1, or inf below BOUND_FLOOR.
    size = index.size
    grid = np.empty(size)
    theta, area, tmp = (np.empty(size, np.float32) for _ in range(3))
    with np.errstate(all="ignore"):  # a non-finite bound keeps its chunk
        for start in iter(claim, None):
            m = min(size, n - start)
            g, t = grid[:m], theta[:m]
            np.add(index[:m], start, out=g)
            np.multiply(step, g, out=g)
            np.add(lo, g, out=t)  # the float64 grid value, rounded once
            if min(g[0], g[-1]) < BOUND_FLOOR:
                found.append((start, math.inf))
                continue
            _area_chunk(1.0, l, t, area[:m], tmp[:m])
            found.append((start, float(area[:m].max())))


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

    The grid is ``lo + i * (hi - lo) / (n - 1)`` for ``i`` in
    ``range(n)``.  The result is that of ``numpy.argmax`` over the whole
    grid on any worker count: ties keep the smallest index and a NaN area
    wins.

    The float32 pass keeps each chunk's maximum ``u`` of ``g = A / s**2``
    (``s = 1``, ``l = rho / 2``, ``rho = 2 l / s``).  For angles of at least
    ``BOUND_FLOOR``, ``|g32 - A64 / s**2| <= BOUND_EPS * (1 + |rho|)``
    (float32 rounding of the angle, a few ulp of float32 ``sin``, division
    by ``theta**2 >= BOUND_FLOOR**2``), so every float64 area of a chunk
    with ``u + 2 BOUND_EPS (1 + |rho|) < max u`` lies strictly below the
    one at the top bound.  The float64 pass scans only the other chunks
    (within that slack, reaching below the floor, or with a non-finite
    bound) at ``(s, l)`` scaled by the power of two ``2**-k`` that brings
    ``s`` into [0.5, 1).  Every area scales by exactly ``4**-k``, so none
    over- or underflows on its way to the argmax; the area returned is
    scaled back (inf on overflow).  When ``rho`` is NaN or above
    ``2**100``, or ``s`` is 0 or not finite, it scans every chunk,
    unscaled.  An exception in any worker stops the scan and is raised
    here.
    """
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    step = (hi - lo) / (n - 1)
    workers = max(1, min(_workers(), n // CHUNK))
    index = np.arange(min(n, max(1, CHUNK // workers)), dtype=np.float64)
    starts = range(0, n, index.size)
    s, l, k = arc_length, strip_width, 0
    rho = float(2.0 * (l / s)) if s and math.isfinite(s) else math.nan
    if abs(rho) <= 2.0 ** 100:
        k = math.frexp(s)[1]
        s, l = math.ldexp(s, -k), math.ldexp(l, -k)
        bounds = []
        _run(_bound_chunks, (0.5 * rho, n, lo, step, index, bounds), starts,
             workers)
        top = max((u for _, u in bounds if math.isfinite(u)), default=-np.inf)
        slack = 2.0 * BOUND_EPS * (1.0 + abs(rho))
        starts = sorted(start for start, u in bounds
                        if not math.isfinite(u) or u + slack >= top)
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
