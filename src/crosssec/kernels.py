"""Grid-scan kernel for the brute-force area-maximum oracle.

Scans the center-channel area (arc length ``s``, strip width ``l``) over
the uniform grid ``lo + step * i``, ``step = (hi - lo) / (n - 1)``, in
chunks through a few reused buffers.  Every grid value goes through the
same floating-point operations as a whole-grid evaluation of the formula,
so the result depends neither on the chunk size nor on which thread
scanned which chunk.

A grid of at least two ``CHUNK``s is scanned by one worker per usable CPU
(the calling thread and plain threads started per call; NumPy's ufuncs
release the GIL), capped so that each worker has a full ``CHUNK`` of the
grid.  ``CHUNK`` is the budget shared by all workers: each scans chunks of
``CHUNK // workers`` points through its own three buffers and all share
one read-only index ramp, so working memory stays about four ``CHUNK``
float64 arrays (2 MB) whatever the grid size or worker count.
"""

import os
import threading

import numpy as np

from ._arcmath import SERIES_CUTOFF, series_area

__all__ = ["CHUNK", "SERIES_CUTOFF", "center_area_grid_argmax"]

#: Grid points scanned at once, summed over all workers; four float64
#: buffers of this size stay in cache.
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


def center_area_grid_argmax(arc_length, strip_width, n, lo, hi):
    """Return ``(index, angle, area)`` of the grid maximum.

    The grid is ``lo + i * (hi - lo) / (n - 1)`` for ``i`` in
    ``range(n)``.  Ties keep the smallest index, as ``numpy.argmax`` over
    the whole grid would: ``argmax`` inside a chunk, and the chunk maxima
    merged in grid order with strict ``>``.  A NaN area wins, also as
    ``numpy.argmax`` does.  The result is the same for any worker count.
    An exception in any worker stops the scan and is raised here.
    """
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    step = (hi - lo) / (n - 1)
    workers = max(1, min(_workers(), n // CHUNK))
    index = np.arange(min(n, max(1, CHUNK // workers)), dtype=np.float64)
    starts = iter(range(0, n, index.size))
    lock = threading.Lock()
    found, errors = [], []

    def claim():
        with lock:
            return None if errors else next(starts, None)

    def work():
        try:
            _scan_chunks(claim, arc_length, strip_width, n, lo, step, index,
                         found)
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
    best_i, best = 0, -np.inf
    for i, value in sorted(found):
        if value != value:
            return i, lo + step * i, value
        if value > best:
            best_i, best = i, value
    return best_i, lo + step * best_i, best
