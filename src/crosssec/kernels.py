"""Grid-scan kernel for the brute-force area-maximum oracle.

Scans the center-channel area (arc length ``s``, strip width ``l``) over
the uniform grid ``lo + step * i``, ``step = (hi - lo) / (n - 1)``, in
chunks of ``CHUNK`` points through a few reused buffers, so memory stays
O(CHUNK) whatever ``n`` is.  Every grid value goes through the same
floating-point operations as a whole-grid evaluation of the formula, so
the result does not depend on the chunk size.
"""

import numpy as np

__all__ = ["CHUNK", "SERIES_CUTOFF", "center_area_grid_argmax"]

#: Below this angle (rad) the closed form cancels catastrophically and the
#: series expansions of both theta^-2 factors take over.
SERIES_CUTOFF = 1e-4

#: Grid points per chunk; four float64 buffers of this size stay in cache.
CHUNK = 1 << 16


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


def _series_area(s, l, t):
    base = t / 6.0 - t**3 / 120.0 + t**5 / 5040.0
    chord = 0.5 - t * t / 48.0 + t**4 / 3840.0
    return s * s * base + 2.0 * s * l * chord


def center_area_grid_argmax(arc_length, strip_width, n, lo, hi):
    """Return ``(index, angle, area)`` of the grid maximum.

    The grid is ``lo + i * (hi - lo) / (n - 1)`` for ``i`` in
    ``range(n)``.  Ties keep the smallest index, as ``numpy.argmax`` over
    the whole grid would: ``argmax`` inside a chunk, strict ``>`` between
    chunks.  A NaN area wins, also as ``numpy.argmax`` does.
    """
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    step = (hi - lo) / (n - 1)
    size = min(n, CHUNK)
    index = np.arange(size, dtype=np.float64)
    theta = np.empty(size)
    area = np.empty(size)
    tmp = np.empty(size)
    best_i, best = 0, -np.inf
    for start in range(0, n, CHUNK):
        m = min(CHUNK, n - start)
        t, a = theta[:m], area[:m]
        np.add(index[:m], start, out=t)
        np.multiply(step, t, out=t)
        np.add(lo, t, out=t)
        # the grid is monotone, so its smallest angle is at an end
        if min(t[0], t[-1]) < SERIES_CUTOFF:
            small = t < SERIES_CUTOFF
            # theta = 0 gives 0/0 here; the series overwrites it below
            with np.errstate(divide="ignore", invalid="ignore"):
                _area_chunk(arc_length, strip_width, t, a, tmp[:m])
            a[small] = _series_area(arc_length, strip_width, t[small])
        else:
            _area_chunk(arc_length, strip_width, t, a, tmp[:m])
        j = int(np.argmax(a))
        value = float(a[j])
        if value != value:
            return start + j, lo + step * (start + j), value
        if value > best:
            best_i, best = start + j, value
    return best_i, lo + step * best_i, best
