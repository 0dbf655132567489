"""The numeric cores of the package, one numpy implementation each.

Every per-step operation of the receive-side pipeline lives here once:
channel energy readings under interference, log-distance path loss and
its inverse, shadowed reading windows, NaN-aware dB aggregation,
strongest-k ordering, the linearized lateration solve, and the range-EKF
predict/correct step (Jacobian and gain included). Beacon-coverage
counting lives here too, in two shapes: over a list of sample points
(coverage_counts) and over a rectangular lattice, where each beacon is
stamped only over the bounding box of its disc
(lattice_coverage_counts).

Kernels take plain floats and numpy arrays, trust their inputs and
return status flags instead of raising. The public functions in
radio/localization/tracking validate their arguments, call these
kernels and turn flags into exceptions; simulate calls the kernels
directly on arrays it has already checked, keeping validation off the
per-step path.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "energy_scan", "path_loss_rssi", "path_loss_range", "shadowed_readings", "db_mean", "top_k",
    "lateration_solve", "ekf_predict", "range_jacobian", "ekf_gain", "ekf_correct",
    "ekf_step", "coverage_counts", "lattice_coverage_counts",
]

_COVERAGE_CHUNK = 1 << 16
_COVERAGE_ELEMENTS = 1 << 24
_ANCHOR_EPS = 1e-9


# ---------------------------------------------------------------------------
# channel energy


def energy_scan(active, overlap, powers_mw, floor_mw):
    """Energy readings in dBm: the floor plus every interferer that is
    active and overlaps, summed in milliwatts. `active` is (..., n) bool,
    `overlap` a bool mask broadcasting against it, `powers_mw` (n,).

    Terms are added one interferer at a time in interferer order; an
    inactive one adds 0.0, which leaves the positive sum unchanged, so
    each reading carries the bits of the scalar left-to-right sum."""
    hits = active & overlap
    total = np.full(hits.shape[:-1], floor_mw)
    for j in range(hits.shape[-1]):
        total += np.where(hits[..., j], powers_mw[j], 0.0)
    # math.log10, not np.log10: the two differ in the last bit on some inputs
    db = np.fromiter(map(math.log10, total.ravel().tolist()), float, total.size)
    return 10.0 * db.reshape(total.shape)


# ---------------------------------------------------------------------------
# ranging


def path_loss_rssi(d, rssi_at_ref, ref_distance, exponent):
    """Noise-free received power at distance(s) d > 0:
    RSSI(d0) - 10 n log10(d / d0)."""
    return rssi_at_ref - 10.0 * exponent * np.log10(d / ref_distance)


def path_loss_range(rssi, rssi_at_ref, ref_distance, exponent):
    """Inverse of path_loss_rssi: the distance(s) producing `rssi`."""
    return ref_distance * 10.0 ** ((rssi_at_ref - rssi) / (10.0 * exponent))


def shadowed_readings(mean, sigma, sensitivity, rng, n):
    """n readings around each mean with N(0, sigma) dB shadowing; readings
    below `sensitivity` become NaN. A mean array of shape s gives shape
    s + (n,), drawn row-major, so one (k, n) draw consumes the generator
    exactly like k windows of n drawn one after another."""
    mean = np.asarray(mean)
    values = mean[..., None] + rng.normal(0.0, sigma, size=mean.shape + (n,))
    return np.where(values < sensitivity, np.nan, values)


def db_mean(readings):
    """Mean of the non-NaN dBm readings along the last (window) axis; NaN
    where a window holds no reading."""
    present = ~np.isnan(readings)
    n_present = present.sum(axis=-1)
    # the same sums as np.nansum, without its second NaN scan and copy
    total = np.where(present, readings, 0.0).sum(axis=-1)
    return np.where(n_present > 0, total / np.maximum(n_present, 1), np.nan)


def top_k(ids, rssi, k):
    """Indices of the k strongest readings, RSSI descending, ties to the
    lower id."""
    return np.lexsort((ids, -rssi))[:k]


# ---------------------------------------------------------------------------
# linearized lateration (normal equations on the 2-unknown system)


def lateration_solve(ax, ay, d):
    """Solve for the position whose squared anchor distances best match d.

    Rows i = 1..k-1 of the linear system, anchored on node 0:

        [2(x_i - x_0), 2(y_i - y_0)] @ (x, y)
            = d_0^2 - d_i^2 + x_i^2 + y_i^2 - x_0^2 - y_0^2

    solved through the 2x2 normal equations. Returns (status, x, y)
    with status 0 on success and 1 when the normal matrix is singular
    (collinear anchors) or the solution is not finite (ranges beyond
    the float range)."""
    x0 = ax[0]
    y0 = ay[0]
    c0 = d[0] * d[0] - x0 * x0 - y0 * y0
    s11 = 0.0
    s12 = 0.0
    s22 = 0.0
    t1 = 0.0
    t2 = 0.0
    for i in range(1, ax.shape[0]):
        a1 = 2.0 * (ax[i] - x0)
        a2 = 2.0 * (ay[i] - y0)
        b = c0 - d[i] * d[i] + ax[i] * ax[i] + ay[i] * ay[i]
        s11 += a1 * a1
        s12 += a1 * a2
        s22 += a2 * a2
        t1 += a1 * b
        t2 += a2 * b
    det = s11 * s22 - s12 * s12
    scale = 0.5 * (s11 + s22)
    if det <= 1e-12 * scale * scale:
        return 1, 0.0, 0.0
    x = (s22 * t1 - s12 * t2) / det
    y = (s11 * t2 - s12 * t1) / det
    if not (math.isfinite(x) and math.isfinite(y)):
        return 1, 0.0, 0.0
    return 0, x, y


# ---------------------------------------------------------------------------
# range-driven planar Kalman filter


def ekf_predict(pos, cov, st, ctrl, q):
    """Propagate the state through the transition matrix and inflate the
    covariance with the process noise. Returns (pos, cov)."""
    return st @ pos + ctrl, st @ cov @ st.T + q


def range_jacobian(pred, ax, ay):
    """Jacobian of the anchor-range map at `pred` and the ranges there.

    Row i is the unit vector from anchor i toward `pred`. Returns
    (status, h, ranges); status 1 flags `pred` on an anchor, where the
    map is not differentiable."""
    k = ax.shape[0]
    h = np.empty((k, 2))
    ranges = np.empty(k)
    for i in range(k):
        dx = pred[0] - ax[i]
        dy = pred[1] - ay[i]
        ri = math.sqrt(dx * dx + dy * dy)
        if ri < _ANCHOR_EPS:
            return 1, None, None
        ranges[i] = ri
        h[i, 0] = dx / ri
        h[i, 1] = dy / ri
    return 0, h, ranges


def ekf_gain(cov, h, r):
    """Kalman gain E H^T (H E H^T + R)^-1."""
    return cov @ h.T @ np.linalg.inv(h @ cov @ h.T + r)


def ekf_correct(pred, pcov, ax, ay, z, r):
    """Correct a prediction with measured anchor ranges z.

    The innovation is z minus the ranges the prediction implies; the
    covariance update (I - K H) E is symmetrized against drift. Returns
    (status, pos, cov) with status 0 on success. Otherwise the prediction
    comes back unchanged: status 1 flags a prediction on an anchor, and
    status 2 a singular innovation covariance or a corrected position
    outside the float range (a diverged filter)."""
    status, h, ranges = range_jacobian(pred, ax, ay)
    if status != 0:
        return 1, pred, pcov
    try:
        k = ekf_gain(pcov, h, r)
    except np.linalg.LinAlgError:
        return 2, pred, pcov
    new_pos = pred + k @ (z - ranges)
    if not (math.isfinite(new_pos[0]) and math.isfinite(new_pos[1])):
        return 2, pred, pcov
    new_cov = (np.eye(2) - k @ h) @ pcov
    return 0, new_pos, 0.5 * (new_cov + new_cov.T)


def ekf_step(pos, cov, ax, ay, z, st, ctrl, q, r):
    """One predict-then-correct cycle. Returns (status, pos, cov) as
    ekf_correct does."""
    pred, pcov = ekf_predict(pos, cov, st, ctrl, q)
    return ekf_correct(pred, pcov, ax, ay, z, r)


# ---------------------------------------------------------------------------
# coverage counting


def coverage_counts(px, py, bx, by, radius, cap):
    """Per sample point, the number of beacons within `radius` (closed
    ball), saturated at `cap`. Vectorized in chunks to bound memory."""
    n = px.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    r2 = radius * radius
    # each chunk holds at most _COVERAGE_ELEMENTS point-beacon pairs
    rows = max(1, min(_COVERAGE_CHUNK, _COVERAGE_ELEMENTS // max(1, bx.shape[0])))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        dx = px[start:stop, None] - bx[None, :]
        dy = py[start:stop, None] - by[None, :]
        counts[start:stop] = np.count_nonzero(dx * dx + dy * dy <= r2, axis=1)
    return np.minimum(counts, cap)


def lattice_coverage_counts(xs, ys, bx, by, radius, cap):
    """Per point of the lattice spanned by the ascending axes `xs` and
    `ys`, the number of beacons within `radius` (closed ball), saturated at
    `cap`. Returns (len(ys), len(xs)) int64 counts, so `.ravel()` runs in
    the order of `np.meshgrid(xs, ys)` raveled.

    Each beacon adds its disc over its bounding box only, testing
    `ay + ax <= r2` on the squared axis offsets: the float expression
    coverage_counts evaluates, so every count keeps its bits. The box
    drops no point that test would count: a point outside it has ax > r2
    or ay > r2, and fl(ax + ay) >= max(ax, ay) for these non-negative
    terms. Each span is contiguous: the axes ascend and fl(d * d) is
    monotone in |d|, so ax and ay fall and then rise along their axis.
    For the same reason the least of them sits next to the beacon's own
    coordinate, which picks out the beacons with a non-empty box before
    the per-beacon loop."""
    counts = np.zeros((ys.shape[0], xs.shape[0]), dtype=np.int64)
    r2 = radius * radius
    boxed = (_least_square(xs, bx) <= r2) & (_least_square(ys, by) <= r2)
    for x, y in zip(bx[boxed].tolist(), by[boxed].tolist()):
        ax = (xs - x) * (xs - x)
        ay = (ys - y) * (ys - y)
        cols = np.flatnonzero(ax <= r2)
        rows = np.flatnonzero(ay <= r2)
        i0, i1 = cols[0], cols[-1] + 1
        j0, j1 = rows[0], rows[-1] + 1
        counts[j0:j1, i0:i1] += ay[j0:j1, None] + ax[None, i0:i1] <= r2
    return np.minimum(counts, cap)


def _least_square(axis, v):
    """Per value of v, the least (axis - v) * (axis - v) over the ascending
    axis, taken from the axis points on either side of v."""
    k = np.searchsorted(axis, v)
    below = axis[np.maximum(k - 1, 0)]
    above = axis[np.minimum(k, axis.shape[0] - 1)]
    return np.minimum((below - v) * (below - v), (above - v) * (above - v))
