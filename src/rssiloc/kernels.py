"""The numeric cores of the package, one implementation each.

Every per-step operation of the receive-side pipeline lives here once:
channel energy readings under interference, log-distance path loss and
its inverse, shadowed reading windows, NaN-aware dB aggregation,
strongest-k ordering, the linearized lateration solve, and the range-EKF
predict/correct step (Jacobian and gain included). Beacon-coverage
counting lives here too, in two shapes: over a list of sample points
(coverage_counts) and over a rectangular lattice, where each beacon is
stamped only over the lattice points in the bounding box of its disc and
a beacon whose box holds none is skipped (lattice_coverage_counts).

The stateless kernels are numpy and batch-shaped: aggregation and
ordering work along the last axis of any array, and lateration_batch
solves every row of (..., k) anchor sets, each row with the bits of the
same solve on that row alone. The batch-of-one view lateration_solve
remains because the perfbench tracer wraps it by name; it goes with
ROADMAP item 1.

The range filter is one filter on Python floats in closed form:
ekf_predict, range_jacobian, ekf_gain and ekf_correct, composed by
ekf_step. It calls no numpy, so a step costs a few microseconds, and
its bits depend on IEEE double arithmetic alone. The simulator runs
ekf_step once per seed and fix step; the public tracking functions run
the same pieces.

Kernels take plain floats, float sequences and numpy arrays, trust their
inputs and return status flags instead of raising. The public functions
in radio/localization/tracking validate their arguments, call these
kernels and turn flags into exceptions; simulate calls the kernels
directly on arrays it has already checked, keeping validation off the
per-step path.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "energy_scan", "path_loss_rssi", "path_loss_range", "shadowed_readings", "censored",
    "db_mean", "top_k", "lateration_batch", "lateration_solve", "ekf_predict",
    "range_jacobian", "ekf_gain", "ekf_correct", "ekf_step",
    "coverage_counts", "lattice_coverage_counts",
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
    return censored(mean[..., None] + rng.normal(0.0, sigma, size=mean.shape + (n,)), sensitivity)


def censored(values, sensitivity):
    """Readings with those below `sensitivity` (unheard) set to NaN."""
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
    """Indices of the k strongest readings along the last (beacon) axis,
    RSSI descending, ties to the lower id. `ids` broadcasts against
    `rssi`; a NaN reading (unheard) sorts after every number."""
    return np.lexsort((np.broadcast_to(ids, rssi.shape), -rssi), axis=-1)[..., :k]


# ---------------------------------------------------------------------------
# linearized lateration (normal equations on the 2-unknown system)


def lateration_batch(ax, ay, d):
    """Solve, per row of (..., k) anchor coordinates and ranges, for the
    position whose squared anchor distances best match d.

    Rows i = 1..k-1 of the linear system, anchored on node 0:

        [2(x_i - x_0), 2(y_i - y_0)] @ (x, y)
            = d_0^2 - d_i^2 + x_i^2 + y_i^2 - x_0^2 - y_0^2

    solved through the 2x2 normal equations. The sums run over i in
    ascending order, one array add per anchor, so each row carries the
    bits of the scalar left-to-right loop whatever k is. Returns
    (status, x, y) of shape (...): status 0 on success and 1 when the
    normal matrix is singular (collinear anchors) or the solution is not
    finite (ranges beyond the float range or not numbers); x and y are
    0.0 where status is 1."""
    x0 = ax[..., 0]
    y0 = ay[..., 0]
    # rows that fail compute garbage; their status reports it
    with np.errstate(all="ignore"):
        c0 = d[..., 0] * d[..., 0] - x0 * x0 - y0 * y0
        # arrays: with one anchor no row adds to them, and 0.0 / 0.0 would raise
        s11 = s12 = s22 = t1 = t2 = np.zeros_like(x0)
        for i in range(1, ax.shape[-1]):
            xi, yi, di = ax[..., i], ay[..., i], d[..., i]
            a1 = 2.0 * (xi - x0)
            a2 = 2.0 * (yi - y0)
            b = c0 - di * di + xi * xi + yi * yi
            s11 = s11 + a1 * a1
            s12 = s12 + a1 * a2
            s22 = s22 + a2 * a2
            t1 = t1 + a1 * b
            t2 = t2 + a2 * b
        det = s11 * s22 - s12 * s12
        scale = 0.5 * (s11 + s22)
        x = (s22 * t1 - s12 * t2) / det
        y = (s11 * t2 - s12 * t1) / det
        ok = ~(det <= 1e-12 * scale * scale) & np.isfinite(x) & np.isfinite(y)
    return (~ok).astype(np.int8), np.where(ok, x, 0.0), np.where(ok, y, 0.0)


def lateration_solve(ax, ay, d):
    """lateration_batch for one anchor set of shape (k,). Returns
    (status, x, y) as Python numbers."""
    status, x, y = lateration_batch(ax, ay, d)
    return int(status), float(x), float(y)


# ---------------------------------------------------------------------------
# range-driven planar Kalman filter
#
# One filter on Python floats, written out in closed form. A 2 x 2 matrix
# is a row-major 4-tuple (m00, m01, m10, m11) and the n x n measurement
# noise a row-major sequence of n * n floats; anchor coordinates, ranges
# and measured ranges are length-n sequences. Every product is a
# left-to-right sum of float products, so a state's bits depend on IEEE
# double arithmetic alone, not on the BLAS or LAPACK a host links. Float
# arithmetic never raises or warns here: an overflow is inf, inf - inf is
# NaN, and the status reports what they lead to.


def ekf_predict(px, py, cov, st, ctrl, q):
    """Propagate the state through the transition and inflate the
    covariance with the process noise: (st p + ctrl, st E st^T + q).
    Returns (px, py, cov)."""
    s00, s01, s10, s11 = st
    c00, c01, c10, c11 = cov
    m00 = s00 * c00 + s01 * c10
    m01 = s00 * c01 + s01 * c11
    m10 = s10 * c00 + s11 * c10
    m11 = s10 * c01 + s11 * c11
    return (s00 * px + s01 * py + ctrl[0], s10 * px + s11 * py + ctrl[1],
            (m00 * s00 + m01 * s01 + q[0], m00 * s10 + m01 * s11 + q[1],
             m10 * s00 + m11 * s01 + q[2], m10 * s10 + m11 * s11 + q[3]))


def range_jacobian(px, py, ax, ay):
    """Jacobian of the anchor-range map at (px, py) and the ranges there.

    Row i of h is the unit vector (hx, hy) from anchor i toward the point.
    Returns (status, h, ranges); status 1 flags the point on an anchor,
    where the map is not differentiable, and then h and ranges are None."""
    h = []
    ranges = []
    for x, y in zip(ax, ay):
        dx = px - x
        dy = py - y
        d = math.sqrt(dx * dx + dy * dy)
        if d < _ANCHOR_EPS:
            return 1, None, None
        h.append((dx / d, dy / d))
        ranges.append(d)
    return 0, h, ranges


def ekf_gain(cov, h, r):
    """Kalman gain E H^T S^-1, S = H E H^T + R, for n rows h[i] = (hx, hy).
    Returns (singular, k) with k the gain's two rows of n values; singular
    is True, and k None, when det S is 0 or not finite.

    S is first scaled by the power of two that brings its trace into
    [0.5, 1), and the gain by the same factor. The scaling is exact, so
    the bits are those of the unscaled formula wherever that neither
    overflows nor underflows. With E and R positive semi-definite, as the
    filter's are, no entry of the scaled S exceeds 1 in size, so det S
    stays in range whatever the scale of R. For n = 3, the filter's case,
    the scaled S is inverted by cofactors, written out; any other n takes
    Gauss-Jordan elimination with partial pivoting."""
    if len(h) != 3:
        return _gain_by_elimination(cov, h, r)
    c00, c01, c10, c11 = cov
    (h0x, h0y), (h1x, h1y), (h2x, h2y) = h
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    # E H^T, whose column j is E h_j: S[i][j] = h_i . E h_j + R[i][j]
    a0 = c00 * h0x + c01 * h0y
    a1 = c00 * h1x + c01 * h1y
    a2 = c00 * h2x + c01 * h2y
    b0 = c10 * h0x + c11 * h0y
    b1 = c10 * h1x + c11 * h1y
    b2 = c10 * h2x + c11 * h2y
    s00 = h0x * a0 + h0y * b0 + r00
    s01 = h0x * a1 + h0y * b1 + r01
    s02 = h0x * a2 + h0y * b2 + r02
    s10 = h1x * a0 + h1y * b0 + r10
    s11 = h1x * a1 + h1y * b1 + r11
    s12 = h1x * a2 + h1y * b2 + r12
    s20 = h2x * a0 + h2y * b0 + r20
    s21 = h2x * a1 + h2y * b1 + r21
    s22 = h2x * a2 + h2y * b2 + r22
    f = _unit_scale(s00 + s11 + s22)
    s00, s01, s02 = s00 * f, s01 * f, s02 * f
    s10, s11, s12 = s10 * f, s11 * f, s12 * f
    s20, s21, s22 = s20 * f, s21 * f, s22 * f
    # the cofactors of the first row give the determinant
    t00 = s11 * s22 - s12 * s21
    t01 = s12 * s20 - s10 * s22
    t02 = s10 * s21 - s11 * s20
    det = s00 * t00 + s01 * t01 + s02 * t02
    if det == 0.0 or not math.isfinite(det):
        return True, None
    # S^-1[i][j] is the cofactor of S[j][i] over det
    i00 = t00 / det
    i10 = t01 / det
    i20 = t02 / det
    i01 = (s02 * s21 - s01 * s22) / det
    i11 = (s00 * s22 - s02 * s20) / det
    i21 = (s01 * s20 - s00 * s21) / det
    i02 = (s01 * s12 - s02 * s11) / det
    i12 = (s02 * s10 - s00 * s12) / det
    i22 = (s00 * s11 - s01 * s10) / det
    # the inverse of f S is S^-1 / f, so E H^T (f S)^-1 f is the gain
    return False, ((f * (a0 * i00 + a1 * i10 + a2 * i20), f * (a0 * i01 + a1 * i11 + a2 * i21),
                    f * (a0 * i02 + a1 * i12 + a2 * i22)),
                   (f * (b0 * i00 + b1 * i10 + b2 * i20), f * (b0 * i01 + b1 * i11 + b2 * i21),
                    f * (b0 * i02 + b1 * i12 + b2 * i22)))


def _unit_scale(trace):
    """The power of two f = 2**-e that brings |trace| into [0.5, 1). e is
    floored at -1022 so that f stays a float; a subnormal trace then
    scales to at least 2**-52. 1.0 for a trace of 0, inf or NaN, which
    leaves such a matrix to the singular test."""
    e = math.frexp(trace)[1]
    return math.ldexp(1.0, -e if e > -1022 else 1022)


def _gain_by_elimination(cov, h, r):
    """ekf_gain for n != 3: reduce [S | I] to [I | S^-1] by Gauss-Jordan
    elimination with partial pivoting, on S scaled as ekf_gain scales it;
    det S is the signed product of the pivots."""
    c00, c01, c10, c11 = cov
    e0 = [c00 * hx + c01 * hy for hx, hy in h]
    e1 = [c10 * hx + c11 * hy for hx, hy in h]
    n = len(h)
    s = [[hx * e0[j] + hy * e1[j] + r[i * n + j] for j in range(n)]
         for i, (hx, hy) in enumerate(h)]
    f = _unit_scale(sum(s[i][i] for i in range(n)))
    rows = [[v * f for v in row] + [float(i == j) for j in range(n)] for i, row in enumerate(s)]
    det = 1.0
    for col in range(n):
        pivot = max(range(col, n), key=lambda i: abs(rows[i][col]))
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        p = rows[col][col]
        if p == 0.0:
            return True, None
        det *= p
        rows[col] = [v / p for v in rows[col]]
        for i in range(n):
            m = rows[i][col]
            if i != col and m != 0.0:
                rows[i] = [v - m * w for v, w in zip(rows[i], rows[col])]
    if not math.isfinite(det):
        return True, None
    return False, tuple(tuple(f * sum(e[i] * rows[i][n + j] for i in range(n)) for j in range(n))
                        for e in (e0, e1))


def ekf_correct(px, py, cov, ax, ay, z, r):
    """Correct a prediction with three measured anchor ranges z.

    The innovation is z minus the ranges the prediction implies; the
    covariance update (I - K H) E is symmetrized against drift. Returns
    (status, px, py, cov), status 0 on success. Any other status comes
    back with the prediction: 1 flags a prediction on an anchor, 2 a
    singular innovation covariance or a corrected position outside the
    float range (a diverged filter)."""
    status, h, ranges = range_jacobian(px, py, ax, ay)
    if status:
        return 1, px, py, cov
    singular, k = ekf_gain(cov, h, r)
    if singular:
        return 2, px, py, cov
    (k00, k01, k02), (k10, k11, k12) = k
    (h0x, h0y), (h1x, h1y), (h2x, h2y) = h
    d0, d1, d2 = ranges
    z0, z1, z2 = z
    nx = px + (k00 * (z0 - d0) + k01 * (z1 - d1) + k02 * (z2 - d2))
    ny = py + (k10 * (z0 - d0) + k11 * (z1 - d1) + k12 * (z2 - d2))
    if not (math.isfinite(nx) and math.isfinite(ny)):
        return 2, px, py, cov
    c00, c01, c10, c11 = cov
    # I - K H
    a00 = 1.0 - (k00 * h0x + k01 * h1x + k02 * h2x)
    a01 = -(k00 * h0y + k01 * h1y + k02 * h2y)
    a10 = -(k10 * h0x + k11 * h1x + k12 * h2x)
    a11 = 1.0 - (k10 * h0y + k11 * h1y + k12 * h2y)
    off = 0.5 * ((a00 * c01 + a01 * c11) + (a10 * c00 + a11 * c10))
    return 0, nx, ny, (a00 * c00 + a01 * c10, off, off, a10 * c01 + a11 * c11)


def ekf_step(px, py, cov, ax, ay, z, st, ctrl, q, r):
    """One predict-then-correct cycle. Returns (status, px, py, cov) as
    ekf_correct does."""
    px, py, cov = ekf_predict(px, py, cov, st, ctrl, q)
    return ekf_correct(px, py, cov, ax, ay, z, r)


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

    Each beacon adds its disc over its bounding box only (nothing when the
    box holds no lattice point), testing `ay + ax <= r2` on the squared
    axis offsets: the float expression coverage_counts evaluates, so
    every count keeps its bits. The box
    drops no point that test would count: a point outside it has ax > r2
    or ay > r2, and fl(ax + ay) >= max(ax, ay) for these non-negative
    terms. Each span is contiguous: the axes ascend and fl(d * d) is
    monotone in |d|, so ax and ay fall and then rise along their axis."""
    counts = np.zeros((ys.shape[0], xs.shape[0]), dtype=np.int64)
    r2 = radius * radius
    for x, y in zip(bx.tolist(), by.tolist()):
        ax = (xs - x) * (xs - x)
        ay = (ys - y) * (ys - y)
        cols = np.flatnonzero(ax <= r2)
        rows = np.flatnonzero(ay <= r2)
        if not (cols.size and rows.size):
            continue  # the disc misses the lattice
        i0, i1 = cols[0], cols[-1] + 1
        j0, j1 = rows[0], rows[-1] + 1
        counts[j0:j1, i0:i1] += ay[j0:j1, None] + ax[None, i0:i1] <= r2
    return np.minimum(counts, cap)

