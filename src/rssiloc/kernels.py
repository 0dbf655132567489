"""The numeric cores of the package, one numpy implementation each.

Every per-step operation of the receive-side pipeline lives here once:
channel energy readings under interference, log-distance path loss and
its inverse, shadowed reading windows, NaN-aware dB aggregation,
strongest-k ordering, the linearized lateration solve, and the range-EKF
predict/correct step (Jacobian and gain included). Beacon-coverage
counting lives here too, in two shapes: over a list of sample points
(coverage_counts) and over a rectangular lattice, where each beacon is
stamped only over the lattice points in the bounding box of its disc and
a beacon whose box holds none is skipped (lattice_coverage_counts).

The pipeline kernels are batch-shaped: aggregation and ordering work
along the last axis of any array, lateration_batch solves every row of
(..., k) anchor sets, and ekf_step_batch / ekf_correct_batch advance a
(B, ...) stack of filters. Each row keeps the bits of the same
operation on that row alone, so one implementation serves the seed-
batched simulator and the one-at-a-time public functions, which call
them on one-row stacks. The batch-of-one views lateration_solve and
ekf_step remain because the perfbench tracer wraps them by name; they
go with ROADMAP item 1.

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
    "energy_scan", "path_loss_rssi", "path_loss_range", "shadowed_readings", "censored",
    "db_mean", "top_k", "lateration_batch", "lateration_solve", "ekf_predict",
    "range_jacobian", "ekf_gain", "ekf_correct_batch", "ekf_step_batch", "ekf_step",
    "coverage_counts", "lattice_coverage_counts",
]

_COVERAGE_CHUNK = 1 << 16
_COVERAGE_ELEMENTS = 1 << 24
_ANCHOR_EPS = 1e-9
_EYE2 = np.eye(2)


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
# The kernels take a stack of filters: positions (B, 2), covariances
# (B, 2, 2), anchor coordinates and ranges (B, k), one shared transition,
# control, Q and R. Products are stacked matmuls and inverses, which give
# each row the bits of the same product on that row alone; the matrix-
# vector products are written as (M @ v[..., None])[..., 0] for the same
# reason (v @ M.T and einsum round differently from M @ v).


def ekf_predict(pos, cov, st, ctrl, q):
    """Propagate the state through the transition matrix and inflate the
    covariance with the process noise. Returns (pos, cov)."""
    return (st @ pos[..., None])[..., 0] + ctrl, st @ cov @ st.T + q


def range_jacobian(pred, ax, ay):
    """Jacobian of the anchor-range map at `pred` and the ranges there.

    Row i of h is the unit vector from anchor i toward `pred`. Returns
    (status, h, ranges); status 1 flags `pred` on an anchor, where the
    map is not differentiable, and that h is all zeros."""
    dx = pred[..., 0, None] - ax
    dy = pred[..., 1, None] - ay
    ranges = np.sqrt(dx * dx + dy * dy)
    on_anchor = np.logical_or.reduce(ranges < _ANCHOR_EPS, axis=-1)
    # ranges off an anchor divide as they are; max() only keeps an anchor
    # hit from dividing by zero
    h = np.stack((dx, dy), axis=-1) / np.maximum(ranges, _ANCHOR_EPS)[..., None]
    if np.count_nonzero(on_anchor):
        h[on_anchor] = 0.0
    return on_anchor.astype(np.int8), h, ranges


def ekf_gain(cov, h, r):
    """Kalman gain E H^T (H E H^T + R)^-1 of a (B, ...) stack. Returns
    (singular, gain), singular as _inverse_rows gives it for H E H^T + R;
    a singular row's gain is taken with a zero inverse."""
    ht = h.swapaxes(-1, -2)
    singular, s_inv = _inverse_rows(h @ cov @ ht + r)
    return singular, cov @ ht @ s_inv


def _inverse_rows(m):
    """(singular, inverse) of a (B, n, n) stack: singular is None when no
    matrix is, else a (B,) mask whose rows hold a zero inverse. Every
    other row gets the inverse it would get alone."""
    try:
        return None, np.linalg.inv(m)
    except np.linalg.LinAlgError:
        pass
    singular = np.zeros(m.shape[0], dtype=bool)
    inverse = np.zeros_like(m)
    for i in range(m.shape[0]):
        try:
            inverse[i] = np.linalg.inv(m[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return singular, inverse


def ekf_correct_batch(pred, pcov, ax, ay, z, r):
    """Correct a stack of predictions with measured anchor ranges z.

    The innovation is z minus the ranges a prediction implies; the
    covariance update (I - K H) E is symmetrized against drift. Returns
    (status, pos, cov) with a (B,) int8 status, 0 on success. A row with
    another status comes back as its prediction: 1 flags a prediction on
    an anchor, 2 a singular innovation covariance or a corrected position
    outside the float range (a diverged filter). Rows never mix."""
    status, h, ranges = range_jacobian(pred, ax, ay)
    singular, k = ekf_gain(pcov, h, r)
    new_pos = pred + (k @ (z - ranges)[..., None])[..., 0]
    new_cov = (_EYE2 - k @ h) @ pcov
    new_cov = 0.5 * (new_cov + new_cov.swapaxes(-1, -2))
    diverged = ~np.logical_and.reduce(np.isfinite(new_pos), axis=-1)
    if singular is not None:
        diverged |= singular
    if np.count_nonzero(status) or np.count_nonzero(diverged):
        status[(status == 0) & diverged] = 2
        failed = status != 0
        new_pos[failed] = pred[failed]
        new_cov[failed] = pcov[failed]
    return status, new_pos, new_cov


def ekf_step_batch(pos, cov, ax, ay, z, st, ctrl, q, r):
    """One predict-then-correct cycle over a stack of filters. Returns
    (status, pos, cov) as ekf_correct_batch does."""
    pred, pcov = ekf_predict(pos, cov, st, ctrl, q)
    return ekf_correct_batch(pred, pcov, ax, ay, z, r)


def ekf_step(pos, cov, ax, ay, z, st, ctrl, q, r):
    """ekf_step_batch for one filter. Returns (status, pos, cov) as
    Python status and (2,), (2, 2) arrays."""
    status, pos, cov = ekf_step_batch(pos[None], cov[None], ax[None], ay[None], z[None],
                                      st, ctrl, q, r)
    return int(status[0]), pos[0], cov[0]


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

