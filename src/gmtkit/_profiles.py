"""Smooth scalar profiles used throughout the map constructions.

Everything here is a C^2 spline assembled from the quintic smoothstep.
Profiles are exactly constant (or exactly linear) outside their transition
windows, so maps built from them are bit-exact identities away from their
supports.
"""

import numpy as np


def smoothstep(u):
    """Quintic smoothstep: 0 for u <= 0, 1 for u >= 1, C^2-flat at both ends."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def smoothstep_d(u):
    """Derivative of :func:`smoothstep` (max value 15/8 at u = 1/2)."""
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    uc = np.clip(u, 0.0, 1.0)
    d = 30.0 * uc * uc * (1.0 - uc) * (1.0 - uc)
    return np.where(inside, d, 0.0)


def smoothstep_i(u):
    """Integral of :func:`smoothstep` from 0; equals u - 1/2 for u >= 1."""
    u = np.asarray(u, dtype=float)
    uc = np.clip(u, 0.0, 1.0)
    val = uc ** 4 * (2.5 + uc * (-3.0 + uc))
    return np.where(u > 1.0, u - 0.5, np.where(u > 0.0, val, 0.0))


def profile_rows(knots, slopes, anchor_t, anchor_v, deltas=None):
    """Parameters of smooth piecewise-linear profiles, one profile per row.

    ``knots`` is (C, K), ``slopes`` (C, K+1), ``anchor_t``/``anchor_v`` (C,)
    and ``deltas`` (C, K) or None for the default blend half-widths (an
    eighth of the smaller neighbouring gap).  Returns (knots, slopes, deltas,
    knot_vals), knot_vals being the values of the un-rounded piecewise-linear
    function at the knots, walked out from the anchor.
    """
    knots = np.asarray(knots, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    anchor_t = np.asarray(anchor_t, dtype=float)
    anchor_v = np.asarray(anchor_v, dtype=float)
    count, nknots = knots.shape
    if slopes.shape[1] != nknots + 1:
        raise ValueError("need one more slope than knots")
    if np.any(np.diff(knots, axis=1) <= 0):
        raise ValueError("knots must be strictly increasing")
    if deltas is None:
        gaps = np.diff(knots, axis=1)
        edge = np.full((count, 1), np.inf)
        deltas = np.minimum(np.hstack([edge, gaps]), np.hstack([gaps, edge])) / 8.0
        deltas = np.where(np.isfinite(deltas), deltas, 1.0 / 8.0)
    else:
        deltas = np.asarray(deltas, dtype=float)
    vals = np.empty((count, nknots))
    # the anchor sits in interval index ia (the searchsorted index of anchor_t)
    ia = np.sum(knots < anchor_t[:, None], axis=1)
    for start in np.unique(ia):
        rows = ia == start
        kn, sl = knots[rows], slopes[rows]
        v, t = anchor_v[rows], anchor_t[rows]
        for j in range(start, nknots):
            v = v + sl[:, j] * (kn[:, j] - t)
            t = kn[:, j]
            vals[rows, j] = v
        v, t = anchor_v[rows], anchor_t[rows]
        for j in range(start - 1, -1, -1):
            v = v - sl[:, j + 1] * (t - kn[:, j])
            t = kn[:, j]
            vals[rows, j] = v
    # blend windows must not overlap the anchor
    if np.any(np.abs(anchor_t[:, None] - knots) < deltas):
        raise ValueError("anchor inside a corner blend window")
    return knots, slopes, deltas, vals


def profile_eval(t, knots, slopes, deltas, knot_vals, value=True, derivative=True):
    """Values and derivatives of smooth piecewise-linear profiles, row by row.

    ``t`` is (C, S) and the parameters are those of :func:`profile_rows`:
    row c of ``t`` is evaluated with profile c.  Returns (value, derivative),
    each None unless asked for.  A corner correction is computed only on the
    points inside that corner's blend window; everywhere else every point goes
    through the same float operations, whatever C and S are.
    """
    idx = np.sum(~(t[..., None] <= knots[:, None, :]), axis=-1)  # searchsorted
    slope = np.take_along_axis(slopes, idx, axis=1)
    out = der = None
    if value:
        below = np.maximum(idx - 1, 0)
        ref_t = np.take_along_axis(knots, below, axis=1)
        ref_v = np.take_along_axis(knot_vals, below, axis=1)
        out = ref_v + slope * (t - ref_t)
    if derivative:
        der = slope
    ds = slopes[:, 1:] - slopes[:, :-1]
    for j in range(knots.shape[1]):
        u = (t - knots[:, j, None]) / deltas[:, j, None]
        win = (np.abs(u) < 1.0) & (ds[:, j, None] != 0.0)
        if not win.any():
            continue
        u = u[win]
        dsj = np.broadcast_to(ds[:, j, None], t.shape)[win]
        if value:
            dj = np.broadcast_to(deltas[:, j, None], t.shape)[win]
            out[win] += dsj * dj * (2.0 * smoothstep_i((u + 1.0) / 2.0) - np.maximum(u, 0.0))
        if derivative:
            der[win] += dsj * (smoothstep((u + 1.0) / 2.0) - np.where(u > 0.0, 1.0, 0.0))
    # off its windows a corner adds 0.0, which turns -0.0 into +0.0 (adding
    # -0.0 changes nothing)
    zero = np.where(np.any(ds != 0.0, axis=1), 0.0, -0.0)[:, None]
    return (None if out is None else out + zero), (None if der is None else der + zero)


class SmoothPiecewiseLinear:
    """A piecewise-linear function with C^2 rounded corners.

    The function has slope ``slopes[i]`` on the interval between knot i-1 and
    knot i, is anchored by ``f(anchor_t) = anchor_v``, and each corner at
    ``knots[j]`` is replaced by a quintic blend on ``[t_j - delta_j, t_j + delta_j]``.
    Outside every blend window the function agrees exactly with the
    underlying piecewise-linear one.  Monotone whenever all slopes are > 0.
    """

    def __init__(self, knots, slopes, anchor_t, anchor_v, deltas=None):
        self._rows = profile_rows(
            np.atleast_2d(knots), np.atleast_2d(slopes), [anchor_t], [anchor_v],
            None if deltas is None else np.atleast_2d(deltas),
        )
        self.knots, self.slopes, self.deltas, self.knot_vals = (p[0] for p in self._rows)

    def _eval(self, t, value, derivative):
        t = np.asarray(t, dtype=float)
        res = profile_eval(t.reshape(1, -1), *self._rows, value=value, derivative=derivative)
        return [None if r is None else r.reshape(t.shape) for r in res]

    def value(self, t):
        return self._eval(t, True, False)[0]

    def derivative(self, t):
        return self._eval(t, False, True)[1]


def plateau_step(a, b, max_slope=None):
    """Smooth step from 0 at ``a`` to 1 at ``b`` with a capped derivative.

    Returns a pair of vectorized callables (value, derivative).  The
    derivative ramps up over a window of width w, holds a plateau, and ramps
    down; it never exceeds ``max_slope`` (default: gentle, w = (b-a)/4).
    """
    width = b - a
    if width <= 0:
        raise ValueError("need a < b")
    if max_slope is not None and max_slope * width <= 1.0:
        raise ValueError("cap too small for a unit rise over the window")
    if max_slope is None:
        w = width / 4.0
    else:
        # plateau height c = 1 / (width - w) must stay <= max_slope
        w = max(width - 1.0 / max_slope, 0.0) * 1.02
        w = min(max(w, width / 16.0), width * 0.49)
    c = 1.0 / (width - w)

    def value(t):
        t = np.asarray(t, dtype=float)
        u = t - a
        ramp_in = c * w * smoothstep_i(u / w)
        mid = c * w / 2.0 + c * (u - w)
        # assemble: [0,w] ramp, [w, width-w] linear, [width-w, width] mirrored ramp
        out = np.where(u <= 0.0, 0.0, np.where(u >= width, 1.0, 0.0))
        seg1 = (u > 0.0) & (u < w)
        seg2 = (u >= w) & (u <= width - w)
        seg3 = (u > width - w) & (u < width)
        out = np.where(seg1, ramp_in, out)
        out = np.where(seg2, mid, out)
        out = np.where(seg3, 1.0 - c * w * smoothstep_i((width - u) / w), out)
        return out

    def deriv(t):
        t = np.asarray(t, dtype=float)
        u = t - a
        out = np.zeros_like(u)
        seg1 = (u > 0.0) & (u < w)
        seg2 = (u >= w) & (u <= width - w)
        seg3 = (u > width - w) & (u < width)
        out = np.where(seg1, c * smoothstep(u / w), out)
        out = np.where(seg2, c, out)
        out = np.where(seg3, c * smoothstep((width - u) / w), out)
        return out

    return value, deriv


def retraction_profile(eps):
    """The coordinatewise profile of the smooth cube retraction.

    Monotone C^2 map s with s(t) = t at t in {-2,-1,0,1,2}, flat first and
    second derivatives at -1 and 1, and 0 <= s' <= 1 + eps.  Returns
    (value, derivative).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    delta = min(2.0 * eps / (1.0 + eps), 0.5)
    c = 1.0 / (1.0 - delta / 2.0)

    def w_int(t):
        # integral from 0 of the plateau weight (transitions of width delta at +-1)
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        # integral over [0, u] for u >= 0; weight = 1 except sigma((1-|x|)/delta+...) near 1
        lo = 1.0 - delta
        base = np.minimum(at, lo)
        # contribution of the transition band [1-delta, 1]: integral of sigma((1-x)/delta)
        upper = np.clip((1.0 - np.minimum(at, 1.0)) / delta, 0.0, 1.0)
        band = delta * (0.5 - smoothstep_i(upper))
        # band beyond 1: rising transition sigma((x-1)/delta) on [1, 1+delta] then 1
        beyond = np.where(
            at > 1.0,
            delta * smoothstep_i(np.minimum((at - 1.0) / delta, 1.0))
            + np.maximum(at - 1.0 - delta, 0.0),
            0.0,
        )
        return np.sign(t) * (base + band + beyond)

    def value(t):
        return c * w_int(t)

    def deriv(t):
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        w = np.where(
            at <= 1.0,
            smoothstep((1.0 - at) / delta),
            smoothstep((at - 1.0) / delta),
        )
        return c * w

    return value, deriv
