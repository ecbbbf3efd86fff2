"""Smooth scalar profiles used throughout the map constructions.

Everything here is a C^2 spline assembled from the quintic smoothstep.
Profiles are exactly constant (or exactly linear) outside their transition
windows, so maps built from them are bit-exact identities away from their
supports.

Every profile is one function ``(t, derivative=False) -> (value, derivative
or None)``, the contract of ``SmoothMap``'s ``evaluate(x, jac)``: a map calls
its profile once per evaluation, and a value-only call computes no
derivative.  ``profile_eval`` keeps the contract for the batched
piecewise-linear profiles of ``profile_rows``.  Each composite profile
computes its value first, without naming the value's temporaries, and its
derivative last, so the array a caller copies into its Jacobian and frees is
the newest one; the derivative-first order left the heap of the
deformation's many small calls up to 0.26 MB larger in peak RSS.
"""

import numpy as np


def smoothstep(u):
    """Quintic smoothstep: 0 for u <= 0, 1 for u >= 1, C^2-flat at both ends."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def smoothstep_d(u):
    """Derivative of :func:`smoothstep` (max value 15/8 at u = 1/2)."""
    u = np.asarray(u, dtype=float)
    outside = (u <= 0.0) | (u >= 1.0)  # NaN is not
    uc = np.clip(u, 0.0, 1.0)
    d = 30.0 * uc * uc * (1.0 - uc) * (1.0 - uc)
    return np.where(outside, 0.0, d)


def smoothstep_i(u):
    """Integral of :func:`smoothstep` from 0; equals u - 1/2 for u >= 1."""
    u = np.asarray(u, dtype=float)
    uc = np.clip(u, 0.0, 1.0)
    val = uc ** 4 * (2.5 + uc * (-3.0 + uc))
    return np.where(u > 1.0, u - 0.5, np.where(u <= 0.0, 0.0, val))  # NaN stays NaN


def smoothstep_pair(u, derivative=False):
    """(smoothstep(u), smoothstep_d(u) or None), each polynomial evaluated
    only on the entries in [0, 1) and NaN: below 0 the pair is exactly
    (0.0, 0.0) and from 1 on (1.0, 0.0), the values of the clipped argument."""
    u = np.asarray(u, dtype=float)
    band = ~((u < 0.0) | (u >= 1.0))
    val = np.where(u >= 1.0, 1.0, 0.0)
    val[band] = smoothstep(u[band])
    if not derivative:
        return val, None
    der = np.zeros(u.shape)
    der[band] = smoothstep_d(u[band])
    return val, der


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


def profile_eval(t, knots, slopes, deltas, knot_vals, derivative=False):
    """Values and derivatives of smooth piecewise-linear profiles, row by row.

    ``t`` is (C, S) and the parameters are those of :func:`profile_rows`:
    row c of ``t`` is evaluated with profile c.  Returns (value, derivative),
    the derivative None unless asked for.  A corner correction is computed
    only on the points inside that corner's blend window; everywhere else
    every point goes through the same float operations, whatever C and S are.
    A NaN in ``t`` gives a NaN value and derivative.
    """
    count, nknots = knots.shape
    idx = np.zeros(t.shape, dtype=np.intp)  # searchsorted: the knots below t
    for j in range(nknots):
        idx += ~(t <= knots[:, j, None])
    # one flat gather per table, row c's entries starting at c times its width
    slope = slopes.take(idx + np.arange(0, count * (nknots + 1), nknots + 1)[:, None])
    below = np.maximum(idx - 1, 0)
    below += np.arange(0, count * nknots, nknots)[:, None]
    out = knot_vals.take(below) + slope * (t - knots.take(below))
    der = slope if derivative else None
    if derivative:  # a NaN counts as above every knot, so it took the last slope
        der[np.isnan(t)] = np.nan
    ds = slopes[:, 1:] - slopes[:, :-1]
    for j in range(knots.shape[1]):
        u = (t - knots[:, j, None]) / deltas[:, j, None]
        win = (np.abs(u) < 1.0) & (ds[:, j, None] != 0.0)
        if not win.any():
            continue
        u = u[win]
        dsj = np.broadcast_to(ds[:, j, None], t.shape)[win]
        dj = np.broadcast_to(deltas[:, j, None], t.shape)[win]
        out[win] += dsj * dj * (2.0 * smoothstep_i((u + 1.0) / 2.0) - np.maximum(u, 0.0))
        if derivative:
            der[win] += dsj * (smoothstep((u + 1.0) / 2.0) - np.where(u > 0.0, 1.0, 0.0))
    # off its windows a corner adds 0.0, which turns -0.0 into +0.0 (adding
    # -0.0 changes nothing)
    zero = np.where(np.any(ds != 0.0, axis=1), 0.0, -0.0)[:, None]
    return out + zero, (None if der is None else der + zero)


def plateau_step(a, b, max_slope=None):
    """Smooth step from 0 at ``a`` to 1 at ``b`` with a capped derivative.

    The derivative ramps up over a window of width w, holds a plateau, and
    ramps down; it never exceeds ``max_slope`` (default: gentle,
    w = (b-a)/4).
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

    def step(t, derivative=False):
        u = np.asarray(t, dtype=float) - a
        # segments: [0,w] ramp, [w, width-w] linear, [width-w, width] mirrored ramp
        seg1 = ~((u <= 0.0) | (u >= w))  # and NaN, which the ramp keeps
        seg2 = (u >= w) & (u <= width - w)
        seg3 = (u > width - w) & (u < width)
        out = np.where(seg1, c * w * smoothstep_i(u / w), np.where(u <= 0.0, 0.0, np.where(u >= width, 1.0, 0.0)))
        out = np.where(seg2, c * w / 2.0 + c * (u - w), out)
        out = np.where(seg3, 1.0 - c * w * smoothstep_i((width - u) / w), out)
        if not derivative:
            return out, None
        der = np.where(seg1, c * smoothstep(u / w), np.zeros_like(u))
        der = np.where(seg2, c, der)
        return out, np.where(seg3, c * smoothstep((width - u) / w), der)

    return step


def retraction_profile(eps):
    """The coordinatewise profile of the smooth cube retraction.

    Monotone C^2 map s with s(t) = t at t in {-2,-1,0,1,2}, flat first and
    second derivatives at -1 and 1, and 0 <= s' <= 1 + eps.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    delta = min(2.0 * eps / (1.0 + eps), 0.5)
    c = 1.0 / (1.0 - delta / 2.0)

    def profile(t, derivative=False):
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        # c times the weight's integral from 0: the plain part up to 1 - delta,
        # the falling band [1 - delta, 1], then the rising band [1, 1 + delta]
        # and 1 beyond it.  Off the bands (and at |t| = 1) the smoothstep_i
        # terms are the exact 0.5 or 0.0 of their clipped arguments, so only
        # the band rows (and NaN) evaluate them
        band = ~((np.abs(1.0 - at) >= delta) | (at == 1.0))
        fall = np.where(at >= 1.0, delta * 0.5, 0.0)
        rise = np.where(at > 1.0, delta * 0.5 + np.maximum(at - 1.0 - delta, 0.0), 0.0)
        ab = at[band]
        fall[band] = delta * (0.5 - smoothstep_i(np.clip((1.0 - np.minimum(ab, 1.0)) / delta, 0.0, 1.0)))
        rise[band] = np.where(ab > 1.0, delta * smoothstep_i(np.minimum((ab - 1.0) / delta, 1.0))
                              + np.maximum(ab - 1.0 - delta, 0.0), 0.0)
        val = c * (np.sign(t) * (np.minimum(at, 1.0 - delta) + fall + rise))
        if not derivative:
            return val, None
        # the plateau weight: 1 but for transitions of width delta at +-1
        weight = np.where(at == 1.0, 0.0, 1.0)
        weight[band] = np.where(ab <= 1.0, smoothstep((1.0 - ab) / delta), smoothstep((ab - 1.0) / delta))
        return val, c * weight

    return profile


def collar_alpha(delta):
    """The collar profile of the projection: alpha(u) = 1 for u <= 1,
    alpha(u) = u for u >= delta, 1 <= alpha(u) <= u in between and
    0 <= alpha' <= 1.5."""
    span = delta - 1.0

    def alpha(u, derivative=False):
        u = np.asarray(u, dtype=float)
        # outside the collar (1, delta) the value is the exact 1.0 or u and the
        # derivative 0.0 or 1.0; only the collar rows (and NaN) evaluate the
        # smoothstep terms
        inside = u <= 1.0
        band = ~(inside | (u >= delta))
        w = np.clip((u[band] - 1.0) / span, 0.0, 1.0)
        val = np.where(inside, 1.0, u)
        # the integral of a_w from 0 to w, in closed form
        val[band] = 1.0 + span * (smoothstep_i(w) + 0.5 * smoothstep_i(np.minimum(2 * w, 1.0))
                                  + np.where(w > 0.5, 0.5 * (0.5 - smoothstep_i(2.0 - 2.0 * w)), 0.0))
        if not derivative:
            return val, None
        der = np.where(inside, 0.0, 1.0)
        # a_w(w) = smoothstep(w) plus a bump
        der[band] = smoothstep(w) + np.minimum(smoothstep(2 * w), smoothstep(2 - 2 * w))
        return val, der

    return alpha
