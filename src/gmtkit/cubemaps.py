"""Explicit smooth maps around the cube Q = [-1,1]^n.

Contents: face combinatorics of Q, the nearest-point projection, a smooth
almost-retraction of R^n onto Q, an identity-outside collared retraction,
central projections onto smooth convex boundaries, the smooth
punctured-cube projection that maps Q minus an interior point onto the
boundary of Q, and the local-rotation diffeomorphism that shrinks the image
measure of sampled unrectifiable sets under rank-deficient maps.

All maps evaluate in batch.  Each ``SmoothMap`` is one function
``evaluate(x, jac)`` that takes x (N, n) and returns the values (N, n_out)
and, when ``jac`` is true, the Jacobians (N, n_out, n_in), else None; its
value-only branch computes no Jacobian terms.  Displacements are assembled
so that maps are bit-exact identities outside their supports, and
``SmoothMap`` applies that rule once, in the one masked path behind
``value``, ``jacobian`` and ``value_and_jacobian``: it evaluates a map only
on the rows inside its support (``varifold.pushforward`` does the same for
samples).  ``compose`` chains ``value_and_jacobian`` through its maps, so a
composite evaluates each factor once.
"""

from __future__ import annotations

import functools
import logging
import math

import numpy as np

from . import _grid
from ._profiles import (
    collar_alpha,
    plateau_step,
    profile_eval,
    profile_rows,
    retraction_profile,
    smoothstep,
    smoothstep_d,
    smoothstep_pair,
)
from .grassmann import Plane, _mgs, build_rotation, projector_distance

logger = logging.getLogger("gmtkit.cubemaps")

__all__ = [
    "FaceIndex",
    "SmoothMap",
    "Ball",
    "Box",
    "UnionRegion",
    "ConvexBody",
    "BallBody",
    "EllipsoidBody",
    "SuperellipsoidBody",
    "cube_enclosure",
    "nearest_point_cube",
    "smooth_retraction",
    "retraction_with_collar",
    "central_projection",
    "collared_projection",
    "recentering_map",
    "punctured_cube_projection",
    "unrect_perturbation",
]


# ---------------------------------------------------------------------------
# cube face combinatorics


class FaceIndex:
    """Index kappa in {-1,0,1}^n of a face of Q = [-1,1]^n.

    Encodes the face F_kappa, the region C_kappa of points projecting to it,
    the tangent space T_kappa = span{e_j : kappa_j = 0} and the face centre.
    """

    __slots__ = ("kappa",)

    def __init__(self, kappa):
        kappa = tuple(int(k) for k in kappa)
        if any(k not in (-1, 0, 1) for k in kappa):
            raise ValueError("face index entries must be in {-1, 0, 1}")
        self.kappa = kappa

    @property
    def ambient_dim(self):
        return len(self.kappa)

    @property
    def dim(self):
        return sum(1 for k in self.kappa if k == 0)

    def center(self):
        return np.array(self.kappa, dtype=float)

    def __eq__(self, other):
        return isinstance(other, FaceIndex) and self.kappa == other.kappa

    def __hash__(self):
        return hash(self.kappa)

    def __repr__(self):
        return f"FaceIndex{self.kappa}"


def nearest_point_cube(x, n=None):
    """Nearest-point projection onto Q = [-1,1]^n and the region index.

    Returns (f(x), kappa) with f the coordinatewise clamp and kappa_j = 0
    iff |x_j| < 1 (strict), else the sign of x_j.
    """
    x = np.asarray(x, dtype=float)
    if n is None:
        n = x.shape[-1]
    clamped = np.clip(x, -1.0, 1.0)
    if x.ndim == 1:
        kappa = [0 if abs(v) < 1.0 else int(np.sign(v)) for v in x]
        return clamped, FaceIndex(kappa)
    indices = [FaceIndex([0 if abs(v) < 1.0 else int(np.sign(v)) for v in row]) for row in x]
    return clamped, indices


# ---------------------------------------------------------------------------
# regions and smooth maps


class Ball:
    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def contains(self, x):
        x = np.atleast_2d(x)
        return np.linalg.norm(x - self.center, axis=1) <= self.radius


class Box:
    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)

    def contains(self, x):
        x = np.atleast_2d(x)
        return np.all((x >= self.lo) & (x <= self.hi), axis=1)


class UnionRegion:
    def __init__(self, regions):
        self.regions = list(regions)

    def contains(self, x):
        x = np.atleast_2d(x)
        ok = np.zeros(len(x), dtype=bool)
        for r in self.regions:
            ok |= r.contains(x)
        return ok


class SmoothMap:
    """A map R^n -> R^k with exact value and Jacobian evaluation.

    The map is one function ``evaluate(x, jac) -> (value, jacobian)`` on
    batches x (N, n): it returns the values (N, k) and, when ``jac`` is true,
    the Jacobians (N, k, n), else None, and its value-only branch computes no
    Jacobian terms.  The positional form ``SmoothMap(n_in, n_out, value_fn,
    jac_fn)`` wraps two separate functions into that one.

    ``support`` is a region outside which the map is the exact identity
    (None when the map moves points everywhere, e.g. a retraction onto the
    cube).  ``value``, ``jacobian`` and ``value_and_jacobian`` all go through
    one masked path: it checks the input dimension, takes a single point as a
    batch of one, evaluates only the rows inside the support and returns the
    rows outside it as x and I unchanged.
    """

    def __init__(self, n_in, n_out, value_fn=None, jac_fn=None, support=None, name="", meta=None, evaluate=None):
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        if evaluate is None:
            def evaluate(x, jac):
                return value_fn(x), (jac_fn(x) if jac else None)
        self._evaluate = evaluate
        self.support = support
        self.name = name
        self.meta = dict(meta) if meta else {}

    def inside_support(self, pts):
        """Mask of the rows of pts (N, n) inside ``support`` (all rows without one)."""
        if self.support is None:
            return np.ones(len(pts), dtype=bool)
        return self.support.contains(pts)

    def _masked(self, x, jac):
        """``evaluate`` on the rows of x inside the support; x and I elsewhere."""
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        if pts.shape[1] != self.n_in:
            raise ValueError(f"expected points in R^{self.n_in}")
        inside = self.inside_support(pts)
        if inside.all():
            val, der = self._evaluate(pts, jac)
        else:
            val = pts.copy()
            der = np.broadcast_to(np.eye(self.n_in), (len(pts), self.n_in, self.n_in)).copy() if jac else None
            if inside.any():
                val[inside], sub = self._evaluate(pts[inside], jac)
                if jac:
                    der[inside] = sub
        if x.ndim == 1:
            return val[0], None if der is None else der[0]
        return val, der

    def value(self, x):
        return self._masked(x, False)[0]

    __call__ = value

    def jacobian(self, x):
        return self._masked(x, True)[1]

    def value_and_jacobian(self, x):
        """(value, jacobian) at x from one evaluation, as ``value`` and ``jacobian`` give them."""
        return self._masked(x, True)

    def jacobian_fd(self, x, step=1e-6):
        """Central finite-difference Jacobian, the generic test oracle."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros((len(x), self.n_out, self.n_in))
        for j in range(self.n_in):
            e = np.zeros(self.n_in)
            e[j] = step
            out[:, :, j] = (self._evaluate(x + e, False)[0] - self._evaluate(x - e, False)[0]) / (2 * step)
        return out

    @staticmethod
    def identity(n):
        def evaluate(x, jac):
            return x.copy(), np.broadcast_to(np.eye(n), (len(x), n, n)).copy() if jac else None

        return SmoothMap(n, n, evaluate=evaluate, support=None, name="id")

    @staticmethod
    def affine(a, b=None):
        """x -> A x + b."""
        a = np.asarray(a, dtype=float)
        n_out, n_in = a.shape
        b = np.zeros(n_out) if b is None else np.asarray(b, dtype=float)

        def evaluate(x, jac):
            return x @ a.T + b, np.broadcast_to(a, (len(x), n_out, n_in)).copy() if jac else None

        return SmoothMap(n_in, n_out, evaluate=evaluate, name="affine")

    @staticmethod
    def compose(*maps):
        """compose(f, g, h) evaluates f(g(h(x))); Jacobians chain accordingly."""
        maps = list(maps)
        if not maps:
            raise ValueError("need at least one map")
        for outer, inner in zip(maps[:-1], maps[1:]):
            if outer.n_in != inner.n_out:
                raise ValueError("dimension mismatch in composition")
        supports = [m.support for m in maps]
        support = None
        if all(s is not None for s in supports):
            support = UnionRegion(supports)

        def evaluate(x, jac):
            cur, total = x, None
            for m in reversed(maps):
                if not jac:
                    cur = m.value(cur)
                    continue
                cur, j = m.value_and_jacobian(cur)
                total = j if total is None else _grid.row_matmul(j, total)
            return cur, total

        return SmoothMap(
            maps[-1].n_in,
            maps[0].n_out,
            evaluate=evaluate,
            support=support,
            name="o".join(m.name or "?" for m in maps),
        )

    def __repr__(self):
        return f"SmoothMap({self.name or 'anon'}: R^{self.n_in} -> R^{self.n_out})"


# ---------------------------------------------------------------------------
# convex bodies with smooth boundary, given by a 1-homogeneous gauge


class ConvexBody:
    """Bounded open convex set in R^n containing 0, described by a smooth gauge.

    The gauge is 1-homogeneous with V = {gauge < 1}; the outward unit normal
    at a boundary point is the normalized gauge gradient.  Each body
    computes both in one function, ``_gauge(x, grad) -> (gauge, gradient or
    None)``, at the rows of x.
    """

    n: int

    def _gauge(self, x, grad):
        raise NotImplementedError

    @property
    def circumradius(self):
        raise NotImplementedError

    def normal(self, y):
        g = self._gauge(np.atleast_2d(y), True)[1]
        return g / np.linalg.norm(g, axis=1, keepdims=True)


class BallBody(ConvexBody):
    def __init__(self, n, radius=1.0):
        self.n = n
        self.radius = float(radius)

    def _gauge(self, x, grad):
        norm = np.linalg.norm(x, axis=1)
        if not grad:
            return norm / self.radius, None
        safe = np.where(norm > 0, norm, 1.0)[:, None]
        return norm / self.radius, np.where(norm[:, None] > 0, x / (safe * self.radius), 0.0)

    @property
    def circumradius(self):
        return self.radius


class EllipsoidBody(ConvexBody):
    def __init__(self, semi_axes):
        self.semi_axes = np.atleast_1d(np.asarray(semi_axes, dtype=float))
        self.n = len(self.semi_axes)

    def _gauge(self, x, grad):
        g = np.sqrt(np.sum((x / self.semi_axes) ** 2, axis=1))
        if not grad:
            return g, None
        safe = np.where(g > 0, g, 1.0)[:, None]
        return g, np.where(g[:, None] > 0, x / (self.semi_axes**2) / safe, 0.0)

    @property
    def circumradius(self):
        return float(np.max(self.semi_axes))


def _ratio_power(ratios, p):
    """``ratios ** p`` byte for byte, for ratios >= 0 (or NaN) and an integer
    p >= 1: at or below 2^(-1100/p) the true power is at most about
    2^-1100, far below half the least subnormal, so pow would round it to
    +0.0; those entries are written as +0.0 without pow's slow underflow
    path, and the rest (NaN too) go through pow, gathered: a masked
    ``np.power(..., where=)`` takes about twice as long on rows of one
    ratio above the threshold."""
    out = np.zeros(ratios.shape)
    above = ~(ratios <= 2.0 ** (-1100.0 / p))
    out[above] = ratios[above] ** p
    return out


class SuperellipsoidBody(ConvexBody):
    """V = { ||x/r||_p < 1 } for an even integer p; a smooth rounded cube."""

    def __init__(self, n, radius, power):
        if power % 2 or power < 2:
            raise ValueError("power must be a positive even integer")
        self.n = n
        self.radius = float(radius)
        self.power = int(power)

    def _gauge(self, x, grad):
        # scale-invariant p-norm: no overflow for points far outside
        ax = np.abs(x)
        mx = np.max(ax, axis=1, keepdims=True)
        ratios = ax / np.where(mx > 0, mx, 1.0)
        norm = mx[:, 0] * np.sum(_ratio_power(ratios, self.power), axis=1) ** (1.0 / self.power)
        if not grad:
            return norm / self.radius, None
        safe = np.where(norm > 0, norm, 1.0)
        ratios = ax / safe[:, None]  # all <= 1
        out = _ratio_power(ratios, self.power - 1) * np.sign(x) / self.radius
        return norm / self.radius, np.where(norm[:, None] > 0, out, 0.0)

    @property
    def circumradius(self):
        return self.radius * self.n ** (0.5 - 1.0 / self.power)


def cube_enclosure(n, inner, outer):
    """A smooth convex body V with Q + B(0,inner) <= V <= Q + B(0,outer).

    Q = [-1,1]^n.  Realized as a superellipsoid; the exponent is found by a
    scan so that both inclusions hold on the extremal diagonal directions.
    """
    if not 0 < inner < outer:
        raise ValueError("need 0 < inner < outer")
    if n == 1:
        return SuperellipsoidBody(1, 1.0 + 0.5 * (inner + outer), 2)
    ks = np.arange(1, n + 1, dtype=float)

    def bounds(p):
        # smallest admissible radius: max_k [k (1+inner/sqrt k)^p + (n-k)]^(1/p)
        lo = np.max(
            np.logaddexp(np.log(ks) + p * np.log1p(inner / np.sqrt(ks)), np.log(n - ks + 1e-300))
        )
        r_lo = math.exp(lo / p)
        # largest admissible radius: min_k k^(1/p) (1 + outer/sqrt k)
        r_hi = np.min(ks ** (1.0 / p) * (1.0 + outer / np.sqrt(ks)))
        return r_lo, r_hi

    p_mid = max(4, int(round(3.0 * math.log(n) / min(outer - inner, 1.0))))
    candidates = sorted(
        {4, 6, 8, 12, 16, 24, 32, 48, 64}
        | {2 * max(2, int(p_mid * f / 2)) for f in (0.4, 0.6, 0.8, 1.0, 1.25, 1.6, 2.2, 3.0, 4.5)}
    )
    feasible = []
    for p in candidates:
        r_lo, r_hi = bounds(p)
        if r_lo <= r_hi * (1 - 1e-12):
            feasible.append((p, r_lo, r_hi))
    if not feasible:
        raise ValueError(f"no superellipsoid exponent found for n={n}, inner={inner}, outer={outer}")
    # prefer the gentlest exponent with a little margin off the band edge
    p, r_lo, r_hi = feasible[min(1, len(feasible) - 1)]
    return SuperellipsoidBody(n, math.sqrt(r_lo * r_hi), p)


# ---------------------------------------------------------------------------
# smooth retraction onto the cube


def smooth_retraction(n, eps):
    """Smooth map of R^n onto Q = [-1,1]^n preserving all face regions.

    g = h o f with f the nearest-point projection and h the coordinatewise
    profile with flat derivatives at +-1.  Lip(g) <= 1 + eps and
    |g(x) - x| <= (1 + sqrt n) eps on Q + B(0, eps).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    profile = retraction_profile(eps)

    def evaluate(x, jac):
        out = np.zeros((len(x), n, n)) if jac else None
        val, der = profile(np.clip(x, -1.0, 1.0), jac)
        if jac:
            idx = np.arange(n)
            out[:, idx, idx] = der
        return val, out

    return SmoothMap(n, n, evaluate=evaluate, support=None, name="retract", meta={"eps": eps})


def retraction_with_collar(n, eps):
    """Identity-outside retraction: maps a neighbourhood of Q onto Q.

    l(x) = x for dist(x, Q) > eps; l = g (the smooth retraction) on a convex
    body V enclosing Q; |l(x) - x| <= eps everywhere; Lip(l) < 16 sqrt n; and
    dist(l(x), Q) <= dist(x, Q) since l(x) lies on the segment [x, g(x)].
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    sqrt_n = math.sqrt(n)
    iota = eps / (2.0 * (1.0 + sqrt_n))
    body = cube_enclosure(n, iota / 4.0, iota / 2.0)
    g = smooth_retraction(n, iota)
    # blend reaches 1 before points can be eps away from Q (in gauge terms)
    u1 = (1.0 + eps / (2.0 * sqrt_n)) / body.radius
    du = u1 - 1.0
    if du <= 0:
        raise RuntimeError("enclosure radius too large for the blend zone")

    def evaluate(x, jac):
        gamma, grad = body._gauge(x, jac)
        gx, jg = g.value_and_jacobian(x) if jac else (g.value(x), None)
        a = smoothstep((gamma - 1.0) / du)
        val = x + (1.0 - a)[:, None] * (gx - x)
        if not jac:
            return val, None
        ad = smoothstep_d((gamma - 1.0) / du) / du
        eye = np.eye(n)
        out = eye + (1.0 - a)[:, None, None] * (jg - eye)
        out -= ad[:, None, None] * np.einsum("ni,nj->nij", gx - x, grad)
        return val, out

    support = Box(-np.ones(n) * (1 + eps), np.ones(n) * (1 + eps))
    return SmoothMap(
        n, n, evaluate=evaluate, support=support, name="collar_retract",
        meta={"eps": eps, "iota": iota, "body_power": body.power, "body_radius": body.radius},
    )


# ---------------------------------------------------------------------------
# central projections


def _guard_nonzero(x):
    if np.any(np.linalg.norm(np.atleast_2d(x), axis=1) < 1e-300):
        raise ValueError("central projection is undefined at the origin")


def central_projection(body: ConvexBody):
    """Central projection p(x) = t(x) x onto the boundary of a convex body.

    Returns (p, t) as smooth maps (t has one output component).  For the
    gauge description t = 1/gauge, so Dp = I/gauge - x (grad gauge)^T/gauge^2.
    """
    n = body.n

    def gauge(x, jac):
        _guard_nonzero(x)
        return body._gauge(x, jac)

    def p_evaluate(x, jac):
        gamma, grad = gauge(x, jac)
        if not jac:
            return x / gamma[:, None], None
        return x / gamma[:, None], np.eye(n) / gamma[:, None, None] - np.einsum("ni,nj->nij", x, grad) / (
            gamma**2
        )[:, None, None]

    def t_evaluate(x, jac):
        gamma, grad = gauge(x, jac)
        return (1.0 / gamma)[:, None], (-grad / (gamma**2)[:, None])[:, None, :] if jac else None

    p = SmoothMap(n, n, evaluate=p_evaluate, support=None, name="central_proj")
    t = SmoothMap(n, 1, evaluate=t_evaluate, support=None, name="central_scale")
    return p, t


def collared_projection(body: ConvexBody, eps):
    """Central projection inside V, identity outside V.

    q(x) = alpha(t(x)) x with a profile alpha interpolating between 1 (for
    t <= 1, i.e. outside V) and t (deep inside, where dist(x, complement)
    >= eps).  q(x) always lies on the segment [x, p(x)].
    """
    n = body.n
    big_r = body.circumradius
    frac = min(eps / big_r, 0.5)
    delta = 1.0 / (1.0 - frac)
    alpha = collar_alpha(delta)

    def evaluate(x, jac):
        _guard_nonzero(x)
        gamma, grad = body._gauge(x, jac)
        a, ad = alpha(1.0 / gamma, jac)
        if not jac:
            return a[:, None] * x, None
        eye = np.eye(n)
        out = a[:, None, None] * eye
        out -= (ad / gamma**2)[:, None, None] * np.einsum("ni,nj->nij", x, grad)
        return a[:, None] * x, out

    support = Box(-np.ones(n) * big_r, np.ones(n) * big_r)
    return SmoothMap(n, n, evaluate=evaluate, support=support, name="collared_proj", meta={"eps": eps, "delta": delta})


# ---------------------------------------------------------------------------
# interior recentering: a diffeomorphism of Q moving a to 0


def _recentering_rho(a):
    """rho_i = min(1/2, 1 - |a_i|): the scale of coordinate i's profile and cutoff."""
    return np.minimum(0.5, 1.0 - np.abs(a))


def _recentering_profiles(a):
    """The 1-d profiles of the recentering maps with centres a (C, n).

    Entry i is None when no centre moves coordinate i.  Otherwise it is
    (live, knots, slopes, deltas, knot_vals): ``live`` marks the centres with
    a_i != 0, and each of them has the monotone C^2 profile f with
    f(a_i) = 0, f(t) = t for |t| >= 1 - 5 rho/8 (up to the corner blends) and
    slope 1 on |t - a_i| <= rho/8, one row per live centre.

    The blend half-widths are the default eighth of the smaller neighbouring
    gap, except that the outer knots' are capped at 3 rho/8, so their windows
    end by |t| = 1 - rho/4 and f(t) = t on the band the lateral cutoffs
    leave alone.  The cap binds only once |a_i| > 11/19 (about 0.58), where the
    far outer gap exceeds 3 rho, so centres in the middle half keep the
    default widths and their bits.
    """
    rho = _recentering_rho(a)
    profiles = []
    for i in range(a.shape[1]):
        live = a[:, i] != 0.0
        if not live.any():
            profiles.append(None)
            continue
        a_i, r = a[live, i], rho[live, i]
        l0, l1 = -1.0 + 5 * r / 8.0, a_i - r / 8.0
        r1, r0 = a_i + r / 8.0, 1.0 - 5 * r / 8.0
        k_left = (-r / 8.0 - l0) / (l1 - l0)
        k_right = (r0 - r / 8.0) / (r0 - r1)
        knots = np.stack([l0, l1, r1, r0], axis=1)
        gaps = np.diff(knots, axis=1)
        deltas = np.minimum(np.hstack([gaps[:, :1], gaps]), np.hstack([gaps, gaps[:, -1:]])) / 8.0
        deltas[:, [0, -1]] = np.minimum(deltas[:, [0, -1]], (3 * r / 8.0)[:, None])
        one = np.ones_like(a_i)
        profiles.append((live, *profile_rows(
            knots, np.stack([one, k_left, one, k_right, one], axis=1),
            a_i, np.zeros_like(a_i), deltas,
        )))
    return profiles


def _lateral_cutoff(t, width, jac):
    """A lateral cutoff of ``_recenter`` at the coordinates t: eta =
    smoothstep(((1 - width) - |t|) / width) and, with ``jac``, its
    derivative factor -sign(t) smoothstep'(...) / width (else None)."""
    eta, der = smoothstep_pair(((1.0 - width) - np.abs(t)) / width, jac)
    return eta, (-np.sign(t) * der / width if jac else None)


def _recenter(a, profiles, x, jac=True):
    """The recentering maps with centres a (C, n) at the points x (S, n).

    Returns the values (C, S, n) and, with ``jac``, the Jacobians
    (C, S, n, n); ``profiles`` is ``_recentering_profiles(a)``.  Each row goes
    through the same float operations whatever C and S are, so
    ``recentering_map`` (C = 1) and a stack of candidate centres agree bit for
    bit.  No support rule is applied here: ``SmoothMap`` applies it for
    ``recentering_map``, and stacked callers keep their points in Q.

    Coordinate j's lateral cutoff is computed once per move of x_j, and
    reused by every stage until stage j moves x_j.  Before that move every
    centre sees x_j unmoved, so when all centres share rho_j (every centre
    in the middle half does) the cutoff is computed once per point and
    broadcast over the centres.
    """
    count, n = a.shape
    # lateral cutoffs eta_j: 1 on |t| <= 1 - rho_j/2, 0 on |t| >= 1 - rho_j/4
    width = _recentering_rho(a)[:, :, None] / 4.0
    cur = np.repeat(x[None], count, axis=0)
    total = None
    if jac:
        total = np.zeros(cur.shape + (n,))
        total[..., range(n), range(n)] = 1.0
    cuts = [None] * n
    unmoved = [True] * n
    for i, prof in enumerate(profiles):
        if prof is None:
            continue
        for j in range(n):
            if j == i or cuts[j] is not None:
                continue
            if unmoved[j] and (width[:, j] == width[0, j]).all():
                cuts[j] = _lateral_cutoff(x[:, j], width[0, j], jac)
            else:
                cuts[j] = _lateral_cutoff(cur[..., j], width[:, j], jac)
        live, params = prof[0], prof[1:]
        if live.all():
            _recenter_stage(i, params, cur, total, cuts)
        else:
            sub_cur = cur[live]
            sub_total = None if total is None else total[live]
            sub_cuts = [None if c is None else tuple(f if f is None or f.ndim == 1 else f[live] for f in c)
                        for c in cuts]
            _recenter_stage(i, params, sub_cur, sub_total, sub_cuts)
            cur[live] = sub_cur
            if total is not None:
                total[live] = sub_total
        cuts[i], unmoved[i] = None, False
    return cur, total


def _recenter_stage(i, params, cur, total, cuts):
    """Stage i of ``_recenter``: move coordinate i by its profile, laterally
    localized by the other coordinates' ``cuts`` (eta, derivative factor);
    updates cur (C, S, n) and, unless None, total in place."""
    n = cur.shape[-1]
    lam = 1.0
    for j in range(n):
        if j != i:
            lam = lam * cuts[j][0]
    t = cur[..., i]
    fval, fder = profile_eval(t, *params, derivative=total is not None)
    disp = fval - t
    if total is not None:
        row = []  # row i of the stage Jacobian; the other rows are those of I
        for j in range(n):
            if j == i:
                row.append(1.0 + lam * (fder - 1.0))
                continue
            others = 1.0
            for m in range(n):
                if m != i and m != j:
                    others = others * cuts[m][0]
            row.append(disp * cuts[j][1] * others)
        # stage Jacobian times total: only row i changes, summed from 0.0 in
        # the order of einsum("nij,njk->nik")
        acc = 0.0
        for j in range(n):
            acc = acc + row[j][..., None] * total[..., j, :]
        total[..., i, :] = acc
    cur[..., i] = t + lam * disp


def recentering_map(a):
    """Diffeomorphism of R^n fixing everything outside Int Q and moving a to 0.

    Coordinates are recentred one at a time; each stage is laterally
    localized, so once some coordinate x_j is within rho_j/4 of the boundary
    the other coordinates do not move and x_j moves by at most 1 ulp (past
    the outer knot the profile is knot_vals[-1] + (t - knot), and the knot
    value walked out from the centre need not round to the knot itself).
    Outside Q the map is the exact identity.  Equal outputs therefore follow
    from equal input bits, not from position, which is why
    ``_punctured_jacobian_rows`` compares recentred rows bit for bit.
    On the core box where all lateral cutoffs equal 1 the map acts as the
    plain product of the 1-d profiles, so f(a) = 0 exactly and
    |f(x)| >= c |x - a| with a dimension constant c.
    """
    a = np.asarray(a, dtype=float)
    n = len(a)
    if not (np.abs(a) < 1.0).all():  # NaN fails too
        raise ValueError("centre must lie in the open cube")
    centre = a[None]
    profiles = _recentering_profiles(centre)

    def evaluate(x, jac):
        val, der = _recenter(centre, profiles, x, jac)
        return val[0], None if der is None else der[0]

    support = Box(-np.ones(n), np.ones(n))
    return SmoothMap(
        n, n, evaluate=evaluate, support=support, name="recenter",
        meta={"center": a.tolist(), "rho": _recentering_rho(a).tolist()},
    )


# ---------------------------------------------------------------------------
# punctured-cube projection


@functools.lru_cache(maxsize=None)
def _punctured_factors(n, eps):
    """The centre-independent factors (l, q) of the punctured-cube projection
    and the exponent of q's enclosing body; every centre shares them."""
    eps_l = eps / 2.0
    iota_l = eps_l / (2.0 * (1.0 + math.sqrt(n)))
    iota_q = iota_l / 8.0
    body = cube_enclosure(n, iota_q / 4.0, iota_q)
    return retraction_with_collar(n, eps_l), collared_projection(body, iota_q / 8.0), body.power


def _check_punctured(a, eps):
    if not 0.0 < eps < 0.25:
        raise ValueError("eps must be in (0, 1/4)")
    if not (np.abs(a) < 1.0).all():  # NaN fails too
        raise ValueError("centre must lie in the open cube")


def _punctured_jacobian_rows(centres, x, eps):
    """Jacobians of punctured_cube_projection(centres[c], eps) at the points x,
    one per distinct recentred row.

    ``centres`` is (C, n) and x (S, n) with every point in the closed cube Q.
    Returns (jac, inverse): jac is (G, n, n) and the (C, S) indices
    ``inverse`` give entry (c, s) as jac[inverse[c, s]].  Only the
    recentering depends on the centre; the factors q and l and the chain
    products after it are row-wise, so they run once per group of rows whose
    recentred value and Jacobian are bitwise equal, with the float
    operations of the single-centre map: each entry equals that map's
    Jacobian at x[s] bit for bit.  The groups are ``_grid.distinct_rows``
    of the recentred values and Jacobians.
    """
    _check_punctured(centres, eps)
    if not (np.abs(x) <= 1.0).all():  # NaN fails too
        raise ValueError("points must lie in the closed cube")
    count, n = centres.shape
    l, q, _ = _punctured_factors(n, eps)
    cur, jac = _recenter(centres, _recentering_profiles(centres), x)
    cur, jac = cur.reshape(-1, n), jac.reshape(-1, n, n)
    keep, inverse = _grid.distinct_rows(np.hstack([cur, jac.reshape(-1, n * n)]).view(np.uint64))
    cur, jq = q.value_and_jacobian(cur[keep])
    jac = _grid.row_matmul(jq, jac[keep])
    del jq  # freed before l.jacobian allocates its own temporaries
    jac = _grid.row_matmul(l.jacobian(cur), jac)
    return jac, inverse.reshape(count, len(x))


def punctured_cube_projection(a, eps):
    """The smooth map of Q minus {a} onto the boundary of Q.

    Composite l o q o f_a: recentre a to the origin, project centrally onto
    the boundary of an enclosing smooth convex body, then retract onto Q.
    Identity where dist(x, Q) >= eps; preserves the face regions of Q and of
    the neighbouring dyadic cubes; the derivative at interior points is
    bounded by a constant over |x - a| dist(a, dQ).
    """
    a = np.asarray(a, dtype=float)
    n = len(a)
    _check_punctured(a, eps)
    l, q, body_power = _punctured_factors(n, eps)
    phi = SmoothMap.compose(l, q, recentering_map(a))
    phi.name = "punctured_proj"
    phi.support = Box(-np.ones(n) * (1 + eps), np.ones(n) * (1 + eps))
    phi.meta = {
        "center": a.tolist(),
        "eps": eps,
        "dist_to_boundary": float(1.0 - np.max(np.abs(a))),
        "body_power": body_power,
    }
    return phi


# ---------------------------------------------------------------------------
# perturbation diffeomorphism killing sampled unrectifiable measure


class DirectionSearchError(RuntimeError):
    pass


class RankConditionError(RuntimeError):
    pass


# rows (candidates x samples) whose cell codes one sort counts together: each
# per-chunk array of codes, sorted codes or differences stays at 0.5 MB
DIRECTION_ROWS = 1 << 16


def _check_resolution(resolution):
    """The given resolution if it is finite and positive, else ValueError."""
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and positive, got {resolution}")
    return resolution


def _direction_search(xb, t_plane, cone, direction_budget, rng, resolution):
    """Candidate planes within ``cone`` of ``t_plane``, as a (candidates, n, m)
    frame array, and the cell count of the samples ``xb`` projected onto each.

    An m = 1 plane in R^2 gets an even angle grid, orthonormalized in one
    ``_mgs`` call; otherwise ``t_plane`` and random tilts of its frame drawn
    from ``rng``.  Returns (frames, scores, best, baseline, own): ``best`` is
    the first minimum, ``baseline`` the count on ``t_plane`` and ``own`` the
    ambient count of ``xb``."""
    n, m = t_plane.frame.shape
    if m == 1 and n == 2:
        base = math.atan2(t_plane.frame[1, 0], t_plane.frame[0, 0])
        amax = math.asin(min(cone, 1.0))
        angles = base + np.linspace(-amax, amax, direction_budget)
        frames = _mgs(np.array([[[math.cos(t)], [math.sin(t)]] for t in angles.tolist()]))
    else:
        frames = [t_plane.frame]
        while len(frames) < direction_budget:
            g = t_plane.frame + cone * 0.7 * rng.standard_normal((n, m))
            try:
                cand = Plane(g)
            except ValueError:
                continue
            if projector_distance(cand, t_plane) <= cone:
                frames.append(cand.frame)
        frames = np.array(frames)
    scores = np.empty(len(frames), dtype=np.int64)
    step = max(1, DIRECTION_ROWS // len(xb))
    for start in range(0, len(frames), step):
        scores[start : start + step] = _grid.cell_counts(xb @ frames[start : start + step], resolution)
    baseline = int(_grid.cell_counts((xb @ t_plane.frame)[None], resolution)[0])
    own = int(_grid.cell_counts(xb[None], resolution)[0])
    return frames, scores, int(np.argmin(scores)), baseline, own


def _cluster_balls(points, gap, region):
    """Disjoint balls around the single-linkage clusters of the samples
    (``_grid.cell_clusters``), in the order of those clusters.

    Each ball's inner core (half of the rotation happens inside it) contains
    its whole cluster; the outer radius is capped by the distance to the
    nearest other centre (``_grid.nearest_all``, in blocks; zero when
    centres coincide), and a ball whose outer radius leaves the ``Box``
    ``region`` (if not None) is dropped.  Returns (centers, r_out, r_in,
    uncovered_idx)."""
    label = _grid.cell_clusters(points, gap)
    order = np.argsort(label, kind="stable")  # the samples of each ball, in index order
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    lo = np.minimum.reduceat(points[order], starts, axis=0)
    hi = np.maximum.reduceat(points[order], starts, axis=0)
    centers, diag = (lo + hi) / 2.0, hi - lo
    inner = np.sqrt(_grid.row_dots(diag, diag)) / 2.0 * 1.02 + 1e-12
    outer = 2.5 * inner
    if len(centers) > 1:
        near = _grid.nearest_all(centers, centers, distinct=True)
        same = _grid.distinct_rows((centers + 0.0).view(np.uint64))[1]
        near[np.bincount(same)[same] > 1] = 0.0  # a ball whose centre another shares is dropped
        outer = np.minimum(outer, 0.48 * near)
    keep = outer >= 1.3 * inner
    if region is not None:
        keep &= np.all((centers - outer[:, None] >= region.lo) & (centers + outer[:, None] <= region.hi), axis=1)
    return centers[keep], outer[keep], inner[keep], order[~keep[label[order]]].tolist()


def unrect_perturbation(
    points,
    f: SmoothMap,
    region,
    eps,
    m,
    *,
    seed=0,
    cluster_gap=None,
    direction_budget=720,
    threshold_factor=0.5,
    resolution=None,
):
    """Diffeomorphism rho with f o rho shrinking the sampled set's measure.

    ``points`` samples a purely unrectifiable set inside ``region``, a
    ``Box`` or None (no bound), where rank Df <= m must hold (checked by a
    singular-value threshold).  Disjoint balls cover the samples, each ball
    inside ``region``; in each ball a rotation aligns a low-projection
    direction (found by brute-force search over a direction grid) with the
    row space of Df at the centre.  ||D rho - id|| <= eps by construction.
    """
    if direction_budget < 1:
        raise ValueError(f"direction_budget must be at least 1, got {direction_budget}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    npts, n = points.shape
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"sample {i} is not finite: {points[i].tolist()}")
    if resolution is not None:
        _check_resolution(resolution)
    if npts == 0:
        rho = SmoothMap.identity(n)
        rho.meta = {"balls": [], "uncovered_samples": 0, "resolution": resolution, "eps": eps}
        return rho
    jacs = f.jacobian(points)
    svals = np.linalg.svd(jacs, compute_uv=False)
    if svals.shape[1] > m:
        bad = svals[:, m] > 1e-6 * np.maximum(svals[:, 0], 1e-12)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise RankConditionError(
                f"rank of Df exceeds {m} at sample {i}: {points[i].tolist()} "
                f"(sigma_{m+1} = {svals[i, m]:.3e})"
            )
    if resolution is None:
        spacing, probes, pairs, fallback = _grid.median_spacing(points, 4096)
        logger.debug("native resolution: %d pairs measured of %d, %d fallback probes",
                     pairs, probes * len(points), fallback)
        resolution = _check_resolution(spacing)
    if cluster_gap is None:
        cluster_gap = resolution * 8.0
    centers, outer_radii, inner_radii, uncovered = _cluster_balls(points, cluster_gap, region)
    rng = np.random.default_rng(seed)
    zeta = plateau_step(0.0, 1.0, max_slope=2.0)

    balls, meta = [], []
    for b_idx in range(len(centers)):
        a = centers[b_idx]
        r = float(outer_radii[b_idx])
        r_in = float(inner_radii[b_idx])
        in_ball = np.linalg.norm(points - a, axis=1) < r
        xb = points[in_ball]
        if len(xb) == 0:
            continue
        gamma_loc = (2.0 * r / (r - r_in) + 1.0) * 8.0
        cone = min(0.9 * eps / gamma_loc, 0.95)
        ja = f.jacobian(a)
        u, s, vt = np.linalg.svd(ja)
        t_plane = Plane(vt[:m].T)
        frames, scores, best, baseline, own = _direction_search(
            xb, t_plane, cone, direction_budget, rng, resolution)
        plane = Plane(frames[best], orthonormalize=False)
        score = int(scores[best])
        if score > threshold_factor * own:
            raise DirectionSearchError(
                f"no direction below threshold in ball {b_idx} "
                f"(best {score} cells vs own {own} cells)"
            )
        cell = resolution**m
        balls.append((a, r, r - r_in, build_rotation(plane, t_plane)))
        meta.append(
            {
                "center": a.tolist(),
                "r": r,
                "tilt": projector_distance(plane, t_plane),
                "projected_estimate": score * cell,
                "baseline_estimate": baseline * cell,
                "candidates": len(frames),
                "best_index": best,
                "own_estimate": own * cell,
                "threshold_estimate": threshold_factor * own * cell,
            }
        )

    centers_arr = np.array([b[0] for b in balls])
    radii_arr = np.array([b[1] for b in balls])

    def evaluate(x, jac):
        val = x.copy()
        der = np.broadcast_to(np.eye(n), (len(x), n, n)).copy() if jac else None
        if not balls:
            return val, der
        # each point to its nearest centre, kept when inside that ball
        d = np.linalg.norm(x[:, None, :] - centers_arr[None, :, :], axis=2)
        idx = np.argmin(d, axis=1)
        idx = np.where(d[np.arange(len(x)), idx] < radii_arr[idx], idx, -1)
        for k, (center, r, width, rot) in enumerate(balls):
            sel = idx == k
            if not np.any(sel):
                continue
            v = x[sel] - center
            dist = np.linalg.norm(v, axis=1)
            s, sd = zeta((r - dist) / width, jac)
            val[sel] = x[sel] + rot.displacement(s, v)
            if jac:
                grad_s = -(sd / width)[:, None] * (v / np.maximum(dist, 1e-300)[:, None])
                der[sel] = rot.evaluate(s) + np.einsum(
                    "ni,nj->nij", np.einsum("nij,nj->ni", rot.derivative(s), v), grad_s)
        return val, der

    rho = SmoothMap(
        n, n, evaluate=evaluate,
        support=UnionRegion([Ball(b[0], b[1]) for b in balls]) if balls else None,
        name="unrect_perturb",
        meta={"balls": meta, "uncovered_samples": len(uncovered), "resolution": resolution, "eps": eps},
    )
    return rho
