"""Reference implementations the vectorised library code is checked against.

Each is the straightforward per-profile, per-centre or per-candidate
version of a library routine, kept as written before the routine was
batched: ``SmoothPiecewiseLinearOracle`` loops over the corners of one
profile, ``plateau_step_oracle``, ``retraction_profile_oracle`` and
``collar_alpha_oracle`` are the composite profiles as pairs of closures
(value, derivative), each evaluating its segments on its own,
``recentering_map_oracle`` builds one centre's map with a
profile object per coordinate, and ``select_center_oracle`` builds and
evaluates one punctured projection per candidate centre.
``punctured_jacobians_oracle`` and ``candidate_singular_values_oracle`` run
the chain after the recentering on every stacked row instead of once per
distinct row.  The GF(2)
oracles are the dense solver as it was before the sparse column
reduction: ``boundary_matrix_oracle`` fills a uint8 matrix cube by cube,
``gf2_rref_oracle`` row-reduces it, and ``spans_oracle`` eliminates on the
dense columns of the chain's support; ``gf2_solve`` and ``gf2_nullspace``
run the library's column reduction (``solver._Reduction``) on a dense
matrix, so that it can be compared with them, and ``_to_bits`` reads a
reduction's bitsets back as vectors.  ``facets_oracle`` builds the facet
rows from ``DyadicCube.facets()`` objects, ``median_spacing_oracle`` (and
``sample_spacing_oracle``, the same at cap 2048) measures every probe
against every sample, and ``audit_minimizer_oracle`` is the audit as one
Python step per audit point: it measures the distance from the point to
every sample once for the ratios, once for the plane fit and once for the
tilt, fits one plane with its own ``svd`` and takes one ``eigvalsh`` per
sample, where the library measures blocks of points against their grid
candidates, sums masses as rows of equal count, stacks the fits of equal
size and takes one ``eigvalsh`` per fit and distinct axis frame.
``direction_search_oracle`` counts each candidate plane's cells with its own
``np.unique(axis=0)``.
The candidate-Jacobian chain's factors are kept as they were before they
skipped work whose bytes are known: ``profile_eval_oracle`` indexes the
intervals with a (C, S, K) compare-and-sum and three ``take_along_axis``
gathers, ``retraction_profile_full`` and ``collar_alpha_full`` evaluate
their smoothstep terms on every entry, ``superellipsoid_gauge_oracle``
raises every ratio through ``pow``, and ``recenter_oracle`` computes
every lateral cutoff of every stage on every (centre, point) row;
``punctured_jacobians_oracle`` recentres with it and multiplies with
``np.einsum``.
``PlaneRotationOracle`` evaluates the rotation path one tau at a time with
``math.cos`` and ``math.sin``, and its ``displacement`` is the purge's
pair loop; ``gauge_grad_oracle`` is each body's gauge gradient computed
apart from its gauge.
``median_spacing_oracle`` and ``audit_minimizer_oracle`` are also the
references for the one grid neighbour search (``_grid.neighbours`` and its
nearest-sample reduction ``_grid.nearest``) that the library's median
spacing and audit share: neither uses a grid, and both scan every sample.
``clearance_oracle``, ``freeze_distance_oracle``,
``coverage_fraction_oracle`` and ``boundary_minima_oracle`` are the four
nearest-sample minima that ``_grid.nearest_all`` replaced, each in its own
blocks.  ``coset_enumeration_oracle`` is ``exhaustive_oracle``'s coset
enumeration in binary order, one XOR per set bit of each combination, from
``initial_chain_oracle``: ``initial_chain`` before the prism filling, the
union of per-generator solutions on the column reduction of the whole
boundary operator, ``boundary_reduction_oracle``, which the library no
longer builds.  ``exhaustive_oracle_reference`` is ``exhaustive_oracle``
as it was before it read its kernel basis from the prism sweep: its Gray
code walks that reduction's kernel and builds a ``Chain2`` per step, and
its branch and bound keeps per-cell lists of touching moves and sums its
frozen bound one cell at a time.
``cluster_balls_oracle`` is the purge's clustering before
``_grid.cell_clusters``: a dict of tuple cells, a union-find over the
tuples and the balls in the sorted order of their roots.  The cube-layer
oracles are the pairwise scans the ``CubeIndex`` replaced: one
row scan per cube for touching pairs, admissibility and ``delta_touching``,
a Python loop over candidate cubes per facet sub-cell, one closed-box test
per cube for point location, and ``intersects`` for neighbours, which
lives here with the other cube predicates no library routine calls:
``scaled_bounds``, ``interiors_overlap`` and ``is_face_of``.
``boundary_admissibility_violations`` adds the boundary-coverage condition,
which no library caller checks, to ``CubeFamily.admissibility_violations``
by ``CubeIndex`` point location (``_uncovered_facets``).
``whitney_family_oracle`` is the queue of cube objects the integer levels
replaced, each cube's corners measured on their own (``_cube_dist_inf``)
and each cube refined on its own ``meets_oracle`` test;
``dist_inf_complement_oracle`` is the open sets' point-by-point distance
before the array forms (for boxes, the recursive cover test of open boxes,
in which a face two boxes share is complement, and the bisection over face
offsets), and ``cubical_complex_oracle`` the set of
canonical ``DyadicCube.faces`` objects with a set lookup of each face's
children, kept as lists of cube objects in a ``ComplexOracle`` that writes
JSON from ``DyadicCube.to_dict``, as the complex did before its rows;
``children``, ``parent`` and ``canonical`` are the cube methods they
called.  ``varifold_to_csv_oracle`` and ``varifold_from_csv_oracle``
are the set-file writer and reader before the table writer and the
whole-array reader: one Python step per row, and no rule on what is read.
``minimize_oracle`` is the annealer before its per-move tables: each step
sums its move's weights with a fancy index, and a value tie compares the
bytes of a copied candidate chain.
``mgs_oracle`` is ``grassmann._mgs`` before it took stacks of frames: one
frame, a 1-D dot per pair of columns and ``np.linalg.norm`` per column;
``haar_sample_oracle``, ``grassmann_grid_oracle``, ``phi_F_oracle``,
``psi_F_oracle`` and ``pushforward_oracle`` draw one Haar plane at a time
with it, as the library did before its frame arrays;
``pushforward_oracle`` also keeps the recursive split, in which the inside
samples and the Haar copies each take their own evaluation of the map.
The tests assert that the library returns the same bytes.

The face, body and plane helpers that only tests call live here too, as
functions of the object: ``tangent_axes``, ``region_contains`` and
``face_contains`` of a ``FaceIndex``; ``gauge``, ``gauge_and_grad`` and
``boundary_point`` of a ``ConvexBody``; and ``plane_span``, the plane
spanned by given vectors.
"""

import bisect
import itertools
import json
import logging
import math

import numpy as np

from gmtkit._profiles import smoothstep, smoothstep_d, smoothstep_i
from gmtkit import _grid, deform
from gmtkit.cubemaps import (
    BallBody,
    Box,
    EllipsoidBody,
    SmoothMap,
    _check_punctured,
    _punctured_factors,
    _punctured_jacobian_rows,
    _recentering_profiles,
    _recentering_rho,
)
from gmtkit.deform import (
    CenterSearchError,
    _inplane_coordinates,
    _restrict_near_cube,
    center_bound_constant,
)
from gmtkit.grassmann import Plane, projector_distance
from gmtkit.cubical import BallSet, BoxUnion, CubeFamily, DyadicCube, PuncturedPlane
from gmtkit.solver import (
    AUDIT_BLOCK,
    Chain2,
    GridComplex,
    InfeasibleError,
    MinimizeResult,
    OracleBudgetError,
    SpanningProblem,
    _chain_key,
    _projection_lower_bound,
    _Reduction,
    _to_int,
    initial_chain,
    spans,
)
from gmtkit.varifold import DiscreteVarifold
from gmtkit.varifold import unit_ball_volume

logger = logging.getLogger("oracles")


class SmoothPiecewiseLinearOracle:
    """A piecewise-linear function with C^2 rounded corners.

    The function has slope ``slopes[i]`` on the interval between knot i-1 and
    knot i, is anchored by ``f(anchor_t) = anchor_v``, and each corner at
    ``knots[j]`` is replaced by a quintic blend on ``[t_j - delta_j, t_j + delta_j]``.
    Outside every blend window the function agrees exactly with the
    underlying piecewise-linear one.  Monotone whenever all slopes are > 0.
    """

    def __init__(self, knots, slopes, anchor_t, anchor_v, deltas=None):
        knots = np.asarray(knots, dtype=float)
        slopes = np.asarray(slopes, dtype=float)
        if len(slopes) != len(knots) + 1:
            raise ValueError("need one more slope than knots")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if deltas is None:
            gaps = np.diff(knots)
            deltas = np.empty(len(knots))
            for j in range(len(knots)):
                left = gaps[j - 1] if j > 0 else np.inf
                right = gaps[j] if j < len(gaps) else np.inf
                deltas[j] = min(left, right) / 8.0
            deltas = np.where(np.isfinite(deltas), deltas, 1.0 / 8.0)
        else:
            deltas = np.asarray(deltas, dtype=float)
        self.knots = knots
        self.slopes = slopes
        self.deltas = deltas
        # values of the un-rounded PL function at the knots
        vals = np.empty(len(knots))
        # anchor sits in interval index ia
        ia = int(np.searchsorted(knots, anchor_t))
        # walk right from the anchor
        v = anchor_v
        t = anchor_t
        for j in range(ia, len(knots)):
            v = v + slopes[j] * (knots[j] - t)
            t = knots[j]
            vals[j] = v
        v = anchor_v
        t = anchor_t
        for j in range(ia - 1, -1, -1):
            v = v - slopes[j + 1] * (t - knots[j])
            t = knots[j]
            vals[j] = v
        self.knot_vals = vals
        # blend windows must not overlap the anchor or each other
        if np.any(np.abs(anchor_t - knots) < deltas):
            raise ValueError("anchor inside a corner blend window")

    def _pl(self, t):
        idx = np.searchsorted(self.knots, t)
        ref_t = np.where(idx > 0, self.knots[np.maximum(idx - 1, 0)], self.knots[0])
        ref_v = np.where(idx > 0, self.knot_vals[np.maximum(idx - 1, 0)], self.knot_vals[0])
        return ref_v + self.slopes[idx] * (t - ref_t)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = self._pl(t)
        for j in range(len(self.knots)):
            dj = self.deltas[j]
            ds = self.slopes[j + 1] - self.slopes[j]
            if ds == 0.0:
                continue
            u = (t - self.knots[j]) / dj
            corr = ds * dj * (2.0 * smoothstep_i((u + 1.0) / 2.0) - np.maximum(u, 0.0))
            out = out + np.where(np.abs(u) < 1.0, corr, 0.0)
        return out

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.knots, t)
        out = self.slopes[idx].astype(float).copy()
        for j in range(len(self.knots)):
            dj = self.deltas[j]
            ds = self.slopes[j + 1] - self.slopes[j]
            if ds == 0.0:
                continue
            u = (t - self.knots[j]) / dj
            inside = np.abs(u) < 1.0
            corr = ds * (smoothstep((u + 1.0) / 2.0) - np.where(u > 0.0, 1.0, 0.0))
            out = out + np.where(inside, corr, 0.0)
        return out


def coordinate_profile_oracle(a_i, rho):
    """Monotone C^2 profile with f(a_i) = 0, f(t) = t for |t| >= 1 - 5 rho/8
    (up to the corner blends), slope 1 on |t - a_i| <= rho/8.  Each corner
    blends over an eighth of its smaller neighbouring gap, and the outer two
    over at most 3 rho/8, so f(t) = t once |t| >= 1 - rho/4."""
    l0, l1 = -1.0 + 5 * rho / 8.0, a_i - rho / 8.0
    r1, r0 = a_i + rho / 8.0, 1.0 - 5 * rho / 8.0
    k_left = (-rho / 8.0 - l0) / (l1 - l0)
    k_right = (r0 - rho / 8.0) / (r0 - r1)
    knots = [l0, l1, r1, r0]
    gaps = np.diff(knots)
    cap = 3 * rho / 8.0
    deltas = [min(gaps[0] / 8.0, cap), min(gaps[0], gaps[1]) / 8.0,
              min(gaps[1], gaps[2]) / 8.0, min(gaps[2] / 8.0, cap)]
    return SmoothPiecewiseLinearOracle(
        knots, [1.0, k_left, 1.0, k_right, 1.0], a_i, 0.0, deltas
    )


def plateau_step_oracle(a, b, max_slope=None):
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


def retraction_profile_oracle(eps):
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


def collar_alpha_oracle(delta):
    """Profile with alpha(u) = 1 for u <= 1, alpha(u) = u for u >= delta,
    1 <= alpha(u) <= u in between, 0 <= alpha' <= 1.5."""

    def a_w(w):
        w = np.asarray(w, dtype=float)
        bump = np.minimum(smoothstep(2 * w), smoothstep(2 - 2 * w))
        return smoothstep(w) + bump

    # integral of a_w from 0 to w, in closed form
    def a_int(w):
        w = np.asarray(w, dtype=float)
        base = smoothstep_i(w)
        low = 0.5 * smoothstep_i(np.minimum(2 * w, 1.0))
        high = np.where(w > 0.5, 0.5 * (0.5 - smoothstep_i(2.0 - 2.0 * w)), 0.0)
        return base + low + high

    span = delta - 1.0

    def value(u):
        u = np.asarray(u, dtype=float)
        w = (u - 1.0) / span
        mid = 1.0 + span * a_int(np.clip(w, 0.0, 1.0))
        return np.where(u <= 1.0, 1.0, np.where(u >= delta, u, mid))

    def deriv(u):
        u = np.asarray(u, dtype=float)
        w = (u - 1.0) / span
        mid = a_w(np.clip(w, 0.0, 1.0))
        return np.where(u <= 1.0, 0.0, np.where(u >= delta, 1.0, mid))

    return value, deriv


def recentering_map_oracle(a):
    """Diffeomorphism of R^n fixing everything outside Int Q and moving a to 0.

    Coordinates are recentred one at a time; each stage is laterally
    localized, so once some coordinate x_j is within rho_j/4 of the boundary
    the other coordinates do not move and x_j moves by at most 1 ulp (the
    profile's knot values are walked out from the centre and need not round
    to the outer knots).  Outside Q the map is the exact identity.
    On the core box where all lateral cutoffs equal 1 the map acts as the
    plain product of the 1-d profiles, so f(a) = 0 exactly and
    |f(x)| >= c |x - a| with a dimension constant c.
    """
    a = np.asarray(a, dtype=float)
    n = len(a)
    if np.any(np.abs(a) >= 1.0):
        raise ValueError("centre must lie in the open cube")
    rho = np.minimum(0.5, 1.0 - np.abs(a))
    profiles = [None if a[i] == 0.0 else coordinate_profile_oracle(a[i], rho[i]) for i in range(n)]

    def eta(j, t):
        # lateral cutoff: 1 on |t| <= 1 - rho_j/2, 0 on |t| >= 1 - rho_j/4
        hi = 1.0 - rho[j] / 4.0
        return smoothstep((hi - np.abs(t)) / (rho[j] / 4.0))

    def eta_d(j, t):
        hi = 1.0 - rho[j] / 4.0
        return -np.sign(t) * smoothstep_d((hi - np.abs(t)) / (rho[j] / 4.0)) / (rho[j] / 4.0)

    stages = [i for i in range(n) if profiles[i] is not None]

    def value(x):
        cur = np.array(x, dtype=float, copy=True)
        for i in stages:
            lam = np.ones(len(cur))
            for j in range(n):
                if j != i:
                    lam = lam * eta(j, cur[:, j])
            disp = profiles[i].value(cur[:, i]) - cur[:, i]
            cur[:, i] = cur[:, i] + lam * disp
        return cur

    def jac(x):
        cur = np.array(x, dtype=float, copy=True)
        npts = len(cur)
        total = np.broadcast_to(np.eye(n), (npts, n, n)).copy()
        for i in stages:
            etas = np.ones((npts, n))
            for j in range(n):
                if j != i:
                    etas[:, j] = eta(j, cur[:, j])
            lam = np.prod(np.delete(etas, i, axis=1), axis=1)
            fval = profiles[i].value(cur[:, i])
            fder = profiles[i].derivative(cur[:, i])
            disp = fval - cur[:, i]
            stage_jac = np.broadcast_to(np.eye(n), (npts, n, n)).copy()
            stage_jac[:, i, i] = 1.0 + lam * (fder - 1.0)
            for j in range(n):
                if j == i:
                    continue
                others = np.ones(npts)
                for l in range(n):
                    if l != i and l != j:
                        others = others * etas[:, l]
                stage_jac[:, i, j] = disp * eta_d(j, cur[:, j]) * others
            total = np.einsum("nij,njk->nik", stage_jac, total)
            cur[:, i] = cur[:, i] + lam * disp
        return total

    support = Box(-np.ones(n), np.ones(n))
    return SmoothMap(
        n, n, value, jac, support=support, name="recenter",
        meta={"center": a.tolist(), "rho": rho.tolist()},
    )


def punctured_projection_oracle(a, eps):
    """cubemaps.punctured_cube_projection with the reference recentering map."""
    n = len(a)
    l, q, _ = _punctured_factors(n, eps)
    phi = SmoothMap.compose(l, q, recentering_map_oracle(a))
    phi.support = Box(-np.ones(n) * (1 + eps), np.ones(n) * (1 + eps))
    return phi


def punctured_jacobians_oracle(centres, x, eps):
    """The (C, S, n, n) Jacobians of cubemaps._punctured_jacobian_rows
    scattered back, as computed before the row dedup: the factors q and l and
    the einsum chain products run on every one of the C * S rows recentred
    by ``recenter_oracle``."""
    _check_punctured(centres, eps)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("points must lie in the closed cube")
    count, n = centres.shape
    l, q, _ = _punctured_factors(n, eps)
    cur, jac = recenter_oracle(centres, _recentering_profiles(centres), x)
    cur, jq = q.value_and_jacobian(cur.reshape(-1, n))
    jac = np.einsum("nij,njk->nik", jq, jac.reshape(-1, n, n))
    jac = np.einsum("nij,njk->nik", l.jacobian(cur), jac)
    return jac.reshape(count, len(x), n, n)


def candidate_singular_values_oracle(cand_r, u, eps):
    """deform._candidate_singular_values before the row dedup: one SVD per
    row of each chunk of about deform.CANDIDATE_ROWS rows."""
    step = max(1, deform.CANDIDATE_ROWS // len(u))
    for c in range(0, len(cand_r), step):
        yield np.linalg.svd(punctured_jacobians_oracle(cand_r[c:c + step], u, eps),
                            compute_uv=False)


def candidate_singular_values_rows_oracle(cand_r, u, eps):
    """deform._candidate_singular_values before the position dedup: chunks
    of about deform.CANDIDATE_ROWS rows counted over every row of u, Haar
    copies included, each recentred by _punctured_jacobian_rows, which
    merges equal recentred rows within the chunk."""
    step = max(1, deform.CANDIDATE_ROWS // len(u))
    for c in range(0, len(cand_r), step):
        jac, inverse = _punctured_jacobian_rows(cand_r[c:c + step], u, eps)
        yield np.linalg.svd(jac, compute_uv=False)[inverse]


def select_center_oracle(cube, measures, eps, *, rng=None, budget=64, slack=0.5):
    """deform.select_center, building and evaluating one map per candidate."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    rng = np.random.default_rng(0) if rng is None else rng
    k = cube.dim
    iota = eps / math.sqrt(2.0)
    eps_r = 2.0 * iota / cube.side
    active = []
    for v in measures:
        mask = _restrict_near_cube(v, cube, eps)
        if np.any(mask) and v.weights[mask].sum() > 0:
            active.append((v, mask))
    if not active:
        return cube.center(), {"branch": "empty", "candidates_tried": 0}
    dims = sorted({v.dim for v, _ in active})
    if dims[-1] < k:
        total = len(active)
        # evaluate the whole candidate budget: among the candidates meeting
        # the averaged derivative bound (the averaging argument guarantees a
        # positive fraction do), keep the one with the smallest sampled mass-growth
        # factor; any passing candidate is legitimate, the best one tightens
        # and stabilizes the empirical transport constants
        cand_r = rng.uniform(-0.5, 0.5, (budget, k))
        best_pass = None
        best_any = None
        for i in range(budget):
            phi = punctured_projection_oracle(cand_r[i], min(eps_r, 0.2499))
            ok = True
            growth = 0.0
            ratios = []
            for v, mask in active:
                u, _, _, _ = _inplane_coordinates(cube, v.points[mask])
                sv = np.linalg.svd(phi.jacobian(u), compute_uv=False)
                w = v.weights[mask]
                wsum = np.sum(w)
                ratio = float(np.sum(w * sv[:, 0] ** v.dim) / wsum)
                jm = np.prod(sv[:, : v.dim], axis=1)
                growth = max(growth, float(np.sum(w * jm) / wsum))
                bound = total * center_bound_constant(k, v.dim) * (1.0 + slack)
                ratios.append((ratio, bound))
                if ratio > bound:
                    ok = False
            if best_any is None or ratios[0][0] < best_any[1][0][0]:
                best_any = (cand_r[i], ratios)
            if ok and (best_pass is None or growth < best_pass[0]):
                best_pass = (growth, i, ratios)
        if best_pass is not None:
            growth, i, ratios = best_pass
            a = cube.center()
            a[list(cube.axes)] += cand_r[i] * cube.side / 2.0
            return a, {
                "branch": "averaged",
                "candidates_tried": budget,
                "growth_estimate": growth,
                "ratios": [r for r, _ in ratios],
                "bounds": [b for _, b in ratios],
            }
        raise CenterSearchError(
            f"no centre met the derivative bound in {budget} tries for {cube}; "
            f"best ratios {best_any[1]}"
        )
    if dims[0] < k:
        raise CenterSearchError("mixed measure dimensions at one cube are unsupported")
    # all dimensions equal dim(cube): pick a candidate far from the support
    support = np.vstack([v.points[mask] for v, mask in active])
    best_a, best_d = None, -1.0
    for attempt in range(budget):
        a_r = rng.uniform(-0.5, 0.5, k)
        a = cube.center()
        a[list(cube.axes)] += a_r * cube.side / 2.0
        d = float(np.min(np.linalg.norm(support - a, axis=1)))
        if d > best_d:
            best_a, best_d = a, d
    if best_d <= cube.side * 1e-6:
        raise CenterSearchError(f"no candidate clear of the support in {cube}")
    return best_a, {"branch": "off-support", "clearance": best_d, "candidates_tried": budget}


def boundary_matrix_oracle(cx, k):
    """The mod-2 boundary operator of a GridComplex as a dense uint8 matrix."""
    mat = np.zeros((cx.count(k - 1), cx.count(k)), dtype=np.uint8)
    for j, cube in enumerate(cx.cells[k]):
        for f in cube.facets():
            mat[cx.index[f][1], j] ^= 1
    return mat


def gf2_rref_oracle(a):
    """Row-reduce a copy of a over GF(2); returns (rref, pivot_columns)."""
    a = a.copy() % 2
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hit = np.nonzero(a[r:, c])[0]
        if len(hit) == 0:
            continue
        pr = r + hit[0]
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        mask = a[:, c].astype(bool)
        mask[r] = False
        a[mask] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def gf2_solve_oracle(a, b):
    """One solution x of a x = b over GF(2) (free variables 0), or None."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8).reshape(-1, 1)
    aug, pivots = gf2_rref_oracle(np.hstack([a, b]))
    cols = a.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for r, c in enumerate(pivots):
        x[c] = aug[r, cols]
    return x


def gf2_nullspace_oracle(a):
    """Basis of the kernel of a over GF(2), one column per free column."""
    a = np.asarray(a, dtype=np.uint8)
    rref, pivots = gf2_rref_oracle(a)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.uint8)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for r, pc in enumerate(pivots):
            basis[pc, j] = rref[r, fc]
    return basis


def _to_bits(x, size):
    """The first ``size`` bits of the bitset x as a uint8 vector."""
    raw = np.frombuffer(x.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little")


def boundary_reduction_oracle(cx, k):
    """The leftmost column reduction (``solver._Reduction``) of the whole
    boundary operator on the k-cells of a GridComplex."""
    return _Reduction(cx.facets(k).tolist())


def _dense_reduction(a):
    return _Reduction(np.flatnonzero(col).tolist() for col in a.T % 2)


def gf2_solve(a, b):
    """One solution x of a x = b over GF(2) (free variables 0), or None when
    inconsistent: the library's column reduction run on a dense matrix."""
    a = np.asarray(a, dtype=np.uint8)
    x = _dense_reduction(a).solve(_to_int(np.reshape(b, a.shape[0])))
    return None if x is None else _to_bits(x, a.shape[1])


def gf2_nullspace(a):
    """Basis of the kernel of a over GF(2), as columns of the result, from the
    library's column reduction run on a dense matrix."""
    a = np.asarray(a, dtype=np.uint8)
    kernel = [_to_bits(v, a.shape[1]) for v in _dense_reduction(a).kernel]
    return np.array(kernel, dtype=np.uint8).reshape(len(kernel), a.shape[1]).T


def spans_oracle(chain, problem):
    """Whether every generator solves the dense boundary system on the support."""
    mat = boundary_matrix_oracle(problem.complex, problem.m)
    cols = np.nonzero(chain.bits)[0]
    sub = mat[:, cols] if len(cols) else np.zeros((mat.shape[0], 0), dtype=np.uint8)
    for z in problem.generators:
        if gf2_solve_oracle(sub, np.asarray(z, dtype=np.uint8)) is None:
            return False
    return True


def initial_chain_oracle(problem: SpanningProblem) -> Chain2:
    """Union of per-generator elimination solutions of the boundary system."""
    reduction = boundary_reduction_oracle(problem.complex, problem.m)
    union = 0
    for z in problem.generators:
        x = reduction.solve(_to_int(z))
        if x is None:
            raise InfeasibleError("a generator is not a boundary in the full grid")
        union |= x
    return Chain2(problem.complex, problem.m, _to_bits(union, problem.complex.count(problem.m)))


def coset_enumeration_oracle(problem):
    """``exhaustive_oracle``'s enumeration of initial + ker(boundary) in
    binary order, each chain built from the initial bits with one XOR per
    set bit of its combination; (chain, value) of the least (value, cell
    count, bits) among the chains that span."""
    weights = problem.cell_weights()
    start = initial_chain_oracle(problem)
    kernel = [_to_bits(v, problem.complex.count(problem.m)).astype(bool)
              for v in boundary_reduction_oracle(problem.complex, problem.m).kernel]
    best = None
    for combo in range(2 ** len(kernel)):
        bits = start.bits.copy()
        for j in range(len(kernel)):
            if combo >> j & 1:
                bits ^= kernel[j]
        chain = Chain2(problem.complex, problem.m, bits)
        if len(problem.generators) > 1 and not spans(chain, problem):
            continue
        key = (chain.value(weights), chain.count(), _chain_key(bits))
        if best is None or key < best[0]:
            best = (key, chain)
    return best[1], best[0][0]


def exhaustive_oracle_reference(problem: SpanningProblem, budget_dim=18, node_budget=500_000):
    """``solver.exhaustive_oracle`` before it read its kernel basis from the
    prism sweep: the Gray code walks the kernel of the column reduction of
    the whole boundary operator and builds a ``Chain2`` per step, and the
    branch and bound keeps each m-cell's list of touching moves and sums
    its frozen bound one cell at a time.

    Enumerates initial + ker(boundary) in Gray-code order when the kernel
    dimension fits the budget, keeping the least (value, cell count, bits);
    otherwise tries a projection certificate (descent incumbent matching a
    certified lower bound) and falls back to branch and bound over the
    (m+1)-cell generators, erroring out at the node budget.  With several
    generators the incumbent is the initial chain when the descent, which
    does not check spanning, leaves a chain that does not span.
    """
    weights = problem.cell_weights()
    if not problem.generators:
        return Chain2(problem.complex, problem.m), 0.0
    start = initial_chain(problem)
    dim = problem.complex.kernel_dim(problem.m)
    single = len(problem.generators) == 1
    if dim <= budget_dim:
        kernel = [_to_bits(v, problem.complex.count(problem.m)).astype(bool)
                  for v in boundary_reduction_oracle(problem.complex, problem.m).kernel]
        best = None
        bits = start.bits.copy()
        for step in range(2**dim):  # Gray-code order: one kernel vector per step
            if step:
                bits ^= kernel[(step & -step).bit_length() - 1]
            chain = Chain2(problem.complex, problem.m, bits)
            if not single and not spans(chain, problem):
                continue
            val = chain.value(weights)
            key = (val, chain.count(), _chain_key(bits))
            if best is None or key < best[0]:
                best = (key, chain)
        return best[1], best[0][0]
    # descent incumbent
    moves = problem.complex.facets(problem.m + 1)
    bits = start.bits.copy()
    value = start.value(weights)
    improved = True
    while improved:
        improved = False
        for col in moves:
            delta = float(np.sum(weights[col] * (1.0 - 2.0 * bits[col])))
            if delta < -1e-12:
                bits[col] ^= True
                value += delta
                improved = True
    if not (single or spans(Chain2(problem.complex, problem.m, bits), problem)):
        bits, value = start.bits.copy(), start.value(weights)  # the incumbent must span
    lb = _projection_lower_bound(problem, weights)
    if single and value <= lb + 1e-9:
        return Chain2(problem.complex, problem.m, bits), value
    # branch and bound over (m+1)-cell flips with a frozen-cell bound
    n_moves = len(moves)
    touching = [[] for _ in range(problem.complex.count(problem.m))]
    for j, col in enumerate(moves):
        for c in col:
            touching[c].append(j)
    best_bits, best_val = bits.copy(), value
    nodes = 0

    def frozen_bound(cur_bits, depth):
        val = 0.0
        for c in np.nonzero(cur_bits)[0]:
            if all(j < depth for j in touching[c]):
                val += weights[c]
        return val

    def dfs(depth, cur_bits, cur_val):
        nonlocal best_bits, best_val, nodes
        nodes += 1
        if nodes > node_budget:
            raise OracleBudgetError(
                f"oracle budget exceeded: kernel dim {dim}, {nodes} nodes"
            )
        if depth == n_moves:
            if cur_val < best_val - 1e-12:
                chain = Chain2(problem.complex, problem.m, cur_bits)
                if single or spans(chain, problem):
                    best_bits, best_val = cur_bits.copy(), cur_val
            return
        if frozen_bound(cur_bits, depth) >= best_val - 1e-12:
            return
        col = moves[depth]
        delta = float(np.sum(weights[col] * (1.0 - 2.0 * cur_bits[col])))
        order = (0, 1) if delta >= 0 else (1, 0)
        for pick in order:
            if pick == 0:
                dfs(depth + 1, cur_bits, cur_val)
            else:
                nb = cur_bits.copy()
                nb[col] ^= True
                dfs(depth + 1, nb, cur_val + delta)

    dfs(0, bits, value)
    return Chain2(problem.complex, problem.m, best_bits), best_val


def grid_index_oracle(cx):
    """cube -> (k, row in cells[k]) of a GridComplex, as the dict of every
    cell that ``GridComplex.index`` built before it read the cell keys."""
    return {cube: (k, i) for k, cubes in cx.cells.items() for i, cube in enumerate(cubes)}


def facets_oracle(cx, k):
    """The facet rows of a GridComplex from ``DyadicCube.facets()`` objects."""
    rows = [sorted(cx.index[f][1] for f in cube.facets()) for cube in cx.cells[k]]
    return np.array(rows, dtype=np.intp).reshape(cx.count(k), 2 * k)


def median_spacing_oracle(points, cap):
    """The median distance from each probe of ``_grid.median_spacing`` (every
    (N // cap)-th sample, all of them up to ``cap``) to its nearest distinct
    sample, every probe against 256 samples at a time (inf when none has one)."""
    probes = points[:: max(1, len(points) // cap)]
    mins = np.full(len(probes), np.inf)
    for start in range(0, len(points), 256):
        d = np.linalg.norm(probes[:, None, :] - points[None, start : start + 256, :], axis=2)
        d[d == 0.0] = np.inf
        mins = np.minimum(mins, d.min(axis=1))
    finite = mins[np.isfinite(mins)]
    return float(np.median(finite)) if len(finite) else math.inf


def sample_spacing_oracle(points):
    """``varifold.sample_spacing``: the exact median spacing at cap 2048."""
    return median_spacing_oracle(np.atleast_2d(points), 2048)


def density_ratio_oracle(v, x, radii, spacing):
    """(radius, mass / r^m, reliable) per radius, from its own distances."""
    d = np.linalg.norm(v.points - x, axis=1)
    return [(float(r), float(v.weights[d <= r].sum()) / r**v.dim, bool(r >= 5.0 * spacing))
            for r in radii]


def audit_minimizer_oracle(chain, radii=None, subdivision=8, ratio_bounds=(0.9, 1.1),
                           fit_radius=None, audit_points=None):
    """The density-ratio and tilt audit, computing the distance from each
    audit point three times: for the ratios, the plane fit and the tilt."""
    m = chain.m
    v = chain_to_varifold_oracle(chain, subdivision=subdivision)
    side = chain.complex.side
    if radii is None:
        radii = [side * f for f in (1.2, 1.6, 2.0)]
    if fit_radius is None:
        fit_radius = side * 1.5
    omega = unit_ball_volume(m)
    lo, hi = ratio_bounds[0] * omega, ratio_bounds[1] * omega
    bvec = chain.boundary()
    boundary_cells = [chain.complex.cells[m - 1][i] for i in np.nonzero(bvec)[0]]
    bpts = np.array([c.center() for c in boundary_cells]) if boundary_cells else np.zeros((0, chain.complex.n))
    if audit_points is None:
        audit_points = [c.center() for c in chain.cells()]
    spacing = sample_spacing_oracle(v.points)
    entries = []
    tilt_total = 0.0
    tilt_weight = 0.0
    for x in audit_points:
        x = np.asarray(x, dtype=float)
        ratios = density_ratio_oracle(v, x, radii, spacing)
        near_boundary = bool(len(bpts) and np.min(np.linalg.norm(bpts - x, axis=1)) <= max(radii))
        flags = []
        for _, ratio, reliable in ratios:
            if not reliable:
                flags.append("unreliable")
            elif near_boundary:
                flags.append("boundary")
            elif lo <= ratio <= hi:
                flags.append("ok")
            else:
                flags.append("violation")
        fit = None
        sel = np.linalg.norm(v.points - x, axis=1) <= fit_radius
        if sel.sum() >= m + 1:
            pts = v.points[sel]
            _, _, vt = np.linalg.svd(pts - pts.mean(axis=0), full_matrices=False)
            fit = Plane(vt[:m].T)
        tilt = None
        if fit is not None:
            sel = np.linalg.norm(v.points - x, axis=1) <= fit_radius
            frames = v.frames[sel]
            pf = fit.projector()
            pt = np.einsum("nij,nkj->nik", frames, frames)
            eig = np.linalg.eigvalsh(pt - pf)
            d2 = np.maximum(eig[:, -1], -eig[:, 0]) ** 2
            ws = v.weights[sel]
            tilt = float(np.sum(ws * d2))
            tilt_total += tilt
            tilt_weight += float(ws.sum())
        entries.append(
            {
                "point": x.tolist(),
                "ratios": [(r, ratio, flag) for (r, ratio, _), flag in zip(ratios, flags)],
                "boundary": near_boundary,
                "tilt": tilt,
            }
        )
    all_ratios = [
        rec[1] for e in entries for rec in e["ratios"] if rec[2] in ("ok", "violation")
    ]
    return {
        "m": m,
        "omega_m": omega,
        "radii": list(map(float, radii)),
        "ratio_bounds": [lo, hi],
        "min_ratio": min(all_ratios) if all_ratios else None,
        "max_ratio": max(all_ratios) if all_ratios else None,
        "violations": sum(1 for e in entries for rec in e["ratios"] if rec[2] == "violation"),
        "boundary_points": sum(1 for e in entries if e["boundary"]),
        "tilt_excess": tilt_total / tilt_weight if tilt_weight else None,
        "entries": entries,
        "subdivision": subdivision,
    }


def _covering_count_oracle(coords, resolution):
    return len(np.unique(np.floor(coords / resolution).astype(np.int64), axis=0))


def direction_search_oracle(xb, t_plane, cone, direction_budget, rng, resolution):
    """(candidates, scores, best, baseline, own) with one ``np.unique`` per
    candidate plane, and the first strict improvement kept as the winner."""
    n, m = t_plane.frame.shape
    if m == 1 and n == 2:
        base = math.atan2(t_plane.frame[1, 0], t_plane.frame[0, 0])
        amax = math.asin(min(cone, 1.0))
        angles = base + np.linspace(-amax, amax, direction_budget)
        candidates = [plane_span([math.cos(t), math.sin(t)]) for t in angles]
    else:
        candidates = [t_plane]
        while len(candidates) < direction_budget:
            g = t_plane.frame + cone * 0.7 * rng.standard_normal((n, m))
            try:
                cand = Plane(g)
            except ValueError:
                continue
            if projector_distance(cand, t_plane) <= cone:
                candidates.append(cand)
    baseline = _covering_count_oracle(xb @ t_plane.frame, resolution)
    scores, best = [], None
    for k, cand in enumerate(candidates):
        score = _covering_count_oracle(xb @ cand.frame, resolution)
        scores.append(score)
        if best is None or score < scores[best]:
            best = k
    own = _covering_count_oracle(xb, resolution)
    return np.array([c.frame for c in candidates]), np.array(scores, dtype=np.int64), best, baseline, own


class PlaneRotationOracle:
    """A ``PlaneRotation`` as it was before the batched path: ``evaluate`` and
    ``derivative`` loop over the pairs at one tau with ``math.cos`` and
    ``math.sin`` (an array of tau stacks the per-entry results), and
    ``displacement`` is the loop the purge's rho wrote out by hand."""

    def __init__(self, rotation):
        self.angles = rotation.angles
        self.ambient_dim = rotation.ambient_dim

    def _stack(self, one, tau):
        n = self.ambient_dim
        return np.array([one(t) for t in tau]).reshape(len(tau), n, n) if np.ndim(tau) else one(tau)

    def evaluate(self, tau):
        def one(tau):
            m = np.eye(self.ambient_dim)
            for alpha, s, s_hat in self.angles:
                c = math.cos(tau * alpha) - 1.0
                si = math.sin(tau * alpha)
                m += c * (np.outer(s, s) + np.outer(s_hat, s_hat))
                m += si * (np.outer(s_hat, s) - np.outer(s, s_hat))
            return m
        return self._stack(one, tau)

    def derivative(self, tau):
        def one(tau):
            n = self.ambient_dim
            m = np.zeros((n, n))
            for alpha, s, s_hat in self.angles:
                c = math.cos(tau * alpha)
                si = math.sin(tau * alpha)
                m += alpha * (-si * (np.outer(s, s) + np.outer(s_hat, s_hat)))
                m += alpha * (c * (np.outer(s_hat, s) - np.outer(s, s_hat)))
            return m
        return self._stack(one, tau)

    def displacement(self, tau, v):
        delta = np.zeros_like(v)
        for alpha, sv, sh in self.angles:
            cs = np.cos(tau * alpha) - 1.0
            sn = np.sin(tau * alpha)
            vs = v @ sv
            vh = v @ sh
            delta += (cs * vs - sn * vh)[:, None] * sv + (cs * vh + sn * vs)[:, None] * sh
        return delta


def gauge_grad_oracle(body, x):
    """The gauge gradient of a ``BallBody``, ``EllipsoidBody`` or
    ``SuperellipsoidBody`` as each computed it on its own, apart from its gauge."""
    if isinstance(body, BallBody):
        norm = np.linalg.norm(x, axis=1, keepdims=True)
        safe = np.where(norm > 0, norm, 1.0)
        return np.where(norm > 0, x / (safe * body.radius), 0.0)
    if isinstance(body, EllipsoidBody):
        g = np.sqrt(np.sum((x / body.semi_axes) ** 2, axis=1))
        safe = np.where(g > 0, g, 1.0)[:, None]
        return np.where(g[:, None] > 0, x / (body.semi_axes**2) / safe, 0.0)
    ax = np.abs(x)
    mx = np.max(ax, axis=1, keepdims=True)
    s = np.sum((ax / np.where(mx > 0, mx, 1.0)) ** body.power, axis=1)
    norm = mx[:, 0] * s ** (1.0 / body.power)
    safe = np.where(norm > 0, norm, 1.0)
    ratios = np.abs(x) / safe[:, None]
    grad = (ratios ** (body.power - 1)) * np.sign(x) / body.radius
    return np.where(norm[:, None] > 0, grad, 0.0)


def tangent_axes(fi):
    """The free axes of the face F_kappa: T_kappa = span{e_j : kappa_j = 0}."""
    return tuple(j for j, k in enumerate(fi.kappa) if k == 0)


def region_contains(fi, x):
    """Whether points lie in C_kappa (strict inequality on free axes)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ok = np.ones(len(x), dtype=bool)
    for j, k in enumerate(fi.kappa):
        if k == 0:
            ok &= np.abs(x[:, j]) < 1.0
        else:
            ok &= x[:, j] * k >= 1.0
    return ok


def face_contains(fi, x, tol=0.0):
    """Whether points lie on the face F_kappa, within tol."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ok = np.ones(len(x), dtype=bool)
    for j, k in enumerate(fi.kappa):
        if k == 0:
            ok &= np.abs(x[:, j]) <= 1.0 + tol
        else:
            ok &= np.abs(x[:, j] - k) <= tol
    return ok


def gauge(body, x):
    """A convex body's gauge at the rows of x."""
    return body._gauge(x, False)[0]


def gauge_and_grad(body, x):
    """(gauge, gauge gradient) at the rows of x."""
    return body._gauge(x, True)


def boundary_point(body, direction):
    """The point of the body's boundary on the ray through ``direction``."""
    d = np.asarray(direction, dtype=float)
    return d / gauge(body, d[None, :])[0]


def plane_span(*vectors):
    """The plane spanned by the given vectors, orthonormalized."""
    return Plane(np.column_stack([np.asarray(v, dtype=float) for v in vectors]))


# ---------------------------------------------------------------------------
# the nearest-sample minima as each site took them before _grid.nearest_all


def clearance_oracle(centres, support):
    """``select_center``'s off-support clearances: chunks of about
    deform.CANDIDATE_ROWS (centre, sample) pairs, one norm and min each."""
    step = max(1, deform.CANDIDATE_ROWS // len(support))
    return np.concatenate([np.min(np.linalg.norm(support - centres[c:c + step, None], axis=2), axis=1)
                           for c in range(0, len(centres), step)])


def freeze_distance_oracle(center, point_sets):
    """``deform_one_cube``'s distance from the centre to the samples: one norm
    and min per nonempty set, inf when every set is empty."""
    support_pts = [p for p in point_sets if len(p)]
    if support_pts:
        return float(min(np.min(np.linalg.norm(p - center, axis=1)) for p in support_pts))
    return np.inf


def coverage_fraction_oracle(cube, points):
    """``deform._coverage_fraction`` with the whole (5^k, P, n) difference."""
    axes = list(cube.axes)
    lo, hi = cube.bounds()
    ticks = [(np.arange(5) + 0.5) / 5 * (hi[a] - lo[a]) + lo[a] for a in axes]
    mesh = np.stack(np.meshgrid(*ticks, indexing="ij"), axis=-1).reshape(-1, len(axes))
    probes = np.broadcast_to(cube.center(), (len(mesh), cube.ambient_dim)).copy()
    probes[:, axes] = mesh
    if len(points) == 0:
        return 0.0
    d = np.linalg.norm(probes[:, None, :] - points[None, :, :], axis=2)
    return float(np.mean(d.min(axis=1) <= cube.side / 5))


def boundary_minima_oracle(xs, bpts):
    """The audit's distance from each point to the boundary cell centres, in
    blocks of about solver.AUDIT_BLOCK pairs (callers guard empty sets)."""
    out = np.empty(len(xs))
    step = max(1, AUDIT_BLOCK // len(bpts))
    for start in range(0, len(xs), step):
        out[start:start + step] = _grid.pair_norms(bpts - xs[start:start + step, None]).min(axis=1)
    return out


# ---------------------------------------------------------------------------
# the cube layer's pairwise scans, as they were before the CubeIndex


def scaled_bounds(cube, level):
    """Integer bounds of the cube re-expressed at a finer (or equal) level."""
    if level < cube.level:
        raise ValueError("can only rescale to a finer level")
    f = 1 << (level - cube.level)
    lo, hi = cube.bounds_int()
    return lo * f, hi * f


def intersects(a, b):
    """Closed-set intersection test, exact in integers."""
    level = max(a.level, b.level)
    alo, ahi = scaled_bounds(a, level)
    blo, bhi = scaled_bounds(b, level)
    return bool(np.all(ahi >= blo) and np.all(bhi >= alo))


def interiors_overlap(a, b):
    """Relative interiors overlap: same affine span, open overlap on it."""
    if a.axes != b.axes:
        return False
    level = max(a.level, b.level)
    alo, ahi = scaled_bounds(a, level)
    blo, bhi = scaled_bounds(b, level)
    free = np.isin(np.arange(a.ambient_dim), a.axes)
    return bool(np.all(np.where(free, np.minimum(ahi, bhi) > np.maximum(alo, blo), alo == blo)))


def is_face_of(a, b):
    """Whether a is a face of b at the same level."""
    if a.level != b.level:
        return False
    alo, ahi = a.bounds_int()
    blo, bhi = b.bounds_int()
    return bool(np.all(alo >= blo) and np.all(ahi <= bhi))


def touching_pairs_oracle(cubes):
    """Index pairs i < j of cubes whose closed sets meet, one row scan per cube."""
    finest = max(c.level for c in cubes)
    lo = np.array([scaled_bounds(c, finest)[0] for c in cubes])
    hi = np.array([scaled_bounds(c, finest)[1] for c in cubes])
    out = []
    for i in range(len(cubes)):
        touch = np.all(hi[i + 1 :] >= lo[i], axis=1) & np.all(hi[i] >= lo[i + 1 :], axis=1)
        out += [(i, i + 1 + int(j)) for j in np.nonzero(touch)[0]]
    return out


def admissibility_violations_oracle(family, check_boundary=False):
    """``CubeFamily.admissibility_violations`` by pairwise scans."""
    out = []
    cubes = family.cubes
    if cubes:
        finest = max(c.level for c in cubes)
        lo = np.array([scaled_bounds(c, finest)[0] for c in cubes])
        hi = np.array([scaled_bounds(c, finest)[1] for c in cubes])
        levels = np.array([c.level for c in cubes])
        for i in range(len(cubes)):
            touch = np.all(hi[i + 1 :] >= lo[i], axis=1) & np.all(hi[i] >= lo[i + 1 :], axis=1)
            overlap = touch & np.all(
                np.minimum(hi[i + 1 :], hi[i]) > np.maximum(lo[i + 1 :], lo[i]), axis=1
            )
            bad_ratio = touch & (np.abs(levels[i + 1 :] - levels[i]) > 1)
            for j in np.nonzero(overlap)[0]:
                out.append(("interior-overlap", cubes[i], cubes[i + 1 + j]))
            for j in np.nonzero(bad_ratio & ~overlap)[0]:
                out.append(("size-ratio", cubes[i], cubes[i + 1 + j]))
    if check_boundary:
        finest = max(c.level for c in cubes) if cubes else 0
        for a in cubes:
            others = [b for b in cubes if b != a and intersects(b, a)]
            for facet in a.facets():
                if not _facet_covered_oracle(facet, others, finest + 1):
                    out.append(("boundary-uncovered", a, facet))
    return out


def _uncovered_facets(family):
    """(cube, facet number) pairs, ascending, of the facets with a sub-cell
    one level below the finest whose midpoint no other cube holds."""
    n, idx = family.ambient_dim, family.index
    out = []
    for level in np.unique(idx.levels):
        members = np.nonzero(idx.levels == level)[0]
        f = 1 << (idx.finest + 1 - int(level))
        # doubled sub-cell midpoints of the facets of the level's cube at the origin
        mids = np.array([list(itertools.product(*[range(1, 2 * f, 2) if j in facet.axes else [2 * f * c]
                                                  for j, c in enumerate(facet.corner)]))
                         for facet in DyadicCube(int(level), (0,) * n, tuple(range(n)), n).facets()])
        pts = (idx.lo[members] << 2)[:, None, None] + mids
        r, c = idx.locate(pts.reshape(-1, n) * 2.0 ** -(idx.finest + 2))
        covered = np.zeros(pts.shape[:3], dtype=bool)
        covered.flat[r[c != members[r // covered[0].size]]] = True
        a, k = np.nonzero(~covered.all(axis=2))
        out += zip(members[a].tolist(), k.tolist())
    return sorted(out)


def boundary_admissibility_violations(family):
    """``family.admissibility_violations()`` and then the boundary-coverage
    condition: one "boundary-uncovered" row per facet ``_uncovered_facets``
    finds by ``CubeIndex`` point location (the library checks only the
    first two conditions)."""
    return family.admissibility_violations() + [("boundary-uncovered", family.cubes[a], family.cubes[a].facets()[f])
                                                for a, f in _uncovered_facets(family)]


def _facet_covered_oracle(facet, candidates, level):
    """Whether every sub-cell of the facet (at the given level) lies in some
    candidate cube.  Exact integer midpoint test."""
    lo, hi = scaled_bounds(facet, level)
    axes = facet.axes
    ranges = [range(lo[a], hi[a]) for a in axes]
    scaled = [scaled_bounds(c, level) for c in candidates]
    for combo in itertools.product(*ranges):
        # midpoint of the sub-cell, doubled to stay integer
        mid2 = 2 * lo.copy()
        for a, v in zip(axes, combo):
            mid2[a] = 2 * v + 1
        ok = False
        for clo, chi in scaled:
            if np.all(mid2 >= 2 * clo) and np.all(mid2 <= 2 * chi):
                ok = True
                break
        if not ok:
            return False
    return True


def contains_point_oracle(family, x):
    """``CubeFamily.contains_point``, one closed-box test per cube."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ok = np.zeros(len(x), dtype=bool)
    for c in family.cubes:
        lo, hi = c.bounds()
        ok |= np.all((x >= lo) & (x <= hi), axis=1)
    return ok


def interior_contains_oracle(family, x):
    """``CubeFamily.interior_contains`` over ``contains_point_oracle``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    finest = max(c.level for c in family.cubes) + 1
    h = 2.0 ** (-finest) / 2.0
    ok = np.ones(len(x), dtype=bool)
    n = family.ambient_dim
    for signs in itertools.product((-1, 1), repeat=n):
        probe = x + h * np.array(signs, dtype=float)
        ok &= contains_point_oracle(family, probe)
    return ok


def neighbors_oracle(family, cube, rings):
    """``test_cubical.neighbors`` by ``intersects`` over the family."""
    if cube not in set(family.cubes):
        raise ValueError("cube is not a member of the family")
    current = {cube}
    for _ in range(rings):
        nxt = set(current)
        for r in family:
            if any(intersects(r, c) for c in current):
                nxt.add(r)
        current = nxt
    return sorted(current)


def max_touching_oracle(complex_):
    """``deform._max_touching``: each cell's touching count by a row scan."""
    cubes = [c for k in sorted(complex_.by_dim) for c in complex_.by_dim[k]]
    finest = max(c.level for c in cubes)
    lo = np.array([scaled_bounds(c, finest)[0] for c in cubes])
    hi = np.array([scaled_bounds(c, finest)[1] for c in cubes])
    worst = 1
    for i in range(len(cubes)):
        touch = np.all(hi >= lo[i], axis=1) & np.all(hi[i] >= lo, axis=1)
        worst = max(worst, int(touch.sum()))
    return worst


# ---------------------------------------------------------------------------
# the cube builders one object at a time, as they were before the integer rows


def children(cube):
    """The 2^dim subdivision at level + 1 (free axes split, others rescale)."""
    base = tuple(2 * c for c in cube.corner)
    out = []
    for offs in itertools.product((0, 1), repeat=cube.dim):
        corner = list(base)
        for a, o in zip(cube.axes, offs):
            corner[a] += o
        out.append(DyadicCube(cube.level + 1, tuple(corner), cube.axes, cube.ambient_dim))
    return out


def parent(cube):
    """The containing cube one level coarser (floor division of the corner)."""
    return DyadicCube(cube.level - 1, tuple(c // 2 for c in cube.corner), cube.axes, cube.ambient_dim)


def canonical(cube):
    """Minimal-level representation (only 0-cubes are ambiguous).

    The floor keeps later common-refinement shifts within int64 range.
    """
    if cube.dim > 0:
        return cube
    level, corner = cube.level, cube.corner
    while level > -30 and all(c % 2 == 0 for c in corner):
        corner = tuple(c // 2 for c in corner)
        level -= 1
    return DyadicCube(level, corner, cube.axes, cube.ambient_dim)


def _corners(lo, hi):
    """The 2^n corners of the box [lo, hi], the first axis slowest."""
    return np.array(list(itertools.product(*zip(lo, hi))))


def _box_covered(lo, hi, boxes):
    """Whether the union of the open boxes covers the open box (lo, hi)
    (lists of floats; an axis with lo = hi is the one coordinate lo),
    splitting it at the first face of an overlapping box that cuts it.  A cut
    leaves two open halves and the face between them, which must be covered
    too: a face that two boxes share is not."""
    def holds(a, b, blo, bhi):
        return blo < a < bhi if a == b else blo <= a and b <= bhi

    def overlaps(a, b, blo, bhi):
        return blo < a < bhi if a == b else min(b, bhi) > max(a, blo)

    for blo, bhi in boxes:
        if all(map(holds, lo, hi, blo, bhi)):
            return True
    for blo, bhi in boxes:
        if all(map(overlaps, lo, hi, blo, bhi)):
            for j in range(len(lo)):
                for cut in (blo[j], bhi[j]):
                    if lo[j] < cut < hi[j]:
                        return all(_box_covered(lo[:j] + [a] + lo[j + 1:], hi[:j] + [b] + hi[j + 1:], boxes)
                                   for a, b in ((lo[j], cut), (cut, cut), (cut, hi[j])))
            # b fully spans the target in every axis it cuts
            return True
    return False


def dist_inf_complement_oracle(open_set, x):
    """The sup-norm distance from one point to the complement of a
    ``BoxUnion``, ``BallSet`` or ``PuncturedPlane``, as each computed it
    point by point.

    For boxes, the distance is one of the face offsets |x_j - face_j|, and
    r -> (x - r, x + r) covered by the open boxes is monotone: a binary
    search over the sorted offsets with the recursive cover test, in which a
    face that two boxes share is complement.  The boxes are taken relative to
    x, so each comparison is between the offsets themselves; on dyadic faces
    and points that is the arithmetic of the absolute coordinates.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(open_set, PuncturedPlane):
        return float(np.max(np.abs(x - open_set.point)))
    if isinstance(open_set, BallSet):
        x = np.abs(x - open_set.center)
        if np.linalg.norm(x) >= open_set.radius:
            return 0.0
        n = len(x)
        # largest r with |x + r * sign-corner| <= radius for the worst corner
        s = float(np.sum(x))
        disc = s * s + n * (open_set.radius**2 - float(x @ x))
        return (-s + math.sqrt(disc)) / n
    x = x.tolist()
    boxes = [([b - v for b, v in zip(blo.tolist(), x)], [b - v for b, v in zip(bhi.tolist(), x)])
             for blo, bhi in open_set.boxes]
    if not any(all(a < 0.0 < b for a, b in zip(*box)) for box in boxes):  # x in no open box
        return 0.0
    cands = sorted({abs(c) for box in boxes for b in box for c in b} - {0.0})
    inside = bisect.bisect_left(cands, True, key=lambda r: not _box_covered([-r] * len(x), [r] * len(x), boxes))
    return cands[inside - 1] if inside else 0.0


def meets_oracle(open_set, lo, hi):
    """Whether the closed box [lo, hi] meets the open set: for boxes an open
    overlap with one of them, for a ball its point nearest the centre inside."""
    if isinstance(open_set, BoxUnion):
        return any(all(lo[j] < bhi[j] and hi[j] > blo[j] for j in range(len(lo))) for blo, bhi in open_set.boxes)
    if isinstance(open_set, BallSet):
        gap = np.clip(open_set.center, lo, hi) - open_set.center
        return math.sqrt(sum(float(g) * float(g) for g in gap)) < open_set.radius
    return True


def _cube_dist_inf(cube, open_set):
    """Sup-norm distance from the (closed) cube to the complement of the set.

    The least over the cube's corners: exact when the oracle's distance is,
    since dist_inf is 1-Lipschitz in sup-norm and, for BoxUnion-type sets,
    least at a corner.
    """
    return min(dist_inf_complement_oracle(open_set, c) for c in _corners(*cube.bounds()))


def whitney_family_oracle(open_set, bbox, min_level, top_level=None):
    """``cubical.whitney_family`` as a queue of cubes, each cube's corners
    evaluated on their own and each cube refined on its own meets test."""
    lo = np.asarray(bbox[0], dtype=float)
    hi = np.asarray(bbox[1], dtype=float)
    n = len(lo)
    if top_level is None:
        top_level = -int(math.floor(math.log2(max(float(np.max(hi - lo)), 1e-9))))
    side = 2.0 ** (-top_level)
    ilo = np.floor(lo / side + 1e-9).astype(np.int64)
    ihi = np.ceil(hi / side - 1e-9).astype(np.int64)
    queue = [DyadicCube(top_level, tuple(c), tuple(range(n)), n)
             for c in itertools.product(*[range(ilo[j], ihi[j]) for j in range(n)])]
    emitted = []
    truncated = waived_top = 0
    while queue:
        cube = queue.pop()
        if _cube_dist_inf(cube, open_set) > 2.0 * cube.side:
            up = parent(cube)
            if cube.level == top_level and _cube_dist_inf(up, open_set) > 2.0 * up.side:
                waived_top += 1
            emitted.append(cube)
        elif cube.level >= min_level:
            truncated += 1
        elif meets_oracle(open_set, *cube.bounds()):
            queue.extend(children(cube))
    return CubeFamily(emitted, meta={"truncated_below_min_level": truncated, "top_level_parent_waivers": waived_top,
                                     "top_level": top_level, "min_level": min_level})


class ComplexOracle:
    """``cubical.CubicalComplex`` on lists of cube objects: ``by_dim`` maps each
    dimension to its faces, JSON comes from ``DyadicCube.to_dict``."""

    def __init__(self, family, by_dim):
        self.family, self.by_dim = family, by_dim

    def to_json(self):
        payload = {str(k): [c.to_dict() for c in v] for k, v in sorted(self.by_dim.items())}
        return json.dumps({"ambient_dim": self.family.ambient_dim, "cubes": payload}, sort_keys=True)

    def skeleton_to_obj(self, k):
        return cubes_to_obj_oracle(self.by_dim.get(k, []), k)


def cubes_to_obj_oracle(cubes, k):
    """``cubical.cubes_to_obj`` as it was on lists of DyadicCubes, one dict
    lookup per vertex: vertices plus edges (k=1), quads (k=2) or, for any
    other k, one point at each cube's lower corner."""
    verts = {}
    lines = []

    def vid(p):
        key = tuple(round(float(v), 12) for v in p)
        if key not in verts:
            verts[key] = len(verts) + 1
        return verts[key]

    elements = []
    for c in cubes:
        lo, hi = c.bounds()
        if k == 1:
            b = lo.copy()
            b[c.axes[0]] = hi[c.axes[0]]
            elements.append(("l", [vid(lo), vid(b)]))
        elif k == 2:
            ax, ay = c.axes
            p = [lo.copy() for _ in range(4)]
            p[1][ax] = p[2][ax] = hi[ax]
            p[2][ay] = p[3][ay] = hi[ay]
            elements.append(("f", [vid(q) for q in p]))
        else:
            elements.append(("p", [vid(lo)]))
    for key in sorted(verts, key=verts.get):
        pad = list(key) + [0.0] * (3 - len(key))
        lines.append("v " + " ".join(repr(float(v)) for v in pad[:3]))
    for tag, ids in elements:
        lines.append(tag + " " + " ".join(str(i) for i in ids))
    return "\n".join(lines) + "\n"


def cubical_complex_oracle(family):
    """``cubical.cubical_complex`` from ``DyadicCube.faces`` objects, a set of
    canonical faces and a set lookup of each face's children."""
    violations = family.admissibility_violations()
    if violations:
        kind, a, b = violations[0]
        raise ValueError(f"family not admissible ({kind}): {a} / {b}")
    faces_by_dim = {}
    for cube in family:
        for f in cube.faces():
            faces_by_dim.setdefault(f.dim, set()).add(canonical(f))
    # a finer face overlapping the relative interior of f shares f's affine
    # span, so it is one of f's children
    by_dim = {
        k: sorted(faces if k == 0 else {f for f in faces if not any(c in faces for c in children(f))})
        for k, faces in faces_by_dim.items()
    }
    return ComplexOracle(family, by_dim)


# ---------------------------------------------------------------------------
# the purge's clustering, as it was before the integer cell clusters


def cluster_balls_oracle(points, gap, region):
    """``cubemaps._cluster_balls`` with a dict of tuple cells, a union-find
    over those tuples and the balls in the sorted order of their roots."""
    cells = np.floor(points / gap).astype(np.int64)
    order = {}
    for idx, c in enumerate(map(tuple, cells)):
        order.setdefault(c, []).append(idx)
    parent = {c: c for c in order}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    n = points.shape[1]
    offsets = [
        tuple(o)
        for o in np.stack(np.meshgrid(*([[-1, 0, 1]] * n), indexing="ij"), axis=-1).reshape(-1, n)
        if any(o)
    ]
    for c in list(order):
        for off in offsets:
            d = tuple(np.add(c, off))
            if d in order:
                ra, rb = find(c), find(d)
                if ra != rb:
                    parent[ra] = rb
    clusters = {}
    for c, members in order.items():
        clusters.setdefault(find(c), []).extend(members)
    roots = sorted(clusters)
    centers, inner = [], []
    members_by_ball = []
    for root in roots:
        idx = np.array(sorted(clusters[root]))
        pts = points[idx]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        centers.append((lo + hi) / 2.0)
        inner.append(float(np.linalg.norm(hi - lo) / 2.0) * 1.02 + 1e-12)
        members_by_ball.append(idx)
    centers = np.array(centers)
    inner = np.array(inner)
    outer = 2.5 * inner
    if len(centers) > 1:
        d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        outer = np.minimum(outer, 0.48 * d.min(axis=1))
    keep, uncovered = [], []
    for i in range(len(centers)):
        ok = outer[i] >= 1.3 * inner[i]
        if ok and region is not None:
            ok = bool(np.all(centers[i] - outer[i] >= region.lo) and np.all(centers[i] + outer[i] <= region.hi))
        if ok:
            keep.append(i)
        else:
            uncovered.extend(members_by_ball[i].tolist())
    keep = np.array(keep, dtype=int)
    return centers[keep], outer[keep], inner[keep], uncovered


# ---------------------------------------------------------------------------
# the solver's loops over cube objects, as they were before the integer cell keys


def cell_weights_oracle(problem):
    """``SpanningProblem.cell_weights`` from each cube's ``center()`` and one
    axes test per cube."""
    cells = problem.complex.cells[problem.m]
    pts = np.array([c.center() for c in cells])
    out = np.zeros(len(cells))
    side = problem.complex.side
    for axes in itertools.combinations(range(problem.complex.n), problem.m):
        mask = np.array([c.axes == axes for c in cells])
        if not np.any(mask):
            continue
        plane = Plane.axis(problem.complex.n, axes)
        frames = np.broadcast_to(plane.frame, (int(mask.sum()),) + plane.frame.shape)
        out[mask] = problem.integrand.evaluate(pts[mask], frames) * side**problem.m
    return out


def chain_to_varifold_oracle(chain, subdivision=4):
    """``solver.chain_to_varifold`` from each cube's ``bounds()``, one subgrid
    per cube."""
    cells = chain.cells()
    n = chain.complex.n
    if not cells:
        return DiscreteVarifold(np.zeros((0, n)), np.zeros((0, n, chain.m)), np.zeros(0))
    side = chain.complex.side
    sub = subdivision
    parts = []
    for axes in itertools.combinations(range(n), chain.m):
        group = [c for c in cells if c.axes == axes]
        if not group:
            continue
        plane = Plane.axis(n, axes)
        ticks = (np.arange(sub) + 0.5) / sub * side
        mesh = np.stack(np.meshgrid(*([ticks] * chain.m), indexing="ij"), axis=-1).reshape(-1, chain.m)
        pts = []
        for c in group:
            lo, _ = c.bounds()
            p = np.broadcast_to(lo, (len(mesh), n)).copy()
            p[:, list(axes)] += mesh
            pts.append(p)
        pts = np.vstack(pts)
        w = np.full(len(pts), (side / sub) ** chain.m)
        parts.append(DiscreteVarifold.flat(pts, plane, w))
    return DiscreteVarifold.concat(parts)


def projection_lower_bound_oracle(problem, weights):
    """``solver._projection_lower_bound`` with a projected cube per generator
    cell and a scan of every m-cell per forced cell."""
    cx = problem.complex
    n, m = cx.n, problem.m
    best = 0.0
    m_cells = cx.cells[m]
    for axes in itertools.combinations(range(n), m):
        proj_shape = tuple(cx.shape[a] for a in axes)
        proj = GridComplex(m, proj_shape, cx.level, origin=tuple(cx.origin[a] for a in axes))
        reduction = boundary_reduction_oracle(proj, m)
        for z in problem.generators:
            pz = np.zeros(proj.count(m - 1), dtype=np.uint8)
            for i in np.nonzero(np.asarray(z, dtype=np.uint8))[0]:
                cube = cx.cells[m - 1][i]
                if not set(cube.axes) <= set(axes):
                    continue
                pcube = DyadicCube(cx.level, tuple(cube.corner[a] for a in axes),
                                   tuple(axes.index(a) for a in cube.axes), m)
                pz[proj.index[pcube][1]] ^= 1
            x = reduction.solve(_to_int(pz))
            if not x:
                continue
            forced = np.nonzero(_to_bits(x, proj.count(m)))[0]
            total = 0.0
            for fi in forced:
                pcell = proj.cells[m][fi]
                stack_min = math.inf
                for i, cell in enumerate(m_cells):
                    if cell.axes == axes and tuple(cell.corner[a] for a in axes) == pcell.corner:
                        stack_min = min(stack_min, weights[i])
                if math.isfinite(stack_min):
                    total += stack_min
            best = max(best, total)
    return best


def varifold_to_csv_oracle(v, path):
    """``DiscreteVarifold.to_csv`` as it was before the table writer: one
    ``repr(float(.))`` per value and one ``write`` per row."""
    n, m = v.ambient_dim, v.dim
    with open(path, "w") as fh:
        fh.write(f"# gmtkit varifold n={n} m={m}\n")
        for i in range(len(v)):
            coords = ",".join(repr(float(x)) for x in v.points[i])
            weight = repr(float(v.weights[i]))
            if v.isotropic[i]:
                fh.write(f"{coords},isotropic,{weight}\n")
            else:
                fr = ",".join(repr(float(x)) for x in v.frames[i].T.ravel())
                fh.write(f"{coords},{fr},{weight}\n")


def varifold_from_csv_oracle(path):
    """``DiscreteVarifold.from_csv`` as it was before the set-file rule: one
    ``float`` per field and one frame array per row, with no checks."""
    points, frames, weights, iso = [], [], [], []
    n = m = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line.split():
                    if tok.startswith("n="):
                        n = int(tok[2:])
                    if tok.startswith("m="):
                        m = int(tok[2:])
                continue
            parts = line.split(",")
            if n is None:
                raise ValueError("varifold csv requires the header line")
            points.append([float(x) for x in parts[:n]])
            if parts[n] == "isotropic":
                iso.append(True)
                frames.append(np.zeros((n, m)))
                weights.append(float(parts[n + 1]))
            else:
                iso.append(False)
                fr = np.array([float(x) for x in parts[n : n + n * m]]).reshape(m, n).T
                frames.append(fr)
                weights.append(float(parts[n + n * m]))
    if not points:
        if n is None or m is None:
            raise ValueError("varifold csv requires the header line")
        return DiscreteVarifold(np.zeros((0, n)), np.zeros((0, n, m)), np.zeros(0))
    return DiscreteVarifold(np.array(points), np.array(frames), np.array(weights), np.array(iso))


def minimize_oracle(problem: SpanningProblem, seed=0, restarts=3, steps=4000):
    """``solver.minimize`` before its per-move tables: simulated-annealing
    descent over spanning chains.

    Moves add the boundary of a single (m+1)-cell; every would-be acceptance
    is re-checked for spanning and rejected if it breaks it.  Geometric
    cooling by 0.995 a step from twice the largest cell weight,
    deterministic for a fixed seed; restarts keep the best result by
    (value, cell count, lexicographic bits).
    """
    if problem.m + 1 > problem.complex.n:
        raise ValueError("no (m+1)-cells to move across")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    weights = problem.cell_weights()
    if not problem.generators:
        empty = Chain2(problem.complex, problem.m)
        return MinimizeResult(empty, 0.0, [], restarts, 0.0)
    start = initial_chain(problem)
    if not spans(start, problem):
        raise InfeasibleError("initial chain does not span")
    moves = problem.complex.facets(problem.m + 1)
    t0, cooling = float(weights.max()) * 2.0, 0.995
    best = None
    init_val = start.value(weights)
    full_trace = []
    restart_counts = []
    for r in range(restarts):
        rng = np.random.default_rng(seed * 1000 + r)
        bits = start.bits.copy()
        value = start.value(weights)
        temp = t0
        trace = []
        counts = {"proposals": steps, "span_rejects": 0, "certified": 0, "eliminated": 0}
        for step in range(steps):
            j = int(rng.integers(len(moves)))
            col = moves[j]
            delta = float(np.sum(weights[col] * (1.0 - 2.0 * bits[col])))
            accept = delta < -1e-15
            if not accept and delta <= 1e-15:
                # value tie: prefer fewer cells, then lexicographically smaller
                flips = len(col) - 2 * int(bits[col].sum())
                if flips < 0:
                    accept = True
                elif flips == 0:
                    cand = bits.copy()
                    cand[col] ^= True
                    accept = _chain_key(cand) < _chain_key(bits)
            if not accept and temp > 1e-12:
                accept = rng.random() < math.exp(-delta / temp)
            if accept:
                cand_bits = bits.copy()
                cand_bits[col] ^= True
                if not spans(Chain2(problem.complex, problem.m, cand_bits), problem, counts):
                    counts["span_rejects"] += 1
                    temp *= cooling
                    continue
                bits = cand_bits
                value += delta
                trace.append({"restart": r, "step": step, "cell": j, "delta": delta, "value": value})
            temp *= cooling
        # final greedy pass: first-improvement descent
        improved = True
        while improved:
            improved = False
            counts["proposals"] += len(moves)
            for j, col in enumerate(moves):
                delta = float(np.sum(weights[col] * (1.0 - 2.0 * bits[col])))
                if delta < -1e-12:
                    cand_bits = bits.copy()
                    cand_bits[col] ^= True
                    if spans(Chain2(problem.complex, problem.m, cand_bits), problem, counts):
                        bits = cand_bits
                        value += delta
                        trace.append({"restart": r, "step": "greedy", "cell": j, "delta": delta, "value": value})
                        improved = True
                    else:
                        counts["span_rejects"] += 1
        chain = Chain2(problem.complex, problem.m, bits)
        key = (value, chain.count(), _chain_key(bits))
        if best is None or key < best[0]:
            best = (key, chain, trace)
        full_trace.extend(trace)
        restart_counts.append(dict(counts, restart=r, accepts=len(trace), value=value))
        logger.info("minimize restart %(restart)d: %(proposals)d proposals, %(accepts)d accepts, "
                    "%(span_rejects)d broke spanning; checks settled %(certified)d by dc = z, "
                    "%(eliminated)d by elimination; value %(value).6g", restart_counts[-1])
    chain = best[1]
    final_value = chain.value(weights)
    logger.info("minimize: value %.6g with %d cells (initial %.6g)", final_value, chain.count(), init_val)
    return MinimizeResult(chain, final_value, full_trace, restarts, init_val, restart_counts)


def mgs_oracle(columns, tol=1e-9):
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Raises if the columns are numerically dependent (relative to the largest
    column norm).
    """
    a = np.array(columns, dtype=float, copy=True)
    if a.ndim != 2:
        raise ValueError("frame must be a 2d array")
    n, m = a.shape
    if m > n:
        raise ValueError(f"cannot have {m} independent columns in R^{n}")
    scale = max(np.max(np.abs(a)), 1.0) if a.size else 1.0
    q = np.zeros((n, m))
    for j in range(m):
        v = a[:, j]
        for _ in range(2):  # re-orthogonalize once for stability
            for i in range(j):
                v = v - (q[:, i] @ v) * q[:, i]
        norm = np.linalg.norm(v)
        if norm <= tol * scale:
            raise ValueError("frame columns are numerically dependent")
        q[:, j] = v / norm
    return q


def haar_sample_oracle(n, m, seed):
    """A plane drawn from the orthogonally invariant distribution on G(n,m).

    Column span of a Gaussian n x m matrix, orthonormalized; deterministic
    for a fixed seed (an integer or a numpy Generator).
    """
    if not 0 < m <= n:
        raise ValueError(f"need 0 < m <= n, got ({n}, {m})")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((n, m))
    return Plane(mgs_oracle(g), orthonormalize=False)


def grassmann_grid_oracle(n, m, count, seed):
    """The axis planes, then ``count`` Haar samples."""
    planes = [Plane.axis(n, axes) for axes in itertools.combinations(range(n), m)]
    rng = np.random.default_rng(seed)
    planes.extend(haar_sample_oracle(n, m, rng) for _ in range(count))
    return planes


def phi_F_oracle(v, f, grassmann_samples=256, seed=0, with_report=False):
    """Phi_F(V) = sum of weight * F(x, T) over the samples.

    Isotropic samples contribute weight times the Monte-Carlo average of
    F(x, .) over Haar-random planes (count and standard error reported).
    """
    total = 0.0
    report = {"grassmann_samples": 0, "mc_stderr": 0.0}
    tang = v.tangent_part()
    if len(tang):
        total += float(np.sum(tang.weights * f.evaluate(tang.points, tang.frames)))
    iso = v.isotropic_part()
    if len(iso):
        rng = np.random.default_rng(seed)
        draws = np.zeros((grassmann_samples, len(iso)))
        for k in range(grassmann_samples):
            plane = haar_sample_oracle(v.ambient_dim, v.dim, rng)
            frames = np.broadcast_to(plane.frame, (len(iso),) + plane.frame.shape)
            draws[k] = f.evaluate(iso.points, frames)
        means = draws.mean(axis=0)
        total += float(np.sum(iso.weights * means))
        stderr = float(
            np.sum(iso.weights * draws.std(axis=0, ddof=1)) / math.sqrt(grassmann_samples)
        )
        report = {"grassmann_samples": grassmann_samples, "mc_stderr": stderr}
    if with_report:
        return total, report
    return total


def psi_F_oracle(s_r, s_u, f, sup_grid=512, seed=0):
    """Psi_F = Phi_F(rectifiable part) + unrectifiable mass at the sup of F.

    The per-point supremum over tangent planes is estimated on a Grassmann
    grid of Haar samples plus all axis planes.
    """
    if len(s_r) and np.any(s_r.isotropic):
        raise ValueError("rectifiable part must be all-tangent")
    if len(s_u) and not np.all(s_u.isotropic):
        raise ValueError("unrectifiable part must be all-isotropic")
    total = phi_F_oracle(s_r, f) if len(s_r) else 0.0
    if len(s_u):
        sup = np.full(len(s_u), -np.inf)
        for plane in grassmann_grid_oracle(s_u.ambient_dim, s_u.dim, sup_grid, seed):
            frames = np.broadcast_to(plane.frame, (len(s_u),) + plane.frame.shape)
            sup = np.maximum(sup, f.evaluate(s_u.points, frames))
        total += float(np.sum(s_u.weights * sup))
    return total


def _m_jacobians(jacs, frames):
    """||Lambda_m D phi o P_T||: the m-Jacobian along each tangent frame."""
    a = _grid.row_matmul(jacs, frames)
    gram = np.einsum("nji,njk->nik", a, a)
    det = np.linalg.det(gram)
    return np.sqrt(np.maximum(det, 0.0)), a


def pushforward_oracle(phi, v, haar_draws=16, seed=0):
    """phi_# V: transport points, tangents, and weights by the m-Jacobian.

    Isotropic samples are routed through per-sample Haar draws; samples whose
    image plane degenerates keep zero weight and are dropped.

    Samples outside ``phi.support`` (where phi is the exact identity) pass
    through untouched: points, frames, weights and the isotropic flag.  The
    result is then [outside samples, transported samples], in that order, and
    a varifold lying wholly outside the support is returned as it is.
    """
    inside = phi.inside_support(v.points)
    if not inside.all():
        if not inside.any():
            return v
        moved = pushforward_oracle(phi, v.restrict(inside), haar_draws, seed)
        return DiscreteVarifold.concat([v.restrict(~inside), moved])
    parts = []
    tang = v.tangent_part()
    if len(tang):
        img, jacs = phi.value_and_jacobian(tang.points)
        jm, a = _m_jacobians(jacs, tang.frames)
        ok = jm > 1e-12
        if np.any(ok):
            frames, _ = np.linalg.qr(a[ok])
            parts.append(DiscreteVarifold(img[ok], frames, tang.weights[ok] * jm[ok]))
    iso = v.isotropic_part()
    if len(iso):
        rng = np.random.default_rng(seed)
        reps = []
        for _ in range(haar_draws):
            plane = haar_sample_oracle(v.ambient_dim, v.dim, rng)
            frames = np.broadcast_to(plane.frame, (len(iso),) + plane.frame.shape).copy()
            reps.append(DiscreteVarifold(iso.points, frames, iso.weights / haar_draws))
        merged = DiscreteVarifold.concat(reps)
        parts.append(pushforward_oracle(phi, merged))
    if not parts:
        return DiscreteVarifold(
            np.zeros((0, phi.n_out)), np.zeros((0, phi.n_out, v.dim)), np.zeros(0)
        )
    return DiscreteVarifold.concat(parts)


# ---------------------------------------------------------------------------
# the candidate-Jacobian chain before it skipped work whose result is known


def profile_eval_oracle(t, knots, slopes, deltas, knot_vals, derivative=False):
    """_profiles.profile_eval with its (C, S, K) compare-and-sum index and
    three take_along_axis gathers."""
    idx = np.sum(~(t[..., None] <= knots[:, None, :]), axis=-1)  # searchsorted
    slope = np.take_along_axis(slopes, idx, axis=1)
    below = np.maximum(idx - 1, 0)
    out = np.take_along_axis(knot_vals, below, axis=1) + slope * (t - np.take_along_axis(knots, below, axis=1))
    der = slope if derivative else None
    if derivative:  # a NaN t has a NaN derivative
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


def retraction_profile_full(eps):
    """_profiles.retraction_profile evaluating both smoothstep_i bands on
    every entry."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    delta = min(2.0 * eps / (1.0 + eps), 0.5)
    c = 1.0 / (1.0 - delta / 2.0)

    def profile(t, derivative=False):
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        # c times the weight's integral from 0: the plain part up to 1 - delta,
        # the falling band [1 - delta, 1], then the rising band [1, 1 + delta]
        # and 1 beyond it
        val = c * (np.sign(t) * (
            np.minimum(at, 1.0 - delta)
            + delta * (0.5 - smoothstep_i(np.clip((1.0 - np.minimum(at, 1.0)) / delta, 0.0, 1.0)))
            + np.where(at > 1.0, delta * smoothstep_i(np.minimum((at - 1.0) / delta, 1.0))
                       + np.maximum(at - 1.0 - delta, 0.0), 0.0)))
        if not derivative:
            return val, None
        # the plateau weight: 1 but for transitions of width delta at +-1
        return val, c * np.where(at <= 1.0, smoothstep((1.0 - at) / delta), smoothstep((at - 1.0) / delta))

    return profile


def collar_alpha_full(delta):
    """_profiles.collar_alpha evaluating its smoothstep terms on every entry."""
    span = delta - 1.0

    def alpha(u, derivative=False):
        u = np.asarray(u, dtype=float)
        w = np.clip((u - 1.0) / span, 0.0, 1.0)
        # the integral of a_w from 0 to w, in closed form
        a_int = (smoothstep_i(w) + 0.5 * smoothstep_i(np.minimum(2 * w, 1.0))
                 + np.where(w > 0.5, 0.5 * (0.5 - smoothstep_i(2.0 - 2.0 * w)), 0.0))
        val = np.where(u <= 1.0, 1.0, np.where(u >= delta, u, 1.0 + span * a_int))
        if not derivative:
            return val, None
        # a_w(w) = smoothstep(w) plus a bump
        mid = smoothstep(w) + np.minimum(smoothstep(2 * w), smoothstep(2 - 2 * w))
        return val, np.where(u <= 1.0, 0.0, np.where(u >= delta, 1.0, mid))

    return alpha


def superellipsoid_gauge_oracle(body, x, grad):
    """SuperellipsoidBody._gauge raising every ratio through pow, the
    underflowing ones on pow's slow path."""
    # scale-invariant p-norm: no overflow for points far outside
    ax = np.abs(x)
    mx = np.max(ax, axis=1, keepdims=True)
    ratios = ax / np.where(mx > 0, mx, 1.0)
    norm = mx[:, 0] * np.sum(ratios**body.power, axis=1) ** (1.0 / body.power)
    if not grad:
        return norm / body.radius, None
    safe = np.where(norm > 0, norm, 1.0)
    ratios = ax / safe[:, None]  # all <= 1
    out = (ratios ** (body.power - 1)) * np.sign(x) / body.radius
    return norm / body.radius, np.where(norm[:, None] > 0, out, 0.0)


def recenter_oracle(a, profiles, x, jac=True):
    """cubemaps._recenter computing every lateral cutoff of every stage on
    every (centre, point) row, with ``profile_eval_oracle``."""
    count, n = a.shape
    # lateral cutoffs eta_j: 1 on |t| <= 1 - rho_j/2, 0 on |t| >= 1 - rho_j/4
    width = _recentering_rho(a)[:, :, None] / 4.0
    cur = np.repeat(x[None], count, axis=0)
    total = None
    if jac:
        total = np.zeros(cur.shape + (n,))
        total[..., range(n), range(n)] = 1.0
    for i, prof in enumerate(profiles):
        if prof is None:
            continue
        live, params = prof[0], prof[1:]
        if live.all():
            _recenter_stage_oracle(i, width, params, cur, total)
        else:
            sub_cur = cur[live]
            sub_total = None if total is None else total[live]
            _recenter_stage_oracle(i, width[live], params, sub_cur, sub_total)
            cur[live] = sub_cur
            if total is not None:
                total[live] = sub_total
    return cur, total


def _recenter_stage_oracle(i, width, params, cur, total):
    n = cur.shape[-1]
    arg = [None if j == i else ((1.0 - width[:, j]) - np.abs(cur[..., j])) / width[:, j]
           for j in range(n)]
    etas = [None if j == i else smoothstep(arg[j]) for j in range(n)]
    lam = 1.0
    for j in range(n):
        if j != i:
            lam = lam * etas[j]
    t = cur[..., i]
    fval, fder = profile_eval_oracle(t, *params, derivative=total is not None)
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
                    others = others * etas[m]
            eta_d = -np.sign(cur[..., j]) * smoothstep_d(arg[j]) / width[:, j]
            row.append(disp * eta_d * others)
        # stage Jacobian times total: only row i changes, summed from 0.0 in
        # the order of einsum("nij,njk->nik")
        acc = 0.0
        for j in range(n):
            acc = acc + row[j][..., None] * total[..., j, :]
        total[..., i, :] = acc
    cur[..., i] = t + lam * disp
