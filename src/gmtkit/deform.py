"""The smooth skeleton-deformation pipeline.

Per-cube deformation with good-centre selection, composition across the
dimensions of a cubical complex (descent stages), the cleanup pass emptying
partially covered m-cubes, image-measure estimates, and the composite that
also kills sampled unrectifiable mass.
"""

from __future__ import annotations

import json
import logging
import math
import reprlib
from dataclasses import dataclass, field

import numpy as np

from . import _grid
from ._profiles import plateau_step, smoothstep, smoothstep_d
from .cubemaps import (
    Box,
    SmoothMap,
    _punctured_jacobian_rows,
    punctured_cube_projection,
    unrect_perturbation,
)
from .cubical import BoxUnion, CubeFamily, CubicalComplex, DyadicCube, cubical_complex, whitney_family
from .varifold import DiscreteVarifold, _checked_floats, covering_measure, pushforward, sample_spacing

logger = logging.getLogger("gmtkit.deform")

__all__ = [
    "CenterSearchError",
    "StageError",
    "DeformationPlan",
    "PlanStage",
    "select_center",
    "deform_one_cube",
    "deform_onto_skeleton",
    "image_mass_bound",
    "purge_unrectifiable",
    "PHI_DERIV_CONST",
    "center_bound_constant",
]

# rows (candidates x distinct samples) select_center evaluates together: each
# (rows, k, k) temporary stays near 0.6 MB and the rows' (rows, k + k^2)
# uint64 words near 0.8 MB.  Traced with tracemalloc, a chunk of 12 x 680
# rows peaks at 4.2 MB at k = 3 and 2.3 MB at k = 2 when no two recentred
# rows share their bits (test_deform holds these peaks), and the chunks of
# deform_disc (12 x 665 at k = 3, about 5000 distinct rows) near 2.65 MB
CANDIDATE_ROWS = 8192

# empirical bound for sup 2 |x-a| dist(a, dQ) ||D phi_{a,eps}|| with a in the
# middle half of the cube, measured per in-plane dimension and padded
PHI_DERIV_CONST = {1: 4.0, 2: 16.0, 3: 20.0}


class CenterSearchError(RuntimeError):
    pass


class StageError(RuntimeError):
    """A plan stage whose centre search failed.

    ``stage`` is the index the failed stage would have had in
    ``DeformationPlan.stages``, for descent and cleanup stages alike.
    """

    def __init__(self, message, cube=None, stage=None):
        super().__init__(message)
        self.cube = cube
        self.stage = stage


def center_bound_constant(k, m):
    """Gamma(k, m): the averaged derivative-integral bound constant.

    Gamma(k, m) = C^m * k alpha(k) / (k - m) * k^((k-m)/2) with alpha(k) the
    unit-ball volume and C the module's empirical derivative constant.
    """
    if not 0 < m < k:
        raise ValueError("constant defined for 0 < m < k")
    c = PHI_DERIV_CONST.get(k, 8.0 * k)
    alpha = math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)
    return c**m * k * alpha / (k - m) * k ** ((k - m) / 2.0)


# ---------------------------------------------------------------------------
# per-cube machinery

def _inplane_coordinates(cube: DyadicCube, points):
    """(u, z): scaled in-plane coordinates in [-1,1]^k and normal offsets."""
    c = cube.center()
    axes = list(cube.axes)
    others = [j for j in range(cube.ambient_dim) if j not in cube.axes]
    u = (points[:, axes] - c[axes]) * (2.0 / cube.side)
    z = points[:, others] - c[others] if others else np.zeros((len(points), 0))
    return u, z, axes, others


def _restrict_near_cube(v: DiscreteVarifold, cube: DyadicCube, normal_tol):
    """Samples lying on the cube's plane (within normal_tol) and inside the
    closed cube."""
    u, z, _, _ = _inplane_coordinates(cube, v.points)
    mask = np.all(np.abs(u) <= 1.0, axis=1)
    if z.shape[1]:
        mask &= np.linalg.norm(z, axis=1) <= normal_tol
    return mask


def _scaled_eps(cube: DyadicCube, eps):
    """eps / sqrt(2) in the in-plane coordinates of ``_inplane_coordinates``,
    capped below a quarter: the puncture scale of the cube's projections."""
    return min(2.0 * (eps / math.sqrt(2.0)) / cube.side, 0.2499)


def _candidate_singular_values(cand_r, u, eps):
    """Per chunk of about CANDIDATE_ROWS rows (candidates x distinct points),
    the (c, S, k) singular values of its c candidate centres' punctured
    projection Jacobians at the points u; the chunks' c add up to
    len(cand_r).  Haar copies of a sample share its position, so the chain
    runs once per bitwise-distinct row of u, and each chunk's SVDs once per
    distinct recentred row; the values are gathered back to every row of u."""
    keep, inverse = _grid.distinct_rows(u.view(np.uint64))
    points = u if len(keep) == len(u) else u[keep]
    step = max(1, CANDIDATE_ROWS // len(points))
    distinct = 0
    for c in range(0, len(cand_r), step):
        jac, rows = _punctured_jacobian_rows(cand_r[c:c + step], points, eps)
        distinct += len(jac)
        yield np.linalg.svd(jac, compute_uv=False)[rows if points is u else rows[:, inverse]]
    logger.debug("select_center: %d sample positions, %d distinct; %d candidate rows, %d distinct",
                 len(u), len(points), len(cand_r) * len(points), distinct)


def select_center(cube: DyadicCube, measures, eps, *, rng=None, budget=64, slack=0.5):
    """A good projection centre in the middle half of the cube, among
    ``budget`` (at least 1) drawn candidates.

    For measure dimensions below dim(cube): of the candidates whose sampled
    derivative integrals obey the averaged bound
    l * Gamma(k, m_i) * mu_i(K) * (1 + slack), the first with the least
    sampled mass growth, scored as arrays in the frame and at the scale of
    the stage map.  For dimensions equal to dim(cube): the first candidate
    farthest from the support, which must be clear of it.  The samples
    counted are those in the closed cube within eps of its plane.
    Deterministic given the generator state.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    rng = np.random.default_rng(0) if rng is None else rng
    k = cube.dim
    masks = [(v, _restrict_near_cube(v, cube, eps)) for v in measures]
    active = [(v, mask) for v, mask in masks if np.any(mask) and v.weights[mask].sum() > 0]
    if not active:
        return cube.center(), {"branch": "empty", "candidates_tried": 0}
    dims = sorted({v.dim for v, _ in active})
    if dims[0] < k <= dims[-1]:
        raise CenterSearchError("mixed measure dimensions at one cube are unsupported")
    cand_r = rng.uniform(-0.5, 0.5, (budget, k))
    centres = np.repeat(cube.center()[None], budget, axis=0)
    centres[:, list(cube.axes)] += cand_r * cube.side / 2.0
    if dims[-1] >= k:
        # all dimensions equal dim(cube): pick a candidate far from the support
        support = np.vstack([v.points[mask] for v, mask in active])
        clearance = _grid.nearest_all(centres, support, distinct=False, block=CANDIDATE_ROWS)
        best = int(np.argmax(clearance))  # the first of the farthest, as drawn
        if not clearance[best] > cube.side * 1e-6:  # NaN clearances fail too
            raise CenterSearchError(f"no candidate clear of the support in {cube}")
        return centres[best], {"branch": "off-support", "clearance": float(clearance[best]),
                               "candidates_tried": budget}
    # the averaging argument guarantees a positive fraction of the candidates pass;
    # any is legitimate, the least growth tightens the empirical transport constants
    u = np.vstack([_inplane_coordinates(cube, v.points[mask])[0] for v, mask in active])
    rows = np.cumsum([0] + [np.count_nonzero(mask) for _, mask in active])
    bounds = [len(active) * center_bound_constant(k, v.dim) * (1.0 + slack) for v, _ in active]
    ratios = np.empty((budget, len(active)))
    growth = np.zeros(budget)
    start = 0
    for sv in _candidate_singular_values(cand_r, u, _scaled_eps(cube, eps)):
        chunk = slice(start, start + len(sv))
        start += len(sv)
        for j, ((v, mask), lo, hi) in enumerate(zip(active, rows[:-1], rows[1:])):
            w = v.weights[mask]
            wsum = np.sum(w)
            ratios[chunk, j] = np.sum(w * sv[:, lo:hi, 0] ** v.dim, axis=1) / wsum
            jm = np.sum(w * np.prod(sv[:, lo:hi, : v.dim], axis=2), axis=1) / wsum
            growth[chunk] = np.where(jm > growth[chunk], jm, growth[chunk])  # max(): a NaN jm never wins
    passing = np.flatnonzero(~np.any(ratios > bounds, axis=1))
    if len(passing):
        i = passing[np.argmin(growth[passing])]
        return centres[i], {"branch": "averaged", "candidates_tried": budget, "growth_estimate": float(growth[i]),
                            "ratios": ratios[i].tolist(), "bounds": bounds}
    # the first of the least first ratios: a NaN never replaces a number, nor is a leading NaN replaced
    i = 0 if np.isnan(ratios[0, 0]) else int(np.nanargmin(ratios[:, 0]))
    raise CenterSearchError(
        f"no centre met the derivative bound in {budget} tries for {cube}; "
        f"best ratios {list(zip(ratios[i].tolist(), bounds))}"
    )


def _check_cube_eps(cube: DyadicCube, eps):
    if not 0 < eps < cube.side / 4.0:
        raise ValueError("eps must lie in (0, side/4)")


def deform_one_cube(cube: DyadicCube, measures, eps, *, rng=None, budget=64):
    """The single-cube deformation: punctured projection in the cube's plane,
    frozen near the centre, cut off in the normal directions.

    Identity at distance >= eps from the cube; maps the measures' in-cube
    samples into the cube boundary; preserves faces and the neighbouring
    same-side cubes.  The centre is ``select_center``'s; the freeze radius
    is half the least of eps / sqrt(2) and the centre's distance to the
    samples.
    """
    _check_cube_eps(cube, eps)
    center, info = select_center(cube, measures, eps, rng=rng, budget=budget)
    iota = eps / math.sqrt(2.0)
    dist_to_support = min((float(_grid.nearest_all(center[None], v.points, distinct=False)[0])
                           for v in measures), default=np.inf)
    freeze_radius = 0.5 * min(iota, dist_to_support)
    if not np.isfinite(freeze_radius) or freeze_radius <= 0:
        freeze_radius = 0.5 * iota
    return _cube_map(cube, center, eps, freeze_radius, info)


def _cube_map(cube: DyadicCube, center, eps, freeze_radius, selection):
    """The stage map that a cube, its centre, eps and the freeze radius fix;
    ``selection`` is the centre search's report, kept in the map's meta."""
    _check_cube_eps(cube, eps)
    n = cube.ambient_dim
    k = cube.dim
    center = np.asarray(center, dtype=float)
    iota = eps / math.sqrt(2.0)
    d = freeze_radius
    a_r, _, axes, others = _inplane_coordinates(cube, center[None])
    phi_r = punctured_cube_projection(a_r[0], _scaled_eps(cube, eps))
    a_plane = center[axes]
    blend = plateau_step(0.25, 0.875, max_slope=2.0)

    def evaluate(x, jac):
        npts = len(x)
        val = x.copy()
        out = np.broadcast_to(np.eye(n), (npts, n, n)).copy() if jac else None
        u, z, _, _ = _inplane_coordinates(cube, x)
        a3, a3d = blend(np.linalg.norm(x[:, axes] - a_plane, axis=1) / d, jac)
        if others:
            cut, cutd = blend(np.linalg.norm(z, axis=1) / iota, jac)
            cut = 1.0 - cut
        else:
            cut = np.ones(len(x))
        live = (a3 > 0.0) & (cut > 0.0)
        if not np.any(live):
            return val, out
        ul = u[live]
        img, dphi = phi_r.value_and_jacobian(ul) if jac else (phi_r.value(ul), None)
        disp = (img - ul) * (cube.side / 2.0)  # (L, k)
        val[np.ix_(live, axes)] += (a3[live] * cut[live])[:, None] * disp
        if not jac:
            return val, None
        dphi = dphi - np.eye(k)  # (L, k, k): derivative of disp wrt y
        a3l = a3[live]
        cutl = cut[live]
        # in-plane block
        block = (a3l * cutl)[:, None, None] * dphi
        ydiff = x[np.ix_(live, axes)] - a_plane
        ynorm = np.linalg.norm(ydiff, axis=1)
        a3d = a3d[live] / d
        ydir = ydiff / np.maximum(ynorm, 1e-300)[:, None]
        block += cutl[:, None, None] * np.einsum("ni,nj->nij", disp, a3d[:, None] * ydir)
        rows = np.ix_(np.arange(npts)[live], axes, axes)
        out[rows] += block
        if others:
            zl = z[live]
            znorm = np.linalg.norm(zl, axis=1)
            cutd = -cutd[live] / iota
            zdir = zl / np.maximum(znorm, 1e-300)[:, None]
            zblock = np.einsum("ni,nj->nij", a3l[:, None] * disp, cutd[:, None] * zdir)
            out[np.ix_(np.arange(npts)[live], axes, others)] += zblock
        return val, out

    lo, hi = cube.bounds()
    support = Box(lo - eps, hi + eps)
    m = SmoothMap(n, n, evaluate=evaluate, support=support, name="cube_deform")
    m.meta = {
        "cube": cube.to_dict(),
        "center": center.tolist(),
        "eps": eps,
        "freeze_radius": d,
        "selection": selection,
    }
    return m


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass
class PlanStage:
    cube: DyadicCube
    center: np.ndarray
    eps: float
    freeze_radius: float
    kind: str  # "descent" or "cleanup"
    map: SmoothMap = None

    def to_dict(self):
        return {
            "cube": self.cube.to_dict(),
            "center": [float(v) for v in self.center],
            "eps": self.eps,
            "freeze_radius": self.freeze_radius,
            "kind": self.kind,
        }


@dataclass
class DeformationPlan:
    stages: list = field(default_factory=list)
    descent_count: int = 0
    m: int = 0
    eps: float = 0.0
    seed: int = 0
    constants: dict = field(default_factory=dict)

    def compose_stages(self, count=None):
        """The composite of the first ``count`` stage maps (all when None), or
        None when that takes no stage."""
        maps = [s.map for s in self.stages[:count]]
        if not maps:
            return None
        return SmoothMap.compose(*reversed(maps))

    def homotopy(self, t, points):
        """f(t, x): the time interpolation through the stage maps.

        f(t, .) = s(tN - j) psi_{j+1} + (1 - s(tN - j)) psi_j with a flat
        smooth time profile s.
        """
        n_stages = len(self.stages)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if n_stages == 0 or t <= 0:
            return pts.copy()
        tau = min(t, 1.0) * n_stages
        j = min(int(math.floor(tau)), n_stages - 1)
        cur = self.compose_stages(j).value(pts) if j else pts
        w = float(smoothstep(tau - j))
        nxt = self.stages[j].map.value(cur)
        return cur + w * (nxt - cur)

    def homotopy_mass_estimate(self, v: DiscreteVarifold):
        """Trapezoidal estimate of the (m+1)-measure of the homotopy through
        the descent stages.

        Integrates |d_t f| ||D_x f_t||^m over time (five times per stage) and
        the sample measure, stage interval by stage interval.
        """
        stages = self.stages[: self.descent_count]
        n_stages = len(stages)
        if n_stages == 0 or len(v) == 0:
            return 0.0
        pts = v.points
        w = v.weights
        jac_total = np.broadcast_to(np.eye(v.ambient_dim), (len(pts),) * 1 + (v.ambient_dim, v.ambient_dim)).copy()
        total = 0.0
        sigma = np.linspace(0.0, 1.0, 5)
        trap_w = np.array([0.125, 0.25, 0.25, 0.25, 0.125])
        for stage in stages:
            nxt, jstage = stage.map.value_and_jacobian(pts)
            delta = np.linalg.norm(nxt - pts, axis=1)
            moved = delta > 0
            if np.any(moved):
                contrib = np.zeros(len(pts))
                for s_val, t_w in zip(sigma, trap_w):
                    sprof = float(smoothstep(s_val))
                    sder = float(smoothstep_d(s_val))
                    if sder == 0.0:
                        continue
                    jt = sprof * _grid.row_matmul(jstage[moved], jac_total[moved]) + (
                        1 - sprof
                    ) * jac_total[moved]
                    norms = np.linalg.svd(jt, compute_uv=False)[:, 0]
                    contrib[moved] += t_w * sder * delta[moved] * norms**self.m
                total += float(np.sum(w * contrib))
            jac_total = _grid.row_matmul(jstage, jac_total)
            pts = nxt
        return total

    def to_json(self):
        return json.dumps(
            {
                "m": self.m,
                "eps": self.eps,
                "seed": self.seed,
                "descent_count": self.descent_count,
                "stages": [s.to_dict() for s in self.stages],
                "constants": self.constants,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text):
        """The plan ``to_json`` wrote.  m an integer >= 0, seed an integer,
        eps a finite number > 0, constants (when present) a JSON object and
        descent_count an integer in [0, number of stages]; each stage's cube,
        a centre of n finite numbers, eps and freeze_radius finite and > 0,
        and kind "descent" or "cleanup".  A plan that breaks these raises
        ValueError naming the field or the stage and the rule."""
        data = json.loads(text)
        count, m, seed, constants = data["descent_count"], data["m"], data["seed"], data.get("constants", {})
        if type(count) is not int or not 0 <= count <= len(data["stages"]):
            raise ValueError(f"descent_count must be an integer in [0, {len(data['stages'])}], "
                             f"got {reprlib.repr(count)}")
        if type(m) is not int or m < 0:
            raise ValueError(f"m must be an integer >= 0, got {reprlib.repr(m)}")
        if type(seed) is not int:
            raise ValueError(f"seed must be an integer, got {reprlib.repr(seed)}")
        if not isinstance(constants, dict):
            raise ValueError(f"constants must be a JSON object, got {reprlib.repr(constants)}")
        _checked_floats(data["eps"], "eps", "a finite number > 0", lambda a: a.ndim == 0 and a > 0)
        plan = DeformationPlan(m=m, eps=data["eps"], seed=seed, descent_count=count, constants=constants)
        for i, sd in enumerate(data["stages"]):
            cube = DyadicCube.from_dict(sd["cube"])
            center = _checked_floats(sd["center"], f"stage {i} center", f"{cube.ambient_dim} finite numbers",
                                     lambda a: a.shape == (cube.ambient_dim,))
            eps, freeze_radius = (float(_checked_floats(sd[key], f"stage {i} {key}", "a finite number > 0",
                                                        lambda a: a.ndim == 0 and a > 0))
                                  for key in ("eps", "freeze_radius"))
            if sd["kind"] not in ("descent", "cleanup"):
                raise ValueError(f'stage {i} kind must be "descent" or "cleanup", got {reprlib.repr(sd["kind"])}')
            stage = PlanStage(cube=cube, center=center, eps=eps, freeze_radius=freeze_radius, kind=sd["kind"])
            stage.map = _cube_map(cube, center, eps, freeze_radius, {})
            plan.stages.append(stage)
        return plan


def _max_touching(complex_: CubicalComplex):
    """delta_touching: the most cells of the complex touching one cell, itself included."""
    return int(complex_.index.touching_counts().max()) + 1


def _add_stage(plan, cube, kind, current, eps_stage, **search):
    """Append the stage deforming ``cube`` to the plan; return the transported sets.

    The samples within eps_stage of the cube choose its centre.  Returns None,
    and adds nothing, when there are none.
    """
    lo, hi = cube.bounds()
    near = Box(lo - eps_stage, hi + eps_stage)
    touched = [v.restrict(near.contains(v.points)) for v in current]
    touched = [v for v in touched if len(v)]
    if not touched:
        return None
    try:
        stage_map = deform_one_cube(cube, touched, eps_stage, **search)
    except CenterSearchError as exc:
        raise StageError(str(exc), cube=cube, stage=len(plan.stages)) from exc
    plan.stages.append(PlanStage(
        cube=cube,
        center=np.array(stage_map.meta["center"]),
        eps=eps_stage,
        freeze_radius=stage_map.meta["freeze_radius"],
        kind=kind,
        map=stage_map,
    ))
    return [pushforward(stage_map, v) for v in current]


def _coverage_fraction(cube: DyadicCube, points):
    """Fraction of a 5^k probe grid on the k-cube lying within side / 5 of the points."""
    axes = list(cube.axes)
    lo, hi = cube.bounds()
    ticks = [(np.arange(5) + 0.5) / 5 * (hi[a] - lo[a]) + lo[a] for a in axes]
    mesh = np.stack(np.meshgrid(*ticks, indexing="ij"), axis=-1).reshape(-1, len(axes))
    probes = np.broadcast_to(cube.center(), (len(mesh), cube.ambient_dim)).copy()
    probes[:, axes] = mesh
    return float(np.mean(_grid.nearest_all(probes, points, distinct=False) <= cube.side / 5))


def deform_onto_skeleton(family: CubeFamily, complex_: CubicalComplex, sets, m, eps, *,
                         seed=0, budget=64, coverage_threshold=0.98):
    """Deform the sampled sets onto the m-skeleton of the complex.

    Descent stages process the complex's cubes of dimension > m (dimension
    descending, side descending); the cleanup pass empties the partially
    covered m-cubes.  Returns (plan, g1, f1): g1 stops after the descent,
    f1 includes the cleanup.
    """
    sets = list(sets)
    if not 0 <= m < complex_.ambient_dim:
        raise ValueError(f"m must lie in [0, {complex_.ambient_dim}), got {m}")
    if any(v.dim > m for v in sets):
        raise ValueError("set dimensions must not exceed m")
    eps0 = 2.0 ** (-4) * family.min_side()
    if not 0 < eps < eps0:
        raise ValueError(f"eps must lie in (0, {eps0}) for this family")
    delta_touch = _max_touching(complex_)
    eps_stage = eps / delta_touch
    rng = np.random.default_rng(seed)
    # the k-cells (k >= m) with centres in the family's interior, side descending; stages take k descending
    interior = {k: complex_.cubes(k, np.flatnonzero(family.interior_contains(complex_.centers(k))))
                for k in range(m, complex_.ambient_dim + 1)}
    stage_cubes = [c for k in range(complex_.ambient_dim, m, -1) for c in interior[k]]
    plan = DeformationPlan(m=m, eps=eps, seed=seed)
    plan.constants["delta_touching"] = delta_touch
    plan.constants["eps_stage"] = eps_stage
    search = {"rng": rng, "budget": budget}
    current = list(sets)
    skipped = 0
    for cube in stage_cubes:
        moved = _add_stage(plan, cube, "descent", current, eps_stage, **search)
        skipped += moved is None
        current = moved or current
    plan.descent_count = len(plan.stages)
    plan.constants["descent_skipped_empty"] = skipped
    g1 = plan.compose_stages(plan.descent_count) or SmoothMap.identity(complex_.ambient_dim)

    # cleanup: empty the partially covered m-cubes (only for equal dimensions)
    if sets and all(v.dim == m for v in sets):
        support = np.vstack([v.points for v in current])
        cleanup = []
        for cube in interior[m]:
            u, z, _, _ = _inplane_coordinates(cube, support)
            inside = np.all(np.abs(u) < 1.0 - 1e-9, axis=1)
            if z.shape[1]:
                inside &= np.linalg.norm(z, axis=1) <= eps_stage / 4.0
            if not np.any(inside):
                continue
            frac = _coverage_fraction(cube, support[inside])
            if frac >= coverage_threshold:
                continue
            cleanup.append(cube)
        for cube in cleanup:
            current = _add_stage(plan, cube, "cleanup", current, eps_stage, **search) or current
    f1 = plan.compose_stages() or SmoothMap.identity(complex_.ambient_dim)
    plan.constants["stage_count"] = len(plan.stages)
    logger.info(
        "deformation plan: %d descent + %d cleanup stages (skipped %d empty)",
        plan.descent_count, len(plan.stages) - plan.descent_count, skipped,
    )
    return plan, g1, f1


def image_mass_bound(g: SmoothMap, v: DiscreteVarifold, region, resolution=None):
    """Covering estimate of the image measure against the Jacobian transport.

    lhs = box-counting measure of g[support samples in the region]; rhs =
    sum of weight ||Dg||^m over those samples.  The image-measure inequality
    asserts lhs <= rhs up to covering slack.
    """
    mask = region.contains(v.points) if region is not None else np.ones(len(v), dtype=bool)
    pts = v.points[mask]
    if len(pts) == 0:
        return 0.0, 0.0, {"resolution": resolution}
    if resolution is None:
        resolution = max(sample_spacing(pts), 1e-9) * 2.0
    img, jac = g.value_and_jacobian(pts)
    lhs, res = covering_measure(img, v.dim, resolution)
    norms = np.linalg.svd(jac, compute_uv=False)[:, 0]
    rhs = float(np.sum(v.weights[mask] * norms**v.dim))
    return lhs, rhs, {"resolution": res}


def purge_unrectifiable(s_r: DiscreteVarifold, s_u: DiscreteVarifold, bounds, eps, *,
                        seed=0, min_level=6, cluster_gap=None):
    """Deform onto the skeleton, then kill the unrectifiable part.

    ``bounds`` is the (lo, hi) box of the open working region G.  The
    deformation g of the Whitney family of G is composed with the
    perturbation rho built for the unrectifiable samples, so the returned
    map is g o rho restricted to admissible deformations of G.
    """
    m = s_r.dim if len(s_r) else s_u.dim
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    family = whitney_family(BoxUnion([(lo, hi)]), (lo, hi), min_level=min_level)
    complex_ = cubical_complex(family)
    sets = [v for v in (s_r, s_u) if len(v)]
    eps_deform = 2.0 ** (-4) * family.min_side() * 0.5
    plan, g1, f1 = deform_onto_skeleton(family, complex_, sets, m, eps_deform, seed=seed)
    if len(s_u) == 0:
        return g1, {"plan": plan, "rho": None}
    margin = 2.0 * family.max_side()
    inner_box = Box(lo + margin, hi - margin)
    rho = unrect_perturbation(s_u.points, g1, inner_box, eps, m, seed=seed, cluster_gap=cluster_gap)
    g_total = SmoothMap.compose(g1, rho)
    g_total.name = "purge"
    report = {
        "plan": plan,
        "rho": rho.meta,
        "eps": eps,
    }
    return g_total, report
