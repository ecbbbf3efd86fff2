"""Batch command-line front end.

Subcommands: rotate, retract, project, whitney, deform, slice, minimize,
audit, probe-ellipticity.  All randomness flows from a single seed; every
artifact is written deterministically (sorted keys, repr floats, no
timestamps), so a rerun with the same config and seed is byte-identical.

Exit codes: 0 success, 2 input error, 3 pipeline failure, 4 infeasible.
Tolerance-style config keys can be overridden by environment variables
prefixed GMTKIT_ (e.g. GMTKIT_EPS=0.05).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .cubemaps import (
    BallBody,
    EllipsoidBody,
    SmoothMap,
    collared_projection,
    central_projection,
    cube_enclosure,
    retraction_with_collar,
)
from .cubical import BallSet, BoxUnion, CubeFamily, DyadicCube, PuncturedPlane, cubical_complex, whitney_family
from .deform import DeformationPlan, StageError, deform_onto_skeleton
from .grassmann import Plane, build_rotation, projector_distance
from .solver import (
    Chain2,
    GridComplex,
    InfeasibleError,
    OracleBudgetError,
    SpanningProblem,
    audit_minimizer,
    exhaustive_oracle,
    minimize as solver_minimize,
)
from .varifold import DiscreteVarifold, ellipticity_probe, integrand_from_config, slice_varifold

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PIPELINE = 3
EXIT_INFEASIBLE = 4

ENV_PREFIX = "GMTKIT_"


class InputError(RuntimeError):
    pass


def _load_config(path, defaults, allowed):
    cfg = dict(defaults)
    if path:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config {path}: {exc}") from exc
        unknown = set(user) - set(allowed)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(user)
    for key in allowed:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            try:
                cfg[key] = json.loads(env)
            except json.JSONDecodeError:
                cfg[key] = env
    return cfg


def _config_number(cfg, key, kind, least=None):
    """cfg[key] converted by ``kind`` (int or float), finite and at least
    ``least``, else InputError."""
    try:
        value = kind(cfg[key])
    except (TypeError, ValueError, OverflowError) as exc:
        what = "an integer" if kind is int else "a number"
        raise InputError(f"{key} must be {what}: {exc}") from exc
    if not math.isfinite(value):
        raise InputError(f"{key} must be finite, got {value}")
    if least is not None and value < least:
        raise InputError(f"{key} must be at least {least}, got {value}")
    return value


def _config_array(cfg, key, shape, what):
    """cfg[key] as a float array of ``shape`` (None matches any positive
    length) with finite entries, else InputError saying it must be ``what``."""
    try:
        value = np.array(cfg[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{key} must be {what}: {exc}") from exc
    if (value.ndim != len(shape) or not value.size or not np.isfinite(value).all()
            or any(s not in (None, t) for s, t in zip(shape, value.shape))):
        raise InputError(f"{key} must be {what}, got {cfg[key]!r}")
    return value


def _config_positive(cfg, key):
    """cfg[key] as a finite float above 0, else InputError."""
    value = _config_number(cfg, key, float)
    if value <= 0:
        raise InputError(f"{key} must be positive, got {value}")
    return value


def _write_json(path, payload):
    def _convert(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, dict):
            return {k: _convert(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [_convert(v) for v in obj]
        return obj

    with open(path, "w") as fh:
        json.dump(_convert(payload), fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# rotate


def cmd_rotate(args):
    out = _out_dir(args)
    taus = [float(t) for t in args.tau.split(",")] if args.tau else [0.25, 0.5, 1.0]
    rows = []
    try:
        lines = Path(args.planes).read_text().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {args.planes}: {exc}") from exc
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            vals = [float(v) for v in line.replace(",", " ").split()]
            n, m = int(vals[0]), int(vals[1])
            need = 2 + 2 * n * m
            if len(vals) != need:
                raise ValueError(f"expected {need} fields, got {len(vals)}")
            s = Plane(np.array(vals[2 : 2 + n * m]).reshape(n, m))
            t = Plane(np.array(vals[2 + n * m : need]).reshape(n, m))
        except (ValueError, IndexError) as exc:
            raise InputError(f"{args.planes}:{ln}: malformed plane pair ({exc})") from exc
        d = projector_distance(s, t)
        rot = build_rotation(s, t)
        for tau in taus:
            m_tau = rot.evaluate(tau)
            dev = float(np.linalg.norm(m_tau - np.eye(n), 2))
            bound = 8.0 * abs(tau) * d
            rows.append((ln, tau, dev, bound, "pass" if dev <= bound + 1e-12 else "fail"))
    _write_csv(out / "rotate_report.csv", "line,tau,norm_M_minus_I,bound,status", rows)
    failures = sum(1 for r in rows if r[4] == "fail")
    _write_json(out / "rotate_summary.json", {"pairs": len(rows) // max(len(taus), 1),
                                              "taus": taus, "failures": failures})
    return EXIT_OK if failures == 0 else EXIT_PIPELINE


# ---------------------------------------------------------------------------
# retract / project


def cmd_retract(args):
    out = _out_dir(args)
    cfg = _load_config(args.config, {"n": 2, "eps": 0.1, "probes": 2000}, ("n", "eps", "probes"))
    n, eps = _config_number(cfg, "n", int, 1), _config_number(cfg, "eps", float)
    rng = np.random.default_rng(args.seed)
    try:
        l = retraction_with_collar(n, eps)
    except ValueError as exc:  # eps outside (0, 1)
        raise InputError(str(exc)) from exc
    probes = rng.uniform(-1.0 - 2 * eps, 1.0 + 2 * eps, (_config_number(cfg, "probes", int, 1), n))
    img = l.value(probes)
    disp = np.linalg.norm(img - probes, axis=1)
    jac = np.linalg.svd(l.jacobian(probes), compute_uv=False)[:, 0]
    dist_before = np.linalg.norm(probes - np.clip(probes, -1, 1), axis=1)
    dist_after = np.linalg.norm(img - np.clip(img, -1, 1), axis=1)
    rows = [
        tuple(map(float, list(probes[i]) + [disp[i], jac[i], dist_before[i], dist_after[i]]))
        for i in range(len(probes))
    ]
    _write_csv(out / "retract_probes.csv",
               ",".join([f"x{j}" for j in range(n)]) + ",displacement,jac_norm,dist_before,dist_after",
               rows)
    summary = {
        "n": n,
        "eps": eps,
        "max_displacement": float(disp.max()),
        "max_jac_norm": float(jac.max()),
        "lip_bound": 16.0 * float(np.sqrt(n)),
        "identity_beyond_eps": bool(np.all(img[dist_before > eps] == probes[dist_before > eps])),
        "dist_monotone": bool(np.all(dist_after <= dist_before + 1e-12)),
        "pass": bool(
            disp.max() <= eps + 1e-12
            and jac.max() < 16.0 * np.sqrt(n)
            and np.all(dist_after <= dist_before + 1e-12)
        ),
    }
    _write_json(out / "retract_summary.json", summary)
    return EXIT_OK if summary["pass"] else EXIT_PIPELINE


def _body_from_config(cfg):
    kind = cfg["body"]
    n = _config_number(cfg, "n", int, 1)
    if kind == "ball":
        return BallBody(n, _config_positive(cfg, "radius")), n
    if kind == "ellipsoid":
        try:
            axes = [float(a) for a in cfg["semi_axes"]]
        except (TypeError, ValueError) as exc:
            raise InputError(f"semi_axes must be a list of numbers: {exc}") from exc
        if not axes or not all(math.isfinite(a) and a > 0 for a in axes):
            raise InputError(f"semi_axes must be a non-empty list of positive numbers, got {cfg['semi_axes']!r}")
        return EllipsoidBody(axes), len(axes)
    if kind == "cube_enclosure":
        try:
            body = cube_enclosure(n, _config_number(cfg, "inner", float), _config_number(cfg, "outer", float))
        except ValueError as exc:  # not 0 < inner < outer, or no exponent fits
            raise InputError(f"inner and outer: {exc}") from exc
        return body, n
    raise InputError(f"unknown body kind {kind}")


def cmd_project(args):
    out = _out_dir(args)
    cfg = _load_config(
        args.config,
        {"body": "ball", "n": 2, "radius": 1.0, "semi_axes": [2.0, 1.0], "inner": 0.05,
         "outer": 0.1, "eps": 0.2, "probes": 2000},
        ("body", "n", "radius", "semi_axes", "inner", "outer", "eps", "probes"),
    )
    body, n = _body_from_config(cfg)
    rng = np.random.default_rng(args.seed)
    p, t = central_projection(body)
    eps = _config_positive(cfg, "eps")
    if eps > body.circumradius / 2:  # collared_projection caps eps / circumradius at 1/2
        raise InputError(f"eps must be at most half the body's circumradius {body.circumradius:g}, got {eps}")
    q = collared_projection(body, eps)
    probes = rng.uniform(-1.5 * body.circumradius, 1.5 * body.circumradius,
                         (_config_number(cfg, "probes", int, 1), n))
    probes = probes[np.linalg.norm(probes, axis=1) > 1e-3]
    pv, qv = p.value(probes), q.value(probes)
    fd = np.abs(p.jacobian(probes) - p.jacobian_fd(probes)).max()
    nu = body.normal(pv)
    xh = probes / np.linalg.norm(probes, axis=1, keepdims=True)
    bound = np.linalg.norm(pv, axis=1) / np.linalg.norm(probes, axis=1) * (
        1.0 + 1.0 / np.einsum("ni,ni->n", nu, xh)
    )
    jnorm = np.linalg.svd(p.jacobian(probes), compute_uv=False)[:, 0]
    rows = [
        tuple(map(float, list(probes[i]) + [np.linalg.norm(qv[i] - probes[i]),
                                            np.linalg.norm(pv[i] - probes[i]), jnorm[i], bound[i]]))
        for i in range(len(probes))
    ]
    _write_csv(out / "project_probes.csv",
               ",".join([f"x{j}" for j in range(n)]) + ",q_move,p_move,dp_norm,dp_bound", rows)
    summary = {
        "fd_jacobian_error": float(fd),
        "derivative_bound_ok": bool(np.all(jnorm <= bound + 1e-9)),
        "q_shorter_than_p": bool(
            np.all([r[n] <= r[n + 1] + 1e-12 for r in rows])
        ),
        "pass": bool(fd < 1e-5 and np.all(jnorm <= bound + 1e-9)),
    }
    _write_json(out / "project_summary.json", summary)
    return EXIT_OK if summary["pass"] else EXIT_PIPELINE


# ---------------------------------------------------------------------------
# whitney


def _open_set_from_config(cfg, n):
    """The open set of a whitney config, in R^n."""
    kind, coords = cfg["open_set"], f"{n} finite coordinates"
    if kind == "boxes":
        boxes = _config_array(cfg, "boxes", (None, 2, n), f"a list of [lo, hi] pairs of {coords}")
        return BoxUnion([(b[0], b[1]) for b in boxes])
    if kind == "ball":
        return BallSet(_config_array(cfg, "center", (n,), coords), _config_positive(cfg, "radius"))
    if kind == "punctured":
        return PuncturedPlane(_config_array(cfg, "point", (n,), coords))
    raise InputError(f"unknown open set kind {kind}")


def cmd_whitney(args):
    out = _out_dir(args)
    cfg = _load_config(
        args.config,
        {"open_set": "punctured", "point": [0.0, 0.0], "center": [0.0, 0.0], "radius": 1.0,
         "boxes": [[[-1, -1], [1, 1]]], "bbox": [[-1, -1], [1, 1]], "min_level": 5,
         "skeleton_dim": 1},
        ("open_set", "point", "center", "radius", "boxes", "bbox", "min_level", "skeleton_dim"),
    )
    bbox = _config_array(cfg, "bbox", (2, None), "a [lo, hi] pair of finite corners")
    n = bbox.shape[1]
    open_set = _open_set_from_config(cfg, n)
    min_level = _config_number(cfg, "min_level", int)
    k = _config_number(cfg, "skeleton_dim", int, 0)
    if k > n:
        raise InputError(f"skeleton_dim must be at most {n}, got {k}")
    fam = whitney_family(open_set, (bbox[0], bbox[1]), min_level)
    if len(fam) == 0:
        _write_json(out / "whitney_summary.json", {"cubes": 0, "meta": fam.meta})
        return EXIT_OK
    cx = cubical_complex(fam)
    with open(out / "whitney_complex.json", "w") as fh:
        fh.write(cx.to_json())
        fh.write("\n")
    with open(out / f"whitney_skeleton_{k}.obj", "w") as fh:
        fh.write(cx.skeleton_to_obj(k))
    _write_json(
        out / "whitney_summary.json",
        {"cubes": len(fam), "meta": fam.meta, "complex_sizes": {k: len(v) for k, v in cx.by_dim.items()},
         "admissible": fam.admissible()},
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# deform


def cmd_deform(args):
    out = _out_dir(args)
    cfg = _load_config(
        args.config,
        {"grid_origin": [0, 0, 0], "grid_cells": [4, 4, 4], "grid_level": 0, "m": 2,
         "eps": 0.05, "budget": 64, "coverage_threshold": 0.98},
        ("grid_origin", "grid_cells", "grid_level", "m", "eps", "budget", "coverage_threshold"),
    )
    try:
        v = DiscreteVarifold.from_csv(args.set)
    except (OSError, ValueError, IndexError) as exc:
        raise InputError(f"cannot read set {args.set}: {exc}") from exc
    n = v.ambient_dim
    level = _config_number(cfg, "grid_level", int)
    try:
        origin = [int(o) for o in cfg["grid_origin"]]
        cells = [int(x) for x in cfg["grid_cells"]]
    except (TypeError, ValueError) as exc:
        raise InputError(f"grid_origin and grid_cells must be lists of integers: {exc}") from exc
    axes = tuple(range(n))
    fam = CubeFamily(
        [
            DyadicCube(level, tuple(o + c_i for o, c_i in zip(origin, c)), axes, n)
            for c in np.ndindex(*cells)
        ]
    )
    m = _config_number(cfg, "m", int)
    eps = _config_number(cfg, "eps", float)
    coverage = _config_number(cfg, "coverage_threshold", float)
    budget = _config_number(cfg, "budget", int, 1)
    cx = cubical_complex(fam)
    if args.replay:
        try:
            text = Path(args.replay).read_text()
        except OSError as exc:
            raise InputError(f"cannot read plan {args.replay}: {exc}") from exc
        try:
            plan = DeformationPlan.from_json(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"cannot parse plan {args.replay}: {exc}") from exc
        except KeyError as exc:
            raise InputError(f"plan {args.replay} lacks the key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InputError(f"invalid plan {args.replay}: {exc}") from exc
        f1 = plan.f_map() or SmoothMap.identity(n)
    else:
        try:
            plan, _, f1 = deform_onto_skeleton(
                fam, cx, [v] if len(v) else [], m, eps,
                seed=args.seed, budget=budget, coverage_threshold=coverage,
            )
        except StageError as exc:
            sys.stderr.write(f"stage failure at cube {exc.cube}: {exc}\n")
            return EXIT_PIPELINE
        except ValueError as exc:  # the argument checks: m, eps and the set dimension
            raise InputError(str(exc)) from exc
    img = f1.value(v.points) if len(v) else v.points
    with open(out / "deform_plan.json", "w") as fh:
        fh.write(plan.to_json())
        fh.write("\n")
    rows = [tuple(map(float, list(v.points[i]) + list(img[i]))) for i in range(len(v))]
    _write_csv(out / "deformed_set.csv",
               ",".join([f"x{j}" for j in range(n)]) + "," + ",".join([f"y{j}" for j in range(n)]),
               rows)
    constants = dict(plan.constants)
    if len(v):
        skeleton = cx.skeleton(m)
        best = np.full(len(img), np.inf)
        for c in skeleton:
            lo_b, hi_b = c.bounds()
            best = np.minimum(best, np.linalg.norm(img - np.clip(img, lo_b, hi_b), axis=1))
        tol = eps / 4.0
        constants["skeleton_membership"] = {
            "tolerance": tol,
            "max_distance": float(best.max()),
            "fraction_within": float((best <= tol).mean()),
            "pass": bool(np.all(best <= tol)),
        }
    _write_json(out / "deform_constants.json", constants)
    return EXIT_OK


# ---------------------------------------------------------------------------
# slice


def _scalar_map(kind, n):
    if kind == "norm":
        def val(x):
            return np.linalg.norm(x, axis=1)[:, None]

        def jac(x):
            nr = np.linalg.norm(x, axis=1, keepdims=True)
            return (x / np.where(nr > 0, nr, 1.0))[:, None, :]

        return SmoothMap(n, 1, val, jac, name="norm")
    if kind.startswith("coord:"):
        j = int(kind.split(":")[1])
        a = np.zeros((1, n))
        a[0, j] = 1.0
        return SmoothMap.affine(a)
    raise InputError(f"unknown slicing map {kind}")


def cmd_slice(args):
    out = _out_dir(args)
    try:
        v = DiscreteVarifold.from_csv(args.set)
    except (OSError, ValueError, IndexError) as exc:
        raise InputError(f"cannot read set {args.set}: {exc}") from exc
    f = _scalar_map(args.map, v.ambient_dim)
    result = slice_varifold(v, f, float(args.t), float(args.bin))
    result.varifold.to_csv(out / "slice.csv")
    _write_json(
        out / "slice_summary.json",
        {"t": float(args.t), "bin": float(args.bin), "mass": result.mass(),
         "samples": len(result.varifold), "dropped_degenerate": result.dropped_degenerate},
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# minimize / audit


def _problem_from_json(path):
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read problem {path}: {exc}") from exc
    required = {"n", "cells", "level", "m", "boundary_cells", "generators", "integrand"}
    unknown = set(data) - required - {"origin", "options"}
    if unknown:
        raise InputError(f"unknown problem keys: {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise InputError(f"missing problem keys: {sorted(missing)}")
    try:
        if int(data["m"]) >= int(data["n"]):
            raise ValueError(f"m = {data['m']} leaves no (m+1)-cells to move across in n = {data['n']}")
        cx = GridComplex(int(data["n"]), data["cells"], int(data["level"]), data.get("origin"))
        bcells = [DyadicCube.from_dict(d) for d in data["boundary_cells"]]
        generators = []
        for gen in data["generators"]:
            bits = np.zeros(cx.count(int(data["m"]) - 1), dtype=np.uint8)
            for d in gen:
                bits[cx.index[DyadicCube.from_dict(d)][1]] ^= 1
            generators.append(bits)
        integrand = integrand_from_config(data["integrand"], n=int(data["n"]))
        problem = SpanningProblem(cx, int(data["m"]), bcells, generators, integrand,
                                  dict(data.get("options", {})))
    except (TypeError, ValueError, KeyError) as exc:
        raise InputError(f"invalid problem: {exc}") from exc
    return problem


def _chain_to_obj(chain: Chain2):
    verts = {}
    faces = []

    def vid(p):
        key = tuple(round(float(v), 12) for v in p)
        if key not in verts:
            verts[key] = len(verts) + 1
        return verts[key]

    for c in chain.cells():
        lo, hi = c.bounds()
        if chain.m == 2:
            ax, ay = c.axes
            pts = [lo.copy() for _ in range(4)]
            pts[1][ax] = hi[ax]
            pts[2][ax] = hi[ax]
            pts[2][ay] = hi[ay]
            pts[3][ay] = hi[ay]
            faces.append(("f", [vid(p) for p in pts]))
        else:
            a = lo
            b = lo.copy()
            b[c.axes[0]] = hi[c.axes[0]]
            faces.append(("l", [vid(a), vid(b)]))
    lines = []
    for key in sorted(verts, key=verts.get):
        pad = list(key) + [0.0] * (3 - len(key))
        lines.append("v " + " ".join(repr(float(v)) for v in pad[:3]))
    for tag, ids in faces:
        lines.append(tag + " " + " ".join(str(i) for i in ids))
    return "\n".join(lines) + "\n"


def cmd_minimize(args):
    out = _out_dir(args)
    problem = _problem_from_json(args.problem)
    opts = {"restarts": 3, "steps": 4000, "oracle_budget_dim": 18, **problem.options}
    restarts, steps = _config_number(opts, "restarts", int, 1), _config_number(opts, "steps", int)
    try:
        res = solver_minimize(problem, seed=args.seed, restarts=restarts, steps=steps)
    except InfeasibleError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    payload = {"value": res.value, "cells": res.chain.count(), "chain": res.chain.to_dict(),
               "initial_value": res.initial_value, "accepted_moves": len(res.trace)}
    if opts.get("oracle_check"):
        _, oval = exhaustive_oracle(problem, budget_dim=_config_number(opts, "oracle_budget_dim", int))
        payload["oracle_value"] = oval
        payload["oracle_match"] = bool(abs(oval - res.value) <= 1e-9)
    _write_json(out / "solution.json", payload)
    with open(out / "solution.obj", "w") as fh:
        fh.write(_chain_to_obj(res.chain))
    if res.chain.count():
        report = audit_minimizer(res.chain, problem.integrand)
        _write_audit(out, report, problem.complex.n)
    return EXIT_OK


def _write_audit(out, report, n):
    """audit_report.json, and audit_ratios.csv with one column per coordinate
    (px, py, pz up to three dimensions, p0, p1, ... beyond)."""
    _write_json(out / "audit_report.json", report)
    coords = ["px", "py", "pz"][:n] if n <= 3 else [f"p{j}" for j in range(n)]
    _write_csv(
        out / "audit_ratios.csv",
        ",".join(coords + ["radius", "ratio", "flag"]),
        [
            tuple(e["point"]) + (r[0], r[1], r[2])
            for e in report["entries"]
            for r in e["ratios"]
        ],
    )


def cmd_audit(args):
    out = _out_dir(args)
    try:
        data = json.loads(Path(args.chain).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read chain {args.chain}: {exc}") from exc
    cfg = _load_config(args.config, {"n": 3, "cells": [4, 4, 4], "level": 2, "origin": [0, 0, 0],
                                     "integrand": {"kind": "area"}, "subdivision": 8},
                       ("n", "cells", "level", "origin", "integrand", "subdivision"))
    try:
        cx = GridComplex(_config_number(cfg, "n", int), cfg["cells"], _config_number(cfg, "level", int),
                         cfg["origin"])
        m = int(data["m"])
        bits = np.zeros(cx.count(m), dtype=bool)
        for d in data["cells"]:
            cube = DyadicCube.from_dict(d)
            if cx.index.get(cube, (None,))[0] != m:
                raise InputError(f"chain cell {cube} is not a cell of dimension {m} in the grid")
            bits[cx.index[cube][1]] = True
    except KeyError as exc:
        raise InputError(f"chain {args.chain} lacks the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid grid or chain {args.chain}: {exc}") from exc
    chain = Chain2(cx, m, bits)
    integrand = integrand_from_config(cfg["integrand"], n=cx.n)
    report = audit_minimizer(chain, integrand, subdivision=_config_number(cfg, "subdivision", int, 1))
    _write_audit(out, report, cx.n)
    return EXIT_OK


def cmd_probe_ellipticity(args):
    out = _out_dir(args)
    cfg = _load_config(
        args.config,
        {"n": 3, "m": 2, "x": [0.0, 0.0, 0.0], "plane_axes": [0, 1],
         "integrand": {"kind": "area"}, "sup_grid": 256},
        ("n", "m", "x", "plane_axes", "integrand", "sup_grid"),
    )
    n = _config_number(cfg, "n", int)
    integrand = integrand_from_config(cfg["integrand"], n=n)
    try:
        plane = Plane.axis(n, cfg["plane_axes"])
    except (IndexError, TypeError, ValueError) as exc:
        raise InputError(f"plane_axes {cfg['plane_axes']!r} are not axes of R^{n}: {exc}") from exc
    if plane.dim >= n:
        raise InputError(f"plane_axes must leave a normal direction in R^{n}")
    m = _config_number(cfg, "m", int)
    if m != plane.dim:
        raise InputError(f"m must equal the number of plane_axes ({plane.dim}), got {m}")
    report = ellipticity_probe(integrand, _config_array(cfg, "x", (n,), f"{n} finite coordinates"), plane,
                               sup_grid=_config_number(cfg, "sup_grid", int, 1), seed=args.seed)
    _write_json(
        out / "ellipticity_report.json",
        {"margins": report.margins, "min_margin": report.min_margin,
         "counterexample": report.counterexample},
    )
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gmtkit", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="gmtkit_out")
    parser.add_argument("--config", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rotate", help="rotation bounds on plane pairs")
    p.add_argument("planes")
    p.add_argument("--tau", default="0.25,0.5,1.0")
    p.set_defaults(fn=cmd_rotate)

    p = sub.add_parser("retract", help="collared cube retraction contract")
    p.set_defaults(fn=cmd_retract)

    p = sub.add_parser("project", help="central projection checks")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("whitney", help="Whitney family and complex of an open set")
    p.set_defaults(fn=cmd_whitney)

    p = sub.add_parser("deform", help="deform a sampled set onto a grid skeleton")
    p.add_argument("set")
    p.add_argument("--replay", default=None)
    p.set_defaults(fn=cmd_deform)

    p = sub.add_parser("slice", help="slice a varifold by a scalar map")
    p.add_argument("set")
    p.add_argument("--map", default="norm")
    p.add_argument("--t", required=True)
    p.add_argument("--bin", required=True)
    p.set_defaults(fn=cmd_slice)

    p = sub.add_parser("minimize", help="solve a spanning problem")
    p.add_argument("problem")
    p.set_defaults(fn=cmd_minimize)

    p = sub.add_parser("audit", help="density-ratio audit of a chain")
    p.add_argument("chain")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("probe-ellipticity", help="one-sided ellipticity probe")
    p.set_defaults(fn=cmd_probe_ellipticity)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (StageError, OracleBudgetError) as exc:
        sys.stderr.write(f"pipeline failure: {exc}\n")
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
