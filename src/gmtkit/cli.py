"""Batch command-line front end.

Subcommands: rotate, retract, project, whitney, deform, slice, minimize,
audit, probe-ellipticity.  All randomness flows from a single seed; every
artifact is written deterministically (sorted keys, repr floats, no
timestamps), so a rerun with the same config and seed is byte-identical.

Exit codes: 0 success, 2 input error, 3 pipeline failure, 4 infeasible.
Config keys can be overridden by environment variables prefixed GMTKIT_
(e.g. GMTKIT_EPS=0.05); each subcommand's --help lists its inputs.
--log-level LEVEL writes the library's log records (the gmtkit logger)
to stderr at LEVEL; it is off by default and changes no artifact.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import operator
import os
import reprlib
import sys
from pathlib import Path

import numpy as np

from . import _grid
from .cubemaps import (
    BallBody,
    EllipsoidBody,
    SmoothMap,
    collared_projection,
    central_projection,
    cube_enclosure,
    retraction_with_collar,
)
from .cubical import (BallSet, BoxUnion, CubeFamily, DyadicCube, PuncturedPlane, _row_bounds, cubes_to_obj,
                      cubical_complex, whitney_family)
from .deform import DeformationPlan, StageError, deform_onto_skeleton
from .grassmann import Plane, build_rotation, projector_distance
from .solver import (
    Chain2,
    GridComplex,
    InfeasibleError,
    OracleBudgetError,
    SpanningProblem,
    _check_grid_cells,
    audit_minimizer,
    exhaustive_oracle,
    minimize as solver_minimize,
)
from .varifold import (DiscreteVarifold, _checked_floats, _write_table, ellipticity_probe, integrand_from_config,
                       slice_varifold)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PIPELINE = 3
EXIT_INFEASIBLE = 4

ENV_PREFIX = "GMTKIT_"


class InputError(RuntimeError):
    pass


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


class Rule:
    """One input of a subcommand: its kind, its default (None: it has none) and
    its rule.

    The kinds are "int" (below 2^53 in size), "float", "bool", "choice" and
    "integrand".  Each bound is a (comparison, number) pair that every entry
    must meet.  An int or float with a ``shape`` is an array; a shape entry is
    a length, None (any positive length) or "n" (the ambient dimension).  A
    choice ending in ":" stands for itself followed by an axis index below n.
    With ``when`` = (key, value) the input is read only when that key has
    that value.
    """

    def __init__(self, kind, default=None, *bounds, shape=(), choices=(), when=()):
        self.kind, self.default, self.bounds = kind, default, bounds
        self.shape, self.choices, self.when = shape, choices, when

    def describe(self, n="n"):
        """The rule in words."""
        if self.kind == "bool":
            return "true or false"
        if self.kind == "choice":
            return "one of " + ", ".join(f"{c}j (j < {n})" if c.endswith(":") else c for c in self.choices)
        if self.kind == "integrand":
            return f"an integrand dict in R^{n}, of kind area, tilt_penalty or table"
        what = "integer" if self.kind == "int" else "finite number"
        limits = " and ".join(f"{sym} {bound:g}" for sym, bound in self.bounds)
        if not self.shape:
            return f"{'an' if self.kind == 'int' else 'a'} {what}" + (f" {limits}" if limits else "")
        dims = [("k" if s is None else str(n if s == "n" else s)) for s in self.shape]
        kind = f"list of {dims[0]}" if len(dims) == 1 else f"{' x '.join(dims)} array of"
        return f"a {kind} {what}s" + (f", each {limits}" if limits else "")

    def check(self, key, value, n):
        """value converted to the rule's type, else InputError naming the key,
        the rule and the value."""
        try:
            if self.kind == "integrand":
                return integrand_from_config(value, n=n)
            if self.kind in ("int", "float"):
                shape = [n if s == "n" else s for s in self.shape]
                arr = _checked_floats(value, key, self.describe(n), lambda a: (
                    a.ndim == len(shape) and a.size and all(s in (None, t) for s, t in zip(shape, a.shape))
                    and (self.kind == "float" or ((a == np.floor(a)) & (abs(a) < 2**53)).all())
                    and all(_COMPARE[sym](a, bound).all() for sym, bound in self.bounds)))
                return arr.astype(int).tolist() if self.kind == "int" else (arr if shape else float(arr))
        except ValueError as exc:
            raise InputError(f"{key}: {exc}" if self.kind == "integrand" else str(exc)) from exc
        if (self.kind == "bool" and isinstance(value, bool)) or (self.kind == "choice" and value in (
                [c for c in self.choices if not c.endswith(":")]
                + [f"{c}{j}" for c in self.choices if c.endswith(":") for j in range(n)])):
            return value
        raise InputError(f"{key} must be {self.describe(n)}, got {reprlib.repr(value)}")


def _checked(table, raw, n=None, what="config"):
    """raw (key -> value) checked against ``table`` in the table's order, with
    the defaults filled in.  n is the ambient dimension, or a function of the
    inputs checked so far that gives it to the first integrand or array of
    length n."""
    unknown = set(raw) - set(table)
    if unknown:
        raise InputError(f"unknown {what} keys: {sorted(unknown)}")
    out = {}
    for key, rule in table.items():
        if rule.when and out[rule.when[0]] != rule.when[1]:
            continue
        if callable(n) and (rule.kind == "integrand" or "n" in rule.shape):
            n = n(out)
        out[key] = rule.check(key, raw.get(key, rule.default), n)
    return out


def _read_json(path, what):
    """The JSON object in the file at path, else InputError."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{what} {path} must hold a JSON object, got {reprlib.repr(data)}")
    return data


def _config(args, table, n=None):
    """The --config file with the GMTKIT_ environment overrides, checked against table."""
    raw = _read_json(args.config, "config") if args.config else {}
    for key in table:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            try:
                raw[key] = json.loads(env)
            except json.JSONDecodeError:
                raw[key] = env
    return _checked(table, raw, n)


def _number(token):
    """A command-line token as a float, or as it is when float() cannot read
    it (the rule then refuses it)."""
    try:
        return float(token)
    except ValueError:
        return token


def _arguments(args, table, n=None):
    """The subcommand's own arguments, checked against table; each token of
    a number is read with float() first."""
    raw = {k: getattr(args, k) for k in table if getattr(args, k) is not None}
    for key, value in raw.items():
        if table[key].kind in ("int", "float"):
            raw[key] = list(map(_number, value)) if isinstance(value, list) else _number(value)
    return _checked(table, raw, n, "argument")


# |level| of a problem or audit grid: a grid of at most MAX_GRID_CELLS cells
# has n <= 13, so side^n and the audit's sample weights (side / subdivision)^m
# stay normal doubles (subdivision below 2^46); deform grids take the same range
MAX_GRID_LEVEL = 32

INPUTS = {
    "rotate": {"tau": Rule("float", [0.25, 0.5, 1.0], shape=(None,))},
    "retract": {"n": Rule("int", 2, (">=", 1)), "eps": Rule("float", 0.1, (">", 0), ("<", 1)),
                "probes": Rule("int", 2000, (">=", 1))},
    "project": {
        "body": Rule("choice", "ball", choices=("ball", "ellipsoid", "cube_enclosure")),
        "n": Rule("int", 2, (">=", 1)),
        "radius": Rule("float", 1.0, (">", 0), when=("body", "ball")),
        "semi_axes": Rule("float", [2.0, 1.0], (">", 0), shape=(None,), when=("body", "ellipsoid")),
        "inner": Rule("float", 0.05, (">", 0), when=("body", "cube_enclosure")),
        "outer": Rule("float", 0.1, (">", 0), when=("body", "cube_enclosure")),
        "eps": Rule("float", 0.2, (">", 0)),
        "probes": Rule("int", 2000, (">=", 1)),
    },
    "whitney": {
        "open_set": Rule("choice", "punctured", choices=("punctured", "ball", "boxes")),
        "bbox": Rule("float", [[-1, -1], [1, 1]], shape=(2, None)),
        "point": Rule("float", [0.0, 0.0], shape=("n",), when=("open_set", "punctured")),
        "center": Rule("float", [0.0, 0.0], shape=("n",), when=("open_set", "ball")),
        "radius": Rule("float", 1.0, (">", 0), when=("open_set", "ball")),
        "boxes": Rule("float", [[[-1, -1], [1, 1]]], shape=(None, 2, "n"), when=("open_set", "boxes")),
        "min_level": Rule("int", 5),
        "skeleton_dim": Rule("int", 1, (">=", 0)),
    },
    "deform": {
        "grid_origin": Rule("int", [0, 0, 0], shape=("n",)),
        "grid_cells": Rule("int", [4, 4, 4], (">=", 1), shape=("n",)),
        "grid_level": Rule("int", 0, (">=", -MAX_GRID_LEVEL), ("<=", MAX_GRID_LEVEL)),
        "m": Rule("int", 2, (">=", 0)), "eps": Rule("float", 0.05, (">", 0)),
        "budget": Rule("int", 64, (">=", 1)), "coverage_threshold": Rule("float", 0.98, (">=", 0), ("<=", 1)),
    },
    "slice": {"map": Rule("choice", "norm", choices=("norm", "coord:")), "t": Rule("float"),
              "bin": Rule("float", None, (">", 0))},
    "minimize": {"restarts": Rule("int", 3, (">=", 1)), "steps": Rule("int", 4000, (">=", 0)),
                 "oracle_check": Rule("bool", False), "oracle_budget_dim": Rule("int", 18, (">=", 0), ("<=", 20))},
    "audit": {
        "n": Rule("int", 3, (">=", 1)), "cells": Rule("int", [4, 4, 4], (">=", 1), shape=("n",)),
        "level": Rule("int", 2, (">=", -MAX_GRID_LEVEL), ("<=", MAX_GRID_LEVEL)),
        "origin": Rule("int", [0, 0, 0], shape=("n",)),
        "subdivision": Rule("int", 8, (">=", 1)),
    },
    "probe-ellipticity": {
        "n": Rule("int", 3, (">=", 2)),
        "integrand": Rule("integrand", {"kind": "area"}),
        "plane_axes": Rule("int", [0, 1], (">=", 0), shape=(None,)),
        "m": Rule("int", 2, (">=", 1), ("<=", 2)),
        "x": Rule("float", [0.0, 0.0, 0.0], shape=("n",)),
        "sup_grid": Rule("int", 256, (">=", 1)),
    },
}


# the grid keys of a minimize problem file, under the audit's rules (origin may be left out)
PROBLEM = {"m": Rule("int", None, (">=", 1)), **{k: INPUTS["audit"][k] for k in ("n", "cells", "level", "origin")}}


def _epilog(command):
    """One line per input of the subcommand: its default and its rule."""
    lines = [{"rotate": "arguments", "slice": "arguments", "minimize": 'the problem\'s "options"'}.get(
        command, f"config keys (--config file, or {ENV_PREFIX}<KEY> as JSON)") + ":"]
    if any(rule.shape for rule in INPUTS[command].values()):
        lines.append("  (n is the ambient dimension, k any length >= 1)")
    for key, rule in INPUTS[command].items():
        default = "required" if rule.default is None else f"default {json.dumps(rule.default)}"
        when = f", read when {rule.when[0]} is {rule.when[1]}" if rule.when else ""
        lines.append(f"  {key}: {default}; {rule.describe()}{when}")
    return "\n".join(lines)


def _write_json(path, payload):
    with open(path, "w") as fh:  # numpy arrays and scalars as lists and Python numbers
        json.dump(payload, fh, sort_keys=True, indent=1, default=lambda obj: obj.tolist())
        fh.write("\n")


def _out_dir(args):
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make the output directory {out}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# rotate


def cmd_rotate(args):
    out = _out_dir(args)
    taus = _arguments(args, INPUTS["rotate"])["tau"].tolist()
    pairs, devs, bounds = [], [], []
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
            n, m = vals[:2]
            if not (n.is_integer() and m.is_integer() and 1 <= n and 0 <= m <= n):
                raise ValueError(f"n and m must be integers with 1 <= n and 0 <= m <= n, got {n:g} and {m:g}")
            n, m = int(n), int(m)
            need = 2 + 2 * n * m
            if len(vals) != need:
                raise ValueError(f"expected {need} fields, got {len(vals)}")
            if not np.isfinite(vals[2:]).all():
                raise ValueError("every frame entry must be finite")
            s = Plane(np.array(vals[2 : 2 + n * m]).reshape(n, m))
            t = Plane(np.array(vals[2 + n * m : need]).reshape(n, m))
        except ValueError as exc:
            raise InputError(f"{args.planes}:{ln}: malformed plane pair ({exc})") from exc
        d = projector_distance(s, t)
        pairs.append(ln)
        devs += np.linalg.norm(build_rotation(s, t).evaluate(taus) - np.eye(n), 2, axis=(1, 2)).tolist()
        bounds += [8.0 * abs(tau) * d for tau in taus]
    dev, bound = np.array(devs), np.array(bounds)
    status = np.where(dev <= bound + 1e-12, "pass", "fail")
    _write_table(out / "rotate_report.csv", "line,tau,norm_M_minus_I,bound,status",
                 [np.repeat(pairs, len(taus)), np.tile(taus, len(pairs)), dev, bound, status])
    failures = int((status == "fail").sum())
    _write_json(out / "rotate_summary.json", {"pairs": len(pairs), "taus": taus, "failures": failures})
    return EXIT_OK if failures == 0 else EXIT_PIPELINE


# ---------------------------------------------------------------------------
# retract / project


# Jacobian doubles (probes x n^2) that retract or project may ask for: each
# such array is at most 32 MB, and either command holds a few of them at once
MAX_PROBE_ENTRIES = 1 << 22


def _check_probe_work(probes, n):
    """InputError unless probes x n^2 Jacobian doubles stay within MAX_PROBE_ENTRIES."""
    if probes * n * n > MAX_PROBE_ENTRIES:
        raise InputError(f"probes x n^2 must be at most MAX_PROBE_ENTRIES = {MAX_PROBE_ENTRIES} Jacobian "
                         f"entries, got {probes} x {n}^2")


def cmd_retract(args):
    out = _out_dir(args)
    cfg = _config(args, INPUTS["retract"])
    n, eps = cfg["n"], cfg["eps"]
    _check_probe_work(cfg["probes"], n)
    rng = np.random.default_rng(args.seed)
    l = retraction_with_collar(n, eps)
    probes = rng.uniform(-1.0 - 2 * eps, 1.0 + 2 * eps, (cfg["probes"], n))
    img, dl = l.value_and_jacobian(probes)
    disp = np.linalg.norm(img - probes, axis=1)
    jac = np.linalg.svd(dl, compute_uv=False)[:, 0]
    dist_before = np.linalg.norm(probes - np.clip(probes, -1, 1), axis=1)
    dist_after = np.linalg.norm(img - np.clip(img, -1, 1), axis=1)
    _write_table(out / "retract_probes.csv",
                 ",".join([f"x{j}" for j in range(n)]) + ",displacement,jac_norm,dist_before,dist_after",
                 [*probes.T, disp, jac, dist_before, dist_after])
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
    n = cfg["n"]
    if cfg["body"] == "ball":
        return BallBody(n, cfg["radius"])
    if cfg["body"] == "ellipsoid":
        return EllipsoidBody(cfg["semi_axes"])
    try:
        return cube_enclosure(n, cfg["inner"], cfg["outer"])
    except ValueError as exc:  # not inner < outer, or no exponent fits
        raise InputError(f"inner and outer: {exc}") from exc


def cmd_project(args):
    out = _out_dir(args)
    cfg = _config(args, INPUTS["project"])
    _check_probe_work(cfg["probes"], len(cfg["semi_axes"]) if cfg["body"] == "ellipsoid" else cfg["n"])
    body = _body_from_config(cfg)
    n = body.n
    rng = np.random.default_rng(args.seed)
    p, t = central_projection(body)
    eps = cfg["eps"]
    if eps > body.circumradius / 2:  # collared_projection caps eps / circumradius at 1/2
        raise InputError(f"eps must be at most half the body's circumradius {body.circumradius:g}, got {eps}")
    q = collared_projection(body, eps)
    probes = rng.uniform(-1.5 * body.circumradius, 1.5 * body.circumradius, (cfg["probes"], n))
    probes = probes[np.linalg.norm(probes, axis=1) > 1e-3]
    (pv, pj), qv = p.value_and_jacobian(probes), q.value(probes)
    fd = np.abs(pj - p.jacobian_fd(probes)).max()
    nu = body.normal(pv)
    xh = probes / np.linalg.norm(probes, axis=1, keepdims=True)
    bound = np.linalg.norm(pv, axis=1) / np.linalg.norm(probes, axis=1) * (1.0 + 1.0 / np.einsum("ni,ni->n", nu, xh))
    jnorm = np.linalg.svd(pj, compute_uv=False)[:, 0]
    q_move, p_move = (np.sqrt(_grid.row_dots(d, d)) for d in (qv - probes, pv - probes))
    _write_table(out / "project_probes.csv",
                 ",".join([f"x{j}" for j in range(n)]) + ",q_move,p_move,dp_norm,dp_bound",
                 [*probes.T, q_move, p_move, jnorm, bound])
    summary = {
        "fd_jacobian_error": float(fd),
        "derivative_bound_ok": bool(np.all(jnorm <= bound + 1e-9)),
        "q_shorter_than_p": bool(np.all(q_move <= p_move + 1e-12)),
        "pass": bool(fd < 1e-5 and np.all(jnorm <= bound + 1e-9)),
    }
    _write_json(out / "project_summary.json", summary)
    return EXIT_OK if summary["pass"] else EXIT_PIPELINE


# ---------------------------------------------------------------------------
# whitney


def _open_set_from_config(cfg):
    """The open set of a whitney config."""
    if cfg["open_set"] == "boxes":
        return BoxUnion([(b[0], b[1]) for b in cfg["boxes"]])
    if cfg["open_set"] == "ball":
        return BallSet(cfg["center"], cfg["radius"])
    return PuncturedPlane(cfg["point"])


def cmd_whitney(args):
    out = _out_dir(args)
    cfg = _config(args, INPUTS["whitney"], n=lambda cfg: cfg["bbox"].shape[1])
    bbox, k = cfg["bbox"], cfg["skeleton_dim"]
    if k > bbox.shape[1]:
        raise InputError(f"skeleton_dim must be at most {bbox.shape[1]}, got {k}")
    for what, (lo, hi) in [("bbox", bbox), *(("box", box) for box in cfg.get("boxes", []))]:
        if not (lo < hi).all():
            raise InputError(f"{what} must have lo < hi on every axis, got lo {lo.tolist()} and hi {hi.tolist()}")
    try:
        fam = whitney_family(_open_set_from_config(cfg), (bbox[0], bbox[1]), cfg["min_level"])
    except ValueError as exc:  # a box slot grid beyond MAX_FACE_CELLS cells, or cube bounds beyond 2^53
        raise InputError(str(exc)) from exc
    if len(fam) == 0:
        _write_json(out / "whitney_summary.json", {"cubes": 0, "meta": fam.meta})
        return EXIT_OK
    cx = cubical_complex(fam)
    with open(out / "whitney_complex.json", "w") as fh:
        fh.write(cx.to_json())
        fh.write("\n")
    with open(out / f"whitney_skeleton_{k}.obj", "w") as fh:
        fh.write(cx.skeleton_to_obj(k))
    _write_json(out / "whitney_summary.json",
                {"cubes": len(fam), "meta": fam.meta, "complex_sizes": {k: len(v) for k, v in cx.by_dim.items()},
                 "admissible": fam.admissible()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# deform


def cmd_deform(args):
    out = _out_dir(args)
    v = _read_set(args.set)
    n = v.ambient_dim
    cfg = _config(args, INPUTS["deform"], n)
    try:
        _check_grid_cells(cfg["grid_cells"])
    except ValueError as exc:
        raise InputError(f"grid_cells: {exc}") from exc
    fam = CubeFamily([DyadicCube(cfg["grid_level"], tuple(o + c_i for o, c_i in zip(cfg["grid_origin"], c)),
                                 tuple(range(n)), n) for c in np.ndindex(*cfg["grid_cells"])])
    m, eps = cfg["m"], cfg["eps"]
    cx = cubical_complex(fam)
    if args.replay:
        try:
            plan = DeformationPlan.from_json(Path(args.replay).read_text())
        except (OSError, KeyError, TypeError, ValueError) as exc:  # a missing key raises KeyError
            raise InputError(f"cannot load plan {args.replay}: {type(exc).__name__} {exc}") from exc
        for i, stage in enumerate(plan.stages):
            if stage.cube.ambient_dim != n:
                raise InputError(f"plan {args.replay}: stage {i} has a cube in R^{stage.cube.ambient_dim}, "
                                 f"not in R^{n} of the set")
        f1 = plan.compose_stages() or SmoothMap.identity(n)
    else:
        try:
            plan, _, f1 = deform_onto_skeleton(
                fam, cx, [v] if len(v) else [], m, eps,
                seed=args.seed, budget=cfg["budget"], coverage_threshold=cfg["coverage_threshold"],
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
    _write_table(out / "deformed_set.csv",
                 ",".join([f"x{j}" for j in range(n)]) + "," + ",".join([f"y{j}" for j in range(n)]),
                 [*v.points.T, *img.T])
    constants = dict(plan.constants)
    if len(v):
        best = np.full(len(img), np.inf)
        for lo_b, hi_b in zip(*_row_bounds(*cx.cell_rows(m))):
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
        def evaluate(x, jac):
            nr = np.linalg.norm(x, axis=1, keepdims=True)
            return nr, (x / np.where(nr > 0, nr, 1.0))[:, None, :] if jac else None

        return SmoothMap(n, 1, evaluate=evaluate, name="norm")
    a = np.zeros((1, n))
    a[0, int(kind.split(":")[1])] = 1.0  # coord:j
    return SmoothMap.affine(a)


def _read_set(path):
    try:
        return DiscreteVarifold.from_csv(path)
    except (OSError, ValueError) as exc:  # ValueError: the set-file rule
        raise InputError(f"cannot read set {path}: {exc}") from exc


def cmd_slice(args):
    out = _out_dir(args)
    v = _read_set(args.set)
    cfg = _arguments(args, INPUTS["slice"], v.ambient_dim)
    result = slice_varifold(v, _scalar_map(cfg["map"], v.ambient_dim), cfg["t"], cfg["bin"])
    result.varifold.to_csv(out / "slice.csv")
    _write_json(out / "slice_summary.json", {"t": cfg["t"], "bin": cfg["bin"], "mass": result.mass(),
                                             "samples": len(result.varifold),
                                             "dropped_degenerate": result.dropped_degenerate})
    return EXIT_OK


# ---------------------------------------------------------------------------
# minimize / audit


def _problem_from_json(path):
    data = _read_json(path, "problem")
    required = {"n", "cells", "level", "m", "boundary_cells", "generators", "integrand"}
    unknown = set(data) - required - {"origin", "options"}
    if unknown:
        raise InputError(f"unknown problem keys: {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise InputError(f"missing problem keys: {sorted(missing)}")
    grid = _checked({k: rule for k, rule in PROBLEM.items() if k in data}, {k: data[k] for k in PROBLEM if k in data},
                    n=lambda cfg: cfg["n"], what="problem")
    n, m = grid["n"], grid["m"]
    try:
        if m >= n:
            raise ValueError(f"m = {m} leaves no (m+1)-cells to move across in n = {n}")
        cx = GridComplex(n, grid["cells"], grid["level"], grid.get("origin"))
        bcells = [DyadicCube.from_dict(d) for d in data["boundary_cells"]]
        generators = [(np.bincount(cx.rows(m - 1, map(DyadicCube.from_dict, gen)), minlength=cx.count(m - 1)) % 2)
                      .astype(np.uint8) for gen in data["generators"]]
        integrand = integrand_from_config(data["integrand"], n=n)
        problem = SpanningProblem(cx, m, bcells, generators, integrand, dict(data.get("options", {})))
    except (TypeError, ValueError, KeyError) as exc:
        raise InputError(f"invalid problem: {exc}") from exc
    return problem


def cmd_minimize(args):
    out = _out_dir(args)
    problem = _problem_from_json(args.problem)
    opts = _checked(INPUTS["minimize"], problem.options, what="option")
    try:
        res = solver_minimize(problem, seed=args.seed, restarts=opts["restarts"], steps=opts["steps"])
    except InfeasibleError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    payload = {"value": res.value, "cells": res.chain.count(), "chain": res.chain.to_dict(),
               "initial_value": res.initial_value, "accepted_moves": len(res.trace)}
    if opts["oracle_check"]:
        _, oval = exhaustive_oracle(problem, budget_dim=opts["oracle_budget_dim"])
        payload["oracle_value"] = oval
        payload["oracle_match"] = bool(abs(oval - res.value) <= 1e-9)
    _write_json(out / "solution.json", payload)
    with open(out / "solution.obj", "w") as fh:
        fh.write(cubes_to_obj(problem.complex.cell_rows(res.chain.m, np.flatnonzero(res.chain.bits)), res.chain.m))
    if res.chain.count():
        report = audit_minimizer(res.chain, problem.integrand)
        _write_audit(out, report, problem.complex.n)
    return EXIT_OK


# sample coordinates the audit command may build, chain cells x subdivision^m x n
# doubles (128 MB), before the samples are made
MAX_AUDIT_ENTRIES = 1 << 24


def _write_audit(out, report, n):
    """audit_report.json, and audit_ratios.csv with one column per coordinate
    (px, py, pz up to three dimensions, p0, p1, ... beyond)."""
    _write_json(out / "audit_report.json", report)
    coords = ["px", "py", "pz"][:n] if n <= 3 else [f"p{j}" for j in range(n)]
    entries = report["entries"]
    points = np.array([e["point"] for e in entries], dtype=float).reshape(len(entries), n)
    points = np.repeat(points, [len(e["ratios"]) for e in entries], axis=0)  # one row per (point, radius)
    radius, ratio, flag = (np.array([r[k] for e in entries for r in e["ratios"]]) for k in range(3))
    _write_table(out / "audit_ratios.csv", ",".join(coords + ["radius", "ratio", "flag"]),
                 [*points.T, radius, ratio, flag])


def cmd_audit(args):
    out = _out_dir(args)
    data = _read_json(args.chain, "chain")
    cfg = _config(args, INPUTS["audit"], n=lambda cfg: cfg["n"])
    try:
        cx = GridComplex(cfg["n"], cfg["cells"], cfg["level"], cfg["origin"])
    except ValueError as exc:  # a grid beyond MAX_GRID_CELLS
        raise InputError(str(exc)) from exc
    m = _checked({"m": PROBLEM["m"]}, {"m": data.get("m")}, what="chain")["m"]
    try:
        bits = np.zeros(cx.count(m), dtype=bool)
        bits[cx.rows(m, map(DyadicCube.from_dict, data["cells"]))] = True
    except (KeyError, TypeError, ValueError) as exc:  # a missing key raises KeyError
        raise InputError(f"invalid chain {args.chain}: {type(exc).__name__} {exc}") from exc
    chain = Chain2(cx, m, bits)
    entries = chain.count() * cfg["subdivision"] ** m * cx.n
    if entries > MAX_AUDIT_ENTRIES:
        raise InputError(f"chain cells x subdivision^m x n must be at most MAX_AUDIT_ENTRIES = {MAX_AUDIT_ENTRIES} "
                         f"sample coordinates, got {chain.count()} x {cfg['subdivision']}^{m} x {cx.n}")
    report = audit_minimizer(chain, None, subdivision=cfg["subdivision"])
    _write_audit(out, report, cx.n)
    return EXIT_OK


def cmd_probe_ellipticity(args):
    out = _out_dir(args)
    cfg = _config(args, INPUTS["probe-ellipticity"], n=lambda cfg: cfg["n"])
    n = cfg["n"]
    try:
        plane = Plane.axis(n, cfg["plane_axes"])
    except ValueError as exc:
        raise InputError(f"plane_axes {cfg['plane_axes']!r} are not axes of R^{n}: {exc}") from exc
    if plane.dim >= n:
        raise InputError(f"plane_axes must leave a normal direction in R^{n}")
    if cfg["m"] != plane.dim:
        raise InputError(f"m must equal the number of plane_axes ({plane.dim}), got {cfg['m']}")
    report = ellipticity_probe(cfg["integrand"], cfg["x"], plane, sup_grid=cfg["sup_grid"], seed=args.seed)
    _write_json(out / "ellipticity_report.json", {"margins": report.margins, "min_margin": report.min_margin,
                                                   "counterexample": report.counterexample})
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as one line and exit 2."""

    def error(self, message):
        sys.stderr.write(f"input error: {message}\n")
        sys.exit(EXIT_INPUT)


@contextlib.contextmanager
def _stderr_log(level):
    """While open, one stderr handler on the gmtkit logger at ``level``
    (nothing when None); the logger is left as it was found."""
    if level is None:
        yield
        return
    logger = logging.getLogger("gmtkit")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    old = logger.level
    logger.addHandler(handler)
    logger.setLevel(level)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old)


def main(argv=None):
    parser = _Parser(prog="gmtkit", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="gmtkit_out")
    parser.add_argument("--config", default=None)
    parser.add_argument("--log-level", type=str.upper, choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
                        help="log the library (the gmtkit logger) to stderr at this level; off by default")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *positional):
        p = sub.add_parser(name, help=help, epilog=_epilog(name),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        for arg in positional:
            p.add_argument(arg)
        p.set_defaults(fn=fn)
        return p

    command("rotate", cmd_rotate, "rotation bounds on plane pairs", "planes").add_argument(
        "--tau", type=lambda text: text.split(","), help="comma-separated path parameters")
    command("retract", cmd_retract, "collared cube retraction contract")
    command("project", cmd_project, "central projection checks")
    command("whitney", cmd_whitney, "Whitney family and complex of an open set")
    command("deform", cmd_deform, "deform a sampled set onto a grid skeleton", "set").add_argument("--replay")
    p = command("slice", cmd_slice, "slice a varifold by a scalar map", "set")
    p.add_argument("--map")
    p.add_argument("--t", required=True)
    p.add_argument("--bin", required=True)
    command("minimize", cmd_minimize, "solve a spanning problem", "problem")
    command("audit", cmd_audit, "density-ratio audit of a chain", "chain")
    command("probe-ellipticity", cmd_probe_ellipticity, "one-sided ellipticity probe")

    args = parser.parse_args(argv)
    try:
        with _stderr_log(args.log_level):
            return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (StageError, OracleBudgetError) as exc:
        sys.stderr.write(f"pipeline failure: {exc}\n")
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
