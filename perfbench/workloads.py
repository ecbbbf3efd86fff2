"""The benchmark's four workloads: seeded inputs, timed operations, checks, digests.

Every workload is a closed loop: one caller runs the operations in order and
each waits for the one before.  ``build(name, variant, workdir)`` makes the
inputs (this is the set-up that ``setup_s`` times) and returns the operations.
An operation's ``run`` is what ``wall_s`` times; its ``judge`` runs after the
timer stops and returns the correctness failures, the artifacts whose sha256
is compared with ``reference_digests.json``, and the quality figures.

``run.py`` maps the seed to one of a few input variants (seed modulo their
number), so that every seed has reference digests recorded on the seed commit.  Within a
workload the variants differ only in what leaves its cost profile alone:
sample seeds, or the seeds handed to the randomized algorithms.

Workload notes: why each was chosen, and what a change to each layer should
move ("moves") or leave alone ("still").  Per-layer names are those of
``spantrace.PER_LAYER``.

deform_disc
    The criterion-5 instance: a 5000-sample disc of radius 1.3 centred at
    (2, 2, 2.3), tilted by each of the criterion's first two seeded rotations
    and deformed onto the 2-skeleton of the 4^3 unit grid with eps = 0.05;
    then g1 is applied and the disc pushed forward.  ``deform.select_center``
    is nearly all of each plan, ``cubical.cubical_complex`` a few hundredths
    of a second.  The seed draws the disc's samples; the deformation keeps
    the criterion's own seeds, which holds the stage count and the mean mass
    ratio of the two plans within a few percent across seeds.
    Moves: wall_s with any centre-selection, recentering or transport change.
    Still: cubical changes; solver changes.
purge_cantor
    The criterion-7 composite, scaled so a pass takes about 10 s instead of
    30: a depth-5 Cantor set (angle 0.004) and a 512-sample segment over the
    min_level-3 Whitney family of [-1, 2]^2 with eps = 0.2 and cluster_gap
    0.2, then g applied to the segment and the Cantor set; plus criterion 7's
    kill check, the perturbation against a rank-one map on the depth-6,
    angle-0.012 Cantor set.  select_center (about two thirds), then
    unrect_perturbation, cubical_complex, whitney_family and pushforward
    share the time, so a gain in any one shows at its true share.
    Moves: wall_s with deform, cubical, cubemaps or varifold changes
    (unrect_perturbation also calls grassmann.build_rotation a few times).
    Still: solver changes.
plateau_solve
    Mod-2 Plateau problems, each minimize(restarts=2, steps=4000) followed by
    audit_minimizer: the criterion-8 squares (checked against
    exhaustive_oracle), and L-shaped (bent) boundaries on level-3 grids of
    8^3, 12^3 and 16^3 cells.  GF(2) elimination (spans, initial_chain,
    gf2_solve) dominates and the 16^3 dense boundary matrices set peak_rss_mb.
    Moves: wall_s, peak_rss_mb and solution_energy with solver changes.
    Still: every deform.* and cubical.* metric is zero here.
    Known solver defects kept visible, both at minimize seed 0 on every seed:
    the 16^3 problem is the one on which the annealer was seen to finish at
    5.28125 from an initial_value of 5.25; with this construction it returns
    its initial 5.25.  The far-wall L on 8^3 starts at 1.25 from elimination
    and the annealer ends at 1.15625, above the 0.75 that the same sheet
    area allows.  solution_energy records both, so a fix shows as a drop.
cli_batch
    Every subcommand run in-process through ``gmtkit.cli.main`` with fixed
    inputs: rotate on a seeded batch of plane pairs, retract, project, whitney
    of the unit disc at min_level 5 (cubical_complex is most of it), deform of
    the criterion-10 disc and a replay of the plan it wrote, slice, minimize
    with oracle_check, audit and probe-ellipticity.  Every artifact is
    digested.  Replay never calls select_center, so a change that speeds up
    planning but slows stage construction shows here.
    Moves: wall_s and artifacts_changed with any user-facing change.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gmtkit import cli, cubemaps, cubical, deform, sampling, solver, varifold
from gmtkit.grassmann import Plane


@dataclass
class Verdict:
    failures: list
    artifacts: dict  # artifact name -> bytes
    energy: float | None = None  # solver value contributing to solution_energy
    mass_ratio: float | None = None  # contributes to image_mass_ratio
    notes: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: object  # () -> raw result; timed
    judge: object  # raw -> Verdict; untimed


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# deform_disc

DISC_CENTER = [2.0, 2.0, 2.3]
DISC_EPS = 0.05
DISC_ROTATION_SEEDS = (500, 501)


def _skeleton_distance(points, cubes):
    best = np.full(len(points), np.inf)
    for c in cubes:
        lo, hi = c.bounds()
        best = np.minimum(best, np.linalg.norm(points - np.clip(points, lo, hi), axis=1))
    return best


def build_deform_disc(variant, workdir):
    grid = cubical.CubeFamily([
        cubical.DyadicCube(0, (i, j, k), (0, 1, 2), 3)
        for i in range(4) for j in range(4) for k in range(4)
    ])
    base, w = sampling.sample_disc(1.3, 5000, seed=105 + variant, center=DISC_CENTER)
    discs = []
    for rs in DISC_ROTATION_SEEDS:
        rot = sampling.random_rotation(3, seed=rs)
        pts = sampling.rotate_about(base, DISC_CENTER, rot)
        discs.append(varifold.DiscreteVarifold.flat(pts, Plane(rot @ Plane.axis(3, (0, 1)).frame), w))
    state = {}

    def make_complex():
        state["cx"] = cubical.cubical_complex(grid)
        return state["cx"]

    def judge_complex(cx):
        fails = [] if len(cx.skeleton(2)) else ["empty 2-skeleton"]
        return Verdict(fails, {"complex.json": cx.to_json().encode()})

    def judge_plan(raw):
        plan, img, ratio = raw
        fails = []
        d = _skeleton_distance(img, state["cx"].skeleton(2))
        if not np.all(d <= DISC_EPS / 4):
            fails.append(f"{int(np.sum(d > DISC_EPS / 4))} image points off the 2-skeleton")
        if not math.isfinite(ratio):
            fails.append("mass ratio not finite")
        return Verdict(fails, {"plan.json": plan.to_json().encode(), "g1_image": img.tobytes()},
                       mass_ratio=ratio, notes={"stages": len(plan.stages)})

    ops = [Op("complex", make_complex, judge_complex)]
    for k, v in enumerate(discs):
        def plan_op(v=v, k=k):
            plan, g1, _f1 = deform.deform_onto_skeleton(
                grid, state["cx"], [v], 2, DISC_EPS, seed=105 + k)
            img = g1.value(v.points)
            ratio = varifold.pushforward(g1, v).mass() / v.mass()
            return plan, img, ratio

        ops.append(Op(f"plan_{k}", plan_op, judge_plan))
    return ops


# ---------------------------------------------------------------------------
# purge_cantor

PURGE_BOUNDS = ([-1.0, -1.0], [2.0, 2.0])


def _rank_one_map():
    """f(x) = (x_0, 0): a globally rank-one smooth map of the plane."""

    def value(x):
        out = np.zeros_like(x)
        out[:, 0] = x[:, 0]
        return out

    def jac(x):
        j = np.zeros((len(x), 2, 2))
        j[:, 0, 0] = 1.0
        return j

    return cubemaps.SmoothMap(2, 2, value, jac, name="rank1")


def build_purge_cantor(variant, workdir):
    cpts, cw = sampling.four_corner_cantor(5, angle=0.004)
    s_u = varifold.DiscreteVarifold.isotropic_set(cpts, cw, 1)
    seg_pts, seg_w = sampling.sample_segment([0.1, -0.25], [1.1, -0.25], 512)
    s_r = varifold.DiscreteVarifold.flat(seg_pts, Plane.axis(2, (0,)), seg_w)
    kill_pts, _ = sampling.four_corner_cantor(6, angle=0.012)
    f = _rank_one_map()
    kill_region = cubemaps.Box([-0.8, -0.8], [1.8, 1.8])

    def purge_op():
        g, report = deform.purge_unrectifiable(
            s_r, s_u, PURGE_BOUNDS, 0.2, min_level=3, cluster_gap=0.2, seed=variant)
        seg_img = g.value(seg_pts)
        cantor_img = g.value(cpts)
        ratio = varifold.pushforward(g, s_r).mass() / s_r.mass()
        return report, seg_img, cantor_img, ratio

    def judge_purge(raw):
        report, seg_img, cantor_img, ratio = raw
        res = 1.0 / 512
        seg_in, _ = varifold.covering_measure(seg_pts, 1, res)
        seg_out, _ = varifold.covering_measure(seg_img, 1, res)
        gamma = seg_out / seg_in
        fails = [] if math.isfinite(gamma) and gamma < 16.0 else [f"segment Gamma_emp {gamma}"]
        c_in, _ = varifold.covering_measure(cpts, 1, 0.25**5)
        c_out, _ = varifold.covering_measure(cantor_img, 1, 0.25**5)
        return Verdict(
            fails,
            {"plan.json": report["plan"].to_json().encode(), "g_segment": seg_img.tobytes(),
             "g_cantor": cantor_img.tobytes()},
            mass_ratio=ratio,
            notes={"gamma_emp": gamma, "composite_cantor_ratio": c_out / c_in,
                   "stages": len(report["plan"].stages)},
        )

    def kill_op():
        rho = cubemaps.unrect_perturbation(kill_pts, f, kill_region, 0.8, 1,
                                           cluster_gap=0.2, seed=variant)
        return f.value(rho.value(kill_pts))

    def judge_kill(img):
        res = 0.25**6
        c_in, _ = varifold.covering_measure(kill_pts, 1, res)
        c_out, _ = varifold.covering_measure(img, 1, res)
        fails = [] if c_out <= 0.2 * c_in else [f"Cantor covering ratio {c_out / c_in:.4f} > 0.2"]
        return Verdict(fails, {"f_rho_cantor": img.tobytes()}, notes={"cantor_ratio": c_out / c_in})

    return [Op("purge", purge_op, judge_purge), Op("cantor_kill", kill_op, judge_kill)]


# ---------------------------------------------------------------------------
# plateau_solve


def _square_problem(level, cells):
    """Criterion 8: the bottom square's perimeter on a cells^3 grid."""
    cx = solver.GridComplex(3, (cells,) * 3, level)
    z = np.zeros(cx.count(1), dtype=np.uint8)
    edges = []
    for i in range(cells):
        for corner, axes in [((i, 0, 0), (0,)), ((i, cells, 0), (0,)),
                             ((0, i, 0), (1,)), ((cells, i, 0), (1,))]:
            c = cubical.DyadicCube(level, corner, axes, 3)
            z[cx.index[c][1]] = 1
            edges.append(c)
    return solver.SpanningProblem(cx, 2, edges, [z], varifold.AreaIntegrand())


def _l_problem(cells, far_wall=False, level=3):
    """The boundary of an L-shaped sheet: a floor and a wall bent up from it.

    The floor is (cells-4) x (cells-2) cells at z = 0 and the wall (cells-2)
    x (cells-4) cells, standing at x = 0 or, with ``far_wall``, at the floor's
    far edge.
    """
    a, b = cells - 4, cells - 2
    x_wall = a if far_wall else 0
    sheet = [((i, j, 0), (0, 1)) for i in range(a) for j in range(b)]
    sheet += [((x_wall, j, k), (1, 2)) for j in range(b) for k in range(a)]
    cx = solver.GridComplex(3, (cells,) * 3, level)
    z = np.zeros(cx.count(1), dtype=np.uint8)
    for corner, axes in sheet:
        for facet in cubical.DyadicCube(level, corner, axes, 3).facets():
            z[cx.index[facet][1]] ^= 1
    edges = [cx.cells[1][i] for i in np.nonzero(z)[0]]
    return solver.SpanningProblem(cx, 2, edges, [z], varifold.AreaIntegrand())


def build_plateau_solve(variant, workdir):
    # (name, problem, minimize seed, checked against the oracle)
    problems = [
        ("square_half", _square_problem(1, 2), variant, True),
        ("square_quarter", _square_problem(2, 4), variant, True),
        ("l8", _l_problem(8), variant, False),
        ("l12", _l_problem(12), variant, False),
        ("l16", _l_problem(16), 0, False),
        ("l8_far", _l_problem(8, far_wall=True), 0, False),
    ]
    ops = []
    for name, problem, seed, oracle in problems:
        def solve_op(problem=problem, seed=seed, oracle=oracle):
            res = solver.minimize(problem, seed=seed, restarts=2, steps=4000)
            oval = solver.exhaustive_oracle(problem)[1] if oracle else None
            report = solver.audit_minimizer(res.chain, problem.integrand)
            return res, oval, report

        def judge_solve(raw, problem=problem):
            res, oval, report = raw
            fails = []
            if oval is not None and res.value != oval:
                fails.append(f"minimize value {res.value} != oracle {oval}")
            if not solver.spans(res.chain, problem):
                fails.append("returned chain does not span")
            if not report["entries"]:
                fails.append("empty audit")
            return Verdict(fails, {"chain_bits": np.packbits(res.chain.bits).tobytes()},
                           energy=res.value,
                           notes={"value": res.value, "initial_value": res.initial_value,
                                  "accepts": len(res.trace)})

        ops.append(Op(name, solve_op, judge_solve))
    return ops


# ---------------------------------------------------------------------------
# cli_batch


def _plane_pairs(rng, count):
    lines = []
    dims = [(2, 1), (3, 1), (3, 2), (4, 2)]
    for i in range(count):
        n, m = dims[i % len(dims)]
        frames = [np.linalg.qr(rng.standard_normal((n, m)))[0] for _ in range(2)]
        vals = [n, m] + [repr(float(v)) for f in frames for v in f.ravel()]
        lines.append(" ".join(str(v) for v in vals))
    return "\n".join(lines) + "\n"


def _cli_inputs(variant, inputs: Path):
    inputs.mkdir(parents=True, exist_ok=True)
    files = {
        "planes": inputs / "planes.txt",
        "whitney": inputs / "whitney.json",
        "disc": inputs / "disc.csv",
        "slice_set": inputs / "slice_set.csv",
        "problem": inputs / "problem.json",
        "chain": inputs / "chain.json",
    }
    files["planes"].write_text(_plane_pairs(np.random.default_rng(700 + variant), 24))
    files["whitney"].write_text(json.dumps(
        {"open_set": "ball", "center": [0.0, 0.0], "radius": 1.0,
         "bbox": [[-1, -1], [1, 1]], "min_level": 5}))
    pts, w = sampling.sample_disc(1.3, 600, seed=9, center=[2.0, 2.0, 2.05])
    varifold.DiscreteVarifold.flat(pts, Plane.axis(3, (0, 1)), w).to_csv(files["disc"])
    rpts, rw = sampling.ring_sampled_disc(1.0, ring_spacing=0.05 / 16, points_per_unit_length=60)
    varifold.DiscreteVarifold.flat(rpts, Plane.axis(3, (0, 1)), rw).to_csv(files["slice_set"])
    edges = []
    for i in range(2):
        for corner, axes in [((i, 0, 0), (0,)), ((i, 2, 0), (0,)), ((0, i, 0), (1,)), ((2, i, 0), (1,))]:
            edges.append({"level": 1, "corner": list(corner), "axes": list(axes), "n": 3})
    files["problem"].write_text(json.dumps(
        {"n": 3, "cells": [2, 2, 2], "level": 1, "m": 2, "boundary_cells": edges,
         "generators": [edges], "integrand": {"kind": "area"},
         "options": {"restarts": 2, "steps": 800, "oracle_check": True}}))
    files["chain"].write_text(json.dumps(
        {"m": 2, "level": 2,
         "cells": [{"level": 2, "corner": [i, j, 0], "axes": [0, 1], "n": 3}
                   for i in range(4) for j in range(4)]}))
    return files


def build_cli_batch(variant, workdir):
    files = _cli_inputs(variant, workdir / "inputs")
    seed = str(11 + variant)
    out = workdir / "out"
    commands = [
        ("rotate", ["rotate", files["planes"]]),
        ("retract", ["retract"]),
        ("project", ["project"]),
        ("whitney", ["--config", files["whitney"], "whitney"]),
        ("deform", ["deform", files["disc"]]),
        ("deform_replay", ["deform", files["disc"], "--replay", out / "deform" / "deform_plan.json"]),
        ("slice", ["slice", files["slice_set"], "--t", "0.5", "--bin", "0.05"]),
        ("minimize", ["minimize", files["problem"]]),
        ("audit", ["audit", files["chain"]]),
        ("probe_ellipticity", ["probe-ellipticity"]),
    ]
    ops = []
    for name, cmd in commands:
        op_out = out / name
        argv = [str(a) for a in ["--seed", seed, "--out", op_out] + cmd]

        def cli_op(argv=argv):
            return cli.main(argv)

        def judge_cli(code, name=name, op_out=op_out):
            fails = [] if code == 0 else [f"exit code {code}"]
            artifacts = {p.name: p.read_bytes() for p in sorted(op_out.iterdir())} if op_out.is_dir() else {}
            energy = None
            if name == "minimize" and "solution.json" in artifacts:
                energy = json.loads(artifacts["solution.json"])["value"]
            return Verdict(fails, artifacts, energy=energy)

        ops.append(Op(name, cli_op, judge_cli))
    return ops


WORKLOADS = {
    "deform_disc": build_deform_disc,
    "purge_cantor": build_purge_cantor,
    "plateau_solve": build_plateau_solve,
    "cli_batch": build_cli_batch,
}


def build(name, variant, workdir: Path):
    return WORKLOADS[name](variant, workdir)
