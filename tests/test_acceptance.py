"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass/fail line (visible with pytest -s or in the
captured output) and asserts its runtime budget.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import rank_one_map, skeleton_distance, square_cycle
from gmtkit import cli
from gmtkit.cubemaps import (
    BallBody,
    EllipsoidBody,
    central_projection,
    retraction_with_collar,
    unrect_perturbation,
    Box,
    FaceIndex,
)
from gmtkit.cubical import CubeFamily, DyadicCube, cubical_complex
from gmtkit.deform import deform_onto_skeleton, purge_unrectifiable
from gmtkit.grassmann import Plane, build_rotation, projector_distance, tilt_measure_excess
from gmtkit.sampling import (
    four_corner_cantor,
    random_rotation,
    ring_sampled_disc,
    rotate_about,
    sample_disc,
    sample_segment,
)
from gmtkit.solver import (
    Chain2,
    GridComplex,
    SpanningProblem,
    audit_minimizer,
    exhaustive_oracle,
    minimize,
)
from gmtkit.varifold import (
    AreaIntegrand,
    DiscreteVarifold,
    TiltPenaltyIntegrand,
    blowup_map,
    covering_measure,
    pullback_integrand,
    pushforward,
    slice_varifold,
)
from oracles import face_contains, tangent_axes
from test_varifold import norm_map


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[acceptance {number}] FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"[acceptance {number}] PASS - {description} ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s budget"


def _haar_batch(n, m, count, rng):
    """Batched Haar frames via QR of Gaussian matrices."""
    g = rng.standard_normal((count, n, m))
    q, _ = np.linalg.qr(g)
    return q


def test_01_rotation_bounds():
    with criterion(1, "rotation bounds over G(n,m), n <= 6", 10.0):
        rng = np.random.default_rng(101)
        taus = np.array([-1.0, -0.5, 0.3, 1.0, 2.0])
        step = 1e-5
        tau_grid = np.concatenate([taus, taus + step, taus - step, [1.0]])
        for n in range(1, 7):
            for m in range(1, n + 1):
                fs = _haar_batch(n, m, 1000, rng)
                ft = _haar_batch(n, m, 1000, rng)
                eye = np.eye(n)
                for i in range(1000):
                    s = Plane(fs[i], orthonormalize=False)
                    t = Plane(ft[i], orthonormalize=False)
                    rot = build_rotation(s, t)
                    d = projector_distance(s, t)
                    stack = rot.evaluate(tau_grid)
                    m_tau, m_plus, m_minus, m_one = (
                        stack[:5], stack[5:10], stack[10:15], stack[15]
                    )
                    assert np.abs(m_one @ s.projector() @ m_one.T - t.projector()).max() <= 1e-9
                    gram = np.einsum("tji,tjk->tik", m_tau, m_tau)
                    assert np.abs(gram - eye).max() <= 1e-10
                    dev = np.linalg.svd(m_tau - eye, compute_uv=False)[:, 0]
                    assert np.all(dev <= 8 * np.abs(taus) * d + 1e-12)
                    fd = (m_plus - m_minus) / (2 * step)
                    fd_norm = np.linalg.svd(fd, compute_uv=False)[:, 0]
                    assert np.all(fd_norm <= 8 * d * (1 + 1e-4) + 1e-12)


def test_02_tilt_measure_sandwich():
    with criterion(2, "tilt/measure-excess sandwich", 5.0):
        rng = np.random.default_rng(102)
        for n in range(1, 7):
            for m in range(1, n + 1):
                fp = _haar_batch(n, m, 2000, rng)
                fq = _haar_batch(n, m, 2000, rng)
                for i in range(2000):
                    lo, mid, hi = tilt_measure_excess(
                        Plane(fp[i], orthonormalize=False), Plane(fq[i], orthonormalize=False)
                    )
                    assert lo <= mid + 1e-12
                    assert mid <= hi + 1e-12


def test_03_cube_retraction_contract():
    with criterion(3, "collared cube retraction contract", 30.0):
        rng = np.random.default_rng(103)
        eps = 0.1
        for n in (2, 3):
            l = retraction_with_collar(n, eps)
            probes = rng.uniform(-1 - 3 * eps, 1 + 3 * eps, (10_000, n))
            img = l.value(probes)
            dist_before = np.linalg.norm(probes - np.clip(probes, -1, 1), axis=1)
            beyond = dist_before > eps
            assert np.array_equal(img[beyond], probes[beyond])
            assert np.linalg.norm(img - probes, axis=1).max() <= eps + 1e-12
            norms = np.linalg.svd(l.jacobian(probes), compute_uv=False)[:, 0]
            assert norms.max() < 16 * math.sqrt(n)
            dist_after = np.linalg.norm(img - np.clip(img, -1, 1), axis=1)
            assert np.all(dist_after <= dist_before + 1e-12)
            # face preservation per kappa over boundary probes
            for kappa in itertools.product((-1, 0, 1), repeat=n):
                if all(k == 0 for k in kappa):
                    continue
                fi = FaceIndex(kappa)
                count = 1000 // (3**n - 1) + 30
                pts = np.array(fi.center())[None, :] * np.ones((count, 1))
                for a in tangent_axes(fi):
                    pts[:, a] = rng.uniform(-0.999, 0.999, count)
                img_f = l.value(pts)
                assert np.all(face_contains(fi, img_f, tol=1e-12))


def test_04_central_projection():
    with criterion(4, "central projection formulas and bounds", 30.0):
        rng = np.random.default_rng(104)
        # unit ball closed form to 1e-12
        p, t = central_projection(BallBody(2, 1.0))
        x = rng.uniform(-2, 2, (2000, 2))
        x = x[np.linalg.norm(x, axis=1) > 0.05]
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        assert np.abs(p.value(x) - x / norms).max() <= 1e-12
        assert np.abs(t.value(x)[:, 0] - 1.0 / norms[:, 0]).max() <= 1e-12
        # ellipse finite differences at 100 probes
        body = EllipsoidBody([2.0, 1.0])
        pe, te = central_projection(body)
        probes = rng.uniform(-1.8, 1.8, (300, 2))
        probes = probes[np.linalg.norm(probes, axis=1) > 0.1][:100]
        assert np.abs(pe.jacobian(probes) - pe.jacobian_fd(probes)).max() <= 1e-5
        # derivative bound at all probes
        pv = pe.value(probes)
        nu = body.normal(pv)
        xh = probes / np.linalg.norm(probes, axis=1, keepdims=True)
        bound = np.linalg.norm(pv, axis=1) / np.linalg.norm(probes, axis=1) * (
            1 + 1 / np.einsum("ni,ni->n", nu, xh)
        )
        jn = np.linalg.svd(pe.jacobian(probes), compute_uv=False)[:, 0]
        assert np.all(jn <= bound + 1e-9)


def test_05_deformation_theorem_desk_instance():
    with criterion(5, "deformation of a flat disc onto the 2-skeleton", 120.0):
        rng = np.random.default_rng(105)
        grid = CubeFamily(
            [DyadicCube(0, (i, j, k), (0, 1, 2), 3) for i in range(4) for j in range(4) for k in range(4)]
        )
        cx = cubical_complex(grid)
        eps = 0.05
        base_pts, w = sample_disc(1.3, 5000, seed=105, center=[2.0, 2.0, 2.3])
        h_plane = Plane.axis(3, (0, 1))
        sk2 = cx.skeleton(2)
        ratios = []
        for k in range(5):
            rot = random_rotation(3, seed=500 + k)
            pts = rotate_about(base_pts, [2.0, 2.0, 2.3], rot)
            v = DiscreteVarifold.flat(pts, Plane(rot @ h_plane.frame), w)
            plan, g1, f1 = deform_onto_skeleton(grid, cx, [v], 2, eps, seed=105 + k)
            img = g1.value(pts)
            d = skeleton_distance(img, sk2)
            assert float((d <= eps / 4).mean()) == 1.0
            ratios.append(pushforward(g1, v).mass() / v.mass())
            if k == 0:
                exterior = rng.uniform(-1.5, 5.5, (4000, 3))
                exterior = exterior[
                    np.linalg.norm(exterior - np.clip(exterior, 0, 4), axis=1) > eps
                ][:1000]
                assert np.array_equal(f1.value(exterior), exterior)
        mean = float(np.mean(ratios))
        assert all(np.isfinite(r) for r in ratios)
        assert all(abs(r - mean) <= 0.2 * mean for r in ratios), ratios


def test_06_slicing_and_blowup():
    with criterion(6, "slice mass and blow-up convergence", 30.0):
        h_plane = Plane.axis(3, (0, 1))
        rho = norm_map()
        t = 0.5
        # slice mass at bin 0.05 within 5% of pi; co-refined bins non-increasing error
        errors = []
        for b in (0.05, 0.025, 0.0125):
            pts, w = ring_sampled_disc(1.0, ring_spacing=b / 64, points_per_unit_length=120)
            v = DiscreteVarifold.flat(pts, h_plane, w)
            mass = slice_varifold(v, rho, t, b).mass()
            errors.append(abs(mass - math.pi))
        assert errors[0] <= 0.05 * math.pi
        assert errors[2] <= errors[1] + 1e-9 and errors[1] <= errors[0] + 1e-9
        # blow-up residual against the three-term limit decreases
        # monotonically over delta, measured on five fixed test functions
        from test_varifold import blowup_test_functions

        pts, w = ring_sampled_disc(1.0, ring_spacing=0.001, points_per_unit_length=150)
        v = DiscreteVarifold.flat(pts, h_plane, w)
        sl = slice_varifold(v, rho, t, 0.01).varifold
        rv = rho.value(v.points)[:, 0]
        m0, m1 = rv >= t, rv < t
        tau_grid = (np.arange(30) + 0.5) / 30
        deltas = (0.2, 0.1, 0.05)
        pushed = [pushforward(blowup_map(rho, t, d), v) for d in deltas]
        residuals = [0.0, 0.0, 0.0]
        for alpha in blowup_test_functions():
            rhs = float(np.sum(v.weights[m0] * alpha(np.column_stack([np.zeros(m0.sum()), v.points[m0]]))))
            rhs += float(np.sum(v.weights[m1] * alpha(np.column_stack([np.ones(m1.sum()), v.points[m1]]))))
            rhs += sum(
                float(np.sum(sl.weights * alpha(np.column_stack([np.full(len(sl), tau), sl.points]))))
                for tau in tau_grid
            ) / len(tau_grid)
            for i, kv in enumerate(pushed):
                lhs = float(np.sum(kv.weights * alpha(kv.points)))
                residuals[i] = max(residuals[i], abs(lhs - rhs))
        assert residuals[0] > residuals[1] > residuals[2], residuals


def test_07_unrectifiable_purge():
    with criterion(7, "unrectifiable purge: Cantor killed, segment bounded", 60.0):
        rng = np.random.default_rng(107)
        eps = 0.8
        # the perturbation against a verified rank-<=1 map kills the Cantor set
        cpts, cw = four_corner_cantor(6, angle=0.012)
        assert len(cpts) == 4096
        f = rank_one_map()
        region = Box([-0.8, -0.8], [1.8, 1.8])
        rho = unrect_perturbation(cpts, f, region, eps, 1, cluster_gap=0.2)
        res = 0.25**6
        cantor_in, _ = covering_measure(cpts, 1, res)
        cantor_out, _ = covering_measure(f.value(rho.value(cpts)), 1, res)
        assert cantor_out <= 0.2 * cantor_in
        probes = rng.uniform(-0.8, 1.8, (10_000, 2))
        dev = np.linalg.svd(rho.jacobian(probes) - np.eye(2), compute_uv=False)[:, 0]
        assert dev.max() <= eps
        # the full purge composite transports a rectifiable segment boundedly
        # and its perturbation obeys the same deviation bound
        cpts2, cw2 = four_corner_cantor(6, angle=0.004)
        s_u = DiscreteVarifold.isotropic_set(cpts2, cw2, 1)
        seg_pts, seg_w = sample_segment([0.1, -0.25], [1.1, -0.25], 1024)
        s_r = DiscreteVarifold.flat(seg_pts, Plane.axis(2, (0,)), seg_w)
        g, report = purge_unrectifiable(
            s_r, s_u, ([-1.0, -1.0], [2.0, 2.0]), 0.2, min_level=4, cluster_gap=0.2
        )
        seg_res = 1.0 / 512
        seg_in, _ = covering_measure(seg_pts, 1, seg_res)
        seg_out, _ = covering_measure(g.value(seg_pts), 1, seg_res)
        gamma_emp = seg_out / seg_in
        print(f"    segment transport Gamma_emp = {gamma_emp:.3f}")
        assert np.isfinite(gamma_emp) and gamma_emp < 16.0


def square_problem(level, cells, integrand=None):
    cx = GridComplex(3, (cells,) * 3, level)
    z, bcells = square_cycle(cx)
    return SpanningProblem(cx, 2, bcells, [z], integrand or AreaIntegrand())


def test_08_solver_oracle_equivalence():
    with criterion(8, "solver matches the oracle; anisotropy; scaling", 60.0):
        from gmtkit.cubemaps import SmoothMap

        p_half = square_problem(1, 2)
        res_half = minimize(p_half, seed=0, restarts=2, steps=1500)
        _, oracle_half = exhaustive_oracle(p_half)
        assert res_half.value == oracle_half == 1.0
        p_quarter = square_problem(2, 4)
        res_quarter = minimize(p_quarter, seed=0, restarts=2, steps=3000)
        _, oracle_quarter = exhaustive_oracle(p_quarter)
        assert res_quarter.value == oracle_quarter == 1.0
        # anisotropic tilt penalty picks only xy-parallel cells
        tp = TiltPenaltyIntegrand(Plane.axis(3, (0, 1)), lam=9.0)
        res_aniso = minimize(square_problem(1, 2, tp), seed=1, restarts=2, steps=1500)
        assert res_aniso.value == 1.0
        assert {c.axes for c in res_aniso.chain.cells()} == {(0, 1)}
        # scaling covariance at r = 1/2 via the pull-back integrand
        r = 0.5
        pb = pullback_integrand(SmoothMap.affine(r * np.eye(3)), AreaIntegrand())
        v_pb = minimize(square_problem(1, 2, pb), seed=0, restarts=2, steps=1500).value
        cx_scaled = GridComplex(3, (2, 2, 2), 2)
        z, bcells = square_cycle(cx_scaled)
        p_scaled = SpanningProblem(cx_scaled, 2, bcells, [z], AreaIntegrand())
        v_scaled = minimize(p_scaled, seed=0, restarts=2, steps=1500).value
        assert abs(v_pb - v_scaled) <= 1e-9
        assert abs(v_scaled - r**2 * res_half.value) <= 1e-9


def test_09_density_ratio_audit():
    with criterion(9, "density-ratio audit of the flat solution", 30.0):
        chain = minimize(square_problem(2, 4), seed=0, restarts=1, steps=600).chain
        rep = audit_minimizer(
            chain, AreaIntegrand(), radii=[0.3, 0.4], subdivision=16,
            audit_points=[np.array([0.5, 0.5, 0.0])],
        )
        for _, ratio, flag in rep["entries"][0]["ratios"]:
            assert flag == "ok"
            assert 0.9 * math.pi <= ratio <= 1.1 * math.pi
        rep_edge = audit_minimizer(
            chain, AreaIntegrand(), radii=[0.3], subdivision=16,
            audit_points=[np.array([0.5, 0.0, 0.0])],
        )
        entry = rep_edge["entries"][0]
        _, edge_ratio, edge_flag = entry["ratios"][0]
        assert edge_flag == "boundary"
        assert edge_ratio == pytest.approx(math.pi / 2, rel=0.1)
        # pinched fixture: two full sheets crossing along a line
        cx = chain.complex
        bits = np.zeros(cx.count(2), dtype=bool)
        for i in range(4):
            for j in range(4):
                bits[cx.index[DyadicCube(2, (i, j, 2), (0, 1), 3)][1]] = True
                bits[cx.index[DyadicCube(2, (2, i, j), (1, 2), 3)][1]] = True
        pinched = Chain2(cx, 2, bits)
        rep_pinch = audit_minimizer(
            pinched, AreaIntegrand(), radii=[0.3], subdivision=16,
            audit_points=[np.array([0.5, 0.5, 0.5])],
        )
        _, pinch_ratio, _ = rep_pinch["entries"][0]["ratios"][0]
        assert pinch_ratio == pytest.approx(2 * math.pi, rel=0.1)


def _problem_json(path):
    bcells, gen = [], []
    for i in range(2):
        for corner, axes in [((i, 0, 0), (0,)), ((i, 2, 0), (0,)), ((0, i, 0), (1,)), ((2, i, 0), (1,))]:
            d = {"level": 1, "corner": list(corner), "axes": list(axes), "n": 3}
            bcells.append(d)
            gen.append(d)
    path.write_text(
        json.dumps(
            {
                "n": 3, "cells": [2, 2, 2], "level": 1, "m": 2,
                "boundary_cells": bcells, "generators": [gen],
                "integrand": {"kind": "area"},
                "options": {"restarts": 2, "steps": 800, "oracle_check": True},
            }
        )
    )


def test_10_cli_determinism(tmp_path):
    with criterion(10, "every CLI command reruns byte-identically", 120.0):
        planes = tmp_path / "planes.txt"
        planes.write_text("2 1 1 0 1 0\n2 1 1 0 0 1\n3 2 1 0 0 1 0 0 1 0 0 0 0 1\n")
        pts, w = sample_disc(1.3, 600, seed=9, center=[2.0, 2.0, 2.05])
        set_csv = tmp_path / "disc.csv"
        DiscreteVarifold.flat(pts, Plane.axis(3, (0, 1)), w).to_csv(set_csv)
        rpts, rw = ring_sampled_disc(1.0, ring_spacing=0.05 / 16, points_per_unit_length=60)
        slice_csv = tmp_path / "slice_set.csv"
        DiscreteVarifold.flat(rpts, Plane.axis(3, (0, 1)), rw).to_csv(slice_csv)
        prob = tmp_path / "prob.json"
        _problem_json(prob)
        chain_json = tmp_path / "chain.json"
        chain_json.write_text(
            json.dumps(
                {
                    "m": 2, "level": 2,
                    "cells": [
                        {"level": 2, "corner": [i, j, 0], "axes": [0, 1], "n": 3}
                        for i in range(4) for j in range(4)
                    ],
                }
            )
        )
        whitney_cfg = tmp_path / "whitney.json"
        whitney_cfg.write_text(
            json.dumps({"open_set": "punctured", "point": [0.0, 0.0],
                        "bbox": [[-1, -1], [1, 1]], "min_level": 5})
        )
        commands = [
            ["rotate", planes],
            ["retract"],
            ["project"],
            ["--config", whitney_cfg, "whitney"],
            ["deform", set_csv],
            ["slice", slice_csv, "--t", "0.5", "--bin", "0.05"],
            ["minimize", prob],
            ["audit", chain_json],
            ["probe-ellipticity"],
        ]
        for idx, cmd in enumerate(commands):
            out_a = tmp_path / f"a{idx}"
            out_b = tmp_path / f"b{idx}"
            args_a = ["--seed", "11", "--out", out_a] + cmd
            args_b = ["--seed", "11", "--out", out_b] + cmd
            assert cli.main([str(v) for v in args_a]) == 0
            assert cli.main([str(v) for v in args_b]) == 0
            files_a = {p.name: p.read_bytes() for p in sorted(out_a.iterdir())}
            files_b = {p.name: p.read_bytes() for p in sorted(out_b.iterdir())}
            assert files_a == files_b, f"command {cmd[0]} not byte-deterministic"
