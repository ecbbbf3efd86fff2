import math
import re
import warnings

import numpy as np
import pytest

from conftest import norm_map
from oracles import (phi_F_oracle, psi_F_oracle, pushforward_oracle, sample_spacing_oracle, varifold_from_csv_oracle,
                     varifold_to_csv_oracle)
from gmtkit import _grid, varifold
from gmtkit.cubemaps import Ball, SmoothMap
from gmtkit.cubical import DyadicCube
from gmtkit.deform import deform_one_cube
from gmtkit.grassmann import Plane, haar_sample
from gmtkit.sampling import ring_sampled_disc, sample_disc, sample_segment
from gmtkit.varifold import (
    AreaIntegrand,
    DiscreteVarifold,
    FrozenIntegrand,
    RiemannianWeightIntegrand,
    TableIntegrand,
    TiltPenaltyIntegrand,
    blowup_map,
    covering_measure,
    density_ratio,
    ellipticity_probe,
    integrand_from_config,
    phi_F,
    psi_F,
    pullback_integrand,
    pushforward,
    sample_spacing,
    slice_varifold,
    unit_ball_volume,
)

H = Plane.axis(3, (0, 1))


def flat_disc(count=20000, seed=1, radius=1.0):
    pts, w = sample_disc(radius, count, seed=seed)
    return DiscreteVarifold.flat(pts, H, w)


def blowup_test_functions():
    """Five fixed smooth test functions on R x R^3 for the weak limit."""
    return [
        lambda y: np.exp(-np.sum((y[:, 1:3] - 0.2) ** 2, axis=1)) * (1.0 + y[:, 0]),
        lambda y: np.cos(2.0 * y[:, 0]) * np.exp(-2.0 * (y[:, 1] - 0.2) ** 2),
        lambda y: y[:, 0] ** 2 + 0.5 * np.sin(3.0 * y[:, 1] * y[:, 2] + 1.0),
        lambda y: (2.0 - y[:, 0]) / (1.0 + np.sum((y[:, 1:4] - 0.1) ** 2, axis=1)),
        lambda y: np.exp(-np.abs(y[:, 0] - 0.5)) * (1.0 + 0.3 * y[:, 1]),
    ]


class TestIntegrands:
    def test_bounds_respected_on_probes(self, rng):
        tp = TiltPenaltyIntegrand(H, lam=2.0)
        pts = rng.standard_normal((50, 3))
        vals = []
        for _ in range(50):
            plane = haar_sample(3, 2, rng)
            frames = np.broadcast_to(plane.frame, (50, 3, 2))
            vals.append(tp.evaluate(pts, frames))
        vals = np.concatenate(vals)
        assert np.all(vals >= tp.inf_bound - 1e-12)
        assert np.all(vals <= tp.sup_bound + 1e-12)

    def test_table_integrand_interpolates(self):
        table = TableIntegrand([0.0, 0.0], [1.0, 1.0], np.array([[1.0, 2.0], [3.0, 4.0]]))
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        vals = table.evaluate(pts, None)
        assert vals == pytest.approx([1.0, 4.0, 2.5])

    def test_registry(self):
        f = integrand_from_config({"kind": "tilt_penalty", "reference_axes": [0, 1], "lam": 9.0}, n=3)
        assert f.sup_bound == 10.0
        assert isinstance(integrand_from_config({"kind": "area"}), AreaIntegrand)
        with pytest.raises(ValueError):
            integrand_from_config({"kind": "bogus"})

    def test_registry_builds_frames_and_tables(self):
        frame = {"kind": "tilt_penalty", "reference_frame": [[1, 0], [0, 1], [0, 0]], "lam": 2}
        assert np.array_equal(integrand_from_config(frame, n=3).reference.frame, H.frame)
        table = {"kind": "table", "origin": [0, 0], "spacing": [1, 1], "values": [[1, 2], [3, 4]]}
        assert integrand_from_config(table).evaluate(np.array([[0.5, 0.5]]), None) == pytest.approx([2.5])

    @pytest.mark.parametrize("cfg, key", [
        (5, "dict"),
        (["area"], "dict"),
        ({"kind": "tilt_penalty"}, "reference_axes"),
        ({"kind": "tilt_penalty", "reference_axes": [0, 3]}, "reference_axes"),
        ({"kind": "tilt_penalty", "reference_axes": [1, 1]}, "reference_axes"),
        ({"kind": "tilt_penalty", "reference_axes": "ab"}, "reference_axes"),
        ({"kind": "tilt_penalty", "reference_axes": []}, "reference_axes"),
        ({"kind": "tilt_penalty", "reference_frame": [1, 0]}, "reference_frame"),
        ({"kind": "tilt_penalty", "reference_frame": [[1, 1], [1, 1], [0, 0]]}, "reference_frame"),
        ({"kind": "tilt_penalty", "reference_frame": [math.nan, 0, 0]}, "reference_frame"),
        ({"kind": "tilt_penalty", "reference_axes": [0, 1], "lam": "abc"}, "lam"),
        ({"kind": "tilt_penalty", "reference_axes": [0, 1], "lam": math.nan}, "lam"),
        ({"kind": "table", "origin": [0, 0, 0], "spacing": [1, 1, 1], "values": [1, 2]}, "values"),
        ({"kind": "table", "origin": [0, 0, 0], "spacing": [1, 1, 1], "values": np.ones((1, 2, 2)).tolist()}, "values"),
        ({"kind": "table", "origin": [0, 0, 0], "spacing": [1, 1, 1], "values": np.zeros((2, 2, 2)).tolist()}, "values"),
        ({"kind": "table", "origin": [0, 0, 0], "spacing": [1, 1, 1]}, "values"),
        ({"kind": "table", "origin": [0, 0], "spacing": [1, 1, 1], "values": np.ones((2, 2, 2)).tolist()}, "origin"),
        ({"kind": "table", "origin": [0, 0, 0], "spacing": [0, 1, 1], "values": np.ones((2, 2, 2)).tolist()}, "spacing"),
        ({"kind": "table", "origin": [0, 0, 0], "spacing": 1.0, "values": np.ones((2, 2, 2)).tolist()}, "spacing"),
        ({"kind": "table", "origin": [0, 0, 0], "spacing": [1, math.inf, 1], "values": np.ones((2, 2, 2)).tolist()},
         "spacing"),
        ({"kind": "tilt_penalty", "reference_axes": [0, 1], "lam": -1}, "lam"),
        ({"kind": "tilt_penalty", "reference_axes": [0, 1], "lam": -2.5}, "lam"),
    ])
    def test_registry_rejects_malformed_dicts(self, cfg, key):
        with pytest.raises(ValueError, match=key):
            integrand_from_config(cfg, n=3)

    def test_every_registry_kind_stays_within_its_bounds(self, rng):
        with pytest.raises(ValueError) as exc:
            integrand_from_config({"kind": "bogus"})
        kinds = set(re.findall(r"\w+", str(exc.value).split("use ")[1])) - {"or"}
        configs = {
            "area": [{"kind": "area"}],
            "tilt_penalty": [{"kind": "tilt_penalty", "reference_axes": [0, 1], "lam": lam}
                             for lam in (-0.999, -0.5, 0.0, 3.0, *rng.uniform(-0.99, 5.0, 4))]
            + [{"kind": "tilt_penalty", "reference_frame": rng.standard_normal((3, 1)).tolist(), "lam": -0.75}],
            "table": [{"kind": "table", "origin": rng.uniform(-1, 0, 3).tolist(),
                       "spacing": rng.uniform(0.2, 1, 3).tolist(),
                       "values": rng.uniform(0.05, 4.0, (3, 4, 2)).tolist()}],
        }
        assert set(configs) == kinds
        pts = rng.uniform(-3.0, 3.0, (400, 3))
        for kind, cfgs in configs.items():
            for cfg in cfgs:
                f = integrand_from_config(cfg, n=3)
                assert f.inf_bound > 0, cfg
                for m in (1, 2):
                    frames = np.stack([haar_sample(3, m, rng).frame for _ in range(len(pts))])
                    vals = f.evaluate(pts, frames)
                    assert np.all(vals >= f.inf_bound - 1e-12) and np.all(vals <= f.sup_bound + 1e-12), cfg


class TestPhiPsi:
    def test_area_gives_total_mass(self):
        v = flat_disc()
        assert phi_F(v, AreaIntegrand()) == pytest.approx(v.mass())

    def test_flat_disc_area_close_to_pi(self):
        v = flat_disc()
        assert phi_F(v, AreaIntegrand()) == pytest.approx(math.pi, rel=0.02)

    def test_tilt_penalty_vanishes_on_reference(self):
        v = flat_disc(count=2000)
        tp = TiltPenaltyIntegrand(H, lam=3.0)
        assert phi_F(v, tp) == pytest.approx(v.mass(), abs=1e-12)

    def test_monotone_in_integrand(self):
        v = flat_disc(count=2000)
        small = RiemannianWeightIntegrand(lambda p: np.full(len(p), 1.0), 1, 1)
        big = RiemannianWeightIntegrand(lambda p: 1.0 + np.abs(p[:, 0]), 1, 2)
        assert phi_F(v, small) <= phi_F(v, big)

    def test_isotropic_monte_carlo_with_report(self):
        iso = DiscreteVarifold.isotropic_set(np.zeros((1, 3)), [2.0], 2)
        tp = TiltPenaltyIntegrand(H, lam=1.0)
        val, report = phi_F(iso, tp, grassmann_samples=128, seed=4, with_report=True)
        assert report["grassmann_samples"] == 128
        assert report["mc_stderr"] > 0
        # average of 1 + ||P_T - P_H||^2 over the Grassmannian lies in (1, 2)
        assert 2.0 < val < 4.0

    def test_psi_empty_unrectifiable_reduces_to_phi(self):
        v = flat_disc(count=1000)
        empty = DiscreteVarifold.isotropic_set(np.zeros((0, 3)), np.zeros(0), 2)
        tp = TiltPenaltyIntegrand(H, lam=1.0)
        assert psi_F(v, empty, tp) == pytest.approx(phi_F(v, tp))

    def test_psi_area_counts_both_parts(self):
        v = flat_disc(count=1000)
        iso = DiscreteVarifold.isotropic_set(np.zeros((3, 3)), [0.1, 0.2, 0.3], 2)
        assert psi_F(v, iso, AreaIntegrand()) == pytest.approx(v.mass() + 0.6)

    def test_psi_sup_attained_on_axis_grid(self):
        iso = DiscreteVarifold.isotropic_set(np.zeros((1, 3)), [1.0], 2)
        empty = DiscreteVarifold(np.zeros((0, 3)), np.zeros((0, 3, 2)), np.zeros(0))
        tp = TiltPenaltyIntegrand(H, lam=1.0)
        assert psi_F(empty, iso, tp, sup_grid=64) == pytest.approx(2.0, abs=1e-12)

    def test_psi_validates_parts(self):
        v = flat_disc(count=10)
        with pytest.raises(ValueError):
            psi_F(v, v, AreaIntegrand())


class TestPullbackPushforward:
    def test_identity_map_keeps_integrand(self, rng):
        v = flat_disc(count=500)
        ident = SmoothMap.identity(3)
        f = TiltPenaltyIntegrand(H, lam=1.0)
        assert phi_F(v, pullback_integrand(ident, f)) == pytest.approx(phi_F(v, f))

    def test_scaling_pullback_formula(self, rng):
        r = 0.5
        scale = SmoothMap.affine(r * np.eye(3))
        f = RiemannianWeightIntegrand(lambda p: 1.0 + p[:, 0] ** 2, 1, 2)
        pf = pullback_integrand(scale, f)
        pts = rng.uniform(-1, 1, (50, 3))
        frames = np.broadcast_to(H.frame, (50, 3, 2))
        expect = r**2 * f.evaluate(r * pts, frames)
        assert np.abs(pf.evaluate(pts, frames) - expect).max() <= 1e-12

    def test_pullback_pushforward_identity(self, rng):
        v = flat_disc(count=800)
        for seed in range(3):
            g = np.random.default_rng(seed)
            a = g.standard_normal((3, 3)) + 2 * np.eye(3)
            phi = SmoothMap.affine(a, g.standard_normal(3))
            f = TiltPenaltyIntegrand(H, lam=1.0)
            lhs = phi_F(v, pullback_integrand(phi, f))
            rhs = phi_F(pushforward(phi, v), f)
            assert abs(lhs - rhs) <= 1e-9 * max(v.mass(), 1.0)

    def test_identity_pushforward(self):
        v = flat_disc(count=200)
        w = pushforward(SmoothMap.identity(3), v)
        assert w.mass() == pytest.approx(v.mass())
        assert np.allclose(w.points, v.points)

    def test_scaling_mass(self):
        v = flat_disc(count=500)
        w = pushforward(SmoothMap.affine(0.5 * np.eye(3)), v)
        assert w.mass() == pytest.approx(v.mass() * 0.25)

    def test_rank_drop_kills_mass(self):
        v = flat_disc(count=200)
        proj = np.zeros((3, 3))
        proj[0, 0] = 1.0
        assert pushforward(SmoothMap.affine(proj), v).mass() == 0.0

    def test_isotropic_routed_through_haar(self):
        iso = DiscreteVarifold.isotropic_set(np.zeros((2, 3)), [1.0, 1.0], 2)
        w = pushforward(SmoothMap.identity(3), iso, haar_draws=8, seed=0)
        assert w.mass() == pytest.approx(2.0)
        assert len(w) == 16


class TestPushforwardSupport:
    """pushforward passes samples outside phi.support through untouched."""

    def setup_method(self):
        # x -> 2x on the unit ball, as a map declaring the ball as its support
        self.phi = SmoothMap(
            3, 3, lambda x: 2.0 * x, lambda x: np.broadcast_to(2.0 * np.eye(3), (len(x), 3, 3)).copy(),
            support=Ball(np.zeros(3), 1.0),
        )
        pts, w = sample_disc(2.0, 400, seed=4)
        tangent = DiscreteVarifold.flat(pts, H, w)
        iso = DiscreteVarifold.isotropic_set(pts[::4] + [0.0, 0.0, 0.5], w[::4], 2)
        self.v = DiscreteVarifold.concat([tangent, iso])

    def test_outside_first_and_bit_identical(self):
        inside = self.phi.support.contains(self.v.points)
        assert inside.any() and not inside.all()
        out = self.v.restrict(~inside)
        w = pushforward(self.phi, self.v)
        k = len(out)
        assert w.points[:k].tobytes() == out.points.tobytes()
        assert w.frames[:k].tobytes() == out.frames.tobytes()
        assert w.weights[:k].tobytes() == out.weights.tobytes()
        assert np.array_equal(w.isotropic[:k], out.isotropic)
        moved = pushforward(self.phi, self.v.restrict(inside))
        assert w.points[k:].tobytes() == moved.points.tobytes()
        assert w.weights[k:].tobytes() == moved.weights.tobytes()

    def test_isotropic_outside_stays_isotropic(self):
        w = pushforward(self.phi, self.v)
        iso_out = self.v.isotropic & ~self.phi.support.contains(self.v.points)
        assert iso_out.any()
        assert w.isotropic.sum() == iso_out.sum()

    def test_all_outside_unchanged(self):
        far = self.v.restrict(np.linalg.norm(self.v.points, axis=1) > 1.0)
        w = pushforward(self.phi, far)
        for a, b in [(w.points, far.points), (w.frames, far.frames), (w.weights, far.weights),
                     (w.isotropic, far.isotropic)]:
            assert a.tobytes() == b.tobytes()


class TestSlicing:
    def test_circle_slice_mass(self):
        pts, w = ring_sampled_disc(1.0, ring_spacing=0.05 / 16, points_per_unit_length=150)
        v = DiscreteVarifold.flat(pts, H, w)
        res = slice_varifold(v, norm_map(), 0.5, 0.05)
        assert res.mass() == pytest.approx(math.pi, rel=1e-9)

    def test_slice_tangent_orthogonal_to_gradient(self):
        pts, w = ring_sampled_disc(1.0, ring_spacing=0.01, points_per_unit_length=60)
        v = DiscreteVarifold.flat(pts, H, w)
        res = slice_varifold(v, norm_map(), 0.5, 0.05)
        sv = res.varifold
        radial = sv.points / np.linalg.norm(sv.points, axis=1, keepdims=True)
        dots = np.abs(np.einsum("ni,ni->n", sv.frames[:, :, 0], radial))
        assert dots.max() <= 1e-10
        assert np.abs(sv.frames[:, 2, 0]).max() <= 1e-12  # in-plane

    def test_beyond_support_empty(self):
        v = flat_disc(count=500)
        assert slice_varifold(v, norm_map(), 2.0, 0.05).mass() == 0.0

    def test_linear_coordinate_slice_of_square(self, rng):
        # f = x_0 on a flat unit square: slice is a line of length 1
        side = 1.0
        pts = np.zeros((400 * 50, 3))
        g = np.stack(np.meshgrid(np.linspace(-0.5, 0.5, 400), np.linspace(-0.5, 0.5, 50), indexing="ij"), -1)
        pts[:, :2] = g.reshape(-1, 2)
        w = np.full(len(pts), side**2 / len(pts))
        v = DiscreteVarifold.flat(pts, H, w)
        a = np.zeros((1, 3))
        a[0, 0] = 1.0
        f = SmoothMap.affine(a)
        res = slice_varifold(v, f, 0.1, 0.06)
        assert res.mass() == pytest.approx(1.0, rel=0.03)
        tang = res.varifold.frames[:, :, 0]
        assert np.abs(np.abs(tang[:, 1]) - 1).max() <= 1e-12  # orthogonal to grad f

    def test_coarea_back_integration(self):
        pts, w = ring_sampled_disc(1.0, ring_spacing=0.0025, points_per_unit_length=100)
        v = DiscreteVarifold.flat(pts, H, w)
        bin_w = 0.1
        ts = np.arange(bin_w / 2, 1.0, bin_w)
        total = sum(slice_varifold(v, norm_map(), t, bin_w).mass() * bin_w for t in ts)
        # integral of the coarea factor (= 1) over the disc is the disc area
        assert total == pytest.approx(v.mass(), rel=0.02)

    def test_bad_bin(self):
        v = flat_disc(count=10)
        with pytest.raises(ValueError):
            slice_varifold(v, norm_map(), 0.5, 0.0)


class TestBlowup:
    def test_far_side_collapses_to_endpoint(self, rng):
        k = blowup_map(norm_map(), 0.5, 0.2)
        pts = rng.uniform(-1, 1, (100, 3))
        pts = pts[np.linalg.norm(pts, axis=1) >= 0.5 + 0.2 * 1.01]
        img = k.value(pts)
        assert np.abs(img[:, 0]).max() == 0.0
        assert np.allclose(img[:, 1:], pts)
        inner = rng.uniform(-0.1, 0.1, (50, 3))
        img_in = k.value(inner)
        assert np.abs(img_in[:, 0] - 1.0).max() == 0.0

    def test_jacobian_matches_fd(self, rng):
        k = blowup_map(norm_map(), 0.5, 0.2)
        probes = rng.uniform(-1, 1, (400, 3))
        probes = probes[np.linalg.norm(probes, axis=1) > 0.05]
        fd = k.jacobian_fd(probes)
        assert np.abs(k.jacobian(probes) - fd).max() <= 1e-5

    def test_three_term_limit_residual_decreases(self):
        # ring grid chosen so the slice-bin edges at t +- bin/2 fall on ring
        # boundaries (no quantization bias in the product term)
        pts, w = ring_sampled_disc(1.0, ring_spacing=0.001, points_per_unit_length=150)
        v = DiscreteVarifold.flat(pts, H, w)
        rho = norm_map()
        t = 0.5
        sl = slice_varifold(v, rho, t, 0.01).varifold
        rv = rho.value(v.points)[:, 0]
        m0, m1 = rv >= t, rv < t
        tau_grid = (np.arange(30) + 0.5) / 30
        resid = [0.0, 0.0, 0.0]
        deltas = (0.2, 0.1, 0.05)
        pushed = [pushforward(blowup_map(rho, t, d), v) for d in deltas]
        for alpha in blowup_test_functions():
            rhs = float(np.sum(v.weights[m0] * alpha(np.column_stack([np.zeros(m0.sum()), v.points[m0]]))))
            rhs += float(np.sum(v.weights[m1] * alpha(np.column_stack([np.ones(m1.sum()), v.points[m1]]))))
            rhs += sum(
                float(np.sum(sl.weights * alpha(np.column_stack([np.full(len(sl), tau), sl.points]))))
                for tau in tau_grid
            ) / len(tau_grid)
            for i, kv in enumerate(pushed):
                lhs = float(np.sum(kv.weights * alpha(kv.points)))
                resid[i] = max(resid[i], abs(lhs - rhs))
        assert resid[0] > resid[1] > resid[2]


class TestDensityRatio:
    def test_flat_plane_interior(self):
        pts, w = ring_sampled_disc(1.0, ring_spacing=0.002, points_per_unit_length=200)
        v = DiscreteVarifold.flat(pts, H, w)
        for rec in density_ratio(v, np.array([0.05, 0.0, 0.0]), [0.3, 0.5]):
            assert rec.reliable
            assert rec.ratio == pytest.approx(math.pi, rel=0.03)

    def test_half_plane_edge(self):
        # half disc: points with x >= 0
        pts, w = ring_sampled_disc(1.0, ring_spacing=0.002, points_per_unit_length=200)
        keep = pts[:, 0] >= 0
        v = DiscreteVarifold.flat(pts[keep], H, w[keep])
        recs = density_ratio(v, np.zeros(3), [0.4])
        assert recs[0].ratio == pytest.approx(math.pi / 2, rel=0.05)

    def test_empty_varifold(self):
        v = DiscreteVarifold(np.zeros((0, 3)), np.zeros((0, 3, 2)), np.zeros(0))
        assert density_ratio(v, np.zeros(3), [0.5])[0].ratio == 0.0

    def test_unreliable_flag(self):
        pts, w = sample_disc(1.0, 200, seed=0)
        v = DiscreteVarifold.flat(pts, H, w)
        recs = density_ratio(v, np.zeros(3), [1e-4])
        assert not recs[0].reliable

    def test_line_density_is_two(self):
        pts, w = sample_segment([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 4000)
        line = Plane.axis(3, (0,))
        v = DiscreteVarifold.flat(pts, line, w)
        recs = density_ratio(v, np.zeros(3), [0.5])
        assert recs[0].ratio == pytest.approx(2.0, rel=0.01)
        assert unit_ball_volume(1) == 2.0


class TestCoveringMeasure:
    def test_unit_segment(self):
        pts, _ = sample_segment([0, 0], [1, 0], 4096)
        val, res = covering_measure(pts, 1, 1 / 256)
        assert val == pytest.approx(1.0, rel=0.02)
        assert res == 1 / 256

    def test_empty(self):
        assert covering_measure(np.zeros((0, 2)), 1, 0.1)[0] == 0.0


def refuted(report):
    return report.counterexample is not None


class TestEllipticityProbe:
    def test_area_margins_exactly_one(self):
        report = ellipticity_probe(AreaIntegrand(), np.zeros(3), H, sup_grid=64)
        margins = [e["margin"] for e in report.margins if "margin" in e]
        assert margins
        assert all(m == pytest.approx(1.0, abs=1e-9) for m in margins)
        assert not refuted(report)

    def test_convex_combination_keeps_min_margin(self):
        tp = TiltPenaltyIntegrand(H, lam=0.4)

        class Convex(TiltPenaltyIntegrand):
            def evaluate(self, points, frames):
                return 0.5 * super().evaluate(points, frames) + 0.5

        combo = Convex(H, lam=0.4)
        r_area = ellipticity_probe(AreaIntegrand(), np.zeros(3), H, sup_grid=64)
        r_tp = ellipticity_probe(tp, np.zeros(3), H, sup_grid=64)
        r_combo = ellipticity_probe(combo, np.zeros(3), H, sup_grid=64)
        if not (refuted(r_tp) or refuted(r_area)):
            for ea, et, ec in zip(r_area.margins, r_tp.margins, r_combo.margins):
                if "margin" in ec:
                    assert ec["margin"] >= min(ea["margin"], et["margin"]) - 1e-9

    def test_non_elliptic_integrand_refuted(self):
        # strongly favours tilted planes: flat discs lose to a graph bump
        class TiltReward(TiltPenaltyIntegrand):
            def evaluate(self, points, frames):
                base = super().evaluate(points, frames)
                return 11.0 - base  # 10 on the reference plane, 1 when orthogonal

        bad = TiltReward(H, lam=9.0)
        bad.inf_bound, bad.sup_bound = 1.0, 10.0
        report = ellipticity_probe(bad, np.zeros(3), H, sup_grid=64)
        assert refuted(report)
        gaps = {e["candidate"]: e["psi_gap"] for e in report.margins}
        assert min(gaps.values()) < 0

    def test_frozen_integrand_uses_fixed_point(self):
        f = RiemannianWeightIntegrand(lambda p: 1.0 + np.abs(p[:, 0]), 1, 2)
        frozen = FrozenIntegrand(f, np.array([3.0, 0.0, 0.0]))
        pts = np.zeros((5, 3))
        assert np.all(frozen.evaluate(pts, None) == 4.0)


def same_bits(v, w):
    return all(getattr(v, a).dtype == getattr(w, a).dtype and getattr(v, a).shape == getattr(w, a).shape
               and getattr(v, a).tobytes() == getattr(w, a).tobytes()
               for a in ("points", "frames", "weights", "isotropic"))


def csv_sets(n, m, seed=0):
    """Tangent-only, isotropic-only, mixed and header-only varifolds in R^n
    with awkward doubles: -0.0, the smallest subnormal, the largest double,
    0.1 + 0.2 and zero weights."""
    rng = np.random.default_rng(seed)
    count = 40
    points = rng.standard_normal((count, n)) * 10.0 ** rng.integers(-8, 9, (count, n))
    points[:4, 0] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
    weights = rng.random(count)
    weights[::7] = 0.0
    frames = np.stack([haar_sample(n, m, rng).frame for _ in range(count)]) if m else np.zeros((count, n, 0))
    tangent = DiscreteVarifold(points, frames, weights)
    isotropic = DiscreteVarifold.isotropic_set(points[::-1], weights[::-1], m)
    mixed = DiscreteVarifold.concat([tangent, isotropic]).restrict(rng.permutation(2 * count))
    header = DiscreteVarifold(np.zeros((0, n)), np.zeros((0, n, m)), np.zeros(0))
    return {"tangent": tangent, "isotropic": isotropic, "mixed": mixed, "header": header}


class TestCsvRoundtrip:
    def test_tangent_and_isotropic(self, tmp_path):
        v1 = flat_disc(count=20)
        iso = DiscreteVarifold.isotropic_set(np.ones((3, 3)), [0.1, 0.2, 0.3], 2)
        v = DiscreteVarifold.concat([v1, iso])
        path = tmp_path / "set.csv"
        v.to_csv(path)
        w = DiscreteVarifold.from_csv(path)
        assert w.points.tobytes() == v.points.tobytes()
        assert w.weights.tobytes() == v.weights.tobytes()
        assert np.array_equal(w.isotropic, v.isotropic)
        assert w.frames[~w.isotropic].tobytes() == v.frames[~v.isotropic].tobytes()

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 2), (4, 2), (4, 3)])
    @pytest.mark.parametrize("kind", ["tangent", "isotropic", "mixed", "header"])
    def test_matches_the_oracles(self, tmp_path, n, m, kind):
        """The table writer writes the bytes of the per-row writer, and the
        whole-array reader reads the bits of the per-row reader, which are
        the bits written."""
        v = csv_sets(n, m)[kind]
        v.to_csv(tmp_path / "new.csv")
        varifold_to_csv_oracle(v, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        w = DiscreteVarifold.from_csv(tmp_path / "old.csv")
        assert same_bits(w, varifold_from_csv_oracle(tmp_path / "old.csv"))
        assert same_bits(w, v) and len(w) == len(v)

    @pytest.mark.parametrize("n", [1, 3])
    def test_rows_without_frame_columns(self, tmp_path, n):
        """At m = 0 a tangent row is its n coordinates and its weight.  The
        per-row writer put an empty field between them, which neither reader
        reads."""
        sets = csv_sets(n, 0)
        for kind, v in sets.items():
            v.to_csv(tmp_path / f"{kind}.csv")
            assert same_bits(DiscreteVarifold.from_csv(tmp_path / f"{kind}.csv"), v)
        assert (tmp_path / "tangent.csv").read_text().splitlines()[1].count(",") == n
        varifold_to_csv_oracle(sets["tangent"], tmp_path / "old.csv")
        with pytest.raises(ValueError, match="line 2: a tangent row must have"):
            DiscreteVarifold.from_csv(tmp_path / "old.csv")
        with pytest.raises(ValueError):
            varifold_from_csv_oracle(tmp_path / "old.csv")

    @pytest.mark.parametrize("text, where", [
        ("# n=2 m=1\n0,0,1,0,1\n0,0,isotropic\n", "line 3: a tangent row must have"),
        ("# n=2 m=1\n0,0,1,0,1\n0,isotropic,0,1\n", "line 3: an isotropic row must have the token"),
        ("# n=2 m=1\n0,0,1,0,1\n0,0,1,zero,1\n", "line 3: every field but the isotropic token"),
        ("# n=2 m=1\n\n0,0,1,0,1\n# n=2 m=1\n", "line 4: a tangent row must have"),
        ("# n=2\n# m=1 n=2\n0,0,1,0,1\n", "line 2: the header must give n and m once each"),
        ("# n=2 m=-1\n", "the header must give n and m once each"),
        ("0,0,1,0,1\n", "the # header before the first row"),
        ("# n=2 m=1\n0,0,1,0,1\n0,0,-inf,0,1\n", "line 3: every number must be finite"),
        ("# n=2 m=1\n0,0,1,0,1\n0,0,isotropic,-1e-300\n", "line 3: every weight must be >= 0"),
        ("# n=2 m=1\n0,0,1,0,1\n0,0,0.6,0.8000001,1\n", "line 3: the m frame columns"),
        ("# n=2 m=1\n \n0,0,1,0,1\n\n\t \n0,0,isotropic,-1\n", "line 6: every weight must be >= 0"),
    ])
    def test_rule_names_the_line(self, tmp_path, text, where):
        (tmp_path / "bad.csv").write_text(text)
        with pytest.raises(ValueError, match=re.escape(where)):
            DiscreteVarifold.from_csv(tmp_path / "bad.csv")

    def test_frames_within_the_bound_are_read(self, tmp_path):
        """The frame rule is grassmann's bound: a 1e-12 wobble passes, as it does for Plane."""
        (tmp_path / "set.csv").write_text("# n=2 m=1\n0,0,0.6,0.8000000000001,1\n")
        w = DiscreteVarifold.from_csv(tmp_path / "set.csv")
        Plane(w.frames[0], orthonormalize=False)
        assert w.frames[0, 1, 0] == 0.8000000000001

    def test_frame_entries_capped(self, tmp_path):
        """17 isotropic rows with n = m = 1024 are 70 KB of text but would
        take 17 * 2^20 frame entries, above MAX_FRAME_ENTRIES = 2^24; the
        reader refuses them by name before it makes any frame array."""
        (tmp_path / "big.csv").write_text("# n=1024 m=1024\n" + ("0.0," * 1024 + "isotropic,0.01\n") * 17)
        with pytest.raises(ValueError, match=re.escape("MAX_FRAME_ENTRIES = 16777216 frame entries")
                           + r".* got 17 \* 1024 \* 1024"):
            DiscreteVarifold.from_csv(tmp_path / "big.csv")

    def test_frame_entries_up_to_the_cap_are_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(varifold, "MAX_FRAME_ENTRIES", 12)
        rows = "0,0,0,1,0,0,0,1,0,1\n0,0,0,isotropic,1\n"
        (tmp_path / "set.csv").write_text("# n=3 m=2\n" + rows)
        assert len(DiscreteVarifold.from_csv(tmp_path / "set.csv")) == 2
        (tmp_path / "set.csv").write_text("# n=3 m=2\n" + rows + "1,1,1,isotropic,1\n")
        with pytest.raises(ValueError, match=r"MAX_FRAME_ENTRIES = 12 .* got 3 \* 3 \* 2"):
            DiscreteVarifold.from_csv(tmp_path / "set.csv")


class TestSampleSpacingOracle:
    """The grid path of the spacing (its probes every (n // 2048)-th point
    above 2048) against every probe measured against all points."""

    def assert_same(self, pts):
        got, want = sample_spacing(pts), sample_spacing_oracle(pts)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
        return got

    def test_random_clouds(self, rng):
        for dim, count in ((2, 2049), (2, 5000), (3, 3000), (3, 7000), (4, 2500), (4, 4100)):
            pts = rng.random((count, dim)) * rng.uniform(0.1, 10.0) - rng.uniform(-3.0, 3.0)
            assert math.isfinite(self.assert_same(pts))

    def test_duplicates_sheets_and_lattices(self, rng):
        base = rng.random((1200, 3))
        self.assert_same(np.vstack([base, base, base[:100]]))  # every point duplicated
        sheet = rng.random((4000, 3))
        sheet[:, 2] = 0.25
        self.assert_same(sheet)  # a flat sheet in 3-D
        tilted = rng.random((3000, 2)) @ np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.25]])
        self.assert_same(tilted)
        self.assert_same(np.round(rng.random((3000, 3)) * 6) / 6)  # many equal distances

    def test_isolated_points(self, rng):
        cluster = rng.random((3000, 3)) * 1e-3
        far = np.array([[5.0, 5.0, 5.0], [-5.0, 2.0, 0.0]])
        self.assert_same(np.vstack([cluster, far]))
        # duplicates and isolated points: every duplicate's nearest distinct
        # point is the nearer far point, sqrt(29) away, outside its 3^3 cells
        lonely = np.vstack([np.zeros((2100, 3)), far])
        assert self.assert_same(lonely) == math.sqrt(29.0)
        assert self.assert_same(np.zeros((2100, 2))) == math.inf

    @pytest.mark.parametrize("count", [2, 100, 3000])
    def test_all_duplicates_is_inf_without_warning(self, count):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sample_spacing(np.zeros((count, 2))) == math.inf

    def test_small_chunks(self, rng, monkeypatch):
        pts = rng.random((2600, 3))
        pts[::7] = pts[1::7][: len(pts[::7])]
        for pairs in (1, 7, 500):
            monkeypatch.setattr(_grid, "PAIR_BLOCK", pairs)
            self.assert_same(pts)


class TestHaarFrameArrays:
    """``phi_F``, ``psi_F`` and the isotropic ``pushforward`` draw their planes
    as one frame array: the floats, reports and samples of one Haar plane at
    a time (the oracles)."""

    @staticmethod
    def _parts(n, m, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, (30, n))
        frames = np.linalg.qr(rng.standard_normal((20, n, m)))[0]
        return (DiscreteVarifold(pts[:20], frames, rng.random(20)),
                DiscreteVarifold.isotropic_set(pts[20:], rng.random(10), m))

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)])
    def test_phi_and_psi(self, n, m):
        tangent, iso = self._parts(n, m, seed=n + m)
        ref = Plane.axis(n, range(m))
        affine = SmoothMap.affine(np.eye(n) + 0.3 * np.random.default_rng(m).standard_normal((n, n)))
        for f in (TiltPenaltyIntegrand(ref, lam=2.5), pullback_integrand(affine, TiltPenaltyIntegrand(ref, lam=0.5))):
            for v in (iso, DiscreteVarifold.concat([tangent, iso])):
                got = phi_F(v, f, grassmann_samples=64, seed=3, with_report=True)
                assert repr(got) == repr(phi_F_oracle(v, f, grassmann_samples=64, seed=3, with_report=True))
            got = psi_F(tangent, iso, f, sup_grid=100, seed=2)
            assert repr(got) == repr(psi_F_oracle(tangent, iso, f, sup_grid=100, seed=2))
        assert repr(psi_F(tangent, iso, f)) == repr(psi_F_oracle(tangent, iso, f))

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (4, 3)])
    def test_isotropic_pushforward(self, n, m):
        tangent, iso = self._parts(n, m, seed=7)
        v = DiscreteVarifold.concat([tangent, iso]).restrict(np.random.default_rng(1).permutation(30))
        g = np.random.default_rng(n)
        doubled = SmoothMap(n, n, lambda x: 2.0 * x, lambda x: np.broadcast_to(2.0 * np.eye(n), (len(x), n, n)).copy(),
                            support=Ball(np.zeros(n), 0.8))
        for phi in (SmoothMap.affine(np.eye(n) + 0.3 * g.standard_normal((n, n)), g.standard_normal(n)), doubled):
            for draws in (1, 16):
                assert same_bits(pushforward(phi, v, draws, seed=5), pushforward_oracle(phi, v, draws, seed=5))

    @staticmethod
    def _edge_maps(case):
        """(map, set) pairs of one kind: a set wholly outside the map's
        support, maps that degenerate every moved row, or a composite of two
        deformation stage maps."""
        tangent, iso = TestHaarFrameArrays._parts(3, 2, seed=7)
        v = DiscreteVarifold.concat([tangent, iso])
        if case == "outside":
            return [(SmoothMap(3, 3, lambda x: 2.0 * x, lambda x: np.broadcast_to(2.0 * np.eye(3), (len(x), 3, 3)).copy(),
                               support=Ball(np.full(3, 5.0), 0.5)), v)]
        if case == "degenerate":
            flatten = SmoothMap.affine(np.zeros((3, 3)))
            squash = SmoothMap(3, 3, lambda x: np.zeros_like(x), lambda x: np.zeros((len(x), 3, 3)),
                               support=Ball(np.zeros(3), 0.8))
            return [(flatten, v), (squash, v),
                    (SmoothMap.compose(blowup_map(norm_map(3), 0.5, 0.3), flatten), v)]
        pts, w = sample_disc(0.6, 300, seed=1, center=[1.0, 0.5, 0.5])
        disc = DiscreteVarifold.flat(np.vstack([pts, [[3.0, 3.0, 3.0]]]), H, np.append(w, 0.5))
        cubes = [DyadicCube(0, (k, 0, 0), (0, 1, 2), 3) for k in (0, 1)]
        stages = [deform_one_cube(cube, [disc], 0.2, rng=np.random.default_rng(0)) for cube in cubes]
        mixed = DiscreteVarifold.concat([disc, DiscreteVarifold.isotropic_set(pts[::5] + 0.01, w[::5], 2)])
        return [(SmoothMap.compose(*reversed(stages)), mixed.restrict(np.random.default_rng(2).permutation(len(mixed))))]

    @pytest.mark.parametrize("case", ["outside", "degenerate", "composite"])
    def test_pushforward_edge_cases(self, case):
        for phi, v in self._edge_maps(case):
            for draws in (1, 16):
                got = pushforward(phi, v, draws, seed=5)
                assert same_bits(got, pushforward_oracle(phi, v, draws, seed=5)), phi
                if case == "outside":
                    assert got is v
                elif case == "degenerate":
                    assert len(got) == int((~phi.inside_support(v.points)).sum())
                    assert got.points.shape[1] == phi.n_out
                else:
                    assert 0 < phi.inside_support(v.points).sum() < len(v) and v.isotropic.any()

    def test_isotropic_pushforward_needs_a_draw(self):
        tangent, iso = self._parts(3, 2, seed=7)
        assert same_bits(pushforward(SmoothMap.identity(3), tangent, 0), pushforward(SmoothMap.identity(3), tangent))
        for v in (iso, DiscreteVarifold.concat([tangent, iso])):
            with pytest.raises(ValueError, match="haar_draws >= 1"):
                pushforward(SmoothMap.identity(3), v, 0)
