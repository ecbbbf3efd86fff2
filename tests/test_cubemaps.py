import itertools
import logging
import math

import numpy as np
import pytest

from conftest import dist_to_cube_boundary, norm_map, rank_one_map
from gmtkit import _grid, cubemaps, deform
from gmtkit._profiles import (collar_alpha, plateau_step, profile_eval, profile_rows, retraction_profile, smoothstep,
                              smoothstep_d, smoothstep_i, smoothstep_pair)
from gmtkit.cubemaps import (
    BallBody,
    Box,
    DirectionSearchError,
    EllipsoidBody,
    FaceIndex,
    RankConditionError,
    SmoothMap,
    SuperellipsoidBody,
    central_projection,
    collared_projection,
    cube_enclosure,
    nearest_point_cube,
    punctured_cube_projection,
    recentering_map,
    retraction_with_collar,
    smooth_retraction,
    unrect_perturbation,
)
from gmtkit.cubemaps import (
    _cluster_balls,
    _direction_search,
    _punctured_factors,
    _punctured_jacobian_rows,
    _recenter,
    _recentering_profiles,
)
from gmtkit.cubical import DyadicCube
from gmtkit.deform import deform_one_cube
from gmtkit.grassmann import Plane, build_rotation
from gmtkit.sampling import four_corner_cantor, sample_disc
from gmtkit.solver import AUDIT_BLOCK
from gmtkit.varifold import DiscreteVarifold, blowup_map, sample_spacing
from oracles import (
    PlaneRotationOracle,
    SmoothPiecewiseLinearOracle,
    boundary_minima_oracle,
    boundary_point,
    clearance_oracle,
    cluster_balls_oracle,
    collar_alpha_full,
    collar_alpha_oracle,
    coverage_fraction_oracle,
    direction_search_oracle,
    face_contains,
    freeze_distance_oracle,
    gauge,
    gauge_and_grad,
    gauge_grad_oracle,
    median_spacing_oracle,
    plateau_step_oracle,
    profile_eval_oracle,
    recenter_oracle,
    retraction_profile_full,
    retraction_profile_oracle,
    sample_spacing_oracle,
    punctured_jacobians_oracle,
    punctured_projection_oracle,
    recentering_map_oracle,
    region_contains,
    superellipsoid_gauge_oracle,
    tangent_axes,
)


def fd_check(smooth_map, probes, tol=1e-5, step=1e-6):
    analytic = smooth_map.jacobian(probes)
    fd = smooth_map.jacobian_fd(probes, step=step)
    return np.abs(analytic - fd).max() <= tol


class TestNearestPoint:
    def test_clamp_with_face_index(self):
        f, kappa = nearest_point_cube(np.array([2.0, 0.5]))
        assert np.array_equal(f, [1.0, 0.5])
        assert kappa == FaceIndex((1, 0))

    def test_corner(self):
        f, kappa = nearest_point_cube(np.array([2.0, 3.0]))
        assert np.array_equal(f, [1.0, 1.0])
        assert kappa == FaceIndex((1, 1))

    def test_interior_identity(self, rng):
        x = rng.uniform(-0.99, 0.99, (40, 3))
        f, idx = nearest_point_cube(x)
        assert np.array_equal(f, x)
        assert all(k == FaceIndex((0, 0, 0)) for k in idx)

    def test_strict_inequality_convention(self):
        _, kappa = nearest_point_cube(np.array([1.0, 0.0]))
        assert kappa == FaceIndex((1, 0))


class TestSmoothRetraction:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_maps_onto_cube_and_fixes_markers(self, n, rng):
        g = smooth_retraction(n, 0.1)
        x = rng.uniform(-3, 3, (500, n))
        img = g.value(x)
        assert np.all(np.abs(img) <= 1.0 + 1e-14)
        vertex = np.ones(n)
        assert np.array_equal(g.value(vertex), vertex)
        assert np.array_equal(g.value(np.zeros(n)), np.zeros(n))

    def test_lipschitz_bound_sampled(self, rng):
        eps = 0.07
        g = smooth_retraction(2, eps)
        x = rng.uniform(-1.2, 1.2, (10_000, 2))
        norms = np.linalg.svd(g.jacobian(x), compute_uv=False)[:, 0]
        assert norms.max() <= 1 + eps + 1e-6

    def test_displacement_bound_near_cube(self, rng):
        n, eps = 3, 0.1
        g = smooth_retraction(n, eps)
        x = rng.uniform(-1 - eps, 1 + eps, (5000, n))
        x = x[np.linalg.norm(x - np.clip(x, -1, 1), axis=1) <= eps]
        disp = np.linalg.norm(g.value(x) - x, axis=1)
        assert disp.max() <= (1 + math.sqrt(n)) * eps + 1e-12

    def test_region_preservation_per_kappa(self, rng):
        g = smooth_retraction(2, 0.1)
        for kappa in itertools.product((-1, 0, 1), repeat=2):
            fi = FaceIndex(kappa)
            pts = rng.uniform(-2, 2, (400, 2))
            pts = pts[region_contains(fi, pts)]
            if len(pts) == 0:
                continue
            img = g.value(pts)
            assert np.all(face_contains(fi, img, tol=1e-12))

    def test_tangent_subspace_preserved(self, rng):
        g = smooth_retraction(3, 0.1)
        pts = np.zeros((100, 3))
        pts[:, 0] = rng.uniform(-2, 2, 100)
        img = g.value(pts)
        assert np.abs(img[:, 1:]).max() == 0.0

    def test_jacobian_matches_fd(self, rng):
        g = smooth_retraction(2, 0.1)
        assert fd_check(g, rng.uniform(-1.5, 1.5, (300, 2)))

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            smooth_retraction(2, 1.5)


class TestRetractionWithCollar:
    @pytest.mark.parametrize("n", [2, 3])
    def test_contract(self, n, rng):
        eps = 0.1
        l = retraction_with_collar(n, eps)
        x = rng.uniform(-1 - 3 * eps, 1 + 3 * eps, (5000, n))
        img = l.value(x)
        dist_before = np.linalg.norm(x - np.clip(x, -1, 1), axis=1)
        far = dist_before > eps
        assert np.array_equal(img[far], x[far])  # bit-exact identity
        assert np.linalg.norm(img - x, axis=1).max() <= eps + 1e-12
        norms = np.linalg.svd(l.jacobian(x), compute_uv=False)[:, 0]
        assert norms.max() < 16 * math.sqrt(n)
        dist_after = np.linalg.norm(img - np.clip(img, -1, 1), axis=1)
        assert np.all(dist_after <= dist_before + 1e-12)

    def test_pull_zone_lands_on_faces(self, rng):
        n, eps = 2, 0.1
        l = retraction_with_collar(n, eps)
        zone = eps / (16 * math.sqrt(n))
        for kappa in [(1, 0), (0, -1), (1, 1)]:
            fi = FaceIndex(kappa)
            base = fi.center()
            pts = np.broadcast_to(base, (200, n)).copy()
            free = tangent_axes(fi)
            for a in free:
                pts[:, a] = rng.uniform(-0.99, 0.99, 200)
            pts += rng.uniform(0, zone / math.sqrt(n), (200, 1)) * np.where(base == 0, 0.0, base)
            pts = pts[region_contains(fi, pts)]
            img = l.value(pts)
            assert np.all(face_contains(fi, img, tol=1e-12))

    def test_face_preservation(self, rng):
        l = retraction_with_collar(2, 0.1)
        edge = np.column_stack([np.ones(100), rng.uniform(-1, 1, 100)])
        img = l.value(edge)
        assert np.abs(img[:, 0] - 1).max() <= 1e-14
        assert np.abs(img[:, 1]).max() <= 1.0 + 1e-14

    def test_jacobian_matches_fd(self, rng):
        l = retraction_with_collar(3, 0.15)
        assert fd_check(l, rng.uniform(-1.3, 1.3, (300, 3)))


class TestCubeEnclosure:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sandwich(self, n, rng):
        inner, outer = 0.02, 0.05
        body = cube_enclosure(n, inner, outer)
        dirs = rng.standard_normal((3000, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        boundary = np.array([boundary_point(body, d) for d in dirs])
        dist_q = np.linalg.norm(boundary - np.clip(boundary, -1, 1), axis=1)
        assert dist_q.max() <= outer + 1e-9
        shell = np.sign(rng.standard_normal((2000, n))) + inner * dirs[:2000]
        assert np.all(gauge(body, shell) <= 1.0 + 1e-12)

    def test_normals_outward(self, rng):
        body = cube_enclosure(3, 0.02, 0.05)
        dirs = rng.standard_normal((200, 3))
        boundary = np.array([boundary_point(body, d) for d in dirs])
        nu = body.normal(boundary)
        assert np.all(np.einsum("ni,ni->n", nu, boundary) > 0)
        # one gauge function per body: the value of gauge, the gradient of the oracle
        for other in (BallBody(3, 1.5), EllipsoidBody([2.0, 1.0, 0.5]), body):
            x = np.vstack([dirs, 1e-3 * dirs[:5], np.zeros(3)])
            g, grad = gauge_and_grad(other, x)
            assert g.tobytes() == gauge(other, x).tobytes()
            assert grad.tobytes() == gauge_grad_oracle(other, x).tobytes()
            assert not grad[-1].any()
            nu = grad[:-1] / np.linalg.norm(grad[:-1], axis=1, keepdims=True)
            assert other.normal(x[:-1]).tobytes() == nu.tobytes()


class TestCentralProjection:
    def test_unit_ball_closed_form(self, rng):
        p, t = central_projection(BallBody(2, 1.0))
        x = rng.uniform(-2, 2, (500, 2))
        x = x[np.linalg.norm(x, axis=1) > 0.05]
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        assert np.abs(p.value(x) - x / norms).max() <= 1e-12
        assert np.abs(t.value(x)[:, 0] - 1 / norms[:, 0]).max() <= 1e-12

    def test_ball_radius_two_scaling(self):
        p, t = central_projection(BallBody(2, 2.0))
        x = np.array([[0.5, 0.0], [1.0, 3.0]])
        assert np.allclose(t.value(x)[:, 0], 2 / np.linalg.norm(x, axis=1), atol=1e-14)

    def test_ball_gradient_of_scale(self, rng):
        # Dt(x)u = -(p . u)/|x|^2 for the unit ball
        p, t = central_projection(BallBody(3, 1.0))
        x = rng.uniform(0.2, 1.5, (100, 3))
        grad = t.jacobian(x)[:, 0, :]
        expect = -p.value(x) / (np.linalg.norm(x, axis=1) ** 2)[:, None]
        assert np.abs(grad - expect).max() <= 1e-12

    def test_ellipse_fd_jacobian(self, rng):
        body = EllipsoidBody([2.0, 1.0])
        p, _ = central_projection(body)
        probes = rng.uniform(-2, 2, (100, 2))
        probes = probes[np.linalg.norm(probes, axis=1) > 0.1][:100]
        assert fd_check(p, probes)

    def test_derivative_bound(self, rng):
        body = EllipsoidBody([2.0, 1.0])
        p, _ = central_projection(body)
        x = rng.uniform(-2, 2, (400, 2))
        x = x[np.linalg.norm(x, axis=1) > 0.1]
        pv = p.value(x)
        nu = body.normal(pv)
        xh = x / np.linalg.norm(x, axis=1, keepdims=True)
        bound = np.linalg.norm(pv, axis=1) / np.linalg.norm(x, axis=1) * (
            1 + 1 / np.einsum("ni,ni->n", nu, xh)
        )
        norms = np.linalg.svd(p.jacobian(x), compute_uv=False)[:, 0]
        assert np.all(norms <= bound + 1e-9)

    def test_domain_error_at_origin(self):
        p, _ = central_projection(BallBody(2, 1.0))
        with pytest.raises(ValueError):
            p.value(np.zeros(2))


class TestCollaredProjection:
    def test_identity_outside(self, rng):
        body = EllipsoidBody([2.0, 1.0])
        q = collared_projection(body, 0.2)
        x = rng.uniform(-3, 3, (500, 2))
        outside = x[(gauge(body, x) >= 1.0) & (np.linalg.norm(x, axis=1) > 0.01)]
        assert np.array_equal(q.value(outside), outside)

    def test_deep_points_hit_boundary(self, rng):
        body = BallBody(2, 1.0)
        q = collared_projection(body, 0.2)
        x = rng.uniform(-0.3, 0.3, (200, 2))
        x = x[np.linalg.norm(x, axis=1) > 0.05]
        p, _ = central_projection(body)
        assert np.abs(q.value(x) - p.value(x)).max() <= 1e-12

    def test_segment_and_outward_scaling(self, rng):
        body = EllipsoidBody([2.0, 1.0])
        q = collared_projection(body, 0.3)
        x = rng.uniform(-1.8, 1.8, (500, 2))
        x = x[(np.linalg.norm(x, axis=1) > 0.05) & (gauge(body, x) < 1.0)]
        img = q.value(x)
        scale = np.linalg.norm(img, axis=1) / np.linalg.norm(x, axis=1)
        assert np.all(scale >= 1.0 - 1e-12)
        cross = np.abs(img[:, 0] * x[:, 1] - img[:, 1] * x[:, 0])
        assert cross.max() <= 1e-10  # q(x) is a multiple of x
        p, _ = central_projection(body)
        move_q = np.linalg.norm(img - x, axis=1)
        move_p = np.linalg.norm(p.value(x) - x, axis=1)
        assert np.all(move_q <= move_p + 1e-12)

    def test_derivative_bound_item(self, rng):
        body = EllipsoidBody([2.0, 1.0])
        q = collared_projection(body, 0.2)
        p, _ = central_projection(body)
        x = rng.uniform(-1.8, 1.8, (800, 2))
        x = x[(np.linalg.norm(x, axis=1) > 0.1) & (gauge(body, x) < 0.999)]
        boundary = np.array([boundary_point(body, d) for d in rng.standard_normal((2000, 2))])
        nu = body.normal(boundary)
        delta = 1.0 / np.min(np.einsum("ni,ni->n", nu, boundary / np.linalg.norm(boundary, axis=1, keepdims=True)))
        bound = 5 * np.linalg.norm(p.value(x), axis=1) / np.linalg.norm(x, axis=1) * delta
        norms = np.linalg.svd(q.jacobian(x), compute_uv=False)[:, 0]
        assert np.all(norms <= bound + 1e-9)

    def test_jacobian_matches_fd(self, rng):
        q = collared_projection(EllipsoidBody([2.0, 1.0]), 0.2)
        probes = rng.uniform(-2.2, 2.2, (400, 2))
        probes = probes[np.linalg.norm(probes, axis=1) > 0.1]
        assert fd_check(q, probes)


class TestRecentering:
    def test_center_maps_to_origin_exactly(self, rng):
        for _ in range(5):
            a = rng.uniform(-0.8, 0.8, 3)
            f = recentering_map(a)
            assert np.abs(f.value(a)).max() <= 1e-15

    def test_identity_outside_and_near_boundary(self, rng):
        a = np.array([0.3, -0.45])
        f = recentering_map(a)
        x = rng.uniform(-1.6, 1.6, (2000, 2))
        outside = x[np.any(np.abs(x) >= 1.0, axis=1)]
        assert np.array_equal(f.value(outside), outside)

    def test_cube_into_cube_and_lower_bound(self, rng):
        a = np.array([0.5, -0.2, 0.1])
        f = recentering_map(a)
        x = rng.uniform(-0.999, 0.999, (3000, 3))
        img = f.value(x)
        assert np.all(np.abs(img) <= 1.0)
        ratio = np.linalg.norm(img, axis=1) / np.maximum(np.linalg.norm(x - a, axis=1), 1e-12)
        assert ratio.min() > 0.1

    def test_local_diffeomorphism(self, rng):
        f = recentering_map(np.array([0.4, 0.4]))
        x = rng.uniform(-0.99, 0.99, (1000, 2))
        dets = np.linalg.det(f.jacobian(x))
        assert dets.min() > 0

    def test_jacobian_matches_fd(self, rng):
        f = recentering_map(np.array([0.3, -0.45]))
        assert fd_check(f, rng.uniform(-1.2, 1.2, (400, 2)))

    @pytest.mark.parametrize("far", [0.6, 0.75, 0.9, 0.95])
    def test_far_centre_keeps_cube_and_boundary_band(self, far, rng):
        # a centre near one face: the opposite outer corner of its profile
        # must still blend inside |t| < 1 - rho/4
        centres = [[far, 0.0], [-far, 0.3], [0.751, -far], [0.2, far, -0.4], [far, -far, far]]
        for a in map(np.array, centres):
            n = len(a)
            f = recentering_map(a)
            rho = np.minimum(0.5, 1.0 - np.abs(a))
            x = rng.uniform(-1.0, 1.0, (3000, n))
            x[:200] = np.sign(x[:200]) * np.where(rng.random((200, n)) < 0.5, 1.0, np.abs(x[:200]))
            assert np.all(np.abs(f.value(x)) <= 1.0)
            band = x.copy()
            j = rng.integers(0, n, len(band))
            rows = np.arange(len(band))
            depth = rho[j] / 4.0 * np.append(rng.random(len(band) - 2), [0.0, 1.0])
            band[rows, j] = np.sign(band[rows, j]) * (1.0 - depth)
            assert np.all(np.abs(band[rows, j]) >= 1.0 - rho[j] / 4.0)
            assert np.all(np.abs(f.value(band) - band) <= np.spacing(np.abs(band)))


class TestPuncturedCubeProjection:
    def test_identity_far_from_cube(self, rng):
        phi = punctured_cube_projection(np.array([0.2, -0.1]), 0.1)
        x = rng.uniform(-2, 2, (2000, 2))
        far = x[np.linalg.norm(x - np.clip(x, -1, 1), axis=1) >= 2 * 0.1]
        assert np.array_equal(phi.value(far), far)

    def test_small_displacement_outside_cube(self, rng):
        eps = 0.1
        phi = punctured_cube_projection(np.array([0.2, -0.1]), eps)
        x = rng.uniform(-1.4, 1.4, (3000, 2))
        x = x[np.any(np.abs(x) > 1.0, axis=1)]
        assert np.linalg.norm(phi.value(x) - x, axis=1).max() <= eps + 1e-12

    def test_image_is_cube_boundary(self, rng):
        a = np.array([0.3, -0.45])
        phi = punctured_cube_projection(a, 0.1)
        x = rng.uniform(-0.999, 0.999, (4000, 2))
        x = x[np.linalg.norm(x - a, axis=1) > 0.02]
        img = phi.value(x)
        assert np.abs(np.max(np.abs(img), axis=1) - 1.0).max() <= 1e-12

    def test_radial_example_centered(self):
        phi = punctured_cube_projection(np.zeros(2), 0.1)
        img = phi.value(np.array([0.5, 0.0]))
        assert np.linalg.norm(img - np.array([1.0, 0.0])) <= 0.1

    def test_boundary_distance_monotone(self, rng):
        a = np.array([0.1, 0.2])
        phi = punctured_cube_projection(a, 0.1)
        x = rng.uniform(-1.3, 1.3, (3000, 2))
        x = x[np.linalg.norm(x - a, axis=1) > 0.05]
        before = dist_to_cube_boundary(x, -np.ones(2), np.ones(2))
        after = dist_to_cube_boundary(phi.value(x), -np.ones(2), np.ones(2))
        assert np.all(after <= before + 1e-10)

    def test_face_region_tangent_preservation(self, rng):
        a = np.array([0.3, 0.0])
        phi = punctured_cube_projection(a, 0.1)
        # face
        face = np.column_stack([np.ones(200), rng.uniform(-0.99, 0.99, 200)])
        img = phi.value(face)
        assert np.abs(img[:, 0] - 1).max() <= 1e-12
        # region C_kappa closure
        fi = FaceIndex((1, 0))
        pts = rng.uniform(-2, 2, (2000, 2))
        pts = pts[region_contains(fi, pts)]
        img = phi.value(pts)
        assert np.all(img[:, 0] >= 1.0 - 1e-12)
        assert np.all(np.abs(img[:, 1]) <= 1.0 + 1e-12)
        # tangent line through a
        line = np.column_stack([rng.uniform(-1.5, 1.5, 200), np.zeros(200)])
        line = line[np.abs(line[:, 0] - 0.3) > 0.03]
        assert np.abs(phi.value(line)[:, 1]).max() == 0.0

    def test_neighbour_halfcube_preservation(self, rng):
        phi = punctured_cube_projection(np.array([0.3, -0.45]), 0.1)
        block = np.column_stack([rng.uniform(1, 2, 500), rng.uniform(0, 2, 500)])
        img = phi.value(block)
        assert np.all(img[:, 0] >= 1 - 1e-12)
        assert np.all((img[:, 1] >= -1e-12) & (img[:, 1] <= 2 + 1e-12))

    def test_derivative_bound_shape(self, rng):
        a = np.array([0.3, -0.45])
        d = 1 - np.abs(a).max()
        phi = punctured_cube_projection(a, 0.1)
        x = rng.uniform(-0.99, 0.99, (4000, 2))
        x = x[np.linalg.norm(x - a, axis=1) > 0.05]
        norms = np.linalg.svd(phi.jacobian(x), compute_uv=False)[:, 0]
        gammas = 2 * np.linalg.norm(x - a, axis=1) * d * norms
        assert np.isfinite(gammas.max())
        assert gammas.max() < 64.0  # empirical constant stays moderate

    def test_jacobian_matches_fd(self, rng):
        phi = punctured_cube_projection(np.array([0.3, -0.45]), 0.1)
        probes = rng.uniform(-1.1, 1.1, (500, 2))
        probes = probes[np.linalg.norm(probes - np.array([0.3, -0.45]), axis=1) > 0.05]
        assert fd_check(phi, probes)

    def test_domain_error_at_center(self):
        a = np.array([0.25, 0.25])
        phi = punctured_cube_projection(a, 0.1)
        with pytest.raises(ValueError):
            phi.value(a)


class TestUnrectPerturbation:
    def setup_method(self):
        self.region = Box([-0.8, -0.8], [1.8, 1.8])

    def test_empty_input_gives_identity(self):
        rho = unrect_perturbation(np.zeros((0, 2)), rank_one_map(), self.region, 0.5, 1)
        x = np.array([[0.3, 0.4]])
        assert np.array_equal(rho.value(x), x)
        # the keys of a non-empty call, so callers can iterate the balls
        assert rho.meta == {"balls": [], "uncovered_samples": 0, "resolution": None, "eps": 0.5}
        given = unrect_perturbation(np.zeros((0, 2)), rank_one_map(), self.region, 0.5, 1,
                                    resolution=0.01)
        assert given.meta["resolution"] == 0.01

    @pytest.mark.parametrize("resolution", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_resolution_rejected_without_samples(self, resolution):
        with pytest.raises(ValueError, match="resolution must be finite and positive"):
            unrect_perturbation(np.zeros((0, 2)), rank_one_map(), self.region, 0.5, 1,
                                resolution=resolution)

    def test_cantor_reduction(self, rng):
        pts, _ = four_corner_cantor(6, angle=0.012)
        f = rank_one_map()
        rho = unrect_perturbation(pts, f, self.region, 0.8, 1, cluster_gap=0.2)
        res = rho.meta["resolution"]
        cell = 0.25**6

        def covering_len(p):
            cells = np.unique(np.floor(p / cell).astype(np.int64), axis=0)
            return len(cells) * cell

        with_rho = covering_len(f.value(rho.value(pts)))
        baseline = covering_len(f.value(pts))
        assert covering_len(pts) == pytest.approx(1.0)
        assert with_rho <= 0.2 * covering_len(pts)
        assert with_rho < baseline  # the search genuinely improved the direction

    def test_deviation_bound_and_identity(self, rng):
        pts, _ = four_corner_cantor(5, angle=0.01)
        rho = unrect_perturbation(pts, rank_one_map(), self.region, 0.8, 1, cluster_gap=0.2)
        probes = rng.uniform(-0.8, 1.8, (5000, 2))
        jac = rho.jacobian(probes)
        dev = np.linalg.svd(jac - np.eye(2), compute_uv=False)[:, 0]
        assert dev.max() <= 0.8
        outside = probes[~rho.support.contains(probes)]
        assert np.array_equal(rho.value(outside), outside)

    def test_jacobian_matches_fd(self, rng):
        pts, _ = four_corner_cantor(4, angle=0.01)
        rho = unrect_perturbation(pts, rank_one_map(), self.region, 0.8, 1, cluster_gap=0.2)
        assert fd_check(rho, rng.uniform(-0.2, 1.2, (400, 2)))

    def test_rank_violation_reported_with_point(self):
        full_rank = SmoothMap.identity(2)
        pts = np.array([[0.25, 0.25], [0.7, 0.7]])
        with pytest.raises(RankConditionError, match=r"sample"):
            unrect_perturbation(pts, full_rank, self.region, 0.5, 1)

    def test_rectifiable_input_fails_direction_search(self):
        # a straight segment has no low-projection direction near its tangent
        t = np.linspace(0.1, 0.9, 400)
        pts = np.column_stack([t, np.full_like(t, 0.4)])
        with pytest.raises(DirectionSearchError):
            unrect_perturbation(pts, rank_one_map(), self.region, 0.5, 1, cluster_gap=0.3)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_direction_budget_below_one(self, budget):
        pts, _ = four_corner_cantor(4, angle=0.01)
        with pytest.raises(ValueError, match="direction_budget"):
            unrect_perturbation(pts, rank_one_map(), self.region, 0.8, 1, cluster_gap=0.2,
                                direction_budget=budget)

    def test_non_finite_sample(self):
        pts, _ = four_corner_cantor(4, angle=0.01)
        pts[7] = [np.nan, 0.3]
        with pytest.raises(ValueError, match="sample 7 is not finite"):
            unrect_perturbation(pts, rank_one_map(), self.region, 0.8, 1, cluster_gap=0.2)

    @pytest.mark.parametrize("resolution", [0.0, -0.01, np.nan, np.inf])
    def test_resolution_not_finite_and_positive(self, resolution):
        pts, _ = four_corner_cantor(4, angle=0.01)
        with pytest.raises(ValueError, match="resolution must be finite and positive"):
            unrect_perturbation(pts, rank_one_map(), self.region, 0.8, 1, cluster_gap=0.2,
                                resolution=resolution)


def _rank_two_map():
    """f(x) = (x_0, x_1, 0): a globally rank-two smooth map of R^3."""

    def value(x):
        out = np.zeros_like(x)
        out[:, :2] = x[:, :2]
        return out

    def jac(x):
        j = np.zeros((len(x), 3, 3))
        j[:, 0, 0] = j[:, 1, 1] = 1.0
        return j

    return SmoothMap(3, 3, value, jac, name="rank2")


def _tilted_cantor_3d(depth=4):
    """A four-corner Cantor set on a slightly tilted plane of R^3."""
    p2, _ = four_corner_cantor(depth, angle=0.01)
    return np.column_stack([p2, 0.37 + 0.01 * p2[:, 0]])


class TestDirectionSearchOracle:
    """The sorted cell count over candidate chunks and the blocked resolution
    estimate against one ``np.unique`` per candidate and the unblocked
    estimate: the same scores, winner, rng draws and rho bytes."""

    def _search(self, xb, t_plane, cone, budget, resolution, seed=5):
        rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        cands, scores, best, baseline, own = _direction_search(xb, t_plane, cone, budget, rng, resolution)
        want = direction_search_oracle(xb, t_plane, cone, budget, rng_oracle, resolution)
        assert cands.tobytes() == want[0].tobytes()
        assert scores.tobytes() == want[1].tobytes()
        assert (best, baseline, own) == want[2:]
        assert rng.bit_generator.state == rng_oracle.bit_generator.state
        return scores, best

    def test_angle_grid_n2(self):
        pts, _ = four_corner_cantor(5, angle=0.012)
        scores, _ = self._search(pts, Plane.axis(2, (0,)), 0.05, 720, 0.25**5)
        assert scores.min() < scores.max()

    @pytest.mark.parametrize("m, resolution", [(1, 0.25**4), (2, 0.03)])
    def test_random_frames_n3(self, m, resolution):
        scores, _ = self._search(_tilted_cantor_3d(), Plane.axis(3, tuple(range(m))), 0.3, 200, resolution)
        assert scores.min() < scores.max()

    def test_tied_minima_keep_the_first(self):
        pts, _ = four_corner_cantor(3, angle=0.012)
        scores, best = self._search(pts, Plane.axis(2, (0,)), 0.05, 50, 0.25**3)
        ties = np.flatnonzero(scores == scores.min())
        assert len(ties) > 1 and best == ties[0] > 0

    def test_samples_on_cell_boundaries(self):
        # every coordinate is a multiple of the (binary) resolution
        grid = np.arange(-8, 9) / 8.0
        pts = np.array(list(itertools.product(grid, grid)))
        self._search(pts, Plane.axis(2, (0,)), 0.1, 721, 0.125)
        self._search(np.column_stack([pts, pts[:, 0] - pts[:, 1]]), Plane.axis(3, (0, 2)), 0.1, 60, 0.125)

    def test_negative_coordinates(self):
        pts, _ = four_corner_cantor(4, angle=0.012, origin=(-3.3, -2.1))
        self._search(pts, Plane.axis(2, (0,)), 0.05, 200, 0.25**4)
        self._search(_tilted_cantor_3d() - 2.7, Plane.axis(3, (0, 1)), 0.3, 100, 0.25**4)

    def test_one_candidate_chunks(self, monkeypatch):
        monkeypatch.setattr(cubemaps, "DIRECTION_ROWS", 1)
        pts, _ = four_corner_cantor(4, angle=0.012)
        self._search(pts, Plane.axis(2, (0,)), 0.05, 90, 0.25**4)
        self._search(_tilted_cantor_3d(), Plane.axis(3, (0, 1)), 0.3, 40, 0.25**4)

    def test_code_span_beyond_int64(self, rng):
        pts = rng.uniform(-5.0, 5.0, (300, 3))
        pts = np.vstack([pts, pts[:40], pts[:20] * [1.0, 1.0, -1.0]])
        span = np.floor(pts[:, 0] / 1e-18).max() - np.floor(pts[:, 0] / 1e-18).min()
        assert span > 2.0**63
        self._search(pts, Plane.axis(3, (0, 1)), 0.3, 40, 1e-18)
        # codes {0, 4} x {0, 4, 2^62}: a mixed-radix key over int64 offsets
        # wraps 4 * (2^62 + 1) onto 4, the key of the distinct cell (0, 4)
        big = [(a, b, 0.5) for a in (0.0, 4.0) for b in (0.0, 4.0, 2.0**62)]
        self._search(np.array(big), Plane.axis(3, (0, 1)), 0.3, 40, 1.0)

    def test_more_than_4096_samples(self, rng):
        pts = rng.uniform(-1.0, 1.0, (5000, 2)) ** 3
        self._search(pts, Plane.axis(2, (1,)), 0.2, 64, 0.01)

    def test_duplicate_samples(self):
        pts, _ = four_corner_cantor(4, angle=0.012)
        pts = np.vstack([pts, pts[::3], pts[:5]])
        self._search(pts, Plane.axis(2, (0,)), 0.05, 200, 0.25**4)
        self._search(np.repeat(_tilted_cantor_3d(), 2, axis=0), Plane.axis(3, (0,)), 0.3, 60, 0.25**4)

    @pytest.mark.parametrize("count, dim", [(1, 2), (700, 2), (3000, 2), (8200, 2), (1500, 3)])
    def test_native_resolution(self, count, dim, rng):
        pts = rng.uniform(-1.0, 1.0, (count, dim))
        pts = np.vstack([pts, pts[: max(1, count // 10)]])  # duplicates measure nothing
        got, want = _grid.median_spacing(pts, 4096)[0], median_spacing_oracle(pts, 4096)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()
        assert (got == math.inf) == (count == 1)

    @pytest.mark.parametrize("case", ["n2", "n3_m1", "n3_m2"])
    def test_map_matches_oracle_bytes(self, case, monkeypatch, rng):
        if case == "n2":
            pts, f, m, kw = four_corner_cantor(5, angle=0.004)[0], rank_one_map(), 1, {}
        else:
            m = int(case[-1])
            f = rank_one_map(3) if m == 1 else _rank_two_map()
            pts, kw = _tilted_cantor_3d(), {"direction_budget": 150, "threshold_factor": 4.0}
        n = pts.shape[1]
        region = Box([-0.8] * n, [1.8] * n)
        probes = np.vstack([pts, rng.uniform(-0.2, 1.2, (2000, n))])
        rho = unrect_perturbation(pts, f, region, 0.8, m, cluster_gap=0.2, seed=4, **kw)
        monkeypatch.setattr(cubemaps, "_direction_search", direction_search_oracle)
        monkeypatch.setattr(_grid, "median_spacing", lambda pts, cap: (median_spacing_oracle(pts, cap), 0, 0, 0))
        monkeypatch.setattr(cubemaps, "build_rotation", lambda s, t: PlaneRotationOracle(build_rotation(s, t)))
        want = unrect_perturbation(pts, f, region, 0.8, m, cluster_gap=0.2, seed=4, **kw)
        assert rho.meta["balls"] and rho.meta == want.meta
        assert rho.value(probes).tobytes() == want.value(probes).tobytes()
        assert rho.jacobian(probes).tobytes() == want.jacobian(probes).tobytes()

    def test_ball_meta_reports_the_search(self, monkeypatch):
        pts, _ = four_corner_cantor(4, angle=0.01)
        region = Box([-0.8, -0.8], [1.8, 1.8])
        rho = unrect_perturbation(pts, rank_one_map(), region, 0.8, 1, cluster_gap=0.2,
                                  threshold_factor=0.4)
        searches = []

        def recording(*args):
            searches.append(direction_search_oracle(*args))
            return searches[-1]

        monkeypatch.setattr(cubemaps, "_direction_search", recording)
        unrect_perturbation(pts, rank_one_map(), region, 0.8, 1, cluster_gap=0.2, threshold_factor=0.4)
        cell = rho.meta["resolution"]
        assert len(searches) == len(rho.meta["balls"]) > 1
        for ball, (cands, scores, best, baseline, own) in zip(rho.meta["balls"], searches):
            assert ball["candidates"] == len(cands) == 720
            assert ball["best_index"] == best
            assert ball["projected_estimate"] == scores[best] * cell
            assert ball["own_estimate"] == own * cell
            assert ball["threshold_estimate"] == 0.4 * own * cell
            assert ball["projected_estimate"] <= ball["threshold_estimate"]

    def test_resolution_debug_line(self, caplog):
        pts, _ = four_corner_cantor(4, angle=0.01)
        with caplog.at_level(logging.DEBUG, logger="gmtkit.cubemaps"):
            rho = unrect_perturbation(pts, rank_one_map(), Box([-0.8] * 2, [1.8] * 2), 0.8, 1, cluster_gap=0.2)
        spacing, probes, measured, fallback = _grid.median_spacing(pts, 4096)
        assert rho.meta["resolution"] == spacing
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("native resolution")]
        assert lines == [f"native resolution: {measured} pairs measured of {probes * len(pts)}, "
                         f"{fallback} fallback probes"]


def _grid_hard_case(case, rng):
    """Sample sets where a grid neighbour search could go wrong; each holds
    more than 2048 points, so ``sample_spacing`` searches its grid too."""
    if case == "far_point":  # its nearest sample lies far outside its 3^n cells
        return np.vstack([rng.random((3000, 2)) * 100.0, [[130.0, 50.0]]])
    if case == "all_duplicates":
        return np.tile([[0.25, -1.5, 3.0]], (2100, 1))
    if case == "exactly_h":
        # span 25 and 2500 points make h = 1: every nearest distinct sample
        # lies exactly h away along one axis, on a cell boundary
        lattice = np.stack(np.meshgrid(np.arange(26.0), np.arange(26.0), indexing="ij"), -1).reshape(-1, 2)
        return np.vstack([lattice] * 3 + [lattice[:472]])
    if case == "span_2_40":  # a crowded cluster at 2^40 beside a cloud spanning 2^40
        return np.vstack([rng.random((1500, 2)) * 1e-3 + 2.0**40, rng.random((1500, 2)) * 2.0**40])
    if case == "n1":
        pts = rng.standard_normal((3000, 1)) ** 3
        return np.vstack([pts, pts[:300]])
    if case == "n4_curve":
        t = np.sort(rng.random(3000)) * 20.0
        return np.stack([np.cos(t), np.sin(t), t / 7.0, np.cos(2.0 * t)], axis=1)
    if case == "n4_cloud":
        return rng.random((3000, 4))
    return rng.uniform(-1.0, 1.0, (9000, 3)) ** 3  # probes subsampled to every 2nd sample


GRID_HARD_CASES = ["far_point", "all_duplicates", "exactly_h", "span_2_40", "n1", "n4_curve",
                   "n4_cloud", "subsampled"]


class TestGridNeighbours:
    """``_grid.neighbours`` and the median spacing it serves, at the purge's
    cap and at ``sample_spacing``'s, against the all-pairs oracle, byte for
    byte."""

    @pytest.mark.parametrize("case", GRID_HARD_CASES)
    def test_resolution_and_spacing_match_the_oracles(self, case, rng):
        pts = _grid_hard_case(case, rng)
        for cap in (4096, 2048):  # the purge's resolution and sample_spacing
            got, probes, measured, fallback = _grid.median_spacing(pts, cap)
            assert np.float64(got).tobytes() == np.float64(median_spacing_oracle(pts, cap)).tobytes()
            total = probes * len(pts)
            assert probes == (len(pts) if len(pts) <= cap else len(pts[:: len(pts) // cap]))
            if case in ("far_point", "span_2_40", "n1", "n4_curve", "subsampled"):
                assert measured < total // 2  # the grid ran
            if case == "far_point":
                assert fallback >= 1 and got < 2.0
            if case == "all_duplicates":
                assert got == math.inf and fallback == probes
            if case == "exactly_h":
                assert got == 1.0 and fallback == probes
        spacing = sample_spacing(pts)
        assert np.float64(spacing).tobytes() == np.float64(sample_spacing_oracle(pts)).tobytes()
        assert spacing == got

    def test_candidates_are_the_neighbour_cells(self, rng):
        for n, cell in ((1, 0.05), (2, 0.1), (3, 0.3), (4, 0.45)):
            pts = np.round(rng.random((400, n)) * 20.0) / 20.0  # many samples on cell boundaries
            queries = np.vstack([pts[::7], rng.uniform(-2.0, 3.0, (30, n))])
            grid = _grid.neighbours(pts, queries, cell)
            seen, counted = np.zeros(len(queries), dtype=int), 0
            groups = zip(np.split(grid.queries, grid.qbounds[1:-1]), np.split(grid.cands, grid.cbounds[1:-1]))
            for members, cand in groups:
                assert np.all(np.diff(members) > 0) and np.all(np.diff(cand) > 0)
                for i in members:
                    near = np.abs(np.floor(pts / cell) - np.floor(queries[i] / cell)).max(axis=1) <= 1
                    assert np.array_equal(cand, np.flatnonzero(near))
                    seen[i] += 1
                counted += len(members) * len(cand)
            assert np.all(seen == 1) and counted == grid.pairs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reach_cell_lists_every_sample_within_reach(self, n, rng):
        # samples on the cell lattice (exactly on cell faces) and in a cloud,
        # both at negative coordinates too; queries at samples, one reach
        # from a sample along an axis, and up to three cells outside the
        # samples' range (a query within reach of an outer sample included)
        for reach in (0.625 / 8, 0.3, 1.0 / 3):
            cell = _grid.reach_cell(reach)
            pts = np.vstack([rng.integers(-12, 12, (150, n)) * cell, rng.uniform(-3.0, 2.0, (150, n))])
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            axis = rng.integers(0, n, 60)
            step = np.zeros((60, n))
            step[np.arange(60), axis] = rng.choice([-1.0, 1.0], 60) * reach
            outside = rng.uniform(lo, hi, (90, n))
            side, upper = rng.integers(0, n, 90), np.arange(90) % 2 == 1
            outer = np.where(upper, pts[:, side].argmax(axis=0), pts[:, side].argmin(axis=0))
            outside[:30] = pts[outer[:30]]  # beside the outermost sample, 0.6 cell = 0.96 reach out
            depth = np.concatenate([np.full(30, 0.6), rng.uniform(0.0, 3.0, 60)]) * cell
            outside[np.arange(90), side] = np.where(upper, hi[side] + depth, lo[side] - depth)
            queries = np.vstack([pts[::5], pts[::5][:60] + step, outside])
            grid = _grid.neighbours(pts, queries, cell)
            near = 0
            for g in range(len(grid.qbounds) - 1):
                members = grid.queries[grid.qbounds[g]:grid.qbounds[g + 1]]
                cand = grid.cands[grid.cbounds[g]:grid.cbounds[g + 1]]
                within = _grid.pair_norms(pts - queries[members][:, None]) <= reach
                assert np.isin(np.nonzero(within)[1], cand).all()
                near += int(np.count_nonzero(within[members >= 120]))
            assert near > 0  # the rule was tested off the samples, not only at them

    @pytest.mark.parametrize("n", range(1, 11))
    def test_pair_norms_equal_the_norm(self, n, rng):
        # magnitudes 1e-300 to 1e300 (squares that underflow and overflow),
        # subnormals, signed zeros, infinities and nan, as pair rows and as
        # the (probes, samples, n) block of nearest_all
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-320, 1e-310, 1.0, -1e300])
        x = 10.0 ** rng.uniform(-300.0, 300.0, (3000, n)) * rng.choice([-1.0, 1.0], (3000, n))
        spot = rng.random((3000, n)) < 0.15
        x[spot] = rng.choice(special, int(spot.sum()))
        x[:500] = rng.standard_normal((500, n))
        with np.errstate(over="ignore", under="ignore"):
            for diff in (x, x.reshape(30, 100, n)):
                got, want = _grid.pair_norms(diff), np.linalg.norm(diff, axis=-1)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_declines_what_it_cannot_do_exactly(self, rng):
        pts = rng.random((50, 2))
        assert _grid.neighbours(pts, pts, 0.0) is None
        assert _grid.neighbours(pts, pts, math.nan) is None
        assert _grid.neighbours(np.zeros((0, 2)), pts, 0.1) is None
        assert _grid.neighbours(pts, pts, 1e-20) is None  # cell indices past 2^50
        assert _grid.neighbours(pts, pts, 10.0, budget=50 * 50) is None  # one cell holds all
        assert _grid.neighbours(pts, np.array([[np.nan, 0.0]]), 0.1) is None

    @staticmethod
    def _fallback_probes(pts):
        got, _, _, fallback = _grid.median_spacing(pts, 4096)
        assert np.float64(got).tobytes() == np.float64(median_spacing_oracle(pts, 4096)).tobytes()
        return fallback

    def test_margin_one_ulp_either_side(self, rng):
        # 1024 samples spanning 1 make h = 1/16; the probe q = (0, 8.5 h) has
        # margin 5/8 h, and its one sample within 2h lies 1 ulp inside or
        # outside it, along the first axis (so the distance is exact)
        h = 2.0 / 1024**0.5
        q = np.array([0.0, 8.5 * h])
        margin = float(_grid.block_margin(q[None], h)[0])
        assert margin == 0.625 * h
        cloud = np.vstack([rng.uniform([0.3, 0.0], [1.0, 1.0], (1020, 2)), [[1.0, 1.0], [1.0, 0.0]]])
        counts = []
        for d in (np.nextafter(margin, 0.0), np.nextafter(margin, 1.0)):
            pts = np.vstack([cloud, q, [d, q[1]]])
            assert np.linalg.norm(pts[-1] - q) == d
            counts.append(self._fallback_probes(pts))
        assert counts[1] == counts[0] + 1  # only q's grid minimum stops being final

    def test_margin_leaves_fewer_fallback_probes(self, rng):
        pts = rng.random((4096, 2))
        h = 2.0 / 4096**0.5
        mins, _ = _grid.nearest(pts, pts, h)
        half_cell = int(np.count_nonzero(~(mins < h / 2.0)))
        assert self._fallback_probes(pts) < half_cell // 4


def _cantor(depth, angle=0.01):
    return four_corner_cantor(depth, angle=angle)[0]


def _ring_around_blob(rng):
    """A ring and a blob, each symmetric about the origin: two clusters with
    one centre, so both balls are dropped."""
    t = np.linspace(0.0, np.pi, 32, endpoint=False)
    half = np.vstack([np.column_stack([np.cos(t), np.sin(t)]), rng.normal(0.0, 0.02, (50, 2))])
    return np.vstack([half, -half])


CLUSTER_CASES = {
    "cantor4": lambda rng: (_cantor(4), 0.2, Box([-0.8] * 2, [1.8] * 2)),
    "cantor4_fine": lambda rng: (_cantor(4), 0.02, Box([-0.8] * 2, [1.8] * 2)),
    "cantor6": lambda rng: (_cantor(6), 0.2, Box([-0.8] * 2, [1.8] * 2)),
    "cantor6_fine": lambda rng: (_cantor(6), 0.01, None),
    # clusters that touch only through a cell corner, chained in both diagonals
    "diagonal": lambda rng: (np.array([[0.5, 0.5], [1.5, 1.5], [2.5, 0.5], [3.5, -0.5], [0.5, 3.5],
                                       [-0.5, 4.5], [8.5, 8.5], [7.5, 9.5], [6.5, 8.5]]), 1.0, None),
    "negative": lambda rng: (rng.normal(0.0, 1.0, (600, 2)) * 3.0 - 40.0, 0.3, None),
    "n1": lambda rng: (rng.standard_normal((500, 1)) ** 3, 0.05, Box([-50.0], [50.0])),
    "n2_blobs": lambda rng: (np.vstack([rng.normal(c, 0.05, (80, 2)) for c in rng.uniform(-2, 2, (12, 2))]),
                             0.1, Box([-3.0] * 2, [3.0] * 2)),
    # a box that some of the same balls leave: their samples are uncovered
    "n2_blobs_clipped": lambda rng: (np.vstack([rng.normal(c, 0.05, (80, 2)) for c in rng.uniform(-2, 2, (12, 2))]),
                                     0.1, Box([-1.5] * 2, [1.5] * 2)),
    "n3_blobs": lambda rng: (np.vstack([rng.normal(c, 0.1, (60, 3)) for c in rng.uniform(-3, 1, (10, 3))]),
                             0.25, None),
    "n3_cloud": lambda rng: (rng.random((4000, 3)), 0.03, None),
    # wide spans over six axes: the cell keys are ranked again before they reach 2^62
    "n6_sparse": lambda rng: (rng.random((700, 6)) * 1e6, 1e-3, None),
    "ring_around_blob": lambda rng: (_ring_around_blob(rng), 0.2, None),
}


class TestNearestAll:
    """``_grid.nearest_all`` with zero distances counted against the four
    scans it replaced, byte for byte: select_center's clearances, the freeze
    radius's distance, the cleanup's coverage and the audit's boundary test."""

    @staticmethod
    def _case(n, rng):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        pts = rng.standard_normal((240, n)) * scale
        pts = np.vstack([pts, pts[::5]])  # duplicate samples
        centres = np.vstack([rng.standard_normal((50, n)) * scale, pts[::29]])  # the last 10 on samples
        return pts, centres

    @pytest.mark.parametrize("n", range(1, 9))
    def test_the_replaced_forms(self, n, rng, monkeypatch):
        pts, centres = self._case(n, rng)
        for rows in (1, 7, 500, deform.CANDIDATE_ROWS):
            monkeypatch.setattr(deform, "CANDIDATE_ROWS", rows)
            got = _grid.nearest_all(centres, pts, distinct=False, block=deform.CANDIDATE_ROWS)
            assert got.tobytes() == clearance_oracle(centres, pts).tobytes()
            assert np.all(got[-10:] == 0.0) and np.all(got[:-10] > 0.0)  # a centre on a sample is clearance 0
        got = _grid.nearest_all(centres, pts, distinct=False, block=AUDIT_BLOCK)
        assert got.tobytes() == boundary_minima_oracle(centres, pts).tobytes()
        sets = [pts[:100], pts[:0], pts[100:]]
        for c in centres[::7]:
            want = freeze_distance_oracle(c, sets)
            got = min((float(_grid.nearest_all(c[None], p, distinct=False)[0]) for p in sets), default=np.inf)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        for k in range(1, min(n, 3) + 1):
            cube = DyadicCube(0, (0,) * n, tuple(range(k)), n)
            near = rng.uniform(-0.2, 1.2, (300, n)) * np.where(np.arange(n) < k, 1.0, 0.1)
            for sample in (near, near[:3], near[:0]):
                assert deform._coverage_fraction(cube, sample) == coverage_fraction_oracle(cube, sample)

    def test_blocks_and_empty_sets(self, rng):
        pts, centres = self._case(3, rng)
        want = clearance_oracle(centres, pts)
        for block in (1, 2, 241, 1 << 20):
            assert _grid.nearest_all(centres, pts, distinct=False, block=block).tobytes() == want.tobytes()
        assert np.all(_grid.nearest_all(centres, pts[:0], distinct=False) == np.inf)
        assert np.all(_grid.nearest_all(centres, pts[:0], distinct=True) == np.inf)
        assert _grid.nearest_all(centres[:0], pts, distinct=False).shape == (0,)
        assert freeze_distance_oracle(centres[0], [pts[:0]]) == np.inf
        # with zero distances left out, a duplicated sample meets its twin no more
        distinct = _grid.nearest_all(pts, pts, distinct=True)
        assert np.all(distinct > 0.0) and np.all(_grid.nearest_all(pts, pts, distinct=False) == 0.0)


class TestClusterBalls:
    """The integer cell clusters against the dict-of-tuples union-find,
    byte for byte, in the same ball order."""

    @pytest.mark.parametrize("case", sorted(CLUSTER_CASES))
    def test_matches_the_oracle(self, case, rng):
        points, gap, region = CLUSTER_CASES[case](rng)
        got, want = _cluster_balls(points, gap, region), cluster_balls_oracle(points, gap, region)
        for a, b in zip(got[:3], want[:3]):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got[3] == want[3]
        if case == "n3_cloud":
            assert len(got[0]) > 100
        if case == "ring_around_blob":
            assert len(got[0]) == 0 and len(got[3]) == len(points)

    def test_each_cluster_is_a_component(self, rng):
        points = rng.random((300, 2))
        label = _grid.cell_clusters(points, 0.05)
        cells = np.floor(points / 0.05)
        touch = np.abs(cells[:, None, :] - cells[None, :, :]).max(axis=2) <= 1
        reach = touch.copy()
        for _ in range(len(points)):
            grown = (reach.astype(int) @ touch.astype(int)) > 0
            if np.array_equal(grown, reach):
                break
            reach = grown
        assert np.array_equal(reach, label[:, None] == label[None, :])


def _cube_deform_case():
    cube = DyadicCube(0, (0, 0, 0), (0, 1, 2), 3)
    pts, w = sample_disc(0.4, 300, seed=1, center=[0.5, 0.5, 0.5])
    v = DiscreteVarifold.flat(pts, Plane.axis(3, (0, 1)), w)
    return deform_one_cube(cube, [v], 0.2, rng=np.random.default_rng(0)), [-0.2] * 3, [1.2] * 3


def _unrect_case():
    pts, _ = four_corner_cantor(4, angle=0.01)
    rho = unrect_perturbation(pts, rank_one_map(), Box([-0.8, -0.8], [1.8, 1.8]), 0.8, 1,
                              cluster_gap=0.2)
    balls = rho.support.regions
    lo = np.min([b.center - b.radius for b in balls], axis=0)
    hi = np.max([b.center + b.radius for b in balls], axis=0)
    return rho, lo, hi


def _composite_case():
    f_a = recentering_map(np.array([0.3, -0.2]))
    q = collared_projection(cube_enclosure(2, 0.05, 0.1), 0.02)
    l = retraction_with_collar(2, 0.2)
    return SmoothMap.compose(l, q, f_a), [-1.2] * 2, [1.2] * 2


SUPPORTED_MAPS = {
    "retraction_with_collar": lambda: (retraction_with_collar(3, 0.2), [-1.2] * 3, [1.2] * 3),
    "collared_projection": lambda: (
        collared_projection(BallBody(2, 1.5), 0.2), [-1.5] * 2, [1.5] * 2),
    "recentering_map": lambda: (recentering_map(np.array([0.3, -0.4, 0.1])), [-1] * 3, [1] * 3),
    "punctured_cube_projection": lambda: (
        punctured_cube_projection(np.array([0.3, -0.45]), 0.1), [-1.1] * 2, [1.1] * 2),
    "deform_one_cube": _cube_deform_case,
    "unrect_perturbation": _unrect_case,
    "compose": _composite_case,
}

# the supported maps and the maps of gmtkit without a support, each with a
# box of probe points around where it moves
ALL_MAPS = {
    **SUPPORTED_MAPS,
    "identity": lambda: (SmoothMap.identity(3), [-1] * 3, [1] * 3),
    "affine": lambda: (SmoothMap.affine([[1.0, 2.0, 0.5], [-0.3, 0.0, 4.0]], [0.1, -0.2]), [-1] * 3, [1] * 3),
    "smooth_retraction": lambda: (smooth_retraction(2, 0.2), [-1.2] * 2, [1.2] * 2),
    "central_projection": lambda: (central_projection(EllipsoidBody([1.0, 2.0, 0.5]))[0], [-2] * 3, [2] * 3),
    "central_projection_t": lambda: (
        central_projection(cube_enclosure(2, 0.05, 0.1))[1], [-1.2] * 2, [1.2] * 2),
    "blowup_map": lambda: (blowup_map(norm_map(2), 0.8, 0.3), [-1] * 2, [1] * 2),
}


class TestSupportContract:
    """value/jacobian skip the rows outside a declared support; the raw
    functions must agree there bit for bit (the map is the exact identity)."""

    @pytest.mark.parametrize("name", sorted(SUPPORTED_MAPS))
    def test_masked_evaluation_matches_raw(self, name, rng):
        phi, lo, hi = SUPPORTED_MAPS[name]()
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        pts = rng.uniform(mid - 3 * half, mid + 3 * half, (3000, len(lo)))
        inside = phi.support.contains(pts)
        assert inside.any() and not inside.all()
        assert phi.value(pts).tobytes() == phi._evaluate(pts, False)[0].tobytes()
        assert phi.jacobian(pts).tobytes() == phi._evaluate(pts, True)[1].tobytes()
        outside = pts[~inside]
        assert phi.value(outside).tobytes() == outside.tobytes()
        eye = np.broadcast_to(np.eye(len(lo)), (len(outside), len(lo), len(lo)))
        assert phi.jacobian(outside).tobytes() == eye.tobytes()

    def test_compose_evaluates_each_map_inside_its_support(self):
        seen = []

        def recording(lo, hi):
            def value(x):
                seen.append(len(x))
                return x + 0.0

            return SmoothMap(1, 1, value, None, support=Box([lo], [hi]))

        phi = SmoothMap.compose(recording(2.0, 3.0), recording(0.0, 1.0))
        x = np.array([[0.5], [2.5], [5.0]])
        assert np.array_equal(phi.value(x), x)
        assert seen == [1, 1]


def _same_bytes(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def _profile_rows(knots, slopes, anchor_t, anchor_v, deltas=None):
    """The ``profile_rows`` parameters of one profile."""
    return profile_rows(np.atleast_2d(knots), np.atleast_2d(slopes), [anchor_t], [anchor_v],
                        None if deltas is None else np.atleast_2d(deltas))


def _recentering_probes(a, rng, count=600):
    """Points of 1.3 Q whose coordinates are often special for the centre a:
    on and next to dQ, in the corner blend windows of the profile, in the
    lateral cutoff windows, at the centre, and signed zeros."""
    n = len(a)
    rho = np.minimum(0.5, 1.0 - np.abs(a))
    pts = rng.uniform(-1.3, 1.3, (count, n))
    for i in range(n):
        r = rho[i]
        knots = np.array([-1.0 + 5 * r / 8.0, a[i] - r / 8.0, a[i] + r / 8.0, 1.0 - 5 * r / 8.0])
        delta = np.min(np.diff(knots)) / 8.0
        special = np.concatenate([
            [1.0, -1.0, np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), 1.0 + 1e-12,
             0.0, -0.0, a[i], 1.0 - r / 2.0, -(1.0 - r / 4.0)],
            knots, knots + delta, knots - delta,
            (knots[:, None] + delta * rng.uniform(-1.0, 1.0, (4, 6))).ravel(),
            (1.0 - r * rng.uniform(0.25, 0.5, 6)) * rng.choice([-1.0, 1.0], 6),
        ])
        pick = rng.random(count) < 0.5
        pts[pick, i] = rng.choice(special, pick.sum())
    # near the corners: every coordinate inside its lateral cutoff window
    corner = (1.0 - rho * rng.uniform(0.25, 0.5, (count // 4, n))) * rng.choice([-1.0, 1.0], (count // 4, n))
    return np.vstack([pts, corner])


RECENTRES = [
    np.array([0.3]),
    np.array([-0.95]),
    np.array([0.3, -0.45]),
    np.array([0.0, 0.2]),
    np.array([0.0, 0.0]),
    np.array([0.5, -0.2, 0.1]),
    np.array([0.2, 0.0, -0.9]),
    np.array([1e-20, -0.3, 0.44]),
    np.array([0.1, -0.7, 0.25, 0.6]),
]


class TestRecenteringKernel:
    """The batched recentering kernel against the per-profile reference."""

    @pytest.mark.parametrize("index", range(len(RECENTRES)))
    def test_matches_reference_bytes(self, index, rng):
        a = RECENTRES[index]
        f, ref = recentering_map(a), recentering_map_oracle(a)
        x = _recentering_probes(a, rng)
        val, jac = f._evaluate(x, True)
        assert _same_bytes(val, ref._evaluate(x, False)[0])
        assert _same_bytes(jac, ref._evaluate(x, True)[1])
        assert _same_bytes(f._evaluate(x, False)[0], val) and _same_bytes(f._evaluate(x, True)[1], jac)
        assert _same_bytes(f.value(x), ref.value(x))
        assert _same_bytes(f.jacobian(x), ref.jacobian(x))
        assert f.meta == ref.meta

    def test_stacked_centres_match_each_centre(self, rng):
        centres = np.vstack([rng.uniform(-0.5, 0.5, (7, 3)), [[0.0, 0.1, -0.2], [0.0, 0.0, 0.3]]])
        x = _recentering_probes(np.zeros(3), rng)
        val, jac = _recenter(centres, _recentering_profiles(centres), x)
        for c, a in enumerate(centres):
            ref = recentering_map_oracle(a)
            assert _same_bytes(val[c], ref._evaluate(x, False)[0])
            assert _same_bytes(jac[c], ref._evaluate(x, True)[1])

    @pytest.mark.parametrize("bad", [[1.0, 0.0], [0.2, -1.5]])
    def test_centre_outside_open_cube_rejected(self, bad):
        with pytest.raises(ValueError, match="open cube"):
            recentering_map(np.array(bad))

    def test_profile_matches_reference_bytes(self, rng):
        delta = 0.3
        w = 0.9 * delta**2 / (1.0 + 2.0 * delta)
        c = (delta - w) / (delta - 2.0 * w)
        cases = [
            ([w, delta - w, 1.0 - delta + w, 1.0 - w], [0.0, c, 1.0, c, 0.0], 0.5, 0.5, None),
            ([-0.6875, 0.2375, 0.3625, 0.6875], [1.0, 0.9, 1.0, 1.1, 1.0], 0.3, 0.0, None),
            ([-1.0, 0.5], [2.0, 0.5, 1.0], 0.0, 0.0, [0.1, 0.2]),
            ([0.0], [1.0, 3.0], -1.0, -0.0, None),
            ([0.0], [-0.0, 1.0], -5.0, 0.0, None),  # derivative -0.0 left of the corner
            # knot value -0.0 and slope 0.0 left of it: the value there is -0.0
            # before the corner at 1.0 adds its +0.0
            ([0.0, 1.0], [0.0, 0.0, 1.0], 0.5, -0.0, None),
        ]
        for knots, slopes, at, av, deltas in cases:
            new = _profile_rows(knots, slopes, at, av, deltas)
            ref = SmoothPiecewiseLinearOracle(knots, slopes, at, av, deltas)
            kn = np.asarray(knots)
            t = np.concatenate([
                rng.uniform(kn[0] - 1.0, kn[-1] + 1.0, 500),
                kn, kn + ref.deltas, kn - ref.deltas, [0.0, -0.0, at],
                (kn[:, None] + ref.deltas[:, None] * rng.uniform(-1, 1, (len(kn), 50))).ravel(),
            ])
            assert _same_bytes(new[3][0], ref.knot_vals)
            assert _same_bytes(new[2][0], ref.deltas)
            value, derivative = profile_eval(t[None], *new, derivative=True)
            assert _same_bytes(value[0], ref.value(t))
            assert _same_bytes(derivative[0], ref.derivative(t))
            only, none = profile_eval(t[None], *new)
            assert _same_bytes(only, value) and none is None

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="one more slope"):
            _profile_rows([0.0, 1.0], [1.0, 1.0], 0.5, 0.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            _profile_rows([1.0, 0.0], [1.0, 2.0, 1.0], 0.5, 0.0)
        with pytest.raises(ValueError, match="blend window"):
            _profile_rows([0.0, 1.0], [1.0, 2.0, 1.0], 0.01, 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacked_punctured_jacobians(self, n, rng):
        centres = rng.uniform(-0.5, 0.5, (5, n))
        centres[1, 0] = 0.0
        x = rng.uniform(-1.0, 1.0, (300, n))
        x[:20, 0] = 1.0
        x[20:40, 1] = -1.0
        rows, inverse = _punctured_jacobian_rows(centres, x, 0.1)
        jac = rows[inverse]
        for c, a in enumerate(centres):
            assert _same_bytes(jac[c], punctured_cube_projection(a, 0.1).jacobian(x))
            assert _same_bytes(jac[c], punctured_projection_oracle(a, 0.1).jacobian(x))

    def test_stacked_punctured_jacobians_need_points_in_cube(self):
        with pytest.raises(ValueError, match="closed cube"):
            _punctured_jacobian_rows(np.zeros((1, 2)) + 0.1, np.array([[1.01, 0.0]]), 0.1)

    @pytest.mark.parametrize("name", sorted(ALL_MAPS))
    def test_value_and_jacobian_match_separate_calls(self, name, rng):
        phi, lo, hi = ALL_MAPS[name]()
        pts = rng.uniform(-2.0, 2.0, (2000, len(lo)))
        if phi.support is not None:
            assert phi.inside_support(pts).any() and not phi.inside_support(pts).all()
        val, jac = phi.value_and_jacobian(pts)
        assert _same_bytes(val, phi.value(pts))
        assert _same_bytes(jac, phi.jacobian(pts))

def _recentred_words(centres, x):
    """The recentred rows (value, Jacobian) of every (centre, point) pair as
    uint64 words, computed apart from the dedup."""
    n = centres.shape[1]
    cur, jac = _recenter(centres, _recentering_profiles(centres), x)
    return np.hstack([cur.reshape(-1, n), jac.reshape(-1, n * n)]).view(np.uint64)


def _boundary_heavy_points(rng, count, n):
    """Points of Q, half of them with a coordinate on or next to dQ, where the
    recentred rows of different centres often share their bits."""
    x = rng.uniform(-1.0, 1.0, (count, n))
    j = rng.integers(0, n, count // 2)
    x[np.arange(count // 2), j] = rng.choice([-1.0, 1.0, 0.99, -0.97], count // 2)
    return x


class TestPuncturedRowDedup:
    """_punctured_jacobian_rows against the chain run on every stacked row."""

    def _check(self, centres, x, eps=0.1):
        jac, inverse = _punctured_jacobian_rows(centres, x, eps)
        assert inverse.shape == (len(centres), len(x))
        assert _same_bytes(jac[inverse], punctured_jacobians_oracle(centres, x, eps))
        # a group holds only rows whose recentred bits are equal, and every
        # group is used
        words = _recentred_words(centres, x)
        flat = inverse.ravel()
        first = np.full(len(jac), -1)
        first[flat[::-1]] = np.arange(len(flat))[::-1]
        assert np.all(first >= 0)
        assert np.array_equal(words, words[first[flat]])
        return jac, inverse, len(np.unique(words, axis=0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_shared_rows_are_merged(self, n, rng):
        centres = rng.uniform(-0.5, 0.5, (9, n))
        jac, _, distinct = self._check(centres, _boundary_heavy_points(rng, 400, n))
        assert len(jac) == distinct < len(centres) * 400

    def test_all_distinct_chunk(self, rng):
        centres = rng.uniform(-0.5, 0.5, (6, 3))
        x = rng.uniform(-0.5, 0.5, (300, 3))  # inside every profile's outer knots
        jac, _, distinct = self._check(centres, x)
        assert len(jac) == distinct == 6 * 300

    @pytest.mark.parametrize("sign_blind", [False, True])
    def test_signed_zeros_stay_apart(self, sign_blind, monkeypatch):
        if sign_blind:  # rows differing only in signs share a key and sort together
            keys = _grid._row_fingerprint
            monkeypatch.setattr(_grid, "_row_fingerprint",
                                lambda words: keys(words & np.uint64(2**63 - 1)))
        # coordinate 1 is never recentred, so the sign of its zero survives
        centres = np.array([[0.2, 0.0], [-0.3, 0.0], [0.2, -0.0]])
        x = np.array([[0.3, 0.0], [0.3, -0.0], [1.0, 0.0], [1.0, -0.0], [-0.4, 0.5]])
        jac, inverse, distinct = self._check(centres, x)
        assert len(jac) >= distinct if sign_blind else len(jac) == distinct
        assert np.all(inverse[:, 0] != inverse[:, 1]) and np.all(inverse[:, 2] != inverse[:, 3])

    def test_colliding_fingerprints_never_merge_unequal_rows(self, monkeypatch, rng):
        monkeypatch.setattr(_grid, "_row_fingerprint",
                            lambda words: np.zeros(len(words), dtype=np.uint64))
        centres = rng.uniform(-0.5, 0.5, (5, 2))
        centres[0, 1] = 0.0
        x = _boundary_heavy_points(rng, 300, 2)
        x[:10, 1] = -0.0
        jac, _, distinct = self._check(centres, x)
        assert len(jac) >= distinct

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_centre(self, n, rng):
        self._check(rng.uniform(-0.5, 0.5, (1, n)), _boundary_heavy_points(rng, 200, n))


class TestEvaluationPath:
    """``value``, ``jacobian`` and ``value_and_jacobian`` share one checked,
    masked path: the same answers for a single point as for a batch of one,
    and the same error for points of the wrong dimension."""

    @pytest.mark.parametrize("name", sorted(ALL_MAPS))
    def test_single_point_is_a_batch_of_one(self, name, rng):
        phi, lo, hi = ALL_MAPS[name]()
        pts = rng.uniform(lo, hi, (200, len(lo)))
        x = pts[np.argmax(phi.inside_support(pts))]
        val, jac = phi.value_and_jacobian(x)
        assert val.shape == (phi.n_out,) and jac.shape == (phi.n_out, phi.n_in)
        assert _same_bytes(val, phi.value(x)) and _same_bytes(jac, phi.jacobian(x))
        batch_val, batch_jac = phi.value_and_jacobian(x[None])
        assert _same_bytes(val, batch_val[0]) and _same_bytes(jac, batch_jac[0])

    @pytest.mark.parametrize("name", sorted(ALL_MAPS))
    def test_wrong_dimension_rejected(self, name):
        phi, lo, hi = ALL_MAPS[name]()
        for bad in (np.full((4, phi.n_in + 1), 0.5), np.full((4, phi.n_in - 1), 0.5), np.full(phi.n_in + 1, 0.5)):
            for method in (phi.value, phi.jacobian, phi.value_and_jacobian):
                with pytest.raises(ValueError, match=rf"expected points in R\^{phi.n_in}$"):
                    method(bad)


def _plateau_case(a, b, cap):
    width = b - a
    w = width / 4.0 if cap is None else min(max(max(width - 1.0 / cap, 0.0) * 1.02, width / 16.0), width * 0.49)
    return plateau_step(a, b, cap), plateau_step_oracle(a, b, cap), [a, a + w, b - w, b]


def _retraction_case(eps):
    delta = min(2.0 * eps / (1.0 + eps), 0.5)
    ends = [1.0 - delta, 1.0, 1.0 + delta, 2.0]
    return retraction_profile(eps), retraction_profile_oracle(eps), [-e for e in ends] + ends


def _collar_case(body, eps):
    delta = collared_projection(body, eps).meta["delta"]
    return collar_alpha(delta), collar_alpha_oracle(delta), [1.0, delta]


# the profiles with the parameters src/ builds them with: the stage and purge
# plateaus, the retraction at user eps and at the collar's iota, and the collar
# of each body the CLI projects onto (a large eps caps the collar at delta = 2)
PROFILE_CASES = {
    **{f"plateau-{a}-{b}-{cap}": (_plateau_case, a, b, cap)
       for a, b in ((0.25, 0.875), (0.0, 1.0)) for cap in (2.0, None)},
    **{f"retraction-{eps:.6g}": (_retraction_case, eps)
       for eps in (0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 0.999, 0.1 / (2.0 * (1.0 + math.sqrt(2.0))))},
    **{f"collar-{name}-{eps}": (_collar_case, body, eps) for name, body in (
        ("ball", BallBody(2, 1.0)), ("ellipsoid", EllipsoidBody(np.array([2.0, 1.0]))),
        ("cube_enclosure", cube_enclosure(2, 0.05, 0.1))) for eps in (0.01, 0.2, 5.0)},
}


def _identical(x, y):
    return (type(x) is type(y) and np.shape(x) == np.shape(y) and np.asarray(x).dtype == np.asarray(y).dtype
            and _same_bytes(x, y))


_TABLE = profile_rows([[0.2, 0.5]], [[0.0, 1.0, 0.0]], [0.0], [0.0])
# each profile's outputs at t
NAN_PROFILES = {
    "smoothstep": lambda t: (smoothstep(t),),
    "smoothstep_d": lambda t: (smoothstep_d(t),),
    "smoothstep_i": lambda t: (smoothstep_i(t),),
    "smoothstep_pair": lambda t: smoothstep_pair(t, True),
    "plateau_step": lambda t: plateau_step(0.0, 1.0)(t, True),
    "plateau_step_capped": lambda t: plateau_step(0.25, 0.875, max_slope=2.0)(t, True),
    "retraction_profile": lambda t: retraction_profile(0.3)(t, True),
    "collar_alpha": lambda t: collar_alpha(1.5)(t, True),
    "profile_eval": lambda t: profile_eval(np.atleast_1d(t)[None], *_TABLE, derivative=True),
}


class TestProfiles:
    """Each profile is one function (t, derivative=False) -> (value,
    derivative or None) that gives the bytes of the closure pair it replaced."""

    @pytest.mark.parametrize("case", sorted(PROFILE_CASES))
    def test_same_bytes_as_the_closure_pair(self, case, rng):
        build, *args = PROFILE_CASES[case]
        profile, (ref_value, ref_derivative), ends = build(*args)
        ends = np.array(ends)
        t = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf), [0.0, -0.0],
                            rng.uniform(ends.min() - 1.0, ends.max() + 1.0, 2000)])
        for x in (t, t[:2000].reshape(500, 4), 0.0, -0.0, float(ends[1])):
            value, derivative = profile(x, derivative=True)
            only, none = profile(x)
            assert _identical(value, ref_value(x)) and _identical(derivative, ref_derivative(x))
            assert _identical(only, value) and none is None

    @pytest.mark.parametrize("name", sorted(NAN_PROFILES))
    def test_nan_stays_nan(self, name):
        for t in (np.array([np.nan, 0.4, 1.2]), np.float64(np.nan)):
            for out in NAN_PROFILES[name](t):
                assert np.isnan(np.ravel(out)[0]) and np.isfinite(np.ravel(out)[1:]).all()


def _edges(points):
    """Each point, 1 ulp either side of it and its negative, with +-0.0,
    +-inf and NaN."""
    p = np.asarray(points, dtype=float)
    p = np.concatenate([p, -p])
    return np.concatenate([p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf),
                           [0.0, -0.0, np.inf, -np.inf, np.nan]])


def _full_profile_cases():
    """(profile, its every-row form, band edges) for the retraction and the
    collar at the parameters of ``PROFILE_CASES`` and of the chain's factors."""
    cases = {}
    for name, (build, *args) in PROFILE_CASES.items():
        if name.startswith("retraction"):
            cases[name] = (retraction_profile(*args), retraction_profile_full(*args), build(*args)[2])
        elif name.startswith("collar"):
            _, _, ends = build(*args)
            cases[name] = (collar_alpha(ends[1]), collar_alpha_full(ends[1]), ends)
    for n in (2, 3):
        l, q, _ = _punctured_factors(n, 0.000566)
        delta = q.meta["delta"]
        cases[f"chain-q-{n}"] = (collar_alpha(delta), collar_alpha_full(delta), [1.0, delta])
        iota = l.meta["iota"]
        d = min(2.0 * iota / (1.0 + iota), 0.5)
        cases[f"chain-l-{n}"] = (retraction_profile(iota), retraction_profile_full(iota),
                                 [1.0 - d, 1.0, 1.0 + d, 2.0])
    return cases


FULL_PROFILE_CASES = _full_profile_cases()


def _chain_bodies(n, eps):
    """The enclosing bodies of q and l in ``_punctured_factors(n, eps)``."""
    l, _, q_power = _punctured_factors(n, eps)
    iota_q = eps / 2.0 / (2.0 * (1.0 + math.sqrt(n))) / 8.0
    q_body = cube_enclosure(n, iota_q / 4.0, iota_q)
    assert q_body.power == q_power
    return q_body, SuperellipsoidBody(n, l.meta["body_radius"], l.meta["body_power"])

# the superellipsoid powers: the chain's q bodies (eps 0.000566 is
# deform_disc's), bodies cube_enclosure picks, and small powers, whose
# thresholds lie far from 0
RATIO_POWERS = sorted({1, 2, 3, 4, 5, 8, 63, 64}
                      | {_punctured_factors(n, eps)[2] for n in (1, 2, 3) for eps in (0.000566, 0.01, 0.2)}
                      | {cube_enclosure(n, a, b).power for n in (1, 2, 3) for a, b in ((0.05, 0.1), (1e-4, 2e-4))})


class TestChainSkipsKnownWork:
    """The candidate-Jacobian chain skips only work whose bytes are known:
    each new form against the form it replaced, kept in ``oracles``."""

    @pytest.mark.parametrize("case", sorted(FULL_PROFILE_CASES))
    def test_windowed_profile_matches_full(self, case, rng):
        profile, full, ends = FULL_PROFILE_CASES[case]
        t = _edges(ends)
        t = np.concatenate([t, rng.uniform(-max(ends) - 1.0, max(ends) + 1.0, 3000),
                            1.0 + rng.uniform(-1.0, 1.0, 500) * (max(ends) - 1.0)])
        for x in (t, t[:3000].reshape(750, 4), 0.0, -0.0, np.nan, np.inf, float(ends[0]), float(ends[1])):
            for derivative in (False, True):
                got, ref = profile(x, derivative), full(x, derivative)
                assert _identical(got[0], ref[0])
                assert (got[1] is None and ref[1] is None) or _identical(got[1], ref[1])

    def test_scalar_input_keeps_its_type(self):
        # the retraction returns a numpy scalar for a scalar t, the collar a
        # 0-d array, as before the windows
        for profile, full, ends in FULL_PROFILE_CASES.values():
            for x in (0.5, float(ends[0]), float(ends[-1]) + 1.0):
                value, derivative = profile(x, True)
                assert type(value) is type(full(x, True)[0]) and np.ndim(value) == 0
                assert type(derivative) is type(full(x, True)[1]) and np.ndim(derivative) == 0
        assert isinstance(retraction_profile(0.1)(0.95, True)[0], np.float64)

    def test_smoothstep_pair(self, rng):
        u = np.concatenate([_edges([0.0, 0.5, 1.0, 1e-300, 2.0]), rng.uniform(-1.0, 2.0, 2000)])
        for x in (u, u.reshape(-1, 2) if len(u) % 2 == 0 else u[1:].reshape(-1, 2), 0.3):
            value, derivative = smoothstep_pair(x, True)
            assert _same_bytes(value, smoothstep(x)) and _same_bytes(derivative, smoothstep_d(x))
            assert smoothstep_pair(x)[1] is None

    @pytest.mark.parametrize("p", RATIO_POWERS)
    def test_ratio_power_matches_pow(self, p, rng):
        thr = 2.0 ** (-1100.0 / p)
        r = np.concatenate([[thr, np.nextafter(thr, 0.0), np.nextafter(thr, 1.0), 0.0, 1.0, np.nan,
                             np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 5e-324, np.inf],
                            rng.uniform(0.0, 1.0, 2000), thr * rng.uniform(0.5, 2.0, 500),
                            np.exp2(rng.uniform(-1100.0, 0.0, 500) / p)])
        with np.errstate(over="ignore"):
            assert _same_bytes(cubemaps._ratio_power(r, p), r**p)
            assert _same_bytes(cubemaps._ratio_power(r.reshape(-1, 2)[:, ::-1], p), r.reshape(-1, 2)[:, ::-1] ** p)

    @pytest.mark.parametrize("body", [
        SuperellipsoidBody(1, 1.2, 2), cube_enclosure(2, 0.05, 0.1), cube_enclosure(3, 1e-4, 2e-4),
        *(body for n in (2, 3) for body in _chain_bodies(n, 0.000566)),
    ], ids=lambda body: f"n{body.n}-p{body.power}")
    def test_superellipsoid_gauge_matches_oracle(self, body, rng):
        n, p = body.n, body.power
        thr = 2.0 ** (-1100.0 / p)
        x = rng.uniform(-2.0, 2.0, (3000, n)) * 10.0 ** rng.integers(-3, 3, (3000, 1))
        x[::7, 0] = 0.0
        x[::11] = -0.0
        x[1::13, -1] = np.inf
        x[2::17, 0] = np.nan
        # the ratio of the smaller coordinate to the larger at the threshold
        for k, ratio in enumerate((thr, np.nextafter(thr, 0.0), np.nextafter(thr, 1.0))):
            x[3 + k] = 1.0
            x[3 + k, 0] = ratio
        for grad in (False, True):
            with np.errstate(all="ignore"):
                got, ref = body._gauge(x, grad), superellipsoid_gauge_oracle(body, x, grad)
            assert _same_bytes(got[0], ref[0])
            assert (got[1] is None and ref[1] is None) or _same_bytes(got[1], ref[1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_profile_eval_matches_oracle(self, n, rng):
        centres = np.vstack([rng.uniform(-0.5, 0.5, (6, n)), rng.uniform(-0.95, 0.95, (3, n))])
        for i, prof in enumerate(_recentering_profiles(centres)):
            knots, slopes, deltas, knot_vals = prof[1:]
            t = np.concatenate([rng.uniform(-1.2, 1.2, 300), _edges(np.concatenate(
                [knots.ravel(), (knots + deltas).ravel(), (knots - deltas).ravel()]))])
            t = np.broadcast_to(t, (len(knots), len(t)))
            for derivative in (False, True):
                got, ref = profile_eval(t, *prof[1:], derivative), profile_eval_oracle(t, *prof[1:], derivative)
                assert _same_bytes(got[0], ref[0])
                assert (got[1] is None and ref[1] is None) or _same_bytes(got[1], ref[1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("draw", ["middle", "far", "zeros"])
    def test_recenter_matches_oracle(self, n, draw, rng):
        # middle-half centres share every cutoff width; far ones do not, and
        # zero coordinates leave some centres out of a stage
        centres = rng.uniform(-0.5, 0.5, (5, n))
        if draw == "far":
            centres[1:3] = rng.uniform(-0.97, 0.97, (2, n))
            centres[3, -1] = 0.8
        elif draw == "zeros":
            centres[0] = 0.0
            centres[1:, 0] = [0.0, 0.2, 0.0, -0.3]
        x = np.vstack([_recentering_probes(centres[c], rng, 120) for c in range(len(centres))]
                      + [[np.full(n, np.nan)], [np.full(n, np.inf)]])
        profiles = _recentering_profiles(centres)
        for jac in (False, True):
            with np.errstate(invalid="ignore"):
                got, ref = _recenter(centres, profiles, x, jac), recenter_oracle(centres, profiles, x, jac)
            assert _same_bytes(got[0], ref[0])
            assert (got[1] is None and ref[1] is None) or _same_bytes(got[1], ref[1])


class TestRowMatmul:
    """``_grid.row_matmul`` gives the bytes of einsum("nij,njk->nik")."""

    @staticmethod
    def _operands(rng, shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
        a[rng.random(shape) < 0.15] = -0.0
        a[rng.random(shape) < 0.1] = 0.0
        return a

    @pytest.mark.parametrize("n", range(1, 9))
    def test_square_rows(self, n, rng):
        a, b = self._operands(rng, (500, n, n)), self._operands(rng, (500, n, n))
        assert _same_bytes(_grid.row_matmul(a, b), np.einsum("nij,njk->nik", a, b))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stacked_and_rectangular(self, n, rng):
        a, b = self._operands(rng, (4, 30, n, n + 1)), self._operands(rng, (4, 30, n + 1, 2))
        assert _same_bytes(_grid.row_matmul(a, b), np.einsum("...ij,...jk->...ik", a, b))
        a2, b2 = a.reshape(-1, n, n + 1), b.reshape(-1, n + 1, 2)
        assert _same_bytes(_grid.row_matmul(a2, b2), np.einsum("nij,njk->nik", a2, b2))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_non_contiguous(self, n, rng):
        a = self._operands(rng, (300, n + 2, n))[::3, 1:-1]
        b = np.swapaxes(self._operands(rng, (200, n, n)), 1, 2)[::2]
        assert not a.flags.c_contiguous and not b.flags.c_contiguous
        assert _same_bytes(_grid.row_matmul(a, b), np.einsum("nij,njk->nik", a, b))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_column(self, n, rng):
        # einsum's inner loop is then a dot product over j
        a, b = self._operands(rng, (400, 3, n)), self._operands(rng, (400, n, 1))
        assert _same_bytes(_grid.row_matmul(a, b), np.einsum("nij,njk->nik", a, b))

    def test_signed_zeros_and_empty(self):
        a = np.full((3, 2, 2), -0.0)
        b = np.ones((3, 2, 2))
        assert _same_bytes(_grid.row_matmul(a, b), np.einsum("nij,njk->nik", a, b))
        assert not np.signbit(_grid.row_matmul(a, b)).any()  # summed from +0.0
        assert _grid.row_matmul(np.zeros((0, 3, 3)), np.zeros((0, 3, 3))).shape == (0, 3, 3)
        assert _same_bytes(_grid.row_matmul(np.ones((4, 2, 0)), np.ones((4, 0, 3))), np.zeros((4, 2, 3)))


class TestNaNRejected:
    """A NaN centre or point fails the range checks, which NaN once passed."""

    def test_punctured_cube_projection(self):
        with pytest.raises(ValueError, match="open cube"):
            punctured_cube_projection(np.array([np.nan, 0.0]), 0.1)

    def test_recentering_map(self):
        with pytest.raises(ValueError, match="open cube"):
            recentering_map(np.array([0.2, np.nan]))

    def test_punctured_jacobian_rows(self):
        with pytest.raises(ValueError, match="open cube"):
            _punctured_jacobian_rows(np.array([[0.1, np.nan]]), np.zeros((1, 2)), 0.1)
        with pytest.raises(ValueError, match="closed cube"):
            _punctured_jacobian_rows(np.array([[0.1, 0.2]]), np.array([[0.5, np.nan]]), 0.1)
