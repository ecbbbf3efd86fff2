import itertools

import numpy as np
import pytest

from gmtkit.grassmann import (
    Plane,
    _haar_frames,
    _mgs,
    build_rotation,
    haar_sample,
    projector_distance,
    tilt_measure_excess,
)
from oracles import PlaneRotationOracle, haar_sample_oracle, mgs_oracle, plane_span


def finite_difference_derivative(rot, tau, step=1e-5):
    return (rot.evaluate(tau + step) - rot.evaluate(tau - step)) / (2 * step)


def max_angle(rot):
    return max((a for a, _, _ in rot.angles), default=0.0)


class TestPlane:
    def test_frame_orthonormal_after_construction(self, rng):
        raw = rng.standard_normal((5, 3))
        p = Plane(raw)
        assert np.abs(p.frame.T @ p.frame - np.eye(3)).max() <= 1e-12

    def test_projector_symmetric_idempotent(self, rng):
        p = Plane(rng.standard_normal((6, 2)))
        proj = p.projector()
        assert np.abs(proj - proj.T).max() <= 1e-10
        assert np.abs(proj @ proj - proj).max() <= 1e-10

    def test_rejects_dependent_columns(self):
        with pytest.raises(ValueError):
            Plane(np.array([[1.0, 2.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("axes", [(-1, 0), (0, 3), (1, 1)], ids=["negative", "too-large", "repeated"])
    def test_axis_rejects_indices_outside_range_or_repeated(self, axes):
        with pytest.raises(ValueError, match="distinct indices"):
            Plane.axis(3, axes)

    @pytest.mark.parametrize("orthonormalize", [True, False])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_frames(self, entry, orthonormalize):
        with pytest.raises(ValueError, match="finite"):
            Plane(np.array([[entry], [0.0]]), orthonormalize=orthonormalize)
        with pytest.raises(ValueError, match="finite"):
            Plane(np.array([[1.0, 0.0], [0.0, entry], [0.0, 0.0]]), orthonormalize=orthonormalize)


class TestProjectorDistance:
    def test_identity_case(self):
        s = Plane.axis(2, [0])
        assert projector_distance(s, s) == 0.0

    def test_orthogonal_lines(self):
        assert projector_distance(Plane.axis(2, [0]), Plane.axis(2, [1])) == pytest.approx(1.0)

    def test_angle_theta_gives_sin_theta(self):
        th = np.pi / 6
        t = plane_span([np.cos(th), np.sin(th)])
        assert projector_distance(Plane.axis(2, [0]), t) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_and_triangle(self, rng):
        for _ in range(50):
            a = haar_sample(4, 2, rng)
            b = haar_sample(4, 2, rng)
            c = haar_sample(4, 2, rng)
            dab = projector_distance(a, b)
            assert dab == pytest.approx(projector_distance(b, a), abs=1e-13)
            assert dab <= projector_distance(a, c) + projector_distance(c, b) + 1e-12
            assert dab <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            projector_distance(Plane.axis(2, [0]), Plane.axis(3, [0]))


class TestBuildRotation:
    def test_same_plane_gives_identity(self, rng):
        s = haar_sample(4, 2, rng)
        rot = build_rotation(s, s)
        assert rot.angles == []
        assert np.array_equal(rot.evaluate(0.7), np.eye(4))

    def test_axis_to_axis_quarter_turn(self):
        s, t = Plane.axis(2, [0]), Plane.axis(2, [1])
        rot = build_rotation(s, t)
        assert max_angle(rot) == pytest.approx(np.pi / 2)
        m_half = rot.evaluate(0.5)
        c = np.cos(np.pi / 4)
        assert np.abs(np.abs(m_half) - np.array([[c, c], [c, c]])).max() <= 1e-12
        # derivative norm pi/2 <= 8 * distance 1
        d = finite_difference_derivative(rot, 0.3)
        assert np.linalg.norm(d, 2) == pytest.approx(np.pi / 2, abs=1e-6)

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)])
    def test_invariants_random_pairs(self, n, m, rng):
        for _ in range(60):
            s = haar_sample(n, m, rng)
            t = haar_sample(n, m, rng)
            rot = build_rotation(s, t)
            d = projector_distance(s, t)
            m1 = rot.evaluate(1.0)
            assert np.abs(m1 @ s.projector() @ m1.T - t.projector()).max() <= 1e-9
            for tau in (-1.0, -0.5, 0.3, 1.0, 2.0):
                m_tau = rot.evaluate(tau)
                assert np.abs(m_tau.T @ m_tau - np.eye(n)).max() <= 1e-10
                assert np.linalg.norm(m_tau - np.eye(n), 2) <= 8 * abs(tau) * d + 1e-11
                assert np.linalg.norm(rot.derivative(tau), 2) <= 8 * d + 1e-11

    def test_analytic_derivative_matches_finite_differences(self, rng):
        s = haar_sample(4, 2, rng)
        t = haar_sample(4, 2, rng)
        rot = build_rotation(s, t)
        for tau in (-0.5, 0.2, 1.3):
            fd = finite_difference_derivative(rot, tau)
            assert np.abs(fd - rot.derivative(tau)).max() <= 1e-6

    def test_opposite_orientation_frames(self):
        s = Plane(np.array([[1.0], [0.0]]))
        t = Plane(np.array([[-1.0], [0.0]]))
        rot = build_rotation(s, t)
        m1 = rot.evaluate(1.0)
        assert np.abs(m1 @ s.projector() @ m1.T - t.projector()).max() <= 1e-12


class TestRotationPath:
    """``evaluate``, ``derivative`` and ``displacement`` run one kernel over an
    array of tau; every entry carries the bytes of the per-point oracle."""

    TAUS = [0.0, 1.0, -0.7, 0.3, 2.5, -1e-3]

    def _rotations(self, rng):
        for n in range(2, 7):
            for m in range(1, n):
                for _ in range(3):
                    yield build_rotation(haar_sample(n, m, rng), haar_sample(n, m, rng))
        s = haar_sample(4, 2, rng)
        yield build_rotation(s, s)

    def test_scalar_and_array_match_oracle_bytes(self, rng):
        for rot in self._rotations(rng):
            ref, n = PlaneRotationOracle(rot), rot.ambient_dim
            for tau in self.TAUS + [1, np.float64(-0.25)]:
                for got, want in ((rot.evaluate(tau), ref.evaluate(tau)),
                                  (rot.derivative(tau), ref.derivative(tau))):
                    assert got.shape == (n, n) and got.tobytes() == want.tobytes()
            taus = np.concatenate([self.TAUS, rng.uniform(-2.0, 2.0, 20)])
            for got, want in ((rot.evaluate(taus), ref.evaluate(taus)),
                              (rot.derivative(taus), ref.derivative(taus))):
                assert got.shape == (len(taus), n, n) and got.tobytes() == want.tobytes()
            v = rng.standard_normal((len(taus), n))
            disp = rot.displacement(taus, v)
            assert disp.tobytes() == ref.displacement(taus, v).tobytes()
            assert np.abs(disp - np.einsum("tij,tj->ti", rot.evaluate(taus) - np.eye(n), v)).max() <= 1e-14
            assert rot.evaluate(np.array([])).shape == (0, n, n)

    def test_equal_planes_give_identity_and_zero(self, rng):
        s = haar_sample(5, 2, rng)
        rot = build_rotation(s, s)
        taus = np.array([0.0, 1.0, -0.5])
        assert np.array_equal(rot.evaluate(taus), np.broadcast_to(np.eye(5), (3, 5, 5)))
        assert np.array_equal(rot.derivative(taus), np.zeros((3, 5, 5)))
        assert np.array_equal(rot.evaluate(0.4), np.eye(5))
        assert np.array_equal(rot.derivative(0.4), np.zeros((5, 5)))
        assert np.array_equal(rot.displacement(taus, rng.standard_normal((3, 5))), np.zeros((3, 5)))


class TestTiltMeasureExcess:
    def test_equal_planes(self, rng):
        p = haar_sample(4, 2, rng)
        lo, mid, hi = tilt_measure_excess(p, p)
        assert lo == 0.0 and hi == 0.0
        assert abs(mid) <= 1e-12

    def test_lines_at_pi_over_three(self):
        p = Plane.axis(2, [0])
        q = plane_span([np.cos(np.pi / 3), np.sin(np.pi / 3)])
        lo, mid, hi = tilt_measure_excess(p, q)
        assert lo == pytest.approx(0.375, abs=1e-12)
        assert mid == pytest.approx(0.5, abs=1e-12)
        assert hi == pytest.approx(24.0, abs=1e-9)

    @pytest.mark.parametrize("n,m", [(3, 1), (4, 2), (5, 2), (5, 3), (6, 4)])
    def test_sandwich_random_pairs(self, n, m, rng):
        for _ in range(120):
            p = haar_sample(n, m, rng)
            q = haar_sample(n, m, rng)
            lo, mid, hi = tilt_measure_excess(p, q)
            assert lo <= mid + 1e-12
            assert mid <= hi + 1e-12


class TestHaarSample:
    def test_full_space(self):
        p = haar_sample(3, 3, 0)
        assert np.abs(p.projector() - np.eye(3)).max() <= 1e-12

    def test_deterministic(self):
        a = haar_sample(4, 2, 42)
        b = haar_sample(4, 2, 42)
        assert np.array_equal(a.frame, b.frame)

    def test_mean_projector_lines_in_plane(self):
        rng = np.random.default_rng(7)
        acc = np.zeros((2, 2))
        count = 100_000
        for _ in range(count):
            acc += haar_sample(2, 1, rng).projector()
        assert np.abs(acc / count - 0.5 * np.eye(2)).max() <= 0.01

    def test_mean_trace_matches_dimension_fraction(self):
        # E[P] = (m/n) I by invariance; 3-sigma Monte Carlo window
        rng = np.random.default_rng(11)
        n, m, count = 4, 2, 4000
        acc = np.zeros((n, n))
        for _ in range(count):
            acc += haar_sample(n, m, rng).projector()
        mean = acc / count
        sigma = 0.5 / np.sqrt(count)  # entry variance is below 1/4
        assert np.abs(mean - (m / n) * np.eye(n)).max() <= 3 * sigma

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            haar_sample(2, 3, 0)


def _frame_stacks(n, m, count, seed):
    """Gaussian, orthonormal (QR) and 1e5- and 1e-5-scaled stacks of
    ``count`` n x m frames."""
    g = np.random.default_rng(seed).standard_normal((count, n, m))
    return {"gaussian": g, "orthonormal": np.linalg.qr(g)[0], "large": g * 1e5, "small": g * 1e-5}


class TestFrameStacks:
    """``_mgs`` on a stack of frames, and ``_haar_frames``, against the
    single-frame Gram-Schmidt and one ``haar_sample`` per plane."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 20])
    def test_stack_frames_equal_single_frames(self, n):
        for m in range(0, min(n, 5) + 1):
            for kind, stack in _frame_stacks(n, m, 40, seed=100 * n + m).items():
                got = _mgs(stack)
                assert got.shape == stack.shape
                for k, frame in enumerate(stack):
                    want = mgs_oracle(frame).tobytes()
                    assert got[k].tobytes() == want, (n, m, kind, k)
                    assert _mgs(frame).tobytes() == want, (n, m, kind, k)

    def test_any_leading_shape(self, rng):
        stack = rng.standard_normal((3, 4, 5, 2))
        got = _mgs(stack)
        for i, j in itertools.product(range(3), range(4)):
            assert got[i, j].tobytes() == mgs_oracle(stack[i, j]).tobytes()
        assert _mgs(stack[:0]).shape == (0, 4, 5, 2)

    def test_dependent_frames_raise(self, rng):
        stack = rng.standard_normal((6, 3, 2))
        stack[4, :, 1] = 2.0 * stack[4, :, 0]
        for frames in (stack, stack[4], np.zeros((3, 1))):
            with pytest.raises(ValueError, match="numerically dependent"):
                _mgs(frames)
        with pytest.raises(ValueError, match="independent columns"):
            _mgs(np.ones((2, 2, 3)))
        with pytest.raises(ValueError, match="2d array"):
            _mgs(np.ones(3))

    @pytest.mark.parametrize("n, m, count", [(2, 1, 720), (3, 1, 50), (3, 2, 256), (4, 2, 16), (5, 3, 7), (6, 6, 3)])
    def test_haar_frames_equal_haar_samples(self, n, m, count):
        rng, rng_oracle = np.random.default_rng(n + m), np.random.default_rng(n + m)
        frames = _haar_frames(n, m, count, rng)
        want = np.array([haar_sample_oracle(n, m, rng_oracle).frame for _ in range(count)])
        assert frames.tobytes() == want.tobytes()
        assert rng.bit_generator.state == rng_oracle.bit_generator.state
        assert haar_sample(n, m, 9).frame.tobytes() == haar_sample_oracle(n, m, 9).frame.tobytes()

    def test_haar_frames_check_dimensions(self, rng):
        for n, m in ((2, 0), (2, 3)):
            with pytest.raises(ValueError, match="0 < m <= n"):
                _haar_frames(n, m, 4, rng)
