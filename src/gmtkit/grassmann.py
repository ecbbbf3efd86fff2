"""Planes in R^n, distances and rotations between them, Haar sampling.

A plane is an m-dimensional linear subspace of R^n held as an orthonormal
frame.  The rotation construction follows the classical principal-angle
decomposition: split R^n into the common part, the orthogonal complement of
the sum, the pair of mutually orthogonal parts, and the genuinely tilted
2-planes; rotate each tilted 2-plane by its principal angle.

A ``PlaneRotation`` evaluates its path M(tau), the derivative M'(tau) and
the displacement (M(tau) - I) v at a scalar tau or at a 1-d array of them
in one kernel: an array gives a stack whose entries have the bytes of the
scalar calls.
"""

from __future__ import annotations

import math

import numpy as np

from . import _grid

__all__ = [
    "Plane",
    "PlaneRotation",
    "projector_distance",
    "build_rotation",
    "tilt_measure_excess",
    "haar_sample",
]

# largest entry of |F^T F - I| for an orthonormal frame F: Plane's check and the set-file rule
FRAME_TOL = 1e-10
# angle below which a principal pair is treated as already aligned
ANGLE_DROP_TOL = 1e-12


def _mgs(columns, tol=1e-9):
    """Modified Gram-Schmidt with one re-orthogonalization pass, on one
    n x m frame or on each frame of a stack (..., n, m).

    Each dot is one BLAS ``ddot`` (``_grid.row_dots``) with a frame's own
    strides, and each norm the dot of a contiguous copy of the column, as
    ``np.linalg.norm`` takes it: a frame of a stack gets the bytes it gets
    alone.  Raises if the columns of a frame are numerically dependent
    (relative to its largest entry, or 1).
    """
    a = np.array(columns, dtype=float, copy=True)
    if a.ndim < 2:
        raise ValueError("frame must be a 2d array or a stack of them")
    n, m = a.shape[-2:]
    if m > n:
        raise ValueError(f"cannot have {m} independent columns in R^{n}")
    floor = tol * np.abs(a).max(axis=(-2, -1), initial=1.0)
    q = np.zeros(a.shape)
    for j in range(m):
        v = a[..., j]
        for _ in range(2):  # re-orthogonalize once for stability
            for i in range(j):
                v = v - _grid.row_dots(q[..., i], v)[..., None] * q[..., i]
        c = v.copy()
        norm = np.sqrt(_grid.row_dots(c, c))
        if np.count_nonzero(norm <= floor):
            raise ValueError("frame columns are numerically dependent")
        q[..., j] = v / norm[..., None]
    return q


class Plane:
    """An m-dimensional linear subspace of R^n with an orthonormal frame."""

    __slots__ = ("frame",)

    def __init__(self, frame, orthonormalize=True):
        frame = np.asarray(frame, dtype=float)
        if frame.ndim != 2:
            raise ValueError("frame must be an n x m array")
        if not np.isfinite(frame).all():
            raise ValueError("frame entries must be finite")
        # a huge finite entry overflows a dot to inf: the frame then fails the check
        with np.errstate(over="ignore"):
            frame = _mgs(frame) if orthonormalize else frame.copy()
            if np.abs(frame.T @ frame - np.eye(frame.shape[1])).max(initial=0.0) > FRAME_TOL:
                raise ValueError("frame is not orthonormal")
        self.frame = frame
        self.frame.setflags(write=False)

    @property
    def ambient_dim(self):
        return self.frame.shape[0]

    @property
    def dim(self):
        return self.frame.shape[1]

    def projector(self):
        """Orthogonal projector onto the plane as an n x n matrix."""
        return self.frame @ self.frame.T

    @staticmethod
    def axis(n, axes):
        """The coordinate plane spanned by the given distinct axis indices in [0, n)."""
        axes = tuple(axes)
        if len(set(axes)) != len(axes) or not all(0 <= a < n for a in axes):
            raise ValueError(f"axes {axes} must be distinct indices in [0, {n})")
        frame = np.zeros((n, len(axes)))
        for j, a in enumerate(axes):
            frame[a, j] = 1.0
        return Plane(frame, orthonormalize=False)

    def __repr__(self):
        return f"Plane(n={self.ambient_dim}, m={self.dim})"


def _check_pair(s, t):
    if s.ambient_dim != t.ambient_dim or s.dim != t.dim:
        raise ValueError(
            f"plane dimensions differ: G({s.ambient_dim},{s.dim}) vs G({t.ambient_dim},{t.dim})"
        )


def projector_distance(s: Plane, t: Plane) -> float:
    """Operator norm of P_S - P_T (spectral norm via symmetric eigensolve)."""
    _check_pair(s, t)
    diff = s.projector() - t.projector()
    if diff.size == 0:
        return 0.0
    eig = np.linalg.eigvalsh(diff)
    return abs(float(max(-eig[0], eig[-1], 0.0)))


class PlaneRotation:
    """A path M(tau) of orthogonal matrices carrying one plane onto another.

    M(0) is the identity and M(1) maps ``source`` onto ``target``.  The path
    rotates by angle tau * alpha_i inside each stored orthonormal 2-plane
    span{s_i, s_hat_i} and fixes the orthogonal complement.

    ``evaluate`` and ``derivative`` take a scalar tau, which gives an n x n
    matrix, or a 1-d array of them, which gives a stack whose entries have
    the bytes of the scalar calls; ``displacement`` takes an array of tau
    and one row of v per entry.  All three run one kernel that adds the
    pairs in stored order.
    """

    def __init__(self, source: Plane, target: Plane, angles):
        self.source = source
        self.target = target
        self.ambient_dim = source.ambient_dim
        self.angles = list(angles)

    def _path(self, tau, derivative=False, v=None):
        """One result per entry of tau: M(tau), M'(tau) if ``derivative``, or
        the row (M(tau_k) - I) v_k if v is given."""
        taus = np.atleast_1d(np.asarray(tau, dtype=float))
        n = self.ambient_dim
        if v is not None:
            out = np.zeros_like(v)
        elif derivative:
            out = np.zeros((len(taus), n, n))
        else:
            out = np.broadcast_to(np.eye(n), (len(taus), n, n)).copy()
        for alpha, s, s_hat in self.angles:
            c = np.cos(taus * alpha)
            si = np.sin(taus * alpha)
            if v is not None:
                cs, vs, vh = c - 1.0, v @ s, v @ s_hat
                out += (cs * vs - si * vh)[:, None] * s + (cs * vh + si * vs)[:, None] * s_hat
                continue
            sym = np.outer(s, s) + np.outer(s_hat, s_hat)
            skew = np.outer(s_hat, s) - np.outer(s, s_hat)
            c, si = c[:, None, None], si[:, None, None]
            if derivative:
                out += alpha * (-si * sym)
                out += alpha * (c * skew)
            else:
                out += (c - 1.0) * sym
                out += si * skew
        return out if np.ndim(tau) or v is not None else out[0]

    def evaluate(self, tau):
        """M(tau): n x n for a scalar tau, a (len(tau), n, n) stack for an array."""
        return self._path(tau)

    def derivative(self, tau):
        """dM/dtau, shaped as ``evaluate``."""
        return self._path(tau, derivative=True)

    def displacement(self, tau, v):
        """The rows (M(tau_k) - I) v_k for a 1-d array tau and an (len(tau), n) array v."""
        return self._path(tau, v=v)

    def __repr__(self):
        return f"PlaneRotation(n={self.ambient_dim}, pairs={len(self.angles)})"


def build_rotation(s: Plane, t: Plane) -> PlaneRotation:
    """Construct the rotation path M with M(1)[S] = T.

    Principal vectors of the pair give the rotation 2-planes; pairs with
    angle ~0 (the common subspace) are skipped and the complement of S + T is
    fixed.  Every rotation angle obeys alpha <= 8 ||P_S - P_T||.
    """
    _check_pair(s, t)
    m = s.dim
    if m == 0:
        return PlaneRotation(s, t, [])
    u, sig, wt = np.linalg.svd(s.frame.T @ t.frame)
    s_basis = s.frame @ u
    t_basis = t.frame @ wt.T
    pairs = []
    for i in range(m):
        c = min(max(sig[i], 0.0), 1.0)
        sv = s_basis[:, i]
        tv = t_basis[:, i]
        v = tv - c * sv
        norm = np.linalg.norm(v)
        alpha = math.atan2(norm, c)
        if alpha <= ANGLE_DROP_TOL:
            continue
        s_hat = tv if norm < 1e-13 else v / norm
        pairs.append((alpha, sv, s_hat))
    pairs.sort(key=lambda p: -p[0])
    return PlaneRotation(s, t, pairs)


def tilt_measure_excess(p: Plane, q: Plane):
    """Two-sided comparison of tilt excess and measure excess.

    Returns (lower, mid, upper) with
    lower = ||P_P - P_Q||^2 / 2,
    mid   = 1 - ||Lambda_m P_P o P_Q||  (computed as 1 - |det frame_P^T frame_Q|),
    upper = 2^(2m+3) ||P_P - P_Q||^2,
    and lower <= mid <= upper always.
    """
    _check_pair(p, q)
    d = projector_distance(p, q)
    m = p.dim
    if m == 0:
        mid = 0.0
    else:
        mid = 1.0 - abs(float(np.linalg.det(p.frame.T @ q.frame)))
    return 0.5 * d * d, mid, 2.0 ** (2 * m + 3) * d * d


def _haar_frames(n, m, count, rng):
    """The frames of ``count`` planes drawn from the orthogonally invariant
    distribution on G(n,m): one (count, n, m) Gaussian draw from ``rng``,
    orthonormalized in one ``_mgs`` call.  Frame k and the final state of
    ``rng`` are those of ``count`` ``haar_sample`` calls on it."""
    if not 0 < m <= n:
        raise ValueError(f"need 0 < m <= n, got ({n}, {m})")
    return _mgs(rng.standard_normal((count, n, m)))


def haar_sample(n, m, seed):
    """A plane drawn from the orthogonally invariant distribution on G(n,m).

    Column span of a Gaussian n x m matrix, orthonormalized; deterministic
    for a fixed seed (an integer or a numpy Generator).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return Plane(_haar_frames(n, m, 1, rng)[0], orthonormalize=False)
