"""Planes in R^n, distances and rotations between them, Haar sampling.

A plane is an m-dimensional linear subspace of R^n held as an orthonormal
frame.  The rotation construction follows the classical principal-angle
decomposition: split R^n into the common part, the orthogonal complement of
the sum, the pair of mutually orthogonal parts, and the genuinely tilted
2-planes; rotate each tilted 2-plane by its principal angle.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "Plane",
    "PlaneRotation",
    "projector_distance",
    "build_rotation",
    "tilt_measure_excess",
    "haar_sample",
]

FRAME_TOL = 1e-12
# angle below which a principal pair is treated as already aligned
ANGLE_DROP_TOL = 1e-12


def _mgs(columns, tol=1e-9):
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


class Plane:
    """An m-dimensional linear subspace of R^n with an orthonormal frame."""

    __slots__ = ("frame",)

    def __init__(self, frame, orthonormalize=True):
        frame = np.asarray(frame, dtype=float)
        if frame.ndim != 2:
            raise ValueError("frame must be an n x m array")
        if orthonormalize and frame.shape[1] > 0:
            frame = _mgs(frame)
        else:
            frame = frame.copy()
        if frame.shape[1] > 0:
            gram = frame.T @ frame
            if np.max(np.abs(gram - np.eye(frame.shape[1]))) > 1e-10:
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

    def contains(self, v, tol=1e-9):
        v = np.asarray(v, dtype=float)
        return np.linalg.norm(self.projector() @ v - v) <= tol * max(1.0, np.linalg.norm(v))

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

    @staticmethod
    def span(*vectors):
        return Plane(np.column_stack([np.asarray(v, dtype=float) for v in vectors]))

    def to_json(self):
        return json.dumps(
            {"n": self.ambient_dim, "m": self.dim, "frame": [float(v) for v in self.frame.ravel()]}
        )

    @staticmethod
    def from_json(text):
        data = json.loads(text)
        frame = np.array(data["frame"], dtype=float).reshape(data["n"], data["m"])
        return Plane(frame)

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
    """

    def __init__(self, source: Plane, target: Plane, angles):
        self.source = source
        self.target = target
        self.ambient_dim = source.ambient_dim
        self.angles = list(angles)

    def _pair_matrices(self):
        if not hasattr(self, "_cached_pairs"):
            sym, skew, alphas = [], [], []
            for alpha, s, s_hat in self.angles:
                sym.append(np.outer(s, s) + np.outer(s_hat, s_hat))
                skew.append(np.outer(s_hat, s) - np.outer(s, s_hat))
                alphas.append(alpha)
            self._cached_pairs = (
                np.array(sym).reshape(len(sym), self.ambient_dim, self.ambient_dim),
                np.array(skew).reshape(len(skew), self.ambient_dim, self.ambient_dim),
                np.array(alphas),
            )
        return self._cached_pairs

    def evaluate(self, tau):
        n = self.ambient_dim
        m = np.eye(n)
        for alpha, s, s_hat in self.angles:
            c = math.cos(tau * alpha) - 1.0
            si = math.sin(tau * alpha)
            m += c * (np.outer(s, s) + np.outer(s_hat, s_hat))
            m += si * (np.outer(s_hat, s) - np.outer(s, s_hat))
        return m

    def evaluate_many(self, taus):
        """M(tau) for an array of parameters, as a (len(taus), n, n) stack."""
        taus = np.asarray(taus, dtype=float)
        n = self.ambient_dim
        out = np.broadcast_to(np.eye(n), (len(taus), n, n)).copy()
        if not self.angles:
            return out
        sym, skew, alphas = self._pair_matrices()
        phases = taus[:, None] * alphas[None, :]
        out += np.einsum("tp,pij->tij", np.cos(phases) - 1.0, sym)
        out += np.einsum("tp,pij->tij", np.sin(phases), skew)
        return out

    def derivative(self, tau):
        n = self.ambient_dim
        m = np.zeros((n, n))
        for alpha, s, s_hat in self.angles:
            c = math.cos(tau * alpha)
            si = math.sin(tau * alpha)
            m += alpha * (-si * (np.outer(s, s) + np.outer(s_hat, s_hat)))
            m += alpha * (c * (np.outer(s_hat, s) - np.outer(s, s_hat)))
        return m

    def max_angle(self):
        return max((a for a, _, _ in self.angles), default=0.0)

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


def haar_sample(n, m, seed):
    """A plane drawn from the orthogonally invariant distribution on G(n,m).

    Column span of a Gaussian n x m matrix, orthonormalized; deterministic
    for a fixed seed (an integer or a numpy Generator).
    """
    if not 0 < m <= n:
        raise ValueError(f"need 0 < m <= n, got ({n}, {m})")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((n, m))
    return Plane(_mgs(g), orthonormalize=False)
