from pathlib import Path

import numpy as np
import pytest

from gmtkit.cubemaps import SmoothMap


def pytest_terminal_summary(terminalreporter):
    """The line counts of ``src/gmtkit/*.py`` and ``tests/*.py`` (as ``wc -l``
    counts), the sizes the roadmap tracks, at the end of every run."""
    root = Path(__file__).resolve().parent.parent
    for pattern in ("src/gmtkit/*.py", "tests/*.py"):
        lines = sum(path.read_bytes().count(b"\n") for path in root.glob(pattern))
        terminalreporter.write_line(f"{pattern}: {lines} lines")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def same_bits(v, w):
    """Whether two varifolds hold the same points, frames, weights and
    isotropic flags, byte for byte, with the same dtypes and shapes."""
    return all(getattr(v, a).dtype == getattr(w, a).dtype and getattr(v, a).shape == getattr(w, a).shape
               and getattr(v, a).tobytes() == getattr(w, a).tobytes()
               for a in ("points", "frames", "weights", "isotropic"))


def norm_map(n=3):
    """rho(x) = |x| as a SmoothMap to R."""

    def val(x):
        return np.linalg.norm(x, axis=1)[:, None]

    def jac(x):
        nr = np.linalg.norm(x, axis=1, keepdims=True)
        return (x / np.where(nr > 0, nr, 1.0))[:, None, :]

    return SmoothMap(n, 1, val, jac, name="norm")


def rank_one_map(n=2, axis=0):
    """f(x) = e (x . e): a globally rank-<=1 smooth map."""
    e = np.zeros(n)
    e[axis] = 1.0

    def value(x):
        out = np.zeros_like(x)
        out[:, axis] = x[:, axis]
        return out

    def jac(x):
        j = np.zeros((len(x), n, n))
        j[:, axis, axis] = 1.0
        return j

    return SmoothMap(n, n, value, jac, name="rank1")


def dist_to_cube_boundary(points, lo, hi):
    """Distance to the boundary of the box [lo, hi] (inside or outside)."""
    points = np.atleast_2d(points)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    inside = np.all((points >= lo) & (points <= hi), axis=1)
    d_in = np.minimum(points - lo, hi - points).min(axis=1)
    clamped = np.clip(points, lo, hi)
    d_out = np.linalg.norm(points - clamped, axis=1)
    return np.where(inside, d_in, d_out)


def skeleton_distance(points, cubes):
    """Distance from each point to the nearest cube (as a closed box)."""
    best = np.full(len(points), np.inf)
    for c in cubes:
        lo, hi = c.bounds()
        clamped = np.clip(points, lo, hi)
        best = np.minimum(best, np.linalg.norm(points - clamped, axis=1))
    return best


def square_cycle(cx, z=0):
    """The perimeter cycle of the bottom square of a grid complex."""
    from gmtkit.cubical import DyadicCube

    bits = np.zeros(cx.count(1), dtype=np.uint8)
    cells = []
    n_side = cx.shape[0]
    for i in range(n_side):
        for corner, axes in [
            ((i, 0, z), (0,)),
            ((i, n_side, z), (0,)),
            ((0, i, z), (1,)),
            ((n_side, i, z), (1,)),
        ]:
            c = DyadicCube(cx.level, corner, axes, 3)
            bits[cx.index[c][1]] = 1
            cells.append(c)
    return bits, cells
