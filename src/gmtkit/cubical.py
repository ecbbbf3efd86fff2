"""Dyadic cubes, admissible families, Whitney decompositions, complexes.

A k-dimensional dyadic cube at refinement level N has side 2^(-N), an
integer corner in units of 2^(-N), and a sorted set of free axes.  All
incidence decisions (faces, overlap, coverage) are made in integer
arithmetic at a common refinement level; floats appear only in geometric
output such as centres and bounds.
"""

from __future__ import annotations

import collections.abc
import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _grid

__all__ = [
    "DyadicCube",
    "CubeIndex",
    "CubeFamily",
    "CubicalComplex",
    "whitney_family",
    "cubical_complex",
    "cubes_to_obj",
    "BoxUnion",
    "BallSet",
    "PuncturedPlane",
]


@dataclass(frozen=True, order=True)
class DyadicCube:
    """A dyadic cube: side 2^(-level), integer corner, free axis subset."""

    level: int
    corner: tuple
    axes: tuple
    ambient_dim: int

    def __post_init__(self):
        if len(self.corner) != self.ambient_dim:
            raise ValueError("corner length must match ambient dimension")
        if tuple(sorted(set(self.axes))) != self.axes:
            raise ValueError("axes must be sorted and distinct")

    @property
    def dim(self):
        return len(self.axes)

    @property
    def side(self):
        return 2.0 ** (-self.level)

    def bounds_int(self):
        """(lo, hi) integer corners in units of 2^(-level)."""
        lo = np.array(self.corner, dtype=np.int64)
        hi = lo.copy()
        hi[list(self.axes)] += 1
        return lo, hi

    def bounds(self):
        lo, hi = self.bounds_int()
        return lo * self.side, hi * self.side

    def center(self):
        lo, hi = self.bounds_int()
        return (lo + hi) / 2.0 * self.side

    def faces(self, dims=None):
        """All faces (same level) of the requested dimensions, self included."""
        out = []
        for keep in itertools.chain.from_iterable(
            itertools.combinations(self.axes, j)
            for j in (range(self.dim + 1) if dims is None else [dims])
        ):
            frozen = [a for a in self.axes if a not in keep]
            for sides in itertools.product((0, 1), repeat=len(frozen)):
                corner = list(self.corner)
                for a, s in zip(frozen, sides):
                    corner[a] += s
                out.append(DyadicCube(self.level, tuple(corner), tuple(keep), self.ambient_dim))
        return out

    def facets(self):
        return self.faces(dims=self.dim - 1) if self.dim > 0 else []

    def to_dict(self):
        return {
            "level": int(self.level),
            "corner": [int(c) for c in self.corner],
            "axes": [int(a) for a in self.axes],
            "n": int(self.ambient_dim),
        }

    @staticmethod
    def from_dict(d):
        """The cube of a dict whose ``level``, ``n`` and list entries are
        integral numbers below 2^53 (not bools or strings): n ``corner``
        entries and sorted, distinct ``axes`` in [0, n); else ValueError."""
        def integral(value, what):
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
                    abs(value) < 2**53 and value == math.floor(value)):
                raise ValueError(f"cube {what} must be an integer below 2^53, got {value!r}")
            return int(value)

        def entries(key):
            if not isinstance(d[key], list):
                raise ValueError(f"cube {key} must be a list of integers, got {d[key]!r}")
            return tuple(integral(v, f"{key} entry") for v in d[key])

        n, corner, axes = integral(d["n"], "n"), entries("corner"), entries("axes")
        if len(corner) != n:
            raise ValueError(f"cube corner must have n = {n} entries, got {list(corner)}")
        if list(axes) != sorted(set(axes)) or not all(0 <= a < n for a in axes):
            raise ValueError(f"cube axes must be sorted, distinct and in [0, {n}), got {list(axes)}")
        return DyadicCube(integral(d["level"], "level"), corner, axes, n)


class CubeIndex:
    """Integer incidence index over rows of dyadic cubes: level, corner and free-axis mask.

    ``lo`` and ``hi`` are the closed bounds in int64 units of the finest level.
    Cubes are bucketed by level and corner code (a 0-cube at the finest level):
    a box no wider than a level-b cube meets level-b cubes of at most three
    corners per axis, so a query looks up 3^n codes per level and confirms them.
    """

    def __init__(self, levels, corners, free):
        self.levels = np.asarray(levels, dtype=np.int64)
        self.finest = int(self.levels.max()) if len(self.levels) else 0
        corner, free = np.asarray(corners, dtype=np.int64), np.asarray(free, dtype=bool)
        reach = np.maximum(abs(corner + 0.0), abs(corner + free + 0.0))  # in units of each cube's level
        if not (reach < 2.0 ** (53 - self.finest + self.levels)[:, None]).all():  # beyond, int64 wraps, floats round
            raise ValueError(f"cube bounds at the finest level {self.finest} reach 2^53")
        scale = np.left_shift(1, self.finest - self.levels)[:, None]
        self.lo, self.hi = corner * scale, (corner + free) * scale
        solid = free.any(axis=1)
        self._bucket_level = np.where(solid, self.levels, self.finest)
        key = np.where(solid[:, None], corner, self.lo)
        self._buckets = []
        for b in np.unique(self._bucket_level):
            members = np.nonzero(self._bucket_level == b)[0]
            origin = key[members].min(axis=0)
            extent = key[members].max(axis=0) - origin + 1
            codes = _grid.cell_codes(key[members], origin, extent)
            order = np.argsort(codes, kind="stable")
            self._buckets.append((int(b), origin, extent, codes[order], members[order]))

    def _meeting(self, lo, hi, levels):
        """(row, cube) index pairs, unordered, of the closed boxes [lo, hi]
        (finest units) and the cubes they meet that are bucketed at the row's
        level or coarser; no box may be wider than a cube of its level."""
        found = [(np.empty(0, dtype=np.int64),) * 2]
        for b, origin, extent, codes, members in self._buckets:
            rows = np.nonzero(levels >= b)[0]
            side = 1 << (self.finest - b)
            first, last = -(-lo[rows] // side) - 1, hi[rows] // side
            for step in itertools.product(*map(range, np.max(last - first, axis=0, initial=-1) + 1)):
                corners = first + step
                ok = np.all((corners <= last) & (corners >= origin) & (corners < origin + extent), axis=1)
                keys = _grid.cell_codes(corners[ok], origin, extent)
                start = np.searchsorted(codes, keys, "left")
                count = np.searchsorted(codes, keys, "right") - start
                r = np.repeat(rows[ok], count)
                c = members[_grid.ranges(start, count)]
                meet = np.ones(len(r), dtype=bool)
                for d in range(lo.shape[1]):  # one column at a time: no (pairs, n) gathers
                    meet &= (hi[r, d] >= self.lo[c, d]) & (self.hi[c, d] >= lo[r, d])
                found.append((r[meet], c[meet]))
        return tuple(np.concatenate(a) for a in zip(*found))

    def _touching_ends(self):
        """(i, j): the two rows of each pair of cubes whose closed sets meet,
        each pair once, unordered."""
        i, j = self._meeting(self.lo, self.hi, self._bucket_level)
        # a pair within one bucket level is found from both ends
        keep = (self._bucket_level[j] < self._bucket_level[i]) | (i < j)
        return i[keep], j[keep]

    @functools.cached_property
    def touching(self):
        """(P, 2) row pairs i < j of the cubes whose closed sets meet, pairs ascending."""
        pairs = np.sort(np.column_stack(self._touching_ends()), axis=1)
        return pairs[np.lexsort(pairs.T[::-1])]

    def touching_counts(self):
        """The number of ``touching`` pairs holding each cube, counted from
        the pairs' ends without sorting or keeping them."""
        return sum(np.bincount(end, minlength=len(self.levels)) for end in self._touching_ends())

    def locate(self, points):
        """(row, cube) index pairs, unordered, of the closed cubes holding each
        point; exact (NaN is held by none)."""
        if not len(self.levels):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        t = pts * 2.0 ** self.finest
        # NaN and far points skip the search, which keeps the int64 casts in range
        rows = np.nonzero(np.all((t >= self.lo.min(axis=0)) & (t <= self.hi.max(axis=0)), axis=1))[0]
        # a cube holding t holds floor(t): its bounds are integers
        cell = np.floor(t[rows]).astype(np.int64)
        r, c = self._meeting(cell, cell, np.full(len(rows), self.finest))
        lo, hi = self.lo * 2.0 ** -self.finest, self.hi * 2.0 ** -self.finest
        hold = np.all((lo[c] <= pts[rows[r]]) & (pts[rows[r]] <= hi[c]), axis=1)
        return rows[r[hold]], c[hold]


class CubeFamily:
    """A finite set of top-dimensional dyadic cubes, with its CubeIndex."""

    def __init__(self, cubes, meta=None):
        cubes = sorted(set(cubes))
        if any(c.ambient_dim != cubes[0].ambient_dim or c.dim != c.ambient_dim for c in cubes):
            raise ValueError("family members must be top-dimensional, same ambient")
        self.cubes = cubes
        self.meta = dict(meta) if meta else {}

    def __len__(self):
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)

    def __contains__(self, cube):
        return cube in self.position

    @functools.cached_property
    def position(self):
        """cube -> its row in ``cubes`` and in ``index``."""
        return {c: i for i, c in enumerate(self.cubes)}

    @functools.cached_property
    def index(self):
        corners = np.array([c.corner for c in self.cubes], dtype=np.int64).reshape(len(self), self.ambient_dim)
        return CubeIndex([c.level for c in self.cubes], corners, np.ones(corners.shape, dtype=bool))

    @property
    def ambient_dim(self):
        return self.cubes[0].ambient_dim if self.cubes else 0

    def min_side(self):
        return min(c.side for c in self.cubes)

    def max_side(self):
        return max(c.side for c in self.cubes)

    def admissibility_violations(self):
        """List of violations of the admissibility conditions.

        Touching pairs (i, j) with i < j in list order, each cube's
        interior overlaps before its size-ratio violations.  The
        boundary-coverage condition is not checked: finite truncations of
        Whitney families are uncovered along their outer frontier by
        construction, and the complex machinery only needs the first two
        conditions plus dyadic rigidity.
        """
        idx = self.index
        i, j = idx.touching.T
        overlap = np.all(np.minimum(idx.hi[i], idx.hi[j]) > np.maximum(idx.lo[i], idx.lo[j]), axis=1)
        bad = np.nonzero(overlap | (np.abs(idx.levels[i] - idx.levels[j]) > 1))[0]
        bad = bad[np.lexsort((j[bad], ~overlap[bad], i[bad]))]
        return [("interior-overlap" if overlap[p] else "size-ratio", self.cubes[i[p]], self.cubes[j[p]])
                for p in bad]

    def admissible(self):
        return not self.admissibility_violations()

    def contains_point(self, x):
        """Whether each point lies in a closed cube of the family."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ok = np.zeros(len(x), dtype=bool)
        ok[self.index.locate(x)[0]] = True
        return ok

    def interior_contains(self, x):
        """Membership in Int(union): all 2^n touching fine cells are covered."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        h = 2.0 ** (-(self.index.finest + 1)) / 2.0
        signs = np.array(list(itertools.product((-1, 1), repeat=x.shape[1])), dtype=float)
        probes = x[:, None, :] + h * signs
        return self.contains_point(probes.reshape(-1, x.shape[1])).reshape(len(x), -1).all(axis=1)


# ---------------------------------------------------------------------------
# open sets for Whitney decompositions: contains, dist_inf_complement and meets on arrays

MAX_FACE_CELLS = 1 << 22  # cells of the slot grid a BoxUnion may build


class BoxUnion:
    """Open set given as a finite union of open boxes.

    Each axis is cut at its k distinct face coordinates into 2k + 1 slots:
    slot 2i + 1 is face i and slot 2i the open interval below it.  A slot
    cell is covered when an open box holds it, so a face that two boxes
    share, and no third holds, is complement.  ``contains`` and ``meets``
    read a summed-area table of the covered cells.  A point's distance is
    its sup-distance to the closed uncovered cells that touch a covered one,
    each value one subtraction x_j - face_j.  ValueError beyond
    MAX_FACE_CELLS slot cells; at the cap the build holds the covered cells
    as bool (4 MiB) and keeps the table as int32 (about 16 MiB).  ``boxes``
    is the record of what was given.
    """

    def __init__(self, boxes):
        self.boxes = [(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)) for lo, hi in boxes]
        self._faces = [np.unique(c) for c in np.array(self.boxes).transpose(2, 0, 1).reshape(-1, 2 * len(self.boxes))]
        cells = math.prod(2 * len(f) + 1 for f in self._faces)
        if cells > MAX_FACE_CELLS:
            raise ValueError(f"the box faces cut space into {cells} slot cells, more than {MAX_FACE_CELLS}")
        covered = np.zeros([2 * len(f) + 1 for f in self._faces], dtype=bool)
        for lo, hi in self.boxes:  # the open interval from face a to face b is slots 2a + 2 to 2b
            covered[tuple(slice(2 * f.searchsorted(a) + 2, 2 * f.searchsorted(b) + 1)
                          for f, a, b in zip(self._faces, lo, hi))] = True
        # _table[s] counts the covered cells below slot s on every axis
        self._table = np.zeros([s + 1 for s in covered.shape], dtype=np.int32)
        self._table[(slice(1, None),) * covered.ndim] = covered
        near = covered  # the cells within one slot of a covered cell on every axis
        for axis in range(covered.ndim):
            np.cumsum(self._table, axis=axis, out=self._table)
            pad = np.pad(np.moveaxis(near, axis, 0), [(1, 1)] + [(0, 0)] * (covered.ndim - 1))
            near = np.moveaxis(pad[:-2] | pad[1:-1] | pad[2:], 0, axis)
        # slot s spans the closed interval [edges[(s + 1) // 2], edges[s // 2 + 1]]
        edges, free = [np.concatenate([[-np.inf], f, [np.inf]]) for f in self._faces], np.nonzero(near & ~covered)
        self._lo, self._hi = (np.column_stack([e[(s + 1 - t) // 2 + t] for e, s in zip(edges, free)]) for t in (0, 1))

    def _slots(self, x):
        """Each coordinate's slot on its axis: the faces below it plus the faces at or below it."""
        return [f.searchsorted(c, "left") + f.searchsorted(c, "right") for f, c in zip(self._faces, x.T)]

    def contains(self, x):
        return self.meets(x, x)

    def dist_inf_complement(self, x):
        """Each point's sup-norm distance to the uncovered slot cells, 0 outside the union."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        d, rows = np.zeros(len(x)), np.nonzero(self.contains(x))[0]
        cols = min(len(self._lo), _grid.PAIR_BLOCK) or 1  # none only when no cell, so no point, is covered
        step = _grid.PAIR_BLOCK // cols
        for i in range(0, len(rows), step):
            block, best = rows[i : i + step], np.inf
            for j in range(0, len(self._lo), cols):
                gap = np.maximum(self._lo[j : j + cols] - x[block, None], x[block, None] - self._hi[j : j + cols])
                best = np.minimum(best, gap.max(axis=2).min(axis=1))
            d[block] = best
        return d

    def meets(self, lo, hi):
        """Whether each closed box [lo, hi] (a point if lo = hi) meets an open box: whether
        it holds a covered slot cell, by inclusion-exclusion over 2^n table entries."""
        first = self._slots(np.atleast_2d(np.asarray(lo, dtype=float)))
        stop = [s + 1 for s in self._slots(np.atleast_2d(np.asarray(hi, dtype=float)))]
        return sum((-1) ** (len(c) - sum(c)) * self._table[tuple((stop if k else first)[j] for j, k in enumerate(c))]
                   for c in itertools.product((0, 1), repeat=len(first))) > 0


class BallSet:
    """Open Euclidean ball as a Whitney oracle (analytic sup-norm distance)."""

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def contains(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.linalg.norm(x - self.center, axis=1) < self.radius

    def dist_inf_complement(self, x):
        """Each point's largest r with |x + r * sign-corner| <= radius, 0 outside."""
        x = np.abs(np.atleast_2d(np.asarray(x, dtype=float)) - self.center)
        n, s = x.shape[1], x.sum(axis=1)
        xx = _grid.row_dots(x, x)  # bit for bit a single point's x @ x
        with np.errstate(invalid="ignore"):
            d = (-s + np.sqrt(s * s + n * (self.radius**2 - xx))) / n
        return np.where(np.sqrt(xx) >= self.radius, 0.0, d)

    def meets(self, lo, hi):
        """Whether each closed box [lo, hi] holds a point of the ball: its point nearest the centre."""
        return self.contains(np.clip(self.center, lo, hi))


class PuncturedPlane:
    """R^n minus one point; Whitney cubes shrink dyadically toward it."""

    def __init__(self, point):
        self.point = np.asarray(point, dtype=float)

    def contains(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.any(x != self.point, axis=1)

    def dist_inf_complement(self, x):
        return np.max(np.abs(np.atleast_2d(np.asarray(x, dtype=float)) - self.point), axis=1)

    def meets(self, lo, hi):
        """Every closed box with interior meets the punctured plane."""
        return np.ones(len(np.atleast_2d(lo)), dtype=bool)


MAX_WHITNEY_ENTRIES = 1 << 24  # corner coordinates (cubes x 2^n x n) of one level of whitney_family


def whitney_family(open_set, bbox, min_level, top_level=None):
    """The Whitney family of an open set, truncated to a box and a finest level.

    A cube K is emitted when dist_inf(K, complement) > 2 side(K) and its
    parent fails the same test; top-level cubes are emitted on the first
    condition alone (truncation recorded in the family metadata).  Cubes that
    fail it are refined when they meet the set, and dropped with a count
    below ``min_level``.  A cube's distance is the least over its corners,
    one call per level on its distinct corner points; where it exceeds half
    a side it is exact, as each set gives the true sup-norm distance to its
    complement, which is 1-Lipschitz (a BoxUnion counts a face that two
    boxes share as complement).  ValueError when a bound at the finest
    level would reach 2^53, or before a level's cubes x 2^n corners x n
    coordinates, counted in Python ints, would exceed MAX_WHITNEY_ENTRIES.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in bbox)
    n = len(lo)
    if top_level is None:
        top_level = -int(math.floor(math.log2(max(float(np.max(hi - lo)), 1e-9))))
    side = 2.0 ** (-top_level)
    ilo, ihi = np.floor(lo / side + 1e-9), np.ceil(hi / side - 1e-9)
    if not np.abs([ilo, ihi]).max(initial=0.0) < 2.0 ** (53 - max(min_level - top_level, 0)):
        raise ValueError(f"the cube bounds of the box at level {max(min_level, top_level)} reach 2^53")

    def check(cubes, level):
        if (cubes << n) * n > MAX_WHITNEY_ENTRIES:
            raise ValueError(f"level {level} has {cubes} cubes x 2^{n} corners x {n} coordinates, "
                             f"more than MAX_WHITNEY_ENTRIES = {MAX_WHITNEY_ENTRIES}")

    cells = np.maximum(ihi - ilo, 0)
    check(max(math.prod(int(c) for c in cells.tolist()), 1), top_level)  # offsets alone are one cube's
    offsets = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64).reshape(-1, n)

    def dist(corners, level):
        """Each cube's least corner distance, one call on the distinct corner points."""
        points = (corners[:, None] + offsets).reshape(-1, n)
        keep, inverse = _grid.distinct_rows(points.view(np.uint64))
        d = open_set.dist_inf_complement(points[keep] * 2.0 ** (-level))
        return d[inverse.reshape(len(corners), len(offsets))].min(axis=1)

    corners = np.indices(cells.astype(np.int64)).reshape(n, -1).T + ilo.astype(np.int64)
    emitted, waived_top = [], 0
    for level in range(top_level, max(top_level, min_level) + 1):
        side = 2.0 ** (-level)
        ok = dist(corners, level) > 2.0 * side
        if level == top_level:
            waived_top = int(np.count_nonzero(dist(corners[ok] // 2, level - 1) > 2.0 * 2.0 ** (-(level - 1))))
        emitted += [DyadicCube(level, c, tuple(range(n)), n) for c in map(tuple, corners[ok].tolist())]
        corners = corners[~ok]
        if level < min_level:  # refine the cubes that still meet the set
            meets = open_set.meets(corners * side, (corners + 1) * side)
            check(int(np.count_nonzero(meets)) << n, level + 1)
            corners = (2 * corners[meets][:, None] + offsets).reshape(-1, n)
    return CubeFamily(emitted, meta={"truncated_below_min_level": len(corners), "top_level_parent_waivers": waived_top,
                                     "top_level": top_level, "min_level": min_level})


# ---------------------------------------------------------------------------
# the cubical complex CX(F)


def _row_dicts(levels, corners, free):
    """The ``DyadicCube.to_dict`` dicts of cell rows (levels, corners, free-axis masks) of one dimension."""
    axes, n = np.nonzero(free)[1].reshape(len(levels), int(free[:1].sum())).tolist(), corners.shape[1]
    return [{"level": lv, "corner": c, "axes": a, "n": n} for lv, c, a in zip(levels.tolist(), corners.tolist(), axes)]


def _row_bounds(levels, corners, free):
    """(lo, hi): the closed bounds of cell rows, in the floats of ``DyadicCube.bounds``."""
    side = 2.0 ** -levels[:, None]
    return corners * side, (corners + free) * side


class _RowCells:
    """A complex whose ``cell_rows(k, rows)`` gives its k-cells at ``rows`` as
    (levels, corners, free-axis masks): its cubes and centres decode those rows."""

    def cubes(self, k, rows=slice(None)):
        """The k-cells at ``rows`` as DyadicCubes."""
        return [DyadicCube(d["level"], tuple(d["corner"]), tuple(d["axes"]), d["n"])
                for d in _row_dicts(*self.cell_rows(k, rows))]

    def centers(self, k, rows=slice(None)):
        """The centres of the k-cells at ``rows``, in the floats of ``DyadicCube.center``."""
        levels, corners, free = self.cell_rows(k, rows)
        return (2 * corners + free) / 2.0 * 2.0 ** -levels[:, None]


class _CellList(collections.abc.Sequence):
    """The k-cells of a ``CubicalComplex`` or ``solver.GridComplex`` as DyadicCubes, in
    row order: ``[i]`` decodes one row by the complex's ``cubes(k, rows)``; the first
    full pass (iteration or ``==``) decodes all rows once and keeps them."""

    def __init__(self, cx, k):
        self._cx, self._k, self._kept = cx, k, None

    def _cubes(self):
        if self._kept is None:
            self._kept = self._cx.cubes(self._k)
        return self._kept

    def __len__(self):
        return self._cx.count(self._k)

    def __getitem__(self, i):
        if self._kept is not None:
            return self._kept[i]
        return self._cx.cubes(self._k, i) if isinstance(i, slice) else self._cx.cubes(self._k, [i])[0]

    def __iter__(self):
        return iter(self._cubes())

    def __eq__(self, other):
        return self._cubes() == other


class CubicalComplex(_RowCells):
    """Faces of an admissible family, with touching faces subdivided so that only the finest copies
    of overlapping same-dimension faces are kept.  ``_rows`` maps each dimension k with faces to their
    levels, corners and free-axis masks, in ``DyadicCube`` order, which ``cell_rows`` hands out."""

    def __init__(self, family, rows):
        self.family, self._rows = family, rows

    @property
    def ambient_dim(self):
        return self.family.ambient_dim

    def count(self, k):
        return len(self._rows[k][0])

    def cell_rows(self, k, rows=slice(None)):
        """(levels, corners, free-axis masks) of the k-faces at ``rows``; no rows when there are no k-faces."""
        n = self.ambient_dim
        none = np.zeros(0, dtype=np.int64), np.zeros((0, n), dtype=np.int64), np.zeros((0, n), dtype=bool)
        return tuple(a[rows] for a in self._rows.get(k, none))

    @property
    def index(self):
        """A new CubeIndex over every face, dimensions ascending (not kept: its touching pairs are large)."""
        rows = [self._rows[k] for k in sorted(self._rows)]
        return CubeIndex(*map(np.concatenate, zip(*rows))) if rows else self.family.index  # no faces: an empty family

    @property
    def by_dim(self):
        return {k: _CellList(self, k) for k in sorted(self._rows)}

    def skeleton(self, k):
        return _CellList(self, k) if k in self._rows else []

    def __len__(self):
        return sum(map(self.count, self._rows))

    def to_json(self):
        payload = {str(k): _row_dicts(*self.cell_rows(k)) for k in sorted(self._rows)}
        return json.dumps({"ambient_dim": self.ambient_dim, "cubes": payload}, sort_keys=True)

    def skeleton_to_obj(self, k):
        return cubes_to_obj(self.cell_rows(k), k)


def cubes_to_obj(rows, k):
    """OBJ text of k-cells given as rows (levels, corners, free-axis masks): vertices, then edges
    (k=1), quads (k=2) or, for any other k, each cell's lower corner as a point.  Vertices are
    numbered by first use and keyed by Python's ``round(v, 12)`` of each coordinate under dict-key
    equality (-0.0 is 0.0), and written as first met, padded with 0.0 or cut to three coordinates."""
    levels, corners, free = rows
    n = corners.shape[1]
    # each cell's vertices in order, by which of its free axes are at their upper bound
    raised = np.array({1: [[0], [1]], 2: [[0, 0], [1, 0], [1, 1], [0, 1]]}.get(k, [[0] * k]), dtype=np.int64)
    steps = raised.reshape(len(raised), k) @ np.eye(n, dtype=np.int64)[np.nonzero(free)[1].reshape(len(levels), k)]
    coords = ((corners[:, None] + steps) * 2.0 ** -levels[:, None, None]).reshape(len(levels) * len(raised), n)
    # round each distinct coordinate once; number the distinct rounded rows by first use
    values, at = np.unique(coords.view(np.uint64).ravel(), return_inverse=True)
    rounded = np.array([round(v, 12) for v in values.view(np.float64).tolist()])[at].reshape(coords.shape)
    inverse = _grid.distinct_rows((rounded + 0.0).view(np.uint64))[1]
    first = np.unique(inverse, return_index=True)[1]  # each vertex's first use
    number = np.argsort(np.argsort(first)) + 1
    written = np.zeros((len(first), 3))
    written[:, :min(n, 3)] = rounded[np.sort(first), :3]
    ids = number[inverse.ravel()].reshape(len(levels), len(raised))
    tag = {1: "l", 2: "f"}.get(k, "p")
    return "".join([f"v {' '.join(map(repr, v))}\n" for v in written.tolist()]
                   + [f"{tag} {' '.join(map(str, row))}\n" for row in ids.tolist()]) or "\n"


def cubical_complex(family: CubeFamily) -> CubicalComplex:
    """Build CX(F): all faces passing the minimal-side test.

    A face of positive dimension is kept iff no same-dimension face of the
    family with half its side overlaps its relative interior (admissibility
    bounds the side ratio of touching cubes by 2, so only one finer level
    can compete).  The faces are integer (level, corner, fixed axes) rows, 3^n
    per cube of the family's index, and the complex keeps the rows it keeps.
    """
    violations = family.admissibility_violations()
    if violations:
        kind, a, b = violations[0]
        raise ValueError(f"family not admissible ({kind}): {a} / {b}")
    idx, n = family.index, family.ambient_dim
    # per axis, a face is frozen at the cube's low side (0), at its high side (1) or free (2)
    pattern = np.array(list(itertools.product((0, 1, 2), repeat=n)), dtype=np.int64).reshape(3**n, n)
    level = np.repeat(idx.levels, len(pattern))
    corner = ((idx.lo >> (idx.finest - idx.levels)[:, None])[:, None] + (pattern == 1)).reshape(len(level), n)
    fixed = np.tile(pattern != 2, (len(idx.levels), 1))
    dim = n - fixed.sum(axis=1)
    faces = {}
    for k in np.unique(dim).tolist():
        lv, cn, fx = level[dim == k], corner[dim == k], fixed[dim == k]
        if k == 0:  # a vertex at its coarsest level, not below -30 (common refinements stay in int64)
            bits = np.bitwise_or.reduce(cn, axis=1)
            shift = np.maximum(np.minimum(np.where(bits, np.frexp(bits & -bits)[1] - 1, lv + 30), lv + 30), 0)
            lv, cn = lv - shift, cn >> shift[:, None]
        # a face's key: the rank of its level, its corner less the least corner
        # of its level, and its fixed axes, which sort as DyadicCube's axes do
        levels, slot = np.unique(lv, return_inverse=True)
        least = np.full((len(levels), n), np.iinfo(np.int64).max)
        np.minimum.at(least, slot, cn)
        rows = np.column_stack([slot, cn - least[slot], fx])
        radix = rows.max(axis=0) + 1
        if math.prod(radix.tolist()) >= 2**63:  # unlike CubeIndex's, these keys are not confirmed on bounds
            raise ValueError(f"the {k}-faces of one level spread too far for int64 keys")
        codes, first = np.unique(_grid.cell_codes(rows, 0 * radix, radix), return_index=True)
        rows, lv, cn = rows[first], lv[first], cn[first]
        free, keep = rows[:, 1 + n:] == 0, slice(None)
        if k:
            axes = np.nonzero(free)[1].reshape(len(rows), k)
            # a finer face overlapping the relative interior of f shares f's
            # affine span, so it is one of f's 2^k children at the next level
            steps = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.int64) @ np.eye(n, dtype=int)[axes]
            up = np.minimum(np.searchsorted(levels, lv + 1), len(levels) - 1)
            kids = np.empty((*steps.shape[:2], 1 + 2 * n), dtype=np.int64)
            kids[..., 0], kids[..., 1 + n:] = up[:, None], rows[:, None, 1 + n:]
            kids[..., 1:1 + n] = (2 * cn - least[up])[:, None] + steps
            inside = (levels[up] == lv + 1)[:, None] & np.all((kids >= 0) & (kids < radix), axis=2)
            keep = ~(inside & np.isin(_grid.cell_codes(kids, 0 * radix, radix), codes)).any(axis=1)
        faces[k] = lv[keep], cn[keep], free[keep]
    return CubicalComplex(family, faces)
