"""Dyadic cubes, admissible families, Whitney decompositions, complexes.

A k-dimensional dyadic cube at refinement level N has side 2^(-N), an
integer corner in units of 2^(-N), and a sorted set of free axes.  All
incidence decisions (faces, overlap, coverage) are made in integer
arithmetic at a common refinement level; floats appear only in geometric
output such as centres and bounds.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DyadicCube",
    "CubeFamily",
    "CubicalComplex",
    "whitney_family",
    "cubical_complex",
    "skeleton",
    "neighbors",
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
        for a in self.axes:
            hi[a] += 1
        return lo, hi

    def bounds(self):
        lo, hi = self.bounds_int()
        return lo * self.side, hi * self.side

    def center(self):
        lo, hi = self.bounds_int()
        return (lo + hi) / 2.0 * self.side

    def scaled_bounds(self, level):
        """Integer bounds re-expressed at a finer (or equal) level."""
        if level < self.level:
            raise ValueError("can only rescale to a finer level")
        f = 1 << (level - self.level)
        lo, hi = self.bounds_int()
        return lo * f, hi * f

    def contains_point(self, x, tol=0.0):
        lo, hi = self.bounds()
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all((x >= lo - tol) & (x <= hi + tol), axis=1)

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

    def children(self):
        """The 2^dim subdivision at level + 1 (free axes split, others rescale)."""
        base = tuple(2 * c for c in self.corner)
        out = []
        for offs in itertools.product((0, 1), repeat=self.dim):
            corner = list(base)
            for a, o in zip(self.axes, offs):
                corner[a] += o
            out.append(DyadicCube(self.level + 1, tuple(corner), self.axes, self.ambient_dim))
        return out

    def parent(self):
        """The containing cube one level coarser (floor division of the corner)."""
        corner = tuple(c // 2 for c in self.corner)
        return DyadicCube(self.level - 1, corner, self.axes, self.ambient_dim)

    def intersects(self, other):
        """Closed-set intersection test, exact in integers."""
        level = max(self.level, other.level)
        alo, ahi = self.scaled_bounds(level)
        blo, bhi = other.scaled_bounds(level)
        return bool(np.all(ahi >= blo) and np.all(bhi >= alo))

    def interiors_overlap(self, other):
        """Relative interiors overlap: same affine span, open overlap on it."""
        if self.dim != other.dim:
            return False
        level = max(self.level, other.level)
        alo, ahi = self.scaled_bounds(level)
        blo, bhi = other.scaled_bounds(level)
        for j in range(self.ambient_dim):
            free_a = j in self.axes
            free_b = j in other.axes
            if free_a != free_b:
                return False
            if free_a:
                if min(ahi[j], bhi[j]) <= max(alo[j], blo[j]):
                    return False
            else:
                if alo[j] != blo[j]:
                    return False
        return True

    def is_face_of(self, other):
        if self.level != other.level:
            return False
        level = self.level
        alo, ahi = self.scaled_bounds(level)
        blo, bhi = other.scaled_bounds(level)
        return bool(np.all(alo >= blo) and np.all(ahi <= bhi))

    def canonical(self):
        """Minimal-level representation (only 0-cubes are ambiguous).

        The floor keeps later common-refinement shifts within int64 range.
        """
        if self.dim > 0:
            return self
        level, corner = self.level, self.corner
        while level > -30 and all(c % 2 == 0 for c in corner):
            corner = tuple(c // 2 for c in corner)
            level -= 1
        return DyadicCube(level, corner, self.axes, self.ambient_dim)

    def to_dict(self):
        return {
            "level": int(self.level),
            "corner": [int(c) for c in self.corner],
            "axes": [int(a) for a in self.axes],
            "n": int(self.ambient_dim),
        }

    @staticmethod
    def from_dict(d):
        return DyadicCube(int(d["level"]), tuple(d["corner"]), tuple(d["axes"]), int(d["n"]))


class CubeFamily:
    """A finite set of top-dimensional dyadic cubes."""

    def __init__(self, cubes, meta=None):
        cubes = sorted(set(cubes))
        if cubes:
            n = cubes[0].ambient_dim
            for c in cubes:
                if c.ambient_dim != n or c.dim != n:
                    raise ValueError("family members must be top-dimensional, same ambient")
        self.cubes = cubes
        self.meta = dict(meta) if meta else {}

    def __len__(self):
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)

    def __contains__(self, cube):
        return cube in set(self.cubes)

    @property
    def ambient_dim(self):
        return self.cubes[0].ambient_dim if self.cubes else 0

    def min_side(self):
        return min(c.side for c in self.cubes)

    def max_side(self):
        return max(c.side for c in self.cubes)

    def admissibility_violations(self, check_boundary=False):
        """List of violations of the admissibility conditions.

        The boundary-coverage condition is opt-in: finite truncations of
        Whitney families are uncovered along their outer frontier by
        construction, and the complex machinery only needs the first two
        conditions plus dyadic rigidity.
        """
        out = []
        cubes = self.cubes
        if cubes:
            finest = max(c.level for c in cubes)
            lo = np.array([c.scaled_bounds(finest)[0] for c in cubes])
            hi = np.array([c.scaled_bounds(finest)[1] for c in cubes])
            levels = np.array([c.level for c in cubes])
            for i in range(len(cubes)):
                touch = np.all(hi[i + 1 :] >= lo[i], axis=1) & np.all(hi[i] >= lo[i + 1 :], axis=1)
                overlap = touch & np.all(
                    np.minimum(hi[i + 1 :], hi[i]) > np.maximum(lo[i + 1 :], lo[i]), axis=1
                )
                bad_ratio = touch & (np.abs(levels[i + 1 :] - levels[i]) > 1)
                for j in np.nonzero(overlap)[0]:
                    out.append(("interior-overlap", cubes[i], cubes[i + 1 + j]))
                for j in np.nonzero(bad_ratio & ~overlap)[0]:
                    out.append(("size-ratio", cubes[i], cubes[i + 1 + j]))
        if check_boundary:
            finest = max(c.level for c in cubes) if cubes else 0
            for a in cubes:
                others = [b for b in cubes if b != a and b.intersects(a)]
                for facet in a.facets():
                    if not _facet_covered(facet, others, finest + 1):
                        out.append(("boundary-uncovered", a, facet))
        return out

    def admissible(self, check_boundary=False):
        return not self.admissibility_violations(check_boundary)

    def contains_point(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ok = np.zeros(len(x), dtype=bool)
        for c in self.cubes:
            ok |= c.contains_point(x)
        return ok

    def interior_contains(self, x):
        """Membership in Int(union): all 2^n touching fine cells are covered."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        finest = max(c.level for c in self.cubes) + 1
        h = 2.0 ** (-finest) / 2.0
        ok = np.ones(len(x), dtype=bool)
        n = self.ambient_dim
        for signs in itertools.product((-1, 1), repeat=n):
            probe = x + h * np.array(signs, dtype=float)
            ok &= self.contains_point(probe)
        return ok


def _facet_covered(facet, candidates, level):
    """Whether every sub-cell of the facet (at the given level) lies in some
    candidate cube.  Exact integer midpoint test."""
    f = 1 << (level - facet.level)
    lo, hi = facet.scaled_bounds(level)
    axes = facet.axes
    ranges = [range(lo[a], hi[a]) for a in axes]
    scaled = [c.scaled_bounds(level) for c in candidates]
    for combo in itertools.product(*ranges):
        # midpoint of the sub-cell, doubled to stay integer
        mid2 = 2 * lo.copy()
        for a, v in zip(axes, combo):
            mid2[a] = 2 * v + 1
        ok = False
        for clo, chi in scaled:
            if np.all(mid2 >= 2 * clo) and np.all(mid2 <= 2 * chi):
                ok = True
                break
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# open-set oracles for Whitney decompositions


class BoxUnion:
    """Open set given as a finite union of open boxes (dyadic coordinates)."""

    def __init__(self, boxes):
        self.boxes = [(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)) for lo, hi in boxes]

    def contains(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ok = np.zeros(len(x), dtype=bool)
        for lo, hi in self.boxes:
            ok |= np.all((x > lo) & (x < hi), axis=1)
        return ok

    def _box_covered(self, lo, hi, boxes):
        for blo, bhi in boxes:
            if np.all(lo >= blo) and np.all(hi <= bhi):
                return True
        for blo, bhi in boxes:
            if np.all(np.minimum(hi, bhi) > np.maximum(lo, blo)):
                # split along the first coordinate where b's face cuts the target
                for j in range(len(lo)):
                    for cut in (blo[j], bhi[j]):
                        if lo[j] < cut < hi[j]:
                            hi1 = hi.copy()
                            hi1[j] = cut
                            lo2 = lo.copy()
                            lo2[j] = cut
                            return self._box_covered(lo, hi1, boxes) and self._box_covered(
                                lo2, hi, boxes
                            )
                # b fully spans the target in every axis it cuts
                return True
        return False

    def cube_inside(self, center, r):
        """Whether the closed sup-ball B_inf(center, r) lies in the union."""
        c = np.asarray(center, dtype=float)
        return self._box_covered(c - r, c + r, self.boxes)

    def dist_inf_complement(self, x):
        """Exact sup-norm distance from x to the complement.

        The distance is one of the face-coordinate offsets; r -> B(x, r)
        inside U is monotone, so binary search over the sorted candidates.
        """
        x = np.asarray(x, dtype=float)
        if not self.contains(x[None, :])[0]:
            return 0.0
        cands = set()
        for lo, hi in self.boxes:
            for j in range(len(x)):
                cands.add(abs(x[j] - lo[j]))
                cands.add(abs(x[j] - hi[j]))
        cands = sorted(c for c in cands if c > 0)
        lo_i, hi_i = 0, len(cands) - 1
        if not cands or not self.cube_inside(x, cands[0]):
            return 0.0
        if self.cube_inside(x, cands[-1]):
            return cands[-1]
        while hi_i - lo_i > 1:
            mid = (lo_i + hi_i) // 2
            if self.cube_inside(x, cands[mid]):
                lo_i = mid
            else:
                hi_i = mid
        return cands[lo_i]


class BallSet:
    """Open Euclidean ball as a Whitney oracle (analytic sup-norm distance)."""

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def contains(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.linalg.norm(x - self.center, axis=1) < self.radius

    def dist_inf_complement(self, x):
        x = np.abs(np.asarray(x, dtype=float) - self.center)
        if np.linalg.norm(x) >= self.radius:
            return 0.0
        n = len(x)
        # largest r with |x + r * sign-corner| <= radius for the worst corner
        s = float(np.sum(x))
        disc = s * s + n * (self.radius**2 - float(x @ x))
        return (-s + math.sqrt(disc)) / n


class PuncturedPlane:
    """R^n minus one point; Whitney cubes shrink dyadically toward it."""

    def __init__(self, point):
        self.point = np.asarray(point, dtype=float)

    def contains(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.any(x != self.point, axis=1)

    def dist_inf_complement(self, x):
        return float(np.max(np.abs(np.asarray(x, dtype=float) - self.point)))


def _cube_dist_inf(cube, open_set):
    """Sup-norm distance from the (closed) cube to the complement of the set.

    Exact when the oracle's distance function is exact: the minimum over the
    cube of dist(x, complement) is attained at a corner for BoxUnion-type
    sets; we take the min over corners and the centre and subtract nothing
    because dist_inf is 1-Lipschitz in sup-norm and the corner grid is the
    extreme set of the cube.
    """
    lo, hi = cube.bounds()
    corners = [
        np.where(np.array(mask), hi, lo)
        for mask in itertools.product((False, True), repeat=cube.ambient_dim)
    ]
    vals = [open_set.dist_inf_complement(c) for c in corners]
    return min(vals)


def whitney_family(open_set, bbox, min_level, top_level=None):
    """The Whitney family of an open set, truncated to a box and a finest level.

    A cube K is emitted when dist_inf(K, complement) > 2 side(K) and its
    parent fails the same test; top-level cubes are emitted on the first
    condition alone (truncation recorded in the family metadata).  Cubes that
    would need refinement below ``min_level`` are dropped with a count.
    """
    lo = np.asarray(bbox[0], dtype=float)
    hi = np.asarray(bbox[1], dtype=float)
    n = len(lo)
    if top_level is None:
        top_level = -int(math.floor(math.log2(max(float(np.max(hi - lo)), 1e-9))))
    side = 2.0 ** (-top_level)
    ilo = np.floor(lo / side + 1e-9).astype(np.int64)
    ihi = np.ceil(hi / side - 1e-9).astype(np.int64)
    axes = tuple(range(n))
    queue = [
        DyadicCube(top_level, tuple(c), axes, n)
        for c in itertools.product(*[range(ilo[j], ihi[j]) for j in range(n)])
    ]
    emitted = []
    truncated = 0
    waived_top = 0
    while queue:
        cube = queue.pop()
        d = _cube_dist_inf(cube, open_set)
        if d > 2.0 * cube.side:
            if cube.level == top_level:
                parent_d = _cube_dist_inf(cube.parent(), open_set)
                if parent_d > 2.0 * cube.parent().side:
                    waived_top += 1
            emitted.append(cube)
        else:
            if cube.level >= min_level:
                truncated += 1
                continue
            # refine only when the cube still meets the set
            clo, chi = cube.bounds()
            mid = (clo + chi) / 2.0
            corners = [
                np.where(np.array(mask), chi, clo)
                for mask in itertools.product((False, True), repeat=n)
            ]
            probe = np.vstack([mid] + corners)
            if not open_set.contains(probe).any():
                continue
            queue.extend(cube.children())
    fam = CubeFamily(
        emitted,
        meta={
            "truncated_below_min_level": truncated,
            "top_level_parent_waivers": waived_top,
            "top_level": top_level,
            "min_level": min_level,
        },
    )
    return fam


# ---------------------------------------------------------------------------
# the cubical complex CX(F)


class CubicalComplex:
    """Faces of an admissible family, with touching faces subdivided so that
    only the finest copies of overlapping same-dimension faces are kept."""

    def __init__(self, family, by_dim):
        self.family = family
        self.by_dim = {k: sorted(v) for k, v in by_dim.items()}

    @property
    def ambient_dim(self):
        return self.family.ambient_dim

    def all_cubes(self):
        return [c for k in sorted(self.by_dim) for c in self.by_dim[k]]

    def skeleton(self, k):
        return list(self.by_dim.get(k, []))

    def __len__(self):
        return sum(len(v) for v in self.by_dim.values())

    def to_json(self):
        payload = {
            str(k): [c.to_dict() for c in v] for k, v in sorted(self.by_dim.items())
        }
        return json.dumps({"ambient_dim": self.ambient_dim, "cubes": payload}, sort_keys=True)

    def skeleton_to_obj(self, k):
        """OBJ export of a skeleton: vertices plus edges (k=1) or quads (k=2)."""
        cubes = self.skeleton(k)
        verts = {}
        lines = []

        def vid(p):
            key = tuple(round(float(v), 12) for v in p)
            if key not in verts:
                verts[key] = len(verts) + 1
            return verts[key]

        elements = []
        for c in cubes:
            lo, hi = c.bounds()
            if k == 1:
                a = lo
                b = lo.copy()
                b[c.axes[0]] = hi[c.axes[0]]
                elements.append(("l", [vid(a), vid(b)]))
            elif k == 2:
                ax, ay = c.axes
                p = [lo.copy() for _ in range(4)]
                p[1][ax] = hi[ax]
                p[2][ax] = hi[ax]
                p[2][ay] = hi[ay]
                p[3][ay] = hi[ay]
                elements.append(("f", [vid(q) for q in p]))
            else:
                elements.append(("p", [vid(lo)]))
        for key in sorted(verts, key=verts.get):
            pad = list(key) + [0.0] * (3 - len(key))
            lines.append("v " + " ".join(repr(float(v)) for v in pad[:3]))
        for tag, ids in elements:
            lines.append(tag + " " + " ".join(str(i) for i in ids))
        return "\n".join(lines) + "\n"


def cubical_complex(family: CubeFamily) -> CubicalComplex:
    """Build CX(F): all faces passing the minimal-side test.

    A face of positive dimension is kept iff no same-dimension face of the
    family with half its side overlaps its relative interior (admissibility
    bounds the side ratio of touching cubes by 2, so only one finer level
    can compete).
    """
    violations = family.admissibility_violations()
    if violations:
        kind, a, b = violations[0]
        raise ValueError(f"family not admissible ({kind}): {a} / {b}")
    faces_by_dim = {}
    for cube in family:
        for f in cube.faces():
            if f.dim == 0:
                f = f.canonical()
            faces_by_dim.setdefault(f.dim, set()).add(f)
    # a finer face overlapping the relative interior of f shares f's affine
    # span, so it is one of f's children
    by_dim = {
        k: faces if k == 0 else {f for f in faces if not any(c in faces for c in f.children())}
        for k, faces in faces_by_dim.items()
    }
    return CubicalComplex(family, by_dim)


def skeleton(complex_: CubicalComplex, k):
    """All cubes of dimension exactly k in the complex."""
    if not 0 <= k <= complex_.ambient_dim:
        raise ValueError("skeleton dimension out of range")
    return complex_.skeleton(k)


def neighbors(family: CubeFamily, cube: DyadicCube, rings: int) -> CubeFamily:
    """Iterated closed-neighbourhood union of a member cube."""
    if cube not in family:
        raise ValueError("cube is not a member of the family")
    current = {cube}
    for _ in range(rings):
        nxt = set(current)
        for r in family:
            if any(r.intersects(c) for c in current):
                nxt.add(r)
        current = nxt
    return CubeFamily(sorted(current))
