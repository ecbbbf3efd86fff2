import itertools

import numpy as np
import pytest

import oracles
from gmtkit import cubical
from gmtkit.cubical import (
    BallSet,
    BoxUnion,
    CubeFamily,
    CubeIndex,
    DyadicCube,
    PuncturedPlane,
    cubes_to_obj,
    cubical_complex,
    whitney_family,
)
from gmtkit.deform import _max_touching
from gmtkit.solver import Chain2, GridComplex
from oracles import (
    _cube_dist_inf,
    admissibility_violations_oracle,
    boundary_admissibility_violations,
    canonical,
    children,
    contains_point_oracle,
    cubes_to_obj_oracle,
    cubical_complex_oracle,
    dist_inf_complement_oracle,
    interior_contains_oracle,
    interiors_overlap,
    intersects,
    is_face_of,
    max_touching_oracle,
    meets_oracle,
    neighbors_oracle,
    parent,
    touching_pairs_oracle,
    whitney_family_oracle,
)


def brute_force_complex(family):
    """Independent face-enumeration oracle for CX(F)."""
    faces = set()
    for cube in family:
        faces.update(canonical(f) for f in cube.faces())
    kept = set()
    for f in faces:
        if f.dim == 0:
            kept.add(f)
            continue
        finer = [g for g in faces if g.dim == f.dim and g.level == f.level + 1]
        if not any(interiors_overlap(f, g) for g in finer):
            kept.add(f)
    return kept


def unit_grid(nx, ny, level=0, n=2):
    axes = tuple(range(n))
    cubes = []
    for c in itertools.product(range(nx), range(ny)):
        cubes.append(DyadicCube(level, tuple(c) + (0,) * (n - 2), axes, n))
    return CubeFamily(cubes)


class TestDyadicCube:
    def test_geometry(self):
        c = DyadicCube(1, (2, 3), (0, 1), 2)
        assert c.side == 0.5
        assert np.array_equal(c.center(), [1.25, 1.75])
        lo, hi = c.bounds()
        assert np.array_equal(lo, [1.0, 1.5]) and np.array_equal(hi, [1.5, 2.0])

    def test_faces_count(self):
        c = DyadicCube(0, (0, 0, 0), (0, 1, 2), 3)
        assert len(c.faces()) == 27  # 3^n faces including itself
        assert len(c.faces(dims=1)) == 12
        assert len(c.faces(dims=0)) == 8

    def test_face_relation_same_level(self):
        c = DyadicCube(0, (0, 0), (0, 1), 2)
        edge = DyadicCube(0, (1, 0), (1,), 2)
        assert is_face_of(edge, c)
        half_edge = DyadicCube(1, (2, 0), (1,), 2)
        assert not is_face_of(half_edge, c)  # finer level: not a face by definition

    def test_children_partition(self):
        c = DyadicCube(0, (1, 1), (0, 1), 2)
        kids = children(c)
        assert len(kids) == 4
        assert all(k.side == 0.5 for k in kids)
        assert all(parent(k) == c for k in kids)

    def test_integer_incidence(self):
        a = DyadicCube(0, (0, 0), (0, 1), 2)
        b = DyadicCube(1, (2, 0), (0, 1), 2)  # [1, 1.5] x [0, 0.5]
        assert intersects(a, b)
        assert not interiors_overlap(a, b)
        c = DyadicCube(1, (1, 1), (0, 1), 2)  # strictly inside a
        assert intersects(a, c)

    def test_interiors_overlap_needs_same_span(self):
        e1 = DyadicCube(0, (1, 0), (1,), 2)
        e2 = DyadicCube(0, (0, 1), (0,), 2)
        assert not interiors_overlap(e1, e2)
        e3 = DyadicCube(1, (2, 1), (1,), 2)
        assert interiors_overlap(e1, e3)


class TestAdmissibility:
    def test_uniform_grid_admissible(self):
        fam = unit_grid(3, 3)
        assert fam.admissible()

    def test_interior_overlap_rejected(self):
        a = DyadicCube(0, (0, 0), (0, 1), 2)
        b = DyadicCube(1, (1, 1), (0, 1), 2)
        fam = CubeFamily([a, b])
        kinds = [v[0] for v in fam.admissibility_violations()]
        assert "interior-overlap" in kinds

    def test_size_ratio_rejected(self):
        a = DyadicCube(0, (0, 0), (0, 1), 2)
        b = DyadicCube(2, (4, 0), (0, 1), 2)  # quarter-size touching neighbour
        fam = CubeFamily([a, b])
        kinds = [v[0] for v in fam.admissibility_violations()]
        assert "size-ratio" in kinds

    def test_boundary_coverage_strict_mode(self):
        fam = unit_grid(3, 3)
        violations = boundary_admissibility_violations(fam)
        # outer frontier facets are uncovered; inner facets are fine
        assert all(v[0] == "boundary-uncovered" for v in violations)
        inner_facets = {v[2] for v in violations}
        center_cube = DyadicCube(0, (1, 1), (0, 1), 2)
        assert not any(is_face_of(f, center_cube) for f in inner_facets)


class TestCubicalComplex:
    def test_single_unit_cube(self):
        cx = cubical_complex(CubeFamily([DyadicCube(0, (0, 0), (0, 1), 2)]))
        assert len(cx.skeleton(2)) == 1
        assert len(cx.skeleton(1)) == 4
        assert len(cx.skeleton(0)) == 4

    def test_unit_cube_r3_edges(self):
        cx = cubical_complex(CubeFamily([DyadicCube(0, (0, 0, 0), (0, 1, 2), 3)]))
        assert len(cx.skeleton(1)) == 12
        assert len(cx.skeleton(0)) == 8
        assert len(cx.skeleton(3)) == 1

    def test_subdivided_shared_edge(self):
        big = DyadicCube(0, (0, 0), (0, 1), 2)
        s1 = DyadicCube(1, (2, 0), (0, 1), 2)
        s2 = DyadicCube(1, (2, 1), (0, 1), 2)
        cx = cubical_complex(CubeFamily([big, s1, s2]))
        edges = set(cx.skeleton(1))
        assert DyadicCube(0, (1, 0), (1,), 2) not in edges
        assert DyadicCube(1, (2, 0), (1,), 2) in edges
        assert DyadicCube(1, (2, 1), (1,), 2) in edges
        assert len(edges) == 10
        # eight geometrically distinct vertices (duplicates merge)
        assert len(cx.skeleton(0)) == 8

    def test_matches_brute_force_oracle_on_random_families(self, rng):
        for trial in range(12):
            cubes = {DyadicCube(1, (0, 0), (0, 1), 2)}
            # grow a random connected uniform family, sometimes with half cubes
            frontier = [(0, 0)]
            for _ in range(rng.integers(3, 12)):
                base = frontier[rng.integers(len(frontier))]
                step = [(1, 0), (-1, 0), (0, 1), (0, -1)][rng.integers(4)]
                new = (base[0] + step[0], base[1] + step[1])
                cubes.add(DyadicCube(1, new, (0, 1), 2))
                frontier.append(new)
            fam = CubeFamily(sorted(cubes))
            if not fam.admissible():
                continue
            cx = cubical_complex(fam)
            assert all(faces == sorted(faces) for faces in cx.by_dim.values())
            assert {c for faces in cx.by_dim.values() for c in faces} == brute_force_complex(fam)

    @pytest.mark.parametrize(
        "open_set, bbox, min_level, top_level",
        [
            (BoxUnion([([0.0, 0.0], [4.0, 2.0]), ([0.0, 0.0], [2.0, 4.0])]), ([1, 0], [3, 3]), 3, 1),
            (BoxUnion([([0.0, 0.0, 0.0], [4.0, 4.0, 4.0])]), ([1, 1, 0], [1.5, 1.5, 1]), 3, 1),
            (PuncturedPlane([0.0, 0.0]), ([-1, -1], [1, 1]), 3, 1),
        ],
        ids=["box-union-2d", "box-union-3d", "punctured-plane"],
    )
    def test_matches_brute_force_oracle_on_whitney_families(self, open_set, bbox, min_level,
                                                            top_level):
        fam = whitney_family(open_set, bbox, min_level=min_level, top_level=top_level)
        assert len({c.level for c in fam}) > 1  # finer faces really compete
        assert {c for faces in cubical_complex(fam).by_dim.values() for c in faces} == brute_force_complex(fam)

    def test_rejects_non_admissible_with_pair(self):
        a = DyadicCube(0, (0, 0), (0, 1), 2)
        b = DyadicCube(2, (4, 0), (0, 1), 2)
        with pytest.raises(ValueError, match="size-ratio"):
            cubical_complex(CubeFamily([a, b]))

    def test_no_equal_dim_interior_overlap(self):
        big = DyadicCube(0, (0, 0), (0, 1), 2)
        s1 = DyadicCube(1, (2, 0), (0, 1), 2)
        s2 = DyadicCube(1, (2, 1), (0, 1), 2)
        cx = cubical_complex(CubeFamily([big, s1, s2]))
        for k, cubes in cx.by_dim.items():
            for a, b in itertools.combinations(cubes, 2):
                assert not interiors_overlap(a, b)

    def test_json_and_obj_export(self):
        cx = cubical_complex(CubeFamily([DyadicCube(0, (0, 0), (0, 1), 2)]))
        text = cx.to_json()
        assert '"cubes"' in text
        obj = cx.skeleton_to_obj(1)
        assert obj.startswith("v ") and "\nl " in obj


class TestWhitney:
    def test_whole_plane_single_scale(self):
        u = BoxUnion([([-64.0, -64.0], [64.0, 64.0])])
        fam = whitney_family(u, ([-1, -1], [1, 1]), min_level=3, top_level=0)
        sides = {c.side for c in fam}
        assert sides == {1.0}
        assert len(fam) == 4
        assert fam.meta["top_level_parent_waivers"] == 4

    def test_punctured_plane_dyadic_shrink(self):
        u = PuncturedPlane([0.0, 0.0])
        fam = whitney_family(u, ([-1, -1], [1, 1]), min_level=6, top_level=2)
        sides = sorted({c.side for c in fam})
        assert len(sides) >= 3  # dyadic halving toward the puncture
        for cube in fam:
            assert _cube_dist_inf(cube, u) > 2 * cube.side
            if cube.level > fam.meta["top_level"]:
                up = parent(cube)
                assert not (_cube_dist_inf(up, u) > 2 * up.side)
        assert fam.admissible()

    def test_open_ball_cubes_inside(self):
        u = BallSet([0.0, 0.0], 1.0)
        fam = whitney_family(u, ([-2, -2], [2, 2]), min_level=5, top_level=1)
        assert len(fam) > 0
        assert fam.admissible()
        for cube in fam:
            lo, hi = cube.bounds()
            corners = np.array(list(itertools.product(*zip(lo, hi))))
            assert u.contains(corners).all()

    def test_empty_intersection(self):
        u = BallSet([10.0, 10.0], 0.5)
        fam = whitney_family(u, ([-1, -1], [1, 1]), min_level=4, top_level=0)
        assert len(fam) == 0

    def test_truncation_recorded(self):
        u = PuncturedPlane([0.0, 0.0])
        fam = whitney_family(u, ([-1, -1], [1, 1]), min_level=4, top_level=2)
        assert fam.meta["truncated_below_min_level"] > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_admissible_for_random_box_unions(self, seed):
        rng = np.random.default_rng(seed)
        boxes = []
        for _ in range(3):
            lo = rng.integers(-6, 3, 2) / 4.0
            size = rng.integers(2, 6, 2) / 4.0
            boxes.append((lo, lo + size))
        u = BoxUnion(boxes)
        fam = whitney_family(u, ([-2, -2], [2, 2]), min_level=4, top_level=1)
        assert fam.admissible()
        for cube in fam:
            assert _cube_dist_inf(cube, u) > 2 * cube.side


def neighbors(family, cube, rings):
    """Iterated closed-neighbourhood union of a member cube."""
    if cube not in family:
        raise ValueError("cube is not a member of the family")
    i, j = family.index.touching.T
    near = np.zeros(len(family), dtype=bool)
    near[family.position[cube]] = True
    for _ in range(rings):
        ring = near.copy()
        ring[j[near[i]]] = True
        ring[i[near[j]]] = True
        near = ring
    return CubeFamily([c for c, k in zip(family.cubes, near) if k])


class TestNeighbors:
    def test_rings_zero_and_one(self):
        fam = unit_grid(4, 4)
        q = DyadicCube(0, (1, 1), (0, 1), 2)
        assert len(neighbors(fam, q, 0)) == 1
        assert len(neighbors(fam, q, 1)) == 9

    def test_brute_force_match(self, rng):
        fam = unit_grid(5, 5)
        cubes = list(fam)
        q = cubes[7]
        expect = {q}
        for _ in range(2):
            expect |= {r for r in cubes if any(intersects(r, c) for c in expect)}
        assert set(neighbors(fam, q, 2)) == expect

    def test_requires_membership(self):
        fam = unit_grid(2, 2)
        with pytest.raises(ValueError):
            neighbors(fam, DyadicCube(0, (9, 9), (0, 1), 2), 1)


def _random_boxes(seed, n=2, count=3):
    """Boxes with quarter-integer faces in R^n, so that overlaps, shared
    faces and corner contacts are common."""
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(count):
        lo = rng.integers(-6, 3, n) / 4.0
        boxes.append((lo, lo + rng.integers(2, 6, n) / 4.0))
    return boxes


def _random_box_union(seed):
    return whitney_family(BoxUnion(_random_boxes(seed)), ([-2, -2], [2, 2]), min_level=4, top_level=1)


def _cube_soup(seed, count=40):
    """Random squares of levels 0 to 3 in [0, 2]^2: overlapping, touching at
    every size ratio, and not admissible."""
    rng = np.random.default_rng(seed)
    cubes = []
    for _ in range(count):
        level = int(rng.integers(0, 4))
        cubes.append(DyadicCube(level, tuple(int(c) for c in rng.integers(0, 2 << level, 2) // 2), (0, 1), 2))
    return CubeFamily(cubes)


def _purge_family(min_level):
    lo, hi = np.array([-1.0, -1.0]), np.array([2.0, 2.0])
    return whitney_family(BoxUnion([(lo, hi)]), (lo, hi), min_level=min_level)


ORACLE_FAMILIES = {
    "box-union-0": lambda: _random_box_union(0),
    "box-union-1": lambda: _random_box_union(1),
    "box-union-2": lambda: _random_box_union(2),
    "punctured-plane": lambda: whitney_family(PuncturedPlane([0.0, 0.0]), ([-1, -1], [1, 1]), 4, top_level=1),
    "purge-3": lambda: _purge_family(3),
    "purge-4": lambda: _purge_family(4),
    "purge-5": lambda: _purge_family(5),
    "ball-3d": lambda: whitney_family(BallSet([0.0, 0.0, 0.0], 1.0), ([-1, -1, -1], [1, 1, 1]), 3),
}


def _probe_points(fam, rng):
    """Random points around the family, every grid point one level below the
    finest on a window of it (faces and corners), cube centres, and NaN."""
    idx = fam.index
    lo, hi = idx.lo.min(axis=0) * 2.0 ** -idx.finest, idx.hi.max(axis=0) * 2.0 ** -idx.finest
    n = len(lo)
    spread = rng.uniform(lo - 0.25, hi + 0.25, (400, n))
    step = 2.0 ** -(idx.finest + 1)
    start = lo - step + rng.integers(0, 8, n) * step * 8
    grid = start + step * np.indices((12,) * n).reshape(n, -1).T
    centres = np.array([c.center() for c in fam.cubes[:: max(1, len(fam) // 50)]])
    odd = np.full((2, n), np.nan)
    odd[1] = np.inf
    return np.vstack([spread, grid, centres, odd, lo[None] - step, hi[None] + step])


class TestCubeIndexOracle:
    """The CubeIndex paths against the pairwise scans they replaced."""

    @pytest.fixture(params=sorted(ORACLE_FAMILIES), scope="class")
    def built(self, request):
        family = ORACLE_FAMILIES[request.param]()
        return family, cubical_complex(family)

    @pytest.fixture
    def family(self, built):
        return built[0]

    def test_touching_pairs(self, built):
        family, cx = built
        assert family.index.touching.tolist() == [list(p) for p in touching_pairs_oracle(family.cubes)]
        cells = [c for k in sorted(cx.by_dim) for c in cx.by_dim[k]]
        assert cx.index.touching.tolist() == [list(p) for p in touching_pairs_oracle(cells)]

    def test_violations(self, family):
        assert family.admissibility_violations() == admissibility_violations_oracle(family)
        if len(family) <= 300:  # the boundary oracle scans every pair in Python
            assert (boundary_admissibility_violations(family)
                    == admissibility_violations_oracle(family, check_boundary=True))

    def test_delta_touching(self, built):
        assert _max_touching(built[1]) == max_touching_oracle(built[1])

    def test_exports_match_the_object_oracle(self, built):
        family, cx = built
        expected = cubical_complex_oracle(family)
        assert cx.by_dim == expected.by_dim
        assert cx.to_json() == expected.to_json()
        for k in range(family.ambient_dim + 1):
            assert cx.skeleton_to_obj(k) == expected.skeleton_to_obj(k)

    def test_touching_counts(self, built):
        for idx in (built[0].index, built[1].index):
            assert np.array_equal(idx.touching_counts(),
                                  np.bincount(idx.touching.ravel(), minlength=len(idx.levels)))

    def test_point_location(self, family, rng):
        pts = _probe_points(family, rng)
        assert np.array_equal(family.contains_point(pts), contains_point_oracle(family, pts))
        assert np.array_equal(family.interior_contains(pts), interior_contains_oracle(family, pts))

    def test_neighbors(self, family, rng):
        for i in rng.choice(len(family), 3, replace=False):
            q = family.cubes[i]
            for rings in (0, 1, 2):
                assert list(neighbors(family, q, rings)) == neighbors_oracle(family, q, rings)

    @pytest.mark.parametrize("seed", range(6))
    def test_violation_order_on_cube_soups(self, seed):
        fam = _cube_soup(seed)
        kinds = {v[0] for v in fam.admissibility_violations()}
        assert kinds == {"interior-overlap", "size-ratio"}
        assert fam.admissibility_violations() == admissibility_violations_oracle(fam)
        assert (boundary_admissibility_violations(fam)
                == admissibility_violations_oracle(fam, check_boundary=True))
        assert fam.index.touching.tolist() == [list(p) for p in touching_pairs_oracle(fam.cubes)]
        pts = _probe_points(fam, np.random.default_rng(seed))
        assert np.array_equal(fam.contains_point(pts), contains_point_oracle(fam, pts))
        assert np.array_equal(fam.interior_contains(pts), interior_contains_oracle(fam, pts))

    def test_empty_family(self):
        fam = CubeFamily([])
        assert boundary_admissibility_violations(fam) == []
        assert not fam.contains_point(np.zeros((3, 2))).any()
        assert not fam.interior_contains(np.zeros((3, 2))).any()


# the inputs the integer cube rows are checked on against the object builders:
# (open set, bbox, min_level, top_level), each under a second for the queue loop
CUBE_ROW_FAMILIES = {
    "cli-disc": (BallSet([0.0, 0.0], 1.0), ([-1, -1], [1, 1]), 5, None),
    "purge-3": (BoxUnion([([-1.0, -1.0], [2.0, 2.0])]), ([-1.0, -1.0], [2.0, 2.0]), 3, None),
    "ball-3d": (BallSet([0.0, 0.0, 0.0], 1.0), ([-1, -1, -1], [1, 1, 1]), 3, None),
    "punctured-plane": (PuncturedPlane([0.0, 0.0]), ([-1, -1], [1, 1]), 6, 2),
    "box-union-2d": (BoxUnion([([0.0, 0.0], [4.0, 2.0]), ([0.0, 0.0], [2.0, 4.0])]), ([1, 0], [3, 3]), 3, 1),
    "box-union-3d": (BoxUnion([([0.0, 0.0, 0.0], [4.0, 4.0, 4.0])]), ([1, 1, 0], [1.5, 1.5, 1]), 3, 1),
    "interval": (BoxUnion([([-0.5], [1.5])]), ([-1], [2]), 5, None),
    "off-grid-ball": (BallSet([0.3, -0.2], 0.7), ([-0.55, -1.1], [1.3, 0.6]), 5, None),
    "empty": (BallSet([10.0, 10.0], 0.5), ([-1, -1], [1, 1]), 4, 0),
    # top-level cubes whose parents pass and fail the test
    "box-in-plane": (BoxUnion([([0.0, 0.0], [16.0, 16.0])]), ([0, 0], [16, 16]), 2, 0),
    # a puncture far from the origin: corners near 2^40 at the finest level
    "far-puncture": (PuncturedPlane([1000.0, 1000.0]), ([999, 999], [1001, 1001]), 30, None),
    # sets that hold no centre or corner of the top-level cubes
    "small-ball": (BallSet([0.5, 0.5], 0.3), ([-1, -1], [1, 1]), 5, None),
    "half-box": (BoxUnion([([-1.0, -1.0], [0.0, 1.0])]), ([-1, -1], [1, 1]), 3, None),
    # faces off the dyadic grid
    "non-dyadic-box": (BoxUnion([([0.1, 0.1], [0.9, 0.9])]), ([0, 0], [1, 1]), 5, None),
    "random-union-2d": (BoxUnion(_random_boxes(3, 2, 4)), ([-2, -2], [2, 2]), 4, 1),
    "random-union-3d": (BoxUnion(_random_boxes(4, 3, 3)), ([-2, -2, -2], [2, 2, 2]), 3, 1),
}


class TestCubeRowsOracle:
    """whitney_family and cubical_complex on integer rows against the queue of
    cube objects and the face-object complex they replaced."""

    @pytest.mark.parametrize("case", sorted(CUBE_ROW_FAMILIES))
    def test_same_family_and_complex(self, case):
        args = CUBE_ROW_FAMILIES[case]
        fam, expected = whitney_family(*args), whitney_family_oracle(*args)
        assert fam.cubes == expected.cubes and repr(fam.meta) == repr(expected.meta)
        cx, cx_expected = cubical_complex(fam), cubical_complex_oracle(fam)
        assert all(faces == sorted(faces) for faces in cx.by_dim.values())  # built in cube order, not re-sorted
        assert cx.by_dim == cx_expected.by_dim  # lists, whose first difference pytest shows at once
        assert cx.to_json() == cx_expected.to_json()
        for k in range(len(args[1][0]) + 1):
            assert cx.skeleton_to_obj(k) == cx_expected.skeleton_to_obj(k)
        for k, faces in cx_expected.by_dim.items():
            assert cx.centers(k).tobytes() == np.array([c.center() for c in faces]).tobytes()
            rows = np.arange(1, len(faces), 3)
            assert cx.cubes(k, rows) == [faces[i] for i in rows]

    @pytest.mark.parametrize("case", sorted(set(CUBE_ROW_FAMILIES) - {"empty"}))
    def test_delta_touching(self, case):
        cx = cubical_complex(whitney_family(*CUBE_ROW_FAMILIES[case]))
        # the row scan takes seconds on far-puncture's 13 392 cells; 29 is its value there
        assert _max_touching(cx) == (29 if case == "far-puncture" else max_touching_oracle(cx))

    def test_complex_and_delta_touching_build_no_cubes(self, monkeypatch):
        fam = whitney_family(*CUBE_ROW_FAMILIES["ball-3d"])
        built, check = [], DyadicCube.__post_init__

        def counting(cube):
            built.append(cube)
            check(cube)

        monkeypatch.setattr(DyadicCube, "__post_init__", counting)
        _max_touching(cubical_complex(fam))
        assert len(built) == 0

    def test_grid_and_cube_soup_complexes(self, rng):
        grid = CubeFamily([DyadicCube(0, c, (0, 1, 2), 3) for c in np.ndindex(4, 4, 4)])
        assert all(faces == sorted(faces) for faces in cubical_complex(grid).by_dim.values())
        assert type(cubical_complex(grid).skeleton(1)) is type(GridComplex(3, (4, 4, 4), 0).cells[1])
        assert cubical_complex(grid).to_json() == cubical_complex_oracle(grid).to_json()
        empty = CubeFamily([])
        assert cubical_complex(empty).to_json() == cubical_complex_oracle(empty).to_json()
        assert cubical_complex(empty).index.touching.shape == (0, 2)
        with pytest.raises(ValueError, match="size-ratio"):
            cubical_complex(CubeFamily([DyadicCube(0, (0, 0), (0, 1), 2), DyadicCube(2, (4, 0), (0, 1), 2)]))

    @pytest.mark.parametrize("case", sorted(CUBE_ROW_FAMILIES))
    def test_covers_points_far_from_the_complement(self, case):
        """A bbox point farther than 3 sides of the finest level from the
        complement lies in a family cube: the cubes holding it meet the set,
        and the one at the finest level passes the Whitney test."""
        open_set, bbox, min_level, _ = CUBE_ROW_FAMILIES[case]
        fam = whitney_family(*CUBE_ROW_FAMILIES[case])
        pts = np.random.default_rng(0).uniform(bbox[0], bbox[1], (2000, len(bbox[0])))
        far = pts[open_set.dist_inf_complement(pts) > 3 * 2.0**-min_level]
        assert fam.contains_point(far).all()
        assert len(far) > 0 or case == "empty"

    @pytest.mark.parametrize("case", ["box-union-2d", "box-in-plane", "ball-3d", "punctured-plane"])
    def test_each_corner_point_once_per_level(self, case, monkeypatch):
        open_set, bbox, min_level, top_level = CUBE_ROW_FAMILIES[case]
        calls = []

        class Counting:
            contains, meets = staticmethod(open_set.contains), staticmethod(open_set.meets)

            @staticmethod
            def dist_inf_complement(x):
                calls.append(list(map(tuple, x.tolist())))
                return open_set.dist_inf_complement(x)

        fam = whitney_family(Counting(), bbox, min_level, top_level)
        measured = {}  # level -> the corner points of the cubes the queue loop measured
        real = oracles._cube_dist_inf

        def record(cube, u):
            lo, hi = cube.bounds()
            measured.setdefault(cube.level, set()).update(itertools.product(*zip(lo.tolist(), hi.tolist())))
            return real(cube, u)

        monkeypatch.setattr(oracles, "_cube_dist_inf", record)
        assert whitney_family_oracle(open_set, bbox, min_level, top_level).cubes == fam.cubes
        # one call per level, the top level's parents second
        top = fam.meta["top_level"]
        levels = [top, top - 1, *range(top + 1, max(top, min_level) + 1)]
        assert len(calls) == len(levels)
        for level, rows in zip(levels, calls):
            assert len(rows) == len(set(rows))
            assert set(rows) == measured.get(level, set())

    def test_complex_builds_no_faces(self, monkeypatch):
        fam = whitney_family(*CUBE_ROW_FAMILIES["box-union-3d"])
        expected = cubical_complex_oracle(fam).to_json()

        def refuse(self, dims=None):
            raise AssertionError("DyadicCube.faces was called")

        monkeypatch.setattr(DyadicCube, "faces", refuse)
        assert cubical_complex(CubeFamily(fam.cubes)).to_json() == expected


    def test_four_dimensional_ball(self):
        """The 4-D unit ball at min_level 3: 560 cubes from 16-corner rows."""
        args = (BallSet([0.0] * 4, 1.0), ([-1] * 4, [1] * 4), 3)
        fam, expected = whitney_family(*args), whitney_family_oracle(*args)
        assert len(fam) == 560 and fam.cubes == expected.cubes and repr(fam.meta) == repr(expected.meta)


class TestWhitneyEntryCap:
    """whitney_family refuses a level whose cubes x 2^n corners x n
    coordinates exceed MAX_WHITNEY_ENTRIES before it builds that level."""

    def test_refused_before_the_level_is_built(self, monkeypatch):
        monkeypatch.setattr(cubical, "MAX_WHITNEY_ENTRIES", 8192)
        ball, measured = BallSet([0.0, 0.0], 1.0), []

        class Counting:
            contains, meets = staticmethod(ball.contains), staticmethod(ball.meets)

            @staticmethod
            def dist_inf_complement(x):
                measured.append(x.size)
                return ball.dist_inf_complement(x)

        with pytest.raises(ValueError, match="level 5 has 1392 cubes x 2\\^2 corners x 2 coordinates, more than MAX_"):
            whitney_family(Counting(), ([-1, -1], [1, 1]), 40)
        assert len(measured) == 7 and max(measured) <= 8192  # levels -1 to 4 and the top level's parents
        whitney_family(ball, ([-1, -1], [1, 1]), 4)  # its levels stay under the cap

    @pytest.mark.parametrize("n", [24, 40])
    def test_counts_beyond_int64(self, n):
        """2^n top-level cubes of 2^n corners each, 2^80 at n = 40: counted in
        Python ints and refused before any array is made."""
        with pytest.raises(ValueError, match=rf"level -1 has {2**n} cubes x 2\^{n} corners x {n} coordinates"):
            whitney_family(BallSet([0.0] * n, 1.0), ([-1] * n, [1] * n), 3)

    def test_one_cube_of_too_many_corners(self):
        with pytest.raises(ValueError, match=r"level 0 has 1 cubes x 2\^20 corners"):
            whitney_family(BallSet([0.5] * 20, 1.0), ([0] * 20, [1] * 20), 3)


def _box_unions(n):
    """Random dyadic box unions in R^n, each with a box nested in its first
    box and one touching its first box at a corner."""
    for seed in range(4):
        boxes = _random_boxes(10 + seed, n, 4)
        lo, hi = boxes[0]
        yield BoxUnion(boxes + [((3 * lo + hi) / 4, (lo + 3 * hi) / 4), (hi, hi + 0.5)])


def _probe_rows(n, rng):
    """Points on a 1/8 lattice (on faces and corners), uniform points and far points."""
    lattice = rng.integers(-20, 21, (300, n)) / 8.0
    uniform = rng.uniform(-2.5, 2.5, (300, n))
    far = rng.choice([-1.0, 1.0], (20, n)) * 1e6
    return np.vstack([lattice, uniform, far])


class TestOpenSetRows:
    """The open sets' array forms against the point-by-point distances and
    the per-box meets rule of tests/oracles.py, byte for byte."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_box_union_rows(self, n, rng):
        for u in _box_unions(n):
            pts = _probe_rows(n, rng)
            want = np.array([dist_inf_complement_oracle(u, p) for p in pts])
            assert (want > 0).any()
            assert u.dist_inf_complement(pts).tobytes() == want.tobytes()
            lo = rng.integers(-20, 21, (300, n)) / 8.0
            hi = lo + rng.integers(1, 5, (300, n)) / 8.0
            assert u.meets(lo, hi).tolist() == [meets_oracle(u, a, b) for a, b in zip(lo, hi)]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_ball_and_puncture_rows(self, n, rng):
        centre, radius = rng.uniform(-1, 1, n), float(rng.uniform(0.5, 2))
        pts = np.vstack([centre + rng.uniform(-2.5, 2.5, (2000, n)), centre, rng.integers(-16, 17, (200, n)) / 8.0])
        lo = rng.uniform(-3, 3, (300, n))
        hi = lo + rng.uniform(0, 1, (300, n))
        for u in (BallSet(centre, radius), PuncturedPlane(centre)):
            want = np.array([dist_inf_complement_oracle(u, p) for p in pts])
            assert u.dist_inf_complement(pts).tobytes() == want.tobytes()
            assert u.meets(lo, hi).tolist() == [meets_oracle(u, a, b) for a, b in zip(lo, hi)]

    def test_non_dyadic_faces(self):
        u = BoxUnion([([0.1] * 2, [0.9] * 2)])
        assert u.dist_inf_complement([[0.5, 0.5]]).tolist() == [0.4]
        x = np.random.default_rng(0).uniform(0.1, 0.9, (2000, 2))
        x = x[u.contains(x)]
        assert u.dist_inf_complement(x).tolist() == np.minimum(x - 0.1, 0.9 - x).min(axis=1).tolist()

    def test_face_grid_cap(self):
        # 81 boxes with distinct faces cut each axis into 325 slots: counted, not built
        boxes = [([i] * 3, [1000 + i] * 3) for i in range(81)]
        assert 325**3 > cubical.MAX_FACE_CELLS
        with pytest.raises(ValueError, match=f"{325**3} slot cells"):
            BoxUnion(boxes)

    def test_shared_face_is_complement(self):
        u = BoxUnion([([-4, -4], [0.3, 4]), ([0.3, -4], [4, 4])])
        assert u.contains([[0.3, 0.0], [0.31, 0.1]]).tolist() == [False, True]
        assert u.dist_inf_complement([[0.31, 0.1]]).tolist() == [dist_inf_complement_oracle(u, [0.31, 0.1])]
        assert dist_inf_complement_oracle(u, [0.31, 0.1]) == 0.31 - 0.3
        fam = whitney_family(u, ([-1, -1], [1, 1]), 2)
        assert len(fam) and not any(c.bounds()[0][0] < 0.3 < c.bounds()[1][0] for c in fam)


def _abutting_boxes(seed, n):
    """A box cut at random non-dyadic coordinates into abutting boxes, and one
    more box that holds part of their shared faces."""
    rng = np.random.default_rng(seed)
    cuts = [np.sort(np.concatenate([[-1.5, 1.5], rng.uniform(-1.5, 1.5, 2)])) for _ in range(n)]
    boxes = [(np.array([c[i] for c, i in zip(cuts, k)]), np.array([c[i + 1] for c, i in zip(cuts, k)]))
             for k in itertools.product(range(3), repeat=n)]
    return boxes + [(np.full(n, -0.4), rng.uniform(0.0, 0.4, n))]


class TestLipschitz:
    """|d(x) - d(y)| <= |x - y|_inf on seeded pairs, which the least-corner
    rule of ``whitney_family`` relies on."""

    @staticmethod
    def _check(u, x, y):
        gap = np.abs(u.dist_inf_complement(x) - u.dist_inf_complement(y))
        assert (gap <= np.max(np.abs(x - y), axis=1) + 1e-12).all()

    @staticmethod
    def _pairs(rng, count, reach, faces):
        """Uniform points, half of them with one coordinate moved onto a face
        (``faces[j]`` lists axis j's), each with a point at most 0.3 away."""
        n = len(faces)
        x = rng.uniform(-reach, reach, (2 * count, n))
        axis = rng.integers(0, n, count)
        x[np.arange(count), axis] = [rng.choice(faces[j]) for j in axis]
        return x, x + rng.uniform(-1, 1, (2 * count, 1)) * rng.uniform(0, 0.3, (2 * count, n))

    @staticmethod
    def _faces(u):
        return [np.unique([b[j] for box in u.boxes for b in box]) for j in range(len(u.boxes[0][0]))]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_box_unions_with_shared_faces(self, n, rng):
        unions = [BoxUnion(_abutting_boxes(seed, n)) for seed in range(3)]
        if n > 1:
            unions += list(_box_unions(n))
        for u in unions:
            self._check(u, *self._pairs(rng, 300, 2.0, self._faces(u)))

    def test_ball_family_union(self, rng):
        # every face that two cubes of the 3-D ball family share is complement
        fam = whitney_family(BallSet([0.0, 0.0, 0.0], 1.0), ([-1, -1, -1], [1, 1, 1]), 4)
        u = BoxUnion([c.bounds() for c in fam])
        assert len(u.boxes) == 5584
        x, y = np.array([[0.0, 0.0, 0.0]]), np.array([[0.01, 0.02, 0.03]])
        assert u.dist_inf_complement(np.vstack([x, y])).tolist() == [0.0, 0.01]
        self._check(u, x, y)
        self._check(u, *self._pairs(rng, 150, 1.0, self._faces(u)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_ball_and_puncture(self, n, rng):
        centre = rng.uniform(-1, 1, n)
        for u in (BallSet(centre, float(rng.uniform(0.5, 2))), PuncturedPlane(centre)):
            self._check(u, *self._pairs(rng, 300, 3.0, [np.append(np.arange(-16, 17) / 16.0, c) for c in centre]))


class TestRowExports:
    """Cells leave both complexes as integer rows: the OBJ writer on rows
    against the writer on cube objects it replaced (``cubes_to_obj_oracle``),
    on the cases where its byte rules show."""

    @pytest.mark.parametrize("n, k", [(1, 0), (2, 1), (3, 2), (4, 3)])
    def test_empty_chain(self, n, k):
        rows = np.zeros(0, dtype=np.int64), np.zeros((0, n), dtype=np.int64), np.zeros((0, n), dtype=bool)
        assert cubes_to_obj(rows, k) == cubes_to_obj_oracle([], k) == "\n"

    def test_level_50_edges_merge_at_the_origin(self):
        # every end rounds to (+-0.0, +-0.0) at 12 digits: one vertex, written as first met
        cubes = [DyadicCube(50, (-1, 0), (0,), 2), DyadicCube(50, (0, 0), (0,), 2), DyadicCube(50, (0, -1), (1,), 2)]
        rows = np.full(3, 50), np.array([c.corner for c in cubes]), np.array([[1, 0], [1, 0], [0, 1]], dtype=bool)
        expected = "v -0.0 0.0 0.0\nl 1 1\nl 1 1\nl 1 1\n"
        assert cubes_to_obj(rows, 1) == cubes_to_obj_oracle(cubes, 1) == expected

    @pytest.mark.parametrize("args", [
        (PuncturedPlane([0.0, 0.0]), ([-1, -1], [1, 1]), 45),  # vertices below 1e-12 merge, -0.0 with 0.0
        (BallSet([0.0] * 4, 1.0), ([-1] * 4, [1] * 4), 2),
    ], ids=["punctured-45", "ball-4d"])
    def test_named_complexes(self, args):
        fam = whitney_family(*args)
        cx, expected = cubical_complex(fam), cubical_complex_oracle(fam)
        assert cx.by_dim == expected.by_dim and cx.to_json() == expected.to_json()
        for k in range(fam.ambient_dim + 1):
            assert cx.skeleton_to_obj(k) == expected.skeleton_to_obj(k)
        if fam.meta["min_level"] == 45:
            obj = cx.skeleton_to_obj(1)
            assert "-0.0" in obj and obj.count("v ") < cx.count(0)

    def test_exports_build_no_cubes(self, monkeypatch, rng):
        cx = cubical_complex(whitney_family(*CUBE_ROW_FAMILIES["ball-3d"]))
        grid = GridComplex(3, (3, 2, 2), 1, (-1, 0, 0))
        chain = Chain2(grid, 2, rng.random(grid.count(2)) < 0.5)
        built, check = [], DyadicCube.__post_init__

        def counting(cube):
            built.append(cube)
            check(cube)

        monkeypatch.setattr(DyadicCube, "__post_init__", counting)
        for k in range(4):
            cx.skeleton_to_obj(k)
        cx.to_json()
        chain.to_dict()
        cubes_to_obj(grid.cell_rows(2, np.flatnonzero(chain.bits)), 2)
        assert len(built) == 0


class TestCubeBounds:
    """Cube bounds at the finest level stay below 2^53: exact in int64 and in
    the float copies of ``CubeIndex.locate``."""

    def test_whitney_on_each_side(self):
        fam = whitney_family(PuncturedPlane([0.0, 0.0]), ([-1, -1], [1, 1]), 51)
        assert (fam.index.lo.min(), fam.index.hi.max()) == (-(2**52), 2**52)
        assert fam.contains_point([[0.0, 2.0**-45], [0.0, 0.0]]).tolist() == [True, False]
        for min_level in (52, 62, 64, 5000):
            with pytest.raises(ValueError, match="2\\^53"):
                whitney_family(PuncturedPlane([0.0, 0.0]), ([-1, -1], [1, 1]), min_level)

    def test_cube_index_on_each_side(self):
        for corner in (2**53 - 2, -(2**53) + 1):
            idx = CubeIndex([0], [[corner]], [[True]])
            assert (idx.lo[0, 0], idx.hi[0, 0]) == (corner, corner + 1)
        for corner in (2**53 - 1, -(2**53)):
            with pytest.raises(ValueError, match="2\\^53"):
                CubeIndex([0], [[corner]], [[True]])
        assert CubeIndex([0, 51], [[1], [0]], [[True], [True]]).hi.max() == 2**52
        for finest in (52, 2000):
            with pytest.raises(ValueError, match="2\\^53"):
                CubeIndex([0, finest], [[1], [0]], [[True], [True]])

    def test_complex_face_keys_on_each_side(self):
        for far, fits in ((2**20, True), (2**40, False)):
            fam = CubeFamily([DyadicCube(45, (0, 0), (0, 1), 2), DyadicCube(45, (far, far), (0, 1), 2)])
            if fits:
                assert cubical_complex(fam).to_json() == cubical_complex_oracle(fam).to_json()
            else:
                with pytest.raises(ValueError, match="int64 keys"):
                    cubical_complex(fam)
