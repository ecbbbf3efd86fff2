import re
import tracemalloc

import numpy as np
import pytest

from conftest import same_bits, skeleton_distance
from gmtkit import deform
from gmtkit.cubemaps import Box, SmoothMap, _punctured_jacobian_rows, punctured_cube_projection
from gmtkit.cubical import CubeFamily, DyadicCube, cubical_complex
from gmtkit.deform import (
    CenterSearchError,
    DeformationPlan,
    center_bound_constant,
    deform_one_cube,
    deform_onto_skeleton,
    image_mass_bound,
    purge_unrectifiable,
    select_center,
)
from gmtkit.grassmann import Plane
from gmtkit.sampling import four_corner_cantor, sample_disc, sample_segment
from gmtkit.varifold import DiscreteVarifold, covering_measure, pushforward
from oracles import (candidate_singular_values_oracle, candidate_singular_values_rows_oracle, pushforward_oracle,
                     select_center_oracle)

H = Plane.axis(3, (0, 1))


def sample_circle(radius=1.0, count=2000, center=None, ambient=3, axes=(0, 1)):
    """Evenly spaced samples of a circle; weights sum to the circumference."""
    th = 2 * np.pi * (np.arange(count) + 0.5) / count
    pts = np.zeros((count, ambient))
    pts[:, axes[0]] = radius * np.cos(th)
    pts[:, axes[1]] = radius * np.sin(th)
    if center is not None:
        pts += np.asarray(center, dtype=float)
    tangents = np.zeros((count, ambient))
    tangents[:, axes[0]] = -np.sin(th)
    tangents[:, axes[1]] = np.cos(th)
    return pts, np.full(count, 2 * np.pi * radius / count), tangents


def unit_grid_3d(cells=4):
    fam = CubeFamily(
        [DyadicCube(0, (i, j, k), (0, 1, 2), 3) for i in range(cells) for j in range(cells) for k in range(cells)]
    )
    return fam, cubical_complex(fam)


def disc_in_grid(count=5000, seed=3):
    pts, w = sample_disc(1.3, count, seed=seed, center=[2.0, 2.0, 2.05])
    return DiscreteVarifold.flat(pts, H, w)


CUBE3 = DyadicCube(0, (0, 0, 0), (0, 1, 2), 3)


class TestSelectCenter:
    def test_empty_measures_center(self):
        a, info = select_center(CUBE3, [], 0.2)
        assert np.array_equal(a, CUBE3.center())
        assert info["branch"] == "empty"

    def test_averaged_branch_bound(self, rng):
        pts, w = sample_disc(0.5, 2000, seed=2, center=[0.5, 0.5, 0.5])
        v = DiscreteVarifold.flat(pts, H, w)
        a, info = select_center(CUBE3, [v], 0.2, rng=np.random.default_rng(0))
        assert info["branch"] == "averaged"
        # centre lies in the middle half of the cube
        assert np.all(np.abs(a - 0.5) <= 0.25 + 1e-12)
        assert info["ratios"][0] <= info["bounds"][0]
        # the single-measure averaged bound holds with the module constant
        assert info["ratios"][0] <= center_bound_constant(3, 2) * 1.5

    def test_off_support_branch(self, rng):
        square = DyadicCube(0, (0, 0, 0), (0, 1), 3)
        pts, w = sample_segment([0.2, 0.2, 0.0], [0.8, 0.8, 0.0], 200)
        v = DiscreteVarifold.flat(pts, Plane.axis(3, (0, 1)), w)
        a, info = select_center(square, [v], 0.1, rng=np.random.default_rng(1))
        assert info["branch"] == "off-support"
        assert info["clearance"] > 0.01
        assert np.min(np.linalg.norm(pts - a, axis=1)) == pytest.approx(info["clearance"])

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected(self, budget):
        pts, w = sample_disc(0.5, 200, seed=2, center=[0.5, 0.5, 0.5])
        v = DiscreteVarifold.flat(pts, H, w)
        with pytest.raises(ValueError, match="budget"):
            select_center(CUBE3, [v], 0.2, budget=budget)

    def test_deterministic_given_seed(self):
        pts, w = sample_disc(0.5, 500, seed=2, center=[0.5, 0.5, 0.5])
        v = DiscreteVarifold.flat(pts, H, w)
        a1, _ = select_center(CUBE3, [v], 0.2, rng=np.random.default_rng(5))
        a2, _ = select_center(CUBE3, [v], 0.2, rng=np.random.default_rng(5))
        assert np.array_equal(a1, a2)


SQUARE = DyadicCube(0, (0, 0, 0), (0, 1), 3)


def _disc(count, seed=2, center=(0.5, 0.5, 0.5)):
    pts, w = sample_disc(0.5, count, seed=seed, center=list(center))
    return DiscreteVarifold.flat(pts, H, w)


def _segment(start, end, count):
    pts, w = sample_segment(start, end, count)
    return DiscreteVarifold.flat(pts, Plane.axis(3, (0,)), w)


class FixedDraws:
    """Stands in for the generator: uniform() returns prepared candidates."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def uniform(self, low, high, size):
        assert size == self.draws.shape
        return self.draws.copy()


def _assert_same_choice(cube, measures, eps, make_rng, **kw):
    rng, rng_ref = make_rng(), make_rng()
    a, info = select_center(cube, measures, eps, rng=rng, **kw)
    a_ref, info_ref = select_center_oracle(cube, measures, eps, rng=rng_ref, **kw)
    assert a.tobytes() == a_ref.tobytes()
    assert info == info_ref
    if isinstance(rng, np.random.Generator):
        assert rng.random() == rng_ref.random()  # the same draws were consumed
    return info


class TestSelectCenterOracle:
    """The stacked candidate evaluation against the per-candidate loop."""

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_one_measure_k3(self, budget):
        info = _assert_same_choice(CUBE3, [_disc(400)], 0.2, lambda: np.random.default_rng(3),
                                   budget=budget)
        assert info["branch"] == "averaged" and info["candidates_tried"] == budget

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_two_measures_k3(self, budget):
        measures = [_disc(300), _segment([0.1, 0.2, 0.45], [0.9, 0.7, 0.55], 150)]
        info = _assert_same_choice(CUBE3, measures, 0.2, lambda: np.random.default_rng(4),
                                   budget=budget)
        assert len(info["ratios"]) == 2

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_one_measure_k2(self, budget):
        v = _segment([0.1, 0.2, 0.0], [0.9, 0.7, 0.0], 250)
        info = _assert_same_choice(SQUARE, [v], 0.1, lambda: np.random.default_rng(5),
                                   budget=budget)
        assert info["branch"] == "averaged"

    @pytest.mark.parametrize("rows", [1, 2.5])
    def test_candidates_spanning_chunks(self, rows, monkeypatch):
        # chunks of one candidate, and of two with a shorter last chunk
        v = _disc(400)
        samples = int(np.count_nonzero(deform._restrict_near_cube(v, CUBE3, 0.2)))
        monkeypatch.setattr(deform, "CANDIDATE_ROWS", int(rows * samples))
        _assert_same_choice(CUBE3, [v, _segment([0.2, 0.2, 0.5], [0.8, 0.3, 0.5], 90)], 0.2,
                            lambda: np.random.default_rng(6), budget=7)

    def test_samples_above_row_cap(self):
        v = _disc(deform.CANDIDATE_ROWS + 1000, seed=7)
        assert np.count_nonzero(deform._restrict_near_cube(v, CUBE3, 0.2)) > deform.CANDIDATE_ROWS
        _assert_same_choice(CUBE3, [v], 0.2, lambda: np.random.default_rng(7), budget=3)

    def test_zero_coordinates(self):
        draws = np.random.default_rng(8).uniform(-0.5, 0.5, (6, 3))
        draws[0] = 0.0
        draws[1, 0] = 0.0
        draws[2, 1:] = [0.0, -0.0]
        draws[3, 2] = -0.0
        _assert_same_choice(CUBE3, [_disc(400, center=(0.52, 0.47, 0.5))], 0.2,
                            lambda: FixedDraws(draws), budget=6)
        _assert_same_choice(SQUARE, [_segment([0.1, 0.2, 0.0], [0.9, 0.7, 0.0], 250)], 0.1,
                            lambda: FixedDraws([[0.0, 0.3], [0.0, 0.0], [-0.2, 0.0]]), budget=3)

    def test_tied_candidates(self):
        # the winner drawn again last: the first copy wins, as in the loop
        draws = np.random.default_rng(13).uniform(-0.5, 0.5, (5, 3))
        a, info = select_center(CUBE3, [_disc(400)], 0.2, rng=FixedDraws(draws), budget=5)
        first = int(np.flatnonzero(np.all(CUBE3.center() + draws * CUBE3.side / 2.0 == a, axis=1))[0])
        tied = np.vstack([draws, draws[first]])
        tied_info = _assert_same_choice(CUBE3, [_disc(400)], 0.2, lambda: FixedDraws(tied), budget=6)
        assert tied_info["growth_estimate"] == info["growth_estimate"]

    def test_failure_message(self):
        with pytest.raises(CenterSearchError) as new:
            select_center(CUBE3, [_disc(300)], 0.2, rng=np.random.default_rng(9), budget=5,
                          slack=-1.0)
        with pytest.raises(CenterSearchError) as ref:
            select_center_oracle(CUBE3, [_disc(300)], 0.2, rng=np.random.default_rng(9),
                                 budget=5, slack=-1.0)
        assert str(new.value) == str(ref.value)

    @pytest.mark.parametrize("budget", [1, 7, 64])
    @pytest.mark.parametrize("cap", [None, 600])
    def test_off_support(self, budget, cap, monkeypatch):
        if cap is not None:  # two or three candidates per chunk
            monkeypatch.setattr(deform, "CANDIDATE_ROWS", cap)
        pts, w = sample_segment([0.2, 0.2, 0.0], [0.8, 0.8, 0.0], 200)
        v = DiscreteVarifold.flat(pts, Plane.axis(3, (0, 1)), w)
        info = _assert_same_choice(SQUARE, [v], 0.1, lambda: np.random.default_rng(10),
                                   budget=budget)
        assert info["branch"] == "off-support"


SQUARE2 = DyadicCube(0, (0, 0), (0, 1), 2)


def _segment_and_cantor():
    """A square's worth of the purge workload: a segment on the square's lower
    edge and a Cantor set, whose recentred rows are mostly shared between
    candidates."""
    seg_pts, seg_w = sample_segment([0.1, 0.0], [0.9, 0.0], 200)
    cpts, cw = four_corner_cantor(4, angle=0.004)
    return [DiscreteVarifold.flat(seg_pts, Plane.axis(2, (0,)), seg_w),
            DiscreteVarifold.isotropic_set(cpts, cw, 1)]


class TestCandidateRowDedup:
    """select_center with the row dedup against the chain run on every row."""

    def _assert_same_as_every_row(self, cube, measures, eps, seed, monkeypatch, **kw):
        a, info = select_center(cube, measures, eps, rng=np.random.default_rng(seed), **kw)
        with monkeypatch.context() as patch:
            patch.setattr(deform, "_candidate_singular_values", candidate_singular_values_oracle)
            a_ref, info_ref = select_center(cube, measures, eps, rng=np.random.default_rng(seed),
                                            **kw)
        assert a.tobytes() == a_ref.tobytes()
        assert info == info_ref
        return info

    @pytest.mark.parametrize("rows", [None, 1])
    def test_matches_every_row_path(self, rows, monkeypatch):
        measures = [_disc(300), _segment([0.1, 0.2, 0.45], [0.9, 0.7, 0.55], 150)]
        if rows is not None:  # one candidate per chunk
            monkeypatch.setattr(deform, "CANDIDATE_ROWS", rows)
        info = self._assert_same_as_every_row(CUBE3, measures, 0.2, 11, monkeypatch, budget=9)
        assert info["branch"] == "averaged"

    @pytest.mark.parametrize("rows", [None, 1])
    def test_segment_and_cantor_square(self, rows, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(deform, "CANDIDATE_ROWS", rows)
        measures = _segment_and_cantor()
        _assert_same_choice(SQUARE2, measures, 0.1, lambda: np.random.default_rng(12))
        self._assert_same_as_every_row(SQUARE2, measures, 0.1, 12, monkeypatch)

    def test_debug_line_counts_rows(self, caplog, monkeypatch):
        chunks = []  # (rows, distinct rows) of each chunk

        def counted(centres, x, eps):
            jac, inverse = _punctured_jacobian_rows(centres, x, eps)
            chunks.append((inverse.size, len(jac)))
            return jac, inverse

        monkeypatch.setattr(deform, "_punctured_jacobian_rows", counted)
        measures = _segment_and_cantor()
        with caplog.at_level("DEBUG", logger="gmtkit.deform"):
            _, info = select_center(SQUARE2, measures, 0.1, rng=np.random.default_rng(12))
        lines = [r.getMessage() for r in caplog.records if r.name == "gmtkit.deform"]
        samples = sum(np.count_nonzero(deform._restrict_near_cube(v, SQUARE2, 0.1)) for v in measures)
        rows, distinct = np.sum(chunks, axis=0)
        assert info["branch"] == "averaged" and rows == 64 * samples
        assert lines == [f"select_center: {samples} sample positions, {samples} distinct; "
                         f"{rows} candidate rows, {distinct} distinct"]
        assert distinct < rows / 2


def _haar_copies(v):
    """v with each isotropic sample turned into its 16 Haar copies at its own
    position, as the purge's first transport leaves the unrectifiable part."""
    return pushforward(SmoothMap.identity(v.ambient_dim), v)


def _rows_path(patch):
    """Run the centre search and the stage transport on every row of a set,
    Haar copies included, as before the position dedup."""
    patch.setattr(deform, "_candidate_singular_values", candidate_singular_values_rows_oracle)
    patch.setattr(deform, "pushforward", pushforward_oracle)


def _selections(plan):
    return [stage.map.meta["selection"] for stage in plan.stages]


class TestPositionDedup:
    """select_center and the stage transport evaluate each bitwise-distinct
    sample position once: the same choices, plans and sets as the path that
    evaluates every row."""

    @pytest.mark.parametrize("rows", [None, 1, 3000])
    def test_select_center_on_haar_copies(self, rows, monkeypatch):
        if rows is not None:  # one candidate per chunk, or a few with a shorter last chunk
            monkeypatch.setattr(deform, "CANDIDATE_ROWS", rows)
        seg, cantor = _segment_and_cantor()
        measures = [seg, _haar_copies(cantor)]
        a, info = select_center(SQUARE2, measures, 0.1, rng=np.random.default_rng(12))
        with monkeypatch.context() as patch:
            _rows_path(patch)
            a_ref, info_ref = select_center(SQUARE2, measures, 0.1, rng=np.random.default_rng(12))
        assert a.tobytes() == a_ref.tobytes()
        assert info == info_ref and info["branch"] == "averaged"

    def test_debug_line_counts_positions(self, caplog):
        seg, cantor = _segment_and_cantor()
        measures = [seg, _haar_copies(cantor)]
        with caplog.at_level("DEBUG", logger="gmtkit.deform"):
            select_center(SQUARE2, measures, 0.1, rng=np.random.default_rng(12))
        (line,) = [r.getMessage() for r in caplog.records if r.name == "gmtkit.deform"]
        u = np.vstack([deform._inplane_coordinates(SQUARE2, v.points[deform._restrict_near_cube(v, SQUARE2, 0.1)])[0]
                       for v in measures])
        distinct = len({row.tobytes() for row in u})
        got = re.fullmatch(r"select_center: (\d+) sample positions, (\d+) distinct; "
                           r"(\d+) candidate rows, (\d+) distinct", line)
        assert got, line
        assert [int(got[1]), int(got[2]), int(got[3])] == [len(u), distinct, 64 * distinct]
        assert int(got[4]) <= 64 * distinct and 8 * distinct < len(u)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_purge_matches_rows_path(self, seed, monkeypatch):
        # the purge_cantor benchmark's purge
        cpts, cw = four_corner_cantor(5, angle=0.004)
        s_u = DiscreteVarifold.isotropic_set(cpts, cw, 1)
        seg_pts, seg_w = sample_segment([0.1, -0.25], [1.1, -0.25], 512)
        s_r = DiscreteVarifold.flat(seg_pts, Plane.axis(2, (0,)), seg_w)
        args, kw = (s_r, s_u, ([-1.0, -1.0], [2.0, 2.0]), 0.2), {"min_level": 3, "cluster_gap": 0.2, "seed": seed}
        g, report = purge_unrectifiable(*args, **kw)
        with monkeypatch.context() as patch:
            _rows_path(patch)
            g_ref, report_ref = purge_unrectifiable(*args, **kw)
        plan, plan_ref = report["plan"], report_ref["plan"]
        assert plan.to_json() == plan_ref.to_json()
        assert _selections(plan) == _selections(plan_ref)
        assert repr(report["rho"]) == repr(report_ref["rho"])
        for v in (s_r, s_u):
            assert g.value(v.points).tobytes() == g_ref.value(v.points).tobytes()
            assert same_bits(pushforward(g, v), pushforward_oracle(g_ref, v))

    @pytest.mark.parametrize("seed", [2, 3])
    def test_skeleton_plan_with_isotropic_rows(self, seed, monkeypatch):
        family, complex_ = unit_grid_3d(2)
        pts, w = sample_disc(0.7, 300, seed=seed, center=[1.0, 1.0, 1.05])
        rng = np.random.default_rng(seed)
        iso = DiscreteVarifold.isotropic_set(rng.uniform(0.2, 1.8, (60, 3)), rng.random(60) / 60, 2)
        sets = [DiscreteVarifold.flat(pts, H, w), iso]
        plan, _, f1 = deform_onto_skeleton(family, complex_, sets, 2, 0.05, seed=seed, budget=16)
        with monkeypatch.context() as patch:
            _rows_path(patch)
            plan_ref, _, f1_ref = deform_onto_skeleton(family, complex_, sets, 2, 0.05, seed=seed, budget=16)
        assert plan.to_json() == plan_ref.to_json() and len(plan.stages) > 1
        assert _selections(plan) == _selections(plan_ref)
        for v in (*sets, _haar_copies(iso)):
            assert same_bits(pushforward(f1, v), pushforward_oracle(f1_ref, v))


class TestStageMapRows:
    """Each stage map gives a row the bytes that row gets alone, in a batch
    with duplicated and permuted rows, signed zeros included: the property
    that lets a batch be evaluated once per distinct position."""

    @staticmethod
    def _check(phi, pts, rng):
        batch = np.vstack([pts, pts[::3], pts[:4]])[rng.permutation(len(pts) + len(pts[::3]) + 4)]
        val, jac = phi.value_and_jacobian(batch)
        only = phi.value(batch)
        moved = 0
        for x, v, j, o in zip(batch, val, jac, only):
            v1, j1 = phi.value_and_jacobian(x[None])
            assert v.tobytes() == v1[0].tobytes() == o.tobytes() and j.tobytes() == j1[0].tobytes(), x
            moved += not np.array_equal(v, x)
        assert moved > len(batch) // 4

    @staticmethod
    def _signed_zeros(pts, axes):
        """pts with a copy of its first rows at +0.0 and at -0.0 on the given axes."""
        plus, minus = pts[:6].copy(), pts[:6].copy()
        plus[:, axes], minus[:, axes] = 0.0, -0.0
        return np.vstack([pts, plus, minus])

    def test_cube_map(self, rng):
        # the square z = 0 of [0, 1]^3: a freeze ball, the cut-off in z and the edge x = 0
        phi = deform._cube_map(SQUARE, [0.55, 0.4, 0.0], 0.2, 0.04, {})
        pts = np.column_stack([rng.uniform(-0.1, 1.1, (60, 2)), rng.uniform(-0.15, 0.15, 60)])
        pts[:3] = [0.55, 0.4, 0.0]
        self._check(phi, self._signed_zeros(self._signed_zeros(pts, [2]), [0]), rng)

    @pytest.mark.parametrize("n", [2, 3])
    def test_punctured_cube_projection(self, n, rng):
        phi = punctured_cube_projection(rng.uniform(-0.4, 0.4, n), 0.1)
        pts = rng.uniform(-1.2, 1.2, (60, n))
        self._check(phi, self._signed_zeros(self._signed_zeros(pts, [0]), list(range(1, n))), rng)

    def test_composite_of_stages(self, rng):
        family, complex_ = unit_grid_3d(2)
        pts, w = sample_disc(0.7, 300, seed=4, center=[1.0, 1.0, 1.05])
        plan, _, _ = deform_onto_skeleton(family, complex_, [DiscreteVarifold.flat(pts, H, w)], 2, 0.05,
                                          seed=4, budget=16)
        phi = plan.compose_stages()
        assert len(plan.stages) > 1
        probes = np.vstack([pts[::5], rng.uniform(0.0, 2.0, (20, 3))])
        self._check(phi, self._signed_zeros(np.vstack([probes, [[1.0, 1.0, 1.0]]]), [0]), rng)


# tracemalloc peaks (bytes) of one full chunk of _candidate_singular_values
# with all 8160 recentred rows distinct, measured before the chain skipped
# its known work (numpy 2.4.6); a chunk may not grow its live set past them
# by more than CHUNK_PEAK_MARGIN
CHUNK_PEAKS = {2: 2_412_483, 3: 4_199_243}
CHUNK_PEAK_MARGIN = 200_000
# tracemalloc peak (bytes) of one whole select_center call on that k = 3
# input, measured with the per-candidate scoring loop (numpy 2.4.6)
SEARCH_PEAK = 4_219_950


class TestCandidateChunkPeak:
    """The live set of one candidate chunk, which sets deform_disc's peak RSS."""

    @pytest.mark.parametrize("k", sorted(CHUNK_PEAKS))
    def test_traced_peak_of_one_chunk(self, k):
        rng = np.random.default_rng(7)
        u = rng.uniform(-0.6, 0.6, (680, k))  # clear of the cutoffs: no two rows merge
        cand = rng.uniform(-0.5, 0.5, (deform.CANDIDATE_ROWS // len(u), k))
        assert len(_punctured_jacobian_rows(cand, u, 0.000566)[0]) == len(cand) * len(u) == 8160
        for _ in deform._candidate_singular_values(cand, u, 0.000566):  # first-call allocations
            pass
        tracemalloc.start()
        try:
            for _ in deform._candidate_singular_values(cand, u, 0.000566):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= CHUNK_PEAKS[k] + CHUNK_PEAK_MARGIN, peak

    def test_traced_peak_of_one_search(self):
        # the whole select_center call on the same input at k = 3: scoring the
        # chunk as arrays may not grow the live set past the per-candidate loop
        rng = np.random.default_rng(7)
        u = rng.uniform(-0.6, 0.6, (680, 3))
        cand = rng.uniform(-0.5, 0.5, (deform.CANDIDATE_ROWS // len(u), 3))
        v = DiscreteVarifold.flat(0.5 + u / 2.0, H, np.full(len(u), 1.0 / len(u)))
        eps = 0.000566 / np.sqrt(2.0)
        _, info = select_center(CUBE3, [v], eps, rng=FixedDraws(cand), budget=len(cand))
        assert info["branch"] == "averaged"
        tracemalloc.start()
        try:
            select_center(CUBE3, [v], eps, rng=FixedDraws(cand), budget=len(cand))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= SEARCH_PEAK + CHUNK_PEAK_MARGIN, peak


class TestDeformOneCube:
    def test_identity_far_from_cube(self, rng):
        pts, w = sample_disc(0.4, 500, seed=1, center=[0.5, 0.5, 0.5])
        vf = DiscreteVarifold.flat(pts, H, w)
        phi = deform_one_cube(CUBE3, [vf], 0.2, rng=np.random.default_rng(0))
        far = np.array([[1.4, 0.5, 0.5], [0.5, 0.5, -0.25], [2.0, 2.0, 2.0]])
        assert np.array_equal(phi.value(far), far)

    def test_samples_land_on_boundary(self):
        pts, w = sample_disc(0.5, 2000, seed=2, center=[0.5, 0.5, 0.5])
        vf = DiscreteVarifold.flat(pts, H, w)
        phi = deform_one_cube(CUBE3, [vf], 0.2, rng=np.random.default_rng(0))
        img = phi.value(pts)
        lo, hi = CUBE3.bounds()
        face_dist = np.minimum(img - lo, hi - img).min(axis=1)
        assert np.abs(face_dist).max() <= 1e-12

    def test_derivative_bounded_near_boundary(self, rng):
        pts, w = sample_disc(0.5, 800, seed=2, center=[0.5, 0.5, 0.5])
        vf = DiscreteVarifold.flat(pts, H, w)
        eps = 0.2
        phi = deform_one_cube(CUBE3, [vf], eps, rng=np.random.default_rng(0))
        probes = rng.uniform(0, 1, (4000, 3))
        near = probes[np.minimum(probes, 1 - probes).min(axis=1) <= eps]
        norms = np.linalg.svd(phi.jacobian(near), compute_uv=False)[:, 0]
        assert np.isfinite(norms.max())
        assert norms.max() < 200.0

    def test_measure_integral_bound_reported(self):
        pts, w = sample_disc(0.5, 2000, seed=2, center=[0.5, 0.5, 0.5])
        vf = DiscreteVarifold.flat(pts, H, w)
        phi = deform_one_cube(CUBE3, [vf], 0.2, rng=np.random.default_rng(0))
        norms = np.linalg.svd(phi.jacobian(pts), compute_uv=False)[:, 0]
        gamma_emp = float(np.sum(w * norms**2) / np.sum(w))
        assert gamma_emp < center_bound_constant(3, 2)

    def test_jacobian_matches_fd(self, rng):
        pts, w = sample_disc(0.5, 300, seed=2, center=[0.5, 0.5, 0.5])
        vf = DiscreteVarifold.flat(pts, H, w)
        phi = deform_one_cube(CUBE3, [vf], 0.2, rng=np.random.default_rng(0))
        probes = rng.uniform(-0.1, 1.1, (400, 3))
        a = np.array(phi.meta["center"])
        probes = probes[np.linalg.norm(probes - a, axis=1) > 2 * phi.meta["freeze_radius"]]
        fd = phi.jacobian_fd(probes)
        assert np.abs(phi.jacobian(probes) - fd).max() <= 2e-5

    def test_support_box_maps_into_itself(self, rng):
        # basic-deformation structure: supported in a convex set it preserves
        pts, w = sample_disc(0.4, 300, seed=1, center=[0.5, 0.5, 0.5])
        vf = DiscreteVarifold.flat(pts, H, w)
        eps = 0.2
        phi = deform_one_cube(CUBE3, [vf], eps, rng=np.random.default_rng(0))
        box = rng.uniform(-eps, 1 + eps, (2000, 3))
        img = phi.value(box)
        assert np.all((img >= -eps - 1e-12) & (img <= 1 + eps + 1e-12))

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            deform_one_cube(CUBE3, [], 0.3)


class TestDeformOntoSkeleton:
    def setup_method(self):
        self.family, self.complex = unit_grid_3d()

    def test_empty_sets_give_identity_plan(self):
        plan, g1, f1 = deform_onto_skeleton(self.family, self.complex, [], 2, 0.05)
        assert len(plan.stages) == 0
        x = np.array([[0.5, 0.5, 0.5]])
        assert np.array_equal(g1.value(x), x)
        assert np.array_equal(f1.value(x), x)

    def test_disc_desk_instance(self):
        v = disc_in_grid()
        plan, g1, f1 = deform_onto_skeleton(self.family, self.complex, [v], 2, 0.05, seed=1)
        img = g1.value(v.points)
        d = skeleton_distance(img, self.complex.skeleton(2))
        assert (d <= 0.05 / 4).all()
        ratio = pushforward(g1, v).mass() / v.mass()
        assert np.isfinite(ratio) and 0.5 < ratio < 10.0

    def test_identity_outside_g_eps(self, rng):
        v = disc_in_grid(count=2000)
        plan, g1, f1 = deform_onto_skeleton(self.family, self.complex, [v], 2, 0.05, seed=1)
        probes = rng.uniform(-1.0, 5.0, (3000, 3))
        outside = probes[
            np.linalg.norm(probes - np.clip(probes, 0, 4), axis=1) > 0.05
        ]
        assert np.array_equal(f1.value(outside), outside)

    def test_cube_preservation(self, rng):
        v = disc_in_grid(count=2000)
        plan, g1, f1 = deform_onto_skeleton(self.family, self.complex, [v], 2, 0.05, seed=1)
        for cube in list(self.family)[:8]:
            lo, hi = cube.bounds()
            pts = rng.uniform(lo, hi, (200, 3))
            img = f1.value(pts)
            assert np.all((img >= lo - 1e-9) & (img <= hi + 1e-9))

    def test_monotone_stage_descent(self):
        # after the descent, no sample sits in the interior of any 3-cube
        v = disc_in_grid(count=2000)
        plan, g1, f1 = deform_onto_skeleton(self.family, self.complex, [v], 2, 0.05, seed=1)
        img = g1.value(v.points)
        for cube in self.family:
            lo, hi = cube.bounds()
            strictly_inside = np.all((img > lo + 1e-9) & (img < hi - 1e-9), axis=1)
            assert not strictly_inside.any()

    def test_full_or_empty_census(self):
        from gmtkit.deform import _coverage_fraction, _inplane_coordinates

        v = disc_in_grid()
        plan, g1, f1 = deform_onto_skeleton(self.family, self.complex, [v], 2, 0.05, seed=1)
        img = f1.value(v.points)
        partial = 0
        for cube in self.complex.skeleton(2):
            u, z, _, _ = _inplane_coordinates(cube, img)
            inside = np.all(np.abs(u) < 1 - 1e-9, axis=1) & (np.linalg.norm(z, axis=1) <= 1e-9)
            if not inside.any():
                continue
            if _coverage_fraction(cube, img[inside]) < 0.98:
                partial += 1
        assert partial == 0

    def test_circle_lands_in_one_skeleton(self):
        pts, w, tan = sample_circle(1.3, 2000, center=[2.0, 2.0, 2.05])
        v = DiscreteVarifold(pts, tan[:, :, None], w)
        plan, g1, f1 = deform_onto_skeleton(self.family, self.complex, [v], 1, 0.05, seed=2)
        img = f1.value(pts)
        d = skeleton_distance(img, self.complex.skeleton(1))
        assert (d <= 0.05 / 4).all()

    def test_homotopy_endpoints_and_identity(self, rng):
        v = disc_in_grid(count=1500)
        plan, g1, f1 = deform_onto_skeleton(self.family, self.complex, [v], 2, 0.05, seed=1)
        x = v.points[:50]
        assert np.array_equal(plan.homotopy(0.0, x), x)
        assert np.abs(plan.homotopy(1.0, x) - f1.value(x)).max() <= 1e-12
        exterior = rng.uniform(4.2, 6.0, (100, 3))
        for t in (0.17, 0.5, 0.83):
            assert np.array_equal(plan.homotopy(t, exterior), exterior)

    def test_stage_descent_is_monotone(self):
        # after each descent stage, samples avoid the interiors of every
        # already-processed cube
        v = disc_in_grid(count=1500)
        plan, g1, f1 = deform_onto_skeleton(self.family, self.complex, [v], 2, 0.05, seed=1)
        pts = v.points
        done = []
        for stage in plan.stages[: plan.descent_count]:
            pts = stage.map.value(pts)
            done.append(stage.cube)
            for cube in done:
                lo, hi = cube.bounds()
                inside = np.all((pts > lo + 1e-9) & (pts < hi - 1e-9), axis=1)
                assert not inside.any()

    def test_homotopy_measure_estimate_finite(self):
        v = disc_in_grid(count=1500)
        plan, g1, f1 = deform_onto_skeleton(self.family, self.complex, [v], 2, 0.05, seed=1)
        est = plan.homotopy_mass_estimate(v)
        delta = self.family.max_side()
        gamma = est / (delta * v.mass())
        assert np.isfinite(gamma) and gamma > 0

    def test_plan_replay_bitwise(self):
        v = disc_in_grid(count=1500)
        plan, g1, f1 = deform_onto_skeleton(self.family, self.complex, [v], 2, 0.05, seed=1)
        replay = DeformationPlan.from_json(plan.to_json())
        searched, replayed = plan.compose_stages(), replay.compose_stages()
        assert searched.value(v.points).tobytes() == replayed.value(v.points).tobytes()
        ours, theirs = pushforward(searched, v), pushforward(replayed, v)
        for attr in ("points", "frames", "weights"):
            a, b = getattr(ours, attr), getattr(theirs, attr)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), attr

    def test_stage_error_reports_plan_index(self, monkeypatch):
        # the disc touches none of the first candidate cubes, so the failing
        # stage's plan index (0) differs from its index among the candidates
        import gmtkit.deform as deform

        def fail(cube, *args, **kwargs):
            raise deform.CenterSearchError(f"no centre in {cube}")

        monkeypatch.setattr(deform, "deform_one_cube", fail)
        with pytest.raises(deform.StageError) as info:
            deform_onto_skeleton(self.family, self.complex, [disc_in_grid(count=500)], 2, 0.05)
        assert info.value.stage == 0
        assert info.value.cube != DyadicCube(0, (0, 0, 0), (0, 1, 2), 3)

    def test_eps_range_checked(self):
        with pytest.raises(ValueError):
            deform_onto_skeleton(self.family, self.complex, [], 2, 0.2)

    def test_mass_ratio_stable_across_rotations(self):
        from gmtkit.sampling import random_rotation, rotate_about

        ratios = []
        base_pts, w = sample_disc(1.3, 3000, seed=3, center=[2.0, 2.0, 2.05])
        for k in range(3):
            rot = random_rotation(3, seed=100 + k)
            pts = rotate_about(base_pts, [2.0, 2.0, 2.05], rot)
            frame = rot @ H.frame
            v = DiscreteVarifold.flat(pts, Plane(frame), w)
            plan, g1, f1 = deform_onto_skeleton(self.family, self.complex, [v], 2, 0.05, seed=7)
            ratios.append(pushforward(g1, v).mass() / v.mass())
        mean = float(np.mean(ratios))
        assert all(abs(r - mean) <= 0.2 * mean for r in ratios)


class TestImageMassBound:
    def test_identity(self):
        v = disc_in_grid(count=3000)
        lhs, rhs, meta = image_mass_bound(SmoothMap.identity(3), v, None)
        assert rhs == pytest.approx(v.mass())
        assert lhs <= rhs * 1.25

    def test_scaling(self):
        v = disc_in_grid(count=3000)
        half = SmoothMap.affine(0.5 * np.eye(3))
        lhs, rhs, _ = image_mass_bound(half, v, None)
        assert rhs == pytest.approx(v.mass() * 0.25)
        assert lhs <= rhs * 1.25

    def test_rank_collapse(self):
        v = disc_in_grid(count=1000)
        proj = np.zeros((3, 3))
        proj[0, 0] = 1.0
        collapse = SmoothMap.affine(proj)
        lhs, rhs, _ = image_mass_bound(collapse, v, None, resolution=0.05)
        assert lhs <= rhs + 1e-6 or lhs < 0.3  # image is a segment: tiny 2-measure

    def test_region_restriction(self):
        v = disc_in_grid(count=2000)
        region = Box([1.5, 1.5, 1.5], [2.5, 2.5, 2.5])
        lhs, rhs, _ = image_mass_bound(SmoothMap.identity(3), v, region)
        assert rhs < v.mass()


class TestPurge:
    def test_empty_unrectifiable_reduces_to_deformation(self):
        seg_pts, seg_w = sample_segment([0.2, 0.5], [0.8, 0.5], 300)
        s_r = DiscreteVarifold.flat(seg_pts, Plane.axis(2, (0,)), seg_w)
        s_u = DiscreteVarifold.isotropic_set(np.zeros((0, 2)), np.zeros(0), 1)
        g, report = purge_unrectifiable(s_r, s_u, ([-0.5, -0.5], [1.5, 1.5]), 0.5, min_level=4)
        assert report["rho"] is None

    def test_cantor_with_segment(self):
        # the composite transports the rectifiable part with a bounded factor
        # and its perturbation obeys the deviation bound; the box-counting
        # ratio of the unrectifiable part is reported (the epsilon-killing
        # check itself runs against a straight-fibre map, see test_cubemaps)
        cpts, cw = four_corner_cantor(6, angle=0.004)
        s_u = DiscreteVarifold.isotropic_set(cpts, cw, 1)
        seg_pts, seg_w = sample_segment([0.1, -0.25], [1.1, -0.25], 1024)
        s_r = DiscreteVarifold.flat(seg_pts, Plane.axis(2, (0,)), seg_w)
        g, report = purge_unrectifiable(
            s_r, s_u, ([-1.0, -1.0], [2.0, 2.0]), 0.2, min_level=4, cluster_gap=0.2
        )
        res = 0.25**6
        cantor_in, _ = covering_measure(cpts, 1, res)
        cantor_out, _ = covering_measure(g.value(cpts), 1, res)
        assert np.isfinite(cantor_out / cantor_in)
        assert report["rho"]["balls"]
        seg_res = 1.0 / 512
        seg_in, _ = covering_measure(seg_pts, 1, seg_res)
        seg_out, _ = covering_measure(g.value(seg_pts), 1, seg_res)
        gamma_emp = seg_out / seg_in
        assert np.isfinite(gamma_emp) and gamma_emp < 10.0

    def test_vacuous_bound_eps_one(self):
        cpts, cw = four_corner_cantor(4, angle=0.004)
        s_u = DiscreteVarifold.isotropic_set(cpts, cw, 1)
        s_r = DiscreteVarifold(np.zeros((0, 2)), np.zeros((0, 2, 1)), np.zeros(0))
        g, report = purge_unrectifiable(
            s_r, s_u, ([-1.0, -1.0], [2.0, 2.0]), 1.0, min_level=4, cluster_gap=0.2
        )
        res = 0.25**4
        out, _ = covering_measure(g.value(cpts), 1, res)
        inp, _ = covering_measure(cpts, 1, res)
        assert out <= 1.0 * inp * 1.5
