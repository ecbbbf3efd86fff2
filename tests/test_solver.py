import contextlib
import itertools
import json
import logging
import math
import signal
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import square_cycle
from oracles import (
    audit_minimizer_oracle,
    boundary_matrix_oracle,
    boundary_reduction_oracle,
    cell_weights_oracle,
    chain_to_varifold_oracle,
    coset_enumeration_oracle,
    exhaustive_oracle_reference,
    facets_oracle,
    gf2_nullspace,
    gf2_nullspace_oracle,
    gf2_rref_oracle,
    gf2_solve,
    gf2_solve_oracle,
    grid_index_oracle,
    initial_chain_oracle,
    minimize_oracle,
    projection_lower_bound_oracle,
    spans_oracle,
)
from gmtkit.cubical import DyadicCube, cubes_to_obj
from gmtkit.grassmann import Plane
from gmtkit.solver import (
    _chain_key,
    _projection_lower_bound,
    Chain2,
    GridComplex,
    InfeasibleError,
    OracleBudgetError,
    SpanningProblem,
    audit_minimizer,
    chain_to_varifold,
    exhaustive_oracle,
    initial_chain,
    minimize,
    spans,
)
from gmtkit.varifold import (
    AreaIntegrand,
    Integrand,
    RiemannianWeightIntegrand,
    TableIntegrand,
    TiltPenaltyIntegrand,
    pullback_integrand,
)
from gmtkit.cubemaps import SmoothMap
from gmtkit import solver


def square_problem(level, integrand=None, options=None):
    cells = 2**level
    cx = GridComplex(3, (cells,) * 3, level)
    z, bcells = square_cycle(cx)
    return SpanningProblem(cx, 2, bcells, [z], integrand or AreaIntegrand(), options or {})


class TestGf2:
    def test_solve_and_nullspace(self, rng):
        a = (rng.integers(0, 2, (8, 12))).astype(np.uint8)
        x = rng.integers(0, 2, 12).astype(np.uint8)
        b = (a @ x) % 2
        sol = gf2_solve(a, b)
        assert sol is not None
        assert np.array_equal((a @ sol) % 2, b)
        basis = gf2_nullspace(a)
        if basis.shape[1]:
            assert not np.any((a @ basis) % 2)

    def test_inconsistent(self):
        a = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        assert gf2_solve(a, np.array([1, 0], dtype=np.uint8)) is None


class TestGridComplex:
    def test_cell_counts_level1(self):
        cx = GridComplex(3, (2, 2, 2), 1)
        assert [cx.count(k) for k in range(4)] == [27, 54, 36, 8]

    def test_boundary_squares_to_zero(self):
        cx = GridComplex(3, (2, 2, 2), 1)
        b1 = cx.boundary_matrix(1)
        b2 = cx.boundary_matrix(2)
        b3 = cx.boundary_matrix(3)
        assert not np.any((b1 @ b2) % 2)
        assert not np.any((b2 @ b3) % 2)


class TestSpans:
    def test_empty_generators_always_span(self):
        p = square_problem(1)
        p.generators = []
        assert spans(Chain2(p.complex, 2), p)

    def test_flat_filling_spans(self):
        p = square_problem(1)
        bits = np.zeros(p.complex.count(2), dtype=bool)
        for i in range(2):
            for j in range(2):
                bits[p.complex.index[DyadicCube(1, (i, j, 0), (0, 1), 3)][1]] = True
        assert spans(Chain2(p.complex, 2, bits), p)

    def test_empty_chain_does_not_span(self):
        p = square_problem(1)
        assert not spans(Chain2(p.complex, 2), p)

    def test_monotone_in_support(self, rng):
        p = square_problem(1)
        e = initial_chain(p)
        bigger = e.bits.copy()
        extra = rng.integers(0, len(bigger), 5)
        bigger[extra] = True
        assert spans(Chain2(p.complex, 2, bigger), p)

    def test_non_cycle_generator_rejected(self):
        cx = GridComplex(3, (2, 2, 2), 1)
        bad = np.zeros(cx.count(1), dtype=np.uint8)
        edge = DyadicCube(1, (0, 0, 0), (0,), 3)
        bad[cx.index[edge][1]] = 1
        with pytest.raises(ValueError, match="cycle"):
            SpanningProblem(cx, 2, [edge], [bad], AreaIntegrand())

    def test_boundary_move_can_break_spanning(self):
        # two stacked square cycles: the double fill spans, but flipping the
        # boundaries of all cells turns it into the connecting tube, which
        # has the same mod-2 boundary yet spans neither generator alone.
        # The per-acceptance re-check must catch such moves.
        cx = GridComplex(3, (2, 2, 2), 1)
        z0, cells0 = square_cycle(cx, z=0)
        z1, cells1 = square_cycle(cx, z=2)
        p = SpanningProblem(cx, 2, cells0 + cells1, [z0, z1], AreaIntegrand())
        bits = np.zeros(cx.count(2), dtype=bool)
        for z in (0, 2):
            for i in range(2):
                for j in range(2):
                    bits[cx.index[DyadicCube(1, (i, j, z), (0, 1), 3)][1]] = True
        both_fills = Chain2(cx, 2, bits)
        assert spans(both_fills, p)
        tube = both_fills.bits.copy()
        b3 = cx.boundary_matrix(3)
        for j in range(cx.count(3)):
            tube ^= b3[:, j].astype(bool)
        tube_chain = Chain2(cx, 2, tube)
        # same mod-2 boundary, reachable by moves, but not spanning
        assert np.array_equal(tube_chain.boundary(), both_fills.boundary())
        assert not spans(tube_chain, p)


class TestMinimize:
    def test_half_resolution_square(self):
        p = square_problem(1)
        res = minimize(p, seed=0, restarts=2, steps=1500)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.chain.count() == 4
        assert spans(res.chain, p)
        assert res.value <= res.initial_value + 1e-12

    def test_quarter_resolution_square(self):
        p = square_problem(2)
        res = minimize(p, seed=0, restarts=2, steps=3000)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.chain.count() == 16

    def test_anisotropic_selects_axis_cells(self):
        tp = TiltPenaltyIntegrand(Plane.axis(3, (0, 1)), lam=9.0)
        p = square_problem(1, integrand=tp)
        res = minimize(p, seed=1, restarts=2, steps=1500)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert {c.axes for c in res.chain.cells()} == {(0, 1)}

    def test_deterministic(self):
        p = square_problem(1)
        r1 = minimize(p, seed=9, restarts=2, steps=800)
        r2 = minimize(p, seed=9, restarts=2, steps=800)
        assert np.array_equal(r1.chain.bits, r2.chain.bits)
        assert r1.value == r2.value

    def test_empty_generators(self):
        p = square_problem(1)
        p.generators = []
        res = minimize(p, seed=0)
        assert res.value == 0.0 and res.chain.count() == 0

    def test_trace_records_accepted_moves(self):
        p = square_problem(1)
        res = minimize(p, seed=0, restarts=1, steps=800)
        for entry in res.trace:
            assert set(entry) == {"restart", "step", "cell", "delta", "value"}


class TestOracle:
    def test_enumeration_matches_minimize_half(self):
        p = square_problem(1)
        chain, value = exhaustive_oracle(p)
        res = minimize(p, seed=0, restarts=2, steps=1500)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert res.value == pytest.approx(value, abs=1e-12)

    def test_certificate_path_quarter(self):
        p = square_problem(2)
        chain, value = exhaustive_oracle(p, budget_dim=18)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert chain.count() == 16

    def test_oracle_never_above_minimize(self):
        for seed in range(3):
            tp = TiltPenaltyIntegrand(Plane.axis(3, (0, 1)), lam=1.0 + seed)
            p = square_problem(1, integrand=tp)
            _, oval = exhaustive_oracle(p)
            res = minimize(p, seed=seed, restarts=2, steps=1500)
            assert oval <= res.value + 1e-12

    def test_empty_generators(self):
        p = square_problem(1)
        p.generators = []
        chain, value = exhaustive_oracle(p)
        assert value == 0.0 and chain.count() == 0

    def test_branch_and_bound_keeps_a_spanning_incumbent(self):
        # the descent flips the walled stacked squares into the cheap tube
        # between them, which does not span; the search starts from the
        # initial chain instead and finds the enumeration's minimum
        p = walled_squares_problem()
        assert p.complex.kernel_dim(2) == len(boundary_reduction_oracle(p.complex, 2).kernel) == 8
        for budget_dim in (0, 18):
            chain, value = exhaustive_oracle(p, budget_dim=budget_dim)
            assert value == 103.0 and spans(chain, p)

    @pytest.mark.parametrize("make", [lambda: square_problem(1), lambda: stacked_squares_problem(),
                                      lambda: walled_squares_problem()], ids=["square", "stacked", "walled"])
    def test_gray_code_order_matches_the_binary_loop(self, make):
        p = make()
        chain, value = exhaustive_oracle(p)
        want_chain, want_value = coset_enumeration_oracle(p)
        assert value == want_value and np.array_equal(chain.bits, want_chain.bits)

    def test_gray_walk_asks_spans_only_of_improving_chains(self, monkeypatch):
        # two generators on a 2 x 2 x 1 box, m = 1: kernel dimension 16, so
        # the walk visits 65 536 chains but asks spans only of those whose
        # key beats the incumbent
        rng = np.random.default_rng(0)
        cx = GridComplex(3, (2, 2, 1), 1)
        gens = [cx.boundary(1, rng.random(cx.count(1)) < 0.3) for _ in range(2)]
        p = SpanningProblem(cx, 1, cx.cubes(0, np.flatnonzero(np.any(gens, axis=0))), gens, AreaIntegrand())
        asked = []
        monkeypatch.setattr(solver, "spans", lambda chain, problem: asked.append(0) or spans(chain, problem))
        chain, value = exhaustive_oracle(p)
        assert cx.kernel_dim(1) == 16 and 0 < len(asked) < 2**16 // 32
        assert spans(chain, p) and value == chain.value(p.cell_weights())


def _random_oracle_problems(rng):
    """Spanning problems on random boxes: n = 2-4, every m, one or two
    generators (boundaries of random m-chains), area and table integrands."""
    for n in range(2, 5):
        for _ in range(4):
            shape, origin = rng.integers(1, 3, n).tolist(), rng.integers(-1, 2, n).tolist()
            cx = GridComplex(n, shape, 1, origin)
            for m in range(1, n + 1):
                gens = [cx.boundary(m, rng.random(cx.count(m)) < rng.choice((0.05, 0.3)))
                        for _ in range(int(rng.integers(1, 3)))]
                if rng.random() < 0.5:
                    integrand = AreaIntegrand()
                else:
                    values = 1.0 + rng.random([s + 1 for s in shape])
                    integrand = TableIntegrand(np.multiply(origin, cx.side), [cx.side] * n, values)
                support = np.flatnonzero(np.any(gens, axis=0))
                yield SpanningProblem(cx, m, cx.cubes(m - 1, support), gens, integrand)


def _oracle_outcome(oracle, p, budget_dim, node_budget):
    try:
        chain, value = oracle(p, budget_dim=budget_dim, node_budget=node_budget)
    except OracleBudgetError as exc:
        return "over budget", str(exc)
    return chain.bits.tobytes(), value


class TestOracleReference:
    def test_matches_the_reduction_kernel_oracle(self, rng):
        # the sweep-cell basis against the reduction kernel, on all three paths
        paths = Counter()
        for p in _random_oracle_problems(rng):
            for budget_dim in (0, 3, 18):
                want = _oracle_outcome(exhaustive_oracle_reference, p, budget_dim, 300)
                assert _oracle_outcome(exhaustive_oracle, p, budget_dim, 300) == want
                if p.complex.kernel_dim(p.m) <= budget_dim:
                    paths["enumerated"] += 1
                elif want[0] == "over budget":
                    paths["over budget"] += 1
                else:  # a search of no nodes stops only the branch and bound
                    searched = _oracle_outcome(exhaustive_oracle_reference, p, budget_dim, 0)[0] == "over budget"
                    paths["searched" if searched else "certified"] += 1
        print(f"exhaustive_oracle outcomes by path: {dict(paths)}")
        assert sum(paths.values()) == 3 * 4 * (2 + 3 + 4)
        assert set(paths) == {"enumerated", "certified", "searched", "over budget"}, paths


class TestScalingCovariance:
    def test_half_scale_pullback(self):
        # solve the scaled problem (geometry x 1/2) with the area integrand
        # and the original problem with the pull-back integrand: identical
        # minima; the area value scales by r^m
        p_orig = square_problem(1)
        cells = 2
        cx_scaled = GridComplex(3, (cells,) * 3, 2)  # sides 1/4: geometry halved
        z, bcells = square_cycle(cx_scaled)
        p_scaled = SpanningProblem(cx_scaled, 2, bcells, [z], AreaIntegrand())
        r = 0.5
        scale_map = SmoothMap.affine(r * np.eye(3))
        pb = pullback_integrand(scale_map, AreaIntegrand())
        p_pb = square_problem(1, integrand=pb)
        v_orig = minimize(p_orig, seed=0, restarts=2, steps=1500).value
        v_scaled = minimize(p_scaled, seed=0, restarts=2, steps=1500).value
        v_pb = minimize(p_pb, seed=0, restarts=2, steps=1500).value
        assert abs(v_pb - v_scaled) <= 1e-9
        assert abs(v_scaled - r**2 * v_orig) <= 1e-9


class TestAudit:
    def make_flat_solution(self):
        p = square_problem(2)
        return minimize(p, seed=0, restarts=1, steps=500).chain

    def test_interior_ratios_near_pi(self):
        chain = self.make_flat_solution()
        rep = audit_minimizer(
            chain, AreaIntegrand(), radii=[0.3, 0.4], subdivision=16,
            audit_points=[np.array([0.5, 0.5, 0.0])],
        )
        for _, ratio, flag in rep["entries"][0]["ratios"]:
            assert flag == "ok"
            assert 0.9 * np.pi <= ratio <= 1.1 * np.pi

    def test_edge_flagged_boundary(self):
        chain = self.make_flat_solution()
        rep = audit_minimizer(
            chain, AreaIntegrand(), radii=[0.3], subdivision=16,
            audit_points=[np.array([0.5, 0.0, 0.0])],
        )
        entry = rep["entries"][0]
        assert entry["boundary"]
        radius, ratio, flag = entry["ratios"][0]
        assert flag == "boundary"
        assert ratio == pytest.approx(np.pi / 2, rel=0.05)

    def test_pinched_fixture_reports_two_sheets(self):
        cx = GridComplex(3, (4, 4, 4), 2)
        bits = np.zeros(cx.count(2), dtype=bool)
        for i in range(4):
            for j in range(4):
                bits[cx.index[DyadicCube(2, (i, j, 2), (0, 1), 3)][1]] = True
                bits[cx.index[DyadicCube(2, (2, i, j), (1, 2), 3)][1]] = True
        pinched = Chain2(cx, 2, bits)
        rep = audit_minimizer(
            pinched, AreaIntegrand(), radii=[0.3], subdivision=16,
            audit_points=[np.array([0.5, 0.5, 0.5])],
        )
        radius, ratio, flag = rep["entries"][0]["ratios"][0]
        assert ratio == pytest.approx(2 * np.pi, rel=0.05)

    def test_flat_solution_tilt_excess_zero(self):
        chain = self.make_flat_solution()
        rep = audit_minimizer(chain, AreaIntegrand(), subdivision=8)
        assert rep["tilt_excess"] == pytest.approx(0.0, abs=1e-12)

    def test_chain_varifold_mass(self):
        chain = self.make_flat_solution()
        v = chain_to_varifold(chain, subdivision=4)
        assert v.mass() == pytest.approx(1.0)

    def test_empty_chain_rejected(self):
        cx = GridComplex(3, (2, 2, 2), 1)
        with pytest.raises(ValueError):
            audit_minimizer(Chain2(cx, 2), AreaIntegrand())


# ---------------------------------------------------------------------------
# the sparse reduction against the dense elimination it replaced

def l_problem(cells, level=3):
    """The boundary of an L-shaped sheet: a floor at z = 0 and a wall at x = 0."""
    a, b = cells - 4, cells - 2
    sheet = [((i, j, 0), (0, 1)) for i in range(a) for j in range(b)]
    sheet += [((0, j, k), (1, 2)) for j in range(b) for k in range(a)]
    cx = GridComplex(3, (cells,) * 3, level)
    z = np.zeros(cx.count(1), dtype=np.uint8)
    for corner, axes in sheet:
        for facet in DyadicCube(level, corner, axes, 3).facets():
            z[cx.index[facet][1]] ^= 1
    edges = [cx.cells[1][i] for i in np.nonzero(z)[0]]
    return SpanningProblem(cx, 2, edges, [z], AreaIntegrand())


def stacked_squares_problem():
    cx = GridComplex(3, (2, 2, 2), 1)
    z0, cells0 = square_cycle(cx, z=0)
    z1, cells1 = square_cycle(cx, z=2)
    return SpanningProblem(cx, 2, cells0 + cells1, [z0, z1], AreaIntegrand())


def walled_squares_problem():
    """The stacked squares under a table integrand 100 times dearer on the
    planes z = 0 and z = 1 that hold them than elsewhere."""
    cx = GridComplex(3, (2, 2, 2), 1)
    z0, cells0 = square_cycle(cx, z=0)
    z1, cells1 = square_cycle(cx, z=2)
    table = np.ones((5, 5, 5))
    table[:, :, 0] = table[:, :, 4] = 100.0
    return SpanningProblem(cx, 2, cells0 + cells1, [z0, z1], TableIntegrand([0, 0, 0], [0.25] * 3, table))


def random_gf2_cases(rng):
    """(name, a, b) triples covering the shapes the reduction must agree on."""
    cases = []
    for rows, cols in [(8, 12), (12, 8), (10, 10), (1, 5), (5, 1)]:
        a = rng.integers(0, 2, (rows, cols)).astype(np.uint8)
        cases.append(("random", a, (a @ rng.integers(0, 2, cols)) % 2))
        cases.append(("random_b", a, rng.integers(0, 2, rows)))
    while True:
        full = rng.integers(0, 2, (9, 9)).astype(np.uint8)
        if gf2_nullspace_oracle(full).shape[1] == 0:
            break
    cases.append(("full_rank", full, rng.integers(0, 2, 9)))
    low = (rng.integers(0, 2, (14, 3)) @ rng.integers(0, 2, (3, 11))) % 2
    cases.append(("rank_deficient", low, (low @ rng.integers(0, 2, 11)) % 2))
    cases.append(("inconsistent", np.array([[1, 0], [1, 0]]), np.array([1, 0])))
    zero_cols = rng.integers(0, 2, (7, 9)).astype(np.uint8)
    zero_cols[:, [0, 4, 8]] = 0
    cases.append(("zero_columns", zero_cols, (zero_cols @ rng.integers(0, 2, 9)) % 2))
    cases.append(("all_zero", np.zeros((4, 5)), np.zeros(4)))
    cases.append(("all_zero_inconsistent", np.zeros((4, 5)), np.array([0, 0, 1, 0])))
    cases.append(("no_columns", np.zeros((6, 0)), np.zeros(6)))
    cases.append(("no_columns_inconsistent", np.zeros((6, 0)), np.eye(6)[2]))
    cases.append(("no_rows", np.zeros((0, 4)), np.zeros(0)))
    cases.append(("entries_mod_2", rng.integers(0, 4, (6, 8)), rng.integers(0, 4, 6)))
    return cases


def assert_same_solution(a, b):
    got, want = gf2_solve(a, b), gf2_solve_oracle(a, b)
    if want is None:
        assert got is None
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def assert_same_nullspace(a):
    got, want = gf2_nullspace(a), gf2_nullspace_oracle(a)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestGf2Oracle:
    def test_random_matrices(self, rng):
        for _ in range(20):
            for name, a, b in random_gf2_cases(rng):
                assert_same_solution(a, b)
                assert_same_nullspace(a)

    def test_l_problem_boundaries(self):
        for cells in (8, 12):
            p = l_problem(cells)
            mat = boundary_matrix_oracle(p.complex, 2)
            z = p.generators[0]
            want = gf2_solve_oracle(mat, z)
            assert want is not None
            assert gf2_solve(mat, z).tobytes() == want.tobytes()
            assert initial_chain(p).bits.tobytes() == want.astype(bool).tobytes()
            if cells == 8:
                assert_same_nullspace(mat)

    def test_chain_support_submatrices(self, rng):
        p = square_problem(2)
        mat = boundary_matrix_oracle(p.complex, 2)
        z = p.generators[0]
        start = initial_chain(p).bits
        for density in (0.05, 0.2, 0.5, 0.9):
            for _ in range(10):
                cols = np.nonzero((rng.random(mat.shape[1]) < density) | start)[0]
                sub = mat[:, cols]
                assert_same_solution(sub, z)
                assert_same_solution(sub, rng.integers(0, 2, mat.shape[0]))
                assert_same_nullspace(sub)

    def test_kernel_basis_is_reduction_kernel(self):
        p = square_problem(1)
        red = boundary_reduction_oracle(p.complex, 2)
        dense = gf2_nullspace_oracle(boundary_matrix_oracle(p.complex, 2))
        assert len(red.kernel) == dense.shape[1]
        for j, v in enumerate(red.kernel):
            assert all((v >> i & 1) == dense[i, j] for i in range(dense.shape[0]))


class TestFacetIndex:
    def test_dense_view_and_sorted_rows(self):
        cx = GridComplex(3, (3, 2, 2), 1, origin=(1, 0, -1))
        for k in range(1, 4):
            facets = cx.facets(k)
            assert facets.shape == (cx.count(k), 2 * k)
            assert np.all(np.diff(facets, axis=1) > 0)
            assert np.array_equal(cx.boundary_matrix(k), boundary_matrix_oracle(cx, k))
        with pytest.raises(ValueError):
            cx.facets(0)

    def test_chain_boundary_matches_dense_matmul(self, rng):
        cx = GridComplex(3, (4, 4, 4), 2)
        for m in (1, 2, 3):
            mat = boundary_matrix_oracle(cx, m)
            for density in (0.0, 0.1, 0.5, 1.0):
                bits = rng.random(cx.count(m)) < density
                got = Chain2(cx, m, bits).boundary()
                want = (mat @ bits.astype(np.uint8)) % 2
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSpansOracle:
    def random_chains(self, p, rng, count):
        """Random subsets plus the start chain moved by random (m+1)-cell boundaries."""
        start = initial_chain(p).bits
        moves = p.complex.facets(p.m + 1)
        for i in range(count):
            bits = rng.random(len(start)) < (0.1, 0.3, 0.6)[i % 3]
            yield bits
            moved = start.copy()
            for j in rng.integers(0, len(moves), 1 + i % 5):
                moved[moves[j]] ^= True
            yield moved
            yield moved | bits

    def test_one_generator(self, rng):
        for level in (1, 2):
            p = square_problem(level)
            seen = set()
            for bits in self.random_chains(p, rng, 40):
                chain = Chain2(p.complex, 2, bits)
                want = spans_oracle(chain, p)
                assert spans(chain, p) == want
                seen.add(want)
            assert seen == {True, False}

    def test_two_generators(self, rng):
        p = stacked_squares_problem()
        seen = set()
        for bits in self.random_chains(p, rng, 60):
            chain = Chain2(p.complex, 2, bits)
            want = spans_oracle(chain, p)
            assert spans(chain, p) == want
            seen.add(want)
        assert seen == {True, False}

    def test_tube_and_certificate(self):
        p = stacked_squares_problem()
        cx = p.complex
        fills = np.zeros(cx.count(2), dtype=bool)
        for z in (0, 2):
            for i in range(2):
                for j in range(2):
                    fills[cx.index[DyadicCube(1, (i, j, z), (0, 1), 3)][1]] = True
        tube = fills.copy()
        for row in cx.facets(3):
            tube[row] ^= True
        for bits, want in ((fills, True), (tube, False)):
            counts = Counter()
            chain = Chain2(cx, 2, bits)
            assert spans(chain, p, counts) == spans_oracle(chain, p) == want
            assert counts == Counter(eliminated=1)
        # one generator equal to the chain's boundary is certified
        single = square_problem(1)
        counts = Counter()
        assert spans(initial_chain(single), single, counts)
        assert counts == Counter(certified=1)


class TestNoDenseBoundary:
    def test_solver_paths_never_densify(self, monkeypatch):
        def refuse(self, k):
            raise AssertionError("dense boundary matrix built")

        monkeypatch.setattr(GridComplex, "boundary_matrix", refuse)
        for level in (1, 2):
            p = square_problem(level)
            res = minimize(p, seed=0, restarts=2, steps=800)
            _, value = exhaustive_oracle(p)
            assert res.value == value == 1.0
            audit_minimizer(res.chain, p.integrand, subdivision=4)
        minimize(stacked_squares_problem(), seed=0, restarts=1, steps=200)


class TestRestartCounts:
    def test_counts_add_up_and_are_logged(self, caplog):
        p = stacked_squares_problem()
        with caplog.at_level(logging.INFO, logger="gmtkit.solver"):
            res = minimize(p, seed=3, restarts=2, steps=400)
        assert [c["restart"] for c in res.restart_counts] == [0, 1]
        accepts = 0
        for c in res.restart_counts:
            assert c["proposals"] >= 400
            assert c["certified"] + c["eliminated"] == c["accepts"] + c["span_rejects"]
            assert c["eliminated"] > 0
            accepts += c["accepts"]
        assert accepts == len(res.trace)
        logged = [r.getMessage() for r in caplog.records if "restart" in r.getMessage()]
        assert len(logged) == 2 and "by elimination" in logged[0]

    def test_single_generator_checks_are_certified(self):
        res = minimize(square_problem(1), seed=0, restarts=1, steps=500)
        (c,) = res.restart_counts
        assert c["eliminated"] == 0 and c["span_rejects"] == 0
        assert c["certified"] == c["accepts"] > 0


# ---------------------------------------------------------------------------
# the integer facet index and the one-distance audit against their oracles

GRIDS = [
    (2, (3, 2), (1, -2)),
    (2, (1, 1), (0, 0)),
    (3, (3, 2, 2), (1, 0, -1)),
    (3, (4, 4, 4), (0, 0, 0)),
    (4, (2, 3, 1, 2), (0, -1, 2, 5)),
]


class TestIntegerFacetIndex:
    @pytest.mark.parametrize("n, shape, origin", GRIDS)
    def test_cells_sorted_as_cubes(self, n, shape, origin):
        cx = GridComplex(n, shape, 1, origin)
        for k in range(n + 1):
            enumerated = [
                DyadicCube(1, corner, axes, n)
                for axes in itertools.combinations(range(n), k)
                for corner in itertools.product(*[
                    range(o, o + s + (j not in axes)) for j, (o, s) in enumerate(zip(origin, shape))
                ])
            ]
            assert cx.cells[k] == sorted(enumerated)
            assert all(cx.index[c] == (k, i) for i, c in enumerate(cx.cells[k]))

    @pytest.mark.parametrize("n, shape, origin", GRIDS)
    def test_facets_equal_cube_oracle(self, n, shape, origin):
        cx = GridComplex(n, shape, 2, origin)
        for k in range(1, n + 1):
            got, want = cx.facets(k), facets_oracle(cx, k)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_no_cube_faces_built(self, monkeypatch):
        def refuse(self, dims=None):
            raise AssertionError("DyadicCube faces built")

        cx = GridComplex(3, (3, 2, 4), 1, origin=(2, -1, 0))
        p = l_problem(8)
        monkeypatch.setattr(DyadicCube, "faces", refuse)
        for k in (1, 2, 3):
            assert cx.facets(k).shape == (cx.count(k), 2 * k)
        # the generator cycle check builds facets(1) of a fresh complex
        fresh = GridComplex(3, p.complex.shape, p.complex.level)
        SpanningProblem(fresh, 2, p.boundary_cells, p.generators, p.integrand)
        assert 1 in fresh._facets


def audit_cases():
    for level in (1, 2):
        p = square_problem(level)
        yield p, minimize(p, seed=1, restarts=1, steps=300).chain
    for cells in (8, 12):
        p = l_problem(cells)
        yield p, minimize(p, seed=0, restarts=1, steps=400).chain


class TestAuditOracle:
    def test_reports_equal_the_three_distance_loop(self):
        for p, chain in audit_cases():
            got = audit_minimizer(chain, p.integrand)
            assert repr(got) == repr(audit_minimizer_oracle(chain))
            assert got["entries"] and got["tilt_excess"] is not None

    def test_custom_radii_points_and_fit(self):
        p = l_problem(8)
        chain = initial_chain(p)
        points = [np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.5, 0.25]), np.array([3.0, 3.0, 3.0])]
        kwargs = dict(radii=[0.05, 0.3, 0.7], subdivision=6, fit_radius=0.2,
                      ratio_bounds=(0.95, 1.05), audit_points=points)
        got = audit_minimizer(chain, p.integrand, **kwargs)
        assert repr(got) == repr(audit_minimizer_oracle(chain, **kwargs))
        assert got["entries"][2]["tilt"] is None  # no samples near the far point

    def test_samples_exactly_on_the_radii(self):
        # the L sheet itself, sampled on an exact binary subgrid (side 1/8,
        # spacing 1/32), audited at a floor sample next to the wall: samples
        # lie exactly at the radius and the fit radius, and the fit is tilted
        cx = GridComplex(3, (8, 8, 8), 3)
        bits = np.zeros(cx.count(2), dtype=bool)
        for i in range(4):
            for j in range(6):
                bits[cx.index[DyadicCube(3, (i, j, 0), (0, 1), 3)][1]] = True
                bits[cx.index[DyadicCube(3, (0, j, i), (1, 2), 3)][1]] = True
        chain = Chain2(cx, 2, bits)
        kwargs = dict(radii=[0.0625, 0.25], subdivision=4, fit_radius=0.0625,
                      audit_points=[np.array([0.015625, 0.078125, 0.0])])
        got = audit_minimizer(chain, AreaIntegrand(), **kwargs)
        assert repr(got) == repr(audit_minimizer_oracle(chain, **kwargs))
        assert got["entries"][0]["tilt"] > 0.0

    @pytest.mark.parametrize("n, m, shape, level, subdivision, density", [
        (2, 1, (9, 7), 2, 8, 0.3), (3, 1, (5, 4, 4), 2, 8, 0.3),
        (4, 2, (6, 5, 4, 4), 2, 3, 0.06), (4, 3, (6, 4, 4, 4), 2, 2, 0.05)])
    def test_random_chains(self, n, m, shape, level, subdivision, density, caplog):
        # random chains in each (n, m): audit points bent every way and at
        # negative coordinates, and a grid that runs on each of them
        cx = GridComplex(n, shape, level, origin=(-1,) * n)
        chain = Chain2(cx, m, np.random.default_rng(n * 10 + m).random(cx.count(m)) < density)
        with caplog.at_level(logging.INFO, logger="gmtkit.solver"):
            got = audit_minimizer(chain, AreaIntegrand(), subdivision=subdivision)
        assert json.dumps(got) == json.dumps(audit_minimizer_oracle(chain, subdivision=subdivision))
        samples = len(chain_to_varifold(chain, subdivision))
        assert _audit_pairs(caplog) < len(got["entries"]) * samples and got["tilt_excess"] is not None

    @pytest.mark.parametrize("subdivision", [3, 5])
    def test_weights_that_are_not_powers_of_two(self, subdivision):
        # (side / subdivision)^m is no power of two, so a regrouped mass or tilt sum shows
        p = l_problem(12)
        chain = minimize(p, seed=0, restarts=1, steps=400).chain
        got = audit_minimizer(chain, p.integrand, subdivision=subdivision)
        assert json.dumps(got) == json.dumps(audit_minimizer_oracle(chain, subdivision=subdivision))

    def test_l16_chain(self):
        p = KEY_PROBLEMS["l16"]()
        chain = initial_chain(p)
        assert json.dumps(audit_minimizer(chain, p.integrand)) == json.dumps(audit_minimizer_oracle(chain))

    def test_memory_stays_below_the_per_point_loop(self):
        # the per-point loop that the blocks replaced set the plateau bench's
        # peak RSS in this call, 5.41 MiB above its start: the blocks stay below
        p = KEY_PROBLEMS["l16"]()
        chain = initial_chain(p)
        audit_minimizer(chain, p.integrand)  # first-call allocations stay out of the measure
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            audit_minimizer(chain, p.integrand)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 5.4 * 2**20

    def test_logs_one_line(self, caplog):
        p = square_problem(2)
        chain = initial_chain(p)
        with caplog.at_level(logging.INFO, logger="gmtkit.solver"):
            report = audit_minimizer(chain, p.integrand)
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("audit")]
        assert f"{len(report['entries'])} audit points" in line
        assert f"{report['violations']} violations" in line and "probes" in line
        assert "spacing" not in report


def _audit_pairs(caplog):
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("audit")]
    return int(line.split(" sample pairs")[0].rsplit(" ", 1)[1])


def test_audit_reach_beyond_the_chain(caplog):
    # radii wider than the whole L sheet: one grid cell holds every sample,
    # so the audit measures all pairs and must still give the oracle's report
    p = l_problem(8)
    chain = initial_chain(p)
    points = [np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.5, 0.25]), np.array([9.0, -9.0, 9.0])]
    kwargs = dict(radii=[0.1, 2.5, 6.0], subdivision=4, fit_radius=20.0, audit_points=points)
    with caplog.at_level(logging.INFO, logger="gmtkit.solver"):
        got = audit_minimizer(chain, p.integrand, **kwargs)
    assert repr(got) == repr(audit_minimizer_oracle(chain, **kwargs))
    samples = len(chain_to_varifold(chain, subdivision=4))
    assert _audit_pairs(caplog) == len(points) * samples
    assert got["entries"][2]["tilt"] is not None  # the far point still fits the whole sheet


def test_audit_grid_measures_fewer_pairs(caplog):
    p = l_problem(12)
    chain = initial_chain(p)
    kwargs = dict(radii=[0.08, 0.1], subdivision=8, fit_radius=0.08)
    with caplog.at_level(logging.INFO, logger="gmtkit.solver"):
        got = audit_minimizer(chain, p.integrand, **kwargs)
    assert repr(got) == repr(audit_minimizer_oracle(chain, **kwargs))
    samples = len(chain_to_varifold(chain, subdivision=8))
    assert 0 < _audit_pairs(caplog) < len(got["entries"]) * samples // 4
    assert got["violations"] and got["tilt_excess"] is not None


def test_minimize_needs_a_restart():
    with pytest.raises(ValueError, match="restarts"):
        minimize(square_problem(1), restarts=0)


# ---------------------------------------------------------------------------
# the solver on integer cell keys against its loops over cube objects


class WavyIntegrand(Integrand):
    """A weight that varies with the position and the plane, so that wrong
    centres or a wrong axes group change it."""

    def evaluate(self, points, frames):
        return 1.5 + 0.25 * np.sin(points @ np.arange(1.0, points.shape[1] + 1)) + 0.1 * np.abs(frames[:, 0, 0])


def sheet_problem(n, shape, level, sheet, m=2, origin=None, integrand=None):
    """The boundary of a sheet of m-cells, given as (corner, axes), as the one generator."""
    cx = GridComplex(n, shape, level, origin)
    z = np.zeros(cx.count(m - 1), dtype=np.uint8)
    for corner, axes in sheet:
        for facet in DyadicCube(level, corner, axes, n).facets():
            z[cx.index[facet][1]] ^= 1
    bcells = [cx.cells[m - 1][i] for i in np.flatnonzero(z)]
    return SpanningProblem(cx, m, bcells, [z], integrand or AreaIntegrand())


def l_sheet(cells, far_wall=False):
    """The L-shaped sheet of ``l_problem``, its wall at x = 0 or at the floor's far edge."""
    a, b = cells - 4, cells - 2
    x_wall = a if far_wall else 0
    return ([((i, j, 0), (0, 1)) for i in range(a) for j in range(b)]
            + [((x_wall, j, k), (1, 2)) for j in range(b) for k in range(a)])


KEY_PROBLEMS = {
    "square_half": lambda: square_problem(1),
    "square_quarter": lambda: square_problem(2, integrand=WavyIntegrand()),
    "l8": lambda: sheet_problem(3, (8,) * 3, 3, l_sheet(8)),
    "l12_wavy": lambda: sheet_problem(3, (12,) * 3, 3, l_sheet(12), integrand=WavyIntegrand()),
    "l16": lambda: sheet_problem(3, (16,) * 3, 3, l_sheet(16)),
    "l8_far": lambda: sheet_problem(3, (8,) * 3, 3, l_sheet(8, far_wall=True), integrand=WavyIntegrand()),
    "l16_far": lambda: sheet_problem(3, (16,) * 3, 3, l_sheet(16, far_wall=True)),
    "origin": lambda: sheet_problem(3, (4, 3, 5), 2, [((-1, 2, 3), (0, 2)), ((0, 2, 3), (0, 2)), ((0, 1, 4), (0, 1))],
                                    origin=(-2, 1, 3), integrand=WavyIntegrand()),
    "n2": lambda: sheet_problem(2, (5, 4), 1, [((1, 1), (0,)), ((2, 1), (1,)), ((2, 2), (0,))], m=1,
                                origin=(0, -1), integrand=WavyIntegrand()),
    "n4_m2": lambda: sheet_problem(4, (2, 3, 2, 2), 1, [((0, 1, 0, 1), (0, 3)), ((1, 1, 0, 1), (0, 3))],
                                   integrand=WavyIntegrand()),
    "n4_m3": lambda: sheet_problem(4, (2, 2, 2, 2), 0, [((0, 0, 1, 0), (0, 1, 3))], m=3,
                                   origin=(0, 0, -1, 0), integrand=WavyIntegrand()),
}


def _chains(p, rng):
    """The initial chain, a random chain and the empty chain of a problem."""
    yield initial_chain(p)
    yield Chain2(p.complex, p.m, rng.random(p.complex.count(p.m)) < 0.3)
    yield Chain2(p.complex, p.m)


class TestCellKeys:
    @pytest.mark.parametrize("n, shape, origin", GRIDS)
    def test_decode_centers_and_rows(self, n, shape, origin):
        cx = GridComplex(n, shape, 2, origin)
        for k in range(n + 1):
            cubes = cx.cells[k]
            corners, rank = cx.decode(k)
            axes = list(itertools.combinations(range(n), k))
            assert corners.tolist() == [list(c.corner) for c in cubes]
            assert [axes[r] for r in rank] == [c.axes for c in cubes]
            assert cx.centers(k).tobytes() == np.array([c.center() for c in cubes]).tobytes()
            assert cx.rows(k, cubes).tolist() == list(range(len(cubes)))

    def test_rows_refuse_cubes_outside_the_grid(self):
        cx = GridComplex(3, (2, 3, 2), 1, origin=(1, 0, -1))
        for cube in (DyadicCube(1, (3, 0, -1), (0,), 3), DyadicCube(1, (0, 0, -1), (0,), 3),
                     DyadicCube(2, (1, 0, -1), (0,), 3), DyadicCube(1, (1, 0, -1), (0, 1), 3)):
            with pytest.raises(KeyError, match="is not a 1-cell"):
                cx.rows(1, [cube])

    @pytest.mark.parametrize("case", sorted(KEY_PROBLEMS))
    def test_cell_weights(self, case):
        p = KEY_PROBLEMS[case]()
        assert p.cell_weights().tobytes() == cell_weights_oracle(p).tobytes()

    @pytest.mark.parametrize("case", sorted(KEY_PROBLEMS))
    def test_chain_to_varifold(self, case, rng):
        p = KEY_PROBLEMS[case]()
        for chain in _chains(p, rng):
            for sub in (1, 3):
                got, want = chain_to_varifold(chain, sub), chain_to_varifold_oracle(chain, sub)
                for a, b in [(got.points, want.points), (got.frames, want.frames), (got.weights, want.weights)]:
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("case", sorted(KEY_PROBLEMS))
    def test_projection_lower_bound(self, case):
        p = KEY_PROBLEMS[case]()
        weights = p.cell_weights()
        got = _projection_lower_bound(p, weights)
        assert got == projection_lower_bound_oracle(p, weights)
        if case in ("l16", "l16_far"):
            assert got == 2.625

    @pytest.mark.parametrize("case", ["origin", "n2", "n4_m2", "n4_m3", "l8_far"])
    def test_audit(self, case):
        p = KEY_PROBLEMS[case]()
        chain = initial_chain(p)
        assert repr(audit_minimizer(chain, p.integrand)) == repr(audit_minimizer_oracle(chain))

    def test_l16_lower_bounds_are_fast(self):
        # a guard against a scan of every m-cell per forced cell (seconds), far above the few ms it takes
        for far_wall in (False, True):
            p = sheet_problem(3, (16,) * 3, 3, l_sheet(16, far_wall))
            weights = p.cell_weights()
            start = time.perf_counter()
            assert _projection_lower_bound(p, weights) == 2.625
            assert time.perf_counter() - start < 0.5

    def test_solver_builds_no_cube_objects(self, monkeypatch):
        for case in ("square_half", "square_quarter", "l8", "n4_m3"):
            p = KEY_PROBLEMS[case]()
            cx = GridComplex(p.complex.n, p.complex.shape, p.complex.level, p.complex.origin)
            fresh = SpanningProblem(cx, p.m, p.boundary_cells, p.generators, p.integrand)

            def refuse(self):
                raise AssertionError("a DyadicCube was built")

            with monkeypatch.context() as patch:
                patch.setattr(DyadicCube, "__post_init__", refuse)
                res = minimize(fresh, seed=0, restarts=1, steps=200)
                try:  # the enumeration, the projection certificate or the branch and bound
                    exhaustive_oracle(fresh, budget_dim=4, node_budget=2000)
                except OracleBudgetError:
                    pass
                audit_minimizer(res.chain, fresh.integrand)
            assert "cells" not in cx.__dict__ and "index" not in cx.__dict__

    def test_chain_cells_build_only_the_m_cells(self):
        for case in ("square_half", "l8", "n4_m3"):
            p = KEY_PROBLEMS[case]()
            cx = GridComplex(p.complex.n, p.complex.shape, p.complex.level, p.complex.origin)
            chain = minimize(SpanningProblem(cx, p.m, p.boundary_cells, p.generators, p.integrand),
                             seed=0, restarts=1, steps=200).chain
            cells, payload, obj = chain.cells(), chain.to_dict(), cubes_to_obj(chain.cells(), chain.m)
            assert "cells" not in cx.__dict__
            expected = [c for c, b in zip(cx.cells[chain.m], chain.bits) if b]
            assert cells == expected and payload["cells"] == [c.to_dict() for c in expected]
            assert obj == cubes_to_obj(expected, chain.m)


# ---------------------------------------------------------------------------
# the cell and index views over the keys against the dict of every cube


def _count_decoded_rows(monkeypatch):
    """The row count of each ``GridComplex.cubes`` call from here on."""
    decoded, cubes = [], GridComplex.cubes

    def counted(self, k, rows=slice(None)):
        decoded.append(len(self._cell_keys[k][rows]))
        return cubes(self, k, rows)

    monkeypatch.setattr(GridComplex, "cubes", counted)
    return decoded


class TestCellViews:
    @pytest.mark.parametrize("n, shape, origin", GRIDS)
    def test_index_and_rows_equal_the_dict(self, n, shape, origin):
        cx = GridComplex(n, shape, 1, origin)
        want = grid_index_oracle(GridComplex(n, shape, 1, origin))
        assert len(cx.index) == len(want) == math.prod(2 * s + 1 for s in shape)
        for cube, (k, i) in want.items():
            assert cube in cx.index and cx.index[cube] == (k, i)
        for k in range(n + 1):
            cubes = [c for c, (j, _) in want.items() if j == k]
            assert cx.rows(k, cubes).tolist() == list(range(len(cubes)))
        assert list(cx.index) == list(want) and cx.index == want

    def test_index_refuses_what_is_not_a_cell(self):
        cx = GridComplex(3, (2, 3, 2), 1, origin=(1, 0, -1))
        assert cx.index[DyadicCube(1, (3, 3, 0), (2,), 3)] == (1, cx.count(1) - 1)
        outside = [
            DyadicCube(2, (1, 0, -1), (0,), 3),  # another level
            DyadicCube(1, (1, 0), (0,), 2),  # another ambient dimension
            DyadicCube(1, (0, 0, -1), (), 3),  # a corner below the box
            DyadicCube(1, (1, 4, -1), (), 3),  # a corner above it
            DyadicCube(1, (3, 0, -1), (0,), 3),  # a free axis that leaves the box
            DyadicCube(1, (1, 3, 0), (1, 2), 3),
            DyadicCube(1, (1, 0, -1), (5,), 3),  # an axis of no cell
            DyadicCube(1, (1.5, 0, -1), (), 3),  # a corner off the lattice
            "a string", (1, 0, -1), None,  # no cube at all
        ]
        for thing in outside:
            assert thing not in cx.index
            with pytest.raises(KeyError, match="is not a .*cell of the grid"):
                cx.index[thing]

    def test_cells_decode_a_row_or_all_rows_once(self, monkeypatch):
        cx = GridComplex(3, (3, 2, 2), 1, origin=(1, 0, -1))
        want = cx.cubes(1)
        decoded = _count_decoded_rows(monkeypatch)
        cells = cx.cells[1]
        assert len(cells) == len(want) and (cells[3], cells[-1]) == (want[3], want[-1])
        assert cells[2:5] == want[2:5] and decoded == [1, 1, 3]
        with pytest.raises(IndexError):
            cells[len(want)]
        assert cells == want and list(cells) == want and [c for c in cells] == want
        assert cells[4] is cells[4] and cells.index(want[5]) == 5
        assert decoded == [1, 1, 3, len(want)]  # one full decode, then the kept list

    def test_l16_build_keeps_no_cube_objects(self, monkeypatch):
        decoded = _count_decoded_rows(monkeypatch)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            p = l_problem(16)
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # the index dict of all 35 937 cubes kept 10.7 MB
        assert kept < 2 * 2**20
        assert decoded == [1] * len(p.boundary_cells)  # one row per boundary edge

    def test_grid_beyond_the_cap_is_refused_before_any_array(self, monkeypatch):
        monkeypatch.setattr(GridComplex, "_groups", lambda self, k: pytest.fail("grid allocated"))
        # 2 s + 1 cells per axis: one axis of 2^21 cells has 2^22 + 1
        for n, shape in ((3, (512,) * 3), (40, (1,) * 40), (1, (2**21,))):
            with pytest.raises(ValueError, match="more than MAX_GRID_CELLS"):
                GridComplex(n, shape, 0)
        assert solver.MAX_GRID_CELLS == 2**22


# ---------------------------------------------------------------------------
# the annealer's per-move tables against the per-step sums they replaced


def _bump(points):
    """An isotropic weight that differs from cell to cell."""
    return 1.0 + 0.5 * np.exp(-8.0 * np.sum((points - 0.3) ** 2, axis=1))


TABLE_PROBLEMS = {
    "square_quarter": lambda: square_problem(2),
    "l8": lambda: sheet_problem(3, (8,) * 3, 3, l_sheet(8)),
    "l8_far": lambda: sheet_problem(3, (8,) * 3, 3, l_sheet(8, far_wall=True)),
    "tilt": lambda: square_problem(2, integrand=TiltPenaltyIntegrand(Plane.axis(3, (0, 2)), lam=0.7)),
    "riemannian": lambda: sheet_problem(3, (6,) * 3, 2, l_sheet(6, far_wall=True),
                                        integrand=RiemannianWeightIntegrand(_bump, 1.0, 1.5)),
}


@contextlib.contextmanager
def _deadline(seconds):
    """AssertionError if the block runs past ``seconds`` (where SIGALRM
    exists): a move table left stale after a greedy accept would make the
    greedy pass take that move back and forth for ever."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def stop(signum, frame):
        raise AssertionError(f"ran past {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestMoveTables:
    @pytest.mark.parametrize("case", sorted(TABLE_PROBLEMS))
    def test_minimize_matches_the_per_step_oracle(self, case):
        p = TABLE_PROBLEMS[case]()
        for seed in range(4):
            kwargs = dict(seed=seed, restarts=1 + seed % 3, steps=1200)
            with _deadline(30.0):
                got = minimize(p, **kwargs)
            want = minimize_oracle(p, **kwargs)
            assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            assert got.chain.bits.tobytes() == want.chain.bits.tobytes()
            assert repr(got.trace) == repr(want.trace)
            assert got.restart_counts == want.restart_counts
            assert np.float64(got.initial_value).tobytes() == np.float64(want.initial_value).tobytes()
            assert got.restarts == want.restarts

    def test_oracle_cases_reach_the_greedy_pass(self):
        # the comparison above covers the table refill after a greedy accept
        # only if some run's greedy pass accepts a move
        with _deadline(30.0):
            greedy = [e for case in ("l8", "riemannian") for seed in range(4)
                      for e in minimize(TABLE_PROBLEMS[case](), seed=seed, restarts=1 + seed % 3, steps=1200).trace
                      if e["step"] == "greedy"]
        assert len(greedy) >= 3

    @pytest.mark.parametrize("width", range(2, 17))
    def test_row_sums_equal_each_row_sum(self, width, rng):
        weights = rng.uniform(0.01, 3.0, (400, width)) * 2.0 ** rng.integers(-30, 30, (400, width))
        sign = 1.0 - 2.0 * (rng.random((400, width)) < 0.5)
        table = np.empty(400)
        np.sum(weights * sign, axis=1, out=table)
        assert table.tobytes() == np.array([np.sum(w * s) for w, s in zip(weights, sign)]).tobytes()

    def test_tie_bit_is_the_chain_key_order(self, rng):
        p = TABLE_PROBLEMS["l8"]()
        moves = p.complex.facets(3)
        for density in (0.1, 0.5, 0.9):
            bits = rng.random(p.complex.count(2)) < density
            for j, col in enumerate(moves):
                cand = bits.copy()
                cand[col] ^= True
                assert bool(bits[moves[j, 0]]) == (_chain_key(cand) < _chain_key(bits))


# ---------------------------------------------------------------------------
# the prism filling against the column reduction it replaced


def _random_boxes(rng):
    """(complex, m) for random boxes: n = 1-5, every m, shapes 1-3, origins -2..1, levels 0-2."""
    for n in range(1, 6):
        for _ in range(4):
            cx = GridComplex(n, rng.integers(1, 4, n).tolist(), int(rng.integers(0, 3)), rng.integers(-2, 2, n).tolist())
            for m in range(1, n + 1):
                yield cx, m


class TestPrismFilling:
    def test_filling_is_the_leftmost_solution(self, rng):
        cases = 0
        for cx, m in _random_boxes(rng):
            red = boundary_reduction_oracle(cx, m)
            assert cx.sweep_cells(m).tolist() == sorted(c.bit_length() - 1 for _, c in red.pivots.values())
            # boundaries of random chains, with entries taken mod 2
            zs = [cx.boundary(m, rng.random(cx.count(m)) < d) + 2 * rng.integers(0, 2, cx.count(m - 1)).astype(np.uint8)
                  for d in (0.1, 0.4, 0.7)]
            for gens in ([zs[0]], zs):
                support = np.flatnonzero(np.any(gens, axis=0))
                p = SpanningProblem(cx, m, cx.cubes(m - 1, support), gens, AreaIntegrand())
                for z in gens:
                    assert np.array_equal(cx.boundary(m, cx.filling(m, z)), z % 2)
                got, want = initial_chain(p), initial_chain_oracle(p)
                assert got.bits.tobytes() == want.bits.tobytes()
                cases += 1
        assert cases == 2 * 4 * 15

    def test_odd_zero_cycle_is_infeasible(self, rng):
        for cx, m in _random_boxes(rng):
            if m > 1:
                continue
            vertices = rng.choice(cx.count(0), 1 + 2 * int(rng.integers(0, (cx.count(0) - 1) // 2 + 1)), replace=False)
            z = np.bincount(vertices, minlength=cx.count(0)).astype(np.uint8)
            p = SpanningProblem(cx, 1, cx.cubes(0, vertices), [z], AreaIntegrand())
            for fill in (initial_chain, initial_chain_oracle):
                with pytest.raises(InfeasibleError, match="^a generator is not a boundary in the full grid$"):
                    fill(p)

    def test_kernel_dim_is_the_reduction_kernel_length(self, rng):
        for cx, m in _random_boxes(rng):
            assert cx.kernel_dim(m) == len(boundary_reduction_oracle(cx, m).kernel)

    def test_sweep_boundaries_are_a_kernel_basis(self, rng):
        # exhaustive_oracle's basis: the boundaries of sweep_cells(m + 1),
        # independent, in ker d_m and kernel_dim(m) in number
        for cx, m in _random_boxes(rng):
            if m == cx.n:
                assert cx.kernel_dim(m) == 0
                continue
            basis = boundary_matrix_oracle(cx, m + 1)[:, cx.sweep_cells(m + 1)]
            assert basis.shape[1] == cx.kernel_dim(m)
            assert len(gf2_rref_oracle(basis)[1]) == basis.shape[1]
            assert not (boundary_matrix_oracle(cx, m).astype(np.int64) @ basis % 2).any()


class TestReductionFootprint:
    def test_initial_chain_keeps_no_reduction(self):
        p = l_problem(16)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            chain = initial_chain(p)
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert kept < 2 * 2**20 and chain.count()

    def test_filling_paths_build_no_reduction(self, monkeypatch):
        def refuse(columns):
            raise AssertionError("a _Reduction was built")

        monkeypatch.setattr(solver, "_Reduction", refuse)
        for case in ("square_half", "square_quarter", "l8", "l12_wavy", "l16", "l8_far", "l16_far"):
            p = KEY_PROBLEMS[case]()
            initial_chain(p)
            _projection_lower_bound(p, p.cell_weights())

    def test_oracle_builds_no_reduction_on_one_generator(self, monkeypatch):
        def refuse(columns):
            raise AssertionError("a _Reduction was built")

        monkeypatch.setattr(solver, "_Reduction", refuse)
        # kernel dims 8, 64 and 16: the enumeration at budget 18 but for the
        # quarter square, the projection certificate or the branch and bound at 0
        for case in ("square_half", "square_quarter", "n4_m3"):
            p = KEY_PROBLEMS[case]()
            for budget_dim in (0, 18):
                try:
                    exhaustive_oracle(p, budget_dim=budget_dim, node_budget=2000)
                except OracleBudgetError:
                    pass
