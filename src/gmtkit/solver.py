"""Discrete Plateau minimizer over mod-2 cubical chains.

A spanning problem fixes a grid complex, a boundary subcomplex B, and a
list of mod-2 (m-1)-cycles supported in B.  A chain of m-cells spans when
every generator becomes a boundary inside B union the chain; the solver
minimizes the anisotropic cell energy by simulated-annealing moves that add
boundaries of (m+1)-cells, re-checking spanning at every acceptance.
"""

from __future__ import annotations

import collections.abc
import functools
import itertools
import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _grid
from .cubical import DyadicCube, _CellList, _row_dicts, _RowCells
from .grassmann import Plane, _mgs
from .varifold import SPACING_PROBES, DiscreteVarifold, unit_ball_volume

logger = logging.getLogger("gmtkit.solver")

__all__ = [
    "GridComplex",
    "Chain2",
    "SpanningProblem",
    "spans",
    "initial_chain",
    "minimize",
    "MinimizeResult",
    "exhaustive_oracle",
    "OracleBudgetError",
    "InfeasibleError",
    "audit_minimizer",
    "chain_to_varifold",
]


# ---------------------------------------------------------------------------
# GF(2) linear algebra


class _Reduction:
    """Left-to-right column reduction over GF(2) on Python-int bitsets.

    ``columns`` lists the set row indices of each column.  Each column adds
    earlier reduced columns until its highest set bit is no earlier pivot or
    it vanishes (Edelsbrunner, Letscher and Zomorodian 2002).  Survivors,
    keyed by pivot with the combination of original columns that produced
    them, are the greedy leftmost basis; ``kernel`` holds the combinations
    of the vanished columns, in column order (the tests' GF(2) oracles
    read it; ``spans`` needs only ``solve``).
    """

    def __init__(self, columns):
        self.pivots = {}  # highest set bit -> (reduced column, combination)
        self.kernel = []
        for j, rows in enumerate(columns):
            col, combo = sum(1 << i for i in rows), 1 << j
            while col:
                hit = self.pivots.get(col.bit_length() - 1)
                if hit is None:
                    self.pivots[col.bit_length() - 1] = (col, combo)
                    break
                col ^= hit[0]
                combo ^= hit[1]
            else:
                self.kernel.append(combo)

    def solve(self, b):
        """The solution of a x = b supported on the basis columns, or None."""
        x = 0
        while b:
            hit = self.pivots.get(b.bit_length() - 1)
            if hit is None:
                return None
            b ^= hit[0]
            x ^= hit[1]
        return x


def _to_int(bits):
    """A GF(2) vector (entries taken mod 2) as a Python-int bitset."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8) % 2, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


# ---------------------------------------------------------------------------
# the grid complex


MAX_GRID_CELLS = 1 << 22  # cells of all dimensions a GridComplex may have


def _check_grid_cells(shape):
    """ValueError when a grid of ``shape`` top cells has more than
    MAX_GRID_CELLS cells of all dimensions, prod(2 s_j + 1), in Python ints."""
    total = math.prod(2 * s + 1 for s in shape)
    if total > MAX_GRID_CELLS:
        raise ValueError(f"a grid of {list(shape)} cells has {total} cells of all dimensions, "
                         f"more than MAX_GRID_CELLS = {MAX_GRID_CELLS}")


@functools.cache
def _axes_ranks(n, k):
    """axes -> rank in ``itertools.combinations(range(n), k)``."""
    return {axes: r for r, axes in enumerate(itertools.combinations(range(n), k))}


class _CellIndex(collections.abc.Mapping):
    """cube -> (k, row in cells[k]), looked up from the cube's key by
    ``GridComplex.rows``; iterates the cells in key order."""

    def __init__(self, cx):
        self._cx = cx

    def __getitem__(self, cube):
        k = len(cube.axes) if isinstance(cube, DyadicCube) else 0
        return k, int(self._cx.rows(k, [cube])[0])

    def __len__(self):
        return sum(map(self._cx.count, range(self._cx.n + 1)))

    def __iter__(self):
        return itertools.chain.from_iterable(self._cx.cells.values())


class GridComplex(_RowCells):
    """The full cubical complex of a uniform grid of cells.

    ``shape`` counts top cells per axis; cells live at refinement ``level``
    starting at the integer ``origin`` (units of the cell side).  The sorted
    integer keys ``_cell_keys[k]`` are the only per-cell storage: the solver
    decodes corners and axes from them, ``cell_rows`` hands the cells out as
    rows, and ``cells`` and ``index`` are views that decode or look up one
    cell at a time.  A grid has prod(2 s_j + 1) cells of all dimensions;
    ValueError beyond MAX_GRID_CELLS, before any array is made.
    """

    def __init__(self, n, shape, level, origin=None):
        self.n = int(n)
        self.shape = tuple(int(s) for s in shape)
        self.level = int(level)
        self.origin = tuple(0 for _ in range(n)) if origin is None else tuple(origin)
        if len(self.shape) != n or len(self.origin) != n:
            raise ValueError("shape/origin must have length n")
        _check_grid_cells(self.shape)
        self._cell_keys = {k: np.sort(np.concatenate([self._keys(c, k, r) for r, _, c in self._groups(k)]))
                           for k in range(n + 1)}
        self._facets = {}

    @property
    def side(self):
        return 2.0 ** (-self.level)

    def count(self, k):
        return len(self._cell_keys[k])

    @functools.cached_property
    def cells(self):
        """k -> the k-cells as DyadicCubes, in key order: a view that decodes
        them from their keys (``_CellList``)."""
        return {k: _CellList(self, k) for k in range(self.n + 1)}

    @functools.cached_property
    def index(self):
        """cube -> (k, row in cells[k]): a view that finds each cube's key
        (``_CellIndex``); KeyError for anything that is not a cell."""
        return _CellIndex(self)

    def _groups(self, k):
        """(rank, axes, corners) for each axis set of the k-cells, one corner per row."""
        for rank, axes in enumerate(itertools.combinations(range(self.n), k)):
            extent = [s + (j not in axes) for j, s in enumerate(self.shape)]
            yield rank, axes, np.indices(extent).reshape(self.n, -1).T + self.origin

    def _keys(self, corners, k, rank):
        """Integer keys, ascending in the cells' (corner, axes) sort order: the
        mixed-radix code of the corner, times C(n, k), plus the rank of the
        axes in ``itertools.combinations(range(n), k)``."""
        return _grid.cell_codes(corners, self.origin, np.add(self.shape, 1)) * math.comb(self.n, k) + rank

    def _find(self, k, corners, rank):
        """The rows in cells[k] of the k-cells with these corners and axes ranks."""
        return np.searchsorted(self._cell_keys[k], self._keys(corners, k, rank))

    def _masks(self, k):
        """The free-axis mask of each axes rank of the k-cells."""
        return np.array([[j in axes for j in range(self.n)] for axes in itertools.combinations(range(self.n), k)],
                        dtype=bool).reshape(-1, self.n)

    def decode(self, k, rows=slice(None)):
        """(corners, rank) of the k-cells at ``rows``, from their keys: the
        integer corners and the ranks of the axes."""
        code, rank = np.divmod(self._cell_keys[k][rows], math.comb(self.n, k))
        return _grid.cell_corners(code, self.origin, np.add(self.shape, 1)), rank

    def cell_rows(self, k, rows=slice(None)):
        """(levels, corners, free-axis masks) of the k-cells at ``rows``, from their keys."""
        corners, rank = self.decode(k, rows)
        return np.full(len(corners), self.level), corners, self._masks(k)[rank]

    def _key(self, k, cube):
        """The key of ``cube`` among the k-cells, by the ``_keys`` formula in
        Python ints; KeyError when it is not a k-cell of the grid."""
        rank = _axes_ranks(self.n, k).get(cube.axes) if isinstance(cube, DyadicCube) else None
        if rank is not None and (cube.level, cube.ambient_dim) == (self.level, self.n):
            code = 0
            for j, (c, start, size) in enumerate(zip(cube.corner, self.origin, self.shape)):
                if not (isinstance(c, numbers.Integral) and start <= c <= start + size - (j in cube.axes)):
                    break
                code = code * (size + 1) + c - start
            else:
                return code * math.comb(self.n, k) + rank
        raise KeyError(f"{cube} is not a {k}-cell of the grid")

    def rows(self, k, cubes):
        """Each cube's row in ``cells[k]``, from its key; KeyError names the
        first cube that is not a k-cell of the grid."""
        keys = np.array([self._key(k, c) for c in cubes], dtype=np.int64)
        return np.searchsorted(self._cell_keys[k], keys)

    def facets(self, k):
        """The (count(k), 2k) facet indices of each k-cell, rows ascending (cached):
        for each a in its axes A, the cells with axes A - {a} at its corner c and at c + e_a."""
        if k not in self._facets:
            if not 1 <= k <= self.n:
                raise ValueError("boundary defined for 1 <= k <= n")
            lower = list(itertools.combinations(range(self.n), k - 1))
            rows = np.empty((self.count(k), 2 * k), dtype=np.intp)
            for rank, axes, corners in self._groups(k):
                faces = [self._find(k - 1, corners + s * np.eye(self.n, dtype=int)[a],
                                    lower.index(axes[:i] + axes[i + 1:]))
                         for i, a in enumerate(axes) for s in (0, 1)]
                rows[self._find(k, corners, rank)] = np.column_stack(faces)
            rows.sort(axis=1)
            self._facets[k] = rows
        return self._facets[k]

    def sweep_cells(self, k):
        """The rows of the k-cells the prism sweep writes (``filling``), k >= 1:
        those whose lowest axis j has its corner on x_i = origin_i for every i < j."""
        corners, rank = self.decode(k)
        lowest = np.array([axes[0] for axes in itertools.combinations(range(self.n), k)])[rank]
        below = np.arange(self.n) < lowest[:, None]
        return np.flatnonzero(~((corners != self.origin) & below).any(axis=1))

    def filling(self, m, z):
        """The m-chain c with boundary z, for an (m-1)-cycle z of the box
        (entries taken mod 2), as a bool vector over the m-cells: the prism
        sweep c = sum_j P_j pi_{j-1} ... pi_0 z (Kaczynski, Mischaikow and
        Mrozek, *Computational Homology*, 2004).

        pi_j moves each cell onto x_j = origin_j and drops the cells that
        have axis j; P_j sweeps each cell that lacks axis j down to
        x_j = origin_j, the run of cells with axes A + {j} in between.  Over
        GF(2), dP_j + P_j d = id + pi_j, so the sweeps fill all of a cycle
        but what the last projection leaves at the origin vertex: nothing
        in dimension >= 1, the parity of a 0-cycle.  An odd 0-cycle bounds
        nothing: InfeasibleError.

        P_j writes only the cells S_j whose lowest axis is j and whose
        corner has x_i = origin_i for i < j (S = ``sweep_cells(m)``), and
        no nonzero chain on S has boundary 0: in its lowest j, the S_j cell
        with the largest x_j keeps its upper j-facet.  So the boundary maps
        the chains on S one to one onto all boundaries, and |S| is the
        rank.  A cell outside S, with x_i > origin_i for some i below its
        axes, is the sum of the other facets of the (m+1)-cell it bounds
        from below along i, all with earlier keys, so it is no pivot.
        Hence S is the pivot columns of the leftmost column reduction of
        the boundary on the m-cells (``boundary_reduction_oracle`` in
        ``tests/oracles.py``), and c is its ``solve(z)``, bit for bit.
        """
        corners, rank = self.decode(m - 1, np.flatnonzero(np.asarray(z, dtype=np.uint8) % 2))
        lower, upper = (list(itertools.combinations(range(self.n), k)) for k in (m - 1, m))
        free = ~self._masks(m - 1)
        hits = []
        for j, start in enumerate(self.origin):
            keep = free[rank, j]
            corners, rank = corners[keep], rank[keep]
            # P_j: each cell's run of (A + {j})-cells from x_j = origin_j up to its own x_j
            length = corners[:, j] - start
            cell = np.repeat(np.arange(len(corners)), length)
            run = corners[cell]
            run[:, j] = start + np.arange(len(cell)) - (np.cumsum(length) - length)[cell]
            lift = np.array([upper.index(tuple(sorted(a + (j,)))) if j not in a else -1 for a in lower])
            hits.append(self._find(m, run, lift[rank[cell]]))
            # pi_j: onto x_j = origin_j, where equal cells cancel in pairs
            corners[:, j] = start
            _, first, count = np.unique(self._keys(corners, m - 1, rank), return_index=True, return_counts=True)
            corners, rank = corners[first[count % 2 == 1]], rank[first[count % 2 == 1]]
        if len(corners):
            raise InfeasibleError("a generator is not a boundary in the full grid")
        return np.bincount(np.concatenate(hits), minlength=self.count(m)) % 2 == 1

    def kernel_dim(self, k):
        """dim ker of the boundary on k-cells, k >= 1: the box is acyclic
        above dimension 0, so it is sum_{i>k} (-1)^(i-k-1) count(i)."""
        return sum((-1) ** (i - k - 1) * self.count(i) for i in range(k + 1, self.n + 1))

    def boundary(self, k, bits):
        """The mod-2 boundary, over the (k-1)-cells, of the k-cells selected by bits."""
        hits = np.bincount(self.facets(k)[np.asarray(bits, dtype=bool)].ravel(),
                           minlength=self.count(k - 1))
        return (hits % 2).astype(np.uint8)

    def boundary_matrix(self, k):
        """Dense (count(k-1), count(k)) uint8 view of the boundary operator."""
        mat = np.zeros((self.count(k - 1), self.count(k)), dtype=np.uint8)
        mat[self.facets(k), np.arange(self.count(k))[:, None]] = 1
        return mat


class Chain2:
    """A mod-2 chain over the m-cells of a grid complex (a cell subset)."""

    def __init__(self, complex_: GridComplex, m, bits=None):
        self.complex = complex_
        self.m = int(m)
        count = complex_.count(m)
        self.bits = (
            np.zeros(count, dtype=bool) if bits is None else np.asarray(bits, dtype=bool).copy()
        )
        if len(self.bits) != count:
            raise ValueError("bit vector length mismatch")

    def cells(self):
        return self.complex.cubes(self.m, np.flatnonzero(self.bits))

    def count(self):
        return int(self.bits.sum())

    def boundary(self):
        return self.complex.boundary(self.m, self.bits)

    def value(self, weights):
        return float(weights[self.bits].sum())

    def to_dict(self):
        return {
            "m": self.m,
            "level": self.complex.level,
            "cells": _row_dicts(*self.complex.cell_rows(self.m, np.flatnonzero(self.bits))),
        }


@dataclass
class SpanningProblem:
    complex: GridComplex
    m: int
    boundary_cells: list  # (m-1)-cubes forming B
    generators: list  # list of bit vectors over the (m-1)-cells
    integrand: object
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 1 or self.m > self.complex.n:
            raise ValueError("m out of range")
        bset = np.zeros(self.complex.count(self.m - 1), dtype=bool)
        bset[self.complex.rows(self.m - 1, self.boundary_cells)] = True
        for z in self.generators:
            z = np.asarray(z, dtype=np.uint8)
            if np.any(z.astype(bool) & ~bset):
                raise ValueError("generator not supported in the boundary set")
            if self.m >= 2 and np.any(self.complex.boundary(self.m - 1, z % 2)):
                raise ValueError("generator is not a cycle")

    def cell_weights(self):
        """Per-m-cell energy F(centre, plane) * side^m."""
        pts = self.complex.centers(self.m)
        rank = self.complex.decode(self.m)[1]
        out = np.zeros(len(pts))
        side = self.complex.side
        for r, axes in enumerate(itertools.combinations(range(self.complex.n), self.m)):
            mask = rank == r
            if not np.any(mask):
                continue
            plane = Plane.axis(self.complex.n, axes)
            frames = np.broadcast_to(plane.frame, (int(mask.sum()),) + plane.frame.shape)
            out[mask] = self.integrand.evaluate(pts[mask], frames) * side**self.m
        return out


class InfeasibleError(RuntimeError):
    pass


class OracleBudgetError(RuntimeError):
    pass


def spans(chain: Chain2, problem: SpanningProblem, counts=None) -> bool:
    """Whether every generator bounds inside B union the chain's support.

    A generator equal to the chain's boundary is spanned by the chain itself,
    a certificate that needs no elimination; any other generator is solved
    on a column reduction of the support cells.  ``counts``, when given, is a
    dict whose "certified" or "eliminated" entry counts how this was settled.
    """
    cx, m = problem.complex, problem.m
    boundary = cx.boundary(m, chain.bits)
    pending = [z for z in problem.generators if not np.array_equal(np.asarray(z) % 2, boundary)]
    if counts is not None:
        counts["eliminated" if pending else "certified"] += 1
    if not pending:
        return True
    support = _Reduction(cx.facets(m)[chain.bits].tolist())
    return all(support.solve(_to_int(z)) is not None for z in pending)


def initial_chain(problem: SpanningProblem) -> Chain2:
    """Union of the generators' prism fillings (``GridComplex.filling``),
    each the leftmost-basis solution of the boundary system."""
    union = np.zeros(problem.complex.count(problem.m), dtype=bool)
    for z in problem.generators:
        union |= problem.complex.filling(problem.m, z)
    return Chain2(problem.complex, problem.m, union)


@dataclass
class MinimizeResult:
    chain: Chain2
    value: float
    trace: list
    restarts: int
    initial_value: float
    # per restart: proposals, accepts, span_rejects, certified, eliminated, value
    restart_counts: list = field(default_factory=list)


def _chain_key(bits):
    return bits.tobytes()


def minimize(problem: SpanningProblem, seed=0, restarts=3, steps=4000):
    """Simulated-annealing descent over spanning chains.

    Moves add the boundary of a single (m+1)-cell; every would-be acceptance
    is re-checked for spanning and rejected if it breaks it.  Geometric
    cooling by 0.995 a step from twice the largest cell weight,
    deterministic for a fixed seed; restarts keep the best result by
    (value, cell count, lexicographic bits).

    A step reads its move's energy and cell-count changes from two tables,
    refilled whole after each accepted move.  Facet rows ascend, so the
    first bit a move flips is its lowest facet's: the move makes the bits
    lexicographically smaller exactly when that facet is in the chain.
    """
    if problem.m + 1 > problem.complex.n:
        raise ValueError("no (m+1)-cells to move across")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    weights = problem.cell_weights()
    if not problem.generators:
        empty = Chain2(problem.complex, problem.m)
        return MinimizeResult(empty, 0.0, [], restarts, 0.0)
    start = initial_chain(problem)
    if not spans(start, problem):
        raise InfeasibleError("initial chain does not span")
    moves = problem.complex.facets(problem.m + 1)
    move_weights = weights[moves]
    sign, deltas, flips = np.empty(moves.shape), np.empty(len(moves)), np.empty(len(moves))

    def refill(bits):
        # per move, the sum over its facets of weight * (1 - 2 bit) and of (1 - 2 bit)
        np.subtract(1.0, 2.0 * bits[moves], out=sign)
        np.sum(move_weights * sign, axis=1, out=deltas)
        np.sum(sign, axis=1, out=flips)

    def flip_if_spanning(bits, j, counts):
        bits[moves[j]] ^= True
        if spans(Chain2(problem.complex, problem.m, bits), problem, counts):
            refill(bits)
            return True
        bits[moves[j]] ^= True
        counts["span_rejects"] += 1
        return False

    t0, cooling = float(weights.max()) * 2.0, 0.995
    best = None
    init_val = start.value(weights)
    full_trace = []
    restart_counts = []
    for r in range(restarts):
        rng = np.random.default_rng(seed * 1000 + r)
        bits = start.bits.copy()
        refill(bits)
        value = start.value(weights)
        temp = t0
        trace = []
        counts = {"proposals": steps, "span_rejects": 0, "certified": 0, "eliminated": 0}
        for step in range(steps):
            j = int(rng.integers(len(moves)))
            delta = float(deltas[j])
            accept = delta < -1e-15
            if not accept and delta <= 1e-15:
                # value tie: prefer fewer cells, then lexicographically smaller bits
                accept = bool(flips[j] < 0 or (flips[j] == 0 and bits[moves[j, 0]]))
            if not accept and temp > 1e-12:
                accept = rng.random() < math.exp(-delta / temp)
            if accept and flip_if_spanning(bits, j, counts):
                value += delta
                trace.append({"restart": r, "step": step, "cell": j, "delta": delta, "value": value})
            temp *= cooling
        # final greedy pass: first-improvement descent
        improved = True
        while improved:
            improved = False
            counts["proposals"] += len(moves)
            for j in range(len(moves)):
                delta = float(deltas[j])
                if delta < -1e-12 and flip_if_spanning(bits, j, counts):
                    value += delta
                    trace.append({"restart": r, "step": "greedy", "cell": j, "delta": delta, "value": value})
                    improved = True
        chain = Chain2(problem.complex, problem.m, bits)
        key = (value, chain.count(), _chain_key(bits))
        if best is None or key < best[0]:
            best = (key, chain, trace)
        full_trace.extend(trace)
        restart_counts.append(dict(counts, restart=r, accepts=len(trace), value=value))
        logger.info("minimize restart %(restart)d: %(proposals)d proposals, %(accepts)d accepts, "
                    "%(span_rejects)d broke spanning; checks settled %(certified)d by dc = z, "
                    "%(eliminated)d by elimination; value %(value).6g", restart_counts[-1])
    chain = best[1]
    final_value = chain.value(weights)
    logger.info("minimize: value %.6g with %d cells (initial %.6g)", final_value, chain.count(), init_val)
    return MinimizeResult(chain, final_value, full_trace, restarts, init_val, restart_counts)


def _projection_lower_bound(problem: SpanningProblem, weights):
    """Certified lower bound: project onto each m-subset of axes; the unique
    filling of the projected generator (its prism filling, since an m-box
    has no m-cycles) forces one cell per stack, each costing at least the
    cheapest cell of its stack."""
    cx = problem.complex
    n, m = cx.n, problem.m
    best = 0.0
    corners, rank = cx.decode(m)
    faces = list(itertools.combinations(range(n), m - 1))  # the axes of the (m-1)-cells, by rank
    for r, axes in enumerate(itertools.combinations(range(n), m)):
        proj = GridComplex(m, [cx.shape[a] for a in axes], cx.level, origin=[cx.origin[a] for a in axes])
        # the cheapest cell of each stack: the m-cells with these axes over one projected m-cell
        mine = rank == r
        stack = np.full(proj.count(m), math.inf)
        np.minimum.at(stack, proj._find(m, corners[mine][:, list(axes)], 0), weights[mine])
        # each (m-1)-cell's axes rank in the projection, -1 for axes outside these
        subs = list(itertools.combinations(axes, m - 1))
        prank = np.array([subs.index(f) if f in subs else -1 for f in faces])
        for z in problem.generators:
            zc, zr = cx.decode(m - 1, np.flatnonzero(np.asarray(z, dtype=np.uint8)))
            keep = prank[zr] >= 0
            pz = np.bincount(proj._find(m - 1, zc[keep][:, list(axes)], prank[zr[keep]]),
                             minlength=proj.count(m - 1)) % 2
            x = proj.filling(m, pz)
            if not x.any():
                continue
            # no stack is empty; the forced cells' minima are summed in order
            best = max(best, float(np.cumsum(stack[x])[-1]))
    return best


def exhaustive_oracle(problem: SpanningProblem, budget_dim=18, node_budget=500_000):
    """Independent global minimum over the reachable chain coset.

    Enumerates initial + ker(boundary) in Gray-code order when the kernel
    dimension fits the budget, one XOR per step, keeping the least (value,
    cell count, bits) among the chains that span: a total order, so the
    basis does not change the answer, and only a chain whose key beats the
    incumbent is checked for spanning.  The basis is the boundaries of the
    (m+1)-cells ``sweep_cells(m + 1)``, which are independent (``GridComplex.filling``)
    and, the box being acyclic, ``kernel_dim(m)`` in number.  Otherwise
    tries a projection certificate (descent incumbent matching a certified
    lower bound) and falls back to branch and bound over the (m+1)-cell
    generators, bounded by the weight of the chain's cells that no later
    move touches, erroring out at the node budget.  With several
    generators the incumbent is the initial chain when the descent, which
    does not check spanning, leaves a chain that does not span.
    """
    weights = problem.cell_weights()
    cx, m = problem.complex, problem.m
    if not problem.generators:
        return Chain2(cx, m), 0.0
    start = initial_chain(problem)
    dim = cx.kernel_dim(m)
    single = len(problem.generators) == 1
    if dim <= budget_dim:
        basis = np.zeros((dim, cx.count(m)), dtype=bool)
        if dim:
            basis[np.arange(dim)[:, None], cx.facets(m + 1)[cx.sweep_cells(m + 1)]] = True
        walk = Chain2(cx, m, start.bits)  # its bits take one basis vector per step
        best = None
        for step in range(2**dim):  # Gray-code order
            if step:
                walk.bits ^= basis[(step & -step).bit_length() - 1]
            key = (walk.value(weights), walk.count(), _chain_key(walk.bits))
            if (best is None or key < best[0]) and (single or spans(walk, problem)):
                best = (key, walk.bits.copy())
        return Chain2(cx, m, best[1]), best[0][0]
    # descent incumbent
    moves = cx.facets(m + 1)
    bits = start.bits.copy()
    value = start.value(weights)
    improved = True
    while improved:
        improved = False
        for col in moves:
            delta = float(np.sum(weights[col] * (1.0 - 2.0 * bits[col])))
            if delta < -1e-12:
                bits[col] ^= True
                value += delta
                improved = True
    if not (single or spans(Chain2(cx, m, bits), problem)):
        bits, value = start.bits.copy(), start.value(weights)  # the incumbent must span
    lb = _projection_lower_bound(problem, weights)
    if single and value <= lb + 1e-9:
        return Chain2(cx, m, bits), value
    # branch and bound over (m+1)-cell flips with a frozen-cell bound
    n_moves = len(moves)
    last = np.full(cx.count(m), -1)  # the last move that touches each m-cell
    np.maximum.at(last, moves, np.arange(n_moves)[:, None])
    best_bits, best_val = bits.copy(), value
    nodes = 0

    def frozen_bound(cur_bits, depth):
        # the chain's cells no move from depth on touches, summed in cell order
        frozen = weights[cur_bits & (last < depth)]
        return float(np.cumsum(frozen)[-1]) if len(frozen) else 0.0

    def dfs(depth, cur_bits, cur_val):
        nonlocal best_bits, best_val, nodes
        nodes += 1
        if nodes > node_budget:
            raise OracleBudgetError(
                f"oracle budget exceeded: kernel dim {dim}, {nodes} nodes"
            )
        if depth == n_moves:
            if cur_val < best_val - 1e-12:
                if single or spans(Chain2(cx, m, cur_bits), problem):
                    best_bits, best_val = cur_bits.copy(), cur_val
            return
        if frozen_bound(cur_bits, depth) >= best_val - 1e-12:
            return
        col = moves[depth]
        delta = float(np.sum(weights[col] * (1.0 - 2.0 * cur_bits[col])))
        order = (0, 1) if delta >= 0 else (1, 0)
        for pick in order:
            if pick == 0:
                dfs(depth + 1, cur_bits, cur_val)
            else:
                nb = cur_bits.copy()
                nb[col] ^= True
                dfs(depth + 1, nb, cur_val + delta)

    dfs(0, bits, value)
    return Chain2(cx, m, best_bits), best_val


# ---------------------------------------------------------------------------
# auditing


def chain_to_varifold(chain: Chain2, subdivision=4):
    """Sample the chain's cells on a per-cell subgrid with side^m weights."""
    points, weights, frames, frame_of = _chain_samples(chain, subdivision)
    return DiscreteVarifold(points, frames[frame_of], weights)


def _chain_samples(chain: Chain2, sub):
    """The sample points and weights of ``chain_to_varifold``, the C(n, m)
    axis frames in ``itertools.combinations`` order, and each sample's index
    into them: the samples come in the order of their cells' axes."""
    n, m, side = chain.complex.n, chain.m, chain.complex.side
    corners, rank = chain.complex.decode(m, np.flatnonzero(chain.bits))
    ticks = (np.arange(sub) + 0.5) / sub * side
    mesh = np.stack(np.meshgrid(*([ticks] * m), indexing="ij"), axis=-1).reshape(-1, m)
    combos = list(itertools.combinations(range(n), m))
    parts = []
    for r, axes in enumerate(combos):
        pts = np.repeat(corners[rank == r] * side, len(mesh), axis=0)  # each cell's lower corner, once per mesh point
        pts[:, list(axes)] += np.tile(mesh, (len(pts) // len(mesh), 1))
        parts.append(pts)
    points = np.concatenate(parts)
    frame_of = np.repeat(np.arange(len(combos)), [len(p) for p in parts])
    frames = np.stack([Plane.axis(n, axes).frame for axes in combos])
    return points, np.full(len(points), (side / sub) ** m), frames, frame_of


AUDIT_BLOCK = 1 << 14  # query-candidate pairs one block of the audit measures


def _reach_groups(points, xs, reach):
    """(pairs, groups): the audit points in groups, each with the samples it
    measures in index order.  In a grid of side ``_grid.reach_cell(reach)``
    a group is the points of one cell with the samples of its 3^n cells,
    less those outside the points' bounding box widened by ``reach``:
    rounding is monotone and fl(sqrt(fl(t^2))) = |t|, so a sample more than
    ``reach`` past the box along one axis is more than ``reach`` from every
    point.  One group of every sample when that grid would cost more than
    all pairs, or cannot decide."""
    grid = _grid.neighbours(points, xs, _grid.reach_cell(reach), budget=len(xs) * len(points))
    if grid is None:
        return len(xs) * len(points), [(np.arange(len(xs)), np.arange(len(points)))]
    groups, pairs = [], 0
    for g in range(len(grid.qbounds) - 1):
        q, c = grid.queries[grid.qbounds[g]:grid.qbounds[g + 1]], grid.cands[grid.cbounds[g]:grid.cbounds[g + 1]]
        box, pc = xs[q], points[c]
        c = c[~((pc - box.max(axis=0) > reach) | (box.min(axis=0) - pc > reach)).any(axis=1)]
        groups.append((q, c))
        pairs += len(q) * len(c)
    return pairs, groups


def _rows_by_count(mask, least=1):
    """For each count L >= least of the true entries in a row of ``mask``:
    the rows holding L, and each one's true columns in order, (rows, L)."""
    counts = np.count_nonzero(mask, axis=1)
    for count in np.unique(counts[counts >= least]).tolist():
        rows = np.flatnonzero(counts == count)
        yield rows, np.nonzero(mask[rows])[1].reshape(len(rows), count)


def audit_minimizer(chain: Chain2, integrand, radii=None, subdivision=8,
                    ratio_bounds=(0.9, 1.1), fit_radius=None, audit_points=None):
    """Density-ratio and tilt audit of a solution chain.

    Converts the chain to a discrete varifold, computes density ratios at
    support points over a radius ladder, classifies points near the chain's
    mod-2 boundary as boundary rather than violations, and reports the
    tilt-excess statistic against local plane fits.  ``integrand`` is
    accepted for the callers' sake and not read: the audit measures area.

    Each audit point measures only the samples that ``_reach_groups`` gives
    it: those in the 3^n cells around its own in a grid of side
    reach / 0.625, reach = max(radii, fit_radius) (``_grid.reach_cell``),
    inside its group's bounding box widened by reach; or every sample, when
    that grid would cost more than all pairs.  A group's points go in
    blocks of whole points, about ``AUDIT_BLOCK`` pairs each, with one
    ``_grid.pair_norms`` call per block.  Per radius, the points of a block
    whose balls hold equally many samples sum their masses as the rows of
    one (points, samples) array; points with equally many samples in the
    fit ball share one stacked mean, ``svd`` and ``_mgs``, and one
    ``eigvalsh`` per fit and distinct axis frame (a chain's samples carry
    only C(n, m) frames) gives each sample its tilt.  The candidates stay in
    index order and a row's sum is the sum of that row alone, so every mass,
    fit and tilt is the float of a scan of all samples, in its order; the
    tilts are summed in the order of the audit points.  The spacing that
    marks radii below 5 x spacing unreliable is ``sample_spacing``'s, exact
    (``_grid.median_spacing`` at SPACING_PROBES); the INFO line gives it
    and its probe count, and counts the pairs measured.  The boundary test
    is ``_grid.nearest_all`` in blocks of ``AUDIT_BLOCK`` pairs.
    """
    if chain.count() == 0:
        raise ValueError("audit needs a nonempty chain")
    m = chain.m
    points, weights, frames, frame_of = _chain_samples(chain, subdivision)
    side = chain.complex.side
    if radii is None:
        radii = [side * f for f in (1.2, 1.6, 2.0)]
    if fit_radius is None:
        fit_radius = side * 1.5
    omega = unit_ball_volume(m)
    lo, hi = ratio_bounds[0] * omega, ratio_bounds[1] * omega
    # boundary cells of the chain (odd incidence)
    bpts = chain.complex.centers(m - 1, np.flatnonzero(chain.boundary()))
    if audit_points is None:
        audit_points = chain.complex.centers(m, np.flatnonzero(chain.bits))
    spacing, probes = _grid.median_spacing(points, SPACING_PROBES)[:2]  # sample_spacing, and its probe count
    audit_points = list(audit_points)
    xs = np.asarray(audit_points, dtype=float).reshape(len(audit_points), chain.complex.n)
    if len(xs) and any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    pairs, groups = _reach_groups(points, xs, max([*radii, fit_radius]))
    projectors = np.einsum("nij,nkj->nik", frames, frames)
    mass = np.zeros((len(xs), len(radii)))
    tilt, fit_weight, fitted = np.zeros(len(xs)), np.zeros(len(xs)), np.zeros(len(xs), dtype=bool)
    for q, c in groups:
        if not len(c):
            continue
        pc, wc, fc = points[c], weights[c], frame_of[c]
        rows = max(1, AUDIT_BLOCK // len(c))
        for start in range(0, len(q), rows):
            qb = q[start:start + rows]
            d = _grid.pair_norms(pc - xs[qb][:, None])
            for j, r in enumerate(radii):
                for sel, cols in _rows_by_count(d <= r):
                    mass[qb[sel], j] = wc[cols].sum(axis=1)
            for sel, cols in _rows_by_count(d <= fit_radius, m + 1):  # enough samples for a plane fit
                fit = pc[cols]
                _, _, vt = np.linalg.svd(fit - fit.mean(axis=1, keepdims=True), full_matrices=False)
                h = _mgs(vt[:, :m].transpose(0, 2, 1))
                eig = np.linalg.eigvalsh(projectors - (h @ h.transpose(0, 2, 1))[:, None])
                dist = np.maximum(eig[..., -1], -eig[..., 0]) ** 2  # (fits, frames)
                ws = wc[cols]
                tilt[qb[sel]] = (ws * np.take_along_axis(dist, fc[cols], axis=1)).sum(axis=1)
                fit_weight[qb[sel]] = ws.sum(axis=1)
                fitted[qb[sel]] = True
    near = _grid.nearest_all(xs, bpts, distinct=False, block=AUDIT_BLOCK) <= max(radii)
    reliable = [bool(r >= 5.0 * spacing) for r in radii]
    entries, tilt_total, tilt_weight = [], 0.0, 0.0
    for i, x in enumerate(xs):  # in the order of the audit points
        ratios = []
        for j, r in enumerate(radii):
            ratio = float(mass[i, j]) / r**m
            if not reliable[j]:
                flag = "unreliable"
            elif near[i]:
                flag = "boundary"
            elif lo <= ratio <= hi:
                flag = "ok"
            else:
                flag = "violation"
            ratios.append((float(r), ratio, flag))
        if fitted[i]:
            tilt_total += float(tilt[i])
            tilt_weight += float(fit_weight[i])
        entries.append({"point": x.tolist(), "ratios": ratios, "boundary": bool(near[i]),
                        "tilt": float(tilt[i]) if fitted[i] else None})
    all_ratios = [
        rec[1] for e in entries for rec in e["ratios"] if rec[2] in ("ok", "violation")
    ]
    report = {
        "m": m,
        "omega_m": omega,
        "radii": list(map(float, radii)),
        "ratio_bounds": [lo, hi],
        "min_ratio": min(all_ratios) if all_ratios else None,
        "max_ratio": max(all_ratios) if all_ratios else None,
        "violations": sum(1 for e in entries for rec in e["ratios"] if rec[2] == "violation"),
        "boundary_points": sum(1 for e in entries if e["boundary"]),
        "tilt_excess": tilt_total / tilt_weight if tilt_weight else None,
        "entries": entries,
        "subdivision": subdivision,
    }
    logger.info("audit: sample spacing %.6g from %d probes, %d audit points, %d sample pairs, "
                "%d violations", spacing, probes, len(entries), pairs,
                report["violations"])
    return report
