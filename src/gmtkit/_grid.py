"""Every grid decision of gmtkit: integer cell codes, the fixed-radius
neighbour search (Bentley, Stanat and Williams, IPL 6, 1977) with its
all-pairs fallback, the one blocked nearest-sample minimum, the one median
spacing, the bitwise-distinct rows of an array, distinct-cell counts and
single-linkage cell clusters.
No routine takes a Python step per cell or per query."""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

PAIR_BLOCK = 1 << 16  # sample pairs one block of a nearest-sample search measures


def cell_codes(cells, origin, radix):
    """Mixed-radix int64 codes of integer cells (one per row) in the box
    origin + [0, radix), ascending in lexicographic order; with origin 0,
    an offset's code is the step it makes."""
    cells = np.asarray(cells, dtype=np.int64)
    code = np.zeros(cells.shape[:-1], dtype=np.int64)
    for j, (start, size) in enumerate(zip(origin, radix)):
        code *= size
        code += cells[..., j]
        code -= start
    return code


def cell_corners(codes, origin, radix):
    """The integer cells (one per row) whose ``cell_codes`` are ``codes``."""
    return np.stack(np.unravel_index(codes, tuple(radix)), axis=-1) + np.asarray(origin, dtype=np.int64)


def ranges(starts, counts):
    """The ranges [start, start + count) one after another, as one array."""
    counts = np.asarray(counts, dtype=np.int64)
    out = np.repeat(starts - np.cumsum(counts) + counts, counts)
    out += np.arange(len(out))
    return out


def pair_norms(diff):
    """``np.linalg.norm(diff, axis=-1)``, byte for byte: up to 7 coordinates
    numpy sums the squares of a row in order, which a running sum over the
    coordinate columns repeats without the reduction's per-row overhead;
    from 8 on, numpy sums pairwise, and the norm itself is taken."""
    n = diff.shape[-1]
    if n > 7:
        return np.linalg.norm(diff, axis=-1)
    out = diff[..., 0] * diff[..., 0]
    for k in range(1, n):
        out += diff[..., k] * diff[..., k]
    return np.sqrt(out, out=out)


def row_dots(a, b):
    """The dot of each row of a with the same row of b: one BLAS ``ddot``
    per row with the rows' own strides, the bytes of ``a[k] @ b[k]``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_matmul(a, b):
    """``np.einsum("nij,njk->nik", a, b)`` byte for byte, for any equal
    leading shapes.  With C-contiguous operands and k >= 2, einsum adds each
    entry's products to 0.0 in j order, and so does this, one entry at a
    time with (N,) temporaries and no per-row overhead; so does any order
    for j <= 2.  Other layouts can make einsum's inner loop a dot product
    over j that adds in another order, and einsum itself runs them."""
    if a.shape[-1] > 2 and not (b.shape[-1] > 1 and a.flags.c_contiguous and b.flags.c_contiguous):
        return np.einsum("nij,njk->nik" if a.ndim == 3 else "...ij,...jk->...ik", a, b)
    out = np.zeros(a.shape[:-1] + b.shape[-1:])
    prod = np.empty(out.shape[:-2])
    for i in range(out.shape[-2]):
        for k in range(out.shape[-1]):
            acc = out[..., i, k]
            for j in range(a.shape[-1]):
                acc += np.multiply(a[..., i, j], b[..., j, k], out=prod)
    return out


def nearest_all(probes, points, distinct, block=None):
    """Each probe's distance to its nearest sample (inf if none), against all
    samples ``block`` pairs at a time (default PAIR_BLOCK); with
    ``distinct``, a sample at distance zero does not count."""
    block = block or PAIR_BLOCK
    cols = max(1, min(len(points), block))
    rows = max(1, block // cols)
    mins = np.full(len(probes), np.inf)
    for i in range(0, len(probes), rows):
        rows_i, best = probes[i : i + rows], mins[i : i + rows]
        for j in range(0, len(points), cols):
            d = pair_norms(rows_i[:, None, :] - points[None, j : j + cols])
            if distinct:
                d[d == 0.0] = np.inf
            np.minimum(best, d.min(axis=1), out=best)
    return mins


class Neighbours(NamedTuple):
    """Group g: the queries of one cell, ``queries[qbounds[g]:qbounds[g+1]]``,
    and the samples in its 3^n cells, ``cands[cbounds[g]:cbounds[g+1]]``,
    both in index order; ``pairs`` counts the query-candidate pairs."""

    queries: np.ndarray
    qbounds: np.ndarray
    cands: np.ndarray
    cbounds: np.ndarray
    pairs: int


def _runs(points, queries, cell, budget):
    """(order, qorder, qbounds, left, sizes, pairs) of ``neighbours``, or
    None: the samples and the queries sorted by cell code, the bounds of
    each query cell's group, and for each group the start and the size of
    each of its 3^(n-1) runs in the samples' order."""
    npts, n = points.shape
    if not 0.0 < cell < math.inf or npts == 0 or len(queries) * 3 ** (n - 1) > budget:
        return None
    with np.errstate(over="ignore"):
        keys, qkeys = np.floor(points / cell), np.floor(queries / cell)
    if not ((np.abs(keys) < 2.0**50).all() and (np.abs(qkeys) < 2.0**50).all()):
        return None
    keys = keys.astype(np.int64)
    lo, hi = keys.min(axis=0), keys.max(axis=0)
    radix = hi - lo + 7
    if math.prod(radix.tolist()) >= 1 << 62:
        return None
    # a query more than two cells outside the samples' range meets none, so
    # clipping its index there keeps its candidates; no neighbour index
    # leaves [0, radix), so a neighbour's code is the query's plus a step
    qcodes = cell_codes(np.clip(qkeys.astype(np.int64), lo - 2, hi + 2), lo - 3, radix)
    codes = cell_codes(keys, lo - 3, radix)
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    qorder = np.argsort(qcodes, kind="stable")
    qcells, qfirst = np.unique(qcodes[qorder], return_index=True)
    runs = cell_codes([(*o, 0) for o in itertools.product((-1, 0, 1), repeat=n - 1)], (0,) * n, radix)
    near = qcells[:, None] + runs
    left = np.searchsorted(codes, near - 1, "left")
    sizes = np.searchsorted(codes, near + 1, "right") - left
    qbounds = np.append(qfirst, len(queries))
    pairs = int(np.diff(qbounds) @ sizes.sum(axis=1))
    return None if 2 * near.size + pairs > budget else (order, qorder, qbounds, left, sizes, pairs)


def neighbours(points, queries, cell, budget=math.inf):
    """The Neighbours of the queries in a grid of side ``cell``: the samples
    in the 3^n cells around each query's.  Cell indices stay below 2^50, so
    ``floor(x / cell)`` is off by less than 1/8 cell (``block_margin``).
    The samples are sorted by cell code, and the 3^n cells are 3^(n-1) runs
    of consecutive codes, each one range of that order.  None when there
    are no samples, a cell index or code would be too large, or the lookups
    and pairs would exceed ``budget``."""
    runs = _runs(points, queries, cell, budget)
    if runs is None:
        return None
    order, qorder, qbounds, left, sizes, pairs = runs
    counts = sizes.sum(axis=1)
    cands = order[ranges(left.ravel(), sizes.ravel())]
    # one in-place sort of (group, sample) keys puts each group in index order
    cands += np.repeat(np.arange(len(counts)) * len(points), counts)
    cands.sort()
    cands -= np.repeat(np.arange(len(counts)) * len(points), counts)
    return Neighbours(qorder, qbounds, cands, np.append(0, np.cumsum(counts)), pairs)


def nearest(points, queries, cell, budget=math.inf):
    """(mins, pairs): each query's distance to its nearest ``neighbours``
    candidate at a positive distance (inf if none), or None.  The pairs are
    measured by ``pair_norms`` over a contiguous (pairs, n) difference,
    the same floats as ``nearest_all``, in blocks of whole runs, one
    from the run holding every (PAIR_BLOCK / 8)-th pair: with their index
    arrays, that keeps a block near the working set of one cell's queries
    and candidates."""
    runs = _runs(points, queries, cell, budget)
    if runs is None:
        return None
    order, qorder, qbounds, left, sizes, pairs = runs
    slot = np.repeat(np.arange(len(left)), np.diff(qbounds))  # each query's group, in qorder
    per = sizes[slot].ravel()  # one entry per (query, run), query-major
    entry = np.flatnonzero(per)
    count = per[entry]
    first = np.cumsum(count) - count
    shift = left[slot].ravel()[entry] - first  # pair p of an entry is sample order[p + shift]
    owner = qorder[entry // left.shape[1]]
    cols, qcols = np.ascontiguousarray(points[order].T), np.ascontiguousarray(queries.T)
    best = np.full(len(queries), np.inf)
    starts = np.unique(np.searchsorted(first, np.arange(0, pairs, max(1, PAIR_BLOCK // 8)), "right") - 1)
    for e0, e1 in zip(starts.tolist(), [*starts[1:].tolist(), len(count)]):
        take, q = count[e0:e1], owner[e0:e1]
        pos = np.repeat(shift[e0:e1], take) + np.arange(first[e0], first[e0] + take.sum())
        diff = np.empty((len(pos), cols.shape[0]))
        for k, (qk, pk) in enumerate(zip(qcols, cols)):
            np.subtract(np.repeat(qk[q], take), pk.take(pos), out=diff[:, k])
        d = pair_norms(diff)
        d[d == 0.0] = np.inf
        lead = np.flatnonzero(np.diff(q, prepend=-1))  # a query's entries are consecutive
        best[q[lead]] = np.minimum(best[q[lead]], np.minimum.reduceat(d, (np.cumsum(take) - take)[lead]))
    return best, pairs


def block_margin(queries, cell):
    """Each query's distance to the faces of its 3^n block of cells, less
    3/8 cell (1/8 each for the floor rounding of the query and of a sample,
    1/8 for the rest): no sample outside the block is nearer.  Valid for a
    query inside the samples' range, whose own cell ``neighbours`` searched."""
    u = queries / cell
    k = np.floor(u)
    return (np.minimum(u - (k - 1.0), (k + 2.0) - u).min(axis=1) - 0.375) * cell


def median_spacing(points, cap):
    """(median, probes, pairs, fallback): the median distance from each probe
    sample (every one up to ``cap`` samples, else every (N // cap)-th) to its
    nearest distinct sample, inf when no probe has one.  A probe's
    ``nearest`` minimum in the grid of side h = 2 span / N^(1/n) is final
    below its own ``block_margin``; the ``fallback`` probes beyond it, and
    all of them when the grid would cost more than all pairs, are measured
    against every sample (``nearest_all``), with the same floats.  ``pairs``
    counts the pairs measured."""
    npts, n = points.shape
    if npts < 2:  # no pair to measure
        return math.inf, npts, 0, 0
    probes = points[:: max(1, npts // cap)]
    cell = float(np.max(points.max(axis=0) - points.min(axis=0))) / npts ** (1.0 / n) * 2.0
    grid = nearest(points, probes, cell, budget=len(probes) * npts)
    if grid is None:
        mins, pairs, far = np.full(len(probes), np.inf), 0, np.ones(len(probes), dtype=bool)
    else:
        (mins, pairs), far = grid, ~(grid[0] < block_margin(probes, cell))
    mins[far] = nearest_all(probes[far], points, distinct=True)
    fallback = int(np.count_nonzero(far))
    finite = mins[np.isfinite(mins)]
    return float(np.median(finite)) if len(finite) else math.inf, len(probes), pairs + fallback * npts, fallback


def reach_cell(reach):
    """The side of a grid whose ``neighbours`` lists every sample within
    ``reach`` of each query, the fixed-radius rule: ``block_margin`` is at
    least 0.625 cell for every query whose own cell ``neighbours``
    searches, and a query that it clips (more than two cells outside the
    samples' range) lies more than one cell from every sample."""
    return reach / 0.625


def _row_fingerprint(words):
    """A 64-bit key per row of the uint64 array ``words`` (N, W): the wrapping
    dot product of the words, high halves folded onto low ones, with one odd
    constant per column from SplitMix64's mixing steps.  Without the fold,
    (a, -b) and (-a, b) would share a key (a product carries bits only upward);
    with constants in arithmetic progression, (a, b, c) and (a + 3, b - 1, c)
    would.  Unequal rows can still share a key; ``distinct_rows`` splits them."""
    odd = np.arange(1, words.shape[1] + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        odd ^= odd >> np.uint64(shift)
        odd *= np.uint64(factor)
    odd |= np.uint64(1)
    folded = words >> np.uint64(32)
    folded ^= words
    return folded @ odd


def distinct_rows(words):
    """(keep, inverse): one row index per distinct bit pattern of the rows of
    the uint64 array ``words`` (N, W), in no set order, and each row's group,
    so that ``words[keep][inverse]`` is ``words``.  The groups are exact
    whatever the keys: rows are sorted by ``_row_fingerprint``, the rows of a
    key that unequal rows share are lexsorted by their words, and adjacent
    rows merge only when every word is equal, so +0.0 and -0.0 stay apart."""
    key = _row_fingerprint(words)
    order = np.argsort(key)
    key, words = key[order], words[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(words[1:] != words[:-1], axis=1)
    clash = first[1:] & (key[1:] == key[:-1])
    if clash.any():
        at = np.flatnonzero(np.isin(key, key[1:][clash]))
        sub = np.lexsort(np.vstack([words[at].T[::-1], key[at]]))
        order[at], words[at] = order[at][sub], words[at][sub]
        first[1:] = np.any(words[1:] != words[:-1], axis=1)
    del words
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return order[first], inverse


def dense_ranks(keys):
    """Each entry's rank among the distinct values of its row, from 0."""
    order = np.argsort(keys, axis=1, kind="stable")
    ordered = np.take_along_axis(keys, order, axis=1)
    step = np.zeros(keys.shape, dtype=np.int64)
    step[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ranks = np.empty_like(step)
    np.put_along_axis(ranks, order, np.cumsum(step, axis=1), axis=1)
    return ranks


def cell_counts(coords, resolution):
    """Distinct cells of side ``resolution`` met by each row of ``coords``
    (rows, samples, m), with one sort per row; for m > 1 the cells fold into
    one key through per-row ranks, below S^2 for S samples."""
    codes = np.floor(coords / resolution).astype(np.int64)
    key = codes[..., 0]
    for j in range(1, codes.shape[2]):
        key = dense_ranks(key) * codes.shape[1] + dense_ranks(codes[..., j])
    key = np.sort(key, axis=1)
    return 1 + np.count_nonzero(np.diff(key, axis=1), axis=1)


def _ranked(keys, near):
    """keys as ranks among their distinct values, near as the rank of the
    equal key (-1 if none), and the count of distinct keys."""
    distinct, ranks = np.unique(keys, return_inverse=True)
    at = np.minimum(np.searchsorted(distinct, near), len(distinct) - 1)
    return ranks, np.where(distinct[at] == near, at, -1), len(distinct)


def _cell_ids(cells, offsets):
    """(ids, near): each row's lexicographic rank among the distinct rows of
    ``cells``, and the rank of the row plus each offset (-1 if unoccupied).
    Positions per axis keep steps of 1 and make longer ones 2; their key
    folds in one axis at a time, ranked again before it could reach 2^62."""
    keys = np.zeros(len(cells), dtype=np.int64)
    near = np.zeros((len(cells), len(offsets)), dtype=np.int64)
    span = 1
    for axis, steps in zip(cells.T, offsets.T):
        values, inverse = np.unique(axis, return_inverse=True)
        pos = np.append(1, 1 + np.cumsum(np.where(np.diff(values) == 1, 1, 2)))[inverse]
        width = int(pos.max()) + 2
        if span * width >= 1 << 62:
            keys, near, span = _ranked(keys, near)
        keys = keys * width + pos
        near = np.where(near >= 0, near * width + pos[:, None] + steps, -1)
        span *= width
    return _ranked(keys, near)[:2]


def cell_clusters(points, gap):
    """Each sample's single-linkage cluster of touching cells of side
    ``gap``, numbered in the lexicographic order of the root cells of this
    union-find: cells in the order of their first sample, each joined to
    its touching cells in ``itertools.product((-1, 0, 1), repeat=n)``
    order, its root becoming a child of theirs.  Earlier cells joined it
    already, so only later ones are edges: one Python step per edge."""
    n = points.shape[1]
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=n))).reshape(-1, n)
    ids, near = _cell_ids(np.floor(points / gap).astype(np.int64), offsets)
    first = np.sort(np.unique(ids, return_index=True)[1])  # each cell's first sample, in order
    taken = np.empty(len(first), dtype=np.int64)
    taken[ids[first]] = np.arange(len(first))
    near = near[first]
    row, col = np.nonzero((near >= 0) & (taken[near] > np.arange(len(first))[:, None]))
    parent = list(range(len(first)))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for a, b in zip(ids[first][row].tolist(), near[row, col].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    root = np.array(parent, dtype=np.int64)
    while not np.array_equal(root[root], root):
        root = root[root]
    return np.unique(root, return_inverse=True)[1][ids]  # ids sort as their cells
