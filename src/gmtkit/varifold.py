"""Discrete varifolds, anisotropic functionals, slicing, density ratios.

A discrete m-varifold is a weighted list of samples (point, tangent plane)
approximating an m-dimensional set; samples of the purely unrectifiable
part carry no tangent ("isotropic") and average tangent-dependent
quantities over the invariant measure on the Grassmannian.
"""

from __future__ import annotations

import itertools
import math
import reprlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._profiles import profile_eval, profile_rows
from . import _grid
from .cubemaps import SmoothMap
from .grassmann import FRAME_TOL, Plane, _haar_frames

__all__ = [
    "Integrand",
    "AreaIntegrand",
    "TiltPenaltyIntegrand",
    "RiemannianWeightIntegrand",
    "TableIntegrand",
    "FrozenIntegrand",
    "integrand_from_config",
    "DiscreteVarifold",
    "SliceResult",
    "phi_F",
    "psi_F",
    "pullback_integrand",
    "pushforward",
    "slice_varifold",
    "blowup_map",
    "density_ratio",
    "DensityRatio",
    "ellipticity_probe",
    "EllipticityReport",
    "covering_measure",
    "unit_ball_volume",
]


def unit_ball_volume(m):
    """Volume of the m-dimensional unit ball (omega_0 = 1, omega_m = 2 pi omega_(m-2) / m)."""
    if m == 0:
        return 1.0
    if m == 1:
        return 2.0
    return 2.0 * math.pi / m * unit_ball_volume(m - 2)


# ---------------------------------------------------------------------------
# integrands


class Integrand:
    """Positive weight F(x, T) on position x tangent plane, batch-evaluated.

    ``evaluate`` takes points (N, n) and tangent frames (N, n, m).
    """

    inf_bound = 1.0
    sup_bound = 1.0
    name = "integrand"

    def evaluate(self, points, frames):
        raise NotImplementedError

    def __call__(self, x, plane: Plane):
        x = np.asarray(x, dtype=float)
        return float(self.evaluate(x[None, :], plane.frame[None, :, :])[0])


class AreaIntegrand(Integrand):
    name = "area"

    def evaluate(self, points, frames):
        return np.ones(len(points))


def _projector_distance_sq(frames, h_frame):
    """Batched squared operator norm of P_T - P_H."""
    pt = np.einsum("nij,nkj->nik", frames, frames)
    ph = h_frame @ h_frame.T
    diff = pt - ph
    eig = np.linalg.eigvalsh(diff)
    return np.maximum(eig[:, -1], -eig[:, 0]) ** 2


class TiltPenaltyIntegrand(Integrand):
    """F(x, T) = 1 + lam * ||P_T - P_H||^2 for a reference plane H."""

    def __init__(self, reference: Plane, lam=1.0):
        self.reference = reference
        self.lam = float(lam)
        # ||P_T - P_H||^2 runs over [0, 1]
        self.inf_bound = min(1.0, 1.0 + self.lam)
        self.sup_bound = max(1.0, 1.0 + self.lam)
        self.name = f"tilt_penalty(lam={lam})"

    def evaluate(self, points, frames):
        return 1.0 + self.lam * _projector_distance_sq(frames, self.reference.frame)


class RiemannianWeightIntegrand(Integrand):
    """F(x, T) = w(x): an inhomogeneous, isotropic weight."""

    def __init__(self, weight_fn, inf_bound, sup_bound, name="riemannian"):
        self.weight_fn = weight_fn
        self.inf_bound = float(inf_bound)
        self.sup_bound = float(sup_bound)
        self.name = name

    def evaluate(self, points, frames):
        return np.asarray(self.weight_fn(points), dtype=float)


class TableIntegrand(Integrand):
    """Grid-sampled positional weight with multilinear interpolation."""

    def __init__(self, origin, spacing, values):
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = np.asarray(spacing, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.inf_bound = float(self.values.min())
        self.sup_bound = float(self.values.max())
        self.name = "table"

    def evaluate(self, points, frames):
        rel = (points - self.origin) / self.spacing
        n = points.shape[1]
        shape = self.values.shape
        lo = np.clip(np.floor(rel).astype(int), 0, np.array(shape) - 2)
        frac = np.clip(rel - lo, 0.0, 1.0)
        out = np.zeros(len(points))
        for corner in np.ndindex(*(2,) * n):
            idx = tuple((lo + np.array(corner)).T)
            w = np.prod(
                np.where(np.array(corner)[None, :] == 1, frac, 1 - frac), axis=1
            )
            out += w * self.values[idx]
        return out


class FrozenIntegrand(Integrand):
    """F^x: the integrand with the spatial argument frozen at x."""

    def __init__(self, base: Integrand, x):
        self.base = base
        self.x = np.asarray(x, dtype=float)
        self.inf_bound = base.inf_bound
        self.sup_bound = base.sup_bound
        self.name = f"{base.name}@x"

    def evaluate(self, points, frames):
        fixed = np.broadcast_to(self.x, points.shape)
        return self.base.evaluate(fixed, frames)


def _text_or_bool(value):
    """Whether value, or an entry of it at any depth, is a string or a bool."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fiuc" and _text_or_bool(value.tolist())
    if isinstance(value, (list, tuple)):
        return any(map(_text_or_bool, value))
    return isinstance(value, (str, bytes, bool, np.bool_))


def _checked_floats(value, key, rule, test):
    """value as a finite float array that passes ``test``, else ValueError
    naming the key, the rule and the value.  Every entry must be a number: a
    string or a bool at any depth is refused, though numpy would read "0.5"
    as 0.5 and True as 1."""
    try:
        arr = None if _text_or_bool(value) else np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or not np.isfinite(arr).all() or not test(arr):
        raise ValueError(f"{key} must be {rule}, got {reprlib.repr(value)}")
    return arr


def integrand_from_config(cfg, n=None):
    """Build a registry integrand from a JSON-style dict, in R^n (for a table,
    the dimension of its values when n is None).  A malformed dict raises
    ValueError naming the key."""
    if not isinstance(cfg, dict):
        raise ValueError(f"an integrand must be a dict, got {reprlib.repr(cfg)}")
    kind = cfg.get("kind", "area")
    if kind == "area":
        return AreaIntegrand()
    if kind == "tilt_penalty":
        lam = float(_checked_floats(cfg.get("lam", 1.0), "lam", "a finite number > -1",
                                    lambda a: a.ndim == 0 and a > -1.0))
        if cfg.get("reference_axes") is not None:
            axes = _checked_floats(cfg["reference_axes"], "reference_axes", f"distinct axes of R^{n}",
                                   lambda a: a.ndim == 1 and a.size and (a == np.floor(a)).all())
            try:
                ref = Plane.axis(n, axes.astype(int).tolist())
            except (TypeError, ValueError) as exc:
                got = reprlib.repr(cfg["reference_axes"])
                raise ValueError(f"reference_axes must be distinct axes of R^{n}, got {got}") from exc
        elif cfg.get("reference_frame") is not None:
            frame = _checked_floats(cfg["reference_frame"], "reference_frame",
                                    f"a frame of {n} rows and m >= 1 columns",
                                    lambda a: isinstance(n, int) and n > 0 and a.size and a.size % n == 0)
            try:
                ref = Plane(frame.reshape(n, -1))
            except ValueError as exc:
                raise ValueError(f"reference_frame must have independent columns: {exc}") from exc
        else:
            raise ValueError("a tilt_penalty integrand needs reference_axes or reference_frame")
        return TiltPenaltyIntegrand(ref, lam=lam)
    if kind == "table":
        rule = f"an array of numbers > 0 with {'one or more' if n is None else n} axes of length >= 2"
        values = _checked_floats(cfg.get("values"), "values", rule,
                                 lambda a: a.ndim == (a.ndim if n is None else n) and a.ndim and min(a.shape) >= 2
                                 and (a > 0).all())
        dim = values.ndim
        origin = _checked_floats(cfg.get("origin"), "origin", f"{dim} finite numbers", lambda a: a.shape == (dim,))
        spacing = _checked_floats(cfg.get("spacing"), "spacing", f"{dim} numbers > 0",
                                  lambda a: a.shape == (dim,) and (a > 0).all())
        return TableIntegrand(origin, spacing, values)
    raise ValueError(f"unknown integrand kind {reprlib.repr(kind)}: use area, tilt_penalty or table")


# ---------------------------------------------------------------------------
# discrete varifolds


class DiscreteVarifold:
    """Weighted tangent samples of an m-varifold in R^n.

    frames rows are valid only where ``isotropic`` is False; isotropic
    samples stand for the unrectifiable part, averaged over the Grassmannian
    wherever a tangent is needed.
    """

    def __init__(self, points, frames, weights, isotropic=None, dim=None):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        count, n = self.points.shape
        if frames is None:
            if dim is None:
                raise ValueError("need dim when no frames are given")
            self.frames = np.zeros((count, n, dim))
            iso_default = np.ones(count, dtype=bool)
        else:
            frames = np.asarray(frames, dtype=float)
            if frames.ndim != 3:
                frames = frames.reshape(count, n, -1)
            self.frames = frames
            iso_default = np.zeros(count, dtype=bool)
        self.weights = np.asarray(weights, dtype=float).reshape(count)
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        self.isotropic = (
            iso_default if isotropic is None else np.asarray(isotropic, dtype=bool).reshape(count)
        )

    @property
    def ambient_dim(self):
        return self.points.shape[1]

    @property
    def dim(self):
        return self.frames.shape[2]

    def __len__(self):
        return len(self.points)

    def mass(self):
        return float(self.weights.sum())

    def restrict(self, mask):
        return DiscreteVarifold(
            self.points[mask], self.frames[mask], self.weights[mask], self.isotropic[mask]
        )

    def tangent_part(self):
        return self.restrict(~self.isotropic)

    def isotropic_part(self):
        return self.restrict(self.isotropic)

    @staticmethod
    def concat(parts):
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one varifold to concatenate")
        nonempty = [p for p in parts if len(p)]
        if not nonempty:
            return parts[0]
        return DiscreteVarifold(
            np.vstack([p.points for p in nonempty]),
            np.concatenate([p.frames for p in nonempty], axis=0),
            np.concatenate([p.weights for p in nonempty]),
            np.concatenate([p.isotropic for p in nonempty]),
        )

    @staticmethod
    def flat(points, plane: Plane, weights):
        """All samples share one tangent plane."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        frames = np.broadcast_to(plane.frame, (len(points),) + plane.frame.shape).copy()
        return DiscreteVarifold(points, frames, weights)

    @staticmethod
    def isotropic_set(points, weights, dim):
        return DiscreteVarifold(points, None, weights, dim=dim)

    def to_csv(self, path):
        """Write the set file that ``from_csv`` reads: the header, then one row
        per sample in order, its frame columns one after another."""
        n, m = self.ambient_dim, self.dim
        entries = self.frames.transpose(0, 2, 1).reshape(len(self), n * m)
        starts = np.flatnonzero(np.diff(self.isotropic.astype(np.int8), prepend=-1))  # runs of one row kind
        blocks = []
        for lo, hi in zip(starts, [*starts[1:], len(self)]):
            middle = [["isotropic"] * (hi - lo)] if self.isotropic[lo] else entries[lo:hi].T
            blocks.append([*self.points[lo:hi].T, *middle, self.weights[lo:hi]])
        _write_table(path, f"# gmtkit varifold n={n} m={m}", *blocks)

    @staticmethod
    def from_csv(path):
        """Read a set file: a ``#`` header giving n and m, then tangent rows
        (n coordinates, the n*m entries of the frame column by column, the
        weight) and isotropic rows (n coordinates, ``isotropic``, the weight)
        in any order.  A row with the wrong number of fields, a field that is
        not a finite number, a negative weight or a frame that is not
        orthonormal within ``FRAME_TOL`` raises ValueError naming the line
        and the rule; so does a file whose rows * n * m frame entries exceed
        ``MAX_FRAME_ENTRIES``, before any frame array is made."""
        lines = Path(path).read_text().splitlines()
        n, m, start = _set_header(lines)
        text = [s.strip() for s in itertools.islice(lines, start, None)]
        del lines  # the rows' text is all that is read from here on
        lineno = np.flatnonzero(np.fromiter(map(bool, text), bool, len(text))) + start + 1
        text = list(filter(None, text))
        if len(text) * n * m > MAX_FRAME_ENTRIES:
            raise ValueError(f"a set file may hold at most MAX_FRAME_ENTRIES = {MAX_FRAME_ENTRIES} frame entries "
                             f"(rows * n * m, an n x m frame per row), got {len(text)} * {n} * {m}")
        iso = np.fromiter(("isotropic" in s for s in text), bool, len(text))
        fields = np.fromiter((s.count(",") for s in text), int, len(text)) + 1
        _check_rows(lineno, text, fields != np.where(iso, n + 2, n + n * m + 1),
                    f"a tangent row must have n + n*m + 1 = {n + n * m + 1} fields and an isotropic row n + 2 = {n + 2}")
        bad = np.zeros(len(text), dtype=bool)
        bad[iso] = [s.split(",", n + 1)[n] != "isotropic" for s in itertools.compress(text, iso)]
        _check_rows(lineno, text, bad, f"an isotropic row must have the token isotropic as field {n + 1}")
        tangent = _parse_rows(lineno[~iso], list(itertools.compress(text, ~iso)), n + n * m + 1)
        isotropic = _parse_rows(lineno[iso], list(itertools.compress(text, iso)), n + 2, token=n)
        # the checks read the parsed rows while the text is alive; the set's arrays are built after it goes
        bad[~iso], bad[iso] = ~np.isfinite(tangent).all(axis=1), ~np.isfinite(isotropic).all(axis=1)
        _check_rows(lineno, text, bad, "every number must be finite")
        weights = np.zeros(len(text))
        weights[~iso], weights[iso] = tangent[:, -1], isotropic[:, -1]
        _check_rows(lineno, text, weights < 0, "every weight must be >= 0")
        transposed = tangent[:, n:-1].reshape(len(tangent), m, n)  # each tangent row's frame, one column per row
        skew = np.zeros(len(tangent), dtype=bool)
        for lo in range(0, len(tangent), TABLE_ROWS):  # F^T F - I, a block of rows at a time
            with np.errstate(over="ignore", invalid="ignore"):  # a huge entry gives an inf on the diagonal
                gram = transposed[lo:lo + TABLE_ROWS] @ transposed[lo:lo + TABLE_ROWS].transpose(0, 2, 1)
            gram.reshape(len(gram), m * m)[:, ::m + 1] -= 1.0
            skew[lo:lo + TABLE_ROWS] = (np.abs(gram) > FRAME_TOL).any(axis=(1, 2))
        bad[~iso] = skew
        _check_rows(lineno, text, bad, f"the m frame columns of a tangent row must be orthonormal within {FRAME_TOL:g}")
        del text
        points, frames = np.zeros((len(iso), n)), np.zeros((len(iso), n, m))
        points[~iso], frames[~iso] = tangent[:, :n], transposed.transpose(0, 2, 1)
        points[iso] = isotropic[:, :n]
        return DiscreteVarifold(points, frames, weights, iso)


# rows the table writer formats, and the set-file reader checks frames of, at a
# time: a batch's text stays near 1 MB
TABLE_ROWS = 4096
# doubles the set-file reader may allocate for frames (128 MB): every row,
# isotropic ones too, holds an n x m frame, though an isotropic row's text is
# only n + 2 fields
MAX_FRAME_ENTRIES = 1 << 24


def _write_table(path, header, *blocks):
    """A CSV file: the header line, then one line per row of each block in
    turn.  A block is a list of columns of one length; row i is the i-th entry
    of each column, comma-separated, floats by repr over ``tolist()`` (the
    shortest text that reads back to the same double) and the rest by str.
    Every CSV artifact is written here, TABLE_ROWS rows at a time."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for columns in blocks:
            columns = [np.asarray(c) for c in columns]
            for lo in range(0, len(columns[0]), TABLE_ROWS):
                text = [map(repr if c.dtype.kind == "f" else str, c[lo:lo + TABLE_ROWS].tolist()) for c in columns]
                fh.write("".join(f"{row}\n" for row in map(",".join, zip(*text))))


def _set_header(lines):
    """(n, m, index of the first row): the integers 1 <= n < 2^31 and
    0 <= m <= n that the ``#`` lines before the first row give, each once."""
    keys, start = {}, len(lines)
    for i, line in enumerate(lines):
        line = line.strip()
        if line and not line.startswith("#"):
            start = i
            break
        for key, eq, value in (tok.partition("=") for tok in line[1:].split()):
            if eq and key in ("n", "m"):
                if key in keys or not (value.isascii() and value.isdigit()):
                    raise ValueError(f"line {i + 1}: the header must give n and m once each, as integers, "
                                     f"got {reprlib.repr(line)}")
                keys[key] = int(value)
    n, m = keys.get("n"), keys.get("m")
    if n is None or m is None or not 1 <= n < 2**31 or not 0 <= m <= n:
        raise ValueError(f"the # header before the first row must give integers 1 <= n < 2^31 and 0 <= m <= n, "
                         f"got n={n} and m={m}")
    return n, m, start


def _check_rows(lineno, text, bad, rule):
    """ValueError naming the first row where ``bad`` holds, its line and the
    rule it breaks."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"line {lineno[i]}: {rule}, got {reprlib.repr(text[i])}")


def _parse_rows(lineno, rows, width, token=None):
    """The fields of the comma-separated rows of ``width`` fields, but the
    field ``token``, as a float array read in one call; a field that is not a
    number names its line."""
    if not rows:
        return np.zeros((0, width - (token is not None)))
    usecols = None if token is None else [j for j in range(width) if j != token]
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, usecols=usecols, ndmin=2)
    except ValueError:
        for ln, row in zip(lineno, rows):
            try:
                np.loadtxt([row], delimiter=",", comments=None, usecols=usecols)
            except ValueError:
                raise ValueError(f"line {ln}: every field but the isotropic token must be a number, "
                                 f"got {reprlib.repr(row)}") from None
        raise


@dataclass
class SliceResult:
    parameter: np.ndarray
    varifold: DiscreteVarifold
    bin_width: float
    dropped_degenerate: int = 0

    def mass(self):
        return self.varifold.mass()


# ---------------------------------------------------------------------------
# functionals


def _grassmann_grid(n, m, count, seed):
    """The frames of the axis planes, then of ``count`` Haar samples."""
    axis_frames = [Plane.axis(n, axes).frame for axes in itertools.combinations(range(n), m)]
    return np.concatenate([axis_frames, _haar_frames(n, m, count, np.random.default_rng(seed))])


def phi_F(v: DiscreteVarifold, f: Integrand, grassmann_samples=256, seed=0, with_report=False):
    """Phi_F(V) = sum of weight * F(x, T) over the samples.

    Isotropic samples contribute weight times the Monte-Carlo average of
    F(x, .) over Haar-random planes (count and standard error reported).
    """
    total = 0.0
    report = {"grassmann_samples": 0, "mc_stderr": 0.0}
    tang = v.tangent_part()
    if len(tang):
        total += float(np.sum(tang.weights * f.evaluate(tang.points, tang.frames)))
    iso = v.isotropic_part()
    if len(iso):
        draws = np.zeros((grassmann_samples, len(iso)))
        for k, frame in enumerate(_haar_frames(v.ambient_dim, v.dim, grassmann_samples, np.random.default_rng(seed))):
            draws[k] = f.evaluate(iso.points, np.broadcast_to(frame, (len(iso),) + frame.shape))
        means = draws.mean(axis=0)
        total += float(np.sum(iso.weights * means))
        stderr = float(
            np.sum(iso.weights * draws.std(axis=0, ddof=1)) / math.sqrt(grassmann_samples)
        )
        report = {"grassmann_samples": grassmann_samples, "mc_stderr": stderr}
    if with_report:
        return total, report
    return total


def psi_F(s_r: DiscreteVarifold, s_u: DiscreteVarifold, f: Integrand, sup_grid=512, seed=0):
    """Psi_F = Phi_F(rectifiable part) + unrectifiable mass at the sup of F.

    The per-point supremum over tangent planes is estimated on a Grassmann
    grid of Haar samples plus all axis planes.
    """
    if len(s_r) and np.any(s_r.isotropic):
        raise ValueError("rectifiable part must be all-tangent")
    if len(s_u) and not np.all(s_u.isotropic):
        raise ValueError("unrectifiable part must be all-isotropic")
    total = phi_F(s_r, f) if len(s_r) else 0.0
    if len(s_u):
        sup = np.full(len(s_u), -np.inf)
        for frame in _grassmann_grid(s_u.ambient_dim, s_u.dim, sup_grid, seed):
            sup = np.maximum(sup, f.evaluate(s_u.points, np.broadcast_to(frame, (len(s_u),) + frame.shape)))
        total += float(np.sum(s_u.weights * sup))
    return total


def _image_planes(a):
    """The area element sqrt(max(det a^T a, 0)) of each pushed frame in the
    stack a (N, n, m), and its orthonormal image frame (N, n, m) from QR."""
    gram = np.einsum("nji,njk->nik", a, a)
    area = np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
    return area, np.linalg.qr(a)[0]


def pullback_integrand(phi: SmoothMap, f: Integrand):
    """phi^# F: (x, T) -> F(phi(x), D phi[T]) ||Lambda_m D phi o P_T||."""

    class _Pullback(Integrand):
        inf_bound = 0.0
        sup_bound = math.inf
        name = f"pullback({f.name})"

        def evaluate(self, points, frames):
            img, jacs = phi.value_and_jacobian(points)
            area, img_frames = _image_planes(_grid.row_matmul(jacs, frames))
            out = np.zeros(len(points))
            ok = area > 1e-12
            if np.any(ok):
                out[ok] = f.evaluate(img[ok], img_frames[ok]) * area[ok]
            return out

    return _Pullback()


def pushforward(phi: SmoothMap, v: DiscreteVarifold, haar_draws=16, seed=0):
    """phi_# V: transport points, tangents, and weights by the m-Jacobian.

    Isotropic samples are routed through ``haar_draws`` (at least 1) Haar
    draws: copy k of them, at weight 1 / haar_draws, takes the k-th drawn
    plane.  The tangent samples and these copies move in one evaluation of
    phi at their bitwise-distinct positions: the copies of an isotropic
    sample, here or from an earlier transport, share one, and phi's value
    and Jacobian there are gathered back to every row.  Samples whose image
    plane degenerates keep zero weight and are dropped.

    Samples outside ``phi.support`` (where phi is the exact identity) pass
    through untouched: points, frames, weights and the isotropic flag.  The
    result is [outside samples, moved tangent samples, moved isotropic
    copies], in that order, and a varifold lying wholly outside the support
    is returned as it is.
    """
    inside = phi.inside_support(v.points)
    if not inside.any():
        return v
    tang, iso = inside & ~v.isotropic, inside & v.isotropic
    points, frames, weights = v.points[tang], v.frames[tang], v.weights[tang]
    if iso.any():
        if haar_draws < 1:
            raise ValueError(f"isotropic samples need haar_draws >= 1, got {haar_draws}")
        haar = _haar_frames(v.ambient_dim, v.dim, haar_draws, np.random.default_rng(seed))
        points = np.vstack([points, np.tile(v.points[iso], (haar_draws, 1))])
        frames = np.concatenate([frames, np.repeat(haar, int(iso.sum()), axis=0)])
        weights = np.concatenate([weights, np.tile(v.weights[iso] / haar_draws, haar_draws)])
    keep, inverse = _grid.distinct_rows(points.view(np.uint64))
    repeats = len(keep) < len(points)
    img, jacs = phi.value_and_jacobian(points[keep] if repeats else points)
    if repeats:  # Haar copies share positions, each evaluated once
        img, jacs = img[inverse], jacs[inverse]
    del keep, inverse
    area, img_frames = _image_planes(_grid.row_matmul(jacs, frames))
    ok = area > 1e-12
    moved = DiscreteVarifold(img[ok], img_frames[ok], weights[ok] * area[ok])
    if inside.all():
        return moved
    # free the moved rows' temporaries first: the outside copy and the
    # result set the memory peak of a large set's transport
    del tang, iso, points, frames, weights, img, jacs, area, img_frames, ok
    return DiscreteVarifold.concat([v.restrict(~inside), moved])


def slice_varifold(v: DiscreteVarifold, f: SmoothMap, t, bin_width):
    """The slice of V by f at level t: a discrete density quotient.

    Samples with |f(x) - t| <= bin/2 (componentwise) contribute weight times
    the coarea factor over bin^nu; the slice tangent is S intersected with
    ker Df(x).  Samples with degenerate coarea factor are dropped, matching
    the restriction of the slicing measure to positive-Jacobian pairs.
    """
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    nu = f.n_out
    if len(t) != nu:
        raise ValueError("level dimension must match the map")
    if nu > v.dim:
        raise ValueError("cannot slice below dimension 0")
    if np.any(v.isotropic):
        raise ValueError("slicing expects an all-tangent varifold")
    vals = np.atleast_2d(f.value(v.points))
    sel = np.all(np.abs(vals - t) <= bin_width / 2.0, axis=1)
    sub = v.restrict(sel)
    if len(sub) == 0:
        return SliceResult(t, DiscreteVarifold(
            np.zeros((0, v.ambient_dim)), np.zeros((0, v.ambient_dim, v.dim - nu)), np.zeros(0)
        ), bin_width)
    jacs = f.jacobian(sub.points)  # (N, nu, n)
    b = _grid.row_matmul(jacs, sub.frames)  # (N, nu, m)
    gram = np.einsum("nij,nkj->nik", b, b)
    coarea = np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
    keep = coarea > 1e-12
    dropped = int((~keep).sum())
    sub = sub.restrict(keep)
    b = b[keep]
    coarea = coarea[keep]
    # slice tangent: S cap ker Df = frame . null(B), batched
    _, _, vt = np.linalg.svd(b)
    null = np.swapaxes(vt[:, nu:, :], 1, 2)  # (N, m, m - nu)
    new_frames, _ = np.linalg.qr(_grid.row_matmul(sub.frames, null))
    weights = sub.weights * coarea / bin_width**nu
    return SliceResult(t, DiscreteVarifold(sub.points, new_frames, weights), bin_width, dropped)


def blowup_map(rho: SmoothMap, t, delta):
    """K(x) = (s_delta((t - rho(x)) / delta), x): the graph map whose
    push-forwards converge to the two endpoint copies plus the product of the
    unit interval with the slice."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if rho.n_out != 1:
        raise ValueError("blow-up expects a scalar map")
    n = rho.n_in
    w = 0.9 * delta**2 / (1.0 + 2.0 * delta)
    c = (delta - w) / (delta - 2.0 * w)
    profile = profile_rows([[w, delta - w, 1.0 - delta + w, 1.0 - w]], [[0.0, c, 1.0, c, 0.0]], [0.5], [0.5])

    def evaluate(x, jac):
        r, jr = rho.value_and_jacobian(x) if jac else (rho.value(x), None)
        tau = (t - r[:, 0]) / delta
        s, sd = profile_eval(np.clip(tau, 0, 1)[None], *profile, derivative=jac)
        val = np.column_stack([np.where(tau <= 0.0, 0.0, np.where(tau >= 1.0, 1.0, s[0])), x])
        if not jac:
            return val, None
        sd = np.where((tau <= 0.0) | (tau >= 1.0), 0.0, sd[0])
        out = np.zeros((len(x), n + 1, n))
        out[:, 0, :] = -(sd / delta)[:, None] * jr[:, 0, :]
        out[:, 1:, :] = np.eye(n)
        return val, out

    return SmoothMap(n, n + 1, evaluate=evaluate, name="blowup", meta={"t": t, "delta": delta})


@dataclass
class DensityRatio:
    radius: float
    ratio: float
    reliable: bool


SPACING_PROBES = 2048  # the probe cap of sample_spacing


def sample_spacing(points):
    """Median nearest-neighbour distance (resolution scale of the sampling).

    Exact: ``_grid.median_spacing`` at cap SPACING_PROBES, the median over
    every point (every (n_pts // 2048)-th above 2048 points) of its distance
    to its nearest point at a positive distance, inf if none has one; the
    floats of a scan of all points per probe.
    """
    return _grid.median_spacing(np.atleast_2d(points), SPACING_PROBES)[0]


def density_ratio(v: DiscreteVarifold, x, radii, spacing=None):
    """||V||(closed ball(x, r)) / r^m per radius, with a reliability flag.

    Radii below five times the sample spacing cannot be resolved by the
    discretization and are flagged unreliable.
    """
    x = np.asarray(x, dtype=float)
    if spacing is None:
        spacing = sample_spacing(v.points)
    d = np.linalg.norm(v.points - x, axis=1)
    out = []
    for r in radii:
        if r <= 0:
            raise ValueError("radii must be positive")
        out.append(DensityRatio(float(r), float(v.weights[d <= r].sum()) / r**v.dim, bool(r >= 5.0 * spacing)))
    return out


def covering_measure(points, m, resolution):
    """Box-counting measure estimate: occupied-cell count times res^m.

    Returns (value, resolution); the stated resolution must accompany every
    reported estimate.
    """
    pts = np.atleast_2d(points)
    if len(pts) == 0:
        return 0.0, resolution
    return float(_grid.cell_counts(pts[None], resolution)[0]) * resolution**m, resolution


# ---------------------------------------------------------------------------
# ellipticity probe


@dataclass
class EllipticityReport:
    margins: list = field(default_factory=list)
    min_margin: float = math.inf
    counterexample: str | None = None


def _build_disc(t_plane: Plane):
    """Exact-quadrature unit m-disc inside the plane (m = 1 or 2)."""
    n, m = t_plane.ambient_dim, t_plane.dim
    rings, per_ring = 24, 16
    if m == 1:
        count = rings * per_ring
        s = (np.arange(count) + 0.5) / count * 2.0 - 1.0
        pts = s[:, None] * t_plane.frame[:, 0][None, :]
        w = np.full(count, 2.0 / count)
        return DiscreteVarifold.flat(pts, t_plane, w)
    if m != 2:
        raise ValueError("probe discs support m in {1, 2}")
    pts, ws = [], []
    dr = 1.0 / rings
    for k in range(rings):
        r = (k + 0.5) * dr
        count = max(8, int(per_ring * (k + 1)))
        th = 2 * np.pi * (np.arange(count) + 0.5) / count
        local = np.column_stack([r * np.cos(th), r * np.sin(th)])
        pts.append(local @ t_plane.frame.T)
        ws.append(np.full(count, np.pi * ((r + dr / 2) ** 2 - (r - dr / 2) ** 2) / count))
    return DiscreteVarifold.flat(np.vstack(pts), t_plane, np.concatenate(ws))


def _graph_bump(t_plane: Plane, normal, height):
    """Graph of h (1-r^2)^2 over the unit disc, lifted in a normal direction."""
    n, m = t_plane.ambient_dim, t_plane.dim
    flat = _build_disc(t_plane)
    local = flat.points @ t_plane.frame  # (N, m) coordinates in the plane
    r2 = np.sum(local**2, axis=1)
    u = height * (1.0 - r2) ** 2
    du = -4.0 * height * (1.0 - r2)  # du/d(coordinate) = du_dr2 * 2 c_i
    pts = flat.points + u[:, None] * normal[None, :]
    a = np.broadcast_to(t_plane.frame, (len(pts), n, m)).copy()
    a += du[:, None, None] * normal[None, :, None] * local[:, None, :]
    area, frames = _image_planes(a)
    return DiscreteVarifold(pts, frames, flat.weights * area)


def _cone_over_boundary(t_plane: Plane, normal, height):
    """Cone from an apex off the plane over the boundary of the unit disc."""
    n, m = t_plane.ambient_dim, t_plane.dim
    segs, levels = 160, 40
    apex = height * normal
    pts, frames, ws = [], [], []
    if m == 1:
        ends = [t_plane.frame[:, 0], -t_plane.frame[:, 0]]
        for e in ends:
            t = (np.arange(levels) + 0.5) / levels
            seg = apex[None, :] + t[:, None] * (e - apex)[None, :]
            direction = (e - apex) / np.linalg.norm(e - apex)
            pts.append(seg)
            frames.append(np.broadcast_to(direction[:, None], (levels, n, 1)).copy())
            ws.append(np.full(levels, np.linalg.norm(e - apex) / levels))
    else:
        th = 2 * np.pi * (np.arange(segs) + 0.5) / segs
        omega = np.cos(th)[:, None] * t_plane.frame[:, 0] + np.sin(th)[:, None] * t_plane.frame[:, 1]
        omega_d = -np.sin(th)[:, None] * t_plane.frame[:, 0] + np.cos(th)[:, None] * t_plane.frame[:, 1]
        s = (np.arange(levels) + 0.5) / levels
        pos = apex[None, None, :] + s[None, :, None] * (omega[:, None, :] - apex[None, None, :])
        a = np.zeros((segs, levels, n, 2))
        a[:, :, :, 0] = (omega - apex)[:, None, :]
        a[:, :, :, 1] = s[None, :, None] * omega_d[:, None, :]
        area, q = _image_planes(a.reshape(segs * levels, n, 2))
        pts = pos.reshape(segs * levels, n)
        return DiscreteVarifold(pts, q, area * (2 * np.pi / segs) / levels)
    return DiscreteVarifold(np.vstack(pts), np.concatenate(frames, axis=0), np.concatenate(ws))


def _disc_with_patch(t_plane: Plane):
    """The unit disc with the sub-disc of radius 1/2 replaced by an
    unrectifiable patch of the same position and 1.3 times its mass."""
    full = _build_disc(t_plane)
    local = full.points @ t_plane.frame
    r = np.sqrt(np.sum(local**2, axis=1))
    keep = r >= 0.5
    ann = full.restrict(keep)
    hole = full.restrict(~keep)
    patch = DiscreteVarifold.isotropic_set(hole.points, hole.weights * 1.3, t_plane.dim)
    return ann, patch


def ellipticity_probe(f: Integrand, x, t_plane: Plane, sup_grid=512, seed=0):
    """One-sided ellipticity probe: refute, never certify.

    Tests Psi_{F^x}(S) - Psi_{F^x}(D) >= c (H^m(S) - H^m(D)) over a built-in
    family of competitors spanning the boundary of the flat unit disc D:
    graphical bumps, cones over the boundary, and a disc with an
    unrectifiable patch.  Returns the margins and, when some Psi-gap is
    negative, a counterexample certificate.
    """
    n, m = t_plane.ambient_dim, t_plane.dim
    fx = FrozenIntegrand(f, x)
    # complement direction for lifts
    basis = np.linalg.svd(t_plane.frame)[0]
    normal = basis[:, m]
    disc = _build_disc(t_plane)
    empty = DiscreteVarifold.isotropic_set(np.zeros((0, n)), np.zeros(0), m)
    psi_d = psi_F(disc, empty, fx, sup_grid=sup_grid, seed=seed)
    mass_d = disc.mass()
    candidates = [(f"graph_bump_h{h}", _graph_bump(t_plane, normal, h), empty) for h in (0.35, 0.7)]
    candidates.append(("cone_h0.5", _cone_over_boundary(t_plane, normal, 0.5), empty))
    candidates.append(("unrect_patch", *_disc_with_patch(t_plane)))
    report = EllipticityReport()
    for name, s_r, s_u in candidates:
        psi_s = psi_F(s_r, s_u, fx, sup_grid=sup_grid, seed=seed)
        mass_s = s_r.mass() + s_u.mass()
        psi_gap = psi_s - psi_d
        mass_gap = mass_s - mass_d
        entry = {"candidate": name, "psi_gap": psi_gap, "mass_gap": mass_gap}
        if psi_gap < -1e-9:
            report.counterexample = name
        if mass_gap > 1e-9:
            entry["margin"] = psi_gap / mass_gap
            report.min_margin = min(report.min_margin, entry["margin"])
        report.margins.append(entry)
    return report
