"""Point-sample constructors for test sets and CLI fixtures.

Each function returns (points, weights) with weights approximating the
m-dimensional Hausdorff measure carried by each sample.
"""

import numpy as np


def sample_disc(radius=1.0, count=5000, seed=0, center=None, ambient=3, axes=(0, 1)):
    """Uniform random samples of a flat disc; weights sum to the disc area."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.random(count))
    th = 2 * np.pi * rng.random(count)
    pts = np.zeros((count, ambient))
    pts[:, axes[0]] = r * np.cos(th)
    pts[:, axes[1]] = r * np.sin(th)
    if center is not None:
        pts += np.asarray(center, dtype=float)
    w = np.full(count, np.pi * radius**2 / count)
    return pts, w


def ring_sampled_disc(radius=1.0, ring_spacing=1e-3, points_per_unit_length=2000,
                      center=None, ambient=3, axes=(0, 1), phase=0.5):
    """Exact-quadrature disc: concentric rings with exact ring masses.

    Ring k sits at r_k = (k + phase) * ring_spacing and carries weight
    2 pi r_k * ring_spacing split evenly among its points.  Useful when bin
    experiments need discretization error tied to the ring grid.
    """
    rings = int(np.floor(radius / ring_spacing - phase)) + 1
    pts, ws = [], []
    for k in range(rings):
        r = (k + phase) * ring_spacing
        if r >= radius:
            break
        count = max(8, int(np.ceil(2 * np.pi * r * points_per_unit_length)))
        th = 2 * np.pi * (np.arange(count) + 0.5) / count
        ring = np.zeros((count, ambient))
        ring[:, axes[0]] = r * np.cos(th)
        ring[:, axes[1]] = r * np.sin(th)
        pts.append(ring)
        ws.append(np.full(count, 2 * np.pi * r * ring_spacing / count))
    pts = np.concatenate(pts, axis=0)
    ws = np.concatenate(ws)
    if center is not None:
        pts += np.asarray(center, dtype=float)
    return pts, ws


def sample_segment(start, end, count=500):
    """Evenly spaced samples of a straight segment."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    t = (np.arange(count) + 0.5) / count
    pts = start + t[:, None] * (end - start)
    length = np.linalg.norm(end - start)
    return pts, np.full(count, length / count)


def four_corner_cantor(depth=6, scale=1.0, origin=(0.0, 0.0), angle=0.0):
    """The depth-k four-corner Cantor set (contraction ratio 1/4) in R^2.

    Returns (points, weights): 4^depth cell centres with weights 4^(-depth)
    * scale, a covering-normalized length estimate (the set's 1-dimensional
    box-counting measure at its native resolution is scale * 1.0).
    Optionally rotated about its own centre by ``angle``.
    """
    offsets = np.array([[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.75, 0.75]])
    pts = np.zeros((1, 2))
    for level in range(depth):
        step = 0.25**level
        pts = (pts[:, None, :] + step * offsets[None, :, :]).reshape(-1, 2)
    # cell centres at the final resolution
    cell = 0.25**depth
    pts = pts + cell / 2.0
    pts *= scale
    if angle:
        c = np.array([0.5, 0.5]) * scale
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        pts = (pts - c) @ rot.T + c
    pts = pts + np.asarray(origin, dtype=float)
    w = np.full(len(pts), scale * 0.25**depth)
    return pts, w


def rotate_about(points, center, rotation):
    """Apply an n x n rotation matrix about a centre point."""
    center = np.asarray(center, dtype=float)
    return (points - center) @ np.asarray(rotation).T + center


def random_rotation(n, seed):
    """A Haar-random rotation matrix (determinant +1)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q *= np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
