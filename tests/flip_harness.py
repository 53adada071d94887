"""The flip harness of the acceptance tests: dual walks and random flips.

The flip invariance tests (tests/test_acceptance.py T8 and T9,
tests/test_cusped.py) pick closed dual walks with hyperbolic holonomy,
round a triangulation's shears onto exact cusp sums, and transport the
walks through seeded random flips; the library runs none of this.
"""

from __future__ import annotations

import numpy as np

from shearlab import geom
from shearlab.cusped import (CuspedTriangulation, develop_walk, flip,
                             flippable, max_abs_shear, rewrite_walk)


def closed_dual_walks(cx: CuspedTriangulation, max_len: int = 6,
                      max_walks: int = 200):
    """Canonical closed dual walks up to the given length.

    Walks are produced in a deterministic order; immediate backtracking
    (crossing the same edge twice in a row) is excluded.
    """
    out = []
    for f0 in range(cx.num_faces()):
        stack = [((f0, s),) for s in range(3)]
        while stack and len(out) < max_walks:
            walk = stack.pop(0)
            face, side = walk[-1]
            f2, s2 = cx.glue[(face, side)]
            if f2 == f0 and len(walk) >= 2:
                out.append(list(walk))
            if len(walk) < max_len:
                for s in range(3):
                    if s == s2:
                        continue  # no immediate backtracking
                    stack.append(walk + ((f2, s),))
    return out


def hyperbolic_walk_lengths(cx: CuspedTriangulation, sigma: dict,
                            max_len: int = 6, limit: int = 40):
    """Sampled length spectrum from short closed dual walks."""
    lengths = []
    for walk in closed_dual_walks(cx, max_len=max_len):
        try:
            g = develop_walk(cx, sigma, walk)
        except (ValueError, geom.GeometryError):
            continue
        if geom.classify(g) == "hyperbolic":
            lengths.append(geom.translation_length(g))
        if len(lengths) >= limit:
            break
    return sorted(lengths)


def test_curves(cx: CuspedTriangulation, sigma: dict, count: int = 5):
    """Deterministic closed dual walks with hyperbolic holonomy."""
    picked = []
    seen_lengths = []
    for walk in closed_dual_walks(cx, max_len=6, max_walks=400):
        try:
            g = develop_walk(cx, sigma, walk)
        except (ValueError, geom.GeometryError):
            continue
        if geom.classify(g) != "hyperbolic":
            continue
        length = geom.translation_length(g)
        if any(abs(length - l) < 1e-9 for l in seen_lengths):
            continue
        picked.append(walk)
        seen_lengths.append(length)
        if len(picked) == count:
            break
    return picked


def project_to_complete(cx: CuspedTriangulation, sigma: dict) -> dict:
    """Minimum-norm correction of the shears onto exact cusp sums.

    Geometrically constructed shear vectors satisfy the cusp relations up
    to their numerical residual; this rounds them onto the completeness
    subspace so the discrete invariant preserved by flips is exactly zero
    to machine precision.
    """
    edges = cx.edges()
    index = {e: i for i, e in enumerate(edges)}
    links = cx.vertex_links()
    cusps = sorted(links)
    a = np.zeros((len(cusps), len(edges)))
    b = np.zeros(len(cusps))
    for row, cusp in enumerate(cusps):
        for f, corner in links[cusp]:
            a[row, index[cx.edge_key(f, corner)]] += 1.0
        b[row] = sum(sigma[cx.edge_key(f, corner)]
                     for f, corner in links[cusp])
    correction, *_ = np.linalg.lstsq(a, b, rcond=None)
    return {e: sigma[e] - correction[index[e]] for e in edges}


# largest |shear| a random flip sequence may reach
RANDOM_FLIP_SHEAR_CAP = 10.0


def random_flip_sequence(cx: CuspedTriangulation, sigma: dict, count: int,
                         seed: int, walks=None):
    """Apply seeded random flips, transporting the given dual walks.

    Flips are drawn uniformly among the flippable edges whose result
    keeps every shear at most RANDOM_FLIP_SHEAR_CAP in absolute value:
    runaway flip sequences make shears grow exponentially, which floating
    point cannot carry through the developing map.  Returns the final
    triangulation, shears, transported walks and the flip trail.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    walks = [list(w) for w in (walks or [])]
    trail = []
    applied = 0
    guard = 0
    while applied < count and guard < 50 * max(count, 1):
        guard += 1
        edges = [e for e in cx.edges() if flippable(cx, e)]
        if not edges:
            break
        e = edges[int(rng.integers(0, len(edges)))]
        try:
            nxt_cx, nxt_sigma = flip(cx, sigma, e)
        except (ValueError, RuntimeError):
            continue
        if max_abs_shear(nxt_sigma) > RANDOM_FLIP_SHEAR_CAP:
            continue
        try:
            nxt_walks = [rewrite_walk(w, cx, e) for w in walks]
        except ValueError:
            continue
        cx, sigma, walks = nxt_cx, nxt_sigma, nxt_walks
        trail.append(e)
        applied += 1
    return cx, sigma, walks, trail
