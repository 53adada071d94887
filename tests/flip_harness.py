"""The flip harness of the acceptance tests: dual walks, random flips
and the dict-keyed flip kernel.

The flip invariance tests (tests/test_acceptance.py T8 and T9,
tests/test_cusped.py) pick closed dual walks with hyperbolic holonomy,
round a triangulation's shears onto exact cusp sums, and transport the
walks through seeded random flips; the library runs none of this.  The
dict-keyed flip kernel is the bit oracle of the library's per-side one
(tests/test_cusped.py).
"""

from __future__ import annotations

import math

import numpy as np

from shearlab import geom
from shearlab.cusped import (_NEXT, _PREV, CuspedTriangulation, _check,
                             _check_faces, _edge_keys, _encode, _flippable,
                             develop_walk, flip, flippable, max_abs_shear,
                             rewrite_walk)


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


# ---------------------------------------------------------------------------
# the dict-keyed flip kernel
#
# The flat encoding of shearlab.cusped, but with the shears in a dict keyed
# by the edge key min(i, glue[i]), in the order of the shear vector they
# encode.  A flip moves each changed shear to the key of the edge's new
# sides.  The library's kernel keeps a shear on every side instead, so
# that no shear moves; this one is its bit oracle.


def dict_shears(sigma: dict) -> dict:
    return {3 * f + s: v for (f, s), v in sigma.items()}


def dict_flip_changes(glue, shears, e) -> dict:
    """The shears a flip of the edge key e changes, by their old keys.

    Penner's rule: the flipped shear negates; in the stored sign
    convention the side following the flipped edge in each adjacent
    triangle's cyclic order gains -log(1 + e^-s) and the preceding side
    gains +log(1 + e^s).  An edge met twice (two sides of the
    quadrilateral glued together) sums both gains before they are added
    to its shear.  The flipped edge comes last.
    """
    e2 = glue[e]
    s_val = shears[e]
    gain_prev = math.log1p(math.exp(s_val)) if s_val < 30 else s_val
    gain_next = math.log1p(math.exp(-s_val)) if s_val > -30 else -s_val
    delta = {}
    for side, amount in ((e + _NEXT[e % 3], -gain_next),
                         (e + _PREV[e % 3], +gain_prev),
                         (e2 + _NEXT[e2 % 3], -gain_next),
                         (e2 + _PREV[e2 % 3], +gain_prev)):
        partner = glue[side]
        key = partner if partner < side else side   # the edge key
        delta[key] = delta.get(key, 0.0) + amount
    out = {key: shears[key] + amount for key, amount in delta.items()}
    out[e] = -s_val
    return out


def dict_flip_flat(glue, labels, shears, e, changed) -> dict:
    """Flip the flippable edge key e in place, given its
    dict_flip_changes.

    Re-glues the six sides of the two faces, moves the changed shears to
    the keys of the edges those sides now carry, and checks the two faces
    and their neighbours.  Returns the new key of each changed edge, by
    old key.
    """
    e2 = glue[e]
    b1, b2 = e - e % 3, e2 - e2 % 3
    # outer sides P, Q of f1 and R, S of f2, and the slots they move to:
    # U1 = (x, w, z) replaces f1, U2 = (w, y, z) replaces f2
    outer = (e + _NEXT[e % 3], e + _PREV[e % 3],
             e2 + _NEXT[e2 % 3], e2 + _PREV[e2 % 3])
    x, y, z = labels[e], labels[outer[0]], labels[outer[1]]
    w = labels[outer[3]]
    slots = (b2 + 1, b1 + 2, b1, b2)
    partners = [glue[i] for i in outer]
    if e in partners or e2 in partners:
        raise ValueError("flip would glue a side to the removed edge")
    moved = dict(zip(outer, slots))
    # a new side of each changed edge, with the edge's old key; the new
    # diagonal (w, z), sides b1 + 1 and b2 + 2, replaces the edge
    sides = [(b1 + 1, e)]
    sides += [(me, min(side, p))
              for me, side, p in zip(slots, outer, partners)]

    labels[b1:b1 + 3] = (x, w, z)
    labels[b2:b2 + 3] = (w, y, z)
    for me, partner in zip(slots, partners):
        partner = moved.get(partner, partner)
        glue[me] = partner
        glue[partner] = me
    glue[b1 + 1] = b2 + 2
    glue[b2 + 2] = b1 + 1
    _check_faces(glue, labels, {b1 // 3, b2 // 3} | {p // 3 for p in partners})

    renamed = {old: min(me, glue[me]) for me, old in sides}
    for key in changed:
        del shears[key]
    for old, new in renamed.items():
        shears[new] = changed[old]
    if len(shears) != len(glue) // 2:
        raise RuntimeError(f"{len(shears)} shears for {len(glue) // 2} "
                           f"edges after flipping {divmod(e, 3)}")
    return renamed


def dict_decode(glue, labels, shears: dict):
    cx = CuspedTriangulation(
        verts=[tuple(labels[i:i + 3]) for i in range(0, len(labels), 3)],
        glue={divmod(i, 3): divmod(j, 3) for i, j in enumerate(glue)})
    return cx, {divmod(k, 3): v for k, v in shears.items()}


def dict_flip(cx: CuspedTriangulation, sigma: dict, edge):
    """cusped.flip on the dict-keyed kernel: the same triangulation and
    shear vector, the edges in the same order."""
    glue, labels = _encode(cx)
    f, s = cx.edge_key(*edge)
    e = 3 * f + s
    if not _flippable(glue, e):
        raise ValueError(f"edge {divmod(e, 3)} is not flippable")
    before = dict_shears(sigma)
    shears = dict(before)
    renamed = dict_flip_flat(glue, labels, shears, e,
                             dict_flip_changes(glue, before, e))
    _check(glue, labels)
    order = [renamed.get(k, k) for k in before if k != e] + [renamed[e]]
    shears = {k: shears[k] for k in order}
    for i in _edge_keys(glue):
        if i not in shears:
            raise RuntimeError(f"missing shear for edge {divmod(i, 3)} "
                               f"after flip")
    return dict_decode(glue, labels, shears)
