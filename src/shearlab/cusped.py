"""Cusped ideal triangulations: flips, shears, and developing maps.

A cusped triangulation is a combinatorial surface triangulation whose
vertices are the cusps, together with one shear per edge.  Edges can be
flipped, the shears transforming by the standard local rule; the whole
structure can be rebuilt into a holonomy representation by developing
triangle by triangle, which provides the round-trip oracle.  Crossing an
edge has one formula, _step_matrix: the transition between the standard
frames (vertices at 0, 1, inf) of the two faces, assembled from
e^(+-shear/2).  develop_walk multiplies the steps of a dual walk, and
develop_from_shears those of a breadth-first tree of faces, reading each
face's places from its frame and one deck generator from each gluing
off the tree.  The develop computes on matrix tuples; an Isometry is
built only where a public function returns one (develop_walk and
DevelopedCusped.generators).

Flips run on one flat encoding: side s of face f is the integer 3f + s,
and the gluing, the cusp labels and the shears (both sides of an edge
hold its shear) are lists indexed by side.  The one in-place flip
kernel re-glues a flip's two faces, writes the shears of their five
edges on their sides and the sides' partners, and checks those faces
and their neighbours with the face check that check() runs.  The public
flip and the search, which decodes only its best state, both run it.
Each side's successor and predecessor in its face come from side
tables (_side_tables); the search looks them up once and hands them to
the kernel and the face check, which otherwise look them up per call.

The minimax search lowers the largest |shear| of finite shears (it
raises ValueError for others, and for a flip that would overflow one).
Penner's rule adds a non-positive amount to the sides following a
flipped edge in its faces and a non-negative one to the sides
preceding it, so only two flips can lower the top edge's |shear|:
those of the edges its two sides follow when its shear is >= 0, or
precede when it is < 0.  A step scores those two and the edge a kick
draws, which comes from the raw words of a Philox bit generator by
numpy's bounded rule, so it draws what Generator.integers would.  A
step ranks the edges, and a kick lists its candidates, in one pass over
the sides that reads each edge at its key, the side i with i <= glue[i].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geom import (IDENTITY, INF, RELATION_TOL, Isometry,
                   mat_apply_boundary, mat_inverse, mat_mul)


@dataclass
class CuspedTriangulation:
    """Oriented triangulated surface with cusp-labelled vertices.

    Face f has vertices verts[f] = (c0, c1, c2) in positive cyclic order;
    side s of f joins vertex s to vertex s+1.  glue is the side-pairing
    involution on (face, side) pairs.
    """

    verts: list
    glue: dict

    def num_faces(self):
        return len(self.verts)

    def edges(self):
        return sorted(k for k, p in self.glue.items() if k <= p)

    def edge_key(self, face, side):
        key = (face, side)
        partner = self.glue[key]
        return partner if partner < key else key

    def copy(self):
        return CuspedTriangulation(verts=list(self.verts),
                                   glue=dict(self.glue))

    def check(self):
        """Check every face (see check_faces)."""
        _check(*_encode(self))

    def check_faces(self, faces):
        """Check the given faces: glued by an involution, and carrying the
        same cusps as their partners across each side.  Every face must
        be a triangle and every side glued."""
        _check_faces(*_encode(self), faces)

    def vertex_links(self):
        """cusp id -> list of (face, corner) in cyclic order around it."""
        links = {}
        visited = set()
        for f, vs in enumerate(self.verts):
            for corner in range(3):
                if (f, corner) in visited:
                    continue
                cusp = vs[corner]
                cycle = []
                cur = (f, corner)
                while cur not in visited:
                    visited.add(cur)
                    cycle.append(cur)
                    cf, cc = cur
                    f2, s2 = self.glue[(cf, cc)]
                    cur = (f2, (s2 + 1) % 3)
                links.setdefault(cusp, []).append(cycle)
        out = {}
        for cusp, cycles in links.items():
            if len(cycles) != 1:
                raise ValueError(f"cusp {cusp} has a disconnected link")
            out[cusp] = cycles[0]
        return out


def cusp_sums(cx: CuspedTriangulation, sigma: dict) -> dict:
    """Sum of shears of the edge-ends around each cusp."""
    sums = {}
    for cusp, cycle in cx.vertex_links().items():
        total = 0.0
        for f, corner in cycle:
            total += sigma[cx.edge_key(f, corner)]
        sums[cusp] = total
    return sums


def max_abs_shear(sigma: dict) -> float:
    return max((abs(v) for v in sigma.values()), default=0.0)


# ---------------------------------------------------------------------------
# flips, on a flat encoding
#
# Side s of face f is the integer i = 3f + s, so integer order is (face,
# side) order.  glue[i] is the side glued to side i, labels[i] the cusp
# at the start of side i and shears[i] the shear of its edge, the same
# float on both sides; the edge key is the smaller side, min(i, glue[i]).

_NEXT = (1, 1, -2)      # side i + _NEXT[i % 3] follows side i in its face
_PREV = (2, -1, -1)     # side i + _PREV[i % 3] precedes it


@lru_cache(maxsize=16)
def _side_tables(n: int):
    """For n sides, the side following and the side preceding each side
    in its face, as two tuples indexed by side."""
    return (tuple(i + _NEXT[i % 3] for i in range(n)),
            tuple(i + _PREV[i % 3] for i in range(n)))


def _encode(cx: CuspedTriangulation):
    """The flat glue and labels of a triangulation.

    Raises ValueError for a face that is not a triangle, an unglued side
    or a side glued to something that is not a side.
    """
    labels = []
    for f, vs in enumerate(cx.verts):
        if len(vs) != 3:
            raise ValueError(f"face {f} is not a triangle")
        labels.extend(vs)
    glue = []
    for i in range(len(labels)):
        side = divmod(i, 3)
        partner = cx.glue.get(side)
        if partner is None:
            raise ValueError(f"side {side} is unglued")
        f2, s2 = partner
        j = 3 * f2 + s2
        if not (0 <= s2 < 3 and 0 <= j < len(labels)):
            raise ValueError(f"gluing is not an involution at {side}")
        glue.append(j)
    return glue, labels


def _encode_shears(glue, sigma: dict) -> list:
    """The shears by side, each edge's on both of its sides."""
    shears = [None] * len(glue)
    for (f, s), v in sigma.items():
        i = 3 * f + s
        if not (0 <= s < 3 and 0 <= i < len(glue) and i <= glue[i]):
            raise ValueError(f"{(f, s)} is not an edge key")
        shears[i] = shears[glue[i]] = v
    if None in shears:      # at the key of the first edge without one
        raise ValueError(f"no shear for edge {divmod(shears.index(None), 3)}")
    return shears


def _decode(glue, labels, shears, keys=None):
    """The triangulation and shear vector of a flat encoding, with the
    edges of keys in their order (by default every edge, in key order)."""
    cx = CuspedTriangulation(
        verts=[tuple(labels[i:i + 3]) for i in range(0, len(labels), 3)],
        glue={divmod(i, 3): divmod(j, 3) for i, j in enumerate(glue)})
    keys = _edge_keys(glue) if keys is None else keys
    return cx, {divmod(k, 3): shears[k] for k in keys}


def _copy(glue, labels, shears):
    return glue[:], labels[:], shears[:]


def _check(glue, labels):
    _check_faces(glue, labels, range(len(glue) // 3))


def _check_faces(glue, labels, faces, shears=None, nxt=None):
    """Check that the given faces are glued by an involution and carry
    the same cusps as their partners across each side; given the shears,
    also that each side holds its partner's shear.  nxt is the side
    table of successors (_side_tables), looked up when not given."""
    if nxt is None:
        nxt, _ = _side_tables(len(glue))
    for f in faces:
        b = 3 * f
        for i in (b, b + 1, b + 2):
            j = glue[i]
            if glue[j] != i:
                raise ValueError(
                    f"gluing is not an involution at {divmod(i, 3)}")
            # glued sides carry the same cusps, traversed oppositely
            if labels[i] != labels[nxt[j]] or labels[nxt[i]] != labels[j]:
                raise ValueError(f"cusp labels disagree across {divmod(i, 3)}")
            # the same float, not an equal one, so that a NaN passes
            if shears is not None and shears[i] is not shears[j]:
                raise RuntimeError(f"shears differ across {divmod(i, 3)}")


def _edge_keys(glue):
    return [i for i, j in enumerate(glue) if i <= j]


def _flippable(glue, i) -> bool:
    f1, f2 = i // 3, glue[i] // 3
    if f1 == f2:
        return False
    b = 3 * f1
    return (glue[b] // 3, glue[b + 1] // 3, glue[b + 2] // 3).count(f2) == 1


def _flip_changes(glue, shears, e, nxt=None, prv=None):
    """The keys and new shears, two tuples, of the edges a flip of the
    flippable edge key e changes: the outer sides' edges (two of e's
    face, then two of its partner's), then e.  nxt and prv are the side
    tables (_side_tables), looked up when not given.

    Penner's rule: the flipped shear negates; in the stored sign
    convention the side following the flipped edge in each adjacent
    triangle's cyclic order gains -log(1 + e^-s) and the preceding side
    gains +log(1 + e^s).  An edge's gains sum from 0.0 (so -0.0 adds as
    +0.0) before they are added to its shear; a self-folded triangle's
    two glued outer sides meet one edge, which sums both.
    """
    e2, s_val = glue[e], shears[e]
    gain_prev = math.log1p(math.exp(s_val)) if s_val < 30 else s_val
    gain_next = math.log1p(math.exp(-s_val)) if s_val > -30 else -s_val
    lose, gain = 0.0 + -gain_next, 0.0 + gain_prev
    if nxt is None:
        nxt, prv = _side_tables(len(glue))
    p, q, r, s = nxt[e], prv[e], nxt[e2], prv[e2]
    gp, gq, gr, gs = glue[p], glue[q], glue[r], glue[s]
    keys = (p if p < gp else gp, q if q < gq else gq,
            r if r < gr else gr, s if s < gs else gs, e)
    if gp == q or gr == s:
        delta = {}
        for key, amount in zip(keys, (lose, gain, lose, gain)):
            delta[key] = delta.get(key, 0.0) + amount
        return (*delta, e), (*[shears[k] + delta[k] for k in delta], -s_val)
    return keys, (shears[p] + lose, shears[q] + gain,
                  shears[r] + lose, shears[s] + gain, -s_val)


def _flip_score(ranking: list, changed: tuple) -> float:
    """max_abs_shear of the shears a flip would give, bit for bit, from
    its _flip_changes: ranking holds (|shear|, edge key) for the current
    shears in decreasing order, so the largest unchanged shear is the
    first ranked edge the flip leaves alone."""
    keys, values = changed
    for kept, key in ranking:
        if key not in keys:
            break
    else:
        kept = 0.0
    return max(kept, *map(abs, values))


def _flip_flat(glue, labels, shears, e, changed, nxt=None, prv=None):
    """Flip the flippable edge key e in place, given its _flip_changes:
    re-glue the six sides of the two faces, write the changed shears on
    them and their partners, and check the two faces and their
    neighbours, the only faces whose gluing, labels or shears a flip
    changes.  nxt and prv are the side tables (_side_tables), looked up
    when not given.  Returns the outer sides and the sides they moved
    to."""
    keys, values = changed
    if nxt is None:
        nxt, prv = _side_tables(len(glue))
    e2 = glue[e]
    b1, b2 = e - e % 3, e2 - e2 % 3
    # outer sides P, Q of f1 and R, S of f2, and the slots they move to:
    # U1 = (x, w, z) replaces f1, U2 = (w, y, z) replaces f2
    p, q, r, s = nxt[e], prv[e], nxt[e2], prv[e2]
    outer, slots = (p, q, r, s), (b2 + 1, b1 + 2, b1, b2)
    x, y, z, w = labels[e], labels[p], labels[q], labels[s]
    gp, gq, gr, gs = glue[p], glue[q], glue[r], glue[s]
    if e in (gp, gq, gr, gs) or e2 in (gp, gq, gr, gs):
        raise ValueError("flip would glue a side to the removed edge")
    if len(keys) < 5:
        # a self-folded triangle's outer sides: one shear, glued together
        partners = [gp, gq, gr, gs]
        moved = dict(zip(outer, slots))
        values = [values[keys.index(min(i, j))]
                  for i, j in zip(outer, partners)] + [values[-1]]
        gp, gq, gr, gs = [moved.get(j, j) for j in partners]
    vp, vq, vr, vs, diagonal = values
    labels[b1:b1 + 3] = (x, w, z)
    labels[b2:b2 + 3] = (w, y, z)
    glue[b2 + 1], glue[gp] = gp, b2 + 1
    shears[b2 + 1] = shears[gp] = vp
    glue[b1 + 2], glue[gq] = gq, b1 + 2
    shears[b1 + 2] = shears[gq] = vq
    glue[b1], glue[gr] = gr, b1
    shears[b1] = shears[gr] = vr
    glue[b2], glue[gs] = gs, b2
    shears[b2] = shears[gs] = vs
    glue[b1 + 1], glue[b2 + 2] = b2 + 2, b1 + 1
    shears[b1 + 1] = shears[b2 + 2] = diagonal
    _check_faces(glue, labels, {b1 // 3, b2 // 3, gp // 3, gq // 3,
                                gr // 3, gs // 3}, shears, nxt)
    return outer, slots


def _edge_index(glue, edge) -> int:
    """The flat edge key of the edge through side edge = (face, side);
    raises ValueError for a pair that is not a side."""
    f, s = edge
    i = 3 * f + s
    if not (0 <= s < 3 and 0 <= i < len(glue)):
        raise ValueError(f"{(f, s)} is not a side")
    return min(i, glue[i])


def flippable(cx: CuspedTriangulation, edge) -> bool:
    """Whether the edge's two faces differ and share only this edge;
    raises ValueError if edge is not a side."""
    glue, _ = _encode(cx)
    return _flippable(glue, _edge_index(glue, edge))


def flip(cx: CuspedTriangulation, sigma: dict, edge):
    """Flip the edge; returns a new triangulation and shear vector.

    The inputs are left unchanged.  The shears change by Penner's rule
    (see _flip_changes) on the flat encoding, each side holding its
    edge's shear; the result passes the whole-complex check.  It lists
    the edges in the order of sigma, each under its new key, with the
    new diagonal last.
    """
    glue, labels = _encode(cx)
    e = _edge_index(glue, edge)
    if not _flippable(glue, e):
        raise ValueError(f"edge {divmod(e, 3)} is not flippable")
    shears = _encode_shears(glue, sigma)
    moved = dict(zip(*_flip_flat(glue, labels, shears, e,
                                 _flip_changes(glue, shears, e))))
    _check(glue, labels)
    # an edge keeps its key's side unless the flip moved it
    sides = [moved.get(k, k) for k in (3 * g + t for g, t in sigma)
             if k != e] + [e - e % 3 + 1]
    return _decode(glue, labels, shears, [min(i, glue[i]) for i in sides])


# ---------------------------------------------------------------------------
# developing a cusped triangulation from its shears


class IncompleteStructure(ValueError):
    pass


#: per side, the inverse of the map sending (side, side+1, apex) to
#: (0, inf, -1)
_EXIT_FRAME = ((1.0, 0.0, 1.0, 1.0),
               (1.0, 1.0, 0.0, 1.0),
               (0.0, 1.0, -1.0, 0.0))


def _step_matrix(side: int, s2: int, shear: float):
    """Transition from a face's standard frame to its neighbour's.

    Both faces are normalized to vertices (0, 1, inf); the matrix is
    assembled from e^(+-shear/2) directly, so no boundary points collide
    however large the shear is.
    """
    r = math.exp(-shear / 2.0)   # sqrt of the normalized apex position
    ri = 1.0 / r
    if s2 == 0:
        inner = (r, -r, ri, 0.0)
    elif s2 == 1:
        inner = (0.0, -r, ri, -ri)
    else:
        inner = (r, 0.0, 0.0, ri)
    return mat_mul(_EXIT_FRAME[side], inner)


def develop_walk(cx: CuspedTriangulation, sigma: dict, walk) -> Isometry:
    """Holonomy of a closed dual walk: a list of (face, exit side).

    The walk starts in walk[0][0]; each step crosses the named side into
    the glued face, which must be the face of the next step.  Every face
    is developed in its own standard frame (vertices at 0, 1, inf) and
    the per-step transition maps, closed forms in e^(+-shear/2), are
    accumulated; each step stays well conditioned however large the
    shears have become.  Raises ValueError for an empty walk, a step
    that is not a side, or steps that do not chain or close up.
    """
    if not walk:
        raise ValueError("walk must be nonempty")
    _check_walk(cx, walk)
    hol = IDENTITY
    for face, side in walk:
        _, s2 = cx.glue[(face, side)]
        hol = mat_mul(hol, _step_matrix(side, s2,
                                        sigma[cx.edge_key(face, side)]))
    return Isometry(*hol)


def _check_walk(cx: CuspedTriangulation, walk):
    """Raise ValueError unless every step of the dual walk is a side
    whose glued face is the next step's face, and the last step's is
    the first step's (an empty walk passes)."""
    cur_face = walk[0][0] if walk else None
    for face, side in walk:
        if face != cur_face:
            raise ValueError("walk steps do not chain")
        if (face, side) not in cx.glue:
            raise ValueError(f"{(face, side)} is not a side")
        cur_face = cx.glue[(face, side)][0]
    if walk and cur_face != walk[0][0]:
        raise ValueError("walk does not close up")


@dataclass
class DevelopedCusped:
    cx: CuspedTriangulation
    sigma: dict
    places: list            # per face: boundary point triple
    generators: list        # face-pairing deck elements of co-tree gluings


def check_complete(cx: CuspedTriangulation, sigma: dict):
    """Raise IncompleteStructure unless every cusp sum of the shears is
    within RELATION_TOL of 0 (completeness); a NaN sum fails."""
    residuals = [abs(v) for v in cusp_sums(cx, sigma).values()]
    # a NaN sum is never complete, and max keeps it only when it is first
    worst = math.nan if any(map(math.isnan, residuals)) else max(residuals)
    if not worst <= RELATION_TOL:
        raise IncompleteStructure(
            f"incomplete structure: cusp sums reach {worst}")


def develop_from_shears(cx: CuspedTriangulation, sigma: dict) -> DevelopedCusped:
    """Develop the triangulation; cusp sums must vanish (check_complete).

    A breadth-first search from face 0 gives each face a frame, the map
    from standard position (vertices at 0, 1, inf) to its place: the
    face f2 reached across side s of f gets frames[f] times the step
    matrix of the crossing, the transition develop_walk accumulates, and
    its places are its frame's images of (0, 1, inf).  Each gluing is
    crossed once, from the first of its sides the search meets; one that
    reaches a face already placed closes a loop of the search tree, and
    the frame the crossing would give f2 times the inverse of the stored
    one is its generator.
    """
    check_complete(cx, sigma)
    frames = [None] * cx.num_faces()
    frames[0] = IDENTITY
    generators = []
    crossed = set()
    frontier = [0]
    while frontier:
        nxt = []
        for f in frontier:
            for s in range(3):
                if (f, s) in crossed:
                    continue
                f2, s2 = cx.glue[(f, s)]
                crossed.add((f2, s2))
                m = mat_mul(frames[f], _step_matrix(
                    s, s2, sigma[cx.edge_key(f, s)]))
                if frames[f2] is None:
                    frames[f2] = m
                    nxt.append(f2)
                else:
                    generators.append(Isometry(*mat_mul(
                        m, mat_inverse(frames[f2]))))
        frontier = nxt
    places = [tuple(mat_apply_boundary(m, v) for v in (0.0, 1.0, INF))
              for m in frames]
    return DevelopedCusped(cx=cx, sigma=sigma, places=places,
                           generators=generators)


def rewrite_walk(walk, cx: CuspedTriangulation, edge):
    """Transport a closed dual walk through a flip of the given edge.

    Runs of the walk inside the two flipped faces are re-derived from
    their entry and exit sides: in the new complex the transit either
    stays inside one of the new faces or crosses the new diagonal once.
    Raises ValueError for a step that is not a side, steps that do not
    chain or close up (as develop_walk does) and a walk that never
    leaves the two faces.  Each run's entry and exit are then outer
    sides: the entry is glued to the step before the run and the exit to
    the face of the step after it, both outside the two faces, while the
    flipped edge's two sides are glued to each other.
    """
    _check_walk(cx, walk)
    edge = cx.edge_key(*edge)
    f1, s1 = edge
    f2, s2 = cx.glue[edge]
    inside = {f1, f2}
    n = len(walk)
    start = next((i for i in range(n) if walk[i][0] not in inside), None)
    if start is None:
        raise ValueError("walk never leaves the flipped quadrilateral")
    rotated = walk[start:] + walk[:start]

    # how the four outer sides are renamed by the flip
    new_side = {
        (f1, (s1 + 1) % 3): (f2, 1),   # P
        (f1, (s1 + 2) % 3): (f1, 2),   # Q
        (f2, (s2 + 1) % 3): (f1, 0),   # R
        (f2, (s2 + 2) % 3): (f2, 0),   # S
    }
    diag_of = {f1: (f1, 1), f2: (f2, 2)}

    out = []
    i = 0
    while i < len(rotated):
        face, side = rotated[i]
        if face not in inside:
            out.append((face, side))
            i += 1
            continue
        j = i
        while j < len(rotated) and rotated[j][0] in inside:
            j += 1
        prev = rotated[i - 1]
        entry = cx.glue[prev]
        exit_ = rotated[j - 1]
        e_new = new_side[entry]
        x_new = new_side[exit_]
        if e_new[0] == x_new[0]:
            out.append(x_new)
        else:
            out.append(diag_of[e_new[0]])
            out.append(x_new)
        i = j
    return out


# ---------------------------------------------------------------------------
# minimax flip search


def _descents(glue, shears, top, nxt, prv) -> list:
    """The flippable edge keys a search step scores when edge key top
    holds the maximum |shear|, given the side tables nxt and prv.

    Penner's rule (see _flip_changes) adds lose <= 0 to the outer sides
    that follow the flipped edge in its faces and gain >= 0 to those
    that precede it.  A flippable edge's two faces share only that edge,
    so top is two outer sides of a flip only as the folded edge of a
    self-folded face, whose third side, the loop, is then the flipped
    edge and one of the two below.  Any other flip but top's own, which
    negates top's shear T, changes T once at most.  Rounding is
    monotone, so adding gain to T >= 0, or lose to T < 0, leaves
    |T'| >= |T|, the maximum, in the score.  So only the flips of the
    edges top's sides follow (T >= 0) or precede (T < 0) can improve.
    """
    lower = prv if shears[top] >= 0 else nxt
    i, j = lower[top], lower[glue[top]]
    gi, gj = glue[i], glue[j]
    return [e for e in {i if i < gi else gi, j if j < gj else gj}
            if _flippable(glue, e)]


def _philox_halves(seed):
    """The 32-bit words numpy's bounded integers read from
    Philox(key=seed): each raw 64-bit word's low half, then its high
    half.  The bit generator is made, and its raw words read 32 at a
    time, only when a word is asked for."""
    bitgen = np.random.Philox(key=seed)
    while True:
        for word in bitgen.random_raw(32).tolist():
            yield word & 0xFFFFFFFF
            yield word >> 32


def _draw(halves, k: int) -> int:
    """Generator(Philox(key=seed)).integers(0, k) for 1 <= k <= 2**32,
    from the words of _philox_halves(seed): numpy's bounded Lemire rule.
    It reads no word for k = 1; otherwise it returns the high half of
    word * k, drawing again while the low half is below (2**32 - k) % k."""
    if k == 1:
        return 0
    m = next(halves) * k
    if m & 0xFFFFFFFF < k:      # (2**32 - k) % k < k
        threshold = (0x100000000 - k) % k
        while m & 0xFFFFFFFF < threshold:
            m = next(halves) * k
    return m >> 32


def minimax_flip_search(cx: CuspedTriangulation, sigma: dict, budget: int,
                        seed: int):
    """Greedy descent on the maximum absolute shear with random kicks.

    Each step scores flippable edges by the maximum absolute shear their
    flip would give, in closed form and without building the flipped
    complex.  The lowest (value, edge) is flipped if it improves on the
    current maximum by more than 1e-12; otherwise a seeded random kick
    flips an edge drawn uniformly from the sorted flippable edges.  The
    shears must be finite, so the top-ranked |shear| is the maximum, and
    by the signs of Penner's rule only two flips can lower it (see
    _descents): those of the edges the top edge's two sides follow in
    their faces when its shear is >= 0, or precede when it is < 0.  A
    step scores those two, and a kick the edge it draws.  Every step,
    kick or descent, uses one unit of budget.  The search encodes the
    inputs once, a shear on every side, checks the whole complex once,
    then flips the encoding in place (see _flip_flat); the inputs are
    left unchanged, the encoding is copied only when the best maximum
    improves, and the best state is decoded once, at the end, its edges
    in key order.  A step ranks (|shear|, edge key) in decreasing order,
    ties going to the larger key, in one pass over the sides that reads
    each edge at its key (the side i with i <= glue[i]), and a kick lists
    the flippable edge keys in key order by the same pass.  The side
    tables are looked up once and passed to the flip kernel and its face
    check.  A kick's draw is Generator(Philox(key=seed)).integers(0, k),
    read from the raw Philox words (_draw).  Returns the best
    triangulation, its shear vector, the best maximum and the flip
    trail.  Raises ValueError for a seed that is not an integer in
    [0, 2**64), a budget that is not a non-negative integer or a shear
    that is not finite, and when the flip a step takes would make a
    shear overflow, which Penner's rule does only within about a factor
    of two of the largest float.
    """
    # bool is an Integral, but True is not a seed or a budget
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or not 0 <= seed < 2 ** 64):
        raise ValueError(
            f"seed must be an integer in [0, 2**64), got {seed!r}")
    if (isinstance(budget, bool) or not isinstance(budget, numbers.Integral)
            or budget < 0):
        raise ValueError(
            f"budget must be a non-negative integer, got {budget!r}")
    halves = _philox_halves(seed)
    glue, labels = _encode(cx)
    _check(glue, labels)
    shears = _encode_shears(glue, sigma)
    for i, v in enumerate(shears):      # the first side of an edge is its key
        if not math.isfinite(v):
            raise ValueError(
                f"shears must be finite, got {v!r} on edge {divmod(i, 3)}")
    nxt, prv = _side_tables(len(glue))
    sides = range(len(glue))
    best, best_max = None, max_abs_shear(sigma)     # None: the input state
    trail = []
    while len(trail) < budget:
        ranking = [(abs(shears[i]), i) for i in sides if i <= glue[i]]
        if not ranking:
            break
        ranking.sort(reverse=True)
        cur_max, top = ranking[0]
        flipped, improving = {}, None      # improving: the lowest (value, e)
        for e in _descents(glue, shears, top, nxt, prv):
            flipped[e] = _flip_changes(glue, shears, e, nxt, prv)
            c = (_flip_score(ranking, flipped[e]), e)
            if c[0] < cur_max - 1e-12 and (not improving or c < improving):
                improving = c
        if improving:
            val, e = improving
        else:
            # stuck at a local minimum: random kick
            candidates = [i for i in sides
                          if i <= glue[i] and _flippable(glue, i)]
            if not candidates:
                break
            e = candidates[_draw(halves, len(candidates))]
            if e not in flipped:
                flipped[e] = _flip_changes(glue, shears, e, nxt, prv)
            val = _flip_score(ranking, flipped[e])
        if not math.isfinite(val):
            raise ValueError(
                f"flip of edge {divmod(e, 3)} makes a shear overflow")
        _flip_flat(glue, labels, shears, e, flipped[e], nxt, prv)
        trail.append(divmod(e, 3))
        if improving and val < best_max:
            best, best_max = _copy(glue, labels, shears), val
    if best is None:
        return cx, dict(sigma), best_max, trail
    return (*_decode(*best), best_max, trail)
