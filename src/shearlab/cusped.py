"""Cusped ideal triangulations: flips, shears, and developing maps.

A cusped triangulation is a combinatorial surface triangulation whose
vertices are the cusps, together with one shear per edge.  Edges can be
flipped, the shears transforming by the standard local rule; the whole
structure can be rebuilt into a holonomy representation by developing
triangle by triangle, which provides the round-trip oracle.

A flip changes only its two faces and the five edges they carry.  The
in-place core re-glues those faces, renames those shears and checks
those faces and their neighbours; the public flip runs it on a copy and
checks the whole result, and the minimax search runs it on one working
copy, checked whole once on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geom
from .geom import INF, RELATION_TOL, Geodesic, Isometry, mobius_two_point


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
        self.check_faces(range(len(self.verts)))

    def check_faces(self, faces):
        """Check the given faces: triangles, glued by an involution, and
        carrying the same cusps as their partners across each side."""
        glue, verts = self.glue, self.verts
        for f in faces:
            vs = verts[f]
            if len(vs) != 3:
                raise ValueError(f"face {f} is not a triangle")
            for s, t in ((0, 1), (1, 2), (2, 0)):
                key = (f, s)
                partner = glue.get(key)
                if partner is None:
                    raise ValueError(f"side {key} is unglued")
                if glue.get(partner) != key:
                    raise ValueError(f"gluing is not an involution at {key}")
                # glued sides carry the same cusps, traversed oppositely
                f2, s2 = partner
                vs2 = verts[f2]
                if vs[s] != vs2[(s2 + 1) % 3] or vs[t] != vs2[s2]:
                    raise ValueError(f"cusp labels disagree across {key}")

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
# flips


def flippable(cx: CuspedTriangulation, edge) -> bool:
    f1, _ = edge
    f2, _ = cx.glue[edge]
    if f1 == f2:
        return False
    glue = cx.glue
    shared = (glue[(f1, 0)][0], glue[(f1, 1)][0], glue[(f1, 2)][0])
    return shared.count(f2) == 1


def _flipped_shears(cx: CuspedTriangulation, sigma: dict, edge) -> dict:
    """The shears a flip of the edge changes, keyed by the old edge keys.

    Penner's rule: the flipped shear negates; in the stored sign
    convention the side following the flipped edge in each adjacent
    triangle's cyclic order gains -log(1 + e^-s) and the preceding side
    gains +log(1 + e^s).  An edge met twice (two sides of the
    quadrilateral glued together) sums both gains before they are added
    to its shear.  The edge must be an edge key.
    """
    glue = cx.glue
    f1, s1 = edge
    f2, s2 = glue[edge]
    s_val = sigma[edge]
    gain_prev = math.log1p(math.exp(s_val)) if s_val < 30 else s_val
    gain_next = math.log1p(math.exp(-s_val)) if s_val > -30 else -s_val
    delta = {}
    for side, amount in zip(((f1, (s1 + 1) % 3), (f1, (s1 + 2) % 3),
                             (f2, (s2 + 1) % 3), (f2, (s2 + 2) % 3)),
                            (-gain_next, +gain_prev, -gain_next, +gain_prev)):
        partner = glue[side]
        key = partner if partner < side else side   # the edge key
        delta[key] = delta.get(key, 0.0) + amount
    out = {key: sigma[key] + amount for key, amount in delta.items()}
    out[edge] = -s_val
    return out


def _flip_score(ranking: list, changed: dict) -> float:
    """max_abs_shear of the shears a flip would give.

    changed is _flipped_shears of the flip; ranking holds (|shear|, edge)
    for the current shears in decreasing order, so the largest unchanged
    shear is the first ranked edge the flip leaves alone.  Nothing is
    copied or re-glued; the value is bit-equal to the one read from the
    flipped shear vector.
    """
    for kept, key in ranking:
        if key not in changed:
            break
    else:
        kept = 0.0
    return max(kept, *map(abs, changed.values()))


def _flip_in_place(cx: CuspedTriangulation, sigma: dict, edge, changed):
    """Flip the flippable edge key in place, given its _flipped_shears.

    Re-glues the six sides of the two faces, moves the changed shears to
    the keys of the edges those sides now carry, and checks the two faces
    and their neighbours: the only faces whose gluing or labels a flip
    changes.  Returns the new key of each changed edge, by old key.
    """
    f1, s1 = edge
    f2, s2 = cx.glue[edge]
    x = cx.verts[f1][s1]
    y = cx.verts[f1][(s1 + 1) % 3]
    z = cx.verts[f1][(s1 + 2) % 3]
    w = cx.verts[f2][(s2 + 2) % 3]
    # outer sides P, Q of f1 and R, S of f2, and the slots they move to:
    # U1 = (x, w, z) replaces f1, U2 = (w, y, z) replaces f2
    outer = ((f1, (s1 + 1) % 3), (f1, (s1 + 2) % 3),
             (f2, (s2 + 1) % 3), (f2, (s2 + 2) % 3))
    slots = ((f2, 1), (f1, 2), (f1, 0), (f2, 0))
    partners = [cx.glue[side] for side in outer]
    if edge in partners or (f2, s2) in partners:
        raise ValueError("flip would glue a side to the removed edge")
    moved = dict(zip(outer, slots))
    # a new side of each changed edge, with the edge's old key; the new
    # diagonal (w, z), sides (f1, 1) and (f2, 2), replaces the edge
    sides = [((f1, 1), edge)]
    sides += [(me, min(side, p))
              for me, side, p in zip(slots, outer, partners)]

    cx.verts[f1] = (x, w, z)
    cx.verts[f2] = (w, y, z)
    for me, partner in zip(slots, partners):
        partner = moved.get(partner, partner)
        cx.glue[me] = partner
        cx.glue[partner] = me
    cx.glue[(f1, 1)] = (f2, 2)
    cx.glue[(f2, 2)] = (f1, 1)
    cx.check_faces({f1, f2} | {p[0] for p in partners})

    renamed = {old: cx.edge_key(*me) for me, old in sides}
    for key in changed:
        del sigma[key]
    for old, new in renamed.items():
        sigma[new] = changed[old]
    if len(sigma) != len(cx.glue) // 2:
        raise RuntimeError(f"{len(sigma)} shears for {len(cx.glue) // 2} "
                           f"edges after flipping {edge}")
    return renamed


def flip(cx: CuspedTriangulation, sigma: dict, edge):
    """Flip the edge; returns a new triangulation and shear vector.

    The inputs are left unchanged.  The shears change by Penner's rule
    (see _flipped_shears); the result passes the whole-complex check()
    and carries a shear on every edge.  It lists the edges in the order
    of sigma, each under its new key, with the new diagonal last.
    """
    edge = cx.edge_key(*edge)
    if not flippable(cx, edge):
        raise ValueError(f"edge {edge} is not flippable")
    new, shears = cx.copy(), dict(sigma)
    renamed = _flip_in_place(new, shears, edge,
                             _flipped_shears(cx, sigma, edge))
    new.check()
    order = [renamed.get(k, k) for k in sigma if k != edge] + [renamed[edge]]
    new_sigma = {k: shears[k] for k in order}
    for e in new.edges():
        if e not in new_sigma:
            raise RuntimeError(f"missing shear for edge {e} after flip")
    return new, new_sigma


# ---------------------------------------------------------------------------
# developing a cusped triangulation from its shears


class IncompleteStructure(ValueError):
    pass


def _mobius_to(x, y, z) -> Isometry:
    """Map with x -> 0, y -> inf, z -> -1 (z on the left of x -> y)."""
    m0 = mobius_two_point(x, y)
    z0 = m0.apply_boundary(z)
    if z0 == INF or z0 >= 0:
        raise geom.GeometryError("apex is not on the left of the edge")
    k = math.sqrt(-1.0 / z0)
    return Isometry(k, 0.0, 0.0, 1.0 / k) @ m0


def _develop_apex(x, y, z, shear: float):
    """Apex across edge (x, y) from the triangle with apex z, given shear."""
    if geom.cyclically_ordered(x, y, z):
        m = _mobius_to(x, y, z)
        return m.inverse().apply_boundary(math.exp(-shear))
    m = _mobius_to(y, x, z)
    return m.inverse().apply_boundary(math.exp(-shear))


_EXIT_FRAME = {
    # inverse of the map sending (side, side+1, apex) to (0, inf, -1)
    0: Isometry(1.0, 0.0, 1.0, 1.0),
    1: Isometry(1.0, 1.0, 0.0, 1.0),
    2: Isometry(0.0, 1.0, -1.0, 0.0),
}


def _step_matrix(side: int, s2: int, shear: float) -> Isometry:
    """Transition from a face's standard frame to its neighbour's.

    Both faces are normalized to vertices (0, 1, inf); the matrix is
    assembled from e^(+-shear/2) directly, so no boundary points collide
    however large the shear is.
    """
    r = math.exp(-shear / 2.0)   # sqrt of the normalized apex position
    ri = 1.0 / r
    if s2 == 0:
        inner = Isometry(r, -r, ri, 0.0)
    elif s2 == 1:
        inner = Isometry(0.0, -r, ri, -ri)
    else:
        inner = Isometry(r, 0.0, 0.0, ri)
    return _EXIT_FRAME[side] @ inner


def develop_walk(cx: CuspedTriangulation, sigma: dict, walk) -> Isometry:
    """Holonomy of a closed dual walk: a list of (face, exit side).

    The walk starts in walk[0][0]; each step crosses the named side into
    the glued face, which must be the face of the next step.  Every face
    is developed in its own standard frame (vertices at 0, 1, inf) and
    the per-step transition maps, closed forms in e^(+-shear/2), are
    accumulated; each step stays well conditioned however large the
    shears have become.
    """
    hol = Isometry.identity()
    cur_face = walk[0][0]
    for face, side in walk:
        if face != cur_face:
            raise ValueError("walk steps do not chain")
        f2, s2 = cx.glue[(face, side)]
        hol = hol @ _step_matrix(side, s2, sigma[cx.edge_key(face, side)])
        cur_face = f2
    if cur_face != walk[0][0]:
        raise ValueError("walk does not close up")
    return hol


@dataclass
class DevelopedCusped:
    cx: CuspedTriangulation
    sigma: dict
    places: list            # per face: boundary point triple
    generators: list        # face-pairing deck elements of co-tree gluings


def develop_from_shears(cx: CuspedTriangulation, sigma: dict) -> DevelopedCusped:
    """Develop the triangulation; cusp sums must vanish (completeness)."""
    sums = cusp_sums(cx, sigma)
    worst = max(abs(v) for v in sums.values())
    if worst > RELATION_TOL:
        raise IncompleteStructure(
            f"incomplete structure: cusp sums reach {worst}")
    places = [None] * cx.num_faces()
    places[0] = (0.0, 1.0, INF)
    generators = []
    frontier = [0]
    seen = {0}
    while frontier:
        nxt = []
        for f in frontier:
            for s in range(3):
                f2, s2 = cx.glue[(f, s)]
                x = places[f][s]
                y = places[f][(s + 1) % 3]
                z = places[f][(s + 2) % 3]
                w = _develop_apex(x, y, z, sigma[cx.edge_key(f, s)])
                pts2 = [None, None, None]
                pts2[s2] = y
                pts2[(s2 + 1) % 3] = x
                pts2[(s2 + 2) % 3] = w
                if f2 not in seen:
                    places[f2] = tuple(pts2)
                    seen.add(f2)
                    nxt.append(f2)
                else:
                    new_map = _span_map(places[f2], tuple(pts2))
                    if new_map is not None:
                        generators.append(new_map)
        frontier = nxt
    return DevelopedCusped(cx=cx, sigma=sigma, places=places,
                           generators=generators)


def _span_map(old_pts, new_pts):
    """Deck element taking the stored placement to the redeveloped one."""
    try:
        m_old = geom.mobius_three_point(*old_pts)
        m_new = geom.mobius_three_point(*new_pts)
    except geom.GeometryError:
        return None
    g = m_new @ m_old.inverse()
    if geom.classify(g) == "identity":
        return None
    return g


def _shear_of_quad(x, y, z, w) -> float:
    """Stored-convention shear of edge (x, y) with apexes z and w."""
    e = Geodesic(x, y)
    tz = geom.IdealTriangle(*geom.oriented(x, y, z))
    tw = geom.IdealTriangle(*geom.oriented(x, y, w))
    if geom.side_of(e, z) == "left":
        t_left, t_right = tz, tw
    else:
        t_left, t_right = tw, tz
    return geom.shear(t_right, t_left, e)


def rewrite_walk(walk, cx: CuspedTriangulation, edge):
    """Transport a closed dual walk through a flip of the given edge.

    Runs of the walk inside the two flipped faces are re-derived from
    their entry and exit sides: in the new complex the transit either
    stays inside one of the new faces or crosses the new diagonal once.
    """
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
        if entry not in new_side or exit_ not in new_side:
            raise ValueError("walk enters the quadrilateral through the "
                             "flipped edge")
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


def minimax_flip_search(cx: CuspedTriangulation, sigma: dict, budget: int,
                        seed: int):
    """Greedy descent on the maximum absolute shear with random kicks.

    Each step scores flippable edges by the maximum absolute shear their
    flip would give, in closed form and without building the flipped
    complex.  The lowest (value, edge) is flipped if it improves on the
    current maximum by more than 1e-12; otherwise a seeded random kick
    flips an edge drawn uniformly from the sorted flippable edges.  Only
    a flip that changes the shear of the top-ranked edge can improve,
    since any other keeps that shear, the current maximum; and a flip
    changes only the edges of its own two faces.  So while the maximum
    is finite a step scores only the flippable edges of the two faces
    of the top-ranked edge, and a kick also scores the edge it draws.
    Every step, kick or descent, uses one unit of budget.  The search
    checks the whole complex once, then flips one private copy in place
    with a check of only the faces each flip touches; the inputs are
    left unchanged, and the state is copied only when the best maximum
    improves.  Returns the best triangulation, its shear vector, the best
    maximum and the flip trail.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    cur_max = max_abs_shear(sigma)
    best = (cx, dict(sigma), cur_max)
    cur_cx, cur_sigma = cx.copy(), dict(sigma)
    cur_cx.check()
    trail = []
    while len(trail) < budget:
        ranking = sorted(((abs(v), k) for k, v in cur_sigma.items()),
                         reverse=True)
        # a NaN shear can leave the ranking's head below a finite maximum
        if (ranking and math.isfinite(cur_max)
                and ranking[0][0] == cur_max):
            top = ranking[0][1]
            faces = (top[0], cur_cx.glue[top][0])
            near = {cur_cx.edge_key(f, s) for f in faces for s in range(3)}
        else:
            near = set(cur_cx.edges())
        flipped = {e: _flipped_shears(cur_cx, cur_sigma, e)
                   for e in near if flippable(cur_cx, e)}
        scored = [(_flip_score(ranking, changed), e)
                  for e, changed in flipped.items()]
        improving = [c for c in scored if c[0] < cur_max - 1e-12]
        if improving:
            val, e = min(improving)
        else:
            # stuck at a local minimum: random kick
            # the near edges were tested already: flippable iff scored
            candidates = [e for e in cur_cx.edges()
                          if (e in flipped if e in near
                              else flippable(cur_cx, e))]
            if not candidates:
                break
            e = candidates[int(rng.integers(0, len(candidates)))]
            if e not in flipped:
                flipped[e] = _flipped_shears(cur_cx, cur_sigma, e)
            val = _flip_score(ranking, flipped[e])
        _flip_in_place(cur_cx, cur_sigma, e, flipped[e])
        cur_max = val
        trail.append(e)
        if improving and val < best[2]:
            best = (cur_cx.copy(), dict(cur_sigma), val)
    return best[0], best[1], best[2], trail
