"""Cusped ideal triangulations: flips, shears, and developing maps.

A cusped triangulation is a combinatorial surface triangulation whose
vertices are the cusps, together with one shear per edge.  Edges can be
flipped, the shears transforming by the standard local rule; the whole
structure can be rebuilt into a holonomy representation by developing
triangle by triangle, which provides the round-trip oracle.
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
        seen = set()
        out = []
        for key, partner in self.glue.items():
            if key in seen or partner in seen:
                continue
            seen.add(key)
            seen.add(partner)
            out.append(min(key, partner))
        return sorted(out)

    def edge_key(self, face, side):
        return min((face, side), self.glue[(face, side)])

    def copy(self):
        return CuspedTriangulation(verts=list(self.verts),
                                   glue=dict(self.glue))

    def check(self):
        for f, vs in enumerate(self.verts):
            if len(vs) != 3:
                raise ValueError(f"face {f} is not a triangle")
            for s in range(3):
                key = (f, s)
                if key not in self.glue:
                    raise ValueError(f"side {key} is unglued")
                back = self.glue[self.glue[key]]
                if back != key:
                    raise ValueError(f"gluing is not an involution at {key}")
                f2, s2 = self.glue[key]
                # glued sides carry the same cusps, traversed oppositely
                a, b = vs[s], vs[(s + 1) % 3]
                b2, a2 = self.verts[f2][s2], self.verts[f2][(s2 + 1) % 3]
                if (a, b) != (a2, b2):
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
    f1, s1 = edge
    f2, s2 = cx.glue[edge]
    if f1 == f2:
        return False
    shared = sum(1 for s in range(3) if cx.glue[(f1, s)][0] == f2)
    return shared == 1


def _flipped_shears(cx: CuspedTriangulation, sigma: dict, edge) -> dict:
    """The shears a flip of the edge changes, keyed by the old edge keys.

    Penner's rule: the flipped shear negates; in the stored sign
    convention the side following the flipped edge in each adjacent
    triangle's cyclic order gains -log(1 + e^-s) and the preceding side
    gains +log(1 + e^s).  An edge met twice (two sides of the
    quadrilateral glued together) sums both gains before they are added
    to its shear.  The edge must be an edge key.
    """
    f1, s1 = edge
    f2, s2 = cx.glue[edge]
    s_val = sigma[edge]
    gain_prev = math.log1p(math.exp(s_val)) if s_val < 30 else s_val
    gain_next = math.log1p(math.exp(-s_val)) if s_val > -30 else -s_val
    delta = {}
    for face, side, amount in ((f1, (s1 + 1) % 3, -gain_next),
                               (f1, (s1 + 2) % 3, +gain_prev),
                               (f2, (s2 + 1) % 3, -gain_next),
                               (f2, (s2 + 2) % 3, +gain_prev)):
        key = cx.edge_key(face, side)
        delta[key] = delta.get(key, 0.0) + amount
    out = {key: sigma[key] + amount for key, amount in delta.items()}
    out[edge] = -s_val
    return out


def _flip_score(cx: CuspedTriangulation, sigma: dict, edge) -> float:
    """max_abs_shear of the shears flip(cx, sigma, edge) would return.

    Nothing is copied or re-glued; the value is bit-equal to the one read
    from the flipped shear vector.  The edge must be a flippable edge key.
    """
    changed = _flipped_shears(cx, sigma, edge)
    kept = max((abs(v) for k, v in sigma.items() if k not in changed),
               default=0.0)
    return max(kept, max(abs(v) for v in changed.values()))


def flip(cx: CuspedTriangulation, sigma: dict, edge):
    """Flip the edge; returns the new triangulation and shear vector.

    The shears change by Penner's rule (see _flipped_shears).
    """
    edge = cx.edge_key(*edge)
    if not flippable(cx, edge):
        raise ValueError(f"edge {edge} is not flippable")
    f1, s1 = edge
    f2, s2 = cx.glue[edge]
    x = cx.verts[f1][s1]
    y = cx.verts[f1][(s1 + 1) % 3]
    z = cx.verts[f1][(s1 + 2) % 3]
    w = cx.verts[f2][(s2 + 2) % 3]
    changed = _flipped_shears(cx, sigma, edge)

    # outer side partners, before rebuilding the quadrilateral
    outer = {
        "P": cx.glue[(f1, (s1 + 1) % 3)],
        "Q": cx.glue[(f1, (s1 + 2) % 3)],
        "R": cx.glue[(f2, (s2 + 1) % 3)],
        "S": cx.glue[(f2, (s2 + 2) % 3)],
    }
    old_keys = {
        "P": cx.edge_key(f1, (s1 + 1) % 3),
        "Q": cx.edge_key(f1, (s1 + 2) % 3),
        "R": cx.edge_key(f2, (s2 + 1) % 3),
        "S": cx.edge_key(f2, (s2 + 2) % 3),
    }

    new = cx.copy()
    # U1 = (x, w, z) replaces f1; U2 = (w, y, z) replaces f2
    new.verts[f1] = (x, w, z)
    new.verts[f2] = (w, y, z)
    new_side = {
        "R": (f1, 0), "Q": (f1, 2),   # (x,w) and (z,x)
        "S": (f2, 0), "P": (f2, 1),   # (w,y) and (y,z)
    }
    diag1, diag2 = (f1, 1), (f2, 2)   # (w,z) and (z,w)

    def reglue(label):
        partner = outer[label]
        if partner == edge or partner == (f2, s2):
            raise ValueError("flip would glue a side to the removed edge")
        for lab, old in (("P", (f1, (s1 + 1) % 3)), ("Q", (f1, (s1 + 2) % 3)),
                         ("R", (f2, (s2 + 1) % 3)), ("S", (f2, (s2 + 2) % 3))):
            if partner == old:
                partner = new_side[lab]
                break
        me = new_side[label]
        new.glue[me] = partner
        new.glue[partner] = me

    for label in ("P", "Q", "R", "S"):
        reglue(label)
    new.glue[diag1] = diag2
    new.glue[diag2] = diag1
    new.check()

    # edge keys of the outer sides may change identity with the new slots
    renamed = {}
    for label in ("P", "Q", "R", "S"):
        renamed[old_keys[label]] = new.edge_key(*new_side[label])
    final = {}
    for key, val in sigma.items():
        if key == edge:
            continue
        final[renamed.get(key, key)] = changed.get(key, val)
    final[new.edge_key(*diag1)] = changed[edge]
    for e in new.edges():
        if e not in final:
            raise RuntimeError(f"missing shear for edge {e} after flip")
    return new, final


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


def shears_from_places(dev: DevelopedCusped) -> dict:
    """Recompute the shear of every edge from the developed placements."""
    out = {}
    for f in range(dev.cx.num_faces()):
        for s in range(3):
            key = dev.cx.edge_key(f, s)
            if key in out:
                continue
            x = dev.places[f][s]
            y = dev.places[f][(s + 1) % 3]
            z = dev.places[f][(s + 2) % 3]
            w = _develop_apex(x, y, z, dev.sigma[key])
            out[key] = _shear_of_quad(x, y, z, w)
    return out


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
# minimax flip search


def minimax_flip_search(cx: CuspedTriangulation, sigma: dict, budget: int,
                        seed: int):
    """Greedy descent on the maximum absolute shear with random kicks.

    Each step scores every flippable edge by the maximum absolute shear
    its flip would give, in closed form and without building the flipped
    complex.  The lowest (value, edge) is flipped if it improves on the
    current maximum by more than 1e-12; otherwise a seeded random kick
    flips a uniformly drawn flippable edge.  Only the chosen edge goes
    through flip (and its check), and every step, kick or descent, uses
    one unit of budget.  Returns the best triangulation, its shear
    vector, the best maximum and the flip trail.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    cur_max = max_abs_shear(sigma)
    best = (cx, dict(sigma), cur_max)
    cur_cx, cur_sigma = cx, sigma
    trail = []
    while len(trail) < budget:
        scored = [(_flip_score(cur_cx, cur_sigma, e), e)
                  for e in cur_cx.edges() if flippable(cur_cx, e)]
        if not scored:
            break
        improving = [c for c in scored if c[0] < cur_max - 1e-12]
        if improving:
            val, e = min(improving)
        else:
            # stuck at a local minimum: random kick
            val, e = scored[int(rng.integers(0, len(scored)))]
        cur_cx, cur_sigma = flip(cur_cx, cur_sigma, e)
        cur_max = val
        trail.append(e)
        if improving and val < best[2]:
            best = (cur_cx, cur_sigma, val)
    return best[0], best[1], best[2], trail
