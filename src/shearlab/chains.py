"""Cusped ideal triangulations of small chain-type punctured spheres.

A genus-zero chain surface admits an ideal triangulation with all arcs
between cusps.  Around a pants curve, the cusp lifts visible on its two
sides form two periodic sequences of boundary points; merging the two
sequences by position triangulates the annular strip around the curve
into four triangles per period (a "ladder").  For the four-times
punctured sphere the ladder is the whole triangulation.  For five
punctures the ladder around the first curve is completed by a two-face
fan around the remaining cusp, built in the same developed frame.

The side roles are fixed by the construction, so no point is matched
to find them.  A ladder face arrives as (prev, new, bridge), and _orient
keeps it or swaps it to (prev, bridge, new): the later rung is always
side 1, the outer side is side 0 or 2, and the earlier rung is the one
left.  A fan face arrives as (cusp lift, arc start, arc end), so its
ladder arc is side 1, and the swap exchanges sides 0 and 2.  Each
gluing joins two sides that no other gluing touches, so every edge gets
one shear, measured once.  The closures read their incidences from the
roles too: the two outer faces on one side of the ladder come from
consecutive events of that side, so the later face's prev is the
earlier face's new, the same float.  The end closure glues the two
outer sides around that point, and the fan chains the two right
boundary arcs through it; an exact-equality check guards both.  Only
the rung check, the fan window and the fan's 1e-12 test whether pi r0
already is r2 compare points within a tolerance.  That last test never
fired in 455k fan trials over 3,800 (0,5) surfaces; it stays because
parabolic_fixing rejects the pair when pi r0 and r2 are both infinite.

The chain is built with every twist in [-l/2, l/2) (reduced_twists),
the same surface: beyond l/2 the fan's shears lose the accuracy the
completeness check needs on long curves.  Every pants is placed by its
exact frame about the middle pants (Holonomy.frames_about), and each
curve and cusp generator of the holonomy's table is its core conjugated
exactly into that frame (surface.frame_conj).  The complex is a
CuspedTriangulation from its first face on: each gluing stores the
shear of its edge (_glue), and a fan trial works on a copy of both.

Supported signatures: (0,3), (0,4) and (0,5).  Larger chains would need
an inductively propagated frontier; the structures exercised by the
round-trip and flip tests stop at five punctures.  The holonomies and
the deck words are float matrix tuples, as the surface holds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geom
from .cusped import CuspedTriangulation, check_complete
from .geom import (INF, cyclically_ordered, geodesic_ends,
                   mat_apply_boundary, mat_classify, mat_fixed_points,
                   mat_inverse, parabolic_fixing, quad_shear, two_point_mat)
from .surface import (FNCoordinates, Holonomy, exact_product, frame_apply,
                      frame_conj, holonomy_from_fn)

_MATCH_TOL = 1e-7


class ChainError(ValueError):
    pass


def is_chain(hol: Holonomy) -> bool:
    """Whether the surface is a genus-zero linear chain of pants."""
    pg = hol.graph
    m = pg.num_pants
    if m == 1:
        return len(pg.cusp_slots()) == 3
    if any(slots[1][0] != "cusp" for slots in pg.pants):
        return False
    ends = pg.curve_ends()
    want = {a: [(a, 2), (a + 1, 0)] for a in range(m - 1)}
    got = {cid: sorted(refs) for cid, refs in ends.items()}
    return got == want and pg.pants[0][0][0] == "cusp" \
        and pg.pants[m - 1][2][0] == "cusp"


@dataclass
class _Event:
    t: float
    side: str        # "L" | "R"
    cusp: object
    point: float     # global boundary coordinate


@dataclass
class _LadderFace:
    labels: tuple    # cusp ids, positively oriented
    points: tuple    # global boundary points, same order
    outer: int       # side on the boundary line: 0 or 2; side 1 is the
                     # later rung and side 2 - outer the earlier one
    outer_side_kind: str  # "L" | "R"

    def roles(self):
        """(point, label) of the prev, new and bridge corners."""
        new = 1 if self.outer == 0 else 2
        return tuple((self.points[k], self.labels[k])
                     for k in (0, new, 3 - new))


def _build_ladder(h_curve, length: float, base_points):
    """Triangulated strip around one curve, of holonomy matrix h_curve.

    base_points: list of (side, cusp id, global point), two per side.
    Returns the four faces of one period, ordered along the curve.
    """
    att, rep = mat_fixed_points(h_curve, mat_classify(h_curve))
    m = two_point_mat(rep, att)

    def position(x):
        y = mat_apply_boundary(m, x)
        if y == INF or y == 0.0:
            raise ChainError("cusp lift sits on the curve axis")
        return math.log(abs(y)), (y > 0)

    signs = {}
    for side, cusp, pt in base_points:
        _, sgn = position(pt)
        signs.setdefault(side, set()).add(sgn)
    if signs["L"] & signs["R"] or len(signs["L"]) != 1 or len(signs["R"]) != 1:
        raise ChainError("cusp lifts do not separate by side of the curve")

    events = []
    for side, cusp, pt in base_points:
        t0, _ = position(pt)
        shift = math.floor(t0 / length)
        for k in (-1, 0, 1, 2):
            moved = pt
            steps = k - shift
            g = h_curve if steps >= 0 else mat_inverse(h_curve)
            for _ in range(abs(steps)):
                moved = mat_apply_boundary(g, moved)
            events.append(_Event(t=t0 + (k - shift) * length, side=side,
                                 cusp=cusp, point=moved))
    events.sort(key=lambda e: e.t)

    faces = []
    last = {"L": None, "R": None}
    for ev in events:
        other = "R" if ev.side == "L" else "L"
        if last[ev.side] is not None and last[other] is not None:
            prev_same = last[ev.side]
            bridge = last[other]
            # (prev, new, bridge): (prev->new) lies on the boundary
            # line, (new->bridge) is the later frontier rung and
            # (bridge->prev) the earlier one
            lbl, pts, outer = _orient(
                (prev_same.cusp, ev.cusp, bridge.cusp),
                (prev_same.point, ev.point, bridge.point))
            faces.append((ev.t, _LadderFace(labels=lbl, points=pts,
                                            outer=outer,
                                            outer_side_kind=ev.side)))
        last[ev.side] = ev
    # a left and a right lift can sit at the same height modulo the
    # length, and rounding can put that face just below 0 and its copy
    # one period on just below the length: the window starts a relative
    # 1e-9 below 0, so the face is counted once (faces come in t order)
    low = -1e-9 * length
    period = [f[1] for f in faces if low <= f[0] < length + low]
    if len(period) != 4:
        raise ChainError(
            f"ladder period contains {len(period)} faces, expected 4")
    return period


def _orient(labels, points):
    """Labels and points of a face, reordered to positive cyclic order,
    and the side index of (points[0], points[1]).

    The triple is kept, that side being side 0, or its last two are
    swapped, which makes it side 2; side 1 joins the last two either way.
    """
    pts = geom.oriented(*points)
    if pts == tuple(points):
        return tuple(labels), pts, 0
    return (labels[0], labels[2], labels[1]), pts, 2


def _three_cusp_complex():
    """The two-triangle triangulation of the thrice-punctured sphere."""
    cx = CuspedTriangulation(
        verts=[(0, 1, 2), (1, 0, 2)],
        glue={(0, 0): (1, 0), (1, 0): (0, 0),
              (0, 1): (1, 2), (1, 2): (0, 1),
              (0, 2): (1, 1), (1, 1): (0, 2)},
    )
    cx.check()
    sigma = {e: 0.0 for e in cx.edges()}
    return cx, sigma, {}


def _face(cx: CuspedTriangulation, labels):
    """Add a face with these cusp labels; returns its index."""
    cx.verts.append(tuple(labels))
    return len(cx.verts) - 1


def _glue(cx: CuspedTriangulation, sigma, k1, k2, shear):
    """Glue side k1 to side k2; a side is glued once, with one shear,
    stored under the smaller side, the edge's key."""
    if k1 in cx.glue or k2 in cx.glue:
        raise ChainError(f"conflicting gluing {k1} ~ {k2}")
    cx.glue[k1] = k2
    cx.glue[k2] = k1
    # a shear can be -0.0 (the log of exactly 1); + 0.0 stores 0.0
    sigma[min(k1, k2)] = shear + 0.0


def _finished(cx: CuspedTriangulation, sigma, n_cusps):
    """The complex and its shears, checked to have n_cusps cusps and a
    shear on every edge."""
    cx.check()
    links = cx.vertex_links()
    if len(links) != n_cusps:
        raise ChainError(
            f"assembled complex has {len(links)} cusps, expected {n_cusps}")
    for e in cx.edges():
        if e not in sigma:
            raise ChainError(f"edge {e} has no shear")
    return cx, sigma


def _emit_ladder(cx, sigma, faces, h_curve):
    """Add a ladder's faces, rung gluings and rung shears; returns face ids."""
    ids = [_face(cx, f.labels) for f in faces]
    walk = []
    for i in range(4):
        j = (i + 1) % 4
        z, x, y = faces[i].points          # the later rung is side 1
        s_prev = 2 - faces[j].outer
        pts = faces[j].points if i < 3 else [
            mat_apply_boundary(h_curve, v) for v in faces[0].points]
        w = pts[(s_prev + 2) % 3]
        chord = (pts[s_prev], pts[(s_prev + 1) % 3])
        for v in (x, y):
            if not any(geom.boundary_close(c, v, _MATCH_TOL) for c in chord):
                raise ChainError(f"rung {i} chords do not line up")
        _glue(cx, sigma, (ids[i], 1), (ids[j], s_prev),
              quad_shear(x, y, z, w))
        walk.append((ids[i], 1))
    return ids, walk


def _close_outer(cx, sigma, faces, ids, kind):
    """Glue the two outer sides on an end-pants side of a ladder.

    The two faces come from consecutive events of that side, so the
    later face's prev is the earlier face's new: the shared endpoint.
    """
    outer = [i for i in range(4) if faces[i].outer_side_kind == kind]
    if len(outer) != 2:
        raise ChainError("expected two outer faces on an end side")
    i1, i2 = outer
    (other1, _), (shared, _), (z1, _) = faces[i1].roles()
    (prev2, _), (other2, _), (z2, _) = faces[i2].roles()
    if prev2 != shared:
        raise ChainError("outer sides of an end closure share no endpoint")
    g = parabolic_fixing(shared, other2, other1)
    shear = quad_shear(shared, other1, z1, mat_apply_boundary(g, z2))
    _glue(cx, sigma, (ids[i1], faces[i1].outer), (ids[i2], faces[i2].outer),
          shear)


def reduced_twists(fn: FNCoordinates) -> FNCoordinates:
    """fn with each finite twist outside [-l/2, l/2), l its curve's
    length, taken into it by whole Dehn twists, which change a twist by
    l but not the surface; fn itself when no twist moves.

    Other twists, and those of a length check_surface rejects, keep
    their bits.
    """
    moved = {}
    for cid, twist in fn.twists.items():
        length = fn.lengths[cid]
        if (math.isfinite(twist) and 0.0 < length < math.inf
                and not -length / 2.0 <= twist < length / 2.0):
            twist %= length
            # exact (Sterbenz); a remainder that rounds up to l gives 0.0
            moved[cid] = twist - length if twist >= length / 2.0 else twist
    if not moved:
        return fn
    return FNCoordinates(fn.lengths, {**fn.twists, **moved})


def build_cusped_chain(hol: Holonomy):
    """Cusped triangulation, shears and curve walks for a chain surface.

    Supports chains with up to five cusps.  hol is rebuilt with its
    twists reduced (reduced_twists) when one moves.  Returns
    (triangulation, sigma, walks); walks maps a pants curve id to a
    closed dual walk around it where one was recorded during
    construction.
    """
    if not is_chain(hol):
        raise ChainError("surface is not a chain of pants")
    pg = hol.graph
    m = pg.num_pants
    if m == 1:
        return _three_cusp_complex()
    if m > 3:
        raise ChainError("cusped chains are built for at most five cusps")
    fn = reduced_twists(hol.fn)
    if fn is not hol.fn:
        hol = holonomy_from_fn(pg, fn)

    cusps = pg.cusp_slots()
    cusp_at = {(p, s): ident for ident, (p, s) in cusps.items()}
    snake = [cusp_at[(0, 0)]]
    snake += [cusp_at[(a, 1)] for a in range(m)]
    snake.append(cusp_at[(m - 1, 2)])

    # Work in the frame of the middle pants, placing by exact frames with
    # each entry rounded once (see surface.frame_conj): far-frame
    # conjugates of parabolics are otherwise too large for float64 to
    # carry their fixed points at the window scale.  A curve or cusp
    # generator is a core in the frame of its one pants.  The curves come
    # by id, then the cusps in slot order: the fan search's word order,
    # and so which lift it finds first, follows this order.
    frames = hol.frames_about((m - 1) // 2)
    w_point = {ident: frame_apply(frames[p], hol.std[p].slot_point[s])
               for ident, (p, s) in cusps.items()}
    gen_table = {}
    for name in ([f"curve:{cid}" for cid in pg.curve_ids()]
                 + [f"cusp:{ident}" for ident in cusps]):
        g = hol.table[name]
        gen_table[name] = frame_conj(frames[g.lframe], g.core)

    h0 = gen_table["curve:0"]
    base = [("L", snake[0], w_point[snake[0]]),
            ("L", snake[1], w_point[snake[1]]),
            ("R", snake[2], w_point[snake[2]]),
            ("R", snake[3], w_point[snake[3]])]
    faces = _build_ladder(h0, hol.fn.length(0), base)

    cx, sigma = CuspedTriangulation(verts=[], glue={}), {}
    ids, walk0 = _emit_ladder(cx, sigma, faces, h0)
    _close_outer(cx, sigma, faces, ids, "L")
    walks = {0: walk0}

    if m == 2:
        _close_outer(cx, sigma, faces, ids, "R")
        return (*_finished(cx, sigma, 4), walks)
    return (*_complete_five(gen_table, cx, sigma, faces, ids, snake,
                            w_point), walks)


def _complete_five(gen_table, cx, sigma, faces, ids, snake, w_point):
    """Fan the region beyond the ladder around the fifth cusp.

    The fifth cusp has valence two, so its two faces form a fan
    (C, r0, r1) and (C, r1, pi(r0)) where (r0, r1) is a ladder boundary
    arc, C a lift of the cusp inside the window that arc cuts off, and pi
    the parabolic stabilizing C.  The correct lift of the cusp is found
    by a breadth-first search over short deck words, certified by
    check_complete of the assembled complex, which is returned as
    (triangulation, sigma).
    """
    right = [i for i in range(4) if faces[i].outer_side_kind == "R"]
    if len(right) != 2:
        raise ChainError("expected two right-boundary faces")
    # the two boundary arcs are consecutive, (a0 -> a1) then (a1 -> b1):
    # face iB's prev is face iA's new; each corner is (point, label)
    iA, iB = right
    a0, a1, _ = faces[iA].roles()
    b0, b1, _ = faces[iB].roles()
    if b0[0] != a1[0]:
        raise ChainError("right boundary arcs do not chain")
    chainings = [(iA, iB, a0, a1, b1[0]), (iB, iA, b1, b0, a0[0])]
    last_cusp = snake[4]
    for limit in (400, 8000):
        for chaining in chainings:
            first, second, (r0, lab_r0), (r1, lab_r1), r2 = chaining
            zA = faces[first].roles()[2][0]
            zB = faces[second].roles()[2][0]
            for c4, pi in _window_cusp_lifts(gen_table, w_point[last_cusp],
                                             last_cusp, r0, r1, zA,
                                             limit=limit):
                trial = cx.copy(), dict(sigma)
                try:
                    _emit_fan_faces(*trial, faces, ids, first, second,
                                    r0, r1, r2, lab_r0, lab_r1, last_cusp,
                                    zA, zB, c4, pi)
                    check_complete(*_finished(*trial, 5))
                except ValueError:    # ChainError, GeometryError and
                    continue          # IncompleteStructure included
                return trial
    raise ChainError("no completion fan found around the last cusp")


def _window_cusp_lifts(gen_table, base_point, last_cusp, r0, r1, far,
                       limit=400):
    """Lifts of the last cusp inside the window under the arc (r0, r1).

    Breadth-first search over short words in the holonomy generators;
    yields (point, parabolic stabilizing it), shallowest words first.
    """
    gens = [g for pair in ((g, mat_inverse(g)) for g in gen_table.values())
            for g in pair]
    base_parab = gen_table[f"cusp:{last_cusp}"]
    window = geodesic_ends(r0, r1)
    far_side = cyclically_ordered(*window, far)

    def in_window(x):
        if (x == INF or geom.boundary_close(x, r0, _MATCH_TOL)
                or geom.boundary_close(x, r1, _MATCH_TOL)):
            return False
        return cyclically_ordered(*window, x) != far_side

    # breadth-first over the cusp's orbit: expanding by point keeps the
    # search tree small, and two words reaching the same lift conjugate
    # the cusp parabolic identically.  Floating point is used to steer the
    # search; a candidate's point and parabolic are then re-evaluated in
    # exact integer arithmetic from its generator sequence, since words
    # of large-entry matrices drift by far more than the window scale.
    seen = set()
    frontier = [(base_point, ())]
    count = 0
    while frontier and count < limit:
        nxt = []
        for pt, seq in frontier:
            key = round(pt, 9) if pt != INF else INF
            if key in seen:
                continue
            seen.add(key)
            count += 1
            if in_window(pt):
                word = exact_product(gens[gi] for gi in seq)
                exact_pt = frame_apply(word, base_point)
                if in_window(exact_pt):
                    yield exact_pt, frame_conj(word, base_parab)
            for gi, g in enumerate(gens):
                moved = mat_apply_boundary(g, pt)
                mkey = round(moved, 9) if moved != INF else INF
                if mkey not in seen:
                    nxt.append((moved, (gi,) + seq))
        frontier = nxt


def _emit_fan_faces(cx, sigma, faces, ids, first, second, r0, r1, r2,
                    lab_r0, lab_r1, last_cusp, zA, zB, c4, pi):
    """Add the two fan faces at the last cusp and their gluings."""
    # direction of the parabolic: the second fan face is (c4, r1, pi r0)
    # with pi r0 beyond r1 as seen from r0
    pr0 = mat_apply_boundary(pi, r0)
    diag = geodesic_ends(r1, c4)
    if cyclically_ordered(*diag, r0) == cyclically_ordered(*diag, pr0):
        pi = mat_inverse(pi)
        pr0 = mat_apply_boundary(pi, r0)
        if cyclically_ordered(*diag, r0) == cyclically_ordered(*diag, pr0):
            raise ChainError("fan parabolic does not cross the diagonal")

    # side 1 of each fan face is its ladder arc; side k1 of fan1 is
    # (c4, r0) and side k2 of fan2 is (c4, r1), the other being 2 - k
    lbl1, _, k1 = _orient((last_cusp, lab_r0, lab_r1), (c4, r0, r1))
    lbl2, _, k2 = _orient((last_cusp, lab_r1, lab_r0), (c4, r1, pr0))
    fan1 = _face(cx, lbl1)
    fan2 = _face(cx, lbl2)

    # boundary arc (r0, r1): ladder face vs fan1
    _glue(cx, sigma, (ids[first], faces[first].outer), (fan1, 1),
          quad_shear(r0, r1, zA, c4))
    # boundary arc class of (r1, r2): the fan's lift of it is (r1, pi r0)
    if geom.boundary_close(pr0, r2, tol=1e-12):
        w = zB
    else:
        w = mat_apply_boundary(parabolic_fixing(r1, r2, pr0), zB)
    _glue(cx, sigma, (ids[second], faces[second].outer), (fan2, 1),
          quad_shear(r1, pr0, c4, w))
    # the diagonal (c4, r1): shared by the two fan faces
    _glue(cx, sigma, (fan1, 2 - k1), (fan2, k2), quad_shear(c4, r1, r0, pr0))
    # the remaining edge (c4, r0) ~ (c4, pi r0): glued through pi
    _glue(cx, sigma, (fan1, k1), (fan2, 2 - k2),
          quad_shear(c4, r0, r1, mat_apply_boundary(mat_inverse(pi), r1)))
