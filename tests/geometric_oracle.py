"""The geometric seam-arc code that the closed forms replaced.

decomposition.pants_batch reads the raw and truncated seam-arc lengths
(Batch.arcs) from the boundary-length triple alone; the kernel's spiral corners take
fixed points of the slot holonomies without a probe test, and its
relation residuals group the arc-ends one slot at a time, since every
glued slot lies on the left of its curve in its own frame.  This module
keeps the geometric versions these replaced, measured in the developed
pants itself, as the oracle the tests check those rules and formulas
against: the side of the slot's probe point, the distance between seam
feet, and the seam minus its intersections with the standard cusp
horoballs and thin collars.

It also keeps, as the oracle of slot_normalizer, the gluing data built
from the feet of all three seams: the seam feet and the marker and probe
of each glued slot (seam_feet, slot_marker_probe, build_time_normalizer,
with the probe's helpers _nearest_endpoint, _direction_toward and
_point_along).  slot_normalizer builds only the marker, and reads from
the slot index the orientation that the probe's side test picks.  And
it keeps the eager form of spiralling.margin_rows (eager_margin_rows),
which computes both shear points of every edge whether or not a corner
carries a row.

It keeps the construction and the develop of a pants on geometry
objects, as the bit-exact oracle of the float build_pants and
spiralling.pants_kernel: reference_build_pants builds the seams,
reflections, holonomies and slot axes as Geodesic, Reflection and
Mobius values, and stores their matrix tuples and endpoint pairs in the
StdPants as build_pants does; Corner, DevelopedEdge and develop_pants
develop the three seam arcs with IdealTriangle values; edge_shear and
margin_rows read each arc's shear and shear-point margins; and
reference_kernel puts them together as the kernel did.  The tests
require the same result bits or the same exception type and message
from both.

Last, it keeps the boundary primitives and value types of geom as they
were written with frozen dataclasses, a generator per normalisation and
boundary_close(..., tol=0.0) per pair of points: reference_cross_ratio,
reference_cyclically_ordered, ReferenceGeodesic and
ReferenceIdealTriangle.  geom now normalises each input once, compares
the points with ==, and uses slotted dataclasses; the tests require the
same result bits or the same exception from both.

It also holds the code that only the tests reach, moved out of the
library: the isometries as objects with their methods (Mobius and
two_point_map; the library computes on matrix tuples and keeps Isometry
as a public value only), the reflections and the object geometry built
on them (Reflection, compose_reflections, geodesic_reflection,
side_of_point, common_perpendicular, dist_between_geodesics, shear_point_on,
parabolic_shift, horocycle_length_through), curve_regime, the cusped
develop point by point (_mobius_to and _develop_apex place each apex
from its edge's two points and the shear, and place_faces places every
face so, as the independent oracle of the frame develop of
cusped.develop_from_shears), shears_from_places (the cusped develop
read back through _develop_apex), and the shortness
certificate as scalar closed forms and named rows: truncated_length,
arc_lengths and arcs_short (with _collar) compute one pants at a time
the floats that decomposition's Batch.arcs and arcs_short compute over
arrays, which must give their bits; and ShortnessRow, curve_rows and
arc_rows name each bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from shearlab import cusped, geom
from shearlab.constants import (INTERMEDIATE_CURVE_MAX, SHORT_CURVE_MAX,
                                ShearFreeParams, collar_width,
                                truncated_collar_width)
from shearlab.geom import (INF, Geodesic, GeometryError, IdealTriangle,
                           _unit_det, boundary_close, geodesic_intersection,
                           mat_apply, mat_apply_boundary, mat_inverse,
                           mat_mul, normalize_boundary, two_point_mat)
from shearlab.pants import (_CONSTRUCTION_TOL, StdPants, _seam_ends,
                            _shared_endpoint, _solve_third_seam,
                            seam_lengths)
from shearlab.spiralling import _FIX_TOL, AuditError, DevelopError


# ---------------------------------------------------------------------------
# geometry on objects that only the oracle uses


@dataclass(slots=True)
class Mobius:
    """Orientation-preserving isometry z -> (a z + b)/(c z + d), det 1, as
    an object: each method calls the tuple form in geom."""

    a: float
    b: float
    c: float
    d: float

    @classmethod
    def from_matrix(cls, a, b, c, d):
        return cls(*_unit_det(a, b, c, d))

    def matrix(self):
        return (self.a, self.b, self.c, self.d)

    def inverse(self):
        return Mobius(*mat_inverse(self.matrix()))

    def __matmul__(self, other):
        return Mobius(*mat_mul(self.matrix(), other.matrix()))

    def apply_boundary(self, x):
        return mat_apply_boundary(self.matrix(), x)

    def __call__(self, z: complex) -> complex:
        return mat_apply(self.matrix(), z)


def two_point_map(p, q) -> Mobius:
    """Orientation-preserving map sending p -> 0 and q -> inf."""
    return Mobius(*two_point_mat(p, q))


@dataclass(slots=True)
class Reflection:
    """Orientation-reversing isometry z -> (a conj(z) + b)/(c conj(z) + d),
    det -1."""

    a: float
    b: float
    c: float
    d: float

    def apply(self, z: complex) -> complex:
        w = z.conjugate()
        return (self.a * w + self.b) / (self.c * w + self.d)

    def apply_boundary(self, x):
        return mat_apply_boundary((self.a, self.b, self.c, self.d), x)

    def conjugate_isometry(self, f: Mobius) -> Mobius:
        """Return R f R (again orientation preserving)."""
        m = mat_mul(mat_mul((self.a, self.b, self.c, self.d),
                            f.matrix()),
                    (self.a, self.b, self.c, self.d))
        return Mobius(*m)


def compose_reflections(r1: Reflection, r2: Reflection) -> Mobius:
    """The product of two reflections is orientation preserving."""
    m = mat_mul((r1.a, r1.b, r1.c, r1.d), (r2.a, r2.b, r2.c, r2.d))
    return Mobius(*m)


def geodesic_reflection(g: Geodesic) -> Reflection:
    return Reflection(*geom.reflection_mat(g.p, g.q))


def side_of_point(g: Geodesic, z: complex) -> str:
    """Which side of the oriented geodesic an interior point lies on."""
    m = two_point_map(g.p, g.q)
    w = m(z)
    # travelling upward along the imaginary axis, the left side is Re < 0
    return "left" if w.real < 0 else "right"


def common_perpendicular(g1: Geodesic, g2: Geodesic) -> Geodesic:
    """Common perpendicular of two disjoint geodesics."""
    return Geodesic(*geom.common_perpendicular_ends(g1.p, g1.q, g2.p, g2.q))


def dist_between_geodesics(g1: Geodesic, g2: Geodesic) -> float:
    return geom.ends_distance(g1.p, g1.q, g2.p, g2.q)


def shear_point_on(t: IdealTriangle, edge: Geodesic) -> complex:
    """Tangency point of the incircle on the side of t along the edge.

    The side is taken with the orientation ``t.sides()`` gives it, so the
    point equals the matching entry of ``geom.shear_points(t)`` to the
    bit.
    """
    center = geom.incircle_center(t.v1, t.v2, t.v3)
    ends = {edge.p, edge.q}
    for a, b in ((t.v1, t.v2), (t.v2, t.v3), (t.v3, t.v1)):
        if {a, b} == ends:
            return geom.perpendicular_foot(center, a, b)
    raise GeometryError("edge is not a side of the triangle")


def parabolic_shift(parabolic: Mobius, fix):
    """Conjugate a parabolic so that its fixed point fix goes to infinity.

    Returns (m, shift): m sends fix to infinity, and m parabolic m^-1 is
    z -> z +- shift.  For (a, b; 0, d) with ad = 1 the action is
    z -> (a/d) z + b/d with a/d = 1, so shift = |a b|.
    """
    m, shift = geom.parabolic_shift_mat(parabolic.matrix(), fix)
    return Mobius(*m), shift


def horocycle_length_through(parabolic: Mobius, z: complex) -> float:
    """Length, in the cusp cylinder of a parabolic, of the horocycle
    through z.

    A hyperbolic input is rejected by name (geom.horocycle_frame).
    """
    return geom.horocycle_length(geom.horocycle_frame(parabolic.matrix()),
                                 z)


# ---------------------------------------------------------------------------
# the pants construction on geometry objects


def reference_build_pants(l1: float, l2: float, l3: float) -> StdPants:
    """build_pants with Geodesic, Reflection and Mobius values throughout.

    The StdPants holds their endpoint pairs and matrix tuples, as
    build_pants gives them.
    """
    lengths = (float(l1), float(l2), float(l3))
    alphas = [l / 2.0 for l in lengths]
    ts = [math.tanh(a / 2.0) ** 2 for a in alphas]
    if 1.0 in ts:
        raise GeometryError(
            f"pants construction failed: boundary lengths {lengths} are too "
            f"long for float64 (tanh^2(l/4) rounds to 1)")

    g3 = Geodesic(0.0, INF)
    p = ts[0]
    g2 = Geodesic(p, 1.0)
    u, v = _solve_third_seam(p, ts[1], ts[2])
    g1 = Geodesic(u, v)
    seams = (g1, g2, g3)

    for (ga, gb, alpha) in ((g2, g3, alphas[0]), (g1, g3, alphas[1]),
                            (g1, g2, alphas[2])):
        d = dist_between_geodesics(ga, gb)
        if abs(d - alpha) > _CONSTRUCTION_TOL * max(1.0, alpha):
            raise GeometryError(
                f"pants construction inconsistent: seam distance {d} != {alpha}")

    refl = tuple(geodesic_reflection(g) for g in seams)
    slot_hol = (
        compose_reflections(refl[1], refl[2]),
        compose_reflections(refl[2], refl[0]),
        compose_reflections(refl[0], refl[1]),
    )

    slot_is_cusp = tuple(a == 0.0 for a in alphas)
    slot_axis = []
    slot_point = []
    for i in range(3):
        adj = [seams[m] for m in range(3) if m != i]
        if slot_is_cusp[i]:
            shared = _shared_endpoint((adj[0].p, adj[0].q),
                                      (adj[1].p, adj[1].q))
            slot_axis.append(None)
            slot_point.append(shared)
        else:
            slot_axis.append(common_perpendicular(adj[0], adj[1]))
            slot_point.append(None)

    _reference_check_pants(lengths, slot_is_cusp, slot_hol)
    return StdPants(
        lengths=lengths,
        seams=tuple((g.p, g.q) for g in seams),
        slot_is_cusp=slot_is_cusp,
        slot_axis=tuple(None if g is None else (g.p, g.q)
                        for g in slot_axis),
        slot_point=tuple(slot_point),
        slot_hol=tuple(h.matrix() for h in slot_hol),
        seam_refl=tuple((r.a, r.b, r.c, r.d) for r in refl),
    )


def _reference_check_pants(lengths, slot_is_cusp, slot_hol):
    for i in range(3):
        x = slot_hol[i]
        kind = geom.classify(x)
        if slot_is_cusp[i]:
            if kind != "parabolic":
                raise GeometryError(f"cusp slot {i} holonomy is {kind}")
        else:
            if kind != "hyperbolic":
                raise GeometryError(f"slot {i} holonomy is {kind}")
            got = geom.translation_length(x)
            want = lengths[i]
            if abs(got - want) > 1e-8 * max(1.0, want):
                raise GeometryError(
                    f"slot {i} length {got} differs from requested {want}")
    prod = slot_hol[0] @ slot_hol[1] @ slot_hol[2]
    if geom.classify(prod) != "identity":
        raise GeometryError("pants relation X1 X2 X3 = 1 violated")


# ---------------------------------------------------------------------------
# the develop on geometry objects


@dataclass(slots=True)
class Corner:
    """One ideal vertex of a developed triangle, with its thin-part data."""

    point: float              # boundary point
    kind: str                 # "cusp" | "curve"
    length: float = None
    axis: Geodesic = None     # lift of the curve (curve corners)
    stabilizer: Mobius = None  # parabolic (cusp) or hyperbolic (curve)


@dataclass
class DevelopedEdge:
    seam: int                 # k: the arc along seam k of its pants
    edge: Geodesic            # oriented from the lower to the higher slot end
    end_corners: tuple        # corners at the two edge endpoints
    apex_front: Corner
    apex_back: Corner
    front: IdealTriangle      # the triangle on the edge with apex_front
    back: IdealTriangle       # the triangle on the edge with apex_back

    def quadrilateral(self):
        return (self.edge.p, self.apex_front.point, self.edge.q,
                self.apex_back.point)


def _front_corner(sp: StdPants, s: int) -> Corner:
    """The spiral limit point at slot s of the front hexagon.

    A spiralling arc converges to the endpoint of the boundary axis for
    which its pants lies on the left of the axis oriented toward it.
    Standard position puts every pants on the left of its boundary
    oriented from the repelling to the attracting fixed point of the
    slot holonomy, so the limit is the attracting fixed point.
    """
    hol = Mobius(*sp.slot_hol[s])
    if sp.slot_is_cusp[s]:
        return Corner(point=sp.slot_point[s], kind="cusp", stabilizer=hol)
    att, rep = geom.fixed_points(hol)
    return Corner(point=att, kind="curve", length=sp.lengths[s],
                  axis=Geodesic(att, rep), stabilizer=hol)


def _back_apex(sp: StdPants, k: int) -> Corner:
    """The opposite-slot corner of the hexagon mirrored across seam k.

    The reflection reverses orientation: the mirrored pants lies on the
    right of the reflected holonomy's axis oriented toward its
    attracting fixed point, so the limit is the repelling one.
    """
    refl = geodesic_reflection(Geodesic(*sp.seams[k]))
    stab = refl.conjugate_isometry(Mobius(*sp.slot_hol[k]))
    if sp.slot_is_cusp[k]:
        return Corner(point=refl.apply_boundary(sp.slot_point[k]),
                      kind="cusp", stabilizer=stab)
    kind = geom.classify(stab)
    if kind != "hyperbolic":
        raise DevelopError(k, f"slot {k} holonomy mirrored across the seam "
                           f"is {kind}")
    att, rep = geom.fixed_points(stab)
    return Corner(point=rep, kind="curve", length=sp.lengths[k],
                  axis=Geodesic(att, rep), stabilizer=stab)


def _check_corner(corner: Corner, k: int):
    img = corner.stabilizer.apply_boundary(corner.point)
    if corner.point == geom.INF or img == geom.INF:
        ok = img == corner.point
    else:
        ok = abs(img - corner.point) <= _FIX_TOL * max(1.0, abs(corner.point))
    if not ok:
        raise DevelopError(
            k, "developed endpoint is not fixed by its holonomy")


def develop_pants(sp: StdPants) -> list:
    """The ideal quadrilaterals of the three seam arcs, in the pants' frame.

    The six spiral corners are built once: the front corner at each slot
    and, for each seam k, the back apex mirrored across it.  Edge k
    joins the front corners at the end slots of seam k; its apexes are
    the front corner at slot k and the back apex of seam k.  Every edge
    uses all three front corners, so they are checked as part of the
    first edge.
    """
    front = [_front_corner(sp, s) for s in range(3)]
    for c in front:
        _check_corner(c, 0)
    edges = []
    for k in range(3):
        i, j = _seam_ends(k)
        c1, c2, apex1 = front[i], front[j], front[k]
        apex2 = _back_apex(sp, k)
        _check_corner(apex2, k)
        pts = [c.point for c in (c1, c2, apex1, apex2)]
        if len({geom.normalize_boundary(x) for x in pts}) != 4:
            raise DevelopError(k, "degenerate quadrilateral")
        e = Geodesic(c1.point, c2.point)
        if geom.side_of(e, apex1.point) == geom.side_of(e, apex2.point):
            raise DevelopError(k, "triangle apexes on the same side")
        edges.append(DevelopedEdge(
            seam=k, edge=e, end_corners=(c1, c2),
            apex_front=apex1, apex_back=apex2,
            front=IdealTriangle(*geom.oriented(e.p, e.q, apex1.point)),
            back=IdealTriangle(*geom.oriented(e.p, e.q, apex2.point))))
    return edges


def edge_shear(de: DevelopedEdge) -> float:
    """Shear across one developed edge.

    The signed distance along the oriented edge from the tangency point
    of the triangle on its right to the one on its left.  This is the
    sign convention for which the arc-ends spiralling on one side of a
    closed curve sum to +length (and cusp sums vanish); the calibration
    was pinned against those relations.
    """
    if geom.side_of(de.edge, de.apex_front.point) == "left":
        left, right = de.apex_front, de.apex_back
    else:
        left, right = de.apex_back, de.apex_front
    return -geom.apex_shear(de.edge.p, de.edge.q, right.point, left.point)


def margin_rows(de: DevelopedEdge, params: ShearFreeParams) -> list:
    """Margins of one edge's two shear points against its thin corners.

    The shear point of each adjacent triangle on the edge is tested
    against the four thin objects visible in the quadrilateral: cusp
    corners must see a horocycle longer than delta2 through the point,
    and corners on curves short enough to carry a truncated collar must
    be farther from the curve than the truncated width.  Returns
    (corner kind, margin) pairs; a margin that is not positive (NaN
    included) raises AuditError.
    The shear points are computed only when some corner carries a row.
    """
    short_max = 2.0 * math.tanh(params.rho)
    thin = [corner for corner in (*de.end_corners, de.apex_front,
                                  de.apex_back)
            if corner.kind == "cusp" or corner.length <= short_max]
    if not thin:
        return []
    pts = (shear_point_on(de.front, de.edge),
           shear_point_on(de.back, de.edge))
    rows = []
    for corner in thin:
        for s in pts:
            if corner.kind == "cusp":
                horo = horocycle_length_through(corner.stabilizer, s)
                margin = horo - params.delta2
            else:
                d = geom.dist_to_geodesic(s, corner.axis)
                w_t = truncated_collar_width(corner.length, params)
                margin = d - w_t
            rows.append((corner.kind, margin))
            if not margin > 0.0:
                if corner.kind == "cusp":
                    detail = f"horocycle length {horo:.6g} vs delta2"
                else:
                    detail = (f"distance {d:.6g} vs truncated width "
                              f"{w_t:.6g} (curve length {corner.length:.6g})")
                raise AuditError(de.seam, "shear point inside a "
                                 f"shear-point-free part: {detail}")
    return rows


def reference_kernel(sp: StdPants, params: ShearFreeParams):
    """pants_kernel on the develop above: (shears, residuals, margins,
    quadrilaterals)."""
    edges = develop_pants(sp)
    shears = [edge_shear(de) for de in edges]
    residuals = []
    for s in range(3):
        i, j = _seam_ends(s)
        residuals.append(abs(shears[i] + shears[j] - sp.lengths[s]))
    margins = [margin for de in edges
               for _, margin in margin_rows(de, params)]
    return (shears, residuals, margins,
            [de.quadrilateral() for de in edges])


def _nearest_endpoint(seam, point):
    """The endpoint of the seam equal to the given ideal point."""
    for x in seam:
        if x == point or (x != INF and point != INF and
                          abs(x - point) <= 1e-9 * max(1.0, abs(x))):
            return x
    raise GeometryError("seam does not end at the expected ideal point")


def _direction_toward(seam, start: complex, target) -> float:
    """Endpoint of the seam one moves toward when going from start to target.

    The target is either an interior point of the seam or one of its ideal
    endpoints (a cusp foot).
    """
    if not isinstance(target, complex):
        return _nearest_endpoint(seam, target)
    p, q = seam
    m = two_point_mat(p, q)
    return q if mat_apply(m, target).imag > mat_apply(m, start).imag else p


def _point_along(g, start: complex, toward, distance: float) -> complex:
    """Point on g at the given distance from start, moving toward an endpoint."""
    p, q = g
    m = two_point_mat(p, q) if toward == q else two_point_mat(q, p)
    w = mat_apply(m, start)
    return mat_apply(mat_inverse(m), complex(0.0, w.imag * math.exp(distance)))


def seam_feet(sp: StdPants, k: int) -> tuple:
    """Both ends of seam k, as (slot, foot) for its end slots in order.

    The foot is the seam's crossing with the slot axis, or at a cusp
    slot the seam's endpoint at the cusp.
    """
    seam = sp.seams[k]
    ends = []
    for s in _seam_ends(k):
        if sp.slot_is_cusp[s]:
            ends.append((s, _nearest_endpoint(seam, sp.slot_point[s])))
        else:
            ends.append((s, geodesic_intersection(seam, sp.slot_axis[s])))
    return tuple(ends)


def slot_marker_probe(sp: StdPants, i: int) -> tuple:
    """Gluing marker and probe of the glued slot i, from the seam feet.

    The marker is the foot of the seam joining slot i to slot i+1, which
    is the seam indexed by the remaining slot (i+2 mod 3).  The probe
    sits on that seam a little inside the hexagon, toward the other foot.
    """
    k = (i + 2) % 3
    seam = sp.seams[k]
    marker = geodesic_intersection(sp.slot_axis[i], seam)
    other_foot = dict(seam_feet(sp, k))[(i + 1) % 3]
    toward = _direction_toward(seam, marker, other_foot)
    return marker, _point_along(seam, marker, toward, 1e-3)


def build_time_normalizer(sp: StdPants, slot: int) -> Mobius:
    """slot_normalizer, with the marker and probe of slot_marker_probe."""
    if sp.slot_is_cusp[slot]:
        raise GeometryError("cusp slots cannot be glued")
    p, q = sp.slot_axis[slot]
    marker, probe = slot_marker_probe(sp, slot)
    for (x, y) in ((p, q), (q, p)):
        m = two_point_map(x, y)
        if m(probe).real > 0:
            y0 = m(marker).imag
            s = math.sqrt(y0)
            scale = Mobius.from_matrix(1.0 / s, 0.0, 0.0, s)
            return scale @ m
    raise GeometryError("could not orient slot axis with body on the right")


def _slot_side(sp: StdPants, s: int) -> str:
    """Side of the boundary curve at slot s that the pants lies on.

    The curve is oriented from the repelling to the attracting fixed
    point of its holonomy in the pants' own frame.
    """
    att, rep = geom.fixed_points(Mobius(*sp.slot_hol[s]))
    return side_of_point(Geodesic(rep, att), slot_marker_probe(sp, s)[1])


def spiral_endpoint(axis_p, axis_q, probe: complex):
    """Ideal endpoint a spiralling arc converges to at this boundary corner.

    The arc spirals toward the endpoint for which the corner's body lies
    on the left of the axis oriented toward that endpoint.
    """
    if side_of_point(Geodesic(axis_p, axis_q), probe) == "left":
        return axis_q
    return axis_p


def arc_length(sp: StdPants, k: int) -> float:
    """Length of seam arc k between its feet; math.inf at a cusp end."""
    (i, foot_i), (j, foot_j) = seam_feet(sp, k)
    if sp.slot_is_cusp[i] or sp.slot_is_cusp[j]:
        return math.inf
    return geom.dist(foot_i, foot_j)


# ---------------------------------------------------------------------------
# truncation of arcs at thin parts


# length of the horocycle bounding a standard cusp neighborhood
CUSP_HOROCYCLE_LENGTH = 2.0


def _cusp_height(sp: StdPants, slot: int):
    """Standard horoball at the slot's cusp.

    Returned as (normalizer to the point at infinity, height): the ball is
    y >= height in the normalized frame, bounded by a horocycle of length
    CUSP_HOROCYCLE_LENGTH.
    """
    m, shift = parabolic_shift(Mobius(*sp.slot_hol[slot]),
                               sp.slot_point[slot])
    return m, shift / CUSP_HOROCYCLE_LENGTH


def _seam_coordinate(seam: Geodesic):
    """Arclength coordinate along the seam: t(z) = log Im(M z)."""
    m = two_point_map(seam.p, seam.q)

    def coord(z: complex) -> float:
        return math.log(m(z).imag)

    return m, coord


def _horoball_interval(seam: Geodesic, coord, m_cusp: Mobius, height: float):
    """t-interval where the seam runs inside the horoball, or None."""
    a = m_cusp.apply_boundary(seam.p)
    b = m_cusp.apply_boundary(seam.q)
    if a == INF or b == INF:
        # the seam ends in this cusp: vertical line x = const in cusp frame.
        # The seam coordinate runs to -inf at seam.p and +inf at seam.q.
        x0 = b if a == INF else a
        entry = m_cusp.inverse()(complex(x0, height))
        t0 = coord(entry)
        return (-math.inf, t0) if a == INF else (t0, math.inf)
    r = abs(b - a) / 2.0
    if r <= height:
        return None
    c0 = (a + b) / 2.0
    spread = math.acosh(r / height)
    inv = m_cusp.inverse()
    top = coord(inv(complex(c0, r)))
    return (top - spread, top + spread)


def _collar_interval(seam: Geodesic, coord, axis: Geodesic, width: float):
    """t-interval where the seam runs inside the collar, or None."""
    try:
        cross = geom.geodesic_intersection((seam.p, seam.q), (axis.p, axis.q))
    except geom.GeometryError:
        cross = None
    if cross is not None:
        # perpendicular crossing: distance grows as |t - t_cross|
        t0 = coord(cross)
        return (t0 - width, t0 + width)
    d_min = dist_between_geodesics(seam, axis)
    if d_min >= width or d_min == 0.0:
        return None
    perp = common_perpendicular(seam, axis)
    foot = geom.geodesic_intersection((seam.p, seam.q), (perp.p, perp.q))
    t0 = coord(foot)
    spread = math.acosh(math.sinh(width) / math.sinh(d_min))
    return (t0 - spread, t0 + spread)


@dataclass
class Truncation:
    seam: int
    full_length: float
    truncated_length: float
    removed: list            # (slot, lo, hi) intervals in seam coordinates
    overlap_diagnostic: bool
    clamped: bool


def truncate_arc(sp: StdPants, k: int) -> Truncation:
    """Length of seam arc k outside cusp neighborhoods and thin collars.

    Removes, along the seam in the pants' own frame, the standard cusp
    neighborhoods (boundary length 2) and the collars of width w(l)
    around boundary curves of length at most 2 arcsinh(1).  All three
    slots of the pants are scanned, so a thin third boundary crossing the
    arc's interior is removed as well.  Disjointness of the removed
    regions is checked and reported; negative leftovers are clamped to
    zero with a diagnostic.
    """
    seam = Geodesic(*sp.seams[k])
    m, coord = _seam_coordinate(seam)
    i, j = _seam_ends(k)

    # the arc segment in seam coordinates
    bounds = []
    feet = dict(seam_feet(sp, k))
    for s in (i, j):
        if sp.slot_is_cusp[s]:
            # seam escapes to the cusp: the segment is infinite on this side
            bounds.append(math.inf if m.apply_boundary(feet[s]) == INF
                          else -math.inf)
        else:
            bounds.append(coord(feet[s]))
    lo, hi = sorted(bounds)

    removed = []
    for s in range(3):
        if sp.slot_is_cusp[s]:
            m_cusp, height = _cusp_height(sp, s)
            interval = _horoball_interval(seam, coord, m_cusp, height)
        else:
            length = sp.lengths[s]
            if length > INTERMEDIATE_CURVE_MAX:
                continue
            interval = _collar_interval(seam, coord,
                                        Geodesic(*sp.slot_axis[s]),
                                        collar_width(length))
        if interval is None:
            continue
        a, b = max(interval[0], lo), min(interval[1], hi)
        if a < b:
            removed.append((s, a, b))

    removed.sort(key=lambda r: r[1])
    overlap = any(r1[2] > r2[1] + 1e-12 for r1, r2 in zip(removed, removed[1:]))
    # measure the complement of the removed set within [lo, hi]; the cusp
    # horoballs cover the infinite ends, so the leftover is finite
    left = 0.0
    clamped = False
    cursor = lo
    for _, a, b in removed:
        if a > cursor:
            left += a - cursor
        cursor = max(cursor, b)
    if hi > cursor:
        left += hi - cursor
    if not math.isfinite(left):
        raise geom.GeometryError(
            f"truncation of seam {k} in the pants with boundary lengths "
            f"{sp.lengths} left an unbounded segment")
    if left < 0.0:
        left = 0.0
        clamped = True
    return Truncation(seam=k, full_length=hi - lo,
                      truncated_length=left, removed=removed,
                      overlap_diagnostic=overlap, clamped=clamped)


# ---------------------------------------------------------------------------
# the shear-point audit, computing both shear points of every edge


def eager_margin_rows(de, params) -> list:
    """spiralling.margin_rows with both shear points always computed."""
    short_max = 2.0 * math.tanh(params.rho)
    pts = (shear_point_on(de.front, de.edge),
           shear_point_on(de.back, de.edge))
    rows = []
    for corner in (*de.end_corners, de.apex_front, de.apex_back):
        for s in pts:
            if corner.kind == "cusp":
                horo = horocycle_length_through(corner.stabilizer, s)
                margin = horo - params.delta2
            elif corner.length <= short_max:
                d = geom.dist_to_geodesic(s, corner.axis)
                w_t = truncated_collar_width(corner.length, params)
                margin = d - w_t
            else:
                continue
            rows.append((corner.kind, margin))
            if not margin > 0.0:
                if corner.kind == "cusp":
                    detail = f"horocycle length {horo:.6g} vs delta2"
                else:
                    detail = (f"distance {d:.6g} vs truncated width "
                              f"{w_t:.6g} (curve length {corner.length:.6g})")
                raise AuditError(de.seam, "shear point inside a "
                                 f"shear-point-free part: {detail}")
    return rows


# ---------------------------------------------------------------------------
# boundary primitives and value types, as first written


def reference_cross_ratio(p1, p2, p3, p4):
    """cr = ((p1-p3)(p2-p4)) / ((p1-p4)(p2-p3)), with inf handled by limits."""
    pts = [normalize_boundary(p) for p in (p1, p2, p3, p4)]
    for i in range(4):
        for j in range(i + 1, 4):
            if boundary_close(pts[i], pts[j], tol=0.0):
                raise GeometryError("cross-ratio of coincident points")
    p1, p2, p3, p4 = pts
    if p1 == INF:
        return (p2 - p4) / (p2 - p3)
    if p2 == INF:
        return (p1 - p3) / (p1 - p4)
    if p3 == INF:
        return (p2 - p4) / (p1 - p4)
    if p4 == INF:
        return (p1 - p3) / (p2 - p3)
    return ((p1 - p3) * (p2 - p4)) / ((p1 - p4) * (p2 - p3))


def reference_cyclically_ordered(a, b, c) -> bool:
    """True if (a, b, c) are in positive cyclic order on the boundary circle.

    The circle is the real line plus inf, traversed in increasing direction.
    """
    a, b, c = (normalize_boundary(x) for x in (a, b, c))
    if a == INF:
        return b < c
    if b == INF:
        return c < a
    if c == INF:
        return a < b
    return (a < b < c) or (b < c < a) or (c < a < b)


@dataclass(frozen=True)
class ReferenceGeodesic:
    """Complete geodesic with ideal endpoints p, q; oriented from p to q."""

    p: float
    q: float
    oriented: bool = True

    def __post_init__(self):
        object.__setattr__(self, "p", normalize_boundary(self.p))
        object.__setattr__(self, "q", normalize_boundary(self.q))
        if self.p == self.q:
            raise GeometryError("geodesic endpoints must be distinct")


@dataclass(frozen=True)
class ReferenceIdealTriangle:
    """Ideal triangle with vertices in positive cyclic order."""

    v1: float
    v2: float
    v3: float

    def __post_init__(self):
        vs = [normalize_boundary(v) for v in (self.v1, self.v2, self.v3)]
        object.__setattr__(self, "v1", vs[0])
        object.__setattr__(self, "v2", vs[1])
        object.__setattr__(self, "v3", vs[2])
        if len({vs[0], vs[1], vs[2]}) != 3:
            raise GeometryError("ideal triangle needs three distinct vertices")
        if not reference_cyclically_ordered(*vs):
            raise GeometryError("vertices must be in positive cyclic order")


# ---------------------------------------------------------------------------
# curve regimes, the cusped develop read back, and the certificate rows


def curve_regime(length) -> str:
    """Classify a curve length as short / intermediate / long; None is a
    cusp."""
    if length is None:
        return "cusp"
    if length <= 0:
        raise ValueError("curve length must be positive")
    if length <= SHORT_CURVE_MAX:
        return "short"
    if length <= INTERMEDIATE_CURVE_MAX:
        return "intermediate"
    return "long"


def _mobius_to(x, y, z):
    """Matrix with x -> 0, y -> inf, z -> -1 (z on the left of x -> y)."""
    m0 = two_point_mat(x, y)
    z0 = mat_apply_boundary(m0, z)
    if z0 == INF or z0 >= 0:
        raise GeometryError("apex is not on the left of the edge")
    k = math.sqrt(-1.0 / z0)
    return mat_mul((k, 0.0, 0.0, 1.0 / k), m0)


def _develop_apex(x, y, z, shear: float):
    """Apex across edge (x, y) from the triangle with apex z, given shear."""
    if geom.cyclically_ordered(x, y, z):
        m = _mobius_to(x, y, z)
    else:
        m = _mobius_to(y, x, z)
    return mat_apply_boundary(mat_inverse(m), math.exp(-shear))


def place_faces(cx: cusped.CuspedTriangulation, sigma: dict) -> list:
    """The places of cusped.develop_from_shears, placed point by point.

    The same breadth-first search from face 0 at (0, 1, inf), but each
    face reached across a side keeps that side's two points and gets its
    apex from _develop_apex, in the face's own positions.
    """
    places = [None] * cx.num_faces()
    places[0] = (0.0, 1.0, INF)
    frontier = [0]
    while frontier:
        nxt = []
        for f in frontier:
            for s in range(3):
                f2, s2 = cx.glue[(f, s)]
                if places[f2] is not None:
                    continue
                x, y, z = (places[f][(s + k) % 3] for k in range(3))
                pts = [None] * 3
                pts[s2], pts[(s2 + 1) % 3] = y, x
                pts[(s2 + 2) % 3] = _develop_apex(x, y, z,
                                                  sigma[cx.edge_key(f, s)])
                places[f2] = tuple(pts)
                nxt.append(f2)
        frontier = nxt
    return places


def shears_from_places(dev: cusped.DevelopedCusped) -> dict:
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
            out[key] = geom.quad_shear(x, y, z, w)
    return out


def _collar(length: float) -> float:
    """Width removed at a curve end: the collar of an intermediate curve."""
    return collar_width(length) if length <= INTERMEDIATE_CURVE_MAX else 0.0


def truncated_length(lengths: tuple, seams: tuple, k: int) -> float:
    """Length of seam arc k outside cusp neighborhoods and thin collars.

    lengths is the pants' boundary-length triple (0 = cusp) and seams its
    seam lengths (pants.seam_lengths); the arc joins slots i < j and
    t = k is the third boundary.  By the collar lemma the collar or cusp
    region of the third boundary never meets the arc, so only its two
    ends are cut:

    * curve to curve: a_k - w(l_i) - w(l_j), a_k the seam length;
    * cusp to curve o: log((cosh(l_t/2) + cosh(l_o/2)) / sinh(l_o/2))
      - w(l_o);
    * cusp to cusp: log((1 + cosh(l_t/2)) / 2);

    each clamped at 0.
    """
    i, j = _seam_ends(k)
    li, lj, lt = lengths[i], lengths[j], lengths[k]
    if li and lj:
        return max(0.0, seams[k] - _collar(li) - _collar(lj))
    lo = li or lj
    if lo:
        depth = math.log((math.cosh(lt / 2.0) + math.cosh(lo / 2.0))
                         / math.sinh(lo / 2.0))
        return max(0.0, depth - _collar(lo))
    return math.log((1.0 + math.cosh(lt / 2.0)) / 2.0)


def arc_lengths(lengths: tuple) -> tuple:
    """The bounded lengths of the three seam arcs of a pants.

    lengths is the pants' boundary-length triple (0 = cusp); the seam
    lengths are computed once for all three arcs.  Per arc k, in seam
    order: (raw, slack, truncated), where raw is the seam length a_k and
    slack the collar widths of the intermediate curves at its two ends.
    The raw length is bounded only between two curves: at an arc with a
    cusp end, raw and slack are None.
    """
    seams = seam_lengths(*lengths)
    arcs = []
    for k in range(3):
        i, j = _seam_ends(k)
        if lengths[i] and lengths[j]:
            raw, slack = seams[k], _collar(lengths[i]) + _collar(lengths[j])
        else:
            raw = slack = None
        arcs.append((raw, slack, truncated_length(lengths, seams, k)))
    return tuple(arcs)


def arcs_short(arcs: tuple, log4a: float) -> bool:
    """Whether every arc of arc_lengths meets its raw and truncated bound:
    6 log(4 area), plus the slack for the raw length between two curves.
    """
    bound = 6.0 * log4a
    return all((raw is None or raw <= bound + slack) and trunc <= bound
               for raw, slack, trunc in arcs)


_CURVE_ROW = "curve {} length <= 2 log(4 area)"
_RAW_ARC_ROW = "arc {} length <= 6 log(4 area) + collar widths"
_TRUNCATED_ARC_ROW = "arc {} truncated length <= 6 log(4 area)"


@dataclass(slots=True)
class ShortnessRow:
    """One bound of the certificate; its name is formatted when read."""

    label: str                # the name, with {} for the curve id or arc
    subject: object           # curve id or arc (p, k)
    value: float
    bound: float
    passed: bool

    @property
    def name(self) -> str:
        return self.label.format(self.subject)


def curve_rows(curves: dict, log4a: float) -> list:
    """Rows of the curve-length bound, in curve id order."""
    return [ShortnessRow(_CURVE_ROW, cid, length, 2.0 * log4a,
                         length <= 2.0 * log4a)
            for cid, length in sorted(curves.items())]


def arc_rows(lengths: tuple, p: int, log4a: float) -> list:
    """Rows of the raw and truncated length bounds of the seam arcs of
    pants p.

    The rows of arc (p, k) come in seam order k = 0, 1, 2, with the
    values of arc_lengths: the raw length is bounded per regime by
    6 log(4 area) plus the collar widths of the intermediate curves at
    its ends, the truncated length by 6 log(4 area).  arcs_short passes
    exactly when every row does.
    """
    rows = []
    for k, (raw, slack, trunc) in enumerate(arc_lengths(lengths)):
        arc = (p, k)
        if raw is not None:
            rows.append(ShortnessRow(
                _RAW_ARC_ROW, arc, raw, 6.0 * log4a + slack,
                raw <= 6.0 * log4a + slack))
        rows.append(ShortnessRow(_TRUNCATED_ARC_ROW, arc, trunc, 6.0 * log4a,
                                 trunc <= 6.0 * log4a))
    return rows
