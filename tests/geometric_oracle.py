"""The geometric seam-arc code that the closed forms replaced.

decomposition.arc_rows reads the raw and truncated seam-arc lengths
from the boundary-length triple alone; the kernel's spiral corners take
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
of each glued slot (seam_feet, slot_marker_probe, build_time_normalizer).
slot_normalizer builds only the marker, the one foot and the probe it
needs, when it is called.  And it keeps the eager form of
spiralling.margin_rows (eager_margin_rows), which computes both shear
points of every edge whether or not a corner carries a row.

Last, it keeps the boundary primitives and value types of geom as they
were written with frozen dataclasses, a generator per normalisation and
boundary_close(..., tol=0.0) per pair of points: reference_cross_ratio,
reference_cyclically_ordered, ReferenceGeodesic and
ReferenceIdealTriangle.  geom now normalises each input once, compares
the points with ==, and uses slotted dataclasses; the tests require the
same result bits or the same exception from both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from shearlab import geom
from shearlab.constants import (INTERMEDIATE_CURVE_MAX, collar_width,
                                truncated_collar_width)
from shearlab.geom import (INF, Geodesic, GeometryError, Isometry,
                           boundary_close, geodesic_intersection,
                           mobius_two_point, normalize_boundary)
from shearlab.pants import (StdPants, _direction_toward, _nearest_endpoint,
                            _point_along, _seam_ends)
from shearlab.spiralling import AuditError


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


def build_time_normalizer(sp: StdPants, slot: int) -> Isometry:
    """slot_normalizer, with the marker and probe of slot_marker_probe."""
    if sp.slot_is_cusp[slot]:
        raise GeometryError("cusp slots cannot be glued")
    axis = sp.slot_axis[slot]
    marker, probe = slot_marker_probe(sp, slot)
    for (x, y) in ((axis.p, axis.q), (axis.q, axis.p)):
        m = mobius_two_point(x, y)
        if m(probe).real > 0:
            y0 = m(marker).imag
            s = math.sqrt(y0)
            scale = Isometry.from_matrix(1.0 / s, 0.0, 0.0, s)
            return scale @ m
    raise GeometryError("could not orient slot axis with body on the right")


def _slot_side(sp: StdPants, s: int) -> str:
    """Side of the boundary curve at slot s that the pants lies on.

    The curve is oriented from the repelling to the attracting fixed
    point of its holonomy in the pants' own frame.
    """
    att, rep = geom.fixed_points(sp.slot_hol[s])
    return geom.side_of_point(Geodesic(rep, att), slot_marker_probe(sp, s)[1])


def spiral_endpoint(axis_p, axis_q, probe: complex):
    """Ideal endpoint a spiralling arc converges to at this boundary corner.

    The arc spirals toward the endpoint for which the corner's body lies
    on the left of the axis oriented toward that endpoint.
    """
    if geom.side_of_point(Geodesic(axis_p, axis_q), probe) == "left":
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
    m, shift = geom.parabolic_shift(sp.slot_hol[slot], sp.slot_point[slot])
    return m, shift / CUSP_HOROCYCLE_LENGTH


def _seam_coordinate(seam: Geodesic):
    """Arclength coordinate along the seam: t(z) = log Im(M z)."""
    m = mobius_two_point(seam.p, seam.q)

    def coord(z: complex) -> float:
        return math.log(m(z).imag)

    return m, coord


def _horoball_interval(seam: Geodesic, coord, m_cusp: Isometry, height: float):
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
        cross = geom.geodesic_intersection(seam, axis)
    except geom.GeometryError:
        cross = None
    if cross is not None:
        # perpendicular crossing: distance grows as |t - t_cross|
        t0 = coord(cross)
        return (t0 - width, t0 + width)
    d_min = geom.dist_between_geodesics(seam, axis)
    if d_min >= width or d_min == 0.0:
        return None
    perp = geom.common_perpendicular(seam, axis)
    foot = geom.geodesic_intersection(seam, perp)
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
    seam = sp.seams[k]
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
            interval = _collar_interval(seam, coord, sp.slot_axis[s],
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
    pts = (geom.shear_point_on(de.front, de.edge),
           geom.shear_point_on(de.back, de.edge))
    rows = []
    for corner in (*de.end_corners, de.apex_front, de.apex_back):
        for s in pts:
            if corner.kind == "cusp":
                horo = geom.horocycle_length_through(corner.stabilizer, s)
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
