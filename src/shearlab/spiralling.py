"""Spiralling ideal triangulations and their shear coordinates.

Replacing every seam of a pants by the complete geodesic that spirals
onto the boundary curves at its endpoints (or runs out the cusps) turns
the two hexagons of each pants into two ideal triangles.  Each arc is
developed as an ideal quadrilateral in the standard frame of its pants
(develop_pants): the shared edge joins the spiral limit points at its
two end slots, the first apex is the limit point at the opposite slot,
and the second apex is its mirror image across the seam, which is
exactly the development of the neighbouring hexagon.  Each limit point
at a closed curve is a fixed point of the slot holonomy, read off
without a side test: the attracting one in the pants' own hexagon, the
repelling one of the reflected holonomy in the mirrored hexagon.

The shear of the two triangles across each edge gives the shear vector.
Its entries satisfy two families of relations: the shears of the
arc-ends at each cusp sum to zero, and the shears of the arc-ends
spiralling on one side of a closed curve sum to the curve's length.

Everything an edge needs lies in the frame of its own pants, so the
per-pants kernel (pants_kernel) develops one pants at a time and reads
off its shears and shear-point margins, with the shortness rows of its
arcs from the closed forms of decomposition.arc_rows; LocalSurface puts
the kernels of a surface together into its shear vector.  No global
frame is built.  The tests check the kernel against closed forms that
do not depend on the developed geometry (tests/test_kernel.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geom
from .constants import ShearFreeParams, truncated_collar_width
from .decomposition import arc_rows
from .geom import RELATION_TOL, Geodesic, IdealTriangle, Isometry
from .pants import StdPants, _seam_ends
from .surface import PantsGraph


@dataclass(frozen=True)
class Corner:
    """One ideal vertex of a developed triangle, with its thin-part data."""

    point: float              # boundary point
    kind: str                 # "cusp" | "curve"
    curve: object = None
    length: float = None
    axis: Geodesic = None     # lift of the curve (curve corners)
    stabilizer: Isometry = None  # parabolic (cusp) or hyperbolic (curve)


@dataclass
class DevelopedEdge:
    arc: tuple
    edge: Geodesic            # oriented from the lower to the higher slot end
    end_corners: tuple        # corners at the two edge endpoints
    apex_front: Corner
    apex_back: Corner
    front: IdealTriangle      # the triangle on the edge with apex_front
    back: IdealTriangle       # the triangle on the edge with apex_back

    def quadrilateral(self):
        return (self.edge.p, self.apex_front.point, self.edge.q,
                self.apex_back.point)


class DevelopError(geom.GeometryError):
    pass


_FIX_TOL = 1e-6


def _front_corner(sp: StdPants, slot, s: int) -> Corner:
    """The spiral limit point at slot s of the front hexagon.

    A spiralling arc converges to the endpoint of the boundary axis for
    which its pants lies on the left of the axis oriented toward it.
    Standard position puts every pants on the left of its boundary
    oriented from the repelling to the attracting fixed point of the
    slot holonomy, so the limit is the attracting fixed point.
    """
    if sp.slot_is_cusp[s]:
        return Corner(point=sp.slot_point[s], kind="cusp",
                      stabilizer=sp.slot_hol[s])
    att, rep = geom.fixed_points(sp.slot_hol[s])
    return Corner(point=att, kind="curve", curve=slot[1],
                  length=sp.lengths[s], axis=Geodesic(att, rep),
                  stabilizer=sp.slot_hol[s])


def _back_apex(sp: StdPants, slot, k: int) -> Corner:
    """The opposite-slot corner of the hexagon mirrored across seam k.

    The reflection reverses orientation: the mirrored pants lies on the
    right of the reflected holonomy's axis oriented toward its
    attracting fixed point, so the limit is the repelling one.
    """
    refl = geom.geodesic_reflection(sp.seams[k])
    stab = refl.conjugate_isometry(sp.slot_hol[k])
    if sp.slot_is_cusp[k]:
        return Corner(point=refl.apply_boundary(sp.slot_point[k]),
                      kind="cusp", stabilizer=stab)
    att, rep = geom.fixed_points(stab)
    return Corner(point=rep, kind="curve", curve=slot[1],
                  length=sp.lengths[k], axis=Geodesic(att, rep),
                  stabilizer=stab)


def _check_corner(corner: Corner, arc):
    img = corner.stabilizer.apply_boundary(corner.point)
    if corner.point == geom.INF or img == geom.INF:
        ok = img == corner.point
    else:
        ok = abs(img - corner.point) <= _FIX_TOL * max(1.0, abs(corner.point))
    if not ok:
        raise DevelopError(
            f"edge {arc}: developed endpoint is not fixed by its holonomy")


def develop_pants(sp: StdPants, p: int, slots) -> list:
    """The ideal quadrilaterals of the three arcs of pants p, in its frame.

    The six spiral corners are built once: the front corner at each slot
    and, for each seam k, the back apex mirrored across it.  Edge (p, k)
    joins the front corners at the end slots of seam k; its apexes are
    the front corner at slot k and the back apex of seam k.  Every edge
    uses all three front corners, so they are checked as part of the
    first edge.
    """
    front = [_front_corner(sp, slots[s], s) for s in range(3)]
    for c in front:
        _check_corner(c, (p, 0))
    edges = []
    for k in range(3):
        arc = (p, k)
        i, j = _seam_ends(k)
        c1, c2, apex1 = front[i], front[j], front[k]
        apex2 = _back_apex(sp, slots[k], k)
        _check_corner(apex2, arc)
        pts = [c.point for c in (c1, c2, apex1, apex2)]
        if len({geom.normalize_boundary(x) for x in pts}) != 4:
            raise DevelopError(f"edge {arc}: degenerate quadrilateral")
        e = Geodesic(c1.point, c2.point)
        if geom.side_of(e, apex1.point) == geom.side_of(e, apex2.point):
            raise DevelopError(
                f"edge {arc}: triangle apexes on the same side")
        edges.append(DevelopedEdge(
            arc=arc, edge=e, end_corners=(c1, c2),
            apex_front=apex1, apex_back=apex2,
            front=IdealTriangle(*geom.oriented(e.p, e.q, apex1.point)),
            back=IdealTriangle(*geom.oriented(e.p, e.q, apex2.point))))
    return edges


@dataclass
class ShearVector:
    values: dict              # arc id -> shear
    cusp_ends: dict           # cusp id -> [(arc id, end index)]
    side_ends: dict           # (curve id, side) -> [(arc id, end index)]

    def max_abs(self) -> float:
        return max((abs(v) for v in self.values.values()), default=0.0)


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
    return -geom.apex_shear(de.edge, right.point, left.point)


@dataclass
class RelationReport:
    cusp_residuals: dict      # cusp id -> |sum of shears|
    side_residuals: dict      # (curve, side) -> |sum of shears - length|

    @property
    def max_cusp_residual(self):
        return max(self.cusp_residuals.values(), default=0.0)

    @property
    def max_side_residual(self):
        return max(self.side_residuals.values(), default=0.0)

    def ok(self) -> bool:
        return (self.max_cusp_residual <= RELATION_TOL
                and self.max_side_residual <= RELATION_TOL)


def shear_relations(sv: ShearVector, curves: dict) -> RelationReport:
    """Residuals of the cusp-sum and curve-side-sum identities.

    Each group is the two arc-ends at one slot: they sum to 0 at a cusp
    and to the curve's length (curves maps curve id to length) at a
    glued slot.
    """
    cusp_res = {}
    for cusp_id, ends in sv.cusp_ends.items():
        cusp_res[cusp_id] = abs(sum(sv.values[a] for a, _ in ends))
    side_res = {}
    for (cid, side), ends in sv.side_ends.items():
        total = sum(sv.values[a] for a, _ in ends)
        side_res[(cid, side)] = abs(total - curves[cid])
    return RelationReport(cusp_residuals=cusp_res, side_residuals=side_res)


# ---------------------------------------------------------------------------
# shear-point audit against the thin parts


class AuditError(RuntimeError):
    pass


@dataclass
class MarginRow:
    arc: tuple
    corner_kind: str
    margin: float
    detail: str


def margin_rows(de: DevelopedEdge, params: ShearFreeParams) -> list:
    """Margins of one edge's two shear points against its thin corners.

    The shear point of each adjacent triangle on the edge is tested
    against the four thin objects visible in the quadrilateral: cusp
    corners must see a horocycle longer than delta2 through the point,
    and corners on curves short enough to carry a truncated collar must
    be farther from the curve than the truncated width.  A non-positive
    margin raises AuditError.
    """
    short_max = 2.0 * math.tanh(params.rho)
    pts = (geom.shear_point_on(de.front, de.edge),
           geom.shear_point_on(de.back, de.edge))
    rows = []
    for corner in (*de.end_corners, de.apex_front, de.apex_back):
        for s in pts:
            if corner.kind == "cusp":
                horo = geom.horocycle_length_through(corner.stabilizer, s)
                margin = horo - params.delta2
                detail = f"horocycle length {horo:.6g} vs delta2"
            elif corner.length <= short_max:
                d = geom.dist_to_geodesic(s, corner.axis)
                w_t = truncated_collar_width(corner.length, params)
                margin = d - w_t
                detail = (f"distance {d:.6g} vs truncated width "
                          f"{w_t:.6g} (curve {corner.curve})")
            else:
                continue
            rows.append(MarginRow(arc=de.arc, corner_kind=corner.kind,
                                  margin=margin, detail=detail))
            if margin <= 0.0:
                raise AuditError(
                    f"shear point inside a shear-point-free part at edge "
                    f"{de.arc}: {detail}")
    return rows


# ---------------------------------------------------------------------------
# the per-pants kernel


@dataclass
class PantsKernel:
    """What a surface record needs from one pants, computed in its frame."""

    shears: list              # edge_shear of arc (p, k), k = 0, 1, 2
    shortness: list           # raw and truncated length rows per arc
    margins: list             # margin_rows per arc


def pants_kernel(sp: StdPants, p: int, slots, log4a: float,
                 params: ShearFreeParams) -> PantsKernel:
    """Develop pants p once and read off its shears, lengths and margins.

    develop_pants, then per arc edge_shear and margin_rows; arc_rows
    reads the lengths from the boundary-length triple alone.
    """
    edges = develop_pants(sp, p, slots)
    shears = [edge_shear(de) for de in edges]
    shortness = [row for de in edges
                 for row in arc_rows(sp.lengths, de.arc, log4a)]
    margins = [row for de in edges for row in margin_rows(de, params)]
    return PantsKernel(shears=shears, shortness=shortness, margins=margins)


@dataclass
class LocalSurface:
    """A surface put together from per-pants kernels, without a global frame.

    ``slot_sides`` gives, per glued slot (p, s), the side of its curve
    that the arc-ends there spiral on (decomposition.slot_sides, read
    from the gluing order).
    """

    graph: PantsGraph
    slot_sides: dict
    kernels: list

    def shear_vector(self) -> ShearVector:
        """The shears of the kernels, with their arc-ends grouped by cusp
        and by (curve, side)."""
        values = {}
        cusp_ends = {}
        side_ends = {}
        for p, slots in enumerate(self.graph.pants):
            for k, value in enumerate(self.kernels[p].shears):
                arc = (p, k)
                values[arc] = value
                for idx, s in enumerate(_seam_ends(k)):
                    kind, ident = slots[s]
                    if kind == "cusp":
                        cusp_ends.setdefault(ident, []).append((arc, idx))
                    else:
                        key = (ident, self.slot_sides[(p, s)])
                        side_ends.setdefault(key, []).append((arc, idx))
        return ShearVector(values=values, cusp_ends=cusp_ends,
                           side_ends=side_ends)
