"""Spiralling ideal triangulations and their shear coordinates.

Replacing every seam of a pants by the complete geodesic that spirals
onto the boundary curves at its endpoints (or runs out the cusps) turns
the two hexagons of each pants into two ideal triangles.  Each seam arc
is developed as an ideal quadrilateral in the standard frame of its
pants (develop_pants): the shared edge joins the spiral limit points at
its two end slots, the first apex is the limit point at the opposite
slot, and the second apex is its mirror image across the seam, which is
exactly the development of the neighbouring hexagon.  Each limit point
at a closed curve is a fixed point of the slot holonomy, read off
without a side test: the attracting one in the pants' own hexagon, the
repelling one of the reflected holonomy in the mirrored hexagon.

The shear of the two triangles across each edge gives the shear vector.
Its entries satisfy two families of relations: the shears of the
arc-ends at each cusp sum to zero, and the shears of the arc-ends
spiralling on one side of a closed curve sum to the curve's length.
Each such group is the two arc-ends at one slot of one pants, so the
relations are checked one slot at a time.

The per-pants kernel (pants_kernel) is a function of one pants in
standard position, that is, of its boundary-length triple: it develops
the pants once and reads off the three shears, the relation residual at
each slot and the shear-point margins.  It knows no pants index and no
curve ids; its errors name the seam, and report.run_surface names the
edge (pants, seam).  No global frame is built.  The tests check the
kernel against closed forms that do not depend on the developed
geometry (tests/test_kernel.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geom
from .constants import ShearFreeParams, truncated_collar_width
from .geom import Geodesic, IdealTriangle, Isometry
from .pants import StdPants, _seam_ends


@dataclass(slots=True)
class Corner:
    """One ideal vertex of a developed triangle, with its thin-part data."""

    point: float              # boundary point
    kind: str                 # "cusp" | "curve"
    length: float = None
    axis: Geodesic = None     # lift of the curve (curve corners)
    stabilizer: Isometry = None  # parabolic (cusp) or hyperbolic (curve)


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


class DevelopError(geom.GeometryError):
    """A check failed at one edge; edge is a seam k or an arc (p, k)."""

    def __init__(self, edge, problem: str):
        super().__init__(f"edge {edge}: {problem}")
        self.edge = edge
        self.problem = problem


_FIX_TOL = 1e-6


def _front_corner(sp: StdPants, s: int) -> Corner:
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
    return Corner(point=att, kind="curve", length=sp.lengths[s],
                  axis=Geodesic(att, rep), stabilizer=sp.slot_hol[s])


def _back_apex(sp: StdPants, k: int) -> Corner:
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
    return -geom.apex_shear(de.edge, right.point, left.point)


# ---------------------------------------------------------------------------
# shear-point audit against the thin parts


class AuditError(DevelopError):
    pass


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
    pts = (geom.shear_point_on(de.front, de.edge),
           geom.shear_point_on(de.back, de.edge))
    rows = []
    for corner in thin:
        for s in pts:
            if corner.kind == "cusp":
                horo = geom.horocycle_length_through(corner.stabilizer, s)
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


# ---------------------------------------------------------------------------
# the per-pants kernel


@dataclass
class PantsKernel:
    """What a surface record needs from one pants, computed in its frame."""

    shears: list              # edge_shear of seam arc k, k = 0, 1, 2
    residuals: list           # relation residual at slot s, s = 0, 1, 2
    margins: list             # shear-point margins of the three arcs


def pants_kernel(sp: StdPants, params: ShearFreeParams) -> PantsKernel:
    """Develop one pants and read off its shears, residuals and margins.

    The two arc-ends at slot s are those of the seams i, j other than s
    (pants._seam_ends(s)); their shears sum to the slot's boundary
    length l_s, 0 at a cusp, so residuals[s] = |shear_i + shear_j - l_s|.
    Errors name the seam, not the pants.
    """
    edges = develop_pants(sp)
    shears = [edge_shear(de) for de in edges]
    residuals = []
    for s in range(3):
        i, j = _seam_ends(s)
        residuals.append(abs(shears[i] + shears[j] - sp.lengths[s]))
    margins = [margin for de in edges
               for _, margin in margin_rows(de, params)]
    return PantsKernel(shears=shears, residuals=residuals, margins=margins)
