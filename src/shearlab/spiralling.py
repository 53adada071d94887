"""Spiralling ideal triangulations and their shear coordinates.

Replacing every seam of a hexagon decomposition by the complete geodesic
that spirals onto the boundary curves at its endpoints (or runs out the
cusps) turns the two hexagons of each pants into two ideal triangles.
Each arc is developed as an ideal quadrilateral in the standard frame of
its pants: the shared edge joins the spiral limit points at its two end
slots, the first apex is the limit point at the opposite slot, and the
second apex is its mirror image across the seam, which is exactly the
development of the neighbouring hexagon.

The shear of the two triangles across each edge gives the shear vector.
Its entries satisfy two families of relations that serve as the main
correctness oracle: the shears of the arc-ends at each cusp sum to zero,
and the shears of the arc-ends spiralling on one side of a closed curve
sum to the curve's length.

Everything an edge needs lies in the frame of its own pants, so the
per-pants kernel (pants_kernel) develops one pants at a time and reads
off its shears, arc lengths and shear-point margins; LocalSurface puts
the kernels of a surface together.  develop, shear_vector and
shear_point_free_audit run the same primitives over the global pipeline
and serve as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geom
from .constants import ShearFreeParams, truncated_collar_width
from .decomposition import HexagonDecomposition, arc_rows
from .geom import RELATION_TOL, Geodesic, IdealTriangle, Isometry
from .pants import StdPants, _seam_ends, spiral_endpoint
from .surface import Holonomy, PantsGraph


@dataclass(frozen=True)
class SpiralEnd:
    kind: str                 # "cusp" | "curve"
    cusp: object = None
    curve: object = None
    side: str = None          # relative to the declared orientation
    direction: str = None     # "with" | "against" the declared orientation
    slot_ref: tuple = None


@dataclass(frozen=True)
class SpiralEdge:
    arc: tuple
    ends: tuple


@dataclass
class SpirallingTriangulation:
    hd: HexagonDecomposition
    orientation_flips: dict   # curve id -> bool, False = canonical orientation
    edges: list
    triangles: list           # (pants, "front"/"back", arc triple)
    closed_leaves: set


def spiral(hd: HexagonDecomposition, orientation_flips=None) -> SpirallingTriangulation:
    """Spin the arcs of the decomposition around their endpoint curves.

    Arc ends on the left of an oriented curve spiral with the orientation,
    ends on the right against it.  Flipping a curve's orientation swaps
    the recorded side and direction of the ends at that curve but moves no
    geometry: both choices single out the same limit points.
    """
    orientation_flips = dict(orientation_flips or {})
    edges = []
    closed = set()
    for arc in hd.arcs:
        ends = []
        for ep in arc.endpoints:
            if ep.kind == "at-cusp":
                ends.append(SpiralEnd(kind="cusp", cusp=ep.cusp,
                                      slot_ref=ep.slot_ref))
                continue
            flip = orientation_flips.get(ep.curve, False)
            side = ep.side if not flip else \
                ("left" if ep.side == "right" else "right")
            ends.append(SpiralEnd(
                kind="curve", curve=ep.curve, side=side,
                direction="with" if side == "left" else "against",
                slot_ref=ep.slot_ref))
            closed.add(ep.curve)
        edges.append(SpiralEdge(arc=arc.ident, ends=tuple(ends)))

    triangles = []
    num_pants = hd.hol.graph.num_pants
    for p in range(num_pants):
        for face in ("front", "back"):
            triangles.append((p, face, ((p, 0), (p, 1), (p, 2))))

    st = SpirallingTriangulation(hd=hd, orientation_flips=orientation_flips,
                                 edges=edges, triangles=triangles,
                                 closed_leaves=closed)
    if len(st.edges) != 3 * num_pants or len(st.triangles) != 2 * num_pants:
        raise ValueError("spiralling triangulation has wrong face counts")
    return st


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


@dataclass
class DevelopedComplex:
    st: SpirallingTriangulation
    edges: dict               # arc id -> DevelopedEdge


class DevelopError(geom.GeometryError):
    pass


_FIX_TOL = 1e-6


def _front_corner(sp: StdPants, slot, s: int) -> Corner:
    """The spiral limit point at slot s of the front hexagon."""
    if sp.slot_is_cusp[s]:
        return Corner(point=sp.slot_point[s], kind="cusp",
                      stabilizer=sp.slot_hol[s])
    att, rep = geom.fixed_points(sp.slot_hol[s])
    v = spiral_endpoint(att, rep, sp.slot_probe[s])
    return Corner(point=v, kind="curve", curve=slot[1],
                  length=sp.lengths[s], axis=Geodesic(att, rep),
                  stabilizer=sp.slot_hol[s])


def _back_apex(sp: StdPants, slot, k: int) -> Corner:
    """The opposite-slot corner of the hexagon mirrored across seam k."""
    refl = geom.geodesic_reflection(sp.seams[k])
    stab = refl.conjugate_isometry(sp.slot_hol[k])
    if sp.slot_is_cusp[k]:
        return Corner(point=refl.apply_boundary(sp.slot_point[k]),
                      kind="cusp", stabilizer=stab)
    att, rep = geom.fixed_points(stab)
    probe = refl.apply(sp.slot_probe[k])
    v = spiral_endpoint(att, rep, probe)
    return Corner(point=v, kind="curve", curve=slot[1],
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


def develop(hol: Holonomy, st: SpirallingTriangulation) -> DevelopedComplex:
    """Realize each edge's ideal quadrilateral in its pants frame."""
    edges = {}
    for p in range(hol.graph.num_pants):
        for de in develop_pants(hol.std[p], p, hol.graph.pants[p]):
            edges[de.arc] = de
    return DevelopedComplex(st=st, edges=edges)


@dataclass
class ShearVector:
    values: dict              # arc id -> shear
    cusp_ends: dict           # cusp id -> [(arc id, end index)]
    side_ends: dict           # (curve id, side) -> [(arc id, end index)]

    def max_abs(self) -> float:
        return max((abs(v) for v in self.values.values()), default=0.0)


def shear_vector(dc: DevelopedComplex, method: str = "cross_ratio") -> ShearVector:
    """Per-edge shears of the developed triangulation, with their ends.

    Each entry is edge_shear of the developed edge; the ends are grouped
    by cusp and by (curve, side) as the spiralling recorded them.
    """
    values = {arc: edge_shear(de, method) for arc, de in dc.edges.items()}
    cusp_ends = {}
    side_ends = {}
    for edge in dc.st.edges:
        for idx, end in enumerate(edge.ends):
            if end.kind == "cusp":
                cusp_ends.setdefault(end.cusp, []).append((edge.arc, idx))
            else:
                side_ends.setdefault((end.curve, end.side), []).append(
                    (edge.arc, idx))
    return ShearVector(values=values, cusp_ends=cusp_ends,
                       side_ends=side_ends)


def edge_shear(de: DevelopedEdge, method: str = "cross_ratio") -> float:
    """Shear across one developed edge.

    The signed distance along the oriented edge from the tangency point
    of the triangle on its right to the one on its left.  This is the
    sign convention for which the arc-ends spiralling on one side of a
    closed curve sum to +length (and cusp sums vanish); the calibration
    was pinned against those relations.
    """
    if geom.side_of(de.edge, de.apex_front.point) == "left":
        t_left, t_right = de.front, de.back
        left, right = de.apex_front, de.apex_back
    else:
        t_left, t_right = de.back, de.front
        left, right = de.apex_back, de.apex_front
    if method == "cross_ratio":
        return -geom.apex_shear(de.edge, right.point, left.point)
    return geom.shear(t_right, t_left, de.edge, method=method)


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

    def ok(self, tol: float = RELATION_TOL) -> bool:
        return (self.max_cusp_residual <= tol
                and self.max_side_residual <= tol)


def shear_relations(sv: ShearVector, hd: HexagonDecomposition) -> RelationReport:
    """Residuals of the cusp-sum and curve-side-sum identities.

    Each group is the two arc-ends at one slot: they sum to 0 at a cusp
    and to the curve's length at a glued slot.  Only ``hd.curves`` is
    read, so a LocalSurface serves as well as a HexagonDecomposition.
    """
    cusp_res = {}
    for cusp_id, ends in sv.cusp_ends.items():
        cusp_res[cusp_id] = abs(sum(sv.values[a] for a, _ in ends))
    side_res = {}
    for (cid, side), ends in sv.side_ends.items():
        total = sum(sv.values[a] for a, _ in ends)
        side_res[(cid, side)] = abs(total - hd.curves[cid])
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


@dataclass
class ShearFreeReport:
    rows: list

    @property
    def min_margin(self):
        return min((r.margin for r in self.rows), default=math.inf)


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


def shear_point_free_audit(dc: DevelopedComplex,
                           params: ShearFreeParams) -> ShearFreeReport:
    """Check that no shear point enters a thin cusp region or safe collar.

    Collects margin_rows over every developed edge.
    """
    rows = []
    for de in dc.edges.values():
        rows += margin_rows(de, params)
    return ShearFreeReport(rows=rows)


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

    Uses the primitives of the developed pipeline (develop_pants,
    edge_shear, arc_rows, margin_rows) on this pants alone, so its
    results equal the global ones; the global holonomy is never built.
    """
    edges = develop_pants(sp, p, slots)
    shears = [edge_shear(de) for de in edges]
    shortness = [row for de in edges for row in arc_rows(sp, de.arc, log4a)]
    margins = [row for de in edges for row in margin_rows(de, params)]
    return PantsKernel(shears=shears, shortness=shortness, margins=margins)


@dataclass
class LocalSurface:
    """A surface put together from per-pants kernels, without a global frame.

    ``curves`` maps curve id to length as HexagonDecomposition.curves
    does, so shear_relations reads it in place of a decomposition.
    ``slot_sides`` gives, per glued slot (p, s), the side of its curve
    that the arc-ends there spiral on (decomposition.slot_sides).
    """

    graph: PantsGraph
    curves: dict
    slot_sides: dict
    kernels: list

    def shear_vector(self) -> ShearVector:
        """The ShearVector of the developed pipeline, from the kernels."""
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
