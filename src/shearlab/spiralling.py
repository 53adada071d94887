"""Spiralling ideal triangulations and their shear coordinates.

Replacing every seam of a pants by the complete geodesic that spirals
onto the boundary curves at its endpoints (or runs out the cusps) turns
the two hexagons of each pants into two ideal triangles.  Each seam arc
is developed as an ideal quadrilateral in the standard frame of its
pants: the shared edge joins the spiral limit points at its two end
slots, the first apex is the limit point at the opposite slot, and the
second apex is its mirror image across the seam, which is exactly the
development of the neighbouring hexagon.  Each limit point at a closed
curve is a fixed point of the slot holonomy, read off without a side
test: the attracting one in the pants' own hexagon, the repelling one
of the reflected holonomy in the mirrored hexagon.

The shear of the two triangles across each edge gives the shear vector.
Its entries satisfy two families of relations: the shears of the
arc-ends at each cusp sum to zero, and the shears of the arc-ends
spiralling on one side of a closed curve sum to the curve's length.
Each such group is the two arc-ends at one slot of one pants, so the
relations are checked one slot at a time.

The per-pants kernel (pants_kernel(sp)) is a function of one pants in
standard position, that is, of its boundary-length triple alone (its
rho' is that of constants.SHEAR_FREE): it develops the pants once and
reads off the three shears, the relation residual at each slot and the
shear-point margins.  It is straight-line code on floats and matrix
tuples, geom's one format, and builds no geometry object.  The develop
on geometry objects that it replaced (Corner, DevelopedEdge,
develop_pants, edge_shear, margin_rows) is kept in
tests/geometric_oracle.py as its oracle, which the kernel matches bit
for bit, errors included.  The kernel knows no pants index and no
curve ids; its errors name the seam, and the report names the edge
(pants, seam).  No global frame is built.  The tests also check
the kernel against closed forms that do not depend on the developed
geometry (tests/test_kernel.py).

The kernel is the scalar route of the report: it develops only the
pants that the numpy batch (decomposition.pants_batch) leaves, those
where a check fails or a rare branch is taken; the batch develops every
other pants, cusped and thin ones included.  It is the batch's
reference, which the batch matches bit for bit, margins and their order
included, and it reports the failures of both routes by name.  The
seam-arc lengths are not the kernel's: the batch evaluates them from
closed forms for every pants (Batch.arcs).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import geom
from .constants import SHEAR_FREE, SHORT_CURVE_MAX, truncated_collar_width
from .geom import (INF, apex_shear, axis_distance, cyclically_ordered,
                   geodesic_ends, horocycle_frame, horocycle_length,
                   incircle_center, mat_apply_boundary, mat_classify,
                   mat_fixed_points, mat_mul, normalize_boundary,
                   perpendicular_foot, two_point_mat)
from .pants import StdPants, _seam_ends


class DevelopError(geom.GeometryError):
    """A check failed at one edge; edge is a seam k or an arc (p, k)."""

    def __init__(self, edge, problem: str):
        super().__init__(f"edge {edge}: {problem}")
        self.edge = edge
        self.problem = problem


class AuditError(DevelopError):
    pass


_FIX_TOL = 1e-6


def _check_corner(point, stabilizer, k: int):
    """A developed corner must be fixed by its stabilizer matrix."""
    img = mat_apply_boundary(stabilizer, point)
    if point == INF or img == INF:
        ok = img == point
    else:
        ok = abs(img - point) <= _FIX_TOL * max(1.0, abs(point))
    if not ok:
        raise DevelopError(
            k, "developed endpoint is not fixed by its holonomy")


@dataclass(slots=True)
class PantsKernel:
    """What a surface record needs from one pants, computed in its frame."""

    shears: list              # shear of seam arc k, k = 0, 1, 2
    residuals: list           # relation residual at slot s, s = 0, 1, 2
    margins: list             # shear-point margins of the three arcs
    quadrilaterals: list      # per arc k: (p, front apex, q, back apex),
                              # its edge running from p to q


def pants_kernel(sp: StdPants) -> PantsKernel:
    """Develop one pants and read off its shears, residuals and margins.

    Six corners are developed.  Corner c < 3 is the spiral limit point
    at slot c of the pants' own (front) hexagon: a cusp point, or the
    attracting fixed point of the slot holonomy.  Standard position puts
    every pants on the left of its boundary oriented from the repelling
    to the attracting fixed point, and a spiralling arc converges to the
    endpoint for which its pants lies on the left.  Corner 3 + k is the
    opposite-slot apex of the hexagon mirrored across seam k; the
    reflection reverses orientation, so at a curve it is the repelling
    fixed point of the reflected holonomy, and a reflected holonomy that
    rounding moved out of the hyperbolic class raises DevelopError for
    its seam.  Corner c sits on slot c % 3.

    Arc k joins the front corners at the end slots i, j of seam k; its
    apexes are front corner k and back corner 3 + k.  Every develop
    check of the three arcs runs before any shear, and every shear
    before any margin, so a pants fails with the first error in that
    order.  The two arc-ends at slot s are those of the seams i, j other
    than s (pants._seam_ends(s)); their shears sum to the slot's
    boundary length l_s, 0 at a cusp, so residuals[s] =
    |shear_i + shear_j - l_s|.

    The shear point of each triangle on an edge is tested against the
    four corners of the quadrilateral that are thin: cusp corners must
    see a horocycle longer than delta2 through the point, and corners on
    curves no longer than 2 tanh(rho) must be farther from the curve
    than the truncated width.  A margin that is not positive (NaN
    included) raises AuditError.  The shear points of an arc are
    computed only when one of its corners is thin, and the frame of a
    thin corner (the cusp shift, or the map of its axis) once per
    corner.  Errors name the seam, not the pants.
    """
    cusp = sp.slot_is_cusp
    hol = sp.slot_hol
    points = [None] * 6
    stabs = [*hol, None, None, None]
    axes = [None] * 6
    for s in range(3):
        if cusp[s]:
            points[s] = sp.slot_point[s]
        else:
            # build_pants classified every curve slot's holonomy hyperbolic
            att, rep = mat_fixed_points(hol[s], "hyperbolic")
            points[s] = att
            axes[s] = geodesic_ends(att, rep)
    for s in range(3):
        _check_corner(points[s], hol[s], 0)
    ends = [normalize_boundary(x) for x in points[:3]]

    edges = []                # per arc: its edge (p, q), front apex on the left
    for k in range(3):
        refl = sp.seam_refl[k]
        stab = mat_mul(mat_mul(refl, hol[k]), refl)
        if cusp[k]:
            point = mat_apply_boundary(refl, sp.slot_point[k])
        else:
            kind = mat_classify(stab)
            if kind != "hyperbolic":
                raise DevelopError(k, f"slot {k} holonomy mirrored across "
                                   f"the seam is {kind}")
            att, rep = mat_fixed_points(stab, kind)
            point = rep
            axes[3 + k] = geodesic_ends(att, rep)
        _check_corner(point, stab, k)
        points[3 + k] = point
        stabs[3 + k] = stab
        i, j = _seam_ends(k)
        p, q = ends[i], ends[j]
        if len({p, q, ends[k], normalize_boundary(point)}) != 4:
            raise DevelopError(k, "degenerate quadrilateral")
        front_left = cyclically_ordered(p, q, points[k])
        if front_left == cyclically_ordered(p, q, point):
            raise DevelopError(k, "triangle apexes on the same side")
        edges.append((p, q, front_left))

    # the shear is the signed distance along the oriented edge from the
    # shear point of the triangle on its right to the one on its left,
    # the sign for which the arc-ends on one side of a closed curve sum
    # to +length (and cusp sums vanish)
    shears = []
    quadrilaterals = []
    for k, (p, q, front_left) in enumerate(edges):
        front, back = points[k], points[3 + k]
        if front_left:
            shears.append(-apex_shear(p, q, back, front))
        else:
            shears.append(-apex_shear(p, q, front, back))
        quadrilaterals.append((p, front, q, back))
    residuals = []
    for s in range(3):
        i, j = _seam_ends(s)
        residuals.append(abs(shears[i] + shears[j] - sp.lengths[s]))

    frames = [None] * 6
    widths = [None] * 3       # truncated collar width per slot
    margins = []
    for k, (p, q, front_left) in enumerate(edges):
        i, j = _seam_ends(k)
        thin = [c for c in (i, j, k, 3 + k)
                if cusp[c % 3] or sp.lengths[c % 3] <= SHORT_CURVE_MAX]
        if not thin:
            continue
        # the incircle tangency point of each triangle on the edge, the
        # triangle's vertices in positive cyclic order
        shear_points = []
        for apex, left in ((points[k], front_left),
                           (points[3 + k], not front_left)):
            apex = normalize_boundary(apex)
            if left:
                center = incircle_center(p, q, apex)
                shear_points.append(perpendicular_foot(center, p, q))
            else:
                center = incircle_center(p, apex, q)
                shear_points.append(perpendicular_foot(center, q, p))
        for c in thin:
            slot = c % 3
            for z in shear_points:
                if cusp[slot]:
                    if frames[c] is None:
                        frames[c] = horocycle_frame(stabs[c])
                    horo = horocycle_length(frames[c], z)
                    margin = horo - SHEAR_FREE.delta2
                else:
                    if frames[c] is None:
                        frames[c] = two_point_mat(*axes[c])
                    d = axis_distance(frames[c], z)
                    if widths[slot] is None:
                        widths[slot] = truncated_collar_width(
                            sp.lengths[slot], SHEAR_FREE)
                    w_t = widths[slot]
                    margin = d - w_t
                margins.append(margin)
                if not margin > 0.0:
                    if cusp[slot]:
                        detail = f"horocycle length {horo:.6g} vs delta2"
                    else:
                        detail = (f"distance {d:.6g} vs truncated width "
                                  f"{w_t:.6g} (curve length "
                                  f"{sp.lengths[slot]:.6g})")
                    raise AuditError(k, "shear point inside a "
                                     f"shear-point-free part: {detail}")
    return PantsKernel(shears=shears, residuals=residuals, margins=margins,
                       quadrilaterals=quadrilaterals)
