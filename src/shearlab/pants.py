"""A hyperbolic pair of pants in standard position.

A pair of pants with boundary half-lengths (a1, a2, a3), where a cusp is
encoded by half-length zero, is realized through its three seam geodesics
(the mutual perpendiculars between boundary components, extended to
complete geodesics).  Seam k joins the two boundary slots other than k,
and the two seams adjacent to slot i meet the boundary-i geodesic
perpendicularly at distance a_i apart; when a_i = 0 they share an ideal
endpoint instead.

Standard position places seam 3 on the imaginary axis and seam 2 on the
circle with feet derived from tanh^2(a1/2); seam 1 is solved for from the
two remaining distance constraints.  The boundary holonomies are the
products of reflections in adjacent seams, so the pants group relation
X1 X2 X3 = 1 holds by construction, cusps degenerating to parabolics
without any special casing.  This ordering puts the pants on the left
of each boundary axis oriented from the repelling to the attracting
fixed point of its holonomy, which is what lets the spiral corners and
slot sides be read without a side test.  The seam lengths have a closed
form (seam_lengths).

build_pants computes in geom's one format (floats, endpoint pairs and
matrix tuples) and builds the StdPants once, after every check has
passed.  A StdPants holds what the kernel, the gluing and the chains
read, as computed: the seams and slot axes as endpoint pairs, the cusp
points, the holonomy matrices, and the reflection matrix in each seam,
from which the kernel mirrors the hexagon.  Nothing caches it: a
campaign builds a triple only when the batch leaves it, and a gluing
builds each pants once.  slot_normalizer builds the gluing normalizer
(a matrix) of a glued slot when a gluing asks for it: the marker fixes
its scale, and the orientation comes from standard position, with no
side test.  The seam feet, and a probe point whose side test picks the
same orientation, are measured only by the tests' geometric oracle,
which also keeps the construction on geometry objects that this one
replaced (tests/geometric_oracle.py).

On the sampling path build_pants is the scalar route: it builds only
the pants that the numpy batch (decomposition.pants_batch) does not
handle, those where a check fails or a rare branch is taken.  The batch repeats
this construction's formulas in the same operation order, cusp branches
and points at infinity included, so build_pants is its reference, and
it names every failure of the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geom import (
    INF,
    GeometryError,
    _unit_det,
    common_perpendicular_ends,
    ends_distance,
    geodesic_ends,
    geodesic_intersection,
    mat_apply,
    mat_classify,
    mat_mul,
    mat_translation_length,
    reflection_mat,
    two_point_mat,
)

_CONSTRUCTION_TOL = 1e-9
#: relative tolerance of a slot's translation length (_check_pants)
_SLOT_LENGTH_TOL = 1e-8


def seam_lengths(l1: float, l2: float, l3: float):
    """Seam lengths of a pants with boundary lengths l1, l2, l3 (0 = cusp).

    Returns (a1, a2, a3) where a_k joins the boundaries other than k;
    a seam with a cusp endpoint is infinite and returned as math.inf.
    cosh(a_k) = (cosh(li/2) cosh(lj/2) + cosh(lk/2)) / (sinh(li/2) sinh(lj/2)).
    """
    ls = (l1, l2, l3)
    if any(l < 0 for l in ls):
        raise ValueError("boundary lengths must be nonnegative")
    half = [l / 2.0 for l in ls]
    if half.count(0.0) > 1:
        # every seam has a cusp end; no cosh is taken, so none can overflow
        return (math.inf, math.inf, math.inf)
    ch = [math.cosh(h) for h in half]
    sh = [math.sinh(h) for h in half]
    out = []
    for k in range(3):
        i, j = _SEAM_ENDS[k]
        if half[i] == 0.0 or half[j] == 0.0:
            out.append(math.inf)
            continue
        out.append(math.acosh((ch[i] * ch[j] + ch[k]) / (sh[i] * sh[j])))
    return tuple(out)


def _seam_param(alpha: float) -> float:
    """tanh^2(alpha/2) for the half-length alpha of a boundary."""
    return math.tanh(alpha / 2.0) ** 2


def _solve_third_seam(p: float, t2: float, t3: float):
    """Endpoints (u, v) of seam 1 given seam 3 = (0, inf), seam 2 = (p, 1)."""
    if t2 == 0.0:
        if t3 == 0.0:
            return 1.0, INF
        return (1.0 - p * t3) / (1.0 - t3), INF
    if t3 == 0.0:
        return 1.0, 1.0 / t2
    a = t2
    b = (1.0 + p * t2 - t3 * (t2 + p)) / (t3 - 1.0)
    c = p
    disc = b * b - 4.0 * a * c
    if disc <= 0:
        raise GeometryError("pants construction failed: no real seam position")
    v = (-b + math.sqrt(disc)) / (2.0 * a)
    return t2 * v, v


@dataclass(frozen=True)
class StdPants:
    """Immutable standard-position data for one pair of pants."""

    lengths: tuple            # boundary lengths (0.0 encodes a cusp)
    seams: tuple              # three endpoint pairs; seams[k] joins slots != k
    slot_is_cusp: tuple
    slot_axis: tuple          # endpoint pair or None per slot: the common
                              # perpendicular of the two adjacent seams
    slot_point: tuple         # ideal point (cusp slots) or None
    slot_hol: tuple           # boundary holonomy matrix per slot (X1, X2, X3)
    seam_refl: tuple          # reflection matrix (a, b, c, d) in each seam


_SEAM_ENDS = ((1, 2), (0, 2), (0, 1))


def _seam_ends(k: int):
    """Slots joined by seam k, in increasing order."""
    return _SEAM_ENDS[k]


def build_pants(l1: float, l2: float, l3: float) -> StdPants:
    lengths = (float(l1), float(l2), float(l3))
    alphas = [l / 2.0 for l in lengths]
    ts = [_seam_param(a) for a in alphas]
    if 1.0 in ts:
        # standard position puts the seams at tanh^2(l/4), which can no
        # longer be told apart from 1 in float64
        raise GeometryError(
            f"pants construction failed: boundary lengths {lengths} are too "
            f"long for float64 (tanh^2(l/4) rounds to 1)")

    p = ts[0]
    seams = (geodesic_ends(*_solve_third_seam(p, ts[1], ts[2])), (p, 1.0),
             (0.0, INF))

    # verify the three pairwise distances against the requested half-lengths:
    # the seams adjacent to slot s are seams[i], seams[j], (i, j) = _SEAM_ENDS[s]
    for s in range(3):
        i, j = _SEAM_ENDS[s]
        d = ends_distance(*seams[i], *seams[j])
        if abs(d - alphas[s]) > _CONSTRUCTION_TOL * max(1.0, alphas[s]):
            raise GeometryError(f"pants construction inconsistent: seam "
                                f"distance {d} != {alphas[s]}")

    refl = tuple(reflection_mat(*g) for g in seams)
    # X_i is the product of reflections in the two seams adjacent to slot i,
    # ordered so that X1 X2 X3 = 1 exactly.
    slot_hol = (mat_mul(refl[1], refl[2]), mat_mul(refl[2], refl[0]),
                mat_mul(refl[0], refl[1]))

    slot_is_cusp = tuple(a == 0.0 for a in alphas)
    slot_axis = []
    slot_point = []
    for s in range(3):
        i, j = _SEAM_ENDS[s]
        if slot_is_cusp[s]:
            slot_axis.append(None)
            slot_point.append(_shared_endpoint(seams[i], seams[j]))
        else:
            # only the gluing reads the axis, but building it is the check
            # that rejects adjacent seams float64 can no longer tell apart
            # ("geodesics are not disjoint"), so it stays with the pants
            slot_axis.append(common_perpendicular_ends(*seams[i], *seams[j]))
            slot_point.append(None)

    _check_pants(lengths, slot_is_cusp, slot_hol)
    return StdPants(
        lengths=lengths,
        seams=seams,
        slot_is_cusp=slot_is_cusp,
        slot_axis=tuple(slot_axis),
        slot_point=tuple(slot_point),
        slot_hol=slot_hol,
        seam_refl=refl,
    )


def _shared_endpoint(ga, gb):
    """The ideal point shared by two geodesics given by their endpoints."""
    for x in ga:
        for y in gb:
            if x == y:
                return x
    raise GeometryError("adjacent seams of a cusp slot must share an endpoint")


def _check_pants(lengths: tuple, slot_is_cusp: tuple, slot_hol: tuple):
    """Slot kinds and lengths, and the relation, of the holonomy matrices."""
    for i in range(3):
        x = slot_hol[i]
        kind = mat_classify(x)
        if slot_is_cusp[i]:
            if kind != "parabolic":
                raise GeometryError(f"cusp slot {i} holonomy is {kind}")
        else:
            if kind != "hyperbolic":
                raise GeometryError(f"slot {i} holonomy is {kind}")
            got = mat_translation_length(x)
            want = lengths[i]
            if abs(got - want) > _SLOT_LENGTH_TOL * max(1.0, want):
                raise GeometryError(
                    f"slot {i} length {got} differs from requested {want}")
    prod = mat_mul(mat_mul(slot_hol[0], slot_hol[1]), slot_hol[2])
    if mat_classify(prod) != "identity":
        raise GeometryError("pants relation X1 X2 X3 = 1 violated")


def slot_normalizer(pants: StdPants, slot: int):
    """Map sending the slot axis to (0, inf), marker to i, body to Re > 0.

    The marker is the foot on the slot axis of the seam joining the slot
    to the next one, seam (slot + 2) mod 3.  Standard position puts the
    pants on the left of the axis oriented from the repelling to the
    attracting fixed point of the slot holonomy, so the body lands in
    Re > 0 when the attracting end goes to 0.  That end comes first in
    the stored axis of slots 0 and 2 and last in that of slot 1.  Only
    the gluing (surface.holonomy_from_fn) reads the normalizer, so it is
    built here rather than with the pants.
    """
    if pants.slot_is_cusp[slot]:
        raise GeometryError("cusp slots cannot be glued")
    axis = pants.slot_axis[slot]
    marker = geodesic_intersection(axis, pants.seams[(slot + 2) % 3])
    m = two_point_mat(*(axis[::-1] if slot == 1 else axis))
    s = math.sqrt(mat_apply(m, marker).imag)
    return mat_mul(_unit_det(1.0 / s, 0.0, 0.0, s), m)
