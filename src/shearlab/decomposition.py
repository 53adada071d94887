"""The array program of a sampling block: every pants of a campaign
built and developed, and its seam arcs measured, in one numpy batch.

pants_batch runs the construction (pants.build_pants), the develop and
shear-point margins (spiralling.pants_kernel) and the curve-length check
of each slot's holonomy (surface.check_curve_holonomy) over numpy arrays
of every length triple of a block of samples at once, in input order,
cusped and thin pants included.  It uses the same formulas in the same
operation order as the scalar code, so a triple it handles gets the
scalar path's bits: slot holonomies, shears, residuals, margins in
kernel order and quadrilaterals.  Every operation is elementwise, so a
triple's bits do not depend on the others in its batch, and a repeated
triple gets the same bits each time.  It returns them as arrays with
one row per input triple (Batch), with no object per triple; report
reduces them per surface.

The batch also gives the seam arcs of the shortness certificate
(Batch.arcs).  Cutting a pair of pants along its three seams (the
mutual perpendiculars between boundary components) gives two
right-angled hexagons.  The raw and truncated lengths of each seam arc,
after removing standard cusp neighborhoods (bounded by horocycles of
length 2) and the collars of curves no longer than 2 asinh 1, are
closed forms in the pants' length triple (_arcs) with no check of their
own; no code builds the certificate's rows (arcs_short reads from the
floats whether each would pass).  The scalar forms stay with the named
rows and the geometric measurement as the tests' oracle
(tests/geometric_oracle.py).  The doubled-loop bound has no row: the
seam word X_i X_j is conjugate to the third boundary of its pants
(X1 X2 X3 = 1), so a row on it would only repeat that curve's row.

Elementwise + - * /, abs, comparisons, np.sqrt and np.hypot (libm's
hypot, which abs(complex) calls) round exactly as CPython does.
numpy's transcendental and power ufuncs do not (its SIMD tanh, cosh,
asinh, exp, log and ``arr ** 2`` differ from math in the last bit on a
share of inputs), so every transcendental is computed with math, one
element at a time (_each maps it over the selected elements and reads
the results back with np.fromiter, with no list in between), and a
function of one length (_seam_param, the truncated collar width, the
arcs' cosh, sinh and collar width) once per distinct length of the
batch (_distinct, taken once).  numpy's complex product, quotient and
abs round differently from CPython's too, so the interior points of
the kernel (incircle centres, perpendicular feet) are pairs of real
arrays, and CPython's complex operations are written out in its order:
a float times a complex is complex(a, 0) * z, and a quotient takes
_Py_c_quot's branch on |re| >= |im|.  tests/test_hygiene.py rejects any numpy
transcendental, ``**``, ``pow`` or complex number here.

On arrays of a block's size a numpy call costs more than its
arithmetic, so a step taken on several arrays of one shape is taken
once, on arrays made in their stacked shape: the ends of the three
seams are one (end, seam, rows) array, the seam reflections R_k one
(entry, seam, rows) array, the slot holonomies X_s and the back-corner
stabilizers R_k X_k R_k one (entry, side, slot, rows) array, classified
and solved for their fixed points once, and the front and back corners
one (side, slot, rows) array.  A margin reads its corner's stabilizer,
fixed points and class at one flat index into that (side, slot, rows)
layout.  Each element still takes the scalar path's operations in its
order, so stacking changes no bit.

A cusp at slot 1 lies at infinity; the points at infinity of
two_point_mat, three_point_mat, cross_ratio, mat_apply_boundary and
reflection_mat are taken by masks, per element.  A triple is handled
only when its lengths are finite and not negative, every check of the
scalar path passes and only the branches written here are taken.  Any
failed check (a margin that is not positive included), zero
denominator, near-vertical fixed-point branch of a curve slot, class
other than the expected one, or non-finite value leaves the triple
unhandled: it goes through the unchanged scalar build_pants and
pants_kernel, which are the reference of this batch and report its
errors by name.  So handled means exactly that every check of the
construction and the develop passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (INTERMEDIATE_CURVE_MAX, ShearFreeParams,
                        truncated_collar_width)
from .geom import _STD_CENTER, _VERTICAL_TOL, CLASSIFY_TOL, INF, mat_mul
from .pants import (_CONSTRUCTION_TOL, _SEAM_ENDS, _SLOT_LENGTH_TOL,
                    _seam_param)
from .spiralling import _FIX_TOL
from .surface import _CURVE_LENGTH_TOL


@dataclass(slots=True)
class Batch:
    """The batch's results, as arrays with one row per input triple.

    Only the rows where handled holds carry the scalar path's values;
    every other triple is left to the scalar route, which does not
    compute arcs: the closed forms have no check, so every row whose
    lengths build_pants accepts carries them.
    """

    handled: np.ndarray       # (rows,) every check passed
    shears: np.ndarray        # (rows, 3) shear of seam arc k
    residuals: np.ndarray     # (rows, 3) relation residual at slot s
    margins: np.ndarray       # every margin, row after row, kernel order
    first: np.ndarray         # (rows + 1,) margins of row r are
                              # margins[first[r]:first[r + 1]]
    translation: np.ndarray   # (rows, 3) geom.mat_translation_length of
                              # X_s at a curve slot, NaN at a cusp
    curve_ok: np.ndarray      # (rows, 3) surface.check_curve_holonomy
                              # passes at a curve slot
    hol: np.ndarray           # (rows, 3, 4) X_s as (a, b, c, d)
    quadrilaterals: np.ndarray  # (rows, 3, 4) per arc k: (p, front apex,
                                # q, back apex)
    arcs: np.ndarray          # (rows, 3, 3) per arc k: its raw, slack and
                              # truncated length (_arcs)


# the end slots i, j of each seam (pants._SEAM_ENDS), as row indices
_I = [i for i, _ in _SEAM_ENDS]
_J = [j for _, j in _SEAM_ENDS]
# the slot of corner c (i, j, k, 3 + k) of arc k, at [c, k]
_SLOT = np.array([_I, _J, [0, 1, 2], [0, 1, 2]])
# the seams a, b of slot s's holonomy X_s = R_a R_b: X1 = R1 R2,
# X2 = R2 R0, X3 = R0 R1
_A, _B = [1, 2, 0], [2, 0, 1]
# the signs of the slot axis' ends -r, r
_SIGNS = np.array([-1.0, 1.0])[:, None, None]
# per triangle of an arc (front, back): whether its apex lies on the
# other side of the arc from the front apex
_BACK = np.array([[False], [True]])


def _map(fn, x):
    """fn (a math function) of each element of the 1-d array x."""
    return np.fromiter(map(fn, x.tolist()), float, len(x))


def _each(fn, x, mask):
    """fn (a math function) of each element of x where mask holds, NaN
    elsewhere."""
    out = np.empty(x.shape)
    out.fill(math.nan)
    out[mask] = _map(fn, x[mask])
    return out


def _distinct(x):
    """The distinct bit patterns of the float array x, as floats, and the
    position of each element of x among them: np.unique of an int64 view
    keeps -0.0 and 0.0, and NaN payloads, apart."""
    keys, where = np.unique(x.view(np.int64), return_inverse=True)
    return keys.view(float), where.reshape(x.shape)


def _once(fn, values, where, mask):
    """_each(fn, values[where], mask), with fn taken once per distinct
    value: values and where are _distinct's."""
    need = np.zeros(values.shape, dtype=bool)
    need[where[mask]] = True
    return np.where(mask, _each(fn, values, need)[where], math.nan)


def _pick(cases, choices, default):
    """np.select(cases, choices, default) as nested np.where, which costs
    far less on arrays of a block's size: the first case that holds
    picks its choice."""
    out = default
    for case, choice in zip(reversed(cases), reversed(choices)):
        out = np.where(case, choice, out)
    return out


def _unit_det(a, b, c, d):
    """geom._unit_det, and where the determinant is positive."""
    det = a * d - b * c
    s = np.sqrt(det)
    return (a / s, b / s, c / s, d / s), det > 0


def _two_point(p, q):
    """geom.two_point_mat of normalized ends, and where p != q and its
    determinant is positive."""
    p_inf, q_inf = p == INF, q == INF
    cases = [p_inf, q_inf, p < q]
    m, good = _unit_det(np.where(p_inf, 0.0, 1.0), np.where(p_inf, -1.0, -p),
                        _pick(cases, [1.0, 0.0, -1.0], 1.0),
                        _pick(cases, [-q, 1.0, q], -q))
    return m, good & (p != q)


def _three_point(p, q, r):
    """geom.three_point_mat of normalized points, and where its checks
    pass."""
    cases = [r == INF, p == INF, q == INF]
    m, good = _unit_det(_pick(cases, [q - p, r, r], r * (q - p)),
                        _pick(cases, [p, q - r, -p], p * (r - q)),
                        _pick(cases, [0.0, 1.0, 1.0], q - p),
                        _pick(cases, [1.0, 0.0, -1.0], r - q))
    return m, good & _cyclic(p, q, r)


def _apply(m, x):
    """geom.mat_apply_boundary, x possibly infinite."""
    a, b, c, d = m
    den = c * x + d
    y = np.where(den == 0.0, INF, (a * x + b) / den)
    return np.where(x == INF, np.where(abs(c) == 0.0, INF, a / c),
                    np.where(y == -INF, INF, y))


def _quotient(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) as CPython's _Py_c_quot computes it, and
    where it raises no ZeroDivisionError."""
    by_real = abs(br) >= abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im, np.where(by_real, br != 0.0, abs(bi) >= abs(br))


def _apply_point(m, zr, zi):
    """geom.mat_apply at the interior point zr + i zi, in CPython's
    complex arithmetic, and where it divides by no zero."""
    a, b, c, d = m
    return _quotient(a * zr - 0.0 * zi + b, a * zi + 0.0 * zr + 0.0,
                     c * zr - 0.0 * zi + d, c * zi + 0.0 * zr + 0.0)


def _foot(zr, zi, p, q):
    """geom.perpendicular_foot of zr + i zi on the geodesic from p to q,
    and where its steps are defined."""
    m, good = _two_point(p, q)
    wr, wi, fine = _apply_point(m, zr, zi)
    a, b, c, d = m
    fr, fi, ok = _apply_point((d, -b, -c, a), 0.0, np.hypot(wr, wi))
    return fr, fi, good & fine & ok


def _classify(m):
    """Masks of the matrices geom.mat_classify calls identity, parabolic,
    hyperbolic."""
    a, b, c, d = m
    identity = ((abs(b) <= CLASSIFY_TOL) & (abs(c) <= CLASSIFY_TOL)
                & (abs(abs(a) - 1.0) <= CLASSIFY_TOL)
                & (abs(abs(d) - 1.0) <= CLASSIFY_TOL) & (a * d > 0))
    t = abs(a + d)
    rest = ~identity & ~(t < 2.0 - CLASSIFY_TOL)
    return identity, rest & (t <= 2.0 + CLASSIFY_TOL), rest & ~(
        t <= 2.0 + CLASSIFY_TOL)


def _fixed_points(m):
    """geom.mat_fixed_points of hyperbolic matrices as (att, rep), and
    where c is far enough from 0 for the two-root branch."""
    a, _, c, d = m
    tr = a + d
    disc = np.sqrt(tr * tr - 4.0)
    big = np.maximum(np.maximum(1.0, abs(a)), abs(d))
    x1 = ((a - d) + disc) / (2.0 * c)
    x2 = ((a - d) - disc) / (2.0 * c)
    first = abs(c * x1 + d) > 1.0
    att = np.where(first, x1, x2)
    rep = np.where(first, x2, x1)
    return att, rep, ~(abs(c) < _VERTICAL_TOL * big) & (att != rep)


def _fixed(point, m):
    """spiralling._check_corner passes."""
    img = _apply(m, point)
    return np.where((point == INF) | (img == INF), img == point,
                    abs(img - point) <= _FIX_TOL * np.maximum(1.0,
                                                              abs(point)))


def _cyclic(a, b, c):
    """geom.cyclically_ordered of distinct normalized points, at most one
    of them infinite (the finite test then reduces to its inf cases)."""
    return ((a < b) & (b < c)) | ((b < c) & (c < a)) | ((c < a) & (a < b))


def _cross_ratio(p1, p2, p3, p4):
    """geom.cross_ratio of distinct normalized points."""
    return _pick([p1 == INF, p2 == INF, p3 == INF, p4 == INF],
                 [(p2 - p4) / (p2 - p3), (p1 - p3) / (p1 - p4),
                  (p2 - p4) / (p1 - p4), (p1 - p3) / (p2 - p3)],
                 ((p1 - p3) * (p2 - p4)) / ((p1 - p4) * (p2 - p3)))


def _reflection(p, q):
    """geom.reflection_mat of the geodesic (p, q), p finite."""
    at_inf = q == INF
    c = (p + q) / 2.0
    r = abs(q - p) / 2.0
    return (np.where(at_inf, -1.0, c / r),
            np.where(at_inf, 2.0 * p, (r * r - c * c) / r),
            np.where(at_inf, 0.0, 1.0 / r), np.where(at_inf, 1.0, -c / r))


def _corner(x, cusp):
    """Where x is a corner the batch takes: finite, or the normalized
    infinity at a cusp."""
    return np.isfinite(x) | cusp & (x == INF)


@np.errstate(all="ignore")
def pants_batch(triples, params: ShearFreeParams) -> Batch:
    """The Batch of the triples: its row r is triples[r], a
    boundary-length triple (0 = cusp).  triples is a sequence or an
    (inputs, 3) array.

    Every array below has a row per slot s, seam k or arc k (shape (3,
    inputs)), after the leading axes of a stacked array: slot s lies
    between seams _SEAM_ENDS[s], and arc k joins the slots
    _SEAM_ENDS[k].
    """
    lengths = np.asarray(triples, dtype=float).reshape(-1, 3).T
    n = lengths.shape[1]
    alphas = lengths / 2.0
    cusp = alphas == 0.0
    values, where = _distinct(lengths)
    # pants.build_pants: seams[0] = (u, v), seams[1] = (p, 1), seams[2] =
    # (0, inf), with p = ts[0] and (u, v) from pants._solve_third_seam,
    # whose branch is the cusp pattern of slots 1 and 2
    seam_params = _map(_seam_param, values / 2.0)
    ts = seam_params[where]
    # a slot is a cusp for build_pants, for the seam arcs (_arcs) and for
    # its seam branch alike
    ok = ((lengths >= 0.0) & (lengths < INF) & (ts != 1.0)
          & ((ts == 0.0) == cusp) & ((lengths == 0.0) == cusp)).all(axis=0)
    p, t2, t3 = ts
    _, c1, c2 = cusp
    b = (1.0 + p * t2 - t3 * (t2 + p)) / (t3 - 1.0)
    disc = b * b - 4.0 * t2 * p
    ok &= c1 | c2 | (disc > 0)
    root = (-b + np.sqrt(disc)) / (2.0 * t2)
    u = _pick([c1 & c2, c1, c2], [1.0, (1.0 - p * t3) / (1.0 - t3), 1.0],
              t2 * root)
    v = _pick([c1, c2], [INF, 1.0 / t2], root)
    ok &= (u != v) & np.isfinite(u) & (np.isfinite(v) | c1)
    # seams[:, k] are the two ends of seam k
    seams = np.empty((2, 3, n))
    seams[:, 0] = u, v
    seams[0, 1], seams[1, 1] = p, 1.0
    seams[:, 2] = [[0.0], [INF]]

    # per slot s, between seams[i] and seams[j]: ends_distance, then the
    # common perpendicular (the slot axis) of a curve slot or the shared
    # endpoint (the cusp point) of a cusp slot; both read the map m of
    # seams[i] and the images x, y of the ends of seams[j]
    ga, gb = seams[:, _I], seams[:, _J]
    m, fine = _two_point(*ga)
    x, y = _apply(m, gb)
    xy = x * y
    gap = abs(y - x)
    asymptotic = (x == INF) | (y == INF)
    fine &= asymptotic | ~(xy < 0)
    far = ~asymptotic & (x != 0.0) & (y != 0.0)
    fine &= ~far | (gap != 0.0)
    dist = np.where(far, _each(math.asinh, 2.0 * np.sqrt(xy) / gap, far),
                    0.0)
    fine &= ~(abs(dist - alphas) > _CONSTRUCTION_TOL
              * np.maximum(1.0, alphas))
    r = np.sqrt(xy)
    r = np.where(x < 0, -r, r)
    ma, mb, mc, md = m
    axis_ends = _apply((md, -mb, -mc, ma), r * _SIGNS)
    fine &= cusp | (~asymptotic & (xy > 0) & (axis_ends[0] != axis_ends[1]))
    # meets[e]: end e of seams[i] is an end of seams[j]
    meets = (ga[:, None] == gb).any(axis=1)
    shared = np.where(meets[0], ga[0], np.where(meets[1], ga[1], math.nan))
    fine &= ~cusp | meets[0] | meets[1]

    # the seam reflections R_k and slot holonomies X_s = R_a R_b, and
    # pants._check_pants
    refl = np.empty((4, 3, n))
    refl[:, :2] = _reflection(seams[0, :2], seams[1, :2])
    refl[:, 2] = [[-1.0], [0.0], [0.0], [1.0]]
    # mats[:, 0, s] is X_s and mats[:, 1, k] the stabilizer R_k X_k R_k
    # of back corner k
    mats = np.empty((4, 2, 3, n))
    mats[:, 0] = mat_mul(refl[:, _A], refl[:, _B])
    hol = mats[:, 0]
    mats[:, 1] = mat_mul(mat_mul(refl, hol), refl)
    _, parabolic, hyperbolic = _classify(mats)
    got = 2.0 * _each(math.acosh, abs(hol[0] + hol[3]) / 2.0,
                      hyperbolic[0] & ~cusp)
    fine &= np.where(cusp, parabolic[0], hyperbolic[0] & ~(
        abs(got - lengths) > _SLOT_LENGTH_TOL * np.maximum(1.0, lengths)))
    # surface.check_curve_holonomy on the same translation length
    # (geom.mat_translation_length), at its own tolerance
    curve_ok = hyperbolic[0] & ~cusp & ~(
        abs(got - lengths) > _CURVE_LENGTH_TOL * np.maximum(1.0, lengths))
    identity, _, _ = _classify(mat_mul(mat_mul(hol[:, 0], hol[:, 1]),
                                       hol[:, 2]))
    ok &= identity

    # spiralling.pants_kernel: front corner s is the cusp point or the
    # attracting fixed point of X_s, back corner k the mirror of the cusp
    # point or the repelling fixed point of R_k X_k R_k
    att, rep, regular = _fixed_points(mats)
    fine &= cusp | (regular[0] & hyperbolic[1] & regular[1])
    # per arc k: (p, front apex, q, back apex), the edge from front corner
    # i to front corner j and the apexes front corner k and back corner k
    quad = np.empty((4, 3, n))
    edge, corners = quad[::2], quad[1::2]
    corners[0] = np.where(cusp, shared, att[0])
    corners[1] = np.where(cusp, _apply(refl, shared), rep[1])
    fine &= (_fixed(corners, mats) & _corner(corners, cusp)).all(axis=0)
    edge[:] = corners[0][[_I, _J]]
    pk, qk = edge
    fine &= ((pk != qk) & (edge[:, None] != corners).all(axis=(0, 1))
             & (corners[0] != corners[1]))
    left = _cyclic(pk, qk, corners)
    front_left = left[0]
    fine &= front_left != left[1]
    cr = _cross_ratio(pk, qk, *np.where(front_left, corners[::-1], corners))
    fine &= cr < 0
    shears = -_each(math.log, -cr, cr < 0)
    residuals = abs(shears[_I] + shears[_J] - lengths)

    # the shear-point margins, of the arcs with a thin corner: per arc k
    # its corners i, j, k, 3 + k (on the slots _SLOT[:, k]), per corner
    # the shear points of the front and the back triangle
    short_max = 2.0 * math.tanh(params.rho)
    thin = cusp | (lengths <= short_max)
    thin_corner = thin[_SLOT]                 # (corner, arc, n)
    # the arcs with a thin corner, at their flat (arc, triple) indices;
    # the shear points of the m-th of them are at [:, m]
    thin_arc = np.flatnonzero(thin_corner.any(axis=0))
    z_index = np.zeros(3 * n, dtype=int)
    z_index[thin_arc] = np.arange(len(thin_arc))
    arc_quad = quad.reshape(4, -1).take(thin_arc, axis=1)
    arc_p, arc_q = arc_quad[::2]
    apex = arc_quad[1::2]                     # (triangle, arc with margins)
    on_left = front_left.take(thin_arc) != _BACK
    tri, good = _three_point(arc_p, np.where(on_left, arc_q, apex),
                             np.where(on_left, apex, arc_q))
    centre_r, centre_i, fine_centre = _apply_point(
        tri, _STD_CENTER.real, _STD_CENTER.imag)
    zr, zi, fine_foot = _foot(centre_r, centre_i,
                              np.where(on_left, arc_p, arc_q),
                              np.where(on_left, arc_q, arc_p))
    bad = np.zeros(3 * n, dtype=bool)
    bad[thin_arc] = ~(good & fine_centre & fine_foot).all(axis=0)
    fine &= ~bad.reshape(3, n)
    # one entry per margin, ordered as the kernel appends them: by triple,
    # arc, corner, triangle
    col, arc, corner = (e.repeat(2) for e in np.nonzero(
        thin_corner.transpose(2, 1, 0)))
    tri = np.arange(len(col)) & 1
    z = tri * len(thin_arc) + z_index[arc * n + col]
    zr, zi = zr.take(z), zi.take(z)
    # the flat index of the corner's slot in a (3, n) array, and of its
    # stabilizer (X_s at a front corner, R_k X_k R_k at back corner k,
    # whose slot is k), fixed points and class in a (2, 3, n) one
    slot = _SLOT[corner, arc] * n + col
    at = slot + corner // 3 * (3 * n)
    at_cusp = cusp.take(slot)
    a, b, c, d = mats.reshape(4, -1).take(at, axis=1)
    # a cusp corner: the horocycle through the point, in the frame of the
    # corner's stabilizer
    at_inf = abs(c) <= CLASSIFY_TOL * np.maximum(np.maximum(1.0, abs(a)),
                                                  abs(d))
    shift_map, _ = _unit_det(0.0, -1.0, 1.0, -np.where(
        at_inf, INF, (a - d) / (2.0 * c)))
    hm = tuple(np.where(at_inf, e0, e)
               for e0, e in zip((1.0, 0.0, 0.0, 1.0), shift_map))
    g = mat_mul(mat_mul(hm, (a, b, c, d)), (hm[3], -hm[1], -hm[2], hm[0]))
    # a curve corner: the distance to the corner's axis, against the
    # truncated collar width of its curve
    axis, fine_axis = _two_point(att.take(at), rep.take(at))
    wr, wi, fine_point = _apply_point(
        tuple(np.where(at_cusp, h, e) for h, e in zip(hm, axis)), zr, zi)
    widths = _once(_truncated_width(params), values, where, thin & ~cusp)
    margins = np.where(at_cusp, abs(g[0] * g[1]) / wi - params.delta2,
                       _each(math.asinh, abs(wr) / wi, ~at_cusp)
                       - widths.take(slot))
    passed = (np.where(at_cusp, parabolic.take(at), fine_axis) & fine_point
              & (margins > 0.0) & np.isfinite(margins))
    ok &= np.bincount(col[~passed], minlength=n) == 0
    fine &= (np.isfinite(shears) & np.isfinite(residuals)
             & np.isfinite(hol).all(axis=0))
    ok &= fine.all(axis=0)

    # the margins of triple i are margins[first[i]:first[i + 1]]
    first = np.zeros(n + 1, dtype=int)
    np.cumsum(np.bincount(col, minlength=n), out=first[1:])
    return Batch(ok, shears.T, residuals.T, margins, first, got.T,
                 curve_ok.T, hol.transpose(2, 1, 0), quad.transpose(2, 1, 0),
                 _arcs(values, where, seam_params != 1.0))


def _arcs(values, where, accepted):
    """The bounded lengths of the three seam arcs of each triple, shaped
    (rows, arc k, (raw, slack, truncated)).

    values and where are _distinct's of the batch's (3, rows) lengths (0
    = cusp), and accepted marks the values build_pants accepts, those
    whose _seam_param is not 1.0: every function of one length is taken
    there only, so math.cosh never overflows (from about 76 on, or at
    inf, every triple fails by name), and an arc that reads any other
    length is NaN.  Arc k joins the slots i < j other than k; raw is its
    seam length a_k (pants.seam_lengths) and slack the collar widths w
    of the intermediate curves at its ends.  By the collar lemma only
    the two ends are cut: a_k - w(l_i) - w(l_j) between curves,
    log((cosh(l_k/2) + cosh(l_o/2)) / sinh(l_o/2)) - w(l_o) from a cusp
    to a curve o (each clamped at 0), and log((1 + cosh(l_k/2)) / 2)
    between cusps.  At an arc with a cusp end the raw length is
    unbounded: raw and slack are NaN.
    """
    n = where.shape[1]
    cusp = (values == 0.0)[where]
    half = values / 2.0
    # per distinct length: cosh and sinh of its half, and the collar
    # width of an intermediate curve (0 for a longer one)
    per = np.empty((3, len(values)))
    per[0] = _each(math.cosh, half, accepted)
    per[1] = sh = _each(math.sinh, half, accepted)
    intermediate = accepted & (values != 0.0) & (
        values <= INTERMEDIATE_CURVE_MAX)
    per[2] = np.where(intermediate, _each(math.asinh, 1.0 / sh,
                                          intermediate),
                      np.where(values == 0.0, math.nan, 0.0))
    # the three at the slot k of arc k and at its end slots i, j
    slots = per[:, where]
    ch, sh, _ = slots
    ends = slots[:, [_I, _J]]
    (ch_i, ch_j), (sh_i, sh_j), (collar_i, collar_j) = ends
    cusp_i, cusp_j = cusp[[_I, _J]]
    both, one = ~cusp_i & ~cusp_j, cusp_i != cusp_j
    two = cusp_i & cusp_j
    arg = (ch_i * ch_j + ch) / (sh_i * sh_j)
    raw = _each(math.acosh, arg, both & (arg >= 1.0))
    # the log of the depth from a cusp to the curve end o of an arc with
    # one cusp end, or of the gap between two cusps
    ch_o, sh_o, collar_o = np.where(cusp_i, ends[:, 1], ends[:, 0])
    arg = np.where(two, (1.0 + ch) / 2.0, (ch + ch_o) / sh_o)
    logs = _each(math.log, arg, two | one & (arg > 0.0))
    cut = _pick([both, one], [raw - collar_i - collar_j, logs - collar_o],
                logs)
    arcs = np.empty((3, 3, n))    # (raw, slack, truncated) of arc k
    arcs[0] = np.where(both, raw, math.nan)
    arcs[1] = np.where(both, collar_i + collar_j, math.nan)
    arcs[2] = np.where(both | one, np.where(cut > 0.0, cut, 0.0), logs)
    return arcs.transpose(2, 1, 0)


def _truncated_width(params):
    """constants.truncated_collar_width at params, NaN where it raises
    (the scalar kernel raises it by name)."""
    def width(length):
        try:
            return truncated_collar_width(length, params)
        except (ValueError, AssertionError):
            return math.nan
    return width


def arcs_short(arcs, log4a: float) -> np.ndarray:
    """Whether every arc of each pants meets its raw and truncated bound:
    6 log(4 area), plus the slack for the raw length between two curves.
    arcs is Batch.arcs' array, possibly reshaped on its leading axis; the
    result drops its last two axes.
    """
    raw, slack, trunc = np.moveaxis(arcs, -1, 0)
    bound = 6.0 * log4a
    return ((np.isnan(raw) | (raw <= bound + slack))
            & (trunc <= bound)).all(axis=-1)
