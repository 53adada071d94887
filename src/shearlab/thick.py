"""The thick compact pants of a campaign, built and developed in one batch.

A pants with no cusp and every boundary curve longer than 2 tanh(rho),
the kernel's own thinness test, has no shear-point margin rows, and its
construction (pants.build_pants) and develop (spiralling.pants_kernel)
are plain real arithmetic.  thick_batch runs both over numpy arrays of
all such length triples at once, with the same formulas in the same
operation order as the scalar code, so a triple it handles gets the
scalar path's bits: slot holonomies, shears, residuals and (empty)
margins.

Elementwise + - * /, abs, comparisons and np.sqrt round exactly as
Python floats do.  numpy's transcendental and power ufuncs do not (its
SIMD tanh, cosh, asinh, exp, log and ``arr ** 2`` differ from math in
the last bit on a share of inputs), so tanh, asinh, acosh, log and the
square of tanh are computed with math, one element at a time, and
tests/test_hygiene.py rejects any numpy transcendental or ``**`` here.

A triple is handled only when every check of the scalar path passes and
only its common branches are taken.  Any failed check, point at
infinity, zero denominator, near-vertical fixed-point branch, class
other than the expected one, or non-finite value leaves the triple
unhandled: it goes through the unchanged scalar build_pants and
pants_kernel, which are the reference of this batch and report its
errors by name.  Cusped and thin pants always take the scalar route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ShearFreeParams
from .geom import CLASSIFY_TOL, Isometry, mat_mul
from .pants import _CONSTRUCTION_TOL, _SEAM_ENDS, _seam_param
from .spiralling import _FIX_TOL, PantsKernel


@dataclass(slots=True)
class ThickPants:
    """What report.run_surface reads of a pants the batch handled: the
    fields of StdPants it reads, and the kernel of the pants."""

    lengths: tuple
    slot_is_cusp: tuple
    slot_hol: tuple           # three Isometry values, as build_pants gives
    kernel: PantsKernel


_NOT_CUSP = (False, False, False)
# the end slots i, j of each seam (pants._SEAM_ENDS), as row indices
_I = [i for i, _ in _SEAM_ENDS]
_J = [j for _, j in _SEAM_ENDS]
# slots whose second seam, seams[2], ends at infinity
_AT_INF = np.array([[True], [True], [False]])


def _each(fn, x):
    """The math function fn applied to each element of the array x."""
    return np.array(list(map(fn, x.ravel().tolist())),
                    dtype=float).reshape(x.shape)


def _two_point(p, q):
    """geom.two_point_mat for finite p != q, and where det > 0."""
    below = p < q
    c = np.where(below, -1.0, 1.0)
    d = np.where(below, q, -q)
    b = -p
    det = 1.0 * d - b * c
    s = np.sqrt(det)
    return (1.0 / s, b / s, c / s, d / s), (p != q) & (det > 0)


def _apply(m, x):
    """geom.mat_apply_boundary at a finite x, and where its den != 0."""
    a, b, c, d = m
    den = c * x + d
    return (a * x + b) / den, den != 0.0


def _apply_inf(m):
    """geom.mat_apply_boundary at infinity, and where c != 0."""
    a, _, c, _ = m
    return a / c, abs(c) != 0.0


def _classify(m):
    """Masks of the matrices geom.mat_classify calls identity, hyperbolic."""
    a, b, c, d = m
    identity = ((abs(b) <= CLASSIFY_TOL) & (abs(c) <= CLASSIFY_TOL)
                & (abs(abs(a) - 1.0) <= CLASSIFY_TOL)
                & (abs(abs(d) - 1.0) <= CLASSIFY_TOL) & (a * d > 0))
    return identity, ~identity & (abs(a + d) > 2.0 + CLASSIFY_TOL)


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
    return att, rep, ~(abs(c) < 1e-14 * big) & (att != rep)


def _fixed(point, m):
    """spiralling._check_corner at a finite point."""
    img, ok = _apply(m, point)
    return ok & (abs(img - point) <= _FIX_TOL * np.maximum(1.0,
                                                           abs(point)))


def _cyclic(a, b, c):
    """geom.cyclically_ordered of finite points."""
    return ((a < b) & (b < c)) | ((b < c) & (c < a)) | ((c < a) & (a < b))


def _reflection(p, q):
    """geom.reflection_mat of finite ends."""
    c = (p + q) / 2.0
    r = abs(q - p) / 2.0
    return (c / r, (r * r - c * c) / r, 1.0 / r, -c / r)


def thick_batch(triples, params: ShearFreeParams) -> dict:
    """The ThickPants of every thick compact triple the batch handles.

    triples are boundary-length triples (0 = cusp); only the distinct
    ones whose lengths all exceed 2 tanh(rho) are computed, and an empty
    dict is returned, with no numpy work, when there are none.  The
    result maps each handled triple to its ThickPants; every other
    triple is left to the scalar route.
    """
    short_max = 2.0 * math.tanh(params.rho)
    todo = list(dict.fromkeys(
        ls for ls in triples
        if all(short_max < length < math.inf for length in ls)))
    if not todo:
        return {}
    with np.errstate(all="ignore"):
        return _batch(todo)


def _batch(todo):
    """thick_batch on the distinct thick compact triples todo.

    Every array has a row per slot s, seam k or arc k (shape (3, n)):
    slot s lies between seams _SEAM_ENDS[s], and arc k joins the slots
    _SEAM_ENDS[k].
    """
    n = len(todo)
    lengths = np.array(todo, dtype=float).T
    # pants.build_pants: seams[0] = (u, v), seams[1] = (p, 1), seams[2] =
    # (0, inf), with p = ts[0] and (u, v) from pants._solve_third_seam
    alphas = lengths / 2.0
    ts = _each(_seam_param, alphas)
    p, t2, t3 = ts
    ok = (ts != 1.0).all(axis=0) & (t2 != 0.0) & (t3 != 0.0)
    b = (1.0 + p * t2 - t3 * (t2 + p)) / (t3 - 1.0)
    disc = b * b - 4.0 * t2 * p
    ok &= disc > 0
    v = (-b + np.sqrt(disc)) / (2.0 * t2)
    u = t2 * v
    ok &= (u != v) & np.isfinite(u) & np.isfinite(v)
    # the distance between the two seams at each slot, and its common
    # perpendicular (the slot axis): ends_distance and
    # common_perpendicular_ends share the map m and the images x, y
    zeros, ones = np.zeros(n), np.ones(n)
    m, fine = _two_point(np.stack([p, u, u]), np.stack([ones, v, v]))
    x, good = _apply(m, np.stack([zeros, zeros, p]))
    fine &= good
    y_far, good_far = _apply(m, 1.0)
    y_inf, good_inf = _apply_inf(m)
    y = np.where(_AT_INF, y_inf, y_far)
    xy = x * y
    gap = abs(y - x)
    fine &= (np.where(_AT_INF, good_inf, good_far) & (xy > 0) & (gap != 0.0)
             & np.isfinite(x) & np.isfinite(y))
    dist = _each(math.asinh, 2.0 * np.sqrt(xy) / gap)
    fine &= ~(abs(dist - alphas) > _CONSTRUCTION_TOL
              * np.maximum(1.0, alphas))
    r = np.sqrt(xy)
    r = np.where(x < 0, -r, r)
    ma, mb, mc, md = m
    inv = (md, -mb, -mc, ma)
    e1, good = _apply(inv, -r)
    fine &= good
    e2, good = _apply(inv, r)
    fine &= good & (e1 != e2) & np.isfinite(e1) & np.isfinite(e2)
    # the seam reflections and slot holonomies X1 = R1 R2, X2 = R2 R0,
    # X3 = R0 R1, and pants._check_pants
    r0, r1, r2 = (_reflection(u, v), _reflection(p, 1.0),
                  (-1.0, 0.0, 0.0, 1.0))
    hol = tuple(np.stack(e) for e in zip(mat_mul(r1, r2), mat_mul(r2, r0),
                                         mat_mul(r0, r1)))
    _, hyperbolic = _classify(hol)
    got = 2.0 * _each(math.acosh, np.where(
        hyperbolic, abs(hol[0] + hol[3]) / 2.0, 1.0))
    fine &= hyperbolic & ~(abs(got - lengths) > 1e-8
                           * np.maximum(1.0, lengths))
    identity, _ = _classify(mat_mul(
        mat_mul(tuple(e[0] for e in hol), tuple(e[1] for e in hol)),
        tuple(e[2] for e in hol)))
    ok &= identity

    # spiralling.pants_kernel: front corner s is the attracting fixed
    # point of X_s, back corner k the repelling one of R_k X_k R_k
    front, _, good = _fixed_points(hol)
    fine &= good & _fixed(front, hol)
    refl = tuple(np.stack([e0, e1, np.full(n, e2)])
                 for e0, e1, e2 in zip(r0, r1, r2))
    stab = mat_mul(mat_mul(refl, hol), refl)
    _, hyperbolic = _classify(stab)
    _, back, good = _fixed_points(stab)
    fine &= hyperbolic & good & _fixed(back, stab)
    # arc k: edge from front corner i to front corner j, apexes front
    # corner k and back corner k
    pk, qk = front[_I], front[_J]
    fine &= ((pk != qk) & (pk != front) & (pk != back) & (qk != front)
             & (qk != back) & (front != back))
    front_left = _cyclic(pk, qk, front)
    fine &= front_left != _cyclic(pk, qk, back)
    right = np.where(front_left, back, front)
    left = np.where(front_left, front, back)
    cr = ((pk - right) * (qk - left)) / ((pk - left) * (qk - right))
    fine &= cr < 0
    shears = -_each(math.log, np.where(cr < 0, -cr, 1.0))
    residuals = abs(shears[_I] + shears[_J] - lengths)
    for value in (front, back, shears, residuals, *hol):
        fine &= np.isfinite(value)
    ok &= fine.all(axis=0)

    rows = np.flatnonzero(ok)
    # per handled triple: its lengths, X_s as (a, b, c, d) per slot, arc
    # k's quadrilateral (p, front apex, q, back apex) per arc, the shears
    # and the residuals
    table = np.concatenate([
        lengths, np.stack(hol, axis=1).reshape(12, n),
        np.stack([pk, front, qk, back], axis=1).reshape(12, n),
        shears, residuals])
    out = {}
    for i, row in zip(rows.tolist(), zip(*table[:, rows].tolist())):
        out[todo[i]] = ThickPants(
            row[0:3], _NOT_CUSP,
            (Isometry(*row[3:7]), Isometry(*row[7:11]),
             Isometry(*row[11:15])),
            PantsKernel(list(row[27:30]), list(row[30:33]), [],
                        [row[15:19], row[19:23], row[23:27]]))
    return out
