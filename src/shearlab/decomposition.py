"""Seam arcs of a pair of pants and the shortness certificate.

Cutting a pair of pants along its three seams (the mutual perpendiculars
between boundary components) gives two right-angled hexagons.  The raw
and truncated lengths of each seam arc, after removing standard cusp
neighborhoods (bounded by horocycles of length 2) and the collars of
curves no longer than 2 asinh 1, are closed forms in the pants' length
triple (arc_lengths), which the report evaluates over the numpy arrays
of a block of samples at once; no code builds the certificate's rows
(arcs_short reads from the floats whether each would pass).  The forms
take every transcendental through math one element at a time, and one
of a single length once per distinct length, so each triple gets
the bits of the scalar forms, which stay with the named rows
and the geometric measurement as the tests' oracle
(tests/geometric_oracle.py).  The doubled-loop bound has no row: the
seam word X_i X_j is conjugate to the third boundary of its pants
(X1 X2 X3 = 1), so a row on it would only repeat that curve's row.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import INTERMEDIATE_CURVE_MAX
from .thick import _I, _J, _distinct, _each, _once, _pick


@np.errstate(all="ignore")
def arc_lengths(triples) -> np.ndarray:
    """The bounded lengths of the three seam arcs of each pants.

    triples is an array whose last axis is a boundary-length triple (0 =
    cusp), finite and short enough that cosh(l/2) is; the last axis
    becomes (arc k, (raw, slack, truncated)).  Arc k joins the slots
    i < j other than k; raw is its seam length a_k (pants.seam_lengths)
    and slack the collar widths w of the intermediate curves at its
    ends.  By the collar lemma only the two ends are cut: a_k - w(l_i) -
    w(l_j) between curves, log((cosh(l_k/2) + cosh(l_o/2)) / sinh(l_o/2))
    - w(l_o) from a cusp to a curve o (each clamped at 0), and
    log((1 + cosh(l_k/2)) / 2) between cusps.  At an arc with a cusp
    end the raw length is unbounded: raw and slack are NaN.
    """
    triples = np.asarray(triples, dtype=float)
    lengths = triples.reshape(-1, 3).T
    cusp = lengths == 0.0
    values, where = _distinct(lengths)
    every = np.ones(values.shape, dtype=bool)
    half = values / 2.0
    ch = _each(math.cosh, half, every)
    sh = _each(math.sinh, half, every)
    # the collar width of an intermediate curve, and 0 for a longer one
    intermediate = (values != 0.0) & (values <= INTERMEDIATE_CURVE_MAX)
    collar = np.where(intermediate, _each(math.asinh, 1.0 / sh,
                                          intermediate),
                      np.where(values == 0.0, math.nan, 0.0))
    cusps = _once(math.log, (1.0 + ch) / 2.0, where, cusp[_I] & cusp[_J])
    ch, sh, collar = ch[where], sh[where], collar[where]
    both = ~cusp[_I] & ~cusp[_J]
    arg = (ch[_I] * ch[_J] + ch) / (sh[_I] * sh[_J])
    raw = _each(math.acosh, arg, both & (arg >= 1.0))
    # the curve end o of an arc with one cusp end, by row
    one = cusp[_I] != cusp[_J]
    o = np.where(cusp[_I], np.array(_J)[:, None], np.array(_I)[:, None])
    ch_o, sh_o, collar_o = (np.take_along_axis(e, o, axis=0)
                            for e in (ch, sh, collar))
    arg = (ch + ch_o) / sh_o
    depth = _each(math.log, arg, one & (arg > 0.0))
    cut = _pick([both, one], [raw - collar[_I] - collar[_J],
                              depth - collar_o], cusps)
    trunc = np.where(both | one, np.where(cut > 0.0, cut, 0.0), cusps)
    arcs = np.stack([np.where(both, raw, math.nan),
                     np.where(both, collar[_I] + collar[_J], math.nan),
                     trunc], axis=-1)
    return arcs.swapaxes(0, 1).reshape(triples.shape + (3,))


def arcs_short(arcs, log4a: float) -> np.ndarray:
    """Whether every arc of each pants meets its raw and truncated bound:
    6 log(4 area), plus the slack for the raw length between two curves.
    arcs is arc_lengths' array; the result drops its last two axes.
    """
    raw, slack, trunc = np.moveaxis(arcs, -1, 0)
    bound = 6.0 * log4a
    return ((np.isnan(raw) | (raw <= bound + slack))
            & (trunc <= bound)).all(axis=-1)
