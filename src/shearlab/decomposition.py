"""Seam arcs of a pair of pants and the shortness certificate.

Cutting a pair of pants along its three seams (the mutual perpendiculars
between boundary components) gives two right-angled hexagons.  The rows
of the shortness certificate are read from the boundary lengths alone:
the raw and truncated lengths of each seam arc, after removing standard
cusp neighborhoods (bounded by horocycles of length 2) and the collars
of curves no longer than 2 asinh 1, have closed forms in the pants'
length triple (arc_lengths).  No code builds the rows: the numpy batch
(thick.thick_batch) computes the arc lengths of the pants it handles
with these formulas, arc_lengths measures the pants it leaves, and the
report reads from the floats whether every row would pass (arcs_short).
The named rows (curve_rows, arc_rows) and the geometric measurement
these replace, in the developed pants, are the tests' oracle
(tests/geometric_oracle.py).  The doubled-loop bound has no row: the
seam word X_i X_j is conjugate to the third boundary of its pants
(X1 X2 X3 = 1), so a row on it would only repeat that curve's row.
"""

from __future__ import annotations

import math

from .constants import INTERMEDIATE_CURVE_MAX, collar_width
from .pants import _seam_ends, seam_lengths


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


