"""Seam arcs of a pair of pants and the shortness certificate.

Cutting a pair of pants along its three seams (the mutual perpendiculars
between boundary components) gives two right-angled hexagons.  The rows
of the shortness certificate are read from the boundary lengths alone
(curve_rows, arc_rows): the raw and truncated lengths of each seam arc,
after removing standard cusp neighborhoods (bounded by horocycles of
length 2) and the collars of curves no longer than 2 asinh 1, have
closed forms in the pants' length triple.  The
geometric measurement these replace, in the developed pants, is the
tests' oracle (tests/geometric_oracle.py).  The doubled-loop bound has
no row: the seam word X_i X_j is conjugate to the third boundary of its
pants (X1 X2 X3 = 1), so a row on it would only repeat that curve's row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


# ---------------------------------------------------------------------------
# certification of the shortness bounds


_CURVE_ROW = "curve {} length <= 2 log(4 area)"
_RAW_ARC_ROW = "arc {} length <= 6 log(4 area) + collar widths"
_TRUNCATED_ARC_ROW = "arc {} truncated length <= 6 log(4 area)"


@dataclass(slots=True)
class ShortnessRow:
    """One bound of the certificate; its name is formatted when read."""

    label: str                # the name, with {} for the curve id or arc
    subject: object           # curve id or arc (p, k)
    value: float
    bound: float
    passed: bool

    @property
    def name(self) -> str:
        return self.label.format(self.subject)


def curve_rows(curves: dict, log4a: float) -> list:
    """Rows of the curve-length bound, in curve id order."""
    return [ShortnessRow(_CURVE_ROW, cid, length, 2.0 * log4a,
                         length <= 2.0 * log4a)
            for cid, length in sorted(curves.items())]


def arc_rows(lengths: tuple, p: int, log4a: float) -> list:
    """Rows of the raw and truncated length bounds of the seam arcs of pants p.

    lengths is the boundary-length triple of pants p (0 = cusp); the rows
    of arc (p, k) come in seam order k = 0, 1, 2, and the seam lengths
    are computed once for all three.  The raw length, the seam length
    a_k, is bounded only between two curves, per regime: the collar
    widths of the intermediate curves at its ends are added.
    """
    seams = seam_lengths(*lengths)
    rows = []
    for k in range(3):
        arc = (p, k)
        i, j = _seam_ends(k)
        if lengths[i] and lengths[j]:
            length = seams[k]
            slack = _collar(lengths[i]) + _collar(lengths[j])
            rows.append(ShortnessRow(
                _RAW_ARC_ROW, arc, length, 6.0 * log4a + slack,
                length <= 6.0 * log4a + slack))
        trunc = truncated_length(lengths, seams, k)
        rows.append(ShortnessRow(_TRUNCATED_ARC_ROW, arc, trunc, 6.0 * log4a,
                                 trunc <= 6.0 * log4a))
    return rows
