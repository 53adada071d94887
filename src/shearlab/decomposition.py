"""Seam arcs of a pair of pants and the shortness certificate.

Cutting a pair of pants along its three seams (the mutual perpendiculars
between boundary components) gives two right-angled hexagons.  The rows
of the shortness certificate are read from the boundary lengths alone
(curve_rows, arc_rows): the raw and truncated lengths of each seam arc,
after removing standard cusp neighborhoods (bounded by horocycles of
length 2) and the collars of curves no longer than 2 asinh 1, have
closed forms in the pants' length triple (arc_lengths).  The sampling
path builds no row: the numpy batch (thick.thick_batch) computes the
arc lengths of the pants it handles with these formulas, arc_lengths
measures the pants it leaves, and report.run_surface reads from the
floats whether every row would pass (arcs_short).  The rows name the
bounds, and are the batch's oracle with arc_lengths.  The
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
    """Whether every arc of arc_lengths meets its raw and truncated bound,
    as every row of arc_rows passes."""
    bound = 6.0 * log4a
    return all((raw is None or raw <= bound + slack) and trunc <= bound
               for raw, slack, trunc in arcs)


def arc_rows(lengths: tuple, p: int, log4a: float) -> list:
    """Rows of the raw and truncated length bounds of the seam arcs of pants p.

    The rows of arc (p, k) come in seam order k = 0, 1, 2, with the
    values of arc_lengths: the raw length is bounded per regime by
    6 log(4 area) plus the collar widths of the intermediate curves at
    its ends, the truncated length by 6 log(4 area).
    """
    rows = []
    for k, (raw, slack, trunc) in enumerate(arc_lengths(lengths)):
        arc = (p, k)
        if raw is not None:
            rows.append(ShortnessRow(
                _RAW_ARC_ROW, arc, raw, 6.0 * log4a + slack,
                raw <= 6.0 * log4a + slack))
        rows.append(ShortnessRow(_TRUNCATED_ARC_ROW, arc, trunc, 6.0 * log4a,
                                 trunc <= 6.0 * log4a))
    return rows
