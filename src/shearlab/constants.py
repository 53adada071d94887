"""Named constants and closed-form bounds for hyperbolic surfaces.

Everything here is a scalar formula: areas, collar widths, the inradius
constants of ideal triangles, truncated collar widths, the per-regime
spike constant, and the headline bound on the maximum shear.  A self
audit re-derives the numeric inequalities these constants are supposed
to satisfy and reports each one with its witness.

Each fact is derived once: one pass over the audit grid per set of
shear-free parameters gives the audit's three extrema, and one
per-regime side map gives every spike constant and their table.  The
pass evaluates the whole grid as numpy arrays, whose exp, sinh, arcsinh
and arccosh round differently from math's on a share of the points, so
it only picks the candidates: the points near each extremum and those
where a check could fail.  Those are evaluated again with math, and
the audit reports exactly the values, witnesses and errors of a scalar
scan of every point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: Half the inradius of an ideal triangle; the inradius itself is 2*rho.
RHO = math.log(3.0) / 4.0

#: Default near-limit choice of the auxiliary parameter rho' < rho.
DEFAULT_RHO_PRIME = RHO * (1.0 - 1e-6)

#: Curves at most this long are "short" for truncated-collar purposes.
SHORT_CURVE_MAX = 2.0 * math.tanh(RHO)

#: Curves at most this long get embedded standard collars in thin-part cuts.
INTERMEDIATE_CURVE_MAX = 2.0 * math.asinh(1.0)


@dataclass(frozen=True)
class Signature:
    """Topological type: genus g with n punctures, hyperbolic (2g-2+n > 0)."""

    g: int
    n: int

    def __post_init__(self):
        if self.g < 0 or self.n < 0:
            raise ValueError("genus and puncture count must be nonnegative")
        if 2 * self.g - 2 + self.n <= 0:
            raise ValueError("2g-2+n must be positive")

    @property
    def complexity(self) -> int:
        return 2 * self.g - 2 + self.n


def area(sig: Signature) -> float:
    return 2.0 * math.pi * sig.complexity


def collar_width(length: float) -> float:
    """Half-width of the embedded collar around a closed geodesic."""
    if length <= 0:
        raise ValueError("curve length must be positive")
    return math.asinh(1.0 / math.sinh(length / 2.0))


def bavard_bound(sig: Signature) -> float:
    """Upper bound on the shortest essential loop through any point."""
    r = math.acosh(1.0 / (2.0 * math.sin(math.pi / (12 * sig.g - 6 + 6 * sig.n))))
    cap = math.log(4.0 * area(sig))
    if r > cap:
        raise AssertionError(f"loop bound {r} exceeds log(4 area) = {cap}")
    return r


def delta1() -> float:
    """Area between the inscribed circle and the contact triangle.

    One third of (disk area minus contact-triangle area) in an ideal
    triangle; evaluates to about 0.2768065.
    """
    return (2.0 * math.pi * (math.cosh(2.0 * RHO) - 1.0) - (math.pi - 3.0)) / 3.0


#: Safe round-down of delta1 used when cutting cusp neighborhoods.
DELTA1_FLOOR = 0.27


@dataclass(frozen=True)
class ShearFreeParams:
    """Derived constants for the regions guaranteed to avoid shear points."""

    rho: float
    rho_prime: float
    delta2: float
    delta3: float


def shear_free_params(rho_prime: float = DEFAULT_RHO_PRIME) -> ShearFreeParams:
    if not 0.0 < rho_prime < RHO:
        raise ValueError(f"rho_prime must lie in (0, {RHO})")
    return ShearFreeParams(
        rho=RHO,
        rho_prime=rho_prime,
        delta2=2.0 * math.sinh(rho_prime) / math.exp(RHO),
        delta3=math.asinh(rho_prime),
    )


def truncated_collar_width(length: float, params: ShearFreeParams) -> float:
    """Width of the shear-point-free collar around a short closed geodesic.

    Defined for 0 < length <= 2 tanh(rho).  The value can be slightly
    negative near the top of that range, in which case the collar is
    empty.  The defining identity length*cosh(w + rho) = 2 sinh(delta3)
    holds exactly for the returned raw value.
    """
    return _collar_widths(length, params)[1]


def _collar_widths(length: float, params: ShearFreeParams):
    """(w, w^T) of a short closed geodesic: collar_width and
    truncated_collar_width, with the latter's checks, evaluating each
    width once."""
    if not 0.0 < length <= SHORT_CURVE_MAX:
        raise ValueError(f"length must lie in (0, {SHORT_CURVE_MAX}]")
    arg = 2.0 * math.sinh(params.delta3) / length
    if arg < 1.0:
        raise ValueError("truncated collar undefined: acosh argument below 1")
    w_t = math.acosh(arg) - RHO
    w = collar_width(length)
    if w_t + RHO >= w:
        raise AssertionError("truncated collar is not inside the standard collar")
    return w, w_t


def main_bound(sig: Signature) -> float:
    """Upper bound for the minimax shear: 32 log(8 pi (2g-2+n)) + 23."""
    b = 32.0 * math.log(8.0 * math.pi * sig.complexity) + 23.0
    alt = 32.0 * math.log(4.0 * area(sig)) + 23.0
    if abs(b - alt) > 1e-9 * b:
        raise AssertionError("8 pi (2g-2+n) should equal 4 area")
    return b


def rough_cusped_bound(sig: Signature, sys: float) -> float:
    """Area-based shear bound for punctured surfaces in terms of the systole."""
    if sig.n < 1:
        raise ValueError("requires at least one puncture")
    if sys <= 0:
        raise ValueError("systole must be positive")
    num = area(sig) - DELTA1_FLOOR * sig.n - math.pi * (math.cosh(sys / 4.0) - 1.0)
    if num <= 0:
        raise ValueError("bound is vacuous: numerator not positive")
    return num / (2.0 * math.sinh(sys / 4.0))


#: Endpoint regimes of an arc, in the order of the spike-constant table.
_REGIMES = ("cusp", "short", "intermediate", "long")


def _sides(params: ShearFreeParams, short_gap) -> dict:
    """Per-regime side of the spike constant; short_gap is w - w^T."""
    return {"cusp": math.log(2.0 / params.delta2),
            "short": short_gap,
            "intermediate": collar_width(SHORT_CURVE_MAX),
            "long": 0.0}


def spike_constant(end1, end2, params: ShearFreeParams) -> float:
    """Per-arc correction constant from the endpoint regimes of an arc.

    Each endpoint is ("cusp", None), ("short", length), ("intermediate",
    None or length) or ("long", None or length).  Short endpoints must
    carry their curve length.
    """
    def side(end):
        kind, length = end
        if kind not in _REGIMES:
            raise ValueError(f"unknown endpoint regime {kind!r}")
        if kind != "short":
            return _sides(params, None)[kind]
        if length is None:
            raise ValueError("short-curve regime requires the curve length")
        return collar_width(length) - truncated_collar_width(length, params)

    return side(end1) + side(end2)


@dataclass(frozen=True)
class TopologyConstants:
    """All per-signature constants in one record."""

    area: float
    R: float
    D: float
    B: float
    delta1: float
    C_table: dict = field(default_factory=dict)


def topology_constants(sig: Signature,
                       params: ShearFreeParams | None = None) -> TopologyConstants:
    params = params or shear_free_params()
    a = area(sig)
    return TopologyConstants(
        area=a,
        R=bavard_bound(sig),
        D=16.0 * math.log(4.0 * a) + 8.7,
        B=main_bound(sig),
        delta1=delta1(),
        C_table=_spike_table(params),
    )


@dataclass
class AuditRow:
    name: str
    value: float
    bound: float
    passed: bool
    witness: float | None = None

    def as_dict(self):
        return {
            "name": self.name,
            "value": self.value,
            "bound": self.bound,
            "passed": self.passed,
            "witness": self.witness,
        }


@dataclass
class AuditReport:
    rows: list

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.rows)

    def as_dict(self):
        return {"ok": self.ok, "rows": [r.as_dict() for r in self.rows]}


# points of the grid the audit scans the admissible lengths on
_GRID_POINTS = 10_000

#: How far the grid scan's numpy values may lie from math's and still
#: pick every point that decides its result.  The three scanned values
#: are sums and differences of widths below 20 (w(1e-8) = 19.8), and
#: numpy's differ from math's by a few ulps of those widths, at most
#: 1.5 ulps of 16 at the tested rho'.  A point whose numpy value lies
#: more than this band below the numpy maximum then lies below the math
#: maximum, as long as each error is under half the band
#: (tests/test_constants.py checks it), and the same holds for the
#: minimum and for the clearance of each check.
_SCAN_BAND = 16 * math.ulp(16.0)


def _grid_axis():
    """(lo, step) of the log-spaced grid on [1e-8, 2 tanh rho]: its
    point i is exp(lo + i * step)."""
    lo, hi = math.log(1e-8), math.log(SHORT_CURVE_MAX)
    return lo, (hi - lo) / (_GRID_POINTS - 1)


def _grid_values(params: ShearFreeParams):
    """The grid's lengths, then 2 tanh rho, and at each the acosh argument
    of w^T, w - w^T, l cosh w^T and w - (w^T + rho), as numpy arrays.

    lo + i * step rounds as in the scalar grid; numpy's exp, sinh,
    arcsinh, arccosh and cosh may not.  Below tanh rho, arccosh gets
    arguments under 1 and its values are NaN.
    """
    lo, step = _grid_axis()
    lengths = np.append(np.exp(lo + np.arange(_GRID_POINTS) * step),
                        SHORT_CURVE_MAX)
    args = 2.0 * math.sinh(params.delta3) / lengths
    with np.errstate(invalid="ignore"):
        wts = np.arccosh(args) - RHO
    ws = np.arcsinh(1.0 / np.sinh(lengths / 2.0))
    return (lengths, args, ws - wts, lengths * np.cosh(wts),
            ws - (wts + RHO))


@lru_cache(maxsize=128)
def _grid_scan(params: ShearFreeParams):
    """One pass over the admissible lengths, with w and w^T at each.

    Returns (sup(w - w^T), witness), (sup(l cosh w^T), witness) and
    (min(w - (w^T + rho)), witness) over the grid and 2 tanh rho.  The
    gap is increasing in the length, so its supremum sits at the right
    endpoint; the scan is kept as a guard against that monotonicity
    failing for unusual parameters.

    numpy evaluates the three values at every point (_grid_values).
    Only the points within _SCAN_BAND of a numpy extremum, and those
    where numpy leaves less than the band between a value and a check of
    _collar_widths, are evaluated again with math, in index order and
    with the running updates of a scalar scan.  Every other point passes
    each check and stays below each extremum, so the values, the
    witnesses and the first error raised are those of _collar_widths at
    every point.
    """
    lengths, args, gaps, bounds, margins = _grid_values(params)
    band = _SCAN_BAND
    clear = ((lengths > band) & (lengths < SHORT_CURVE_MAX - band)
             & (args > 1.0 + band) & (margins > band))
    candidates = ((gaps >= np.fmax.reduce(gaps) - band)
                  | (bounds >= np.fmax.reduce(bounds) - band)
                  | (margins <= np.fmin.reduce(margins) + band) | ~clear)

    lo, step = _grid_axis()
    gap = boundary = (-math.inf, None)
    margin = (math.inf, None)
    for i in np.flatnonzero(candidates).tolist():
        ell = (math.exp(lo + i * step) if i < _GRID_POINTS
               else SHORT_CURVE_MAX)
        w, w_t = _collar_widths(ell, params)
        g, b, m = w - w_t, ell * math.cosh(w_t), w - (w_t + RHO)
        if g > gap[0]:
            gap = (g, ell)
        if b > boundary[0]:
            boundary = (b, ell)
        if m < margin[0]:
            margin = (m, ell)
    return gap, boundary, margin


def _spike_table(params: ShearFreeParams) -> dict:
    """Spike constant per pair of regimes, a short side at its sup gap."""
    side = _sides(params, _grid_scan(params)[0][0])
    return {(a, b): side[a] + side[b]
            for a, b in itertools.combinations_with_replacement(_REGIMES, 2)}


def constants_audit(params: ShearFreeParams | None = None) -> AuditReport:
    """Re-derive the numeric inequalities the spike constants rest on.

    Rows list the claimed bounds verbatim and whether they hold at the
    given parameters.  The collar-gap bound and the consequent cap on the
    spike constant fail by a small margin (about 0.05 and 0.10): the gap
    w - w^T reaches w(2 tanh rho) + |w^T(2 tanh rho)| ~ 2.067 because the
    truncated width goes slightly negative near the top of its range.
    The audit reports this honestly rather than patching the bound.
    """
    params = params or shear_free_params()
    rows = []

    v = SHORT_CURVE_MAX
    rows.append(AuditRow("two_tanh_rho < 0.536", v, 0.536, v < 0.536))

    (gap_sup, gap_arg), (bd_sup, bd_arg), (worst, worst_arg) = (
        _grid_scan(params))
    claimed = math.asinh(1.0 / math.sinh(math.tanh(RHO)))
    rows.append(AuditRow("sup(w - w^T) <= asinh(1/sinh(tanh rho))",
                         gap_sup, claimed, gap_sup <= claimed + 1e-12, gap_arg))
    rows.append(AuditRow("sup(w - w^T) < 2.02", gap_sup, 2.02,
                         gap_sup < 2.02, gap_arg))

    rows.append(AuditRow("sup(l cosh w^T) < 0.54", bd_sup, 0.54,
                         bd_sup < 0.54, bd_arg))

    c_max = max(_spike_table(params).values())
    rows.append(AuditRow("max spike constant <= 4.04", c_max, 4.04,
                         c_max <= 4.04))

    log_term = math.log(2.0 / params.delta2)
    rows.append(AuditRow("log(2/delta2) within 1e-3 of 1.5545",
                         log_term, 1.5545, abs(log_term - 1.5545) <= 1e-3))

    d1 = delta1()
    rows.append(AuditRow("delta1 matches 0.2768065 to 1e-6", d1, 0.2768065,
                         abs(d1 - 0.2768065) <= 1e-6))
    rows.append(AuditRow("delta1 > 0.27", d1, DELTA1_FLOOR, d1 > DELTA1_FLOOR))

    # w^T + rho < w on the admissible range (checked despite being enforced
    # pointwise in truncated_collar_width, so the report carries a witness).
    rows.append(AuditRow("min(w - (w^T + rho)) > 0", worst, 0.0,
                         worst > 0.0, worst_arg))

    return AuditReport(rows)
