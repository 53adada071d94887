"""Named constants, closed-form bounds, and the self-audit."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

import geometric_oracle as O
from shearlab import constants as C

mp.mp.dps = 40


class TestArea:
    @pytest.mark.parametrize("g,n,want", [(2, 0, 4 * math.pi),
                                          (0, 3, 2 * math.pi),
                                          (1, 1, 2 * math.pi)])
    def test_values(self, g, n, want):
        assert math.isclose(C.area(C.Signature(g, n)), want, rel_tol=1e-15)

    def test_rejects_bad_signature(self):
        with pytest.raises(ValueError):
            C.Signature(0, 2)
        with pytest.raises(ValueError):
            C.Signature(-1, 5)


class TestCollarWidth:
    def test_fixed_point_of_formula(self):
        x = 2 * math.asinh(1.0)
        assert math.isclose(C.collar_width(x), math.asinh(1.0), rel_tol=1e-14)

    def test_high_precision_value_at_one(self):
        want = float(mp.asinh(1 / mp.sinh(mp.mpf(1) / 2)))
        assert math.isclose(C.collar_width(1.0), want, rel_tol=1e-14)

    def test_monotone_decreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a, b = sorted(rng.uniform(0.01, 20, size=2))
            if b - a < 1e-9:
                continue
            assert C.collar_width(a) > C.collar_width(b)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            C.collar_width(0.0)


class TestBavard:
    @pytest.mark.parametrize("g,n", [(2, 0), (1, 1)])
    def test_high_precision(self, g, n):
        want = float(mp.acosh(1 / (2 * mp.sin(mp.pi / (12 * g - 6 + 6 * n)))))
        assert math.isclose(C.bavard_bound(C.Signature(g, n)), want,
                            rel_tol=1e-13)

    def test_below_log_four_area(self):
        for m in range(1, 101):
            sig = C.Signature(0, m + 2)
            assert C.bavard_bound(sig) <= math.log(4 * C.area(sig))


class TestDelta1:
    def test_value(self):
        assert abs(C.delta1() - 0.2768065) <= 1e-6

    def test_exceeds_floor(self):
        assert C.delta1() > 0.27

    def test_matches_area_difference_form(self):
        rho = C.RHO
        direct = (2 * math.pi * (math.cosh(2 * rho) - 1)
                  - (math.pi - 3)) / 3
        assert math.isclose(C.delta1(), direct, rel_tol=1e-15)

    def test_closed_form_with_corrected_sign(self):
        # pi((2/3) cosh(2 rho) - 1) + 1, not - 1: the minus-one variant is
        # negative and cannot be an area
        rho = C.RHO
        plus = math.pi * ((2 / 3) * math.cosh(2 * rho) - 1) + 1
        minus = math.pi * ((2 / 3) * math.cosh(2 * rho) - 1) - 1
        assert math.isclose(C.delta1(), plus, rel_tol=1e-14)
        assert minus < 0


class TestShearFreeParams:
    def test_default_near_limit(self):
        p = C.shear_free_params()
        assert 0 < p.rho_prime < C.RHO
        limit = 2 * math.sinh(C.RHO) / math.exp(C.RHO)
        assert abs(p.delta2 - limit) < 1e-5
        assert abs(limit - (1 - 1 / math.sqrt(3))) < 1e-15

    def test_kernels_read_the_default(self):
        # rho is RHO, not a field; the per-pants kernels read SHEAR_FREE
        assert [f.name for f in dataclasses.fields(C.ShearFreeParams)] == [
            "rho_prime", "delta2", "delta3"]
        assert C.SHEAR_FREE == C.shear_free_params()

    def test_log_two_over_delta2(self):
        p = C.shear_free_params()
        assert abs(math.log(2 / p.delta2) - 1.5545) <= 1e-3

    def test_delta3_identity(self):
        p = C.shear_free_params(0.2)
        assert math.isclose(math.sinh(p.delta3), 0.2, rel_tol=1e-14)
        assert p.delta3 < 0.2 + 0.2 ** 3 / 6

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            C.shear_free_params(0.0)
        with pytest.raises(ValueError):
            C.shear_free_params(C.RHO)


class TestTruncatedCollar:
    def test_zero_at_boundary_length(self):
        p = C.shear_free_params()
        ell = 2 * math.sinh(p.delta3) / math.cosh(C.RHO)
        assert abs(C.truncated_collar_width(ell, p)) < 1e-12

    def test_high_precision_value(self):
        p = C.shear_free_params()
        want = float(mp.acosh(2 * mp.sinh(p.delta3) / mp.mpf("0.1"))
                     - mp.log(3) / 4)
        assert math.isclose(C.truncated_collar_width(0.1, p), want,
                            rel_tol=1e-13)

    def test_inversion_identity(self):
        p = C.shear_free_params()
        for ell in np.geomspace(1e-4, C.SHORT_CURVE_MAX, 50):
            w_t = C.truncated_collar_width(ell, p)
            assert abs(ell * math.cosh(w_t + C.RHO)
                       - 2 * math.sinh(p.delta3)) <= 1e-12

    def test_inside_standard_collar(self):
        p = C.shear_free_params()
        for ell in np.geomspace(1e-4, C.SHORT_CURVE_MAX, 200):
            assert (C.truncated_collar_width(ell, p) + C.RHO
                    < C.collar_width(ell))

    def test_rejects_out_of_range(self):
        p = C.shear_free_params()
        with pytest.raises(ValueError):
            C.truncated_collar_width(0.0, p)
        with pytest.raises(ValueError):
            C.truncated_collar_width(C.SHORT_CURVE_MAX + 0.01, p)


class TestMainBound:
    def test_three_punctured_sphere(self):
        want = 32 * math.log(8 * math.pi) + 23
        assert math.isclose(C.main_bound(C.Signature(0, 3)), want,
                            rel_tol=1e-15)

    def test_genus_two(self):
        got = C.main_bound(C.Signature(2, 0))
        assert math.isclose(got, 32 * math.log(16 * math.pi) + 23,
                            rel_tol=1e-15)
        assert abs(got - 148.354) < 1e-3

    def test_equals_log_four_area_form(self):
        for m in range(1, 30):
            sig = C.Signature(0, m + 2)
            alt = 32 * math.log(4 * C.area(sig)) + 23
            assert math.isclose(C.main_bound(sig), alt, rel_tol=1e-14)

    def test_monotone_in_complexity(self):
        vals = [C.main_bound(C.Signature(0, n)) for n in range(3, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestRoughCuspedBound:
    def test_direct_evaluation(self):
        got = C.rough_cusped_bound(C.Signature(1, 1), 1.0)
        want = ((2 * math.pi - 0.27 - math.pi * (math.cosh(0.25) - 1))
                / (2 * math.sinh(0.25)))
        assert math.isclose(got, want, rel_tol=1e-14)

    def test_decreasing_in_systole(self):
        sig = C.Signature(1, 1)
        vals = [C.rough_cusped_bound(sig, s) for s in np.linspace(0.2, 3, 20)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_area(self):
        sigs = [C.Signature(0, n) for n in (3, 4, 5)]
        vals = [C.rough_cusped_bound(s, 1.0) for s in sigs]
        # numerator gains 2 pi - 0.27 per extra puncture
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_vacuous_region_rejected(self):
        with pytest.raises(ValueError):
            C.rough_cusped_bound(C.Signature(1, 1), 50.0)

    @pytest.mark.parametrize("g, n, sys, message", [
        (2, 0, 1.0, "requires at least one puncture"),
        (1, 1, 0.0, "systole must be positive"),
        (1, 1, -1.0, "systole must be positive")])
    def test_rejections_are_named(self, g, n, sys, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            C.rough_cusped_bound(C.Signature(g, n), sys)


class TestSpikeConstant:
    def test_long_long_is_zero(self):
        p = C.shear_free_params()
        assert C.spike_constant(("long", None), ("long", None), p) == 0.0

    def test_cusp_cusp(self):
        p = C.shear_free_params()
        got = C.spike_constant(("cusp", None), ("cusp", None), p)
        assert math.isclose(got, 2 * math.log(2 / p.delta2), rel_tol=1e-14)
        assert abs(got - 2 * 1.5545) < 2e-3

    def test_short_requires_length(self):
        p = C.shear_free_params()
        with pytest.raises(ValueError):
            C.spike_constant(("short", None), ("cusp", None), p)

    @pytest.mark.parametrize("ends", [
        (("bogus", None), ("cusp", None)), (("long", None), ("thick", 1.0))])
    def test_unknown_regime_is_named(self, ends):
        kind = next(k for k, _ in ends if k not in ("cusp", "long"))
        with pytest.raises(ValueError,
                           match=f"^unknown endpoint regime '{kind}'$"):
            C.spike_constant(*ends, C.SHEAR_FREE)

    def test_mixed_cases_additive(self):
        p = C.shear_free_params()
        w_int = C.collar_width(C.SHORT_CURVE_MAX)
        log_term = math.log(2 / p.delta2)
        assert math.isclose(
            C.spike_constant(("cusp", None), ("intermediate", None), p),
            log_term + w_int, rel_tol=1e-14)
        gap = (C.collar_width(0.3) - C.truncated_collar_width(0.3, p))
        assert math.isclose(
            C.spike_constant(("short", 0.3), ("long", None), p),
            gap, rel_tol=1e-14)
        assert math.isclose(
            C.spike_constant(("short", 0.3), ("intermediate", None), p),
            gap + w_int, rel_tol=1e-14)

    def test_regime_classifier(self):
        assert O.curve_regime(None) == "cusp"
        assert O.curve_regime(0.3) == "short"
        assert O.curve_regime(C.SHORT_CURVE_MAX) == "short"
        assert O.curve_regime(1.0) == "intermediate"
        assert O.curve_regime(2 * math.asinh(1.0)) == "intermediate"
        assert O.curve_regime(2.0) == "long"


class TestAudit:
    """The audit reproduces each claimed inequality and reports honestly.

    Two of the claimed bounds fail as stated: the collar-gap supremum is
    about 2.0675 (not below 2.02) because the truncated width is slightly
    negative at the top of its range, and consequently the spike-constant
    cap 4.04 is exceeded (about 4.135).  The audit rows record this.
    """

    def test_two_tanh_rho(self):
        report = C.constants_audit()
        row = _row(report, "two_tanh_rho")
        assert row.passed
        assert math.isclose(row.value, 4 - 2 * math.sqrt(3), rel_tol=1e-14)

    def test_collar_gap_sup_true_value(self):
        report = C.constants_audit()
        row = _row(report, "sup(w - w^T) <= asinh")
        # true supremum sits at the right end of the admissible range
        ell = C.SHORT_CURVE_MAX
        p = C.shear_free_params()
        want = C.collar_width(ell) - C.truncated_collar_width(ell, p)
        assert abs(row.value - want) < 1e-9
        assert abs(want - 2.06749) < 1e-4
        assert not row.passed

    def test_spike_cap_true_value(self):
        report = C.constants_audit()
        row = _row(report, "max spike constant")
        assert abs(row.value - 4.13498) < 2e-4
        assert not row.passed

    def test_truncated_boundary_length(self):
        report = C.constants_audit()
        row = _row(report, "sup(l cosh w^T)")
        assert row.passed
        # closed form at the right endpoint
        p = C.shear_free_params()
        rp, rho = p.rho_prime, C.RHO
        want = (2 * rp * math.cosh(rho) - math.sinh(rho)
                * math.sqrt(4 * rp * rp - 4 * math.tanh(rho) ** 2))
        assert abs(row.value - want) < 1e-9

    def test_safe_collar_margin_positive(self):
        report = C.constants_audit()
        row = _row(report, "min(w - (w^T + rho))")
        assert row.passed and row.value > 0

    def test_delta_rows_pass(self):
        report = C.constants_audit()
        assert _row(report, "delta1 matches").passed
        assert _row(report, "delta1 > 0.27").passed
        assert _row(report, "log(2/delta2)").passed

    def test_overall_flag_reflects_rows(self):
        report = C.constants_audit()
        assert report.ok == all(r.passed for r in report.rows)
        assert not report.ok


def _row(report, prefix):
    for row in report.rows:
        if row.name.startswith(prefix):
            return row
    raise AssertionError(f"no audit row starting with {prefix!r}")


#: rho' across [tanh(rho), rho): its ends, the default just below rho,
#: and points between
SCAN_RHO_PRIMES = [C.DEFAULT_RHO_PRIME, math.tanh(C.RHO), 0.268, 0.27,
                   0.272, 0.274, 0.2745, 0.2746]


class TestOneDerivation:
    """The spike table and the audit rest on one side map and one scan."""

    def test_table_is_the_spike_constant_at_the_gap_witness(self):
        p = C.shear_free_params()
        ell = _row(C.constants_audit(p), "sup(w - w^T) < 2.02").witness
        table = C.topology_constants(C.Signature(1, 1), p).C_table
        assert len(table) == 10
        for (a, b), value in table.items():
            assert value == C.spike_constant((a, ell), (b, ell), p), (a, b)

    def test_one_scan_per_constants_report(self, monkeypatch):
        # one scan per report, which evaluates each candidate point once
        # with math, and far fewer points than the grid holds
        from shearlab import report
        real = C._collar_widths
        calls = []

        def counted(length, params):
            calls.append(length)
            return real(length, params)

        monkeypatch.setattr(C, "_collar_widths", counted)
        C._grid_scan.cache_clear()
        try:
            report.constants_report(C.Signature(2, 1))
            misses = C._grid_scan.cache_info().misses
        finally:
            C._grid_scan.cache_clear()
        assert misses == 1
        grid = set(_math_grid())
        assert calls and set(calls) <= grid
        assert len(set(calls)) == len(calls) < len(grid) / 4

    def test_audit_runs_the_scan(self, monkeypatch):
        # constants_report runs the audit first, so a traced run charges
        # the lru-cached grid scan to constants_audit, not to
        # topology_constants' spike table
        from shearlab import report
        real_scan, real_audit = C._grid_scan, report.constants_audit
        inside, calls = [], []

        def audit(params):
            inside.append(True)
            try:
                return real_audit(params)
            finally:
                inside.pop()

        def scan(params):
            calls.append(bool(inside))
            return real_scan(params)

        monkeypatch.setattr(report, "constants_audit", audit)
        monkeypatch.setattr(C, "_grid_scan", scan)
        report.constants_report(C.Signature(2, 1))
        assert calls and calls[0]

    @pytest.mark.parametrize("rho_prime", SCAN_RHO_PRIMES)
    def test_scan_is_the_per_point_reference(self, rho_prime):
        p = C.shear_free_params(rho_prime)
        C._grid_scan.cache_clear()
        assert C._grid_scan(p) == _reference_scan(p)

    @pytest.mark.parametrize("rho_prime", [0.26, 0.2, 0.1])
    def test_scan_raises_as_the_per_point_reference(self, rho_prime):
        # below tanh(rho) the acosh argument drops under 1 inside the
        # grid: the first point that fails raises, whichever scan runs
        p = C.shear_free_params(rho_prime)
        with pytest.raises(Exception) as want:
            _reference_scan(p)
        C._grid_scan.cache_clear()
        with pytest.raises(Exception) as got:
            C._grid_scan(p)
        assert want.type is got.type is ValueError
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("column,value", [
        (0, C.SHORT_CURVE_MAX), (1, 1.0), (4, math.nan)])
    def test_points_a_check_could_fail_are_evaluated(self, monkeypatch,
                                                     column, value):
        # a numpy length at the top of the range, an acosh argument at 1
        # or a NaN margin, in the middle of the grid, where no extremum
        # lies: the scan evaluates that point with math
        real_values, real_widths = C._grid_values, C._collar_widths
        k = C._GRID_POINTS // 2
        calls = []

        def values(params):
            arrays = [a.copy() for a in real_values(params)]
            arrays[column][k] = value
            return arrays

        def widths(length, params):
            calls.append(length)
            return real_widths(length, params)

        monkeypatch.setattr(C, "_grid_values", values)
        monkeypatch.setattr(C, "_collar_widths", widths)
        p = C.shear_free_params()
        C._grid_scan.cache_clear()
        try:
            got = C._grid_scan(p)
        finally:
            C._grid_scan.cache_clear()
        assert _math_grid()[k] in calls
        assert got == _reference_scan(p)

    @pytest.mark.parametrize("rho_prime", SCAN_RHO_PRIMES)
    def test_numpy_values_within_half_the_band(self, rho_prime):
        # the premise of the scan's candidate band: at every point,
        # numpy's length, acosh argument, gap, boundary and margin lie
        # close enough to math's that a point outside the band can
        # neither reach an extremum nor fail a check
        p = C.shear_free_params(rho_prime)
        lengths, args, *values = C._grid_values(p)
        want = np.array(_math_rows(p)).T
        assert np.all(np.abs(lengths - want[0]) <= np.spacing(want[0]))
        assert np.all(np.abs(args - want[1])
                      <= want[1] * C._SCAN_BAND / 2)
        for got, exact in zip(values, want[2:]):
            assert np.max(np.abs(got - exact)) <= C._SCAN_BAND / 2


def _math_grid():
    """The audit's grid computed term by term, then 2 tanh(rho)."""
    lo, hi = 1e-8, C.SHORT_CURVE_MAX
    step = (math.log(hi) - math.log(lo)) / (C._GRID_POINTS - 1)
    return [math.exp(math.log(lo) + i * step)
            for i in range(C._GRID_POINTS)] + [C.SHORT_CURVE_MAX]


def _math_rows(p):
    """Length, acosh argument, gap, boundary and margin per grid point,
    each width from its own public function."""
    rows = []
    for ell in _math_grid():
        w = C.collar_width(ell)
        w_t = C.truncated_collar_width(ell, p)
        rows.append((ell, 2.0 * math.sinh(p.delta3) / ell, w - w_t,
                     ell * math.cosh(w_t), w - (w_t + C.RHO)))
    return rows


def _reference_scan(p):
    """The scan as it was: every point evaluated in math, in order."""
    gap = boundary = (-math.inf, None)
    margin = (math.inf, None)
    for ell, _, g, b, m in _math_rows(p):
        if g > gap[0]:
            gap = (g, ell)
        if b > boundary[0]:
            boundary = (b, ell)
        if m < margin[0]:
            margin = (m, ell)
    return gap, boundary, margin


class TestTopologyConstants:
    def test_assembles(self):
        tc = C.topology_constants(C.Signature(1, 1))
        assert math.isclose(tc.B, C.main_bound(C.Signature(1, 1)),
                            rel_tol=1e-15)
        assert math.isclose(tc.D, 16 * math.log(4 * tc.area) + 8.7,
                            rel_tol=1e-15)
        assert ("long", "long") in tc.C_table
        assert tc.C_table[("long", "long")] == 0.0
