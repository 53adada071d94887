"""Acceptance criteria T1-T10.

Each test prints one pass/fail line (run with -s to see them on success).
T2 carries two honest failures: the collar-gap supremum and the derived
cap on the spike constant are exceeded as stated, because the truncated
collar width goes slightly negative at the top of its admissible range;
the audit reports the true values (about 2.0675 and 4.135) instead of
forcing the claimed 2.02 and 4.04.
"""

import json
import math

import numpy as np
import pytest

import flip_harness as F
from shearlab import chains as CH
from shearlab import cli
from shearlab import cusped as CU
from shearlab import geom as G
from shearlab import report
from shearlab import surface as S
from shearlab.constants import (SHORT_CURVE_MAX, Signature,
                                constants_audit, delta1, shear_free_params)


def announce(tag, ok, detail=""):
    print(f"{tag}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


class TestT1:
    def test_delta1(self):
        got = delta1()
        ok = abs(got - 0.2768065) <= 1e-6
        assert announce("T1 inscribed-circle area constant", ok,
                        f"delta1 = {got:.9f}")


class TestT2:
    def test_t2a_two_tanh_rho(self):
        val = SHORT_CURVE_MAX
        ok = val < 0.536
        assert announce("T2a 2 tanh(rho) < 0.536", ok, f"value {val:.6f}")

    def test_t2b_collar_gap_sup(self):
        rows = {r.name: r for r in constants_audit().rows}
        row = rows["sup(w - w^T) < 2.02"]
        announce("T2b sup(w - w^T) < 2.02", row.passed,
                 f"true supremum {row.value:.6f} at length {row.witness:.6f}")
        assert row.passed, (
            f"claimed bound 2.02 is exceeded: the supremum is {row.value:.6f}"
            f" (attained at the top of the admissible range, where the"
            f" truncated width is negative)")

    def test_t2c_truncated_boundary(self):
        rows = {r.name: r for r in constants_audit().rows}
        row = rows["sup(l cosh w^T) < 0.54"]
        assert announce("T2c sup(l cosh w^T) < 0.54", row.passed,
                        f"supremum {row.value:.6f}")

    def test_t2d_spike_constant_cap(self):
        rows = {r.name: r for r in constants_audit().rows}
        row = rows["max spike constant <= 4.04"]
        announce("T2d spike constant <= 4.04", row.passed,
                 f"true maximum {row.value:.6f} (short/short regime)")
        assert row.passed, (
            f"claimed cap 4.04 is exceeded: the short/short spike constant"
            f" reaches {row.value:.6f} = twice the true collar-gap supremum")

    def test_t2e_log_two_over_delta2(self):
        params = shear_free_params()
        val = math.log(2.0 / params.delta2)
        ok = abs(val - 1.5545) <= 1e-3
        assert announce("T2e log(2/delta2) ~ 1.5545", ok, f"value {val:.6f}")


class TestT3:
    def test_three_cusped_sphere(self):
        sig = Signature(0, 3)
        pg = S.canonical_pants_graph(sig)
        rec = report.run_surface(sig, pg, S.FNCoordinates({}, {}))
        shears = list(rec["shears"].values())
        ok = (all(abs(v) <= 1e-9 for v in shears) and rec["certified"]
              and rec["max_shear"] < 32 * math.log(8 * math.pi) + 23)
        assert announce("T3 thrice-punctured sphere", ok,
                        f"shears {shears}, certified {rec['certified']}")


SIGS_T4 = [(1, 1), (1, 2), (0, 4), (0, 5)]
SIGS_T5 = [(1, 1), (1, 2), (2, 0), (2, 1), (0, 4)]


class TestT4:
    def test_shear_relations_two_hundred_samples(self):
        worst_cusp = 0.0
        worst_side = 0.0
        for idx in range(200):
            g, n = SIGS_T4[idx % len(SIGS_T4)]
            sig = Signature(g, n)
            pg, fn = S.sample_fn(sig, S.sample_seed(20240 + idx, idx))
            rec = report.run_surface(sig, pg, fn)
            worst_cusp = max(worst_cusp, rec["cusp_residual"])
            worst_side = max(worst_side, rec["spiral_residual"])
        ok = worst_cusp < 1e-6 and worst_side < 1e-6
        assert announce("T4 shear-sum relations (200 samples)", ok,
                        f"worst cusp {worst_cusp:.2e}, "
                        f"worst side {worst_side:.2e}")


@pytest.fixture(scope="module")
def theorem_campaign():
    out = {}
    for g, n in SIGS_T5:
        sig = Signature(g, n)
        records, summary = report.run_sample_campaign(sig, 515 + 10 * g + n,
                                                      100)
        out[(g, n)] = (records, summary)
    return out


class TestT5:
    def test_main_theorem_at_desk_scale(self, theorem_campaign):
        violations = 0
        certified = 0
        uncert = 0
        failures = 0
        worst_ratio = 0.0
        for (g, n), (records, summary) in theorem_campaign.items():
            failures += summary["failures"]
            certified += summary["certified"]
            uncert += (summary["samples"] - summary["failures"]
                       - summary["certified"])
            violations += summary["bound_violations_certified"]
            if summary["max_ratio_certified"] is not None:
                worst_ratio = max(worst_ratio,
                                  summary["max_ratio_certified"])
            if summary["max_ratio_uncertified"] is not None:
                announce(f"T5 note ({g},{n})", True,
                         f"uncertified ratio "
                         f"{summary['max_ratio_uncertified']:.4f}")
        ok = violations == 0 and failures == 0 and certified > 0
        assert announce(
            "T5 main bound over 500 samples", ok,
            f"certified {certified}, uncertified {uncert}, "
            f"violations {violations}, max ratio {worst_ratio:.4f}")


class TestT6:
    def test_shear_point_free_margins(self, theorem_campaign):
        min_margin = math.inf
        for (g, n), (records, summary) in theorem_campaign.items():
            if summary["min_margin"] is not None:
                min_margin = min(min_margin, summary["min_margin"])
        ok = min_margin > 0.0
        assert announce("T6 shear-point-free margins", ok,
                        f"minimum margin {min_margin:.6f}")


class TestT7:
    def test_dual_oracle_thousand_pairs(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        done = 0
        while done < 1000:
            vals = np.sort(rng.uniform(-40, 40, size=4))
            if min(np.diff(vals)) < 1e-2:
                continue
            a, p, b, q = vals
            edge = G.Geodesic(p, q)
            t_l = G.IdealTriangle(a, p, q)
            t_r = G.IdealTriangle(p, b, q)
            s1 = G.shear(t_l, t_r, edge)
            s2 = G.shear(t_l, t_r, edge, method="shear_points")
            worst = max(worst, abs(s1 - s2))
            done += 1
        ok = worst <= 1e-9
        assert announce("T7 dual-oracle shear (1000 pairs)", ok,
                        f"worst discrepancy {worst:.2e}")


class TestT8:
    def test_round_trip_lengths(self):
        worst = 0.0
        for n in (4, 5):
            sig = Signature(0, n)
            for i in range(50):
                pg, fn = S.sample_fn(sig, S.sample_seed(808 + n, i))
                hol = S.holonomy_from_fn(pg, fn)
                cx, sigma, walks = CH.build_cusped_chain(hol)
                dev = CU.develop_from_shears(cx, sigma)
                # curve 0 has its dual cycle recorded by the construction
                got = G.translation_length(
                    CU.develop_walk(dev.cx, dev.sigma, walks[0]))
                worst = max(worst,
                            abs(got - fn.length(0)) / max(1, fn.length(0)))
                for cid in pg.curve_ids():
                    if cid in walks:
                        continue
                    # locate the remaining pants curves in the sampled
                    # length spectrum of the rebuilt surface
                    want = fn.length(cid)
                    spec = F.hyperbolic_walk_lengths(dev.cx, dev.sigma,
                                                      max_len=6, limit=80)
                    err = min(abs(s - want) for s in spec) / max(1, want)
                    worst = max(worst, err)
        ok = worst <= 1e-6
        assert announce("T8 round trip through shears (100 seeds)", ok,
                        f"worst relative length error {worst:.2e}")


class TestT9:
    def test_double_flip_identity(self):
        pg, fn = S.sample_fn(Signature(0, 4), 99)
        hol = S.holonomy_from_fn(pg, fn)
        cx, sigma, _ = CH.build_cusped_chain(hol)
        worst = 0.0
        for e in cx.edges():
            if not CU.flippable(cx, e):
                continue
            cx2, s2 = CU.flip(cx, sigma, e)
            cx3, s3 = CU.flip(cx2, s2, (e[0], 1))
            v1 = sorted(sigma.values())
            v3 = sorted(s3.values())
            worst = max(worst, max(abs(a - b) for a, b in zip(v1, v3)))
        ok = worst <= 1e-12
        assert announce("T9a double flip identity", ok,
                        f"worst shear change {worst:.2e}")

    def test_fifty_random_sequences(self):
        worst_len = 0.0
        worst_sum = 0.0
        for n, base in ((4, 9100), (5, 9200)):
            pg, fn = S.sample_fn(Signature(0, n), 55 + n)
            hol = S.holonomy_from_fn(pg, fn)
            cx, raw, _ = CH.build_cusped_chain(hol)
            sigma = F.project_to_complete(cx, raw)
            curves = F.test_curves(cx, sigma, 5)
            base_lengths = [
                G.translation_length(CU.develop_walk(cx, sigma, w))
                for w in curves]
            for trial in range(25):
                c2, s2, ws, trail = F.random_flip_sequence(
                    cx, sigma, 20, seed=base + trial, walks=curves)
                assert len(trail) == 20
                sums = CU.cusp_sums(c2, s2)
                worst_sum = max(worst_sum,
                                max(abs(v) for v in sums.values()))
                for w, l0 in zip(ws, base_lengths):
                    got = G.translation_length(CU.develop_walk(c2, s2, w))
                    worst_len = max(worst_len, abs(got - l0))
        ok = worst_len <= 1e-6 and worst_sum <= 1e-12
        assert announce("T9b fifty 20-flip sequences", ok,
                        f"worst length drift {worst_len:.2e}, "
                        f"worst cusp sum {worst_sum:.2e}")


class TestT10:
    def test_byte_identical_reports(self, tmp_path):
        argv = ["sample", "--g", "1", "--n", "1", "--count", "10",
                "--seed", "4242"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(argv + ["--out", str(a)])
        cli.main(argv + ["--out", str(b)])
        same = a.read_bytes() == b.read_bytes()
        argv_csv = argv + ["--format", "csv"]
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        cli.main(argv_csv + ["--out", str(c)])
        cli.main(argv_csv + ["--out", str(d)])
        same = same and c.read_bytes() == d.read_bytes()
        assert announce("T10 deterministic reports", same,
                        f"{a.stat().st_size} bytes, json and csv")
