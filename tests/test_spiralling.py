"""Spiralling triangulations: developing, shears, relations, audits."""

import math

import numpy as np
import pytest

import geometric_oracle as O
from shearlab import geom as G
from shearlab import report
from shearlab import spiralling as SP
from shearlab import surface as S
from shearlab.constants import Signature, main_bound, shear_free_params
from shearlab.pants import _seam_ends, build_pants


def surface(sig, seed=None, lengths=None, twists=None):
    if lengths is not None:
        pg = S.canonical_pants_graph(sig)
        fn = S.FNCoordinates(lengths, twists or {k: 0.0 for k in lengths})
    elif sig.complexity == 1 and sig.n == 3:
        pg = S.canonical_pants_graph(sig)
        fn = S.FNCoordinates({}, {})
    else:
        pg, fn = S.sample_fn(sig, seed)
    return pg, fn


def record(sig, **kwargs):
    return report.run_surface(sig, *surface(sig, **kwargs))


def developed(sig, **kwargs):
    """The developed edges of every pants, each in its own frame."""
    pg, fn = surface(sig, **kwargs)
    hol = S.holonomy_from_fn(pg, fn)
    return hol, [de for sp in hol.std for de in O.develop_pants(sp)]


def margins(edges, kind=None):
    params = shear_free_params()
    return [margin for de in edges
            for corner_kind, margin in O.margin_rows(de, params)
            if kind is None or corner_kind == kind]


class TestSpiral:
    def test_three_cusped_sphere_no_leaves(self):
        # three arcs and three cusp slots; no curve slot, so no side sum
        rec = record(Signature(0, 3))
        assert len(rec["shears"]) == 3
        assert rec["spiral_residual"] == 0.0
        sp = build_pants(0.0, 0.0, 0.0)
        assert sp.slot_is_cusp == (True, True, True)
        assert len(SP.pants_kernel(sp, shear_free_params()).residuals) == 3

    def test_once_punctured_torus_counts(self):
        # curve 0 fills slots 0 and 1 (its two sides), cusp 0 slot 2
        pg, fn = surface(Signature(1, 1), lengths={0: 1.0})
        assert pg.pants == ((("curve", 0), ("curve", 0), ("cusp", 0)),)
        sp = build_pants(*S.slot_lengths(pg, fn, 0))
        kern = SP.pants_kernel(sp, shear_free_params())
        assert len(kern.shears) == 3 and len(kern.residuals) == 3
        assert max(kern.residuals) <= 1e-9

    def test_edge_counts_match_formula(self):
        for g, n, seed in [(1, 2, 1), (2, 0, 2), (0, 5, 3)]:
            sig = Signature(g, n)
            pg, _ = surface(sig, seed=seed)
            assert len(record(sig, seed=seed)["shears"]) == 6 * g - 6 + 3 * n
            assert 2 * pg.num_pants == 4 * g - 4 + 2 * n

    def test_left_side_spirals_with_orientation(self):
        # a curve is oriented from the repelling to the attracting fixed
        # point of its slot holonomy; an arc-end on its left spirals with
        # the orientation, onto the attracting point
        for seed in range(4):
            hol, _ = developed(Signature(2, 1), seed=seed)
            seen = 0
            for sp in hol.std:
                for de in O.develop_pants(sp):
                    k = de.seam
                    ends = zip(_seam_ends(k), de.end_corners)
                    for s, corner in (*ends, (k, de.apex_front)):
                        if corner.kind != "curve":
                            continue
                        h = sp.slot_hol[s]
                        att, rep = G.mat_fixed_points(h, G.mat_classify(h))
                        want = att if O._slot_side(sp, s) == "left" else rep
                        assert corner.point == want
                        seen += 1
            assert seen > 0


class TestDevelop:
    def test_three_cusped_sphere_is_square(self):
        _, edges = developed(Signature(0, 3))
        for de in edges:
            quad = de.quadrilateral()
            assert len(set(quad)) == 4

    def test_quadrilateral_points_interleave(self):
        for trial in range(20):
            sig = Signature(*[(1, 1), (2, 0), (0, 4), (2, 1)][trial % 4])
            _, edges = developed(sig, seed=S.sample_seed(23, trial))
            for de in edges:
                left = G.side_of(de.edge, de.apex_front.point)
                right = G.side_of(de.edge, de.apex_back.point)
                assert {left, right} == {"left", "right"}

    def test_fixed_point_residuals(self):
        _, edges = developed(Signature(2, 1), seed=12)
        for de in edges:
            for corner in (*de.end_corners, de.apex_front, de.apex_back):
                img = corner.stabilizer.apply_boundary(corner.point)
                if corner.point == G.INF or img == G.INF:
                    assert img == corner.point
                else:
                    assert abs(img - corner.point) <= 1e-9 * max(
                        1.0, abs(corner.point))


class TestShearVector:
    def test_three_cusped_sphere_zero(self):
        rec = record(Signature(0, 3))
        assert all(abs(v) <= 1e-12 for v in rec["shears"].values())
        assert rec["max_shear"] <= 1e-12

    def test_once_punctured_torus_forced_values(self):
        # relations force the two cusp-ended arcs to zero shear and the
        # self-seam arc to the curve length, whatever the twist
        for twist in (0.0, 0.4, 0.9):
            shears = record(Signature(1, 1), lengths={0: 1.0},
                            twists={0: twist})["shears"]
            assert abs(shears["(0, 2)"] - 1.0) <= 1e-9
            assert abs(shears["(0, 0)"]) <= 1e-9
            assert abs(shears["(0, 1)"]) <= 1e-9

    def test_relations_on_samples(self):
        for trial in range(40):
            sig = Signature(*[(1, 1), (1, 2), (0, 4), (0, 5)][trial % 4])
            rec = record(sig, seed=S.sample_seed(29, trial))
            assert rec["cusp_residual"] <= 1e-6
            assert rec["spiral_residual"] <= 1e-6

    def test_dual_method_agreement(self):
        _, edges = developed(Signature(2, 0), seed=3)
        for de in edges:
            if G.side_of(de.edge, de.apex_front.point) == "left":
                left, right = de.front, de.back
            else:
                left, right = de.back, de.front
            dual = G.shear(right, left, de.edge, method="shear_points")
            assert abs(O.edge_shear(de) - dual) <= 1e-9

    def test_base_lift_independence(self):
        # transporting a quadrilateral by any deck element leaves the
        # shear unchanged
        rng = np.random.default_rng(31)
        _, edges = developed(Signature(1, 2), seed=8)
        for de in edges:
            while True:
                a, b, c, d = rng.uniform(-2, 2, size=4)
                if a * d - b * c > 0.1:
                    break
            g = G._unit_det(a, b, c, d)
            pts = [G.mat_apply_boundary(g, x) for x in
                   (de.edge.p, de.edge.q, de.apex_front.point,
                    de.apex_back.point)]
            edge = G.Geodesic(pts[0], pts[1])
            t1 = G.IdealTriangle(*G.oriented(pts[0], pts[1], pts[2]))
            t2 = G.IdealTriangle(*G.oriented(pts[0], pts[1], pts[3]))
            left, right = ((t1, t2) if G.side_of(edge, pts[2]) == "left"
                           else (t2, t1))
            moved = G.shear(right, left, edge)
            assert abs(moved - O.edge_shear(de)) <= 1e-9 * max(
                1.0, abs(moved))

    def test_slot_groups_partition_ends(self):
        # arc k ends at the slots _seam_ends(k), and slot s is the end of
        # the arcs _seam_ends(s): the three per-slot relation groups take
        # each of the six arc-ends of a pants exactly once
        ends = sorted((k, idx) for s in range(3)
                      for k in _seam_ends(s)
                      for idx, t in enumerate(_seam_ends(k)) if t == s)
        assert ends == [(k, idx) for k in range(3) for idx in (0, 1)]

class TestTheoremAtSmallScale:
    def test_bound_holds_on_certified_samples(self):
        for trial in range(25):
            sig = Signature(*[(1, 1), (2, 0), (0, 4), (2, 1), (1, 2)]
                            [trial % 5])
            rec = record(sig, seed=S.sample_seed(37, trial))
            if rec["certified"]:
                assert rec["max_shear"] < main_bound(sig)


class TestHolonomyCocycle:
    def test_pants_relation_closes(self):
        # transporting around the three boundary words of any pants
        # returns to the start: X1 X2 X3 = 1 up to machine error
        for trial in range(10):
            sig = Signature(*[(1, 2), (2, 1), (0, 5)][trial % 3])
            hol, _ = developed(sig, seed=S.sample_seed(43, trial))
            for sp in hol.std:
                a, b, c, d = G.mat_mul(G.mat_mul(*sp.slot_hol[:2]),
                                       sp.slot_hol[2])
                assert abs(abs(a + d) - 2.0) <= 1e-8
                assert abs(b) <= 1e-8 and abs(c) <= 1e-8


class TestShearPointFreeAudit:
    def test_three_cusped_sphere(self):
        _, edges = developed(Signature(0, 3))
        assert min(margins(edges)) > 0

    def test_short_curve_margins_positive(self):
        _, edges = developed(Signature(1, 1), lengths={0: 0.05})
        assert min(margins(edges)) > 0

    def test_margin_trend_along_shrinking_curve(self):
        # the guaranteed floor of the collar margin tends to
        # log(sinh(rho)/rho') as the curve shrinks; the measured margins
        # stay positive and drift monotonically toward their own limit
        # (upward, for this family: the shear points sit well clear)
        trend = []
        for L in (0.2, 0.1, 0.05, 0.02, 0.01):
            _, edges = developed(Signature(1, 1), lengths={0: L})
            collar_rows = margins(edges, "curve")
            assert min(collar_rows) > 0
            trend.append(min(collar_rows))
        diffs = [b - a for a, b in zip(trend, trend[1:])]
        assert all(d > 0 for d in diffs) or all(d < 0 for d in diffs)
        assert max(trend) < 2.0

    def test_long_pants_compute_no_shear_point(self, monkeypatch):
        # no corner of a pants whose boundaries all exceed 2 tanh(rho)
        # carries a row, so its shear points are never computed
        params = shear_free_params()
        sp = build_pants(1.0, 2.0, 3.0)
        assert min(sp.lengths) > 2.0 * math.tanh(params.rho)

        def refuse(*args):
            raise AssertionError("shear point computed")

        monkeypatch.setattr(SP, "incircle_center", refuse)
        monkeypatch.setattr(SP, "perpendicular_foot", refuse)
        assert SP.pants_kernel(sp, params).margins == []
        # a pants with a cusp computes them
        with pytest.raises(AssertionError, match="shear point computed"):
            SP.pants_kernel(build_pants(1.0, 2.0, 0.0), params)

    def test_rows_match_the_eager_audit(self):
        # cusps, curves that carry a collar row and curves that do not:
        # the same rows in the same order, or the same error
        params = shear_free_params()
        short_max = 2.0 * math.tanh(params.rho)
        rng = np.random.default_rng(17)

        def outcome(audit, de):
            try:
                return audit(de, params)
            except G.GeometryError as err:
                return type(err), str(err)

        edges = empty = 0
        for _ in range(2000):
            ls = tuple((0.0, rng.uniform(0.001, short_max),
                        rng.uniform(short_max, 12.0))[rng.integers(3)]
                       for _ in range(3))
            try:
                developed = O.develop_pants(build_pants(*ls))
            except G.GeometryError:
                continue
            for de in developed:
                got = outcome(O.margin_rows, de)
                assert got == outcome(O.eager_margin_rows, de), ls
                edges += 1
                empty += got == []
        assert edges >= 3 * 1900
        assert 0 < empty < edges

    def test_sampled_audits(self):
        for trial in range(20):
            sig = Signature(*[(1, 1), (1, 2), (0, 4), (2, 1)][trial % 4])
            rec = record(sig, seed=S.sample_seed(41, trial))
            assert rec["min_margin"] > 0
