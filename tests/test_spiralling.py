"""Spiralling triangulations: developing, shears, relations, audits."""

import numpy as np

from shearlab import decomposition as D
from shearlab import geom as G
from shearlab import spiralling as SP
from shearlab import surface as S
from shearlab.constants import Signature, main_bound, shear_free_params


def pipeline(sig, seed=None, lengths=None, twists=None, flips=None):
    if lengths is not None:
        pg = S.canonical_pants_graph(sig)
        fn = S.FNCoordinates(lengths, twists or {k: 0.0 for k in lengths})
    elif sig.complexity == 1 and sig.n == 3:
        pg = S.canonical_pants_graph(sig)
        fn = S.FNCoordinates({}, {})
    else:
        pg, fn = S.sample_fn(sig, seed)
    hol = S.holonomy_from_fn(pg, fn)
    hd = D.seam_decomposition(hol)
    st = SP.spiral(hd, flips)
    dc = SP.develop(hol, st)
    return hol, hd, st, dc


class TestSpiral:
    def test_three_cusped_sphere_no_leaves(self):
        _, _, st, _ = pipeline(Signature(0, 3))
        assert st.closed_leaves == set()
        assert len(st.edges) == 3 and len(st.triangles) == 2

    def test_once_punctured_torus_counts(self):
        _, _, st, _ = pipeline(Signature(1, 1), lengths={0: 1.0})
        assert len(st.edges) == 3
        assert len(st.triangles) == 2
        assert st.closed_leaves == {0}

    def test_edge_counts_match_formula(self):
        for g, n, seed in [(1, 2, 1), (2, 0, 2), (0, 5, 3)]:
            sig = Signature(g, n)
            _, _, st, _ = pipeline(sig, seed=seed)
            assert len(st.edges) == 6 * g - 6 + 3 * n
            assert len(st.triangles) == 4 * g - 4 + 2 * n

    def test_left_side_spirals_with_orientation(self):
        _, _, st, _ = pipeline(Signature(1, 1), lengths={0: 1.0})
        for edge in st.edges:
            for end in edge.ends:
                if end.kind == "curve":
                    want = "with" if end.side == "left" else "against"
                    assert end.direction == want

    def test_orientation_flip_is_local(self):
        sig = Signature(1, 2)
        _, _, st0, _ = pipeline(sig, seed=5)
        _, _, st1, _ = pipeline(sig, seed=5, flips={0: True})
        for e0, e1 in zip(st0.edges, st1.edges):
            for a, b in zip(e0.ends, e1.ends):
                if a.kind == "curve" and a.curve == 0:
                    assert a.side != b.side and a.direction != b.direction
                else:
                    assert a == b


class TestDevelop:
    def test_three_cusped_sphere_is_square(self):
        _, _, _, dc = pipeline(Signature(0, 3))
        for de in dc.edges.values():
            quad = de.quadrilateral()
            assert len(set(quad)) == 4

    def test_quadrilateral_points_interleave(self):
        for trial in range(20):
            sig = Signature(*[(1, 1), (2, 0), (0, 4), (2, 1)][trial % 4])
            _, _, _, dc = pipeline(sig, seed=S.sample_seed(23, trial))
            for de in dc.edges.values():
                left = G.side_of(de.edge, de.apex_front.point)
                right = G.side_of(de.edge, de.apex_back.point)
                assert {left, right} == {"left", "right"}

    def test_fixed_point_residuals(self):
        _, _, _, dc = pipeline(Signature(2, 1), seed=12)
        for de in dc.edges.values():
            for corner in (*de.end_corners, de.apex_front, de.apex_back):
                img = corner.stabilizer.apply_boundary(corner.point)
                if corner.point == G.INF or img == G.INF:
                    assert img == corner.point
                else:
                    assert abs(img - corner.point) <= 1e-9 * max(
                        1.0, abs(corner.point))

    def test_orientation_flip_does_not_move_geometry(self):
        # both spiral conventions single out the same limit points, so the
        # developed edges agree whatever orientations are declared, and
        # the sum relations hold under either labelling of the sides
        sig = Signature(1, 2)
        _, hd0, _, dc0 = pipeline(sig, seed=5)
        _, hd1, _, dc1 = pipeline(sig, seed=5, flips={0: True, 1: True})
        for arc in dc0.edges:
            q0 = dc0.edges[arc].quadrilateral()
            q1 = dc1.edges[arc].quadrilateral()
            assert q0 == q1
        rel = SP.shear_relations(SP.shear_vector(dc1), hd1)
        assert rel.ok()


class TestShearVector:
    def test_three_cusped_sphere_zero(self):
        _, _, _, dc = pipeline(Signature(0, 3))
        sv = SP.shear_vector(dc)
        assert all(abs(v) <= 1e-12 for v in sv.values.values())
        assert sv.max_abs() <= 1e-12

    def test_once_punctured_torus_forced_values(self):
        # relations force the two cusp-ended arcs to zero shear and the
        # self-seam arc to the curve length, whatever the twist
        for twist in (0.0, 0.4, 0.9):
            _, hd, _, dc = pipeline(Signature(1, 1), lengths={0: 1.0},
                                    twists={0: twist})
            sv = SP.shear_vector(dc)
            assert abs(sv.values[(0, 2)] - 1.0) <= 1e-9
            assert abs(sv.values[(0, 0)]) <= 1e-9
            assert abs(sv.values[(0, 1)]) <= 1e-9

    def test_relations_on_samples(self):
        for trial in range(40):
            sig = Signature(*[(1, 1), (1, 2), (0, 4), (0, 5)][trial % 4])
            _, hd, _, dc = pipeline(sig, seed=S.sample_seed(29, trial))
            sv = SP.shear_vector(dc)
            rel = SP.shear_relations(sv, hd)
            assert rel.max_cusp_residual <= 1e-6
            assert rel.max_side_residual <= 1e-6

    def test_dual_method_agreement(self):
        _, _, _, dc = pipeline(Signature(2, 0), seed=3)
        sv1 = SP.shear_vector(dc)
        sv2 = SP.shear_vector(dc, method="shear_points")
        for arc in sv1.values:
            assert abs(sv1.values[arc] - sv2.values[arc]) <= 1e-9

    def test_base_lift_independence(self):
        # transporting a quadrilateral by any deck element leaves the
        # shear unchanged
        rng = np.random.default_rng(31)
        _, _, _, dc = pipeline(Signature(1, 2), seed=8)
        sv = SP.shear_vector(dc)
        for arc, de in dc.edges.items():
            while True:
                a, b, c, d = rng.uniform(-2, 2, size=4)
                if a * d - b * c > 0.1:
                    break
            g = G.Isometry.from_matrix(a, b, c, d)
            pts = [g.apply_boundary(x) for x in
                   (de.edge.p, de.edge.q, de.apex_front.point,
                    de.apex_back.point)]
            edge = G.Geodesic(pts[0], pts[1])
            t1 = _tri(pts[0], pts[1], pts[2])
            t2 = _tri(pts[0], pts[1], pts[3])
            left, right = ((t1, t2) if G.side_of(edge, pts[2]) == "left"
                           else (t2, t1))
            moved = G.shear(right, left, edge)
            assert abs(moved - sv.values[arc]) <= 1e-9 * max(
                1.0, abs(moved))

    def test_index_sets_partition_ends(self):
        _, _, st, dc = pipeline(Signature(2, 1), seed=14)
        sv = SP.shear_vector(dc)
        total = sum(len(v) for v in sv.cusp_ends.values())
        total += sum(len(v) for v in sv.side_ends.values())
        assert total == 2 * len(st.edges)


def _tri(a, b, c):
    if G.cyclically_ordered(a, b, c):
        return G.IdealTriangle(a, b, c)
    return G.IdealTriangle(a, c, b)


class TestTheoremAtSmallScale:
    def test_bound_holds_on_certified_samples(self):
        for trial in range(25):
            sig = Signature(*[(1, 1), (2, 0), (0, 4), (2, 1), (1, 2)]
                            [trial % 5])
            hol, hd, st, dc = pipeline(sig, seed=S.sample_seed(37, trial))
            sv = SP.shear_vector(dc)
            rep = D.certify_short(hd, sig)
            if rep.certified:
                assert sv.max_abs() < main_bound(sig)


class TestHolonomyCocycle:
    def test_pants_relation_closes(self):
        # transporting around the three boundary words of any pants
        # returns to the start: X1 X2 X3 = 1 up to machine error
        for trial in range(10):
            sig = Signature(*[(1, 2), (2, 1), (0, 5)][trial % 3])
            hol, _, _, _ = pipeline(sig, seed=S.sample_seed(43, trial))
            for sp in hol.std:
                prod = sp.slot_hol[0] @ sp.slot_hol[1] @ sp.slot_hol[2]
                assert abs(abs(prod.trace()) - 2.0) <= 1e-8
                assert abs(prod.b) <= 1e-8 and abs(prod.c) <= 1e-8


class TestShearPointFreeAudit:
    def test_three_cusped_sphere(self):
        _, _, _, dc = pipeline(Signature(0, 3))
        rep = SP.shear_point_free_audit(dc, shear_free_params())
        assert rep.min_margin > 0

    def test_short_curve_margins_positive(self):
        _, _, _, dc = pipeline(Signature(1, 1), lengths={0: 0.05})
        rep = SP.shear_point_free_audit(dc, shear_free_params())
        assert rep.min_margin > 0

    def test_margin_trend_along_shrinking_curve(self):
        # the guaranteed floor of the collar margin tends to
        # log(sinh(rho)/rho') as the curve shrinks; the measured margins
        # stay positive and drift monotonically toward their own limit
        # (upward, for this family: the shear points sit well clear)
        params = shear_free_params()
        margins = []
        for L in (0.2, 0.1, 0.05, 0.02, 0.01):
            _, _, _, dc = pipeline(Signature(1, 1), lengths={0: L})
            rep = SP.shear_point_free_audit(dc, params)
            collar_rows = [r.margin for r in rep.rows
                           if r.corner_kind == "curve"]
            assert min(collar_rows) > 0
            margins.append(min(collar_rows))
        diffs = [b - a for a, b in zip(margins, margins[1:])]
        assert all(d > 0 for d in diffs) or all(d < 0 for d in diffs)
        assert max(margins) < 2.0

    def test_sampled_audits(self):
        for trial in range(20):
            sig = Signature(*[(1, 1), (1, 2), (0, 4), (2, 1)][trial % 4])
            _, _, _, dc = pipeline(sig, seed=S.sample_seed(41, trial))
            rep = SP.shear_point_free_audit(dc, shear_free_params())
            assert rep.min_margin > 0
