"""Seam decompositions: combinatorics, seam words, truncation."""

import math

from shearlab import decomposition as D
from shearlab import geom as G
from shearlab import surface as S
from shearlab.constants import INTERMEDIATE_CURVE_MAX, Signature, area


def build(sig, seed=None, lengths=None, twists=None):
    if lengths is not None:
        pg = S.canonical_pants_graph(sig)
        fn = S.FNCoordinates(lengths, twists or {k: 0.0 for k in lengths})
    elif sig.complexity == 1 and sig.n == 3:
        pg = S.canonical_pants_graph(sig)
        fn = S.FNCoordinates({}, {})
    else:
        pg, fn = S.sample_fn(sig, seed)
    hol = S.holonomy_from_fn(pg, fn)
    return hol, D.seam_decomposition(hol)


class TestCombinatorics:
    def test_three_cusped_sphere(self):
        _, hd = build(Signature(0, 3))
        assert len(hd.faces) == 2
        assert len(hd.arcs) == 3
        assert hd.curves == {}
        for arc in hd.arcs:
            assert all(e.kind == "at-cusp" for e in arc.endpoints)
            assert arc.length == math.inf

    def test_genus_two(self):
        _, hd = build(Signature(2, 0), seed=4)
        assert len(hd.curves) == 3
        assert len(hd.arcs) == 6
        assert len(hd.faces) == 4

    def test_arc_count_formula(self):
        for g, n, seed in [(1, 1, 0), (1, 2, 1), (0, 4, 2), (2, 1, 3)]:
            sig = Signature(g, n)
            _, hd = build(sig, seed=seed)
            assert len(hd.arcs) == 3 * (2 * g - 2 + n)
            assert len(hd.arcs) == 6 * g - 6 + 3 * n

    def test_arcs_border_two_faces(self):
        _, hd = build(Signature(2, 1), seed=9)
        count = {}
        for face in hd.faces:
            for kind, ref in face[2]:
                if kind == "arc":
                    count[ref] = count.get(ref, 0) + 1
        assert all(v == 2 for v in count.values())

    def test_sides_recorded_relative_to_orientation(self):
        _, hd = build(Signature(1, 1), seed=2)
        sides = [e.side for a in hd.arcs for e in a.endpoints
                 if e.kind == "on-curve"]
        assert set(sides) == {"left", "right"}


class TestTwistIndependence:
    def test_arc_lengths_do_not_move(self):
        sig = Signature(1, 2)
        lengths = {0: 1.4, 1: 0.8}
        _, hd0 = build(sig, lengths=lengths, twists={0: 0.0, 1: 0.0})
        _, hd1 = build(sig, lengths=lengths, twists={0: 0.9, 1: -2.3})
        for a0, a1 in zip(hd0.arcs, hd1.arcs):
            if a0.length == math.inf:
                assert a1.length == math.inf
            else:
                assert abs(a0.length - a1.length) <= 1e-12 * max(1, a0.length)


def seam_word(hol, arc):
    """The word X_i X_j of the two boundary slots a seam joins."""
    p, k = arc.ident
    i, j = (m for m in range(3) if m != k)
    return hol.evaluate_class([(f"bnd:{p}:{i}", 1), (f"bnd:{p}:{j}", 1)])


class TestGammaA:
    """The seam word X_i X_j is conjugate to the third boundary X_k^-1.

    X1 X2 X3 = 1 forces this, so a doubled-loop row on that word would
    only repeat the curve row of slot k; certify_short has no such row.
    """

    def test_equals_third_boundary_class(self):
        sig = Signature(2, 0)
        hol, hd = build(sig, seed=6)
        for arc in hd.arcs:
            p, k = arc.ident
            third = hol.graph.pants[p][k]
            f = seam_word(hol, arc)
            assert third[0] == "curve"
            assert G.classify(f) == "hyperbolic"
            want = hol.fn.length(third[1])
            assert abs(G.translation_length(f) - want) <= 1e-9 * max(1.0, want)

    def test_once_punctured_torus_gamma_is_cusp(self):
        sig = Signature(1, 1)
        hol, hd = build(sig, lengths={0: 1.0})
        arc = hd.arc((0, 2))  # the seam joining the two glued slots
        ends = [e.kind for e in arc.endpoints]
        assert ends == ["on-curve", "on-curve"]
        assert G.classify(seam_word(hol, arc)) == "parabolic"


class TestTruncation:
    def test_three_cusped_sphere_vanishes(self):
        # the standard cusp regions of the three-cusped sphere are
        # mutually tangent, so nothing of the seam survives
        _, hd = build(Signature(0, 3))
        for arc in hd.arcs:
            t = D.truncate_arc(hd.hol.std[arc.ident[0]], arc.ident[1])
            assert t.truncated_length <= 1e-9
            assert not t.overlap_diagnostic

    def test_long_curves_keep_everything(self):
        sig = Signature(2, 0)
        lengths = {c: 3.0 for c in range(3)}
        hol, hd = build(sig, lengths=lengths)
        for arc in hd.arcs:
            t = D.truncate_arc(hd.hol.std[arc.ident[0]], arc.ident[1])
            assert math.isclose(t.truncated_length, arc.length,
                                rel_tol=1e-12)
            assert t.removed == []

    def test_endpoint_collar_removal_is_width(self):
        sig = Signature(2, 0)
        short = 0.4
        lengths = {0: short, 1: 3.0, 2: 3.0}
        hol, hd = build(sig, lengths=lengths)
        from shearlab.constants import collar_width
        w = collar_width(short)
        for arc in hd.arcs:
            ends_on_short = sum(1 for e in arc.endpoints
                                if e.curve == 0)
            t = D.truncate_arc(hd.hol.std[arc.ident[0]], arc.ident[1])
            want = arc.length - ends_on_short * w
            if ends_on_short and arc.length != math.inf:
                assert abs(t.truncated_length - want) <= 1e-9

    def test_shrinking_curve_shrinks_arc(self):
        sig = Signature(1, 1)
        prev = None
        for L in (2.0, 1.0, 0.6, 0.3):
            hol, hd = build(sig, lengths={0: L})
            arc = hd.arc((0, 2))
            t = D.truncate_arc(hd.hol.std[arc.ident[0]], arc.ident[1])
            if prev is not None and L <= INTERMEDIATE_CURVE_MAX:
                assert t.truncated_length <= prev + 1e-9
            prev = t.truncated_length

    def test_no_overlaps_on_samples(self):
        for trial in range(30):
            sig = Signature(*[(1, 1), (0, 4), (2, 1)][trial % 3])
            hol, hd = build(sig, seed=S.sample_seed(31, trial))
            for arc in hd.arcs:
                t = D.truncate_arc(hd.hol.std[arc.ident[0]], arc.ident[1])
                assert not t.overlap_diagnostic
                assert not t.clamped
                assert t.truncated_length >= 0.0


class TestCertification:
    def test_three_cusped_sphere_certified(self):
        _, hd = build(Signature(0, 3))
        rep = D.certify_short(hd, Signature(0, 3))
        assert rep.certified

    def test_sampled_surfaces_certified(self):
        for trial in range(20):
            sig = Signature(*[(1, 1), (1, 2), (2, 0), (0, 5)][trial % 4])
            hol, hd = build(sig, seed=S.sample_seed(17, trial))
            rep = D.certify_short(hd, sig)
            assert rep.certified, [r.name for r in rep.rows if not r.passed]

    def test_adversarial_long_curve_fails(self):
        sig = Signature(1, 2)
        bad = 3.0 * math.log(4 * area(sig))
        hol, hd = build(sig, lengths={0: bad, 1: 1.0})
        rep = D.certify_short(hd, sig)
        assert not rep.certified
        failing = [r.name for r in rep.rows if not r.passed]
        assert any("curve 0" in name for name in failing)

    def test_report_shape(self):
        hol, hd = build(Signature(1, 1), lengths={0: 1.0})
        rep = D.certify_short(hd, Signature(1, 1))
        data = rep.as_dict()
        assert data["certified"] == rep.certified
        # curve lengths, raw lengths of curve-to-curve arcs, truncated arcs
        assert [row["name"] for row in data["rows"]] == [
            "curve 0 length <= 2 log(4 area)",
            "arc (0, 0) truncated length <= 6 log(4 area)",
            "arc (0, 1) truncated length <= 6 log(4 area)",
            "arc (0, 2) length <= 6 log(4 area) + collar widths",
            "arc (0, 2) truncated length <= 6 log(4 area)",
        ]
