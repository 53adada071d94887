"""Seam arcs: combinatorics, seam words, truncation, certification."""

import math

import numpy as np

import geometric_oracle as O
from shearlab import decomposition as D
from shearlab import geom as G
from shearlab import report
from shearlab import surface as S
from shearlab.constants import (INTERMEDIATE_CURVE_MAX, Signature, area,
                                collar_width)
from shearlab.pants import _seam_ends


def build(sig, seed=None, lengths=None, twists=None):
    if lengths is not None:
        pg = S.canonical_pants_graph(sig)
        fn = S.FNCoordinates(lengths, twists or {k: 0.0 for k in lengths})
    elif sig.complexity == 1 and sig.n == 3:
        pg = S.canonical_pants_graph(sig)
        fn = S.FNCoordinates({}, {})
    else:
        pg, fn = S.sample_fn(sig, seed)
    return S.holonomy_from_fn(pg, fn)


def arcs(hol):
    """(p, k), the pants and the slot kinds at both ends of every seam arc."""
    out = []
    for p, sp in enumerate(hol.std):
        for k in range(3):
            ends = [hol.graph.pants[p][s] for s in _seam_ends(k)]
            out.append(((p, k), sp, ends))
    return out


def truncated(sp, arc):
    """The truncated length run_surface certifies for seam arc (p, k)."""
    (row,) = [row for row in O.arc_rows(sp.lengths, arc[0], 1.0)
              if row.name.startswith(f"arc {arc} truncated length")]
    return row.value


def shortness_rows(hol, sig):
    """The rows run_surface certifies: curve rows, then per arc its rows."""
    log4a = math.log(4.0 * area(sig))
    curves = {cid: hol.fn.length(cid) for cid in hol.graph.curve_ids()}
    rows = O.curve_rows(curves, log4a)
    for p, sp in enumerate(hol.std):
        rows += O.arc_rows(sp.lengths, p, log4a)
    return rows


class TestCombinatorics:
    def test_three_cusped_sphere(self):
        hol = build(Signature(0, 3))
        rec = report.run_surface(Signature(0, 3), hol.graph, hol.fn)
        assert len(rec["shears"]) == 3
        assert 2 * hol.graph.num_pants == 2
        assert hol.graph.curve_ids() == []
        for arc, sp, ends in arcs(hol):
            assert all(kind == "cusp" for kind, _ in ends)
            assert O.arc_length(sp, arc[1]) == math.inf

    def test_genus_two(self):
        hol = build(Signature(2, 0), seed=4)
        rec = report.run_surface(Signature(2, 0), hol.graph, hol.fn)
        assert len(hol.graph.curve_ids()) == 3
        assert len(rec["shears"]) == 6
        assert 2 * hol.graph.num_pants == 4

    def test_arc_count_formula(self):
        for g, n, seed in [(1, 1, 0), (1, 2, 1), (0, 4, 2), (2, 1, 3)]:
            sig = Signature(g, n)
            hol = build(sig, seed=seed)
            rec = report.run_surface(sig, hol.graph, hol.fn)
            assert len(rec["shears"]) == 3 * (2 * g - 2 + n)
            assert len(rec["shears"]) == 6 * g - 6 + 3 * n

    def test_arcs_border_two_faces(self):
        # each arc is the shared edge of the front and the back triangle
        # of its pants, and the three front triangles are one triangle
        from geometric_oracle import develop_pants
        hol = build(Signature(2, 1), seed=9)
        for sp in hol.std:
            edges = develop_pants(sp)
            fronts = {frozenset(de.front.vertices()) for de in edges}
            assert len(fronts) == 1
            for de in edges:
                ends = {de.edge.p, de.edge.q}
                assert ends < set(de.front.vertices())
                assert ends < set(de.back.vertices())
                assert set(de.front.vertices()) != set(de.back.vertices())


class TestTwistIndependence:
    def test_arc_lengths_do_not_move(self):
        sig = Signature(1, 2)
        lengths = {0: 1.4, 1: 0.8}
        hol0 = build(sig, lengths=lengths, twists={0: 0.0, 1: 0.0})
        hol1 = build(sig, lengths=lengths, twists={0: 0.9, 1: -2.3})
        for (arc, sp0, _), (_, sp1, _) in zip(arcs(hol0), arcs(hol1)):
            l0, l1 = O.arc_length(sp0, arc[1]), O.arc_length(sp1, arc[1])
            if l0 == math.inf:
                assert l1 == math.inf
            else:
                assert abs(l0 - l1) <= 1e-12 * max(1, l0)
        rec0 = report.run_surface(sig, hol0.graph, hol0.fn)
        rec1 = report.run_surface(sig, hol1.graph, hol1.fn)
        assert {k: v for k, v in rec0.items() if k != "fn"} == {
            k: v for k, v in rec1.items() if k != "fn"}


def seam_word(hol, arc):
    """The word X_i X_j of the two boundary slots a seam joins."""
    p, k = arc
    i, j = _seam_ends(k)
    return hol.evaluate_class([(f"bnd:{p}:{i}", 1), (f"bnd:{p}:{j}", 1)])


class TestGammaA:
    """The seam word X_i X_j is conjugate to the third boundary X_k^-1.

    X1 X2 X3 = 1 forces this, so a doubled-loop row on that word would
    only repeat the curve row of slot k; the shortness rows have no such
    row.
    """

    def test_equals_third_boundary_class(self):
        sig = Signature(2, 0)
        hol = build(sig, seed=6)
        for arc, _, _ in arcs(hol):
            p, k = arc
            third = hol.graph.pants[p][k]
            f = seam_word(hol, arc)
            assert third[0] == "curve"
            assert G.classify(f) == "hyperbolic"
            want = hol.fn.length(third[1])
            assert abs(G.translation_length(f) - want) <= 1e-9 * max(1.0, want)

    def test_once_punctured_torus_gamma_is_cusp(self):
        sig = Signature(1, 1)
        hol = build(sig, lengths={0: 1.0})
        arc = (0, 2)  # the seam joining the two glued slots
        ends = [hol.graph.pants[0][s][0] for s in _seam_ends(arc[1])]
        assert ends == ["curve", "curve"]
        assert G.classify(seam_word(hol, arc)) == "parabolic"


class TestTruncation:
    """Truncated lengths from arc_rows; the removed intervals, overlap and
    clamp diagnostics from the geometric oracle."""

    def test_three_cusped_sphere_vanishes(self):
        # the standard cusp regions of the three-cusped sphere are
        # mutually tangent, so nothing of the seam survives
        hol = build(Signature(0, 3))
        for arc, sp, _ in arcs(hol):
            assert truncated(sp, arc) <= 1e-9
            assert not O.truncate_arc(sp, arc[1]).overlap_diagnostic

    def test_long_curves_keep_everything(self):
        sig = Signature(2, 0)
        lengths = {c: 3.0 for c in range(3)}
        hol = build(sig, lengths=lengths)
        for arc, sp, _ in arcs(hol):
            assert math.isclose(truncated(sp, arc), O.arc_length(sp, arc[1]),
                                rel_tol=1e-12)
            assert O.truncate_arc(sp, arc[1]).removed == []

    def test_endpoint_collar_removal_is_width(self):
        sig = Signature(2, 0)
        short = 0.4
        lengths = {0: short, 1: 3.0, 2: 3.0}
        hol = build(sig, lengths=lengths)
        w = collar_width(short)
        for arc, sp, ends in arcs(hol):
            ends_on_short = sum(1 for end in ends if end == ("curve", 0))
            length = O.arc_length(sp, arc[1])
            want = length - ends_on_short * w
            if ends_on_short and length != math.inf:
                assert abs(truncated(sp, arc) - want) <= 1e-9

    def test_shrinking_curve_shrinks_arc(self):
        sig = Signature(1, 1)
        prev = None
        for L in (2.0, 1.0, 0.6, 0.3):
            hol = build(sig, lengths={0: L})
            t = truncated(hol.std[0], (0, 2))
            if prev is not None and L <= INTERMEDIATE_CURVE_MAX:
                assert t <= prev + 1e-9
            prev = t

    def test_no_overlaps_on_samples(self):
        for trial in range(30):
            sig = Signature(*[(1, 1), (0, 4), (2, 1)][trial % 3])
            hol = build(sig, seed=S.sample_seed(31, trial))
            for arc, sp, _ in arcs(hol):
                t = O.truncate_arc(sp, arc[1])
                assert not t.overlap_diagnostic
                assert not t.clamped
                assert truncated(sp, arc) >= 0.0


class TestCertification:
    def test_three_cusped_sphere_certified(self):
        sig = Signature(0, 3)
        hol = build(sig)
        assert all(row.passed for row in shortness_rows(hol, sig))
        assert report.run_surface(sig, hol.graph, hol.fn)["certified"]

    def test_sampled_surfaces_certified(self):
        for trial in range(20):
            sig = Signature(*[(1, 1), (1, 2), (2, 0), (0, 5)][trial % 4])
            hol = build(sig, seed=S.sample_seed(17, trial))
            rows = shortness_rows(hol, sig)
            assert all(r.passed for r in rows), [r.name for r in rows
                                                 if not r.passed]
            assert report.run_surface(sig, hol.graph, hol.fn)["certified"]

    def test_adversarial_long_curve_fails(self):
        sig = Signature(1, 2)
        bad = 3.0 * math.log(4 * area(sig))
        hol = build(sig, lengths={0: bad, 1: 1.0})
        assert not report.run_surface(sig, hol.graph, hol.fn)["certified"]
        failing = [r.name for r in shortness_rows(hol, sig) if not r.passed]
        assert any("curve 0" in name for name in failing)

    def test_report_shape(self):
        hol = build(Signature(1, 1), lengths={0: 1.0})
        # curve lengths, raw lengths of curve-to-curve arcs, truncated arcs
        assert [row.name for row in shortness_rows(hol, Signature(1, 1))] == [
            "curve 0 length <= 2 log(4 area)",
            "arc (0, 0) truncated length <= 6 log(4 area)",
            "arc (0, 1) truncated length <= 6 log(4 area)",
            "arc (0, 2) length <= 6 log(4 area) + collar widths",
            "arc (0, 2) truncated length <= 6 log(4 area)",
        ]


class TestElementwiseMath:
    """_each and _once take a math function of the masked elements of an
    array of any shape and count, zero included: math's bits where the
    mask holds, NaN elsewhere."""

    @staticmethod
    def expected(fn, x, mask):
        want = np.full(x.shape, math.nan)
        for at in zip(*np.nonzero(mask)):
            want[at] = fn(float(x[at]))
        return want

    @staticmethod
    def masks(x):
        return (x > 1.0, np.zeros(x.shape, dtype=bool),
                np.ones(x.shape, dtype=bool))

    def test_each(self):
        # a stacked (2, 3, n) array, as the batch's corners and matrices
        x = np.random.default_rng(35).uniform(0.0, 3.0, (2, 3, 7))
        for mask in self.masks(x):
            got = D._each(math.asinh, x, mask)
            assert got.shape == x.shape
            assert got.tobytes() == self.expected(math.asinh, x,
                                                  mask).tobytes()
        empty = np.empty((2, 3, 0))
        assert D._each(math.asinh, empty, empty > 0.0).shape == (2, 3, 0)

    def test_once(self):
        # repeated values, and 0.0 beside -0.0, each taken once
        x = np.random.default_rng(35).choice([0.3, 1.5, 2.5, 0.0, -0.0],
                                             (2, 3, 7))
        values, where = D._distinct(x)
        assert len(values) == 5
        for mask in self.masks(x):
            got = D._once(math.cosh, values, where, mask)
            assert got.tobytes() == self.expected(math.cosh, x,
                                                  mask).tobytes()
        values, where = D._distinct(np.empty((2, 3, 0)))
        got = D._once(math.cosh, values, where, np.ones(where.shape, bool))
        assert got.shape == (2, 3, 0)
