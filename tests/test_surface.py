"""Pants graphs, Fenchel-Nielsen holonomy, and the surface sampler."""

import math
import struct

import numpy as np
import pytest

import fraction_frames as FF
import geometric_oracle as O
from shearlab import geom as G
from shearlab import pants as P
from shearlab import surface as S
from shearlab.constants import Signature, area


def draw(seed, curves, length_range, twist_range):
    """The lengths and twists of the curves of a seeded sample, as arrays:
    the reference of block_draws and sample_fn.

    numpy's Generator on a Philox bit generator keyed by the seed draws
    the lengths uniform in length_range, then per curve a u uniform in
    twist_range; the twist is u * length.  One vector draw each gives the
    same values as one scalar draw per curve.  With no curve nothing is
    drawn, so nothing checks the ranges.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    if not curves:
        return np.zeros(0), np.zeros(0)
    lengths = rng.uniform(*length_range, curves)
    return lengths, rng.uniform(*twist_range, curves) * lengths


class TestValidate:
    def test_one_handle_pants(self):
        pg = S.PantsGraph(((("curve", 0), ("curve", 0), ("cusp", 0)),))
        assert S.validate(pg, Signature(1, 1)) == []

    def test_three_cusps(self):
        pg = S.PantsGraph(((("cusp", 0), ("cusp", 1), ("cusp", 2)),))
        assert S.validate(pg, Signature(0, 3)) == []

    def test_two_pants_three_gluings(self):
        pg = S.PantsGraph((
            (("curve", 0), ("curve", 1), ("curve", 2)),
            (("curve", 0), ("curve", 1), ("curve", 2)),
        ))
        assert S.validate(pg, Signature(2, 0)) == []

    def test_diagnostics(self):
        pg = S.PantsGraph(((("curve", 0), ("cusp", 0), ("cusp", 1)),))
        problems = S.validate(pg, Signature(1, 1))
        assert problems  # dangling curve, wrong cusp count
        # no cusp count is read from a slot table that reuses a cusp id
        pg = S.PantsGraph(((("cusp", 0), ("cusp", 1), ("curve", 0)),
                           (("curve", 0), ("cusp", 0), ("cusp", 3))))
        assert S.validate(pg, Signature(0, 4)) == ["cusp id 0 used twice"]

    def test_two_slot_pants(self):
        # the library's check: the command line's parser rejects such a
        # file before validate sees it
        pg = S.PantsGraph(((("curve", 0), ("cusp", 0), ("cusp", 1)),
                           (("curve", 0), ("cusp", 2))))
        assert S.validate(pg, Signature(0, 4)) == [
            "pants 1 must have exactly 3 slots", "expected 4 cusps, found 3"]

    def test_canonical_graphs(self):
        for g, n in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 0), (2, 1),
                     (2, 2), (3, 0)]:
            sig = Signature(g, n)
            assert S.validate(S.canonical_pants_graph(sig), sig) == []

    def test_canonical_graph_is_the_old_construction(self):
        sigs = [(g, n) for g in range(61) for n in range(7)
                if 2 * g - 2 + n > 0] + [(2000, 3)]
        for g, n in sigs:
            sig = Signature(g, n)
            assert S.canonical_pants_graph(sig) == old_canonical_graph(sig), (
                g, n)


def old_canonical_graph(sig):
    """canonical_pants_graph as first written, popping the handle slots
    off the front of the free list (quadratic in g): the oracle of the
    indexed walk."""
    m = sig.complexity
    slots = [[None, None, None] for _ in range(m)]
    next_curve = 0
    for p in range(m - 1):
        slots[p][2] = ("curve", next_curve)
        slots[p + 1][0] = ("curve", next_curve)
        next_curve += 1
    free = [(p, s) for p in range(m) for s in range(3) if slots[p][s] is None]
    for _ in range(sig.g):
        (p1, s1), (p2, s2) = free.pop(0), free.pop(0)
        slots[p1][s1] = ("curve", next_curve)
        slots[p2][s2] = ("curve", next_curve)
        next_curve += 1
    for cusp_id, (p, s) in enumerate(free):
        slots[p][s] = ("cusp", cusp_id)
    return S.PantsGraph(tuple(tuple(s) for s in slots))


class TestSeamLengths:
    def test_equilateral(self):
        length = 2 * math.acosh(2.0)
        for seam in P.seam_lengths(length, length, length):
            assert math.isclose(seam, math.acosh(2.0), rel_tol=1e-12)

    def test_cusp_reduces_cosh(self):
        big = 2.0
        a3 = P.seam_lengths(big, big, 0.0)[2]
        c = math.cosh(big / 2) ** 2 + 1
        s = math.sinh(big / 2) ** 2
        assert math.isclose(math.cosh(a3), c / s, rel_tol=1e-12)

    def test_cusp_endpoint_is_infinite(self):
        a1, a2, a3 = P.seam_lengths(0.0, 1.0, 2.0)
        # seams 2 and 3 end on boundary 1, which is a cusp
        assert a2 == math.inf and a3 == math.inf
        assert a1 < math.inf

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            l1, l2, l3 = rng.uniform(0.2, 5.0, size=3)
            base = P.seam_lengths(l1, l2, l3)
            perm = P.seam_lengths(l2, l3, l1)
            assert math.isclose(base[0], perm[2], rel_tol=1e-12)
            assert math.isclose(base[1], perm[0], rel_tol=1e-12)
            assert math.isclose(base[2], perm[1], rel_tol=1e-12)

    def test_matches_developed_feet(self):
        sp = P.build_pants(1.3, 2.1, 0.7)
        trig = P.seam_lengths(1.3, 2.1, 0.7)
        for k in range(3):
            (s1, f1), (s2, f2) = O.seam_feet(sp, k)
            assert math.isclose(G.dist(f1, f2), trig[k], rel_tol=1e-10)


class TestHolonomy:
    def test_once_punctured_torus_commutator(self):
        pg = S.canonical_pants_graph(Signature(1, 1))
        hol = S.holonomy_from_fn(pg, S.FNCoordinates({0: 1.0}, {0: 0.0}))
        comm = hol.evaluate_class([("curve:0", 1), ("glue:0", 1),
                                   ("curve:0", -1), ("glue:0", -1)])
        assert abs(abs(comm.a + comm.d) - 2.0) <= 1e-9

    def test_three_cusped_sphere_all_parabolic(self):
        pg = S.canonical_pants_graph(Signature(0, 3))
        hol = S.holonomy_from_fn(pg, S.FNCoordinates({}, {}))
        for cusp in range(3):
            g = hol.evaluate_class([(f"cusp:{cusp}", 1)])
            assert abs(abs(g.a + g.d) - 2.0) <= 1e-12

    def test_length_recovery_hundred_samples(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            g, n = [(1, 1), (1, 2), (0, 4), (2, 0), (2, 1)][trial % 5]
            sig = Signature(g, n)
            pg, fn = S.sample_fn(sig, S.sample_seed(99, trial))
            hol = S.holonomy_from_fn(pg, fn)
            for cid in pg.curve_ids():
                got = G.translation_length(
                    hol.evaluate_class([(f"curve:{cid}", 1)]))
                assert abs(got - fn.length(cid)) <= 1e-9 * max(
                    1.0, fn.length(cid))

    def test_cusp_parabolicity_sampled(self):
        for trial in range(40):
            sig = Signature(*[(1, 1), (1, 2), (0, 5), (2, 1)][trial % 4])
            pg, fn = S.sample_fn(sig, S.sample_seed(7, trial))
            hol = S.holonomy_from_fn(pg, fn)
            for cusp in pg.cusp_slots():
                g = hol.evaluate_class([(f"cusp:{cusp}", 1)])
                assert abs(abs(g.a + g.d) - 2.0) <= 1e-9

    def test_twist_naturality(self):
        pg = S.canonical_pants_graph(Signature(1, 2))
        base = S.FNCoordinates({0: 1.7, 1: 0.9}, {0: 0.4, 1: 0.0})
        hol0 = S.holonomy_from_fn(pg, base)
        shifted = S.FNCoordinates(dict(base.lengths),
                                  {0: 0.4 + 1.7, 1: 0.0})
        hol1 = S.holonomy_from_fn(pg, shifted)
        def trace(hol, word):
            g = hol.evaluate_class(word)
            return g.a + g.d

        for cid in pg.curve_ids():
            t0 = trace(hol0, [(f"curve:{cid}", 1)])
            t1 = trace(hol1, [(f"curve:{cid}", 1)])
            assert abs(abs(t0) - abs(t1)) <= 1e-9
        for cusp in pg.cusp_slots():
            t0 = trace(hol0, [(f"cusp:{cusp}", 1)])
            t1 = trace(hol1, [(f"cusp:{cusp}", 1)])
            assert abs(abs(t0) - abs(t1)) <= 1e-9

    def test_checks_read_the_slot_holonomies(self, monkeypatch):
        # a curve or cusp word of one generator is its slot holonomy times
        # an identity connector, so the checks read the slot directly
        def refuse(self, word):
            raise AssertionError("holonomy check evaluated a word")

        monkeypatch.setattr(S.Holonomy, "evaluate_class", refuse)
        for sig in (Signature(2, 2), Signature(0, 5), Signature(1, 1)):
            pg, fn = S.sample_fn(sig, 5)
            hol = S.holonomy_from_fn(pg, fn)
            assert len(hol.table) > 3 * pg.num_pants

    def test_rejects_nonpositive_length(self):
        pg = S.canonical_pants_graph(Signature(1, 1))
        with pytest.raises(ValueError):
            S.holonomy_from_fn(pg, S.FNCoordinates({0: 0.0}, {0: 0.0}))

    def test_conjugated_word_same_length(self):
        pg = S.canonical_pants_graph(Signature(1, 2))
        pg2, fn = S.sample_fn(Signature(1, 2), 21)
        hol = S.holonomy_from_fn(pg2, fn)
        for cid in pg2.curve_ids():
            plain = S.curve_length(hol, [(f"curve:{cid}", 1)])
            conj = S.curve_length(hol, [("glue:1", 1), (f"curve:{cid}", 1),
                                        ("glue:1", -1)])
            assert abs(plain - conj) <= 1e-9 * max(1.0, plain)

    def test_curve_length_rejects_parabolic(self):
        pg = S.canonical_pants_graph(Signature(1, 1))
        hol = S.holonomy_from_fn(pg, S.FNCoordinates({0: 1.0}, {0: 0.0}))
        with pytest.raises(G.GeometryError):
            S.curve_length(hol, [("cusp:0", 1)])

    def test_word_validation(self):
        pg = S.canonical_pants_graph(Signature(1, 1))
        hol = S.holonomy_from_fn(pg, S.FNCoordinates({0: 1.0}, {0: 0.0}))
        with pytest.raises(ValueError):
            hol.evaluate_class([])
        with pytest.raises(ValueError):
            hol.evaluate_class([("curve:0", 1), ("curve:0", -1)])

    def test_doubled_arc_words_evaluate(self):
        pg = S.canonical_pants_graph(Signature(2, 1))
        pg2, fn = S.sample_fn(Signature(2, 1), 11)
        hol = S.holonomy_from_fn(pg2, fn)
        length = S.curve_length(hol, [("bnd:0:0", 1), ("bnd:0:2", 1)])
        assert length > 0


#: gluing graphs whose spanning tree branches at pants 0, so pants 1, 2
#: and 3 lie on three different root paths: K4 for (3,0), and for (2,2)
#: the same star with a cusp in place of two of the leaves' gluings
STAR_GRAPHS = {
    (3, 0): ((("curve", 0), ("curve", 1), ("curve", 2)),
             (("curve", 0), ("curve", 3), ("curve", 5)),
             (("curve", 1), ("curve", 3), ("curve", 4)),
             (("curve", 2), ("curve", 4), ("curve", 5))),
    (2, 2): ((("curve", 0), ("curve", 1), ("curve", 2)),
             (("curve", 0), ("curve", 3), ("cusp", 0)),
             (("curve", 1), ("curve", 3), ("curve", 4)),
             (("curve", 2), ("curve", 4), ("cusp", 1))),
}


class TestConnector:
    """_connector(p, q) is the exact product F_p^-1 F_q of the tree
    paths' gluing maps, each entry rounded once."""

    @pytest.mark.parametrize("sig", list(STAR_GRAPHS), ids=str)
    def test_bit_equal_to_fractions(self, sig):
        pg = S.PantsGraph(STAR_GRAPHS[sig])
        assert S.validate(pg, Signature(*sig)) == []
        rng = np.random.default_rng(5)
        cids = pg.curve_ids()
        for _ in range(5):
            lengths = rng.uniform(0.3, 4.0, len(cids))
            twists = rng.uniform(-1.0, 1.0, len(cids)) * lengths
            hol = S.holonomy_from_fn(pg, S.FNCoordinates(
                dict(zip(cids, lengths.tolist())),
                dict(zip(cids, twists.tolist()))))
            paths = FF.tree_paths(hol)
            assert [len(path) for path in paths] == [0, 1, 1, 1]
            for p in range(4):
                for q in range(4):
                    want = [float(v) for v in FF.connector(paths, p, q)]
                    assert [struct.pack("<d", v) for v in
                            hol._connector(p, q)] == [
                        struct.pack("<d", v) for v in want], (p, q)


class TestSampler:
    def test_graph_built_once_per_signature(self):
        sig = Signature(2, 1)
        pg1, _ = S.sample_fn(sig, 1)
        pg2, _ = S.sample_fn(sig, 2)
        assert pg1 is pg2

    def test_deterministic(self):
        a = S.sample_fn(Signature(1, 1), 42)
        b = S.sample_fn(Signature(1, 1), 42)
        assert a[1].lengths == b[1].lengths and a[1].twists == b[1].twists

    def test_default_length_range(self):
        sig = Signature(2, 1)
        hi = 2 * math.log(4 * area(sig))
        for i in range(50):
            _, fn = S.sample_fn(sig, S.sample_seed(3, i))
            for cid, L in fn.lengths.items():
                assert 0.05 <= L <= hi
                assert 0.0 <= fn.twist(cid) < L

    def test_pipeline_smoke_hundred(self):
        sig = Signature(2, 1)
        for i in range(100):
            pg, fn = S.sample_fn(sig, S.sample_seed(5, i))
            assert S.validate(pg, sig) == []
            S.holonomy_from_fn(pg, fn)

    def test_draws_match_one_scalar_draw_per_curve(self):
        # sample_fn draws the lengths, then the twist factors, with one
        # vector draw each; the loop it replaced drew one scalar per curve.
        # Same bits in the same curve order, from 0 to 40 curves; with no
        # curve nothing is drawn, so not even a bad range is rejected.
        # block_draws, a campaign's draw, gives the same bits for a block
        # of the same seeds
        def scalar_draws(sig, seed, length_range, twist_range):
            if length_range is None:
                length_range = (0.05, 2.0 * math.log(4.0 * area(sig)))
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            cids = S.canonical_pants_graph(sig).curve_ids()
            lengths = {cid: float(rng.uniform(*length_range)) for cid in cids}
            twists = {cid: float(rng.uniform(*twist_range)) * lengths[cid]
                      for cid in cids}
            return lengths, twists

        def bits(table):
            return [(cid, value.hex()) for cid, value in table.items()]

        sigs = [Signature(*gn) for gn in ((0, 3), (1, 1), (0, 5), (2, 1),
                                          (5, 5), (10, 0), (14, 1))]
        assert [len(S.canonical_pants_graph(sig).curve_ids())
                for sig in sigs] == [0, 1, 2, 4, 17, 27, 40]
        ranges = ((None, (0.0, 1.0)), ((1e-12, 1e-9), (-2.0, 3.0)),
                  ((3.0, 3.0), (0.0, 0.0)))
        seeds = np.arange(100, dtype=np.uint64)
        for sig in sigs:
            cids = S.canonical_pants_graph(sig).curve_ids()
            for length_range, twist_range in ranges:
                block = S.block_draws(
                    seeds, len(cids), length_range
                    or S.default_length_range(sig), twist_range)
                for seed in range(100):
                    _, fn = S.sample_fn(sig, seed, length_range, twist_range)
                    lengths, twists = scalar_draws(sig, seed, length_range,
                                                   twist_range)
                    assert bits(fn.lengths) == bits(lengths), (seed, sig)
                    assert bits(fn.twists) == bits(twists), (seed, sig)
                    assert bits(dict(zip(cids, block[0][seed].tolist()))) \
                        == bits(lengths), (seed, sig)
                    assert bits(dict(zip(cids, block[1][seed].tolist()))) \
                        == bits(twists), (seed, sig)
        _, fn = S.sample_fn(Signature(0, 3), 1, (5.0, 1.0), (0.0, math.inf))
        assert fn.lengths == fn.twists == {}
        assert [a.shape for a in S.block_draws(
            seeds[:3], 0, (5.0, 1.0), (0.0, math.inf))] == [(3, 0), (3, 0)]

    @pytest.mark.parametrize("curves", [1, 17, 27])
    def test_block_draws_are_draws_row_by_row(self, curves):
        # block_draws re-keys one Philox per sample: row i must be
        # draw(seeds[i]) at the top of the seed range and at a
        # campaign's seeds, in blocks of 1 and 257, where 2 curves words
        # do not fill whole Philox blocks of 4
        top = [2 ** 63, 2 ** 63 + 1, 2 ** 64 - 2, 2 ** 64 - 1]
        rng = np.random.default_rng(curves)
        top += rng.integers(2 ** 63, 2 ** 64, 253, dtype=np.uint64,
                            endpoint=False).tolist()
        for seeds in (np.array(top, dtype=np.uint64),
                      S.block_seeds(7, 0, 257), S.block_seeds(2 ** 64 - 1,
                                                              300, 257)):
            for block in (seeds[:1], seeds[-1:], seeds):
                lengths, twists = S.block_draws(block, curves, (0.05, 9.0),
                                                (0.0, 1.0))
                assert lengths.shape == twists.shape == (len(block), curves)
                for seed, row_l, row_t in zip(block.tolist(), lengths,
                                              twists):
                    want_l, want_t = draw(seed, curves, (0.05, 9.0),
                                          (0.0, 1.0))
                    assert row_l.tobytes() == want_l.tobytes(), seed
                    assert row_t.tobytes() == want_t.tobytes(), seed

    def test_empty_block_draws_nothing_but_checks_the_ranges(self):
        # a block with no sample and some curves gives (0, curves) arrays,
        # and a bad range raises draw's error all the same
        seeds = np.zeros(0, dtype=np.uint64)
        assert [a.shape for a in S.block_draws(seeds, 3, (0.05, 9.0),
                                               (0.0, 1.0))] == [(0, 3)] * 2
        for ranges in (((5.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, math.inf)),
                       ((math.nan, 1.0), (2.0, 1.0))):
            with pytest.raises((ValueError, OverflowError)) as ours:
                S.block_draws(seeds, 3, *ranges)
            with pytest.raises((ValueError, OverflowError)) as reference:
                draw(0, 3, *ranges)
            assert type(ours.value) is type(reference.value)
            assert str(ours.value) == str(reference.value)

    def test_sample_fn_is_the_reference_draw(self):
        # sample_fn draws a block of one: the reference's bits up to the
        # top of the seed range, and its error for a seed out of that
        # range or a bad length or twist range
        for gn in ((0, 3), (1, 1), (5, 5)):
            sig = Signature(*gn)
            cids = S.canonical_pants_graph(sig).curve_ids()
            for seed in (0, 7, 123456789, 2 ** 64 - 1):
                _, fn = S.sample_fn(sig, seed)
                want = draw(seed, len(cids), S.default_length_range(sig),
                            (0.0, 1.0))
                got = [np.array([table[c] for c in cids], dtype=float)
                       for table in (fn.lengths, fn.twists)]
                assert [a.tobytes() for a in got] == [
                    a.tobytes() for a in want], (gn, seed)
        for seed, ranges in ((-1, ((0.05, 9.0), (0.0, 1.0))),
                             (2 ** 64, ((0.05, 9.0), (0.0, 1.0))),
                             (0, ((5.0, 1.0), (0.0, 1.0))),
                             (0, ((0.05, math.inf), (0.0, 1.0)))):
            with pytest.raises((ValueError, OverflowError)) as ours:
                S.sample_fn(Signature(0, 4), seed, *ranges)
            with pytest.raises((ValueError, OverflowError)) as reference:
                draw(seed, 1, *ranges)
            assert type(ours.value) is type(reference.value)
            assert str(ours.value) == str(reference.value)

    @pytest.mark.parametrize("base", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63,
                                      2 ** 64 - 1])
    def test_block_seeds_are_numpys_seed_sequence(self, base):
        # one- and two-word entropy; indices 0-600 span the campaign's
        # block starts (0, 256, 512), and the blocks split anywhere
        def reference(i):
            return int(np.random.SeedSequence(
                entropy=np.uint64(base), spawn_key=(i,)).generate_state(
                    1, np.uint64)[0])

        want = [reference(i) for i in range(601)]
        assert S.block_seeds(base, 0, 601).tolist() == want
        for start, size in ((0, 256), (256, 256), (512, 89), (255, 2),
                            (600, 1)):
            assert S.block_seeds(base, start, size).tolist() \
                == want[start:start + size], (start, size)
        assert S.sample_seed(base, 600) == want[600]
        # an index from 2^32 on is two words of spawn key
        big = 2 ** 32 - 2
        assert S.block_seeds(base, big, 4).tolist() == [
            reference(i) for i in range(big, big + 4)]

    def test_block_seeds_reject_what_numpy_rejects(self):
        for base in (-1, 2 ** 64):
            with pytest.raises(OverflowError) as ours:
                S.block_seeds(base, 0, 3)
            with pytest.raises(OverflowError) as numpys:
                np.random.SeedSequence(entropy=np.uint64(base))
            assert str(ours.value) == str(numpys.value)

    def test_seed_splitting_changes_streams(self):
        seeds = {S.sample_seed(42, i) for i in range(100)}
        assert len(seeds) == 100
