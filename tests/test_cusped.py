"""Cusped triangulations: chain construction, flips, developing maps."""

import hashlib
import math
import re
import struct

import numpy as np
import pytest

import flip_harness as F
import fraction_frames as FF
import geometric_oracle as O
from shearlab import chains as CH
from shearlab import cusped as CU
from shearlab import geom as G
from shearlab import surface as S
from shearlab.constants import Signature
from shearlab.geom import RELATION_TOL


def chain(sig, seed=None, lengths=None, twists=None):
    if lengths is not None:
        pg = S.canonical_pants_graph(sig)
        fn = S.FNCoordinates(lengths, twists or {k: 0.0 for k in lengths})
    elif sig.n == 3 and sig.g == 0:
        pg = S.canonical_pants_graph(sig)
        fn = S.FNCoordinates({}, {})
    else:
        pg, fn = S.sample_fn(sig, seed)
    hol = S.holonomy_from_fn(pg, fn)
    return fn, CH.build_cusped_chain(hol)


def assert_glue_keys(cx):
    """A flip re-glues all six sides it touches: no stale or missing key."""
    assert set(cx.glue) == {(f, s) for f in range(cx.num_faces())
                            for s in range(3)}


class TestChainConstruction:
    def test_three_cusps(self):
        fn, (cx, sigma, walks) = chain(Signature(0, 3))
        assert cx.num_faces() == 2 and len(cx.edges()) == 3
        assert all(v == 0.0 for v in sigma.values())
        assert len(cx.vertex_links()) == 3

    @pytest.mark.parametrize("merged", [(0, 1), (1, 2), (0, 2)])
    def test_disconnected_link_is_named(self, merged):
        # the three-cusped sphere's two faces, with two of its cusps given
        # one id: that cusp's link is two cycles
        fn, (cx, sigma, walks) = chain(Signature(0, 3))
        keep, drop = merged
        relabelled = CU.CuspedTriangulation(
            verts=[tuple(keep if c == drop else c for c in vs)
                   for vs in cx.verts], glue=cx.glue)
        with pytest.raises(ValueError,
                           match=f"^cusp {keep} has a disconnected link$"):
            relabelled.vertex_links()

    def test_four_cusps(self):
        for seed in range(6):
            fn, (cx, sigma, walks) = chain(Signature(0, 4), seed=seed)
            assert cx.num_faces() == 4 and len(cx.edges()) == 6
            assert len(cx.vertex_links()) == 4
            sums = CU.cusp_sums(cx, sigma)
            assert max(abs(v) for v in sums.values()) <= 1e-7

    def test_five_cusps(self):
        for seed in range(6):
            fn, (cx, sigma, walks) = chain(Signature(0, 5), seed=seed)
            assert cx.num_faces() == 6 and len(cx.edges()) == 9
            assert len(cx.vertex_links()) == 5
            sums = CU.cusp_sums(cx, sigma)
            assert max(abs(v) for v in sums.values()) <= 1e-6

    def test_curve_walk_recovers_length(self):
        for n, seed in ((4, 2), (4, 9), (5, 1), (5, 4)):
            fn, (cx, sigma, walks) = chain(Signature(0, n), seed=seed)
            hol = CU.develop_walk(cx, sigma, walks[0])
            got = G.translation_length(hol)
            assert abs(got - fn.length(0)) <= 1e-9 * max(1.0, fn.length(0))

    def test_ladder_height_ties(self):
        # ROADMAP item 6's (0,4) grid: on 13 of these surfaces a left and
        # a right cusp lift sit at the same height modulo the length (at
        # l = 2, t = 0 one at 0.0, the other at -2.0000000000000004), and
        # the ladder period must still hold four faces
        for length in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0):
            for twist in (0.0, 0.25, 0.5, 0.75):
                fn, (cx, sigma, walks) = chain(
                    Signature(0, 4), lengths={0: length}, twists={0: twist})
                sums = CU.cusp_sums(cx, sigma)
                assert max(abs(v) for v in sums.values()) <= RELATION_TOL, \
                    (length, twist)
                got = G.translation_length(
                    CU.develop_walk(cx, sigma, walks[0]))
                assert abs(got - length) <= 1e-9 * length, (length, twist)

    def test_closures_need_agreeing_roles(self):
        # the later outer face's prev must be the earlier one's new, the
        # same float: a pair one ulp apart does not close
        def face(kind, prev, new):
            return CH._LadderFace(labels=(0, 1, 2), points=(prev, new, G.INF),
                                  outer=0, outer_side_kind=kind)

        faces = [face("L", 0.0, 1.0), face("R", 3.0, 4.0),
                 face("L", math.nextafter(1.0, 2.0), 2.0),
                 face("R", math.nextafter(4.0, 5.0), 5.0)]
        with pytest.raises(CH.ChainError, match="outer sides of an end "
                                                "closure share no endpoint"):
            CH._close_outer(CU.CuspedTriangulation([], {}), {}, faces,
                            range(4), "L")
        with pytest.raises(CH.ChainError,
                           match="right boundary arcs do not chain"):
            CH._complete_five({}, CU.CuspedTriangulation([], {}), {},
                              faces, range(4), None, {})

    def test_fan_rejects_a_nan_cusp_sum(self, monkeypatch):
        # max(0.0, nan) is 0.0: a trial whose cusp sums hold a NaN that
        # is not first must still be rejected, and the search go on
        calls = []
        real = CU.cusp_sums

        def first_nan(cx, sigma):
            calls.append(cx)
            return {0: 0.0, 1: math.nan} if len(calls) == 1 \
                else real(cx, sigma)

        monkeypatch.setattr(CU, "cusp_sums", first_nan)
        fn, (cx, sigma, _) = chain(Signature(0, 5), seed=0)
        assert len(calls) >= 2
        monkeypatch.undo()
        CU.check_complete(cx, sigma)

    @pytest.mark.parametrize("seed", [61, 81, 97, 150, 250, 295])
    def test_long_curve_fans(self, seed):
        # curve 1 from 7.97 to 8.63 long: at the twists as drawn, in
        # [l/2, l), every fan candidate missed the completeness check
        fn, (cx, sigma, _) = chain(Signature(0, 5), seed=seed)
        assert fn.length(1) > 7.9
        CU.check_complete(cx, sigma)

    def test_twist_grid(self):
        # ROADMAP item 12's (0,4) grid, reduced as optimize reduces it: in
        # [0, l) the gluing fails the tree-gluing check at u = 0.9 from
        # l = 14 on, and at u >= 0.7 for l = 18
        pg = S.canonical_pants_graph(Signature(0, 4))
        for length in (8.0, 10.0, 12.0, 14.0, 16.0, 18.0):
            for k in range(-5, 10):
                fn = CH.reduced_twists(S.FNCoordinates(
                    {0: length}, {0: k / 10.0 * length}))
                cx, _, walks = CH.build_cusped_chain(
                    S.holonomy_from_fn(pg, fn))
                assert cx.num_faces() == 4 and len(walks[0]) == 4

    def test_rejects_non_chain(self):
        pg = S.canonical_pants_graph(Signature(1, 1))
        hol = S.holonomy_from_fn(pg, S.FNCoordinates({0: 1.0}, {0: 0.0}))
        with pytest.raises(CH.ChainError):
            CH.build_cusped_chain(hol)

    def test_rejects_big_chain(self):
        pg, fn = S.sample_fn(Signature(0, 6), 0)
        hol = S.holonomy_from_fn(pg, fn)
        with pytest.raises(CH.ChainError):
            CH.build_cusped_chain(hol)


class TestDevelopFromShears:
    def test_round_trip_sigma(self):
        fn, (cx, sigma, _) = chain(Signature(0, 4), seed=3)
        dev = CU.develop_from_shears(cx, sigma)
        back = O.shears_from_places(dev)
        for k, v in sigma.items():
            assert abs(back[k] - v) <= 1e-9 * max(1.0, abs(v))

    def test_zero_shears_on_three_cusps(self):
        fn, (cx, sigma, _) = chain(Signature(0, 3))
        dev = CU.develop_from_shears(cx, sigma)
        for g in dev.generators:
            assert G.classify(g) in ("parabolic", "hyperbolic")
        back = O.shears_from_places(dev)
        assert all(abs(v) < 1e-12 for v in back.values())

    def test_incomplete_structure_rejected(self):
        fn, (cx, sigma, _) = chain(Signature(0, 4), seed=3)
        bad = dict(sigma)
        first = next(iter(bad))
        bad[first] += 0.01
        with pytest.raises(CU.IncompleteStructure):
            CU.develop_from_shears(cx, bad)

    @pytest.mark.parametrize("edge", range(9))
    def test_nan_cusp_sum_rejected(self, edge):
        # NaN fails every comparison, and max keeps it only when it comes
        # first: a NaN shear on any edge must still fail completeness, as
        # must an infinite one.  Every shear enters two cusp sums, so the
        # flip search, whose shears must be finite, never starts from one
        for n, seed in ((3, None), (4, 3), (5, 4)):
            _, (cx, sigma, _) = chain(Signature(0, n), seed=seed)
            if edge >= len(sigma):
                continue
            for value, worst in ((math.nan, "nan"), (math.inf, "inf"),
                                 (-math.inf, "inf")):
                bad = dict(sigma)
                bad[cx.edges()[edge]] = value
                with pytest.raises(CU.IncompleteStructure,
                                   match=f"cusp sums reach {worst}$"):
                    CU.develop_from_shears(cx, bad)

    def test_all_zero_once_punctured_torus(self):
        # one vertex, three edges, two faces: the modular torus
        cx = CU.CuspedTriangulation(
            verts=[(0, 0, 0), (0, 0, 0)],
            glue={(0, 0): (1, 0), (1, 0): (0, 0),
                  (0, 1): (1, 1), (1, 1): (0, 1),
                  (0, 2): (1, 2), (1, 2): (0, 2)})
        cx.check()
        sigma = {e: 0.0 for e in cx.edges()}
        dev = CU.develop_from_shears(cx, sigma)
        back = O.shears_from_places(dev)
        assert all(abs(v) < 1e-12 for v in back.values())


    @pytest.mark.parametrize("a", [200.0, 800.0])
    def test_large_shears_once_punctured_torus(self, a):
        # the point placement loses these: at 200 a degenerate placement
        # drops a generator, at 800 an apex falls off its edge's left
        cx = CU.CuspedTriangulation(
            verts=[(0, 0, 0), (0, 0, 0)],
            glue={(0, 0): (1, 0), (1, 0): (0, 0),
                  (0, 1): (1, 1), (1, 1): (0, 1),
                  (0, 2): (1, 2), (1, 2): (0, 2)})
        sigma = dict(zip(cx.edges(), (a, -a / 2.0, -a / 2.0)))
        dev = CU.develop_from_shears(cx, sigma)
        assert [G.classify(g) for g in dev.generators] == ["hyperbolic"] * 2
        assert all(math.isfinite(x) for pts in dev.places[1:] for x in pts)

    @pytest.mark.parametrize("n", [4, 5])
    def test_one_generator_per_co_tree_gluing(self, n):
        # a gluing met from both sides gave its element and the inverse
        for seed in range(40):
            fn, (cx, sigma, _) = chain(Signature(0, n), seed=seed)
            gens = [(g.a, g.b, g.c, g.d)
                    for g in CU.develop_from_shears(cx, sigma).generators]
            assert len(gens) == len(cx.edges()) - cx.num_faces() + 1
            for i, g in enumerate(gens):
                for h in gens[i + 1:]:
                    assert G.mat_classify(G.mat_mul(g, h)) != "identity"

    @pytest.mark.parametrize("n", [4, 5])
    def test_places_match_point_placement(self, n):
        # the frame develop against the oracle's apex-by-apex placement
        for seed in range(40):
            fn, (cx, sigma, _) = chain(Signature(0, n), seed=seed)
            got = CU.develop_from_shears(cx, sigma).places
            want = O.place_faces(cx, sigma)
            for f, (pts, ref) in enumerate(zip(got, want)):
                assert all(G.boundary_close(x, y, 1e-9)
                           for x, y in zip(pts, ref)), (seed, f, pts, ref)


class TestFlips:
    def test_three_cusps_not_flippable(self):
        fn, (cx, sigma, _) = chain(Signature(0, 3))
        assert all(not CU.flippable(cx, e) for e in cx.edges())

    def test_double_flip_identity(self):
        # flipping the new diagonal undoes the flip; faces return with
        # rotated slot labels, so compare the canonical content
        fn, (cx, sigma, _) = chain(Signature(0, 4), seed=5)
        for e in cx.edges():
            if not CU.flippable(cx, e):
                continue
            cx2, s2 = CU.flip(cx, sigma, e)
            f1, _ = e
            cx3, s3 = CU.flip(cx2, s2, (f1, 1))
            assert_glue_keys(cx2)
            assert_glue_keys(cx3)
            v1 = sorted(sigma.values())
            v3 = sorted(s3.values())
            assert all(abs(a - b) <= 1e-12 for a, b in zip(v1, v3))
            assert sorted(map(sorted, cx.verts)) == \
                sorted(map(sorted, cx3.verts))
            # and the geometry is untouched: the length spectrum sample
            l1 = F.hyperbolic_walk_lengths(cx, sigma, max_len=4, limit=10)
            l3 = F.hyperbolic_walk_lengths(cx3, s3, max_len=4, limit=10)
            for a in l1[:5]:
                assert min(abs(a - b) for b in l3) <= 1e-9

    def test_cusp_sums_preserved(self):
        fn, (cx, sigma, _) = chain(Signature(0, 5), seed=2)
        for e in cx.edges():
            if not CU.flippable(cx, e):
                continue
            cx2, s2 = CU.flip(cx, sigma, e)
            sums = CU.cusp_sums(cx2, s2)
            assert max(abs(v) for v in sums.values()) <= 1e-6

    def test_update_rule_matches_geometric_oracle(self):
        # develop the two faces around the edge, flip the diagonal of the
        # developed quadrilateral, and compare every recomputed shear
        rng = np.random.default_rng(8)
        checked = 0
        for seed in range(40):
            fn, (cx, sigma, _) = chain(Signature(0, 4), seed=seed)
            for e in cx.edges():
                if not CU.flippable(cx, e):
                    continue
                checked += 1
                self._check_one(cx, sigma, e)
        assert checked >= 100

    @staticmethod
    def _check_one(cx, sigma, edge):
        f1, s1 = cx.edge_key(*edge)
        f2, s2 = cx.glue[(f1, s1)]
        std = (0.0, 1.0, G.INF)
        x, y, z = std[s1], std[(s1 + 1) % 3], std[(s1 + 2) % 3]
        w = O._develop_apex(x, y, z, sigma[cx.edge_key(f1, s1)])
        cx2, sig2 = CU.flip(cx, sigma, (f1, s1))
        # new diagonal
        geo = G.quad_shear(w, z, x, y)
        assert abs(geo - sig2[cx2.edge_key(f1, 1)]) <= 1e-9
        outer = {
            "P": (f1, (s1 + 1) % 3, y, z, x, w),
            "Q": (f1, (s1 + 2) % 3, z, x, y, w),
            "R": (f2, (s2 + 1) % 3, x, w, y, z),
            "S": (f2, (s2 + 2) % 3, w, y, x, z),
        }
        new_side = {"R": (f1, 0), "Q": (f1, 2), "S": (f2, 0), "P": (f2, 1)}
        for lab, (f, s, a, b, apex_in, new_apex) in outer.items():
            v = O._develop_apex(a, b, apex_in, sigma[cx.edge_key(f, s)])
            geo = G.quad_shear(a, b, new_apex, v)
            alg = sig2[cx2.edge_key(*new_side[lab])]
            assert abs(geo - alg) <= 1e-9 * max(1.0, abs(geo))

    def test_rejects_unflippable(self):
        fn, (cx, sigma, _) = chain(Signature(0, 3))
        with pytest.raises(ValueError):
            CU.flip(cx, sigma, cx.edges()[0])

    def test_rejects_non_sides(self):
        _, (cx, sigma, _) = chain(Signature(0, 4), seed=2)
        for edge in ((99, 0), (0, 3), (-1, 0)):
            for run in (lambda: CU.flip(cx, sigma, edge),
                        lambda: CU.flippable(cx, edge)):
                with pytest.raises(ValueError,
                                   match=re.escape(f"{edge} is not a side")):
                    run()


class TestWalksThroughFlips:
    def test_lengths_invariant_over_random_sequences(self):
        worst = 0.0
        for n, base_seed in ((4, 100), (5, 200)):
            fn, (cx, raw, _) = chain(Signature(0, n), seed=base_seed % 37)
            sigma = F.project_to_complete(cx, raw)
            curves = F.test_curves(cx, sigma, 5)
            assert len(curves) == 5
            base = [G.translation_length(CU.develop_walk(cx, sigma, w))
                    for w in curves]
            for trial in range(25):
                c2, s2, ws, trail = F.random_flip_sequence(
                    cx, sigma, 20, seed=base_seed + trial, walks=curves)
                assert len(trail) == 20
                sums = CU.cusp_sums(c2, s2)
                assert max(abs(v) for v in sums.values()) <= 1e-12
                for w, l0 in zip(ws, base):
                    got = G.translation_length(CU.develop_walk(c2, s2, w))
                    worst = max(worst, abs(got - l0))
        assert worst <= 1e-6

    def test_develop_walk_rejects_bad_walks(self):
        _, (cx, sigma, _) = chain(Signature(0, 4), seed=2)
        with pytest.raises(ValueError, match="walk must be nonempty"):
            CU.develop_walk(cx, sigma, [])
        after = cx.glue[(0, 0)][0]
        for walk in ([(99, 0)], [(0, 5)], [(-1, 0)], [(0, 0), (after, 5)]):
            with pytest.raises(ValueError,
                               match=re.escape(f"{walk[-1]} is not a side")):
                CU.develop_walk(cx, sigma, walk)
        # a side into another face: the next step must start there, and
        # a walk must end in the face it started from
        face, side = next(key for key, (f2, _) in cx.glue.items()
                          if f2 != key[0])
        for walk, problem in (([(face, side), (face, side)],
                               "walk steps do not chain"),
                              ([(face, side)], "walk does not close up")):
            with pytest.raises(ValueError, match=problem):
                CU.develop_walk(cx, sigma, walk)

    def test_rewrite_requires_leaving_quad(self):
        fn, (cx, sigma, _) = chain(Signature(0, 4), seed=5)
        e = next(e for e in cx.edges() if CU.flippable(cx, e))
        f1, s1 = e
        f2, s2 = cx.glue[e]
        outside = next(key for key in cx.glue if key[0] not in (f1, f2))
        # outside is glued into f1, so the walk leaving f1 through the
        # flipped edge chains but does not close up
        assert cx.glue[outside][0] == f1
        for walk, problem in (
                ([(f1, s1), (f2, s2)],
                 "walk never leaves the flipped quadrilateral"),
                ([outside, (f1, s1)], "walk does not close up"),
                ([(f1, s1), (f1, s1)], "walk steps do not chain"),
                ([(f1, s1)], "walk does not close up"),
                ([(f1, 5)], re.escape(f"{(f1, 5)} is not a side"))):
            with pytest.raises(ValueError, match=problem):
                CU.rewrite_walk(walk, cx, e)

    def test_rewrite_keeps_closed_walks(self):
        # every run's entry and exit are outer sides, so every closed
        # walk that leaves the quadrilateral rewrites to a closed walk of
        # the flipped complex with the same holonomy length
        rewritten = 0
        for n in (4, 5):
            _, (cx, sigma, _) = chain(Signature(0, n), seed=3)
            sigma = F.project_to_complete(cx, sigma)
            for e in (e for e in cx.edges() if CU.flippable(cx, e)):
                flipped_cx, flipped = CU.flip(cx, sigma, e)
                for walk in F.closed_dual_walks(cx, max_len=5):
                    try:
                        new = CU.rewrite_walk(walk, cx, e)
                    except ValueError as err:
                        assert "never leaves" in str(err)
                        continue
                    old = CU.develop_walk(cx, sigma, walk)
                    got = CU.develop_walk(flipped_cx, flipped, new)
                    want = abs(old.a + old.d)
                    assert abs(abs(got.a + got.d) - want) <= 1e-6 * want
                    rewritten += 1
        assert rewritten >= 1000, rewritten


def _reference_search(cx, sigma, budget, seed):
    """The search as it was before closed-form scoring: every candidate
    flip is built and checked, with the dict-keyed kernel of the flip
    harness.  Returns minimax_flip_search's four values and the number
    of random kicks."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    best = (cx, dict(sigma), CU.max_abs_shear(sigma))
    cur_cx, cur_sigma = cx, dict(sigma)
    trail = []
    kicks = 0
    spent = 0
    while spent < budget:
        cur_max = CU.max_abs_shear(cur_sigma)
        candidates = []
        for e in cur_cx.edges():
            if not CU.flippable(cur_cx, e):
                continue
            try:
                nxt_cx, nxt_sigma = F.dict_flip(cur_cx, cur_sigma, e)
            except (ValueError, RuntimeError):
                continue
            candidates.append((CU.max_abs_shear(nxt_sigma), e, nxt_cx,
                               nxt_sigma))
        improving = [c for c in candidates if c[0] < cur_max - 1e-12]
        if improving:
            improving.sort(key=lambda c: (c[0], c[1]))
            val, e, cur_cx, cur_sigma = improving[0]
            trail.append(e)
            spent += 1
            if val < best[2]:
                best = (cur_cx, dict(cur_sigma), val)
            continue
        if not candidates:
            break
        idx = int(rng.integers(0, len(candidates)))
        _, e, cur_cx, cur_sigma = candidates[idx]
        trail.append(e)
        spent += 1
        kicks += 1
    return best[0], best[1], best[2], trail, kicks


# (n, chain seed, budget, search seed): 24 runs at (0,4) and (0,5)
SEARCH_RUNS = [(4 + i % 2, i // 2, (25, 50, 75, 100)[i % 4], 3 * i + 1)
               for i in range(24)]


def replay(cx, sigma, trail):
    """The states along a flip trail, built with the public flip."""
    states = [(cx, sigma)]
    for e in trail:
        states.append(CU.flip(*states[-1], e))
    return states


def trail_states(search_runs):
    """Every state on the reference trails of the search runs."""
    for cx, sigma, _, _, want in search_runs:
        yield from replay(cx, sigma, want[3])


@pytest.fixture(scope="module")
def search_runs():
    runs = []
    for n, chain_seed, budget, seed in SEARCH_RUNS:
        _, (cx, sigma, _) = chain(Signature(0, n), seed=chain_seed)
        runs.append((cx, sigma, budget, seed,
                     _reference_search(cx, sigma, budget, seed)))
    return runs


def doubled_polygon(n):
    """A sphere with n cusps: two fan-triangulated n-gons glued along
    their boundary, with 2(n - 2) faces and 3(n - 2) edges."""
    m = n - 2
    verts = ([(0, k + 1, k + 2) for k in range(m)]
             + [(0, k + 2, k + 1) for k in range(m)])
    glue = {}
    pairs = [((0, 0), (m, 2)), ((m - 1, 2), (2 * m - 1, 0))]
    pairs += [((k, 1), (m + k, 1)) for k in range(m)]
    pairs += [((k, 0), (k - 1, 2)) for k in range(1, m)]
    pairs += [((m + k, 2), (m + k - 1, 0)) for k in range(1, m)]
    for a, b in pairs:
        glue[a], glue[b] = b, a
    cx = CU.CuspedTriangulation(verts=verts, glue=glue)
    cx.check()
    return cx


def flat(cx, sigma):
    """The flat encoding the search runs on: glue, labels and shears."""
    glue, labels = CU._encode(cx)
    return glue, labels, CU._encode_shears(glue, sigma)


def index(side):
    """The flat index 3f + s of side (f, s)."""
    return 3 * side[0] + side[1]


def assert_flip_matches_oracle(cx, sigma, cand):
    """The per-side kernel's flip of cand gives the dict-keyed kernel's
    bits: the changed keys and shears, the gluing, the labels, every
    shear and each changed edge's new key; the public flip, the same
    triangulation and shear vector, the edges in the same order."""
    e = index(cx.edge_key(*cand))
    glue, labels, shears = flat(cx, sigma)
    o_glue, o_labels, o_shears = glue[:], labels[:], F.dict_shears(sigma)
    want = F.dict_flip_changes(o_glue, o_shears, e)
    keys, values = CU._flip_changes(glue, shears, e)
    assert keys == tuple(want)
    assert all(map(same_bits, values, want.values()))
    renamed = F.dict_flip_flat(o_glue, o_labels, o_shears, e, want)
    outer, slots = CU._flip_flat(glue, labels, shears, e, (keys, values))
    assert glue == o_glue and labels == o_labels
    assert CU._edge_keys(glue) == sorted(o_shears)
    assert all(same_bits(shears[k], v) and shears[glue[k]] is shears[k]
               for k, v in o_shears.items())
    moved = dict(zip(outer, slots)) | {e: e - e % 3 + 1}
    sides = {k: moved.get(k, k) for k in keys}
    assert {k: min(i, glue[i]) for k, i in sides.items()} == renamed
    got_cx, got_sigma = CU.flip(cx, sigma, cand)
    want_cx, want_sigma = F.dict_flip(cx, sigma, cand)
    assert got_cx.verts == want_cx.verts and got_cx.glue == want_cx.glue
    assert list(got_sigma) == list(want_sigma)
    assert all(same_bits(got_sigma[k], v) for k, v in want_sigma.items())


def self_folded(folded_first):
    """A sphere with cusps 0 to 3 and a self-folded triangle (0, 0, 3):
    its sides 1 and 2 are glued together, and its side 0, a loop at cusp
    0, is the one edge it shares with (0, 0, 1).  With the folded face
    first its outer sides are the loop flip's first two, else its last
    two."""
    verts = [(0, 0, 3), (0, 0, 1), (0, 1, 2), (1, 0, 2)]
    pairs = [((0, 1), (0, 2)), ((0, 0), (1, 0)), ((1, 1), (3, 0)),
             ((1, 2), (2, 0)), ((2, 1), (3, 2)), ((2, 2), (3, 1))]
    at = [0, 1, 2, 3] if folded_first else [1, 0, 2, 3]
    glue = {}
    for (f, s), (g, t) in pairs:
        glue[(at[f], s)], glue[(at[g], t)] = (at[g], t), (at[f], s)
    cx = CU.CuspedTriangulation(verts=[verts[at[f]] for f in range(4)],
                                glue=glue)
    cx.check()
    return cx


def folds(cx, edge):
    """Whether two outer sides of the edge's flip are glued together."""
    f1, s1 = cx.edge_key(*edge)
    f2, s2 = cx.glue[(f1, s1)]
    return any(cx.glue[(f, (s + 1) % 3)] == (f, (s + 2) % 3)
               for f, s in ((f1, s1), (f2, s2)))


def count_scores_per_step(monkeypatch):
    """Patch the search's flip scoring; returns the list of _flip_changes
    calls per step, each step closed by its in-place flip.  Both hooks
    forward the search's side tables."""
    per_step = [0]
    real_changes, real_flip = CU._flip_changes, CU._flip_flat

    def counting_changes(glue, shears, e, *tables):
        per_step[-1] += 1
        return real_changes(glue, shears, e, *tables)

    def closing_flip(glue, labels, shears, e, changed, *tables):
        per_step.append(0)
        return real_flip(glue, labels, shears, e, changed, *tables)

    monkeypatch.setattr(CU, "_flip_changes", counting_changes)
    monkeypatch.setattr(CU, "_flip_flat", closing_flip)
    return per_step


class TestMinimaxSearch:
    def test_matches_reference_search(self, search_runs):
        for cx, sigma, budget, seed, want in search_runs:
            got = CU.minimax_flip_search(cx, sigma, budget, seed)
            assert got[3] == want[3]
            assert got[2] == want[2]
            assert got[1] == want[1]
            assert got[0].verts == want[0].verts
            assert got[0].glue == want[0].glue
        kicks = [want[4] for *_, want in search_runs]
        assert max(kicks) >= 50, kicks

    def test_scores_equal_built_flips(self, search_runs):
        # every state the search visits, every flippable edge: the closed
        # form score is bit-equal to the maximum of the built flip, and
        # flip accepts every edge flippable() admits, so the search and
        # the reference consider the same candidates
        scored = 0
        for cx, sigma in trail_states(search_runs):
            cx.check()
            glue, _, shears = flat(cx, sigma)
            ranking = sorted(((abs(shears[k]), k)
                              for k in CU._edge_keys(glue)), reverse=True)
            for cand in cx.edges():
                if not CU.flippable(cx, cand):
                    continue
                flipped_cx, flipped = CU.flip(cx, sigma, cand)
                assert_glue_keys(flipped_cx)
                changed = CU._flip_changes(glue, shears, index(cand))
                assert (CU._flip_score(ranking, changed)
                        == CU.max_abs_shear(flipped))
                scored += 1
        assert scored >= 5000

    def test_builds_one_flip_per_step(self, monkeypatch):
        # the search flips its flat working state in place, once per
        # trail entry; it checks the whole complex once, copies the state
        # only on entry (the encoding) and when the best maximum
        # improves, and decodes the best state once
        _, (cx, sigma, _) = chain(Signature(0, 5), seed=4)
        _, _, _, want = CU.minimax_flip_search(cx, sigma, 100, 7)
        states = replay(cx, sigma, want)
        improvements, best = 0, CU.max_abs_shear(sigma)
        for prev, cur in zip(states, states[1:]):
            value = CU.max_abs_shear(cur[1])
            if value < CU.max_abs_shear(prev[1]) - 1e-12 and value < best:
                improvements, best = improvements + 1, value

        calls = {"flip": [], "check": 0, "encode": 0, "copy": 0,
                 "decode": 0}
        real = {name: getattr(CU, name) for name in
                ("_flip_flat", "_check", "_encode", "_copy", "_decode")}

        def counting_flip(glue, labels, shears, e, changed, *tables):
            calls["flip"].append(divmod(e, 3))
            return real["_flip_flat"](glue, labels, shears, e, changed,
                                       *tables)

        def counting(name, key):
            def patched(*args):
                calls[key] += 1
                return real[name](*args)
            return patched

        monkeypatch.setattr(CU, "_flip_flat", counting_flip)
        for name, key in (("_check", "check"), ("_encode", "encode"),
                          ("_copy", "copy"), ("_decode", "decode")):
            monkeypatch.setattr(CU, name, counting(name, key))
        _, _, _, trail = CU.minimax_flip_search(cx, sigma, 100, 7)
        assert trail == want and len(trail) == 100
        assert calls["flip"] == trail
        assert calls["check"] == 1
        assert improvements >= 1
        assert calls["encode"] == 1 and calls["decode"] == 1
        assert calls["encode"] + calls["copy"] == 1 + improvements

    @pytest.mark.parametrize("n", [4, 7, 12, 24])
    def test_step_scores_at_most_six_flips(self, n, monkeypatch):
        # at a finite maximum only the flips of the two edges the top
        # edge's sides follow (shear >= 0) or precede (shear < 0) can
        # improve (see TestDescentRule), so a step scores at most those
        # two and the edge a kick draws, whatever the number of edges
        cx = doubled_polygon(n)
        rng = np.random.default_rng(n)
        sigma = {e: float(rng.normal(0.0, 3.0)) for e in cx.edges()}
        want = _reference_search(cx, sigma, 40, n)
        per_step = count_scores_per_step(monkeypatch)
        got = CU.minimax_flip_search(cx, sigma, 40, n)
        assert got[3] == want[3] and got[2] == want[2] and got[1] == want[1]
        assert len(per_step) == 41 and per_step[-1] == 0
        assert all(math.isfinite(CU.max_abs_shear(s))
                   for _, s in replay(cx, sigma, got[3]))
        assert max(per_step) <= 3
        assert 1 <= want[4] < 40        # descents and kicks both ran

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_shear(self, value):
        cx = doubled_polygon(5)
        for edge in cx.edges():
            sigma = {e: 0.5 for e in cx.edges()}
            sigma[edge] = value
            needle = f"shears must be finite, got {value!r} on edge {edge}"
            with pytest.raises(ValueError, match=re.escape(needle)):
                CU.minimax_flip_search(cx, sigma, 5, 1)

    def test_overflowing_flip_raises(self):
        # Penner's rule adds up to about |shear| to a neighbour, so shears
        # near half the largest float can overflow to inf
        cx = doubled_polygon(5)
        sigma = {e: 1.5e308 for e in cx.edges()}
        with pytest.raises(ValueError, match="makes a shear overflow"):
            CU.minimax_flip_search(cx, sigma, 5, 1)
        assert sigma == {e: 1.5e308 for e in cx.edges()}

    @pytest.mark.parametrize("n, chain_seed, budget, seed",
                             [(4, 1, 40, 2), (5, 0, 40, 1)])
    def test_inputs_untouched_and_best_not_aliased(self, n, chain_seed,
                                                   budget, seed):
        _, (cx, sigma, _) = chain(Signature(0, n), seed=chain_seed)
        verts, glue, shears = list(cx.verts), dict(cx.glue), dict(sigma)
        best_cx, best_sigma, best, trail = CU.minimax_flip_search(
            cx, sigma, budget, seed)
        assert cx.verts == verts and cx.glue == glue and sigma == shears
        # the run ends on a random kick made after the best state, so a
        # best state that aliased the working state would have moved on
        states = replay(cx, sigma, trail)
        values = [CU.max_abs_shear(s) for _, s in states]
        assert len(trail) == budget
        assert values[-1] >= values[-2] - 1e-12
        assert values[-1] > best
        k = values.index(best)
        assert best_cx.verts == states[k][0].verts
        assert best_cx.glue == states[k][0].glue
        assert best_sigma == states[k][1]

    def test_budget_zero_returns_input(self):
        fn, (cx, sigma, _) = chain(Signature(0, 4), seed=3)
        _, best_sigma, best, trail = CU.minimax_flip_search(cx, sigma, 0, 1)
        assert best == CU.max_abs_shear(sigma)
        assert trail == []
        assert best_sigma == sigma

    def test_three_cusps_already_optimal(self):
        fn, (cx, sigma, _) = chain(Signature(0, 3))
        _, _, best, trail = CU.minimax_flip_search(cx, sigma, 10, 1)
        assert best == 0.0 and trail == []

    def test_no_faces_stops(self):
        # no edge to rank: the search stops and returns its input
        cx = CU.CuspedTriangulation(verts=[], glue={})
        assert CU.minimax_flip_search(cx, {}, 5, 1) == (cx, {}, 0.0, [])

    def test_never_worse_than_start(self):
        for seed in range(8):
            fn, (cx, sigma, _) = chain(Signature(0, 4), seed=seed)
            start = CU.max_abs_shear(sigma)
            _, _, best, _ = CU.minimax_flip_search(cx, sigma, 30, seed)
            assert best <= start + 1e-12

    def test_deterministic_in_seed(self):
        fn, (cx, sigma, _) = chain(Signature(0, 5), seed=4)
        out1 = CU.minimax_flip_search(cx, sigma, 25, 7)
        out2 = CU.minimax_flip_search(cx, sigma, 25, 7)
        assert out1[2] == out2[2] and out1[3] == out2[3]

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, 7.0, "7", None,
                                      np.int64(-3), True, False])
    def test_rejects_bad_seed(self, seed):
        # a seed is an unsigned 64-bit integer, as the CLI's --seed is
        cx = doubled_polygon(5)
        sigma = {e: 0.5 for e in cx.edges()}
        needle = f"seed must be an integer in [0, 2**64), got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(needle)):
            CU.minimax_flip_search(cx, sigma, 5, seed)

    @pytest.mark.parametrize("budget", [-1, 2.5, 3.0, "5", None, True,
                                        False])
    def test_rejects_bad_budget(self, budget):
        cx = doubled_polygon(5)
        sigma = {e: 0.5 for e in cx.edges()}
        needle = f"budget must be a non-negative integer, got {budget!r}"
        with pytest.raises(ValueError, match=re.escape(needle)):
            CU.minimax_flip_search(cx, sigma, budget, 1)

    def test_accepts_the_seed_range_ends(self):
        # numpy integers are integers; the ends of [0, 2**64) draw as
        # the reference's Philox keys do
        cx = doubled_polygon(7)
        rng = np.random.default_rng(7)
        sigma = {e: float(rng.normal(0.0, 3.0)) for e in cx.edges()}
        for seed in (0, 2 ** 64 - 1, np.uint64(2 ** 64 - 1), np.int64(5)):
            want = _reference_search(cx, sigma, 30, seed)
            got = CU.minimax_flip_search(cx, sigma, np.int64(30), seed)
            assert got[3] == want[3] and want[4] >= 5

    def test_matches_reference_at_scale(self):
        # 138 edges: the kicks' draws over a complex far larger than a
        # chain's, with at least ten kicks
        cx = doubled_polygon(48)
        rng = np.random.default_rng(48)
        sigma = {e: float(rng.normal(0.0, 3.0)) for e in cx.edges()}
        want = _reference_search(cx, sigma, 20, 1)
        got = CU.minimax_flip_search(cx, sigma, 20, 1)
        assert got[3] == want[3] and got[2] == want[2]
        assert got[0].verts == want[0].verts and got[0].glue == want[0].glue
        assert got[1].keys() == want[1].keys()
        assert all(same_bits(got[1][k], v) for k, v in want[1].items())
        assert want[4] >= 10, want[4]

    @pytest.mark.parametrize("values", [(1.0, -1.0), (0.0, -0.0)],
                             ids=["unit", "zeros"])
    def test_ties_and_signed_zeros(self, values, monkeypatch):
        # every |shear| ties: the ranking puts the larger edge key first,
        # so the top edge a step reads is the largest key at the maximum,
        # and each in-place flip keeps the sign of every zero shear, as
        # the dict-keyed kernel does
        cx = doubled_polygon(6)
        tops, states = [], []
        real_descents, real_flip = CU._descents, CU._flip_flat

        def recording_descents(glue, shears, top, *tables):
            keys = CU._edge_keys(glue)
            cur_max = max(abs(shears[k]) for k in keys)
            tops.append((top, max(k for k in keys
                                  if abs(shears[k]) == cur_max)))
            return real_descents(glue, shears, top, *tables)

        def recording_flip(glue, labels, shears, e, changed, *tables):
            out = real_flip(glue, labels, shears, e, changed, *tables)
            states.append(CU._decode(glue, labels, shears))
            return out

        monkeypatch.setattr(CU, "_descents", recording_descents)
        monkeypatch.setattr(CU, "_flip_flat", recording_flip)
        negative_zeros = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            sigma = {e: values[int(rng.integers(0, 2))] for e in cx.edges()}
            want = _reference_search(cx, sigma, 30, seed)
            tops.clear()
            states.clear()
            got = CU.minimax_flip_search(cx, sigma, 30, seed)
            assert got[3] == want[3] and same_bits(got[2], want[2])
            assert got[0].verts == want[0].verts
            assert got[0].glue == want[0].glue
            assert got[1].keys() == want[1].keys()
            assert all(same_bits(got[1][k], v) for k, v in want[1].items())
            assert len(tops) == 30 and all(t == w for t, w in tops)
            # the search's state after each flip against the dict-keyed
            # kernel's replay of the trail
            state = (cx, sigma)
            for e, (got_cx, got_sigma) in zip(got[3], states):
                state = F.dict_flip(*state, e)
                assert got_cx.verts == state[0].verts
                assert got_cx.glue == state[0].glue
                assert got_sigma.keys() == state[1].keys()
                assert all(same_bits(got_sigma[k], v)
                           for k, v in state[1].items())
                negative_zeros += sum(v == 0.0 and math.copysign(1.0, v) < 0
                                      for v in got_sigma.values())
            assert len(states) == 30
        if values[0] == 0.0:
            assert negative_zeros >= 10, negative_zeros

    def test_large_complex_digests(self, monkeypatch):
        # 138 edges and 1495 kicks in 2000 steps: the kick listing over
        # a complex far larger than a chain's; digests taken before the
        # ranking and the kick list were read from the side array
        cx = doubled_polygon(48)
        rng = np.random.default_rng(48)
        sigma = {e: float(rng.normal(0.0, 3.0)) for e in cx.edges()}
        draws, real_draw = [], CU._draw

        def counting_draw(halves, k):
            draws.append(k)
            return real_draw(halves, k)

        monkeypatch.setattr(CU, "_draw", counting_draw)
        best_cx, best_sigma, best, trail = CU.minimax_flip_search(
            cx, sigma, 2000, 1)
        assert len(trail) == 2000 and len(draws) == 1495
        assert same_bits(best, float.fromhex("0x1.d74e736fb3694p+2"))
        digests = [hashlib.sha256(repr(x).encode()).hexdigest() for x in (
            trail, [(k, v.hex()) for k, v in best_sigma.items()],
            (best_cx.verts, sorted(best_cx.glue.items())))]
        assert digests == [
            "63d9e421a66fc58bdcb3844f3f8e88d983412a96bad27cdfe1a40c6e4624b3ac",
            "ed88368474cb568b5fc5398766eac256c307fd662af6ec40c38039e41ce34b72",
            "210230ca7276ffc859d64d4b9735c51553cefae3dcf5a30375ee82bd39a89a0b"]


#: k for the draw test: one candidate, small and large counts, and
#: counts above 2**31, where numpy redraws about half of the words
DRAW_COUNTS = [1, 2, 3, 5, 6, 9, 1, 1, 17, 138, 1000, 2 ** 20 + 7,
               2 ** 31 - 1, 2 ** 31 + 1, 3 * 2 ** 30 + 1, 2 ** 32 - 1,
               2 ** 32, 7]


class TestKickDraws:
    @pytest.mark.parametrize("seeds", [range(150), "random"])
    def test_draws_equal_generator_integers(self, seeds):
        # 150 small seeds and 150 drawn from [0, 2**64), 200 draws each
        # across several raw blocks; afterwards both have read the same
        # words (none for k = 1), so the next 32-bit word agrees too
        if seeds == "random":
            seeds = [int(s) for s in np.random.default_rng(30).integers(
                0, 2 ** 64, size=150, dtype=np.uint64)]
        counts = (DRAW_COUNTS * 12)[:200]
        for seed in seeds:
            halves = CU._philox_halves(seed)
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            got = [CU._draw(halves, k) for k in counts]
            assert got == [int(rng.integers(0, k)) for k in counts]
            assert next(halves) == int(rng.integers(0, 2 ** 32))


def sign_rule(cx, sigma, top):
    """The edges the top edge's two sides follow in their faces when its
    shear is >= 0, or precede when it is < 0."""
    turn = 2 if sigma[top] >= 0 else 1      # side (s + 2) % 3 precedes s
    return {cx.edge_key(f, (s + turn) % 3) for f, s in (top, cx.glue[top])}


def descents(cx, sigma):
    """The top-ranked edge, the maximum |shear| and the edges the search
    scores at that state, for a state whose maximum is finite."""
    glue, _, shears = flat(cx, sigma)
    cur_max, top = max((abs(shears[k]), k) for k in CU._edge_keys(glue))
    scored = CU._descents(glue, shears, top, *CU._side_tables(len(glue)))
    return divmod(top, 3), cur_max, {divmod(e, 3) for e in scored}


def descent_states(search_runs):
    """The states of the search runs' trails, of the self-folded
    fixtures' searches and of searches on doubled polygons."""
    yield from trail_states(search_runs)
    for folded_first in (True, False):
        cx = self_folded(folded_first)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            sigma = {e: float(rng.normal(0.0, 3.0)) for e in cx.edges()}
            yield from replay(cx, sigma,
                              _reference_search(cx, sigma, 30, seed)[3])
    for n in (4, 7, 12):
        cx = doubled_polygon(n)
        rng = np.random.default_rng(n)
        sigma = {e: float(rng.normal(0.0, 3.0)) for e in cx.edges()}
        yield from replay(cx, sigma, CU.minimax_flip_search(cx, sigma, 40,
                                                            n)[3])


class TestDescentRule:
    # Penner's rule adds lose <= 0 to the sides following a flipped edge
    # in its faces and gain >= 0 to the sides preceding it, so at a finite
    # maximum only two flips can lower the top edge's |shear|

    def test_skipped_flips_never_improve(self, search_runs):
        # the search scores exactly the sign rule's flippable edges, and
        # the built flip of every other flippable edge, the top edge and
        # self-folded quadrilaterals included, is no descent: its maximum
        # is not below cur_max - 1e-12
        skipped = folded = 0
        for cx, sigma in descent_states(search_runs):
            top, cur_max, scored = descents(cx, sigma)
            assert math.isfinite(cur_max) and abs(sigma[top]) == cur_max
            rule = sign_rule(cx, sigma, top)
            flippable = {e for e in cx.edges() if CU.flippable(cx, e)}
            assert scored == rule & flippable
            for e in flippable - rule:
                _, flipped = F.dict_flip(cx, sigma, e)
                assert not CU.max_abs_shear(flipped) < cur_max - 1e-12
                skipped += 1
                folded += folds(cx, e)
        assert skipped >= 5000 and folded >= 10, (skipped, folded)


class TestFlipInPlace:
    def test_matches_dict_oracle(self, search_runs):
        # every state on the trails, every flippable edge
        flipped = 0
        for cx, sigma in trail_states(search_runs):
            for cand in cx.edges():
                if CU.flippable(cx, cand):
                    assert_flip_matches_oracle(cx, sigma, cand)
                    flipped += 1
        assert flipped >= 5000

    def test_check_catches_split_shears(self, search_runs):
        # after an in-place flip, every side of the two faces holds its
        # partner's shear: one that does not stops the face check
        split = 0
        for cx, sigma, *_ in search_runs[:4]:
            for cand in cx.edges():
                if not CU.flippable(cx, cand):
                    continue
                glue, labels, shears = flat(cx, sigma)
                e = index(cand)
                faces = {e // 3, glue[e] // 3}
                CU._flip_flat(glue, labels, shears, e,
                              CU._flip_changes(glue, shears, e))
                CU._check_faces(glue, labels, faces, shears)
                for i in (i for f in faces for i in range(3 * f, 3 * f + 3)):
                    bad = shears[:]
                    bad[i] = bad[i] + 1.0
                    with pytest.raises(RuntimeError,
                                       match="shears differ across"):
                        CU._check_faces(glue, labels, faces, bad)
                    split += 1
        assert split >= 100

    def test_nan_shear_flips(self):
        # a NaN is not equal to itself, but both sides hold the same one
        cx = doubled_polygon(5)
        sigma = {k: 0.5 for k in cx.edges()}
        for cand in (k for k in cx.edges() if CU.flippable(cx, k)):
            f, s = cand
            sigma_nan = dict(sigma)
            sigma_nan[cx.edge_key(f, (s + 1) % 3)] = math.nan
            got_cx, got = CU.flip(cx, sigma_nan, cand)
            assert sum(map(math.isnan, got.values())) == 1
            assert_flip_matches_oracle(cx, sigma_nan, cand)

    def test_signed_zero_gain(self):
        # above 745, log1p(exp(-s)) is 0.0: the sides following the
        # flipped edge gain -0.0, which adds as +0.0 from the sum's 0.0
        # start, so their -0.0 shears become +0.0
        cx = doubled_polygon(5)
        for cand in (k for k in cx.edges() if CU.flippable(cx, k)):
            (f1, s1), (f2, s2) = cand, cx.glue[cand]
            sigma = {k: 0.5 for k in cx.edges()}
            sigma[cand] = 800.0
            sigma[cx.edge_key(f1, (s1 + 1) % 3)] = -0.0
            sigma[cx.edge_key(f2, (s2 + 1) % 3)] = -0.0
            assert_flip_matches_oracle(cx, sigma, cand)
            got_cx, got = CU.flip(cx, sigma, cand)
            for side in ((f2, 1), (f1, 0)):     # where those sides moved
                assert same_bits(got[got_cx.edge_key(*side)], 0.0)

    def test_matches_flip(self, search_runs):
        flipped = 0
        for cx, sigma in trail_states(search_runs):
            for cand in cx.edges():
                if not CU.flippable(cx, cand):
                    continue
                want_cx, want_sigma = CU.flip(cx, sigma, cand)
                glue, labels, shears = flat(cx, sigma)
                changed = CU._flip_changes(glue, shears, index(cand))
                CU._flip_flat(glue, labels, shears, index(cand), changed)
                got_cx, got_sigma = CU._decode(glue, labels, shears)
                assert got_cx.verts == want_cx.verts
                assert got_cx.glue == want_cx.glue
                assert got_sigma == want_sigma
                got_cx.check()
                # flip keeps the order of the edges it leaves alone and
                # lists the new diagonal last
                kept = [k for k in sigma if index(k) not in changed[0]]
                assert [k for k in want_sigma if k in kept] == kept
                assert list(want_sigma)[-1] == want_cx.edge_key(cand[0], 1)
                flipped += 1
        assert flipped >= 5000

    def test_local_check_catches_broken_sides(self, search_runs):
        # after an in-place flip, break one side of a flipped face or of a
        # neighbour: the check of those faces must name it
        broken = 0
        for cx, sigma, *_ in search_runs:
            for cand in cx.edges():
                if not CU.flippable(cx, cand):
                    continue
                f1, _ = cand
                f2, _ = cx.glue[cand]
                glue, labels, shears = flat(cx, sigma)
                CU._flip_flat(glue, labels, shears, index(cand),
                              CU._flip_changes(glue, shears, index(cand)))
                base, _ = CU._decode(glue, labels, shears)
                faces = {f1, f2} | {base.glue[(f, s)][0]
                                    for f in (f1, f2) for s in range(3)}
                fresh = 1 + max(max(vs) for vs in base.verts)
                for f in faces:
                    for s in range(3):
                        for mutate in (break_involution, relabel_cusp,
                                       relabel_partner_first,
                                       relabel_partner_second):
                            bad = base.copy()
                            mutate(bad, (f, s), fresh)
                            # also when the partner face is not checked
                            for checked in (faces, {f}):
                                with pytest.raises(ValueError):
                                    bad.check_faces(checked)
                            broken += 1
        assert broken >= 1000

    def test_in_place_flip_checks_neighbours(self, search_runs):
        # a bad label on a neighbouring face, which the flip does not
        # rewrite, must stop the in-place flip
        stopped = 0
        for cx, sigma, *_ in search_runs:
            fresh = 1 + max(max(vs) for vs in cx.verts)
            for cand in cx.edges():
                if not CU.flippable(cx, cand):
                    continue
                f1, _ = cand
                f2, _ = cx.glue[cand]
                glue, _, shears = flat(cx, sigma)
                changed = CU._flip_changes(glue, shears, index(cand))
                neighbours = {cx.glue[(f, s)][0]
                              for f in (f1, f2) for s in range(3)}
                for g in neighbours - {f1, f2}:
                    for s in range(3):
                        bad = cx.copy()
                        relabel_cusp(bad, (g, s), fresh)
                        with pytest.raises(ValueError):
                            CU._flip_flat(*flat(bad, sigma), index(cand),
                                          changed)
                        stopped += 1
        assert stopped >= 300


class TestSelfFoldedTriangle:
    # the flip of a self-folded triangle's loop meets the edge inside it
    # twice, and Penner's rule sums both gains; no chain reaches it

    @pytest.mark.parametrize("folded_first", [True, False])
    def test_flip_matches_oracle(self, folded_first):
        cx = self_folded(folded_first)
        loop = cx.edge_key(1 - folded_first, 0)
        assert CU.flippable(cx, loop) and folds(cx, loop)
        rng = np.random.default_rng(5)
        sigma = {e: float(rng.normal(0.0, 3.0)) for e in cx.edges()}
        glue, _, shears = flat(cx, sigma)
        assert len(CU._flip_changes(glue, shears, index(loop))[0]) == 4
        for cand in cx.edges():
            if CU.flippable(cx, cand):
                assert_flip_matches_oracle(cx, sigma, cand)

    @pytest.mark.parametrize("folded_first", [True, False])
    def test_search_matches_reference(self, folded_first):
        cx = self_folded(folded_first)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            sigma = {e: float(rng.normal(0.0, 3.0)) for e in cx.edges()}
            want = _reference_search(cx, sigma, 30, seed)
            got = CU.minimax_flip_search(cx, sigma, 30, seed)
            assert got[3] == want[3] and got[2] == want[2]
            assert got[0].verts == want[0].verts
            assert got[0].glue == want[0].glue
            assert got[1].keys() == want[1].keys()
            assert all(same_bits(got[1][k], v) for k, v in want[1].items())
            states, folded = [(cx, sigma)], 0
            for e in want[3]:
                folded += folds(states[-1][0], e)
                states.append(F.dict_flip(*states[-1], e))
            assert folded >= 1 and want[4] >= 10        # and kicks ran


def break_involution(cx, side, _):
    """Glue side to a side whose partner is some other side."""
    other = next(k for k in sorted(cx.glue)
                 if k != side and cx.glue[k] != side)
    cx.glue[side] = other


def relabel(cx, face, corner, label):
    vs = list(cx.verts[face])
    vs[corner] = label
    cx.verts[face] = tuple(vs)


def relabel_cusp(cx, side, fresh):
    """Give the first cusp of side a label no face carries."""
    relabel(cx, *side, fresh)


def relabel_partner_first(cx, side, fresh):
    """Give the first cusp of side a new label in the partner face."""
    f2, s2 = cx.glue[side]
    relabel(cx, f2, (s2 + 1) % 3, fresh)


def relabel_partner_second(cx, side, fresh):
    """Give the second cusp of side a new label in the partner face."""
    relabel(cx, *cx.glue[side], fresh)


class TestFlatEncoding:
    def test_round_trip_and_order(self, search_runs):
        # integer order is (face, side) order; both sides of an edge hold
        # its shear, and the decoder lists the edges in key order or in
        # the order it is given
        for cx, sigma in trail_states(search_runs):
            glue, labels, shears = flat(cx, sigma)
            assert all(shears[i] is shears[j] for i, j in enumerate(glue))
            back_cx, back_sigma = CU._decode(glue, labels, shears)
            assert back_cx.verts == cx.verts and back_cx.glue == cx.glue
            assert list(back_sigma) == cx.edges() and back_sigma == sigma
            _, ordered = CU._decode(glue, labels, shears, map(index, sigma))
            assert list(ordered.items()) == list(sigma.items())
            assert [divmod(k, 3) for k in CU._edge_keys(glue)] == cx.edges()

    @pytest.mark.parametrize("key", ["missing", (99, 0), (-1, 0), (0, 3),
                                     "partner"])
    def test_shears_keyed_by_edge_keys(self, key):
        # every edge has one shear, under its key: a key past either end
        # of the sides or a partner side would overwrite another shear
        _, (cx, sigma, _) = chain(Signature(0, 4), seed=2)
        bad = dict(sigma)
        if key == "missing":
            del bad[cx.edges()[2]]
            needle = f"no shear for edge {cx.edges()[2]}"
        else:
            key = cx.glue[cx.edges()[2]] if key == "partner" else key
            bad[key] = 1.0
            needle = f"{key} is not an edge key"
        edge = next(e for e in cx.edges() if CU.flippable(cx, e))
        for run in (lambda: CU.flip(cx, bad, edge),
                    lambda: CU.minimax_flip_search(cx, bad, 5, 1)):
            with pytest.raises(ValueError, match=re.escape(needle)):
                run()

    @pytest.mark.parametrize("breakage, needle", [
        ("square", "face 1 is not a triangle"),
        ("unglued", "side (1, 2) is unglued"),
        ("no side", "gluing is not an involution at (1, 2)"),
    ])
    def test_encoder_names_the_problem(self, breakage, needle):
        _, (cx, sigma, _) = chain(Signature(0, 4), seed=2)
        bad = cx.copy()
        if breakage == "square":
            bad.verts[1] = bad.verts[1] + (9,)
        elif breakage == "unglued":
            del bad.glue[(1, 2)]
        else:
            bad.glue[(1, 2)] = (0, 3)      # 3 * 0 + 3 would alias (1, 0)
        for run in (bad.check, lambda: bad.check_faces([0]),
                    lambda: CU.flip(bad, sigma, bad.edges()[0]),
                    lambda: CU.minimax_flip_search(bad, sigma, 5, 1)):
            with pytest.raises(ValueError, match=re.escape(needle)):
                run()


def same_bits(x, y):
    return struct.pack("<d", x) == struct.pack("<d", y)


def same_matrix(g, h):
    return all(same_bits(u, v) for u, v in zip(g, h))


class TestExactFrames:
    """The integer frames equal the Fraction oracle bit for bit."""

    @staticmethod
    def compare_with_fractions(monkeypatch):
        """Check every frame action, conjugation and candidate word of
        the chain builder against the oracle; returns the call counts."""
        real_apply, real_conj = CH.frame_apply, CH.frame_conj
        real_product = CH.exact_product
        seen = {"apply": 0, "conj": 0, "product": 0}

        def apply(frame, pt):
            got = real_apply(frame, pt)
            assert same_bits(got, FF.frame_apply(FF.as_fractions(frame), pt))
            seen["apply"] += 1
            return got

        def conj(frame, iso):
            got = real_conj(frame, iso)
            assert same_matrix(
                got, FF.frame_conj(FF.as_fractions(frame), iso))
            seen["conj"] += 1
            return got

        def product(mats):
            mats = list(mats)
            got = real_product(mats)
            assert FF.as_fractions(got) == FF.tree_frame(mats)
            seen["product"] += 1
            return got

        monkeypatch.setattr(CH, "frame_apply", apply)
        monkeypatch.setattr(CH, "frame_conj", conj)
        monkeypatch.setattr(CH, "exact_product", product)
        return seen

    def test_bit_equal_to_fractions(self, monkeypatch):
        seen = self.compare_with_fractions(monkeypatch)
        surfaces = 0
        for n in (4, 5):
            for seed in range(30):
                pg, fn = S.sample_fn(Signature(0, n), seed)
                hol = S.holonomy_from_fn(pg, fn)
                # every base pants, the middle one (the chain's) included
                for p in range(pg.num_pants):
                    frames = hol.frames_about(p)
                    assert [FF.as_fractions(f) for f in frames] == \
                        FF.frames_about(hol, p)
                    assert all(f[4] > 0 for f in frames)
                CH.build_cusped_chain(hol)
                surfaces += 1
        assert surfaces >= 50
        assert seen["product"] >= 30, seen
        assert seen["apply"] >= 300 and seen["conj"] >= 300, seen

    def test_every_window_candidate(self, monkeypatch):
        # the fan search stops at the first candidate that closes up;
        # drawing each window's candidates in full evaluates all of them
        seen = self.compare_with_fractions(monkeypatch)
        real_lifts = CH._window_cusp_lifts
        monkeypatch.setattr(CH, "_window_cusp_lifts",
                            lambda *args, **kw: iter(list(
                                real_lifts(*args, **kw))))
        for seed in range(10):
            pg, fn = S.sample_fn(Signature(0, 5), seed)
            CH.build_cusped_chain(S.holonomy_from_fn(pg, fn))
        assert seen["product"] >= 1000, seen

    def test_zero_keeps_fractions_sign(self):
        # an exact zero rounds to +0.0 whatever the sign of its denominator
        flip_sign = (1, 0, 0, -1, 1)        # x -> -x: 0 / -1 at x = 0
        assert same_bits(S.frame_apply(flip_sign, 0.0), 0.0)
        assert same_bits(FF.frame_apply(FF.as_fractions(flip_sign), 0.0), 0.0)
        half_turn = (0, 1, -1, 0, 1)        # x -> -1/x: 0 / -1 at inf
        assert same_bits(S.frame_apply(half_turn, G.INF), 0.0)
        assert same_bits(S._quotient(0, -3), 0.0)
