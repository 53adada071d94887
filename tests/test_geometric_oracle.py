"""The combinatorial and closed-form rules against the geometric oracle.

run_surface checks each relation at one slot, which is one side of a
curve (every glued slot lies on the left of its curve in its own frame,
so a curve's first slot is its left side), takes the attracting (front)
and repelling (back) fixed points as spiral corners, and reads the
seam-arc lengths from closed forms in the boundary-length triple.  tests/geometric_oracle.py keeps the geometric
measurements these replaced; here they are compared over random pants,
and the float closed forms are compared with the same formulas at 50
digits.

The boundary primitives and value types of geom are compared with their
first form (the reference_* names of the oracle) over drawn floats that
include signed zeros, infinities, NaN, huge and subnormal values and
repeated points: the same result bits, or the same exception.
"""

import itertools
import math
import struct

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geometric_oracle as O
from shearlab import geom as G
from shearlab import spiralling as SP
from shearlab.constants import INTERMEDIATE_CURVE_MAX, Signature, area
from shearlab.geom import GeometryError
from shearlab.pants import (_seam_ends, build_pants, seam_lengths,
                            slot_normalizer)

PANTS = 20000
ARCS = 1200
# the longest curve a certified (5,5) record can hold: 2 log(4 area)
LONGEST = 2.0 * math.log(4.0 * area(Signature(5, 5)))
KINDS = ("curve-curve", "cusp-curve", "cusp-cusp")


def sound_pants(lengths):
    """build_pants, or None where its float64 checks reject the pants.

    Long boundaries crowd together in build_pants' frame, a known
    conditioning defect: the pants relation fails, and next to a cusp
    and a boundary below 0.05 the cusp holonomy may not classify as
    parabolic.  The callers bound how many pants are skipped.
    """
    try:
        return build_pants(*lengths)
    except GeometryError:
        return None


def test_sides_and_corners_follow_the_gluing_order():
    # every glued slot of a pants in standard position lies on the left
    # of its curve, so the first slot of a curve is its left side; the
    # probe test of the oracle picks the fixed points the kernel takes
    rng = np.random.default_rng(7)
    built = slots = 0
    for _ in range(PANTS):
        ls = tuple(0.0 if rng.random() < 0.25 else rng.uniform(0.01, 12.0)
                   for _ in range(3))
        sp = sound_pants(ls)
        if sp is None:
            continue
        built += 1
        for s in range(3):
            if sp.slot_is_cusp[s]:
                continue
            slots += 1
            assert O._slot_side(sp, s) == "left", (ls, s)
            hol = O.Mobius(*sp.slot_hol[s])
            att, rep = G.fixed_points(hol)
            probe = O.slot_marker_probe(sp, s)[1]
            assert O.spiral_endpoint(att, rep, probe) == att
            assert O._front_corner(sp, s).point == att
            refl = O.geodesic_reflection(G.Geodesic(*sp.seams[s]))
            att, rep = G.fixed_points(refl.conjugate_isometry(hol))
            probe = refl.apply(probe)
            assert O.spiral_endpoint(att, rep, probe) == rep
            assert O._back_apex(sp, s).point == rep
    assert built >= PANTS * 99 // 100
    assert slots >= 2 * built


def test_slot_normalizer_matches_the_build_time_construction():
    # slot_normalizer builds the marker and probe of its slot when called;
    # it must give, to the bit, the normalizer that the marker and probe
    # built with every pants gave
    rng = np.random.default_rng(11)
    compared = 0
    for _ in range(2000):
        ls = tuple(0.0 if rng.random() < 0.25 else rng.uniform(0.01, 12.0)
                   for _ in range(3))
        sp = sound_pants(ls)
        if sp is None:
            continue
        for s in range(3):
            if sp.slot_is_cusp[s]:
                with pytest.raises(GeometryError, match="cusp slots"):
                    slot_normalizer(sp, s)
                continue
            got = slot_normalizer(sp, s)
            want = O.build_time_normalizer(sp, s)
            assert got == want.matrix(), (ls, s)
            compared += 1
    assert compared >= 2000


def test_slot_normalizer_sends_the_attracting_end_to_zero():
    # the pants lies left of each slot axis oriented from the repelling
    # to the attracting fixed point of X_s, so the normalizer, which puts
    # the body in Re > 0, sends the attracting one near 0 and the
    # repelling one near infinity (not exactly: the fixed points and the
    # axis ends differ in their last bits)
    rng = np.random.default_rng(13)
    slots = 0
    for _ in range(PANTS):
        ls = tuple(0.0 if rng.random() < 0.2
                   else math.exp(rng.uniform(math.log(1e-3), math.log(30.0)))
                   for _ in range(3))
        sp = sound_pants(ls)
        if sp is None:
            continue
        for s in range(3):
            if sp.slot_is_cusp[s]:
                continue
            n = slot_normalizer(sp, s)
            att, rep = G.mat_fixed_points(sp.slot_hol[s], "hyperbolic")
            assert abs(G.mat_apply_boundary(n, att)) < 1e-3, (ls, s)
            assert abs(G.mat_apply_boundary(n, rep)) > 1e3, (ls, s)
            slots += 1
    assert slots >= 2 * PANTS * 9 // 10


def random_arcs(kind, count, seed):
    """(lengths, k) for count seam arcs k of the given kind.

    The end curves are uniform in (0.01, LONGEST); the third boundary is
    a cusp, uniform in (0.001, 0.05) or uniform in (0.01, LONGEST), in
    turn.
    """
    rng = np.random.default_rng(seed)
    cusps = KINDS.index(kind)
    out = []
    for n in range(count):
        ends = [0.0] * cusps + [rng.uniform(0.01, LONGEST)
                                for _ in range(2 - cusps)]
        third = (0.0, rng.uniform(0.001, 0.05),
                 rng.uniform(0.01, LONGEST))[n % 3]
        k = int(rng.integers(3))
        i, j = _seam_ends(k)
        ls = [0.0] * 3
        ls[i], ls[j] = ends if rng.random() < 0.5 else ends[::-1]
        ls[k] = third
        out.append((tuple(ls), k))
    return out


def mp_truncated(lengths, k):
    """The oracle's truncated_length at the working mpmath precision."""
    i, j = _seam_ends(k)
    li, lj, lt = (mp.mpf(lengths[s]) for s in (i, j, k))

    def collar(length):
        if length > INTERMEDIATE_CURVE_MAX:
            return mp.mpf(0)
        return mp.asinh(1 / mp.sinh(length / 2))

    if li and lj:
        a_k = mp.acosh((mp.cosh(li / 2) * mp.cosh(lj / 2) + mp.cosh(lt / 2))
                       / (mp.sinh(li / 2) * mp.sinh(lj / 2)))
        return a_k, max(mp.mpf(0), a_k - collar(li) - collar(lj))
    lo = li or lj
    if lo:
        depth = mp.log((mp.cosh(lt / 2) + mp.cosh(lo / 2)) / mp.sinh(lo / 2))
        return None, max(mp.mpf(0), depth - collar(lo))
    return None, mp.log((1 + mp.cosh(lt / 2)) / 2)


@pytest.mark.parametrize("kind", KINDS)
def test_closed_forms_match_the_oracle(kind):
    compared = 0
    for ls, k in random_arcs(kind, ARCS, KINDS.index(kind)):
        sp = sound_pants(ls)
        if sp is None:
            continue
        compared += 1
        got = O.truncated_length(ls, seam_lengths(*ls), k)
        want = O.truncate_arc(sp, k).truncated_length
        assert abs(got - want) <= 1e-9 * max(1.0, want), (ls, k)
        if kind == "curve-curve":
            got, want = seam_lengths(*ls)[k], O.arc_length(sp, k)
            assert abs(got - want) <= 1e-9 * max(1.0, want), (ls, k)
    assert compared >= 1000


@pytest.mark.parametrize("kind", KINDS)
def test_closed_forms_match_fifty_digits(kind):
    with mp.workdps(50):
        for ls, k in random_arcs(kind, ARCS, 10 + KINDS.index(kind)):
            raw, trunc = mp_truncated(ls, k)
            got = O.truncated_length(ls, seam_lengths(*ls), k)
            assert abs(got - trunc) <= 1e-12 * max(1, trunc), (ls, k)
            if raw is not None:
                got = seam_lengths(*ls)[k]
                assert abs(got - raw) <= 1e-12 * max(1, raw), (ls, k)


# ---------------------------------------------------------------------------
# boundary primitives and value types against their first form

SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5,
           1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310)
BOUNDARY = st.one_of(st.sampled_from(SPECIAL), st.floats(),
                     st.integers(-3, 3))
DRAWS = settings(max_examples=300, derandomize=True, database=None,
                      deadline=None)


@st.composite
def points(draw, k):
    """k boundary values drawn from a pool of at most k, so that repeats,
    the same NaN object among them, are common."""
    pool = draw(st.lists(BOUNDARY, min_size=1, max_size=k))
    return [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(k)]


def bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as err:
        return "raise", type(err), str(err)


def same_outcome(got, want, fields=None):
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got[1:] == want[1:]
        return
    got, want = got[1], want[1]
    if fields is None:
        assert type(got) is type(want) and bits(got) == bits(want)
        return
    for name in fields:
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert repr(got) == repr(want).replace("Reference", "")


@DRAWS
@given(points(4))
def test_cross_ratio_matches_reference(pts):
    same_outcome(outcome(G.cross_ratio, *pts),
                 outcome(O.reference_cross_ratio, *pts))


@DRAWS
@given(points(3))
def test_cyclic_order_matches_reference(pts):
    same_outcome(outcome(G.cyclically_ordered, *pts),
                 outcome(O.reference_cyclically_ordered, *pts))


@DRAWS
@given(points(4), st.booleans())
def test_geodesic_matches_reference(pts, oriented):
    fields = ("p", "q", "oriented")
    pairs = []
    for ends in (pts[:2], pts[2:]):
        got = outcome(G.Geodesic, *ends, oriented)
        want = outcome(O.ReferenceGeodesic, *ends, oriented)
        same_outcome(got, want, fields)
        pairs.append((got, want))
    (g1, r1), (g2, r2) = pairs
    if g1[0] == g2[0] == "value":
        assert (g1[1] == g2[1]) == (r1[1] == r2[1])


@DRAWS
@given(points(6))
def test_ideal_triangle_matches_reference(pts):
    fields = ("v1", "v2", "v3")
    pairs = []
    for vs in (pts[:3], pts[3:]):
        got = outcome(G.IdealTriangle, *vs)
        want = outcome(O.ReferenceIdealTriangle, *vs)
        same_outcome(got, want, fields)
        pairs.append((got, want))
    (t1, r1), (t2, r2) = pairs
    if t1[0] == t2[0] == "value":
        assert (t1[1] == t2[1]) == (r1[1] == r2[1])


def test_special_values_match_reference_exhaustively():
    for pts in itertools.product(SPECIAL, repeat=3):
        same_outcome(outcome(G.cyclically_ordered, *pts),
                     outcome(O.reference_cyclically_ordered, *pts))
        same_outcome(outcome(G.IdealTriangle, *pts),
                     outcome(O.ReferenceIdealTriangle, *pts),
                     ("v1", "v2", "v3"))
        same_outcome(outcome(G.Geodesic, *pts[:2], pts[2] > 0),
                     outcome(O.ReferenceGeodesic, *pts[:2], pts[2] > 0),
                     ("p", "q", "oriented"))
    for pts in itertools.product(SPECIAL, repeat=4):
        same_outcome(outcome(G.cross_ratio, *pts),
                     outcome(O.reference_cross_ratio, *pts))


def test_value_types_print_and_compare_as_before():
    iso = G.Isometry(1.0, 0.0, 0.0, 1.0)
    refl = O.Reflection(1.0, 0.0, 0.0, 1.0)
    assert repr(iso) == "Isometry(a=1.0, b=0.0, c=0.0, d=1.0)"
    assert repr(refl) == "Reflection(a=1.0, b=0.0, c=0.0, d=1.0)"
    assert repr(G.Geodesic(-math.inf, 2)) == (
        "Geodesic(p=inf, q=2.0, oriented=True)")
    assert repr(G.IdealTriangle(0, 1, math.inf)) == (
        "IdealTriangle(v1=0.0, v2=1.0, v3=inf)")
    assert repr(O.Corner(point=0.0, kind="cusp")) == (
        "Corner(point=0.0, kind='cusp', length=None, axis=None, "
        "stabilizer=None)")
    # equal entries of one class compare equal; an isometry never equals
    # the reflection with the same entries, either way round
    assert iso == G.Isometry(1.0, 0.0, 0.0, 1.0)
    assert iso != refl and refl != iso
    assert G.Geodesic(0.0, 1.0) != G.Geodesic(0.0, 1.0, oriented=False)
    # slotted and mutable, so neither hashable nor open to new attributes
    for value in (iso, refl, G.Geodesic(0.0, 1.0),
                  G.IdealTriangle(0.0, 1.0, 2.0), O.Corner(0.0, "cusp")):
        assert not hasattr(value, "__dict__")
        with pytest.raises(TypeError):
            hash(value)
        with pytest.raises(AttributeError):
            value.extra = 1
