"""A failure atlas of the length-triple domain, first cut.

Every check on the sampling path is a function of one pants' ordered
boundary-length triple, with 0 for a cusp.  This file runs a seeded grid
over (0.05, 14], the lengths of the default (20,4) campaigns, with every
cusp pattern (0 to 3 cusps); a thin band, the same cells crossed with
lengths in (1e-3, 2 tanh(rho)] and every cusp pattern; and a
derandomized hypothesis search over the grid's domain.  Every triple
goes through both routes of report.run_surface:

* the batch (decomposition.pants_batch): a triple it handles must pass every
  check of the scalar path and give its bits, margins in kernel order
  and quadrilaterals included, and at every slot the scalar translation
  length and curve-holonomy check;
* the scalar build_pants and pants_kernel: every failure must be a
  named GeometryError (DevelopError and AuditError included).

The array closed forms of the shortness certificate (the batch's
Batch.arcs and arcs_short) must give the bits of the oracle's scalar
forms on every triple, whichever route handles it.

The counts of failures per check kind and the handled share per class
of pants (thick, thin, one cusp, two or three cusps) are printed
(``pytest -s``), not pinned: the failures are the open conditioning
defects of the float64 standard position.
"""

import cmath
import math
import random
import re
import struct
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geometric_oracle as O
from shearlab import decomposition as D
from shearlab import spiralling as SP
from shearlab.constants import SHORT_CURVE_MAX
from shearlab.geom import GeometryError, mat_translation_length
from shearlab.pants import build_pants
from shearlab.surface import check_curve_holonomy

LOW, HIGH = 0.05, 14.0
LOG4A = 2.0                   # log(4 area) of arcs_short; the grid's
                              # arcs reach both sides of its bounds
CELLS = 20                    # grid cells per axis
THIN_CELLS = 3                # thin-band cells per axis


def fingerprint(hol, shears, residuals, margins, quadrilaterals):
    """Everything a route gives for one triple: its floats as bits and
    its margin count.  hol and quadrilaterals are flat."""
    floats = [*hol, *shears, *residuals, *margins, *quadrilaterals]
    return np.array(floats, dtype=float).tobytes(), len(margins)


def batch_fingerprint(batch, r):
    """fingerprint of row r of a decomposition.Batch."""
    margins = batch.margins[batch.first[r]:batch.first[r + 1]]
    return fingerprint(
        batch.hol[r].ravel().tolist(), batch.shears[r].tolist(),
        batch.residuals[r].tolist(), margins.tolist(),
        batch.quadrilaterals[r].ravel().tolist())


def scalar_fingerprint(sp, kern):
    """fingerprint of the scalar build_pants and pants_kernel."""
    return fingerprint(
        [x for h in sp.slot_hol for x in h], kern.shears,
        kern.residuals, kern.margins,
        [x for quad in kern.quadrilaterals for x in quad])


def arc_bits(arcs):
    """The bits of one pants' seam-arc lengths, per arc (raw, slack,
    truncated) with None for an unbounded raw length and its slack, and
    the places of the Nones."""
    flat = [x for arc in arcs for x in arc]
    return (np.array([0.0 if x is None else x for x in flat]).tobytes(),
            tuple(x is None for x in flat))


def curve_checks(sp):
    """Per slot, the bits of geom.mat_translation_length of its holonomy
    (NaN at a cusp), and whether surface.check_curve_holonomy passes on
    it (False at a cusp)."""
    lengths, passed = [], []
    for hol, length in zip(sp.slot_hol, sp.lengths):
        lengths.append(mat_translation_length(hol) if length else math.nan)
        try:
            check_curve_holonomy(hol, 0, length)
        except GeometryError:
            passed.append(False)
        else:
            passed.append(length > 0.0)
    return np.array(lengths).tobytes(), passed


def scalar(ls):
    """(StdPants, PantsKernel), or the error of the scalar path, which
    must be a named GeometryError."""
    try:
        sp = build_pants(*ls)
        return sp, SP.pants_kernel(sp)
    except Exception as err:
        assert isinstance(err, GeometryError), (ls, err)
        return err


def kind(err):
    """The check an error names: its class and message without numbers."""
    text = re.sub(r"\(?(?<!\w)-?\d[\d.e+-]*(, -?\d[\d.e+-]*)*\)?", "#",
                  str(err))
    return f"{type(err).__name__}: {text}"


def pants_class(ls):
    cusps = ls.count(0.0)
    if cusps:
        return "one cusp" if cusps == 1 else "two or three cusps"
    return "thin" if min(ls) <= SHORT_CURVE_MAX else "thick"


CLASSES = ("thick", "thin", "one cusp", "two or three cusps")


def check_routes(triples, kinds, shares):
    """Run both routes on every triple, repeats included (row r of the
    batch is triple r); returns the handled count.

    kinds counts the scalar failures by check kind, and shares the
    triples per class as [total, passed by the scalar path, handled].
    """
    batch = D.pants_batch(triples)
    short = D.arcs_short(batch.arcs, LOG4A)
    for r, ls in enumerate(map(tuple, triples)):
        # the array closed forms on every row, whichever route takes it
        oracle = O.arc_lengths(ls)
        assert arc_bits([[None if math.isnan(x) else x for x in arc]
                         for arc in batch.arcs[r].tolist()]) == arc_bits(oracle), ls
        assert short[r] == O.arcs_short(oracle, LOG4A), ls
        want = scalar(ls)
        share = shares.setdefault(pants_class(ls), [0, 0, 0])
        share[0] += 1
        if isinstance(want, GeometryError):
            kinds[kind(want)] += 1
        else:
            share[1] += 1
        if not batch.handled[r]:
            continue
        share[2] += 1
        assert not isinstance(want, GeometryError), (ls, want)
        sp, kern = want
        assert batch_fingerprint(batch, r) == scalar_fingerprint(sp, kern), ls
        assert (batch.translation[r].tobytes(),
                batch.curve_ok[r].tolist()) == curve_checks(sp), ls
    return int(batch.handled.sum())


def seeded_grid(seed, low=LOW, high=HIGH, cells=CELLS):
    """One seeded draw per grid cell and axis, in (low, high]."""
    rng = random.Random(seed)
    width = (high - low) / cells
    return [high - (c + rng.random()) * width for c in range(cells)]


def thin_band(seed):
    """One seeded draw per cell of THIN_CELLS log-spaced cells over
    (1e-3, 2 tanh(rho)]."""
    top = math.log(SHORT_CURVE_MAX)
    return [math.exp(v) for v in seeded_grid(seed, math.log(1e-3), top,
                                             THIN_CELLS)]


def pattern_triples(values, keep=lambda ls: True):
    """Every ordered triple of the values and cusps (0.0) that keep
    accepts, per cusp pattern."""
    out = []
    for pattern in range(8):          # bit s set: slot s is a cusp
        axes = [[0.0] if pattern >> s & 1 else values for s in range(3)]
        out += [(a, b, c) for a in axes[0] for b in axes[1]
                for c in axes[2] if keep((a, b, c))]
    return out


def grid_triples():
    return pattern_triples(seeded_grid(2025))


def thin_triples():
    """The grid cells crossed with the thin band: every triple of both
    value sets with at least one thin length."""
    thin = thin_band(2026)
    return pattern_triples(seeded_grid(2025) + thin,
                           lambda ls: any(v in thin for v in ls))


def report_counts(title, total, handled, kinds, shares):
    print(f"\n{title}: {total} triples, {handled} handled by the batch")
    for name in CLASSES:
        if name not in shares:
            continue
        count, passed, got = shares[name]
        print(f"  {name:20s} {count:6d} triples, {passed:6d} pass the "
              f"scalar path, {got:6d} handled "
              f"({got / max(1, passed):.1%} of those)")
    for name, count in kinds.most_common():
        print(f"  {count:6d}  {name}")


def run_atlas(title, triples):
    kinds, shares = Counter(), {}
    handled = check_routes(triples, kinds, shares)
    report_counts(title, len(triples), handled, kinds, shares)
    return handled, shares


def test_seeded_grid():
    triples = grid_triples()
    assert len(triples) == (CELLS + 1) ** 3
    handled, shares = run_atlas("seeded grid over (0.05, 14]", triples)
    assert handled > 0
    assert all(shares[name][2] for name in CLASSES)


def test_thin_band():
    triples = thin_triples()
    handled, shares = run_atlas(
        "seeded grid crossed with the thin band (1e-3, 2 tanh(rho)]",
        triples)
    assert handled > 0
    assert all(shares[name][2] for name in CLASSES if name != "thick")


def test_complex_arithmetic_rounds_as_cpython():
    # the batch's real forms of CPython's complex product, sum, quotient
    # and abs, bit for bit, over a wide exponent range and signed zeros
    rng = random.Random(7)

    def value():
        r = rng.random()
        if r < 0.05:
            return rng.choice([0.0, -0.0])
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-30, 30)

    count = 20000
    a, b, c, d, zr, zi = (np.array([value() for _ in range(count)])
                          for _ in range(6))
    with np.errstate(all="ignore"):
        wr, wi, good = D._apply_point((a, b, c, d), zr, zi)
        hyp = np.hypot(zr, zi)
    for i in range(count):
        z = complex(zr[i], zi[i])
        assert hyp[i].tobytes() == struct.pack("<d", abs(z)), z
        try:
            w = (float(a[i]) * z + float(b[i])) / (float(c[i]) * z
                                                   + float(d[i]))
        except ZeroDivisionError:
            assert not good[i]
            continue
        assert good[i]
        if cmath.isnan(w):
            continue
        assert wr[i].tobytes() + wi[i].tobytes() == struct.pack(
            "<2d", w.real, w.imag), i


LENGTH = st.one_of(st.just(0.0), st.floats(LOW, HIGH))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(LENGTH, LENGTH, LENGTH), min_size=1, max_size=8))
# seam ends that meet in float64: the seam distance has no denominator
@example([(0.0, 2.264521290549835, 76.08615952010994)])
def test_search(triples):
    # a batch of up to 8 triples, repeats included: each triple's route
    # and result must not depend on the others in its batch
    check_routes(triples, Counter(), {})
