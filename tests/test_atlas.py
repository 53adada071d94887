"""A failure atlas of the length-triple domain, first cut.

Every check on the sampling path is a function of one pants' ordered
boundary-length triple, with 0 for a cusp.  This file runs a seeded grid
over (0.05, 14], the lengths of the default (20,4) campaigns, with every
cusp pattern (0 to 3 cusps), and a derandomized hypothesis search over
the same domain.  Every triple goes through both routes of
report.run_surface:

* the batch of thick compact pants (thick.thick_batch): a triple it
  handles must pass every check of the scalar path and give its bits;
* the scalar build_pants and pants_kernel: every failure must be a named
  GeometryError (DevelopError and AuditError included).

The counts of failures per check kind and the handled share are printed
(``pytest -s``), not pinned: the failures are the open conditioning
defects of the float64 standard position.
"""

import math
import random
import re
import struct
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from shearlab import spiralling as SP
from shearlab import thick
from shearlab.constants import shear_free_params
from shearlab.geom import GeometryError
from shearlab.pants import build_pants

LOW, HIGH = 0.05, 14.0
CELLS = 20                    # grid cells per axis


def bits(value):
    """value with every float as its bits."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    return value


def matrices(slot_hol):
    return bits([(h.a, h.b, h.c, h.d) for h in slot_hol])


def scalar(ls, params):
    """(StdPants, PantsKernel), or the error of the scalar path, which
    must be a named GeometryError."""
    try:
        sp = build_pants(*ls)
        return sp, SP.pants_kernel(sp, params)
    except Exception as err:
        assert isinstance(err, GeometryError), (ls, err)
        return err


def kind(err):
    """The check an error names: its class and message without numbers."""
    text = re.sub(r"\(?(?<!\w)-?\d[\d.e+-]*(, -?\d[\d.e+-]*)*\)?", "#",
                  str(err))
    return f"{type(err).__name__}: {text}"


def check_routes(triples, params, kinds):
    """Run both routes on the triples; returns the handled count.

    kinds counts the scalar failures by check kind.
    """
    handled = thick.thick_batch(triples, params)
    short_max = 2.0 * math.tanh(params.rho)
    for ls in triples:
        want = scalar(ls, params)
        if isinstance(want, GeometryError):
            kinds[kind(want)] += 1
        got = handled.get(ls)
        if got is None:
            continue
        assert min(ls) > short_max, ls
        assert not isinstance(want, GeometryError), (ls, want)
        sp, kern = want
        assert bits(got.lengths) == bits(sp.lengths), ls
        assert got.slot_is_cusp == sp.slot_is_cusp, ls
        assert matrices(got.slot_hol) == matrices(sp.slot_hol), ls
        k = got.kernel
        assert bits((k.shears, k.residuals, k.margins, k.quadrilaterals)) \
            == bits((kern.shears, kern.residuals, kern.margins,
                     kern.quadrilaterals)), ls
    return len(handled)


def seeded_grid(seed):
    """One seeded draw per grid cell and axis, in (LOW, HIGH]."""
    rng = random.Random(seed)
    width = (HIGH - LOW) / CELLS
    return [HIGH - (c + rng.random()) * width for c in range(CELLS)]


def grid_triples():
    """Every ordered triple of the grid values and cusps (0.0)."""
    values = seeded_grid(2025)
    out = []
    for pattern in range(8):          # bit s set: slot s is a cusp
        axes = [[0.0] if pattern >> s & 1 else values for s in range(3)]
        out += [(a, b, c) for a in axes[0] for b in axes[1]
                for c in axes[2]]
    return out


def report_counts(title, total, handled, thick_count, kinds):
    print(f"\n{title}: {total} triples, {thick_count} thick compact, "
          f"{handled} handled by the batch "
          f"({handled / max(1, thick_count):.1%} of the thick compact)")
    for name, count in kinds.most_common():
        print(f"  {count:6d}  {name}")


def thick_compact(triples, params):
    short_max = 2.0 * math.tanh(params.rho)
    return sum(1 for ls in triples if min(ls) > short_max)


def test_seeded_grid():
    params = shear_free_params()
    triples = grid_triples()
    assert len(triples) == (CELLS + 1) ** 3
    kinds = Counter()
    handled = check_routes(triples, params, kinds)
    count = thick_compact(triples, params)
    report_counts("seeded grid over (0.05, 14]", len(triples), handled,
                  count, kinds)
    assert handled > 0


LENGTH = st.one_of(st.just(0.0), st.floats(LOW, HIGH))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(LENGTH, LENGTH, LENGTH), min_size=1, max_size=8))
def test_search(triples):
    # a batch of up to 8 triples, repeats included: each triple's route
    # and result must not depend on the others in its batch
    check_routes(triples, shear_free_params(), Counter())
