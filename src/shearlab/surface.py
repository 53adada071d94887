"""Hyperbolic surfaces from glued pairs of pants.

A surface is described combinatorially by a pants graph (which boundary
slots are glued along which internal curve, which are cusps) and
metrically by Fenchel-Nielsen coordinates (length and twist per internal
curve).  The holonomy representation is built from the pants frames: a
spanning tree of the gluing graph places each pants relative to pants 0
by the product of the gluing maps along its tree path, and the remaining
gluings contribute explicit deck transformations.

Each frame is kept exact, as integers (a, b, c, d, den) standing for
the matrix (a, b, c, d) / den (see _exact): the product of the float
gluing maps with no rounding.  Holonomy.frames_about(p) places every
pants relative to pants p in the same form; exact_product multiplies
float matrices into one, and frame_apply and frame_conj act with an
exact frame on a boundary point and a float matrix, each result entry
rounded once (the cusped chain builder places its pants with them).
Generators are stored frame-locally: each is a small matrix in the
standard frame of one pants, together with the frame it lives in.
Words are evaluated by joining consecutive generators with the
connector F_p^-1 F_q between their frames, computed exactly and
rounded once per entry, which keeps every trace computation free of the
large cancellations that global conjugation would introduce on thick
surfaces.  The gluing maps, generator cores, connectors and
checks are float matrix tuples, as the pants holds them; evaluate_class
returns an Isometry.

Surfaces draw their Fenchel-Nielsen coordinates a block of samples at
once: block_seeds computes their seeds as numpy's SeedSequence would, as
one integer array program, and block_draws their lengths and twists as
numpy's Generator on a Philox bit generator keyed by each seed would,
from one Philox re-keyed per sample.  sample_fn draws one surface as a
block of one, and sample_seed is block_seeds at one index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import geom
from .constants import Signature, area
from .geom import IDENTITY, INF, Isometry, mat_inverse, mat_mul
from .pants import StdPants, build_pants, slot_normalizer

@dataclass(frozen=True)
class PantsGraph:
    """Gluing pattern: per pants, three slots marked cusp or internal curve."""

    pants: tuple  # per pants: 3-tuple of ("curve", id) / ("cusp", id)

    @property
    def num_pants(self):
        return len(self.pants)

    def curve_ends(self):
        """curve id -> list of slot references, in (pants, slot) order."""
        ends = {}
        for p, slots in enumerate(self.pants):
            for s, (kind, ident) in enumerate(slots):
                if kind == "curve":
                    ends.setdefault(ident, []).append((p, s))
        return ends

    def cusp_slots(self):
        out = {}
        for p, slots in enumerate(self.pants):
            for s, (kind, ident) in enumerate(slots):
                if kind == "cusp":
                    if ident in out:
                        raise ValueError(f"cusp id {ident} used twice")
                    out[ident] = (p, s)
        return out

    def curve_ids(self):
        return sorted(self.curve_ends())


@dataclass(frozen=True)
class FNCoordinates:
    """Length and twist per internal curve."""

    lengths: dict
    twists: dict

    def length(self, cid):
        return self.lengths[cid]

    def twist(self, cid):
        return self.twists[cid]


DISCONNECTED = "gluing graph is not connected"

#: relative tolerance of a curve's translation length (check_curve_holonomy)
_CURVE_LENGTH_TOL = 1e-9


def validate(pg: PantsGraph, sig: Signature):
    """Check the pants graph against the signature; returns diagnostics."""
    problems = []
    m = 2 * sig.g - 2 + sig.n
    if pg.num_pants != m:
        problems.append(f"expected {m} pants for signature, found {pg.num_pants}")
    for p, slots in enumerate(pg.pants):
        if len(slots) != 3:
            problems.append(f"pants {p} must have exactly 3 slots")
    ends = pg.curve_ends()
    for cid, refs in ends.items():
        if len(refs) != 2:
            problems.append(f"curve {cid} glues {len(refs)} slots, expected 2")
    expected_curves = 3 * sig.g - 3 + sig.n
    if len(ends) != expected_curves:
        problems.append(
            f"expected {expected_curves} internal curves, found {len(ends)}")
    try:
        n_cusps = len(pg.cusp_slots())
    except ValueError as err:
        problems.append(str(err))
    else:
        if n_cusps != sig.n:
            problems.append(f"expected {sig.n} cusps, found {n_cusps}")
    if not _connected(pg, ends):
        problems.append(DISCONNECTED)
    return problems


def _connected(pg: PantsGraph, ends: dict) -> bool:
    """Whether the curves that glue two slots connect every pants.

    ends is the curve index pg.curve_ends().
    """
    if pg.num_pants == 0:
        return True
    seen = {0}
    frontier = [0]
    adj = {p: set() for p in range(pg.num_pants)}
    for refs in ends.values():
        if len(refs) == 2:
            adj[refs[0][0]].add(refs[1][0])
            adj[refs[1][0]].add(refs[0][0])
    while frontier:
        p = frontier.pop()
        for q in adj[p]:
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen) == pg.num_pants


def check_surface(pg: PantsGraph, fn: FNCoordinates) -> dict:
    """Reject Fenchel-Nielsen data that no surface can be built from.

    Every curve needs a positive finite length and a finite twist, no
    cusp id may be used twice, and the gluing graph must be connected;
    raises ValueError.  Returns the curve index pg.curve_ends() it builds.
    """
    ends = pg.curve_ends()
    for cid in sorted(ends):
        if not (0.0 < fn.length(cid) < math.inf):
            raise ValueError(f"curve {cid} needs a positive finite length")
        if not math.isfinite(fn.twist(cid)):
            raise ValueError(f"curve {cid} needs a finite twist")
    pg.cusp_slots()
    if not _connected(pg, ends):
        raise ValueError(DISCONNECTED)
    return ends


@lru_cache(maxsize=128)
def canonical_pants_graph(sig: Signature) -> PantsGraph:
    """Linear chain of pants with handles attached in index order.

    Built and validated once per signature; the graph is immutable.
    """
    m = sig.complexity
    slots = [[None, None, None] for _ in range(m)]
    next_curve = 0
    for p in range(m - 1):
        slots[p][2] = ("curve", next_curve)
        slots[p + 1][0] = ("curve", next_curve)
        next_curve += 1
    # the 2g + n free slots in order: g handles, then the cusps
    free = [(p, s) for p in range(m) for s in range(3) if slots[p][s] is None]
    for k in range(sig.g):
        (p1, s1), (p2, s2) = free[2 * k], free[2 * k + 1]
        slots[p1][s1] = ("curve", next_curve)
        slots[p2][s2] = ("curve", next_curve)
        next_curve += 1
    for cusp_id, (p, s) in enumerate(free[2 * sig.g:]):
        slots[p][s] = ("cusp", cusp_id)
    pg = PantsGraph(tuple(tuple(s) for s in slots))
    problems = validate(pg, sig)
    if problems:
        raise ValueError("canonical graph construction failed: " + "; ".join(problems))
    return pg


@dataclass(frozen=True)
class Generator:
    """A deck transformation written as frame_L * core * frame_R^-1."""

    lframe: int
    core: tuple
    rframe: int


@dataclass
class Holonomy:
    """Per-pants exact frames and a generator table for curve classes."""

    graph: PantsGraph
    fn: FNCoordinates
    std: list                # StdPants per pants
    frames: list             # per pants: exact frame from pants 0 (_exact)
    table: dict              # generator id -> Generator

    def frames_about(self, p: int):
        """Exact frame of every pants relative to pants p, F_p^-1 F_q."""
        base = _inverse(self.frames[p])
        return [_mul(base, f) for f in self.frames]

    def _connector(self, p: int, q: int):
        """Map from the frame of pants q to that of pants p, F_p^-1 F_q,
        each entry rounded once."""
        if p == q:
            return IDENTITY
        return _rounded(_mul(_inverse(self.frames[p]), self.frames[q]))

    def evaluate_class(self, word) -> Isometry:
        """The word as a matrix, up to conjugation (trace-faithful)."""
        if not word:
            raise ValueError("curve class word must be nonempty")
        for (g1, e1), (g2, e2) in zip(word, word[1:]):
            if g1 == g2 and e1 == -e2:
                raise ValueError("curve class word must be reduced")
        factors = []
        for name, exp in word:
            g = self.table[name]
            if exp == 1:
                factors.append((g.lframe, g.core, g.rframe))
            else:
                factors.append((g.rframe, mat_inverse(g.core), g.lframe))
        out = factors[0][1]
        for (fa, fb) in zip(factors, factors[1:]):
            out = mat_mul(mat_mul(out, self._connector(fa[2], fb[0])), fb[1])
        out = mat_mul(out, self._connector(factors[-1][2], factors[0][0]))
        return Isometry(*out)


def curve_length(hol: Holonomy, word) -> float:
    """Geodesic length of the curve class; rejects non-hyperbolic classes."""
    f = hol.evaluate_class(word)
    kind = geom.classify(f)
    if kind != "hyperbolic":
        raise geom.GeometryError(f"curve class is {kind}, not a closed geodesic")
    return geom.translation_length(f)


def _exact(m):
    """A float matrix as an exact one: integers (a, b, c, d, den) with
    the entries (a, b, c, d) / den, den > 0."""
    ratios = [v.as_integer_ratio() for v in m]
    den = max(q for _, q in ratios)     # each q is a power of two
    return (*(p * (den // q) for p, q in ratios), den)


def _mul(m, n):
    """Product of exact matrices: the numerator matrices and the
    denominators multiply, with no reduction."""
    return (*mat_mul(m[:4], n[:4]), m[4] * n[4])


def _inverse(m):
    """Inverse of an exact matrix: den adj / det, denominator made positive."""
    a, b, c, d, k = m
    det = a * d - b * c
    if det < 0:
        k, det = -k, -det
    return (k * d, -k * b, -k * c, k * a, det)


def _quotient(num: int, den: int) -> float:
    """num / den rounded once to float, a zero to +0.0.

    CPython's int true division rounds correctly, so the bits depend
    only on the value of the ratio, not on how it is reduced.
    """
    if den < 0:
        num, den = -num, -den
    return num / den


def _rounded(m):
    """An exact matrix as a float one, each entry rounded once."""
    *entries, den = m
    return tuple(_quotient(v, den) for v in entries)


def exact_product(mats):
    """The product of float matrices, in order, as an exact matrix."""
    out = _exact(IDENTITY)
    for m in mats:
        out = _mul(out, _exact(m))
    return out


def frame_apply(frame, pt):
    """Boundary action of an exact matrix, rounded once to float."""
    a, b, c, d, _ = frame
    if pt == INF:
        return INF if c == 0 else _quotient(a, c)
    p, q = pt.as_integer_ratio()
    den = c * p + d * q
    if den == 0:
        return INF
    return _quotient(a * p + b * q, den)


def frame_conj(frame, m):
    """frame m frame^-1 of an exact frame and a float matrix, computed
    exactly and each entry rounded once.

    The conjugate of a parabolic by a large-entry frame has entries that
    cancel from products thousands of times larger; float64 alone leaves
    absolute errors big enough to spoil downstream cross-ratios.
    """
    return _rounded(_mul(_mul(frame, _exact(m)), _inverse(frame)))


def slot_lengths(pg: PantsGraph, fn: FNCoordinates, p: int):
    """Boundary lengths of pants p, a cusp counting as 0."""
    out = []
    for kind, ident in pg.pants[p]:
        out.append(fn.length(ident) if kind == "curve" else 0.0)
    return tuple(out)


def _gluing_map(parent_std: StdPants, parent_slot: int,
                child_std: StdPants, child_slot: int, cid, twist: float):
    """Map n_parent^-1 T(twist) H n_child placing the child pants across
    the parent's slot axis, with the twist of curve cid: T translates
    along (0, inf), and the half turn H swaps its sides.

    A twist too large for float64 to carry the map (from about 1419 in
    absolute value) raises GeometryError naming the curve and the twist.
    """
    n_parent = slot_normalizer(parent_std, parent_slot)
    n_child = slot_normalizer(child_std, child_slot)
    try:
        e = math.exp(twist / 2.0)
        g = mat_mul(mat_mul(mat_mul(mat_inverse(n_parent),
                                    (e, 0.0, 0.0, 1.0 / e)),
                            (0.0, -1.0, 1.0, 0.0)), n_child)
    except (OverflowError, ZeroDivisionError):
        g = None
    if g is None or not all(map(math.isfinite, g)):
        raise geom.GeometryError(f"gluing map of curve {cid} at twist "
                                 f"{twist} is not finite in float64")
    return g


def holonomy_from_fn(pg: PantsGraph, fn: FNCoordinates) -> Holonomy:
    ends = check_surface(pg, fn)
    std = [build_pants(*slot_lengths(pg, fn, p)) for p in range(pg.num_pants)]
    frames = [None] * pg.num_pants
    frames[0] = _exact(IDENTITY)
    tree_curves = set()
    frontier = [0]
    placed = {0}
    while frontier:
        nxt = []
        for p in frontier:
            for cid, refs in sorted(ends.items()):
                here = [r for r in refs if r[0] == p]
                for (pp, ss) in here:
                    (qq, tt) = refs[0] if refs[1] == (pp, ss) else refs[1]
                    if qq in placed:
                        continue
                    edge = _gluing_map(std[pp], ss, std[qq], tt, cid,
                                       fn.twist(cid))
                    frames[qq] = _mul(frames[pp], _exact(edge))
                    placed.add(qq)
                    tree_curves.add(cid)
                    nxt.append(qq)
        frontier = nxt

    table = {}
    for p in range(pg.num_pants):
        for s in range(3):
            table[f"bnd:{p}:{s}"] = Generator(p, std[p].slot_hol[s], p)
    for cusp_id, (p, s) in pg.cusp_slots().items():
        table[f"cusp:{cusp_id}"] = table[f"bnd:{p}:{s}"]
    for cid, refs in ends.items():
        (p1, s1), (p2, s2) = sorted(refs)
        table[f"curve:{cid}"] = table[f"bnd:{p1}:{s1}"]
        if cid not in tree_curves:
            raw = _gluing_map(std[p1], s1, std[p2], s2, cid,
                                     fn.twist(cid))
            table[f"glue:{cid}"] = Generator(p1, raw, p2)

    hol = Holonomy(graph=pg, fn=fn, std=std, frames=frames, table=table)
    _check_holonomy(hol, ends, tree_curves)
    return hol


def check_curve_holonomy(m, cid, length: float):
    """The holonomy of a curve must translate by its requested length."""
    if geom.mat_classify(m) != "hyperbolic":
        raise geom.GeometryError(f"curve {cid} holonomy is not hyperbolic")
    got = geom.mat_translation_length(m)
    if abs(got - length) > _CURVE_LENGTH_TOL * max(1.0, length):
        raise geom.GeometryError(
            f"curve {cid} length {got} != requested {length}")


def _check_holonomy(hol: Holonomy, ends: dict, tree_curves: set):
    """The holonomy of each curve and cusp, at its slot, and the tree.

    ends is the curve index pg.curve_ends(), and tree_curves the curves
    of the spanning tree's gluings.
    """
    for cid in sorted(ends):
        check_curve_holonomy(hol.table[f"curve:{cid}"].core, cid,
                             hol.fn.length(cid))
    for cusp_id in hol.graph.cusp_slots():
        g = hol.table[f"cusp:{cusp_id}"].core
        if abs(abs(g[0] + g[3]) - 2.0) > 1e-9:
            raise geom.GeometryError(f"cusp {cusp_id} word is not parabolic")
    # The two sides of a tree gluing stabilize the same axis oppositely:
    # bnd(p1,s1) must equal bnd(p2,s2)^-1 up to overall sign.  In local terms,
    # with E the edge map, X1 = E X2^-1 E^-1 entrywise.
    for cid in tree_curves:
        (p1, s1), (p2, s2) = sorted(ends[cid])
        conn = hol._connector(p1, p2)
        a = hol.std[p1].slot_hol[s1]
        b = mat_mul(mat_mul(conn, mat_inverse(hol.std[p2].slot_hol[s2])),
                    mat_inverse(conn))
        scale = max(*map(abs, b), 1.0)
        err = min(max(abs(x - s * y) for x, y in zip(a, b))
                  for s in (1.0, -1.0))
        if err > 1e-8 * scale:
            raise geom.GeometryError(
                f"tree gluing along curve {cid} is inconsistent")


def default_length_range(sig: Signature) -> tuple:
    """sample_fn's default length range, (0.05, 2 log(4 area)]."""
    return 0.05, 2.0 * math.log(4.0 * area(sig))


def sample_fn(sig: Signature, seed: int, length_range=None,
              twist_range=(0.0, 1.0)):
    """Seeded random surface on the canonical pants graph.

    Lengths are uniform in length_range, which defaults to
    default_length_range(sig); the draw is block_draws' of the one seed,
    in curve id order.
    """
    pg = canonical_pants_graph(sig)
    if length_range is None:
        length_range = default_length_range(sig)
    cids = pg.curve_ids()
    lengths, twists = block_draws(np.array([seed], dtype=np.uint64),
                                  len(cids), length_range, twist_range)
    return pg, FNCoordinates(dict(zip(cids, lengths[0].tolist())),
                             dict(zip(cids, twists[0].tolist())))


def sample_seed(base_seed: int, index: int) -> int:
    """Per-sample seed: SeedSequence(entropy=base, spawn_key=(index,)),
    block_seeds at one index."""
    return int(block_seeds(base_seed, index, 1)[0])


# numpy's SeedSequence: the hash constants and their multipliers, the
# mix multipliers and the pool size (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_HASH_A = (0x43B0D7E5, 0x931E8875)
_HASH_B = (0x8B51F9DD, 0x58F38DED)
_MIX = (0xCA01F9DD, 0x4973F715)
_POOL = 4


def _hash_constants(init: int, mult: int):
    """The constants of successive hashmix calls: each xors in the hash
    constant, multiplies it by mult and then multiplies by it."""
    while True:
        nxt = init * mult & _MASK32
        yield init, nxt
        init = nxt


def _hashmix(value, constants):
    """numpy's hashmix of 32-bit words, Python ints or uint32 arrays, at
    the next of the constants."""
    xor, mul = next(constants)
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """numpy's mix of two 32-bit words, Python ints or uint32 arrays."""
    value = _MIX[0] * x - _MIX[1] * y & _MASK32
    return value ^ value >> 16


def block_seeds(base_seed: int, start: int, size: int) -> np.ndarray:
    """The seeds of the samples start .. start + size - 1, as uint64.

    Sample i's seed is what numpy's SeedSequence(entropy=np.uint64(base_seed),
    spawn_key=(i,)).generate_state(1, np.uint64) gives, computed here as
    one array program.  The entropy is the base seed's 32-bit words,
    padded with zeros to the pool size because there is a spawn key, then
    the index's words.  Only the index words differ between samples, so
    the pool is hashed and mixed once in Python ints, and each index word
    is mixed into it as uint32 arrays.  The seed is the first two pool
    words hashed again, the first as its low half.
    """
    base = int(np.uint64(base_seed))   # numpy's range check and its error
    words = [base & _MASK32, base >> 32] if base >> 32 else [base]
    words += [0] * (_POOL - len(words))
    constants = _hash_constants(*_HASH_A)
    pool = [_hashmix(word, constants) for word in words]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    index = np.arange(start, start + size, dtype=np.uint64)
    low, high = ((w & _MASK32).astype(np.uint32) for w in (index, index >> 32))
    pool = [_mix(np.full(size, p, dtype=np.uint32), _hashmix(low, constants))
            for p in pool]
    if high.any():   # an index from 2^32 on has a second word
        pool = [np.where(high > 0, _mix(p, _hashmix(high, constants)), p)
                for p in pool]
    constants = _hash_constants(*_HASH_B)
    low, high = (_hashmix(p, constants).astype(np.uint64) for p in pool[:2])
    return low | high << 32


#: 2^-53, the step of numpy's next_double
_ULP53 = 1.0 / 9007199254740992.0


def block_draws(seeds: np.ndarray, curves: int, length_range, twist_range):
    """The lengths and twists of a block of seeded samples, as (samples,
    curves) arrays.

    Row i holds, bit for bit, what numpy's Generator on a Philox bit
    generator keyed by seeds[i] draws: the lengths uniform in
    length_range, then per curve a u uniform in twist_range, whose twist
    is u * length (tests/test_surface.py draws them so as the reference).
    Generator.uniform maps each word x of the bit generator to
    lo + (hi - lo) u, u = (x >> 11) 2^-53.  Here one Philox is re-keyed
    to each sample, as Philox(key=seed) starts, and read for its 2 curves
    raw words, which are mapped for the whole block at once.  numpy's
    uniform checks the ranges at any size, so a bad range raises its
    error, even for an empty block; with no curve nothing is drawn and
    nothing checks the ranges.
    """
    count = len(seeds)
    if not curves:
        return np.zeros((count, 0)), np.zeros((count, 0))
    bits = np.random.Philox(key=0)
    state = bits.state          # key (0, 0), counter 0, empty buffer
    key = state["state"]["key"]
    for low_high in (length_range, twist_range):
        np.random.Generator(bits).uniform(*low_high, 0)
    words = np.empty((count, 2 * curves), dtype=np.uint64)
    for i, seed in enumerate(seeds):
        key[0] = seed
        bits.state = state
        words[i] = bits.random_raw(2 * curves)
    u = (words >> 11) * _ULP53
    lo, hi = map(float, length_range)
    t_lo, t_hi = map(float, twist_range)
    lengths = lo + (hi - lo) * u[:, :curves]
    return lengths, (t_lo + (t_hi - t_lo) * u[:, curves:]) * lengths
