"""End-to-end pipeline runs and machine-readable reports.

A campaign runs a block of samples at a time as one array program.  Each
pants is built in standard position from its boundary-length triple and
developed once in its own frame: six spiral corners, then per arc the
shear and the shear-point margins, and per slot the residual of its
relation (the two arc-ends at a slot sum to 0 at a cusp and to the
curve's length at a glued slot).  Every sample of a campaign lies on the
canonical pants graph of its signature, so the graph's curve-to-slot
map, its curve checks and the record keys are fixed once per graph.  The
block's seeds and its (samples, curves) arrays of curve lengths and
twists are drawn at once (surface.block_seeds and block_draws), and its
length triples are one gather of them, (samples, pants, 3).  A pants
takes one of two routes, with the same bits:

* every pants goes first through thick.thick_batch, which builds and
  develops all the triples of the block at once in numpy, in input
  order, checks the curve holonomies and returns arrays with a row per
  triple;
* every pants the batch does not handle (a check fails, or a rare
  branch is taken) goes through the scalar pants.build_pants and
  spiralling.pants_kernel.  They are the reference of the batch and
  report every failure by name, in the scalar order: construction
  errors by pants, then the curve checks by curve id, then kernel
  errors by pants.

The batch's arrays are reshaped to (samples, pants), the scalar route
writes the values of the pants it builds into them, and they are
reduced per block in numpy: the largest |shear|, the largest residual
over cusp slots and over curve slots, the least margin, and whether
every row of the shortness certificate passes, read without building
the rows from the curve lengths and the seam-arc closed forms
(decomposition), which neither route computes.  The record holds
these, the curve lengths and twists keyed by curve id and the shears
keyed by arc (pants, seam).  run_surface is a campaign of
one surface.  No global holonomy is built.  Reports are deterministic:
records are assembled in sample order and contain no wall-clock data
(timings go to a side channel).  to_json writes json.dumps' indented
bytes with the C encoder.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import __version__, decomposition, spiralling, thick
from .constants import (RHO, SHORT_CURVE_MAX, Signature, area,
                        constants_audit, main_bound, shear_free_params,
                        topology_constants)
from .geom import RELATION_TOL
from .pants import build_pants
from .surface import (DISCONNECTED, FNCoordinates, PantsGraph, block_draws,
                      block_seeds, canonical_pants_graph,
                      check_curve_holonomy, check_surface,
                      default_length_range, validate)

SCHEMA = "shearlab-report/1"

#: Samples drawn and batched together; it bounds the memory a campaign
#: holds besides its records.
_BLOCK = 256

CSV_HEADER = ("sample,gn,seed,certified,max_shear,bound,ratio,"
              "cusp_residual,spiral_residual,min_margin")


def parse_surface(data: dict):
    """Surface file schema: signature, pants slot table, fn coordinates.

    {"signature": {"g": g, "n": n},
     "pants": [{"slots": [{"curve": id} | {"cusp": id}, x3]}, ...],
     "fn": [{"curve": id, "length": l, "twist": t}, ...]}

    Raises ValueError for a signature g or n that is not a JSON integer
    (such as 1.9, 1.0, true or "1"), an fn length or twist that is not
    a JSON number (such as true or "2.0") or is an integer too large for
    a float (such as 10**400), a malformed slot, a pants graph
    that contradicts the declared signature (the first problem
    surface.validate names), curve or cusp ids that cannot be ordered
    together (such as 0 and "b"), a curve without an fn row or with
    two, or an fn row of a curve that no slot glues.
    """
    gn = [data["signature"][key] for key in ("g", "n")]
    for key, value in zip("gn", gn):
        if type(value) is not int:
            raise ValueError(f"signature {key} must be an integer, "
                             f"got {value!r}")
    sig = Signature(*gn)
    pants = []
    for entry in data["pants"]:
        slots = []
        for slot in entry["slots"]:
            if "curve" in slot:
                slots.append(("curve", slot["curve"]))
            elif "cusp" in slot:
                slots.append(("cusp", slot["cusp"]))
            else:
                raise ValueError("slot must name a curve or a cusp")
        if len(slots) != 3:
            raise ValueError("each pants needs exactly three slots")
        pants.append(tuple(slots))
    pg = PantsGraph(tuple(pants))
    lengths = {}
    twists = {}
    for row in data.get("fn", []):
        cid = row["curve"]
        if cid in lengths:
            raise ValueError(f"curve {cid} has two fn rows")
        for key, into, value in (("length", lengths, row["length"]),
                                 ("twist", twists, row.get("twist", 0.0))):
            if type(value) not in (int, float):
                raise ValueError(f"{key} of curve {cid} must be a number, "
                                 f"got {value!r}")
            try:
                into[cid] = float(value)
            except OverflowError:
                raise ValueError(f"{key} of curve {cid} is too large for a "
                                 f"float") from None
    # a disconnected gluing graph is left to check_surface, which fails it
    # as a geometry invariant
    problems = [p for p in validate(pg, sig) if p != DISCONNECTED]
    if problems:
        raise ValueError(problems[0])
    ends = pg.curve_ends()
    for kind, ids in (("curve", ends), ("cusp", pg.cusp_slots())):
        try:
            sorted(ids)
        except TypeError:
            raise ValueError(f"{kind} ids cannot be ordered together: "
                             + ", ".join(map(repr, ids))) from None
    for cid in ends:
        if cid not in lengths:
            raise ValueError(f"curve {cid} has no fn row")
    for cid in lengths:
        if cid not in ends:
            raise ValueError(f"fn row of curve {cid}, which no slot glues")
    fn = FNCoordinates(lengths, twists)
    return sig, pg, fn


def _max(values, default):
    """max() of the values, NaN if any of them is NaN.

    Python's max keeps a NaN only when it comes first, so a NaN residual
    or shear later in the list would be dropped silently.
    """
    values = list(values)
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values, default=default)


@dataclass(slots=True)
class _Layout:
    """What a pants graph fixes for every surface on it."""

    cids: list                # curve ids, sorted
    cid_keys: list            # str(cid) per curve id
    columns: np.ndarray       # (pants, 3) column of each slot in a row of
                              # curve lengths and a 0.0 for the cusps
    slots: np.ndarray         # (2, pants, 3) the cusp slots, the curve
                              # slots
    first_slot: tuple         # per curve, the (pants, slot) arrays of the
                              # first slot, where check_curve_holonomy reads
    shear_keys: list          # str((p, k)) per arc
    sound: bool               # cusp ids distinct and the graph connected


@lru_cache(maxsize=128)
def _layout(pg: PantsGraph) -> _Layout:
    ends = pg.curve_ends()
    cids = sorted(ends)
    column = {cid: c for c, cid in enumerate(cids)}
    columns = np.array([[column[ident] if kind == "curve" else len(cids)
                         for kind, ident in slots] for slots in pg.pants],
                       dtype=int).reshape(-1, 3)
    first = np.array([min(ends[cid]) for cid in cids],
                     dtype=int).reshape(-1, 2)
    try:
        check_surface(pg, FNCoordinates(dict.fromkeys(cids, 1.0),
                                        dict.fromkeys(cids, 0.0)))
        sound = True
    except ValueError:
        sound = False
    cusp = columns == len(cids)
    return _Layout(cids, [str(cid) for cid in cids], columns,
                   np.stack([cusp, ~cusp]), tuple(first.T),
                   [str((p, k)) for p in range(pg.num_pants)
                    for k in range(3)], sound)


def run_surface(sig: Signature, pg: PantsGraph, fn: FNCoordinates) -> dict:
    """Per-pants pipeline on one surface, as a campaign of one; returns
    its record, or raises the error its scalar route names.  A curve
    that fn gives no length or twist reads as NaN, which check_surface
    rejects."""
    cids = _layout(pg).cids
    lengths = np.array([[fn.lengths.get(c, math.nan) for c in cids]], float)
    twists = np.array([[fn.twists.get(c, math.nan) for c in cids]], float)
    (out,) = _surfaces(sig, pg, lengths, twists, shear_free_params())
    if isinstance(out, Exception):
        raise out
    return out


def _surfaces(sig: Signature, pg: PantsGraph, lengths, twists,
              params) -> list:
    """The record of each surface on pg, or the error it fails with.

    lengths and twists are (surfaces, curves) arrays, a column per curve
    id in _layout order.  The surfaces' length triples are gathered into
    (surfaces, pants, 3) and batched (thick.thick_batch).  A surface
    whose data and graph pass check_surface, whose pants the batch all
    handled and whose curves pass check_curve_holonomy is read from the
    batch alone; every other one takes the scalar route (_scalar).
    """
    layout = _layout(pg)
    count, pants = len(lengths), pg.num_pants
    # check_surface's checks
    bad = ~(((lengths > 0.0) & (lengths < math.inf)
             & np.isfinite(twists)).all(axis=1) & layout.sound)
    triples = np.concatenate([lengths, np.zeros((count, 1))],
                             axis=1)[:, layout.columns]
    batch = thick.thick_batch(triples.reshape(-1, 3), params)
    # the least margin per pants, NaN where a pants has none: reduceat
    # gives an empty row the next row's first margin, and the last row
    # every margin up to the +inf appended
    least = np.where(np.diff(batch.first) > 0, np.minimum.reduceat(
        np.append(batch.margins, math.inf), batch.first[:-1]), math.nan)
    handled = batch.handled.reshape(count, pants)
    hol = batch.hol.reshape(count, pants, 3, 4)
    p, s = layout.first_slot
    fast = ~bad & handled.all(axis=1) & batch.curve_ok.reshape(
        count, pants, 3)[:, p, s].all(axis=1)
    # per surface and pants: the shears, the residuals and the least
    # margin; _scalar writes into them, and so into the batch, which is
    # read no further
    values = (batch.shears.reshape(count, pants, 3),
              batch.residuals.reshape(count, pants, 3),
              least.reshape(count, pants))
    out = {}
    for i in np.flatnonzero(~fast).tolist():
        try:
            if bad[i]:
                check_surface(pg, FNCoordinates(
                    dict(zip(layout.cids, lengths[i].tolist())),
                    dict(zip(layout.cids, twists[i].tolist()))))
            _scalar(layout, triples[i], lengths[i], handled[i], hol[i],
                    params, [v[i] for v in values])
        except Exception as err:   # the surface's error, raised or recorded
            out[i] = err
    good = [i for i in range(count) if i not in out]
    out.update(zip(good, _records(sig, layout, triples[good], lengths[good],
                                  twists[good], [v[good] for v in values])))
    return [out[i] for i in range(count)]


def _scalar(layout, triples, lengths, handled, hol, params, values):
    """Write into values (_surfaces' per-pants values of one surface) those
    of the pants the batch did not handle, from the scalar build_pants and
    pants_kernel.  The surface's length triples, curve lengths, and the
    batch's handled and hol of its pants are its rows of _surfaces'
    arrays.

    The errors come in the order of the scalar path: construction errors
    by pants, then the curve checks by curve id, then kernel errors by
    pants.
    """
    shears, residuals, least = values
    handled = handled.tolist()
    std = [None if done else build_pants(*ls)
           for ls, done in zip(triples.tolist(), handled)]
    pants, slots = (e.tolist() for e in layout.first_slot)
    for cid, length, p, s in zip(layout.cids, lengths.tolist(), pants,
                                 slots):
        check_curve_holonomy(tuple(hol[p, s].tolist()) if handled[p]
                             else std[p].slot_hol[s], cid, length)
    for p, sp in enumerate(std):
        if sp is None:
            continue
        try:
            kern = spiralling.pants_kernel(sp, params)
        except spiralling.DevelopError as err:
            raise type(err)((p, err.edge), err.problem) from err
        shears[p], residuals[p] = kern.shears, kern.residuals
        least[p] = min(kern.margins, default=math.nan)


def _records(sig, layout, triples, lengths, twists, values) -> list:
    """The records of surfaces on one graph that have one, from their
    rows of _surfaces' arrays.

    certified reads the shortness certificate from the floats: every
    curve is at most 2 log(4 area) long and every pants passes
    decomposition.arcs_short, evaluated here for the whole block.
    """
    shears, residuals, least = values
    log4a = math.log(4.0 * area(sig))
    bound = main_bound(sig)
    top = np.abs(shears).max(axis=(1, 2)).tolist()
    # _max of the residuals at the cusp and at the curve slots, 0.0 at
    # none: a residual is an abs, so a 0.0 in the other slots is never
    # larger, and np.max keeps NaN
    cusp, side = np.where(layout.slots, residuals[:, None],
                          0.0).max(axis=(2, 3)).T.tolist()
    # a margin is never NaN (the audit fails it), so NaN is "no margin"
    margin = np.fmin.reduce(least, axis=1).tolist()
    short = decomposition.arcs_short(decomposition.arc_lengths(triples),
                                     log4a)
    certified = ((lengths <= 2.0 * log4a).all(axis=1)
                 & short.all(axis=1)).tolist()
    flat = shears.reshape(len(lengths), len(layout.shear_keys)).tolist()
    fn_lengths, fn_twists = lengths.tolist(), twists.tolist()
    return [{
        "fn": {"lengths": dict(zip(layout.cid_keys, fn_lengths[i])),
               "twists": dict(zip(layout.cid_keys, fn_twists[i]))},
        "shears": dict(zip(layout.shear_keys, flat[i])),
        "max_shear": top[i],
        "bound": bound,
        "ratio": top[i] / bound,
        "certified": certified[i],
        "cusp_residual": cusp[i],
        "spiral_residual": side[i],
        "relations_ok": cusp[i] <= RELATION_TOL and side[i] <= RELATION_TOL,
        "min_margin": None if math.isnan(margin[i]) else margin[i],
        "bound_satisfied": top[i] < bound,
    } for i in range(len(lengths))]


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def assemble(config: dict, records: list, summary: dict) -> dict:
    config = dict(config)
    config["version"] = __version__
    config["hash"] = config_hash(
        {k: v for k, v in config.items() if k != "hash"})
    records = [dict(rec, config_hash=config["hash"], version=__version__)
               for rec in records]
    return {"schema": SCHEMA, "config": config, "records": records,
            "summary": summary}


def to_json(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2) + "\\n", byte for byte.

    json.dumps runs its pure-Python encoder when it indents.  Here the C
    encoder writes the scalars of every container, with the line break
    and indentation of its items as item separator, and the containers
    are joined around them (_encode).  Keys must be strings.
    """
    return _encode(report, "\n") + "\n"


#: the types the C encoder writes as scalars
_SCALARS = frozenset((str, int, float, bool, type(None)))


@lru_cache(maxsize=None)
def _flat(newline: str) -> json.JSONEncoder:
    """The C encoder of the scalars of a container whose items start on
    a line that ends in newline."""
    return json.JSONEncoder(sort_keys=True, separators=("," + newline, ": "))


def _encode(value, newline: str) -> str:
    """value as json.dumps(sort_keys=True, indent=2) writes it on a line
    that ends in newline (a line break and the line's indentation).

    The C encoder writes the items whose values are scalars at once, and
    they are split at the item separator: an encoded string escapes
    every line break, so a line break is only ever a separator.
    """
    is_dict = isinstance(value, dict)
    if not is_dict and not isinstance(value, (list, tuple)):
        return _flat(newline).encode(value)
    if not value:
        return "{}" if is_dict else "[]"
    inner = newline + "  "
    sep = "," + inner
    if set(map(type, value.values() if is_dict else value)) <= _SCALARS:
        body = _flat(inner).encode(value)[1:-1]
    elif is_dict:
        flat = {k: v for k, v in value.items() if type(v) in _SCALARS}
        parts = dict(zip(sorted(flat), _flat(inner).encode(flat)[1:-1].split(
            sep))) if flat else {}
        for key, item in value.items():
            if key not in flat:
                parts[key] = (f"{json.encoder.encode_basestring_ascii(key)}: "
                              f"{_encode(item, inner)}")
        body = sep.join(parts[k] for k in sorted(value))
    else:
        body = sep.join(_encode(v, inner) for v in value)
    return ("{" if is_dict else "[") + inner + body + newline + (
        "}" if is_dict else "]")


def sample_rows(report: dict):
    """Flatten a sampling report into the fixed CSV columns.

    The gn field contains a comma, so it is quoted per CSV convention.
    """
    rows = [CSV_HEADER]
    cfg = report["config"]
    gn = f"\"({cfg['g']},{cfg['n']})\""
    for i, rec in enumerate(report["records"]):
        if rec.get("error"):
            rows.append(f"{i},{gn},{rec['seed']},error,,,,,,")
            continue
        rows.append(
            f"{i},{gn},{rec['seed']},{str(rec['certified']).lower()},"
            f"{rec['max_shear']:.12g},{rec['bound']:.12g},"
            f"{rec['ratio']:.12g},{rec['cusp_residual']:.6g},"
            f"{rec['spiral_residual']:.6g},"
            f"{'' if rec['min_margin'] is None else format(rec['min_margin'], '.6g')}"
        )
    return "\n".join(rows) + "\n"


def run_sample_campaign(sig: Signature, seed: int, count: int,
                        length_range=None, twist_range=(0.0, 1.0)):
    """Seeded sampling campaign; per-sample failures are recorded.

    The samples are drawn a block at a time: block_seeds gives their
    seeds and block_draws their (samples, curves) arrays of lengths and
    twists, as one integer array program each, with the bits of numpy's
    SeedSequence and of sample_fn's draw (surface._draw), their
    reference.  A draw's error does not depend on the seed, so a block
    whose draw fails records it on every sample.  Each block then runs
    as one array program (_surfaces): one batch of its pants, then
    per-surface reductions in numpy.
    """
    params = shear_free_params()
    # every sample lies on the canonical graph of sig
    pg = canonical_pants_graph(sig)
    curves = len(_layout(pg).cids)
    if length_range is None:
        length_range = default_length_range(sig)
    records = []
    for start in range(0, count, _BLOCK):
        seeds = block_seeds(seed, start, min(count, start + _BLOCK) - start)
        block = [{"seed": s} for s in seeds.tolist()]
        records += block
        try:
            drawn = block_draws(seeds, curves, length_range, twist_range)
        except Exception as err:   # the draw's, recorded on every sample
            outs = [err] * len(block)
        else:
            outs = _surfaces(sig, pg, *drawn, params)
        for rec, out in zip(block, outs):
            if isinstance(out, Exception):
                rec["error"] = f"{type(out).__name__}: {out}"
            else:
                rec.update(out)
    good = [r for r in records if not r.get("error")]
    certified = [r for r in good if r["certified"]]
    summary = {
        "samples": count,
        "failures": len(records) - len(good),
        "certified": len(certified),
        "max_ratio_certified": _max((r["ratio"] for r in certified), None),
        "max_ratio_uncertified": _max((r["ratio"] for r in good
                                       if not r["certified"]), None),
        "bound_violations_certified": sum(1 for r in certified
                                          if not r["bound_satisfied"]),
        "worst_cusp_residual": _max((r["cusp_residual"] for r in good),
                                    None),
        "worst_spiral_residual": _max((r["spiral_residual"] for r in good),
                                      None),
        "min_margin": min((r["min_margin"] for r in good
                           if r["min_margin"] is not None), default=None),
    }
    return records, summary


def constants_report(sig: Signature, rho_prime=None) -> dict:
    """Every named constant and the self-audit at one rho'.

    The truncated collar needs 2 sinh(delta3) >= 2 tanh(rho) to be
    defined on every short length, so a rho' below tanh(rho) is rejected
    by name (ValueError), as is one outside (0, rho).
    """
    params = (shear_free_params() if rho_prime is None
              else shear_free_params(rho_prime))
    if 2.0 * math.sinh(params.delta3) < SHORT_CURVE_MAX:
        raise ValueError(f"rho_prime must lie in [tanh(rho), rho) = "
                         f"[{math.tanh(RHO)}, {RHO})")
    tc = topology_constants(sig, params)
    audit = constants_audit(params)
    return {
        "signature": {"g": sig.g, "n": sig.n},
        "rho": params.rho,
        "rho_prime": params.rho_prime,
        "delta1": tc.delta1,
        "delta2": params.delta2,
        "delta3": params.delta3,
        "area": tc.area,
        "loop_bound": tc.R,
        "spike_distance_bound": tc.D,
        "main_bound": tc.B,
        "spike_constants": {f"{a}/{b}": v
                            for (a, b), v in sorted(tc.C_table.items())},
        "audit": audit.as_dict(),
    }
