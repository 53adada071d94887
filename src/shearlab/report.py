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
takes one of two routes, with the same bits; _surfaces(sig, pg, lengths,
twists) runs both, at the rho' of constants.SHEAR_FREE:

* every pants goes first through decomposition.pants_batch(triples),
  which builds and develops all the triples of the block at once in
  numpy, in input order, checks the curve holonomies, evaluates the
  seam-arc closed forms and returns arrays with a row per triple;
* every pants the batch does not handle (a check fails, or a rare
  branch is taken) goes through the scalar pants.build_pants(*triple)
  and spiralling.pants_kernel(sp).  They are the reference of the batch
  and report every failure by name, in the scalar order: construction
  errors by pants, then the curve checks by curve id, then kernel
  errors by pants.

The batch's arrays are reshaped to (samples, pants), the scalar route
writes the values of the pants it builds into them, and they are
reduced per block in numpy: the largest |shear|, the largest residual
over cusp slots and over curve slots, the least margin, and whether
every row of the shortness certificate passes, read without building
the rows from the curve lengths and the batch's seam-arc closed forms
(Batch.arcs), which the scalar route does not compute.  A record holds
these, the curve lengths and twists keyed by curve id and the shears
keyed by arc (pants, seam); a campaign keeps them as each block's columns
(_Rows).  run_surface is a campaign of one surface, and it and
run_sample_campaign return records as dicts.  No global holonomy is
built.  Reports are deterministic: records come in sample order and
contain no wall-clock data (timings go to a side channel).  to_json
writes json.dumps' indented bytes with the C encoder.  sample_json
writes the same bytes for a sampling report straight from the
columns, with no dict per record: one text template per pants graph,
and the values' reprs joined into it a block at a time.  sample_rows
writes the CSV rows and _summary the summary from the same columns.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import __version__, decomposition, spiralling
from .constants import (RHO, SHEAR_FREE, SHORT_CURVE_MAX, Signature, area,
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


@dataclass(slots=True)
class _Rows:
    """The values of the records of a block's surfaces that have one, a
    row per surface, in sample order (_surfaces)."""

    at: list                  # the surfaces' indices in the block
    lengths: np.ndarray       # (rows, curves) curve lengths and twists, a
    twists: np.ndarray        # column per curve id in _layout order
    shears: np.ndarray        # (rows, arcs) in shear_keys order
    top: np.ndarray           # the largest |shear|
    ratio: np.ndarray         # top / main_bound
    satisfied: np.ndarray     # top < main_bound
    certified: np.ndarray
    cusp: np.ndarray          # the largest residual at a cusp slot and at
    side: np.ndarray          # a curve slot, 0.0 at none
    relations_ok: np.ndarray
    margin: np.ndarray        # the least margin, NaN at none


def run_surface(sig: Signature, pg: PantsGraph, fn: FNCoordinates) -> dict:
    """Per-pants pipeline on one surface, as a campaign of one; returns
    its record, or raises the error its scalar route names.  A curve
    that fn gives no length or twist reads as NaN, which check_surface
    rejects."""
    layout = _layout(pg)
    lengths = np.array([[fn.lengths.get(c, math.nan) for c in layout.cids]],
                       float)
    twists = np.array([[fn.twists.get(c, math.nan) for c in layout.cids]],
                      float)
    errors, rows = _surfaces(sig, pg, lengths, twists)
    if errors:
        raise errors[0]
    return _records(sig, layout, rows)[0]


def _surfaces(sig: Signature, pg: PantsGraph, lengths, twists):
    """The error of each surface on pg that fails, by index, and the rows
    of the others (_Rows).

    lengths and twists are (surfaces, curves) arrays, a column per curve
    id in _layout order.  The surfaces' length triples are gathered into
    (surfaces, pants, 3) and batched (decomposition.pants_batch).  A surface
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
    batch = decomposition.pants_batch(triples.reshape(-1, 3))
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
    errors = {}
    for i in np.flatnonzero(~fast).tolist():
        try:
            if bad[i]:
                check_surface(pg, FNCoordinates(
                    dict(zip(layout.cids, lengths[i].tolist())),
                    dict(zip(layout.cids, twists[i].tolist()))))
            _scalar(layout, triples[i], lengths[i], handled[i], hol[i],
                    [v[i] for v in values])
        except Exception as err:   # the surface's error, raised or recorded
            errors[i] = err
    at = [i for i in range(count) if i not in errors]
    return errors, _rows(sig, layout, at,
                         batch.arcs.reshape(count, pants, 3, 3)[at],
                         lengths[at], twists[at], [v[at] for v in values])


def _scalar(layout, triples, lengths, handled, hol, values):
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
            kern = spiralling.pants_kernel(sp)
        except spiralling.DevelopError as err:
            raise type(err)((p, err.edge), err.problem) from err
        shears[p], residuals[p] = kern.shears, kern.residuals
        least[p] = min(kern.margins, default=math.nan)


def _rows(sig, layout, at, arcs, lengths, twists, values) -> _Rows:
    """The rows of the surfaces at (their indices in the block), from
    their rows of _surfaces' arrays and of the batch's arcs.

    certified reads the shortness certificate from the floats: every
    curve is at most 2 log(4 area) long and every pants passes
    decomposition.arcs_short, evaluated here for the whole block.
    """
    shears, residuals, least = values
    log4a = math.log(4.0 * area(sig))
    bound = main_bound(sig)
    top = np.abs(shears).max(axis=(1, 2))
    # _max of the residuals at the cusp and at the curve slots, 0.0 at
    # none: a residual is an abs, so a 0.0 in the other slots is never
    # larger, and np.max keeps NaN
    cusp, side = np.where(layout.slots, residuals[:, None],
                          0.0).max(axis=(2, 3)).T
    short = decomposition.arcs_short(arcs, log4a)
    return _Rows(
        at, lengths, twists,
        shears.reshape(len(at), len(layout.shear_keys)), top, top / bound,
        top < bound,
        (lengths <= 2.0 * log4a).all(axis=1) & short.all(axis=1),
        cusp, side, (cusp <= RELATION_TOL) & (side <= RELATION_TOL),
        # a margin is never NaN (the audit fails it), so NaN is "no margin"
        np.fmin.reduce(least, axis=1))


def _records(sig, layout, rows: _Rows) -> list:
    """The records of rows as dicts, without their seeds: the view of
    run_surface and run_sample_campaign."""
    bound = main_bound(sig)
    keys = layout.cid_keys
    return [{
        "fn": {"lengths": dict(zip(keys, ls)), "twists": dict(zip(keys, ts))},
        "shears": dict(zip(layout.shear_keys, shears)),
        "max_shear": top,
        "bound": bound,
        "ratio": ratio,
        "certified": certified,
        "cusp_residual": cusp,
        "spiral_residual": side,
        "relations_ok": ok,
        "min_margin": None if math.isnan(margin) else margin,
        "bound_satisfied": satisfied,
    } for ls, ts, shears, top, ratio, satisfied, certified, cusp, side, ok,
        margin in zip(*(column.tolist() for column in (
            rows.lengths, rows.twists, rows.shears, rows.top, rows.ratio,
            rows.satisfied, rows.certified, rows.cusp, rows.side,
            rows.relations_ok, rows.margin)))]


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _stamped(config: dict) -> dict:
    """config with the version and the hash of the rest."""
    config = dict(config)
    config["version"] = __version__
    config["hash"] = config_hash(
        {k: v for k, v in config.items() if k != "hash"})
    return config


def assemble(config: dict, records: list, summary: dict) -> dict:
    config = _stamped(config)
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
        body = _grid(value, inner) or sep.join(_encode(v, inner)
                                               for v in value)
    return ("{" if is_dict else "[") + inner + body + newline + (
        "}" if is_dict else "]")


def _grid(value, inner: str) -> str:
    """The items of value, a list of lists of one length (at least 1) of
    scalars, such as optimize's flip trail, as _encode joins them on
    lines that end in inner; "" for any other value.

    The C encoder writes every scalar at once, split at its item
    separator as in _encode, and one % regroups them.
    """
    if type(value) is not list or {type(v) for v in value} != {list}:
        return ""
    width = len(value[0])
    if not width or any(len(v) != width for v in value):
        return ""
    items = [x for v in value for x in v]
    if not set(map(type, items)) <= _SCALARS:
        return ""
    deeper = inner + "  "
    row = "[" + deeper + ("," + deeper).join(["%s"] * width) + inner + "]"
    return ("," + inner).join([row] * len(value)) % tuple(
        _flat(deeper).encode(items)[1:-1].split("," + deeper))


@dataclass(slots=True)
class _Block:
    """The samples of one block of a campaign."""

    seeds: list               # the samples' seeds
    errors: dict              # the error line of each failed sample, by
                              # index in the block
    rows: _Rows | None        # those of the others; None if the draw failed


@dataclass(slots=True)
class Campaign:
    """A seeded sampling campaign, kept as its blocks' columns."""

    sig: Signature
    pg: PantsGraph            # the canonical pants graph of sig
    blocks: list              # _Block per block, in sample order
    summary: dict


def sample_campaign(sig: Signature, seed: int, count: int,
                    length_range=None, twist_range=(0.0, 1.0)) -> Campaign:
    """Seeded sampling campaign; per-sample failures are recorded.

    The samples are drawn a block at a time: block_seeds gives their
    seeds, an integer array program with the bits of numpy's
    SeedSequence, and block_draws their (samples, curves) arrays of
    lengths and twists from one Philox re-keyed per sample, with the
    bits of numpy's Generator keyed by each seed.  A draw's
    error does not depend on the seed, so a block whose draw fails
    records it on every sample.  Each block then runs as one array
    program (_surfaces): one batch of its pants, which takes each
    function of a single length once per distinct length, then
    per-surface reductions in numpy, kept as columns (_Rows).
    """
    # every sample lies on the canonical graph of sig
    pg = canonical_pants_graph(sig)
    curves = len(_layout(pg).cids)
    if length_range is None:
        length_range = default_length_range(sig)
    blocks = []
    for start in range(0, count, _BLOCK):
        seeds = block_seeds(seed, start, min(count, start + _BLOCK) - start)
        try:
            drawn = block_draws(seeds, curves, length_range, twist_range)
        except Exception as err:   # the draw's, recorded on every sample
            errors, rows = dict.fromkeys(range(len(seeds)), err), None
        else:
            errors, rows = _surfaces(sig, pg, *drawn)
        blocks.append(_Block(seeds.tolist(), {
            i: f"{type(err).__name__}: {err}" for i, err in errors.items()},
            rows))
    return Campaign(sig, pg, blocks, _summary(count, blocks))


def _summary(count: int, blocks: list) -> dict:
    """The summary of a campaign of count samples, from its blocks'
    columns."""
    rows = [block.rows for block in blocks if block.rows is not None]
    ratio, certified, satisfied, cusp, side, margin = (
        [v for r in rows for v in getattr(r, name).tolist()]
        for name in ("ratio", "certified", "satisfied", "cusp", "side",
                     "margin"))
    return {
        "samples": count,
        "failures": count - len(ratio),
        "certified": sum(certified),
        "max_ratio_certified": _max(itertools.compress(ratio, certified),
                                    None),
        "max_ratio_uncertified": _max((r for r, c in zip(ratio, certified)
                                       if not c), None),
        "bound_violations_certified": sum(
            c and not s for c, s in zip(certified, satisfied)),
        "worst_cusp_residual": _max(cusp, None),
        "worst_spiral_residual": _max(side, None),
        "min_margin": min((m for m in margin if not math.isnan(m)),
                          default=None),
    }


def run_sample_campaign(sig: Signature, seed: int, count: int,
                        length_range=None, twist_range=(0.0, 1.0)):
    """sample_campaign's records as dicts, in sample order, and its
    summary.  A failed sample's record is its seed and error line."""
    campaign = sample_campaign(sig, seed, count, length_range, twist_range)
    layout = _layout(campaign.pg)
    records = []
    for block in campaign.blocks:
        rows = block.rows
        good = {} if rows is None else dict(zip(
            rows.at, _records(sig, layout, rows)))
        records += [{"seed": s, "error": block.errors[i]}
                    if i in block.errors else {"seed": s, **good[i]}
                    for i, s in enumerate(block.seeds)]
    return records, campaign.summary


#: a value's place in a report template: the encoded string of _MARK and
#: the value's number or name.  No key or fixed value of a template holds
#: the character, so only the markers match.
_MARK = "\x00"
_MARKS = re.compile(r'"\\u0000(\d+)"')

#: the record keys of the bool and float values of a sampling record, in
#: the order of _values' columns
_SCALAR_KEYS = ("bound_satisfied", "certified", "relations_ok",
                "cusp_residual", "max_shear", "min_margin", "ratio",
                "spiral_residual")

#: between two records of a report, as to_json writes them
_SEP = ",\n    "

_BOOLS = np.array(["false", "true"], dtype=object)

#: the encoder's spelling of each non-finite float repr
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@lru_cache(maxsize=128)
def _template(pg: PantsGraph) -> str:
    """A sampling record of a surface on pg as to_json writes it in a
    report, with a marker for each value: the columns of _values by
    number (the bools and floats of _SCALAR_KEYS, the curve lengths and
    twists, the shears, the seed), and bound, config_hash and version by
    name.  The keys come in JSON's string order ("10" before "2")."""
    layout = _layout(pg)
    marks = (f"{_MARK}{j}" for j in itertools.count())
    # zip stops at its first argument's end without drawing a mark
    record = dict(zip(_SCALAR_KEYS, marks))
    record["fn"] = {"lengths": dict(zip(layout.cid_keys, marks)),
                    "twists": dict(zip(layout.cid_keys, marks))}
    record["shears"] = dict(zip(layout.shear_keys, marks))
    record["seed"] = next(marks)
    record.update((key, _MARK + key)
                  for key in ("bound", "config_hash", "version"))
    return _encode(record, "\n    ")


def _values(rows: _Rows, seeds: list) -> np.ndarray:
    """The JSON text of the values of rows and their seeds, as an object
    array with a row per record and a column per numbered marker of
    _template.  A float is written as its repr, or as the encoder's NaN,
    Infinity and -Infinity; a missing margin is null."""
    floats = np.column_stack((rows.cusp, rows.top, rows.margin, rows.ratio,
                              rows.side, rows.lengths, rows.twists,
                              rows.shears))
    text = np.array(list(map(float.__repr__, floats.ravel().tolist())),
                    dtype=object).reshape(floats.shape)
    odd = ~np.isfinite(floats)
    if odd.any():
        text[odd] = [_NON_FINITE[t] for t in text[odd].tolist()]
    text[np.isnan(rows.margin), 2] = "null"    # no min_margin
    flags = _BOOLS[np.column_stack((rows.satisfied, rows.certified,
                                    rows.relations_ok)).astype(np.intp)]
    return np.concatenate((flags, text, np.array(
        list(map(str, seeds)), dtype=object)[:, None]), axis=1)


def _block_text(block: _Block, literal: list, order: list,
                stamp: dict) -> str:
    """The records of a block as to_json writes them in a report, each
    followed by _SEP: the template's literal text around each record's
    values, in the template's order of markers, and an error record
    written by _encode."""
    cells = np.empty((len(block.seeds), 2 * len(order) + 2), dtype=object)
    cells[:, 0:-1:2] = literal
    cells[:, -1] = _SEP
    rows = block.rows
    if rows is not None:
        cells[rows.at, 1:-1:2] = _values(
            rows, [block.seeds[i] for i in rows.at])[:, order]
    for i, error in block.errors.items():
        cells[i, :-1] = ""
        cells[i, 0] = _encode(dict(stamp, seed=block.seeds[i], error=error),
                              "\n    ")
    return "".join(cells.ravel().tolist())


def sample_json(config: dict, campaign: Campaign) -> str:
    """to_json(assemble(config, records, summary)) of the campaign's
    records (run_sample_campaign's) and summary, byte for byte, written
    from its blocks' columns without a dict per record: the record
    template of its pants graph (_template) is filled once with the
    bound, config hash and version, and each block is one join of its
    text and the block's values (_block_text)."""
    config = _stamped(config)
    stamp = {"config_hash": config["hash"], "version": __version__}
    text = _template(campaign.pg)
    for key, value in dict(stamp, bound=main_bound(campaign.sig)).items():
        text = text.replace(json.dumps(_MARK + key), json.dumps(value))
    pieces = _MARKS.split(text)
    literal, order = pieces[0::2], list(map(int, pieces[1::2]))
    records = "".join(_block_text(block, literal, order, stamp)
                      for block in campaign.blocks)
    head, _, tail = _MARKS.split(_encode(
        {"config": config, "records": _MARK + "0", "schema": SCHEMA,
         "summary": campaign.summary}, "\n"))
    return head + ("[\n    " + records[:-len(_SEP)] + "\n  ]" if records
                   else "[]") + tail + "\n"


def sample_rows(campaign: Campaign) -> str:
    """The campaign's records in the fixed CSV columns, from its blocks'
    columns.

    The gn field contains a comma, so it is quoted per CSV convention.
    """
    gn = f"\"({campaign.sig.g},{campaign.sig.n})\""
    bound = f"{main_bound(campaign.sig):.12g}"
    lines = [CSV_HEADER]
    for block in campaign.blocks:
        start = len(lines) - 1
        cells = [f"{i},{gn},{s},error,,,,,,"
                 for i, s in enumerate(block.seeds, start)]
        rows = block.rows
        if rows is not None:
            for i, certified, top, ratio, cusp, side, margin in zip(
                    rows.at, *(column.tolist() for column in (
                        rows.certified, rows.top, rows.ratio, rows.cusp,
                        rows.side, rows.margin))):
                cells[i] = (
                    f"{start + i},{gn},{block.seeds[i]},"
                    f"{str(certified).lower()},{top:.12g},{bound},"
                    f"{ratio:.12g},{cusp:.6g},{side:.6g},"
                    f"{'' if math.isnan(margin) else format(margin, '.6g')}")
        lines += cells
    return "\n".join(lines) + "\n"


def constants_report(sig: Signature, rho_prime=None) -> dict:
    """Every named constant and the self-audit at one rho'.

    The truncated collar needs 2 sinh(delta3) >= 2 tanh(rho) to be
    defined on every short length, so a rho' below tanh(rho) is rejected
    by name (ValueError), as is one outside (0, rho).
    """
    params = SHEAR_FREE if rho_prime is None else shear_free_params(rho_prime)
    if 2.0 * math.sinh(params.delta3) < SHORT_CURVE_MAX:
        raise ValueError(f"rho_prime must lie in [tanh(rho), rho) = "
                         f"[{SHORT_CURVE_MAX / 2.0}, {RHO})")
    # the audit first: it runs the lru-cached grid scan, which
    # topology_constants' spike table reads too
    audit = constants_audit(params)
    tc = topology_constants(sig, params)
    return {
        "signature": {"g": sig.g, "n": sig.n},
        "rho": RHO,
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
