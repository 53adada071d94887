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
keyed by arc (pants, seam); its bool and float fields are one table
(_FIELDS), each the _Rows column named by its record key.  A campaign
(Campaign) is one set of record columns: every sample's seed, the error
line of each failed sample by its index, and the rows (_Rows) of the
others, kept per block with the index of the block's first sample.
run_surface is a campaign of one surface, and it and
run_sample_campaign return records as dicts.
No global holonomy is built.  Reports are deterministic: records come
in sample order and contain no wall-clock data (timings go to a side
channel).  to_json writes json.dumps' indented bytes, every scalar of
a container spelled at once by _spell: one orjson call for the
numbers, whose shortest round-trip digits are repr's, and literal
fix-ups to repr's spelling.  sample_json writes the same bytes for a
sampling report straight from the columns, with no dict per record:
one text template per pants graph, and every value spelled by one
_spell call and joined into it.  sample_rows writes the CSV rows and
_summary the summary from the same columns.
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
import orjson

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
    max_shear: np.ndarray     # the largest |shear|
    ratio: np.ndarray         # max_shear / main_bound
    bound_satisfied: np.ndarray   # max_shear < main_bound
    certified: np.ndarray
    cusp_residual: np.ndarray     # the largest residual at a cusp slot and
    spiral_residual: np.ndarray   # at a curve slot, 0.0 at none
    relations_ok: np.ndarray
    min_margin: np.ndarray    # the least margin, NaN at none


#: The one table of a record's bool and float fields, in JSON's key order:
#: each is the slot of its _Rows column, named by the field's record key.
#: _records, _template and _values read the fields through it.
_FIELDS = (_Rows.bound_satisfied, _Rows.certified, _Rows.cusp_residual,
           _Rows.max_shear, _Rows.min_margin, _Rows.ratio,
           _Rows.relations_ok, _Rows.spiral_residual)


def _columns(rows: _Rows) -> list:
    """The columns of _FIELDS in rows, as object arrays of Python bools
    and floats; a NaN margin ("no margin") is None, JSON's null."""
    columns = [np.asarray(field.__get__(rows), dtype=object)
               for field in _FIELDS]
    columns[_FIELDS.index(_Rows.min_margin)][np.isnan(rows.min_margin)] = None
    return columns


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
    # the largest residual at the cusp and at the curve slots, 0.0 at
    # none: a residual is an abs, so a 0.0 in the other slots is never
    # larger, and np.max keeps NaN
    cusp, side = np.where(layout.slots, residuals[:, None],
                          0.0).max(axis=(2, 3)).T
    short = decomposition.arcs_short(arcs, log4a)
    return _Rows(
        at=at, lengths=lengths, twists=twists,
        shears=shears.reshape(len(at), len(layout.shear_keys)),
        max_shear=top, ratio=top / bound, bound_satisfied=top < bound,
        certified=(lengths <= 2.0 * log4a).all(axis=1) & short.all(axis=1),
        cusp_residual=cusp, spiral_residual=side,
        relations_ok=(cusp <= RELATION_TOL) & (side <= RELATION_TOL),
        # a margin is never NaN (the audit fails it), so NaN is "no margin"
        min_margin=np.fmin.reduce(least, axis=1))


def _records(sig, layout, rows: _Rows) -> list:
    """The records of rows as dicts, without their seeds: the view of
    run_surface and run_sample_campaign."""
    bound = main_bound(sig)
    keys = layout.cid_keys
    return [{
        "fn": {"lengths": dict(zip(keys, ls)), "twists": dict(zip(keys, ts))},
        "shears": dict(zip(layout.shear_keys, shears)),
        "bound": bound,
        **{field.__name__: v for field, v in zip(_FIELDS, values)},
    } for ls, ts, shears, values in zip(
        rows.lengths.tolist(), rows.twists.tolist(), rows.shears.tolist(),
        zip(*(column.tolist() for column in _columns(rows))))]


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

    json.dumps runs its pure-Python encoder when it indents, and spells
    each float with float.__repr__.  Here _spell writes the scalars of
    every container at once, and the containers are joined around them
    with the line break and indentation of their items (_encode).  Keys
    must be strings.
    """
    return _encode(report, "\n") + "\n"


#: the scalars of JSON, which _spell writes
_SCALARS = frozenset((str, int, float, bool, type(None)))

#: where orjson's spelling of a number differs from repr's, each found by
#: a literal prefix: a positive exponent without its sign, a negative one
#: of one digit without its leading zero, and a number in [1e-5, 1e-4)
#: written fixed, 0.0000d..., which the look-behind takes only at the
#: start of a number (not in 120.00006)
_EXP_SIGN = re.compile(r"e(\d)")
_EXP_PAD = re.compile(r"e-(\d)(?!\d)")
_FIXED = re.compile(r"0\.0000(?<=[-,\[]0\.0000)(\d)(\d*)")


def _unfixed(match) -> str:
    """repr's spelling of a number that _FIXED matched."""
    lead, rest = match.groups()
    return f"{lead}.{rest}e-05" if rest else f"{lead}e-05"


def _spell(values: list) -> list:
    """The JSON text of each scalar of values, a flat list, as json.dumps
    writes it.

    One orjson.dumps call writes every number with the shortest digits
    that round-trip (Ryu), the digits of repr, and three fix-ups give
    them repr's spelling.  orjson writes None, NaN and +-inf as null.  A
    string (json escapes it to ASCII, orjson does not) or an integer
    beyond 64 bits (orjson raises) makes a second call with each of them
    as None.  Each null item is then spelled from its value (_null).
    """
    if not values:
        return []
    try:
        raw = orjson.dumps(values)
    except orjson.JSONEncodeError:      # an integer beyond 64 bits
        raw = None
    if raw is None or b'"' in raw:
        raw = orjson.dumps([
            None if type(v) is str or type(v) is int and not (
                -(1 << 63) <= v < 1 << 64) else v for v in values])
    text = _EXP_PAD.sub(r"e-0\1", _EXP_SIGN.sub(r"e+\1", raw.decode()))
    if "0.0000" in text:          # str.find scans faster than re
        text = _FIXED.sub(_unfixed, text)
    items = text[1:-1].split(",")
    if "n" in text:               # only null has an n
        for i in [i for i, item in enumerate(items) if item == "null"]:
            items[i] = _null(values[i])
    return items


def _null(value) -> str:
    """The JSON text of a scalar that _spell's orjson call writes as null:
    None, NaN, +-inf, a string or an integer beyond 64 bits."""
    if type(value) is float:
        return ("NaN" if value != value else
                "Infinity" if value > 0 else "-Infinity")
    if type(value) is str:
        return json.encoder.encode_basestring_ascii(value)
    return "null" if value is None else int.__repr__(value)


def _encode(value, newline: str) -> str:
    """value as json.dumps(sort_keys=True, indent=2) writes it on a line
    that ends in newline (a line break and the line's indentation).

    The scalars of a container are spelled at once (_spell), and a
    container item is written by _encode on the next line.
    """
    is_dict = isinstance(value, dict)
    if not is_dict and not isinstance(value, (list, tuple)):
        return _spell([value])[0]
    if not value:
        return "{}" if is_dict else "[]"
    inner = newline + "  "
    sep = "," + inner
    if is_dict:
        keys = sorted(value)
        flat = [k for k in keys if type(value[k]) in _SCALARS]
        texts = dict(zip(flat, _spell([value[k] for k in flat])))
        body = sep.join(f"{json.encoder.encode_basestring_ascii(k)}: "
                        f"{texts.get(k) or _encode(value[k], inner)}"
                        for k in keys)
    elif set(map(type, value)) <= _SCALARS:
        body = sep.join(_spell(list(value)))
    else:
        body = _grid(value, inner) or sep.join(_encode(v, inner)
                                               for v in value)
    return ("{" if is_dict else "[") + inner + body + newline + (
        "}" if is_dict else "]")


def _grid(value, inner: str) -> str:
    """The items of value, a list of lists of one length (at least 1) of
    scalars, such as optimize's flip trail, as _encode joins them on
    lines that end in inner; "" for any other value.

    _spell writes every scalar at once, and one % regroups them.
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
    return ("," + inner).join([row] * len(value)) % tuple(_spell(items))


@dataclass(slots=True)
class Campaign:
    """A seeded sampling campaign, kept as its record columns."""

    sig: Signature
    pg: PantsGraph            # the canonical pants graph of sig
    seeds: list               # every sample's seed, in sample order
    errors: dict              # the error line of each failed sample, by
                              # sample index
    rows: list                # (start, _Rows) per block that drew: the
                              # index of its first sample, and the rows
                              # of its samples that did not fail
    summary: dict


def sample_campaign(sig: Signature, seed: int, count: int, length_range,
                    twist_range=(0.0, 1.0)) -> Campaign:
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
    per-surface reductions in numpy, kept as columns (_Rows) with the
    index of the block's first sample.
    """
    # every sample lies on the canonical graph of sig
    pg = canonical_pants_graph(sig)
    curves = len(_layout(pg).cids)
    if length_range is None:
        length_range = default_length_range(sig)
    seeds, errors, rows = [], {}, []
    for start in range(0, count, _BLOCK):
        block = block_seeds(seed, start, min(count, start + _BLOCK) - start)
        seeds += block.tolist()
        try:
            drawn = block_draws(block, curves, length_range, twist_range)
        except Exception as err:   # the draw's, recorded on every sample
            failed = dict.fromkeys(range(len(block)), err)
        else:
            failed, done = _surfaces(sig, pg, *drawn)
            rows.append((start, done))
        errors.update((start + i, f"{type(err).__name__}: {err}")
                      for i, err in failed.items())
    return Campaign(sig, pg, seeds, errors, rows, _summary(count, rows))


def _summary(count: int, rows: list) -> dict:
    """The summary of a campaign of count samples, from its rows
    (Campaign.rows), reduced in numpy over their columns joined: its max
    keeps a NaN wherever it lies."""
    # the columns of every block joined, empty when no block drew
    ratio, certified, satisfied, cusp, side, margin = map(np.concatenate, zip(
        *[(r.ratio, r.certified, r.bound_satisfied, r.cusp_residual,
           r.spiral_residual, r.min_margin) for _, r in rows]
        or [[np.empty(0, bool)] * 6]))
    margin = margin[~np.isnan(margin)]
    top_certified, top_uncertified, worst_cusp, worst_side = (
        values.max().item() if values.size else None
        for values in (ratio[certified], ratio[~certified], cusp, side))
    return {
        "samples": count,
        "failures": count - ratio.size,
        "certified": int(certified.sum()),
        "max_ratio_certified": top_certified,
        "max_ratio_uncertified": top_uncertified,
        "bound_violations_certified": int((certified & ~satisfied).sum()),
        "worst_cusp_residual": worst_cusp,
        "worst_spiral_residual": worst_side,
        "min_margin": margin.min().item() if margin.size else None,
    }


def run_sample_campaign(sig: Signature, seed: int, count: int,
                        length_range=None, twist_range=(0.0, 1.0)):
    """sample_campaign's records as dicts, in sample order, and its
    summary.  A failed sample's record is its seed and error line."""
    campaign = sample_campaign(sig, seed, count, length_range, twist_range)
    layout = _layout(campaign.pg)
    seeds = campaign.seeds
    records = {i: {"seed": seeds[i], "error": error}
               for i, error in campaign.errors.items()}
    for start, rows in campaign.rows:
        records.update((start + i, {"seed": seeds[start + i], **record})
                       for i, record in zip(rows.at,
                                            _records(sig, layout, rows)))
    return [records[i] for i in range(count)], campaign.summary


#: a value's place in a report template: the encoded string of _MARK and
#: the value's number or name.  No key or fixed value of a template holds
#: the character, so only the markers match.
_MARK = "\x00"
_MARKS = re.compile(r'"\\u0000(\d+)"')

#: between two records of a report, as to_json writes them
_SEP = ",\n    "


def _template(pg: PantsGraph) -> str:
    """A sampling record of a surface on pg as to_json writes it in a
    report, with a marker for each value: the columns of _values by
    number (the fields of _FIELDS, the curve lengths and twists, the
    shears, the seed), and bound, config_hash and version by name.  The
    keys come in JSON's string order ("10" before "2")."""
    layout = _layout(pg)
    marks = (f"{_MARK}{j}" for j in itertools.count())
    # zip stops at its first argument's end without drawing a mark
    record = {field.__name__: mark for field, mark in zip(_FIELDS, marks)}
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
    _template, from one _spell call."""
    values = np.column_stack(_columns(rows) + [
        np.asarray(column, dtype=object)
        for column in (rows.lengths, rows.twists, rows.shears, seeds)])
    return np.array(_spell(values.ravel().tolist()),
                    dtype=object).reshape(values.shape)


def _records_text(campaign: Campaign, literal: list, order: list,
                  stamp: dict) -> str:
    """The campaign's records as to_json writes them in a report, each
    followed by _SEP: the template's literal text around each record's
    values, in the template's order of markers, and an error record
    written by _encode."""
    seeds = campaign.seeds
    cells = np.empty((len(seeds), 2 * len(order) + 2), dtype=object)
    cells[:, 0:-1:2] = literal
    cells[:, -1] = _SEP
    for start, rows in campaign.rows:
        at = [start + i for i in rows.at]
        cells[at, 1:-1:2] = _values(rows, [seeds[i] for i in at])[:, order]
    for i, error in campaign.errors.items():
        cells[i, :-1] = ""
        cells[i, 0] = _encode(dict(stamp, seed=seeds[i], error=error),
                              "\n    ")
    return "".join(cells.ravel().tolist())


def sample_json(config: dict, campaign: Campaign) -> str:
    """to_json(assemble(config, records, summary)) of the campaign's
    records (run_sample_campaign's) and summary, byte for byte, written
    from its record columns without a dict per record: the record
    template of its pants graph (_template) is filled once with the
    bound, config hash and version, and the records are one join of its
    text and their values (_records_text)."""
    config = _stamped(config)
    stamp = {"config_hash": config["hash"], "version": __version__}
    text = _template(campaign.pg)
    for key, value in dict(stamp, bound=main_bound(campaign.sig)).items():
        text = text.replace(*_spell([_MARK + key, value]))
    pieces = _MARKS.split(text)
    literal, order = pieces[0::2], list(map(int, pieces[1::2]))
    records = _records_text(campaign, literal, order, stamp)
    head, _, tail = _MARKS.split(_encode(
        {"config": config, "records": _MARK + "0", "schema": SCHEMA,
         "summary": campaign.summary}, "\n"))
    return head + ("[\n    " + records[:-len(_SEP)] + "\n  ]" if records
                   else "[]") + tail + "\n"


def sample_rows(campaign: Campaign) -> str:
    """The campaign's records in the fixed CSV columns, from its record
    columns.

    The gn field contains a comma, so it is quoted per CSV convention.
    """
    gn = f"\"({campaign.sig.g},{campaign.sig.n})\""
    bound = f"{main_bound(campaign.sig):.12g}"
    seeds = campaign.seeds
    lines = [f"{i},{gn},{s},error,,,,,," for i, s in enumerate(seeds)]
    for start, rows in campaign.rows:
        for i, certified, top, ratio, cusp, side, margin in zip(
                [start + i for i in rows.at], *(column.tolist() for column in (
                    rows.certified, rows.max_shear, rows.ratio,
                    rows.cusp_residual, rows.spiral_residual,
                    rows.min_margin))):
            lines[i] = (
                f"{i},{gn},{seeds[i]},"
                f"{str(certified).lower()},{top:.12g},{bound},"
                f"{ratio:.12g},{cusp:.6g},{side:.6g},"
                f"{'' if math.isnan(margin) else format(margin, '.6g')}")
    return "\n".join([CSV_HEADER] + lines) + "\n"


def constants_report(sig: Signature, rho_prime=None) -> dict:
    """Every named constant and the self-audit at one rho'.

    The truncated collar needs 2 sinh(delta3) >= 2 tanh(rho) to be
    defined on every short length, so the accepted rho' are those of
    [tanh(rho), rho); every other one (NaN and +-inf included) is
    rejected with that range (ValueError).
    """
    try:
        params = (SHEAR_FREE if rho_prime is None
                  else shear_free_params(rho_prime))
    except ValueError:              # outside (0, rho)
        params = None
    if params is None or 2.0 * math.sinh(params.delta3) < SHORT_CURVE_MAX:
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
