"""End-to-end pipeline runs and machine-readable reports.

A single surface run is a loop over pants.  Each pants is built in
standard position from its boundary-length triple and developed once in
its own frame: six spiral corners, then per arc the shear and the
shear-point margins, and per slot the residual of its relation (the two
arc-ends at a slot sum to 0 at a cusp and to the curve's length at a
glued slot).  A pants takes one of two routes, with the same bits:

* every finite pants, cusped and thin ones included, goes first through
  thick.thick_batch, which builds and develops all the distinct triples
  of a block of samples at once in numpy, and measures their seam arcs;
* every pants the batch does not handle (a check fails, or a rare
  branch is taken) goes through the scalar pants.build_pants,
  spiralling.pants_kernel and decomposition.arc_lengths.  They are the
  reference of the batch and report every failure by name.

The raw and truncated arc lengths are closed forms in the length triple
(decomposition.arc_lengths); the record reads from them, and from the
curve lengths, whether every row of the shortness certificate passes,
without building the rows (decomposition.arc_rows, curve_rows).  The
record is put together directly from these: the shears keyed by arc
(pants, seam), the largest residual over cusp slots and over curve
slots, shortness certification and the audit minimum.  No global
holonomy is built.
Reports are deterministic: records are assembled in sample order and
contain no wall-clock data (timings go to a side channel).
"""

from __future__ import annotations

import hashlib
import json
import math

from . import decomposition, spiralling, thick
from .constants import (RHO, SHORT_CURVE_MAX, Signature, area,
                        constants_audit, main_bound, shear_free_params,
                        topology_constants)
from .geom import RELATION_TOL
from .pants import build_pants
from .surface import (DISCONNECTED, FNCoordinates, PantsGraph,
                      check_curve_holonomy, check_surface, sample_fn,
                      sample_seed, slot_lengths, validate)

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

    Raises ValueError for a malformed slot, a curve without an fn row, or
    a pants graph that contradicts the declared signature (the first
    problem surface.validate names).
    """
    sig = Signature(int(data["signature"]["g"]), int(data["signature"]["n"]))
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
        lengths[row["curve"]] = float(row["length"])
        twists[row["curve"]] = float(row.get("twist", 0.0))
    # a disconnected gluing graph is left to check_surface, which fails it
    # as a geometry invariant
    problems = [p for p in validate(pg, sig) if p != DISCONNECTED]
    if problems:
        raise ValueError(problems[0])
    for cid in pg.curve_ends():
        if cid not in lengths:
            raise ValueError(f"curve {cid} has no fn row")
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


def run_surface(sig: Signature, pg: PantsGraph, fn: FNCoordinates,
                batched=None, triples=None) -> dict:
    """Per-pants pipeline on one surface; returns the per-surface record.

    batched maps length triples to the batch's BatchPants
    (thick.thick_batch), and triples are the surface's length triples
    (surface.slot_lengths) per pants; when they are not given, they are
    computed, and the surface's own triples batched, here.  Every pants
    the batch did not handle is built and developed by the scalar
    build_pants and pants_kernel, and its arcs measured by
    decomposition.arc_lengths.  The error order is that of the scalar
    path: construction errors by pants, then the curve checks by curve
    id, then kernel errors by pants.
    """
    ends = check_surface(pg, fn)
    params = shear_free_params()
    if triples is None:
        triples = [slot_lengths(pg, fn, p) for p in range(pg.num_pants)]
    if batched is None:
        batched = thick.thick_batch(triples, params)
    std = [batched.get(ls) or build_pants(*ls) for ls in triples]
    curves = {cid: fn.length(cid) for cid in sorted(ends)}
    for cid, length in curves.items():
        # the curve-length check of the global holonomy, which reads the
        # curve's first slot
        p, s = min(ends[cid])
        check_curve_holonomy(std[p].slot_hol[s], cid, length)
    log4a = math.log(4.0 * area(sig))
    # the shortness certificate: every row of decomposition.curve_rows
    # and arc_rows passes, read from the lengths without building them
    certified = all(length <= 2.0 * log4a for length in curves.values())
    shears = {}
    cusp_res, side_res, margins = [], [], []
    for p, sp in enumerate(std):
        if isinstance(sp, thick.BatchPants):
            kern, arcs = sp.kernel, sp.arcs
        else:
            try:
                kern = spiralling.pants_kernel(sp, params)
            except spiralling.DevelopError as err:
                raise type(err)((p, err.edge), err.problem) from err
            arcs = decomposition.arc_lengths(sp.lengths)
        for k, value in enumerate(kern.shears):
            shears[(p, k)] = value
        certified = decomposition.arcs_short(arcs, log4a) and certified
        for s, res in enumerate(kern.residuals):
            (cusp_res if sp.slot_is_cusp[s] else side_res).append(res)
        margins += kern.margins
    cusp = _max(cusp_res, 0.0)
    side = _max(side_res, 0.0)
    bound = main_bound(sig)
    max_shear = _max((abs(v) for v in shears.values()), 0.0)
    record = {
        "fn": {
            "lengths": {str(k): v for k, v in sorted(fn.lengths.items())},
            "twists": {str(k): v for k, v in sorted(fn.twists.items())},
        },
        "shears": {str(k): v for k, v in shears.items()},
        "max_shear": max_shear,
        "bound": bound,
        "ratio": max_shear / bound,
        "certified": certified,
        "cusp_residual": cusp,
        "spiral_residual": side,
        "relations_ok": cusp <= RELATION_TOL and side <= RELATION_TOL,
        "min_margin": min(margins) if margins else None,
        "bound_satisfied": max_shear < bound,
    }
    return record


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def assemble(config: dict, records: list, summary: dict) -> dict:
    from . import __version__
    config = dict(config)
    config["version"] = __version__
    config["hash"] = config_hash(
        {k: v for k, v in config.items() if k != "hash"})
    records = [dict(rec, config_hash=config["hash"], version=__version__)
               for rec in records]
    return {"schema": SCHEMA, "config": config, "records": records,
            "summary": summary}


def to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


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

    The samples are drawn a block at a time; the length triples of a
    block's pants are read once and batched (thick.thick_batch), then
    each record is put together in sample order by run_surface.
    """
    params = shear_free_params()
    records = []
    for start in range(0, count, _BLOCK):
        drawn = []
        for i in range(start, min(count, start + _BLOCK)):
            rec = {"seed": sample_seed(seed, i)}
            try:
                drawn.append((rec, sample_fn(sig, rec["seed"],
                                             length_range=length_range,
                                             twist_range=twist_range)))
            except Exception as err:   # recorded, campaign continues
                rec["error"] = f"{type(err).__name__}: {err}"
            records.append(rec)
        triples = [[slot_lengths(pg, fn, p) for p in range(pg.num_pants)]
                   for _, (pg, fn) in drawn]
        batched = thick.thick_batch(
            [ls for surface in triples for ls in surface], params)
        for (rec, (pg, fn)), surface in zip(drawn, triples):
            try:
                rec.update(run_surface(sig, pg, fn, batched, surface))
            except Exception as err:   # recorded, campaign continues
                rec["error"] = f"{type(err).__name__}: {err}"
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
