"""Batch command line front end.

Subcommands:

* ``shear constants --g G --n N [--rho-prime X]``: every named constant
  plus the self-audit, as JSON.  Exit 2 if the audit fails, 1 for a
  rho' outside [tanh(rho), rho).
* ``shear compute SURFACE.json``: full pipeline on one surface file.
  Exit 1 on a parse error (including a curve without an fn row, with
  two fn rows or not glued to exactly two slots, an fn row of a curve
  that no slot glues, curve or cusp ids that cannot be ordered
  together, and a pants graph that does not match the declared
  signature), 3 on a geometry-invariant
  failure (including a non-positive or non-finite length, a non-finite
  twist, a disconnected gluing graph and a shear point inside a
  shear-point-free part).
* ``shear sample --g G --n N --count K --seed S``: seeded sampling
  campaign; exit 5 if any certified sample violates the shear bound,
  1 for a seed outside [0, 2^64), a negative count, a non-finite or
  negative ``--twist-max``, a non-finite or non-positive length bound,
  or a length maximum below the length minimum (the defaults count:
  0.05 and 2 log(4 area)).
* ``shear optimize SURFACE.json --budget B --seed S``: flip search on a
  cusped chain surface (genus 0, up to five punctures).  A chain of m
  pants is read by position, whatever its curve ids: slot 1 of every
  pants, slot 0 of pants 0 and slot 2 of pants m - 1 are cusps, and
  curve a glues slot 2 of pants a to slot 0 of pants a + 1.  Each twist
  outside [-l/2, l/2), l its curve's length, is first reduced into it
  by whole Dehn twists, which do not change the surface.  Each of the B
  steps scores in closed form the flips that can improve the maximum
  (by the signs of Penner's rule, the two edges the sides of the edge
  at the largest |shear| follow when that shear is >= 0, or precede
  when it is < 0) and flips only the edge it takes, in place.  Exit 1
  on a parse error (as for ``compute``), a negative budget or a seed
  outside [0, 2^64), 4 for surfaces without a supported start
  triangulation or that fail a geometry invariant (as for ``compute``,
  and a start or best state whose cusp sums exceed 1e-6, RELATION_TOL).

Boundary lengths too long for float64 (about 76 and up) fail the pants
construction: ``compute`` exits 3 and ``optimize`` exits 4.  A surface
file whose signature ``g`` or ``n`` is not a JSON integer, or whose fn
``length`` or ``twist`` is not a JSON number (an integer or a float,
never true, false or a string such as "2.0") or is an integer too large
for a float, is a parse error.  Every subcommand exits 1 with one error line if its ``--out``
file cannot be written.

Reports are byte-deterministic for a fixed configuration; timings are
written to stderr only.  All tolerances are fixed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import chains, cusped, report
from .constants import Signature
from .geom import GeometryError
from .surface import default_length_range, holonomy_from_fn


def _write(text: str, out_path) -> bool:
    """Write text to the ``--out`` file, or to stdout without one; False,
    after one error line, if the file cannot be written."""
    if not out_path:
        sys.stdout.write(text)
        return True
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as err:
        print(f"error: cannot write --out file: {err}", file=sys.stderr)
        return False
    return True


def _signature(args) -> Signature:
    try:
        return Signature(args.g, args.n)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(1)


def cmd_constants(args) -> int:
    sig = _signature(args)
    try:
        data = report.constants_report(sig, rho_prime=args.rho_prime)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    config = {"command": "constants", "g": sig.g, "n": sig.n,
              "rho_prime": data["rho_prime"]}
    out = report.assemble(config, [data], {"audit_ok": data["audit"]["ok"]})
    if not _write(report.to_json(out), args.out):
        return 1
    return 0 if data["audit"]["ok"] else 2


def _read_surface(path):
    """A surface file's (sig, pg, fn), or None after its parse error."""
    try:
        with open(path) as fh:
            return report.parse_surface(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"error: cannot parse surface file: {err}", file=sys.stderr)
        return None


def cmd_compute(args) -> int:
    surface = _read_surface(args.surface)
    if surface is None:
        return 1
    sig, pg, fn = surface
    t0 = time.perf_counter()
    try:
        record = report.run_surface(sig, pg, fn)
    except (GeometryError, ValueError) as err:
        print(f"error: geometry invariant failure: {err}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - t0
    config = {"command": "compute", "g": sig.g, "n": sig.n,
              "surface": args.surface}
    out = report.assemble(config, [record],
                          {"certified": record["certified"],
                           "bound_satisfied": record["bound_satisfied"]})
    if not _write(report.to_json(out), args.out):
        return 1
    print(f"computed in {elapsed:.3f}s", file=sys.stderr)
    return 0


def _seed_problem(seed):
    """Why a ``--seed`` is not an unsigned 64-bit integer, or None."""
    if not 0 <= seed < 2 ** 64:
        return f"--seed must be in [0, 2**64), got {seed}"
    return None


def _sample_problem(args, length_range):
    """What makes the flags of ``shear sample`` invalid, or None."""
    if args.count < 0:
        return f"--count must be non-negative, got {args.count}"
    for flag in ("length_min", "length_max", "twist_max"):
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            return f"--{flag.replace('_', '-')} must be finite, got {value}"
    if args.twist_max < 0:
        return f"--twist-max must be non-negative, got {args.twist_max}"
    if length_range:
        lo, hi = length_range
        if lo <= 0:
            return f"--length-min must be positive, got {lo}"
        if hi < lo:
            return f"length maximum {hi} is below length minimum {lo}"
    return _seed_problem(args.seed)


def cmd_sample(args) -> int:
    sig = _signature(args)
    length_range = None
    if args.length_min is not None or args.length_max is not None:
        lo, hi = default_length_range(sig)
        length_range = (lo if args.length_min is None else args.length_min,
                        hi if args.length_max is None else args.length_max)
    problem = _sample_problem(args, length_range)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    campaign = report.sample_campaign(
        sig, args.seed, args.count, length_range=length_range,
        twist_range=(0.0, args.twist_max))
    elapsed = time.perf_counter() - t0
    config = {"command": "sample", "g": sig.g, "n": sig.n,
              "seed": args.seed, "count": args.count,
              "length_range": list(length_range) if length_range else None,
              "twist_max": args.twist_max, "format": args.format}
    text = (report.sample_rows(campaign) if args.format == "csv"
            else report.sample_json(config, campaign))
    if not _write(text, args.out):
        return 1
    print(f"{args.count} samples in {elapsed:.3f}s", file=sys.stderr)
    return 5 if campaign.summary["bound_violations_certified"] else 0


def cmd_optimize(args) -> int:
    problem = _seed_problem(args.seed)
    if args.budget < 0:
        problem = f"--budget must be non-negative, got {args.budget}"
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    surface = _read_surface(args.surface)
    if surface is None:
        return 1
    sig, pg, fn = surface
    try:
        hol = holonomy_from_fn(pg, chains.reduced_twists(fn))
        cx, sigma, _ = chains.build_cusped_chain(hol)
        cusped.check_complete(cx, sigma)
    except (chains.ChainError, GeometryError, ValueError) as err:
        print(f"error: spiralling triangulation not flip-searchable: {err}",
              file=sys.stderr)
        return 4
    start = cusped.max_abs_shear(sigma)
    best_cx, best_sigma, best_val, trail = cusped.minimax_flip_search(
        cx, sigma, args.budget, args.seed)
    try:
        cusped.check_complete(best_cx, best_sigma)
    except cusped.IncompleteStructure as err:
        print(f"error: geometry invariant failure: {err}", file=sys.stderr)
        return 4
    config = {"command": "optimize", "g": sig.g, "n": sig.n,
              "surface": args.surface, "budget": args.budget,
              "seed": args.seed}
    record = {
        "start_max_shear": start,
        "best_max_shear": best_val,
        "flips": [list(e) for e in trail],
        "shears": {str(k): v for k, v in sorted(best_sigma.items())},
    }
    out = report.assemble(config, [record],
                          {"improved": best_val < start - 1e-12,
                           "best_max_shear": best_val})
    return 0 if _write(report.to_json(out), args.out) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shear",
        description="Shear coordinates of ideal triangulations on "
                    "hyperbolic surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sig(p):
        p.add_argument("--g", type=int, required=True, help="genus")
        p.add_argument("--n", type=int, required=True, help="punctures")

    p = sub.add_parser("constants", help="named constants and self-audit")
    add_sig(p)
    p.add_argument("--rho-prime", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("compute", help="full pipeline on a surface file")
    p.add_argument("surface")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("sample", help="seeded sampling campaign")
    add_sig(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--length-min", type=float, default=None)
    p.add_argument("--length-max", type=float, default=None)
    p.add_argument("--twist-max", type=float, default=1.0,
                   help="twists are uniform in [0, twist_max) * length")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("optimize", help="minimax flip search")
    p.add_argument("surface")
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_optimize)

    return parser


#: the parser of main, built on its first call: building one costs about
#: twenty parses, most of it argparse's lookups of message translations
_parser = None


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _joined(argv: list) -> list:
    """argv with each number that starts with "-" joined to the long
    option before it, as ``--twist-max=-1e-3``.

    argparse takes an argument that starts with "-" as an option's value
    only if it is a plain decimal such as -0.001; -1e-3 or -inf would
    end in its usage error, not in the option's own check.
    """
    out = []
    for arg in argv:
        if (arg.startswith("-") and out and out[-1].startswith("--")
                and len(out[-1]) > 2 and "=" not in out[-1]
                and _is_number(arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(_joined(sys.argv[1:] if argv is None
                                      else argv))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
