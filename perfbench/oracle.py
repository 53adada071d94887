"""Correctness checks on ``shear`` reports, run outside the timed region.

The sample oracle is closed-form: in the spiralling triangulation of a
pants with boundary lengths (l_0, l_1, l_2), a cusp counting as 0, the
seam arc k joining slots i < j has shear (l_i + l_j - l_k) / 2.  The
headline bound is recomputed as 32 log(8 pi |chi|) + 23.

The optimize oracle replays the reported flip trail with ``cusped.flip``
from the start triangulation, requires one state on the way to carry the
reported shears, and requires the cusp sums to vanish there.

An op the program declines with a named reason (a sample record with an
``error``, ``optimize`` exit 4), or whose output misses the cusp-sum
accuracy, counts as a failed op of that kind.  Any other disagreement is
a problem, and a run with a problem is not correct.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

SHEAR_TOL = 1e-9          # relative to max(1, largest boundary length)
BOUND_TOL = 1e-12
REPLAY_TOL = 1e-9
CUSP_SUM_TOL = 1e-9


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    pants_done: int = 0               # pants of successful surfaces
    max_shears: list = field(default_factory=list)   # (best, start) per op
    accepted_flips: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "Outcome"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.update(other.failures)
        self.pants_done += other.pants_done
        self.max_shears += other.max_shears
        self.accepted_flips += other.accepted_flips
        self.problems += other.problems


def failure_kind(error: str) -> str:
    if "pants relation" in error:
        return "pants_relation"
    if "tree gluing" in error:
        return "tree_gluing"
    return "other"


def main_bound(g: int, n: int) -> float:
    return 32.0 * math.log(8.0 * math.pi * (2 * g - 2 + n)) + 23.0


def canonical_slots(g: int, n: int):
    """Per pants, the curve id in each slot (None for a cusp).

    The layout ``shear sample`` draws on: a chain of pants joined slot 2
    to slot 0, then one handle per genus between the first free slots.
    """
    m = 2 * g - 2 + n
    slots = [[None, None, None] for _ in range(m)]
    glued = [[False] * 3 for _ in range(m)]
    curve = 0
    for p in range(m - 1):
        slots[p][2] = slots[p + 1][0] = curve
        glued[p][2] = glued[p + 1][0] = True
        curve += 1
    free = [(p, s) for p in range(m) for s in range(3) if not glued[p][s]]
    for _ in range(g):
        (p1, s1), (p2, s2) = free.pop(0), free.pop(0)
        slots[p1][s1] = slots[p2][s2] = curve
        curve += 1
    return slots


def expected_shears(g: int, n: int, lengths: dict) -> dict:
    out = {}
    for p, slot_curves in enumerate(canonical_slots(g, n)):
        ls = [0.0 if c is None else lengths[str(c)] for c in slot_curves]
        for k in range(3):
            i, j = (s for s in range(3) if s != k)
            out[f"({p}, {k})"] = ((ls[i] + ls[j] - ls[k]) / 2.0, max(ls))
    return out


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_constants(cmd, rc, text) -> Outcome:
    out = Outcome()
    g, n = cmd.sig
    data = json.loads(text)["records"][0]
    if not _close(data["main_bound"], main_bound(g, n), BOUND_TOL):
        out.problems.append(f"constants {cmd.sig}: main_bound "
                            f"{data['main_bound']} != closed form")
    if rc != (0 if data["audit"]["ok"] else 2):
        out.problems.append(f"constants {cmd.sig}: exit {rc} disagrees "
                            f"with audit ok={data['audit']['ok']}")
    return out


def check_sample(cmd, rc, text) -> Outcome:
    out = Outcome(attempted=cmd.count)
    g, n = cmd.sig
    if rc != 0:
        out.problems.append(f"sample {cmd.sig}: exit {rc}")
        return out
    report = json.loads(text)
    records, summary = report["records"], report["summary"]
    if len(records) != cmd.count:
        out.problems.append(f"sample {cmd.sig}: {len(records)} records")
    bound = main_bound(g, n)
    for i, rec in enumerate(records):
        where = f"sample {cmd.sig} record {i}"
        if rec.get("error"):
            out.failed += 1
            out.failures[failure_kind(rec["error"])] += 1
            continue
        expected = expected_shears(g, n, rec["fn"]["lengths"])
        if set(rec["shears"]) != set(expected):
            out.problems.append(f"{where}: shear keys differ")
            continue
        for key, (value, scale) in expected.items():
            got = rec["shears"][key]
            if abs(got - value) > SHEAR_TOL * max(1.0, scale):
                out.problems.append(f"{where}: shear {key} = {got}, "
                                    f"closed form {value}")
        top = max(abs(v) for v in rec["shears"].values())
        if rec["max_shear"] != top:
            out.problems.append(f"{where}: max_shear is not max |shear|")
        if not _close(rec["bound"], bound, BOUND_TOL):
            out.problems.append(f"{where}: bound {rec['bound']} "
                                f"!= closed form {bound}")
        if rec["relations_ok"] is not True:
            out.problems.append(f"{where}: relations_ok is false")
        out.pants_done += 2 * g - 2 + n
        out.max_shears.append((rec["max_shear"], rec["max_shear"]))
    if summary["failures"] != out.failed:
        out.problems.append(f"sample {cmd.sig}: summary counts "
                            f"{summary['failures']} failures, records "
                            f"{out.failed}")
    if summary["bound_violations_certified"] != 0:
        out.problems.append(f"sample {cmd.sig}: certified bound violations")
    return out


def check_optimize(cmd, rc, text) -> Outcome:
    from shearlab import chains, cusped
    from shearlab.report import parse_surface
    from shearlab.surface import holonomy_from_fn

    out = Outcome(attempted=1)
    where = f"optimize {cmd.argv[1]}"
    if rc == 4:
        out.failed = 1
        out.failures["chain_build"] += 1
        return out
    if rc != 0:
        out.problems.append(f"{where}: exit {rc}")
        return out
    rec = json.loads(text)["records"][0]
    if not rec["best_max_shear"] <= rec["start_max_shear"]:
        out.problems.append(f"{where}: best above start")
    _, pg, fn = parse_surface(cmd.surface)
    cx, sigma, _ = chains.build_cusped_chain(holonomy_from_fn(pg, fn))
    if cusped.max_abs_shear(sigma) != rec["start_max_shear"]:
        out.problems.append(f"{where}: start_max_shear is not the start max")
    target = rec["shears"]

    def gap(shears):
        if set(map(str, shears)) != set(target):
            return math.inf
        return max(abs(v - target[str(k)]) for k, v in shears.items())

    best_gap, state = gap(sigma), (cx, sigma)
    for edge in rec["flips"]:
        cx, sigma = cusped.flip(cx, sigma, tuple(edge))
        this_gap = gap(sigma)
        if this_gap < best_gap:
            best_gap, state = this_gap, (cx, sigma)
    if best_gap > REPLAY_TOL:
        out.problems.append(f"{where}: replayed trail misses the reported "
                            f"shears by {best_gap:.3g}")
        return out
    if abs(cusped.max_abs_shear(state[1]) - rec["best_max_shear"]) > REPLAY_TOL:
        out.problems.append(f"{where}: best_max_shear is not the max")
    out.max_shears.append((rec["best_max_shear"], rec["start_max_shear"]))
    out.accepted_flips = len(rec["flips"])
    worst = max(abs(v) for v in cusped.cusp_sums(*state).values())
    if worst > CUSP_SUM_TOL:
        out.failed = 1
        out.failures["cusp_sum"] += 1
    else:
        g, n = cmd.sig
        out.pants_done = 2 * g - 2 + n
    return out


CHECKS = {"constants": check_constants, "sample": check_sample,
          "optimize": check_optimize}


def check(cmd, rc, text) -> Outcome:
    return CHECKS[cmd.kind](cmd, rc, text)
