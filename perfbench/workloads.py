"""Workload definitions: the ``shear`` command lines of each pass.

A workload is a list of passes; a pass is a list of jobs; a job is the
``shear`` commands of one unit of user work, timed together.  Passes
differ in their inputs, so a run's median pass time covers many
inputs.  All inputs derive from the workload seed: sampling campaigns
get their campaign seeds from it, and optimize jobs get surface files
drawn with ``surface.sample_fn`` (written during set-up) and a
flip-search seed.

* ``sweep-small``: the theorem sweep of demo 04.  A pass is the whole
  sweep; a job is one signature's ``constants`` then ``sample --count
  50``.  One to three pants per surface, so the fixed cost per surface
  dominates (seeding, sampling, report assembly), and ``constants_audit``
  is a large share.
* ``sample-g5n5``: one ``sample --g 5 --n 5 --count 20`` campaign per
  pass.  Thirteen pants per surface with cusp and collar audit rows;
  per-pants work dominates.  Lengths reach about 11.6, where about one
  sample in ten fails the pants relation or the tree gluing (a known
  defect); the failures stay in the workload.
* ``optimize-chains``: ``optimize --budget 100`` on (0,4) and (0,5)
  chain surfaces, alternating, five jobs per pass.  Builds the surface
  once per job and never runs the decomposition or spiralling layers.
  About one (0,5) surface in a hundred or two exhausts the fan search
  and exits 4 after seconds; it stays in the workload too.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

SWEEP_SIGNATURES = ((1, 1), (1, 2), (2, 0), (2, 1), (0, 4), (0, 5))
SWEEP_COUNT = 50
SWEEP_PASSES = 6
G5N5_COUNT = 20
G5N5_PASSES = 20
OPTIMIZE_SIGNATURES = ((0, 4), (0, 5))
OPTIMIZE_BUDGET = 100
OPTIMIZE_JOBS_PER_PASS = 5
OPTIMIZE_PASSES = 40

NAMES = ("sweep-small", "sample-g5n5", "optimize-chains")


@dataclass
class Command:
    kind: str                 # "constants" | "sample" | "optimize"
    argv: list
    sig: tuple
    count: int = 0            # surfaces sampled (sample commands)
    surface: dict = field(default=None)   # input file contents (optimize)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 32)


def _sample(rng, g, n, count) -> Command:
    argv = ["sample", "--g", str(g), "--n", str(n), "--count", str(count),
            "--seed", str(_seed(rng))]
    return Command("sample", argv, (g, n), count=count)


def _surface_file(sig, pg, fn) -> dict:
    """The surface-file schema of the ``shear`` command line."""
    return {
        "signature": {"g": sig.g, "n": sig.n},
        "pants": [{"slots": [{kind: ident} for kind, ident in slots]}
                  for slots in pg.pants],
        "fn": [{"curve": cid, "length": fn.lengths[cid],
                "twist": fn.twists[cid]} for cid in pg.curve_ids()],
    }


def _optimize(rng, j, workdir) -> Command:
    from shearlab.constants import Signature
    from shearlab.surface import sample_fn
    g, n = OPTIMIZE_SIGNATURES[j % len(OPTIMIZE_SIGNATURES)]
    sig = Signature(g, n)
    pg, fn = sample_fn(sig, _seed(rng))
    surface = _surface_file(sig, pg, fn)
    path = workdir / f"surface-{j:03d}.json"
    path.write_text(json.dumps(surface, sort_keys=True))
    argv = ["optimize", str(path), "--budget", str(OPTIMIZE_BUDGET),
            "--seed", str(rng.randrange(2 ** 16))]
    return Command("optimize", argv, (g, n), surface=surface)


def build(name: str, seed: int, workdir) -> list:
    """Passes of jobs of commands; optimize inputs go into workdir."""
    rng = random.Random(seed)
    if name == "sweep-small":
        return [[(Command("constants", ["constants", "--g", str(g),
                                        "--n", str(n)], (g, n)),
                  _sample(rng, g, n, SWEEP_COUNT))
                 for g, n in SWEEP_SIGNATURES]
                for _ in range(SWEEP_PASSES)]
    if name == "sample-g5n5":
        return [[(_sample(rng, 5, 5, G5N5_COUNT),)]
                for _ in range(G5N5_PASSES)]
    if name == "optimize-chains":
        workdir.mkdir(parents=True, exist_ok=True)
        jobs = [(_optimize(rng, j, workdir),)
                for j in range(OPTIMIZE_PASSES * OPTIMIZE_JOBS_PER_PASS)]
        k = OPTIMIZE_JOBS_PER_PASS
        return [jobs[i:i + k] for i in range(0, len(jobs), k)]
    raise ValueError(f"unknown workload {name!r}")
