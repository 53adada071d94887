"""In-memory spans around the library's public functions.

Every public function of a ``shearlab`` module is wrapped where a caller
looks it up: in the namespace of the module that imported it by name
(``report.holonomy_from_fn``, ``cli.holonomy_from_fn``,
``surface.build_pants``) or, for calls written ``module.fn`` and calls
inside the defining module, in the defining module
(``spiralling.spiral``, ``cusped.flip``).  Functions defined in ``geom``
are the half-plane primitives called thousands of times per surface,
and UNWRAPPED_FUNCTIONS are helpers called tens of times per pants;
they stay unwrapped and count toward their callers' self time.

Counts and self times cover every traced call.  Span tuples are kept in
memory only for the jobs the caller marks (``keep``), because a flip
search makes tens of thousands of calls per pass, and are written out
as JSON lines when the run ends.  The library itself is not modified:
wrappers are installed by attribute assignment and removed afterwards.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter

UNWRAPPED_DEFINING_MODULES = ("shearlab.geom",)
UNWRAPPED_FUNCTIONS = ("spiral_endpoint", "slot_normalizer", "collar_width",
                       "truncated_collar_width", "truncate_arc", "gamma_a",
                       "curve_orientation_data")


def _wrappable(obj) -> bool:
    target = inspect.unwrap(obj)
    if not inspect.isfunction(target):
        return False
    home = getattr(target, "__module__", "") or ""
    return (home.startswith("shearlab.")
            and home not in UNWRAPPED_DEFINING_MODULES
            and target.__name__ not in UNWRAPPED_FUNCTIONS)


def bindings(modules):
    """(module, attribute, short name) for every wrappable public function."""
    out = []
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in sorted(vars(mod).items()):
            if not attr.startswith("_") and _wrappable(obj):
                out.append((mod, attr, f"{short}.{attr}"))
    return out


class Tracer:
    """Records nested spans; self time is a span minus its child spans."""

    def __init__(self, modules):
        self._bindings = bindings(modules)
        self._originals = []
        self._stack = []      # per open span: [span id, child seconds]
        self._next_id = 0
        self.op = None        # identifier shared by the spans of one job
        self.keep = False     # whether spans of the current job are logged
        self.spans = []       # (id, parent id, op, name, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if tracer.keep:
                    tracer.spans.append((sid, parent, tracer.op, name, t0, t1))

        return traced

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for mod, attr, name in self._bindings:
            original = getattr(mod, attr)
            self._originals.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals = []

    def take_counts(self):
        """Counts and self times since the last call, then reset them."""
        calls, self_s = dict(self.calls), dict(self.self_s)
        self.calls.clear()
        self.self_s.clear()
        return calls, self_s

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": t0,
                                     "end": t1}) + "\n")
