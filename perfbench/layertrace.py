"""Outside-in layer tracing: wrap public zetakit functions from outside the
package and record one span per call.

Modules import each other's functions by name (``from .numerics import
digamma`` in ``lineone``), so patching a function's home module alone
misses most calls.  ``Tracer.install`` therefore rebinds every name, in
every ``zetakit`` namespace, that refers to a wrapped function, and
``uninstall`` puts the originals back.

Spans are kept in memory as ``(id, parent_id, layer, start, end, outer)``;
``outer`` is false when the same layer is already on the stack (recursion),
so inclusive time counts each outermost call once.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, function, counter) -- the counter reads exact work counts off
# the call's result and returns {count name: amount}.
CountFn = Optional[Callable[[object], Dict[str, int]]]

LAYERS: List[Tuple[str, str, CountFn]] = [
    ("numerics", "digamma", None),
    ("numerics", "integrate_interval", None),
    # LineOnePoint.terms_used means gap evaluations for the integral route
    # and the acceleration order for the eta route; they are named apart.
    ("lineone", "zeta_line_one_integral", lambda r: {"gap_evals": r.terms_used}),
    ("lineone", "zeta_line_one", lambda r: {"accel_order": r.terms_used}),
    ("primetail", "t_direct",
     lambda r: {"primes_summed": r.terms_used, "unconverged": int(not r.converged)}),
    ("primes", "primes_array_up_to", lambda r: {"primes": int(r.size)}),
    ("zetacore", "euler_product", None),
    ("oddzeta", "f_ratio", None),
    ("zetacore", "zeta_oracle", None),
    ("zetacore", "zeta_reference", None),
    ("zetacore", "zeta_even_closed", None),
    ("bern", "bernoulli", None),
    ("numerics", "hurwitz_zeta", None),
    ("numerics", "accelerate_alternating", lambda r: {"order_sum": r.terms_used}),
    ("oddzeta", "zeta_odd_literature", None),
    ("oddzeta", "zeta_known_ref", None),
    ("forensics", "forensics", None),
    ("cli", "run", None),
    ("cli", "render", None),
]

COUNTS = [
    ("lineone.zeta_line_one_integral", "gap_evals"),
    ("lineone.zeta_line_one", "accel_order"),
    ("primetail.t_direct", "primes_summed"),
    ("primetail.t_direct", "unconverged"),
    ("primes.primes_array_up_to", "primes"),
    ("numerics.accelerate_alternating", "order_sum"),
]


PACKAGE = "zetakit"


def layer_names() -> List[str]:
    return [f"{mod}.{fn}" for mod, fn, _ in LAYERS]


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._active: Counter = Counter()
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, counter: CountFn):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            outer = active[layer] == 0
            active[layer] += 1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[layer] -= 1
                spans.append((sid, parent, layer, t0, t1, outer))
            if counter is not None:
                for key, n in counter(result).items():
                    counts[f"{layer}.{key}"] += n
            return result

        return traced

    def _namespaces(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = self._namespaces()
        for mod, fn, counter in LAYERS:
            # the package re-exports the function ``forensics`` under the
            # submodule's name, so go through sys.modules, not attributes
            home = sys.modules[f"{PACKAGE}.{mod}"]
            original = getattr(home, fn)
            wrapper = self._wrap(f"{mod}.{fn}", original, counter)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patches.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def take(self) -> Tuple[List[tuple], Dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("take() called inside a traced call")
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def summarize(spans: List[tuple]) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, inclusive seconds (outermost calls) and self seconds."""
    child_time: Dict[int, float] = {}
    for _, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in layer_names()}
    for sid, _, layer, t0, t1, outer in spans:
        row = out[layer]
        row["calls"] += 1
        if outer:
            row["s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
    return out


def dump(spans: List[tuple], path: str) -> None:
    """Write spans as JSON lines, times relative to the first span's start."""
    origin = min((s[3] for s in spans), default=0.0)
    with open(path, "w") as fh:
        for sid, parent, layer, t0, t1, _ in sorted(spans):
            fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                 "start": round(t0 - origin, 9), "end": round(t1 - origin, 9)}))
            fh.write("\n")
