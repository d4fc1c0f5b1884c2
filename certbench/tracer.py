"""Span tracer that measures kkt2 layer by layer from outside the package.

``Tracer.install`` wraps every public function of the layer modules and
rebinds every name under which a ``kkt2`` module holds such a function, so
calls through ``from .linalg import solve_lp`` aliases are seen as well as
calls through ``kkt2.linalg.solve_lp``.  ``uninstall`` puts the originals
back.  Both steps end with a scan of every loaded ``kkt2`` module that
raises ``TracerError`` if an original survived installation or a wrapper
survived removal, so untraced runs execute exactly the package's own code.

Spans ``(run, span_id, parent_id, name, start, end, attrs)`` are kept in
memory and written out once, by ``dump``.  A span's self time is its duration minus the durations of its
direct children (children nest inside their parent's interval).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import defaultdict

LAYERS = ("linalg", "model", "kkt", "cones", "curvature", "problem_file", "cli", "examples")


class TracerError(RuntimeError):
    pass


def _bound(sig, args, kwargs):
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# Per-call counters recorded at the boundary where the work happens.  Each
# takes (bound arguments, result) and returns the span's attrs.
ATTRS = {
    "linalg.solve_lp": lambda a, r: {
        "rows": len(a["lp"].eq_rows) + len(a["lp"].ineq_rows)},
    "cones.random_directions": lambda a, r: {
        "requested": a["count"], "returned": len(r)},
    "curvature.sample_growth": lambda a, r: {
        "requested": a["n_samples"], "accepted": r.samples_accepted},
    "curvature.check_snc": lambda a, r: {"directions": r.directions_evaluated},
    "curvature.check_ssc": lambda a, r: {"directions": r.directions_evaluated},
    "curvature.check_snc_fixed_multiplier": lambda a, r: {
        "directions": r.directions_evaluated},
}

# Aggregated layer metrics: one reported name for several functions.
GROUPS = {
    "kkt.cq": ("kkt.check_rzkcq", "kkt.check_weaker_cq", "kkt.check_strict_cq"),
    "curvature.search": ("curvature.check_snc", "curvature.check_ssc",
                         "curvature.check_snc_fixed_multiplier"),
    "examples.build": ("examples.build_example1", "examples.build_example2"),
}


def layer_modules() -> list[types.ModuleType]:
    """The imported modules that make up the traced layers."""
    import kkt2.cli  # noqa: F401  (imports every layer the CLI uses)
    import kkt2.examples  # noqa: F401

    mods = []
    for name, mod in sorted(sys.modules.items()):
        parts = name.split(".")
        if mod is not None and parts[0] == "kkt2" and len(parts) > 1 and parts[1] in LAYERS:
            if not hasattr(mod, "__path__"):  # skip packages, keep their modules
                mods.append(mod)
    return mods


def public_functions() -> dict:
    """{original function: span name} for every public function defined in
    a layer module."""
    out = {}
    for mod in layer_modules():
        layer = mod.__name__.split(".")[1]
        for name, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType) and not name.startswith("_") \
                    and obj.__module__ == mod.__name__:
                out[obj] = f"{layer}.{name}"
    return out


def check_names(metric_names) -> None:
    """Raises TracerError unless every span that ATTRS, GROUPS or a per-layer
    metric names is a public layer function: after a rename a metric must
    stop the benchmark, not read as 0 calls."""
    known = set(public_functions().values())
    members = [m for group in GROUPS.values() for m in group]
    missing = [n for n in (*ATTRS, *members) if n not in known]
    for metric in metric_names:
        span, field = metric.rsplit(".", 1)
        if metric == "trace.overhead_frac":
            continue
        if span not in known and span not in GROUPS \
                or field in ("rows", "yield") and span not in ATTRS:
            missing.append(metric)
    if missing:
        raise TracerError(f"no public kkt2 function for: {sorted(set(missing))}")


def _kkt2_modules() -> list[types.ModuleType]:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "kkt2" or n.startswith("kkt2."))]


def _references(mod: types.ModuleType):
    """Every place in a module that can hold a function object: module
    attributes, one level into module-level containers, class attributes,
    and default argument values of the module's own functions."""
    for name, obj in list(vars(mod).items()):
        yield f"{mod.__name__}.{name}", obj
        if isinstance(obj, dict):
            for k, v in obj.items():
                yield f"{mod.__name__}.{name}[{k!r}]", v
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for i, v in enumerate(obj):
                yield f"{mod.__name__}.{name}[{i}]", v
        elif isinstance(obj, type) and obj.__module__ == mod.__name__:
            for k, v in vars(obj).items():
                yield f"{mod.__name__}.{name}.{k}", getattr(v, "__func__", v)
        fn = getattr(obj, "__wrapped__", obj)
        if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
            for i, v in enumerate(fn.__defaults__ or ()):
                yield f"{mod.__name__}.{name} default {i}", v
            for k, v in (fn.__kwdefaults__ or {}).items():
                yield f"{mod.__name__}.{name} default {k}", v


class Tracer:
    def __init__(self):
        self._spans: list[tuple] = []  # (run, id, parent, name, start, end, attrs)
        self._stack: list[int] = []
        self._next_id = 1
        self._run = 0
        self._slots: list[tuple] = []  # (module, attribute, original)
        self._originals: dict = {}     # id(original) -> span name
        self._wrappers: dict = {}      # id(original) -> wrapper

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, name: str):
        attrs = ATTRS.get(name)
        sig = inspect.signature(fn) if attrs else None
        stack, clock, spans = self._stack, time.perf_counter, self._spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = attrs(_bound(sig, args, kwargs), result) \
                    if attrs and result is not None else None
                spans.append((self._run, sid, parent, name, t0, t1, extra))

        wrapper.__certbench_wrapper__ = True
        return wrapper

    def install(self) -> None:
        if self._slots:
            raise TracerError("tracer already installed")
        functions = public_functions()
        self._originals = {id(fn): name for fn, name in functions.items()}
        self._wrappers = {id(fn): self._wrap(fn, name) for fn, name in functions.items()}
        for mod in _kkt2_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._slots.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        # the functions stay alive through the wrappers, so ids are not reused
        leftover = [where for mod in _kkt2_modules() for where, obj in _references(mod)
                    if id(obj) in self._originals]
        if leftover:
            self.uninstall()
            raise TracerError(f"unwrapped originals remain: {leftover}")

    def uninstall(self) -> None:
        for mod, attr, original in self._slots:
            setattr(mod, attr, original)
        self._slots = []
        leftover = [where for mod in _kkt2_modules() for where, obj in _references(mod)
                    if getattr(obj, "__certbench_wrapper__", False)]
        if leftover:
            raise TracerError(f"wrappers remain after uninstall: {leftover}")

    @property
    def wrapped_count(self) -> int:
        return len(self._originals)

    # -- runs ---------------------------------------------------------------

    def new_run(self) -> int:
        """Starts a run: spans recorded from now on carry its id."""
        self._run += 1
        return self._run

    def spans(self, runs=None) -> list[tuple]:
        """(run, id, parent, name, start, end, attrs) tuples of the given runs
        (all runs when None)."""
        if runs is None:
            return list(self._spans)
        runs = set(runs)
        return [span for span in self._spans if span[0] in runs]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for run, sid, parent, name, t0, t1, extra in self.spans():
                fh.write(f'{{"run": {run}, "id": {sid}, "parent": {parent}, "name": "{name}", '
                         f'"start": {t0!r}, "end": {t1!r}, "attrs": {json.dumps(extra)}}}\n')


def layer_stats(spans) -> dict:
    """calls, self_s and summed attrs per span name (and per GROUPS name)."""
    spans = list(spans)
    child_time: dict = defaultdict(float)
    for _run, _sid, parent, _name, t0, t1, _extra in spans:
        if parent:
            child_time[parent] += t1 - t0
    stats: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "attrs": defaultdict(int)})
    for _run, sid, _parent, name, t0, t1, extra in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (t1 - t0) - child_time[sid]
        for k, v in (extra or {}).items():
            entry["attrs"][k] += v
    for group, members in GROUPS.items():
        entry = stats[group]
        for member in members:
            if member in stats:
                entry["calls"] += stats[member]["calls"]
                entry["self_s"] += stats[member]["self_s"]
    return stats


def evidence(stats: dict) -> int:
    """Directions evaluated by the second-order searches plus growth samples
    accepted."""
    n = sum(stats[name]["attrs"]["directions"] for name in GROUPS["curvature.search"]
            if name in stats)
    if "curvature.sample_growth" in stats:
        n += stats["curvature.sample_growth"]["attrs"]["accepted"]
    return n
