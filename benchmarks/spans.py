"""Spans and call counts around mfchern's public callables, installed from
outside the package.

``install`` replaces every public function of the eight layer modules, and
every public method and arithmetic operator of their classes, with a wrapper
that records a span while the recorder is active.  A function that another
module imported by name (``cech`` takes ``pullback`` from ``forms``, ``mf``
takes ``acw_product`` from ``cech``) is replaced in that module too.
``uninstall`` puts the originals back.

Spans are aggregated as they close rather than stored: per span name the call
count and the inclusive time of the outermost span (a recursive call is not
counted twice), and per layer the self time, which is span time minus the
time covered by child spans.
"""

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("rings", "forms", "geometry", "mf", "connection", "cech", "hochschild", "cohomology")

# Operators whose cost is arithmetic worth attributing to a layer; other
# underscore names (printing, hashing, private helpers) stay unwrapped.
OPERATORS = frozenset(
    "__init__ __add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __neg__ "
    "__pow__ __eq__ __call__".split()
)


class Recorder:
    """Aggregates nested spans.  ``enter`` and ``exit`` take the span name;
    the clock is injectable so that tests can drive it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self._children = []  # time covered by child spans, one slot per open span
        self._depth = defaultdict(int)

    def enter(self, name):
        self.calls[name] += 1
        self._depth[name] += 1
        self._children.append(0.0)
        return self.clock()

    def exit(self, name, start):
        duration = self.clock() - start
        child = self._children.pop()
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive[name] += duration
        self.self_time[name.split(".", 1)[0]] += duration - child
        if self._children:
            self._children[-1] += duration


def _observe_solve(counters, args, kwargs, result):
    counters["rings.QLinearSystem.solve.ncols"] += args[1] if len(args) > 1 else kwargs["ncols"]


def _observe_is_zero(counters, args, kwargs, result):
    counters["hochschild.is_zero.strings"] += len(args[0].strings)


def _observe_cohomologous(counters, args, kwargs, result):
    verdict = "undecided" if result is None else "found"
    counters[f"cohomology.cohomologous.{verdict}"] += 1


# Extra counts taken at a span boundary from the call's arguments or result.
OBSERVERS = {
    "rings.QLinearSystem.solve": _observe_solve,
    "hochschild.HochschildChain.is_zero": _observe_is_zero,
    "cohomology.cohomologous": _observe_cohomologous,
}


def _wrap(rec, name, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        start = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(name, start)
        if observe is not None:
            observe(rec.counters, args, kwargs, result)
        return result

    return traced


def install(rec, api):
    """Wrap the layer modules held by ``api``; returns what ``uninstall`` needs."""
    saved = []
    by_function = {}
    for layer in LAYERS:
        module = getattr(api, layer)
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not attr.startswith("_"):
                by_function[obj] = _wrap(rec, f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                _install_class(rec, f"{layer}.{attr}", obj, saved)
    for layer in LAYERS:
        module = getattr(api, layer)
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in by_function:
                saved.append((module, attr, obj))
                setattr(module, attr, by_function[obj])
    return saved


def _install_class(rec, prefix, cls, saved):
    wrappers = {}  # an alias such as __rmul__ = __mul__ shares one span name
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr not in OPERATORS:
            continue
        kind = type(member) if isinstance(member, (staticmethod, classmethod)) else None
        fn = member.__func__ if kind else member
        if not inspect.isfunction(fn):
            continue
        if fn not in wrappers:
            wrappers[fn] = _wrap(rec, f"{prefix}.{attr}", fn)
        saved.append((cls, attr, member))
        setattr(cls, attr, kind(wrappers[fn]) if kind else wrappers[fn])


def uninstall(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
