"""In-memory spans around the calls into each layer, and their arithmetic.

A layer is one module of the package.  :func:`instrument` replaces every
public function of each layer, at every module attribute it is bound to,
with a wrapper; callers look those attributes up at call time, so calls
between layers pass through the wrappers too.  Dataclass validation
(``__post_init__``) is wrapped on the class itself.

Untraced runs install only the result probes on ``sdp.solve`` and
``duality.all_checks`` that hand every solution and every duality report to
the correctness gate; they read no clock.  Traced runs also record one span
per call: name, layer, start, end, parent span and instance (request) id.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time
from typing import NamedTuple

LAYERS = ("matlin", "quantum", "sdp", "discrimination", "duality", "cli")
BENCH = "bench"  # the benchmark's own code: request loop and glue
REQUEST = "bench.request"  # the span around one request; every span descends from one
NO_PARENT = -1

# Calls whose results the gate checks, in every run.
PROBED = {("sdp", "solve"): "solve", ("duality", "all_checks"): "checks"}


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int
    instance: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of the traced pass plus the probe events the gate consumes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list[int] = []
        self.instance = NO_PARENT
        self.events: list = []
        self.active = False  # spans are recorded only while tracing

    def take_events(self) -> list:
        events, self.events = self.events, []
        return events

    def open(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        self.spans.append((name, layer, self.clock()))
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        end = self.clock()
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} is open")
        name, layer, start = self.spans[sid]
        parent = self.stack[-1] if self.stack else NO_PARENT
        self.spans[sid] = Span(name, layer, start, end, parent, self.instance)

    def span(self, name: str, layer: str):
        """A span opened by the benchmark's own code; a no-op when untraced."""
        return self._span(name, layer) if self.active else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name: str, layer: str):
        sid = self.open(name, layer)
        try:
            yield
        finally:
            self.close(sid)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, **s._asdict()}) + "\n")


def _probe(fn, kind: str, recorder: Recorder, breakdown: type):
    @functools.wraps(fn)
    def probed(*args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except breakdown as exc:
            recorder.events.append((kind, args, exc))
            raise
        recorder.events.append((kind, args, result))
        return result

    return probed


def _traced(fn, name: str, layer: str, recorder: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = recorder.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(sid)

    return traced


def instrument(package, recorder: Recorder, trace: bool):
    """Install probes (and, with ``trace``, spans); return an undo callable."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
               for layer in LAYERS}
    breakdown = modules["sdp"].NumericalBreakdownError
    undo: list = []
    replaced: dict = {}

    for layer, mod in modules.items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                kind = PROBED.get((layer, attr))
                if kind is None and not trace:
                    continue
                wrapper = obj
                if kind is not None:
                    wrapper = _probe(wrapper, kind, recorder, breakdown)
                if trace:
                    wrapper = _traced(wrapper, f"{layer}.{attr}", layer, recorder)
                replaced[obj] = wrapper
            elif (trace and inspect.isclass(obj) and obj.__module__ == mod.__name__
                  and "__post_init__" in vars(obj)):
                original = vars(obj)["__post_init__"]
                undo.append((obj, "__post_init__", original))
                setattr(obj, "__post_init__", _traced(
                    original, f"{layer}.{attr}", layer, recorder))

    # Rebind at every attribute that holds an original, e.g. the
    # ``coherence_rel_ent`` that ``duality`` imported by name.
    for mod in (package, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replaced:
                undo.append((mod, attr, value))
                setattr(mod, attr, replaced[value])

    def restore():
        recorder.active = False
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    recorder.active = trace
    return restore


class Instruments:
    """The installed wrappers: probes only, or probes and spans."""

    def __init__(self, package, recorder: Recorder):
        self.package = package
        self.recorder = recorder
        self._undo = instrument(package, recorder, trace=False)

    def set(self, trace: bool) -> None:
        self._undo()
        self._undo = instrument(self.package, self.recorder, trace)

    def close(self) -> None:
        self._undo()
        self._undo = lambda: None


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def children_of(spans) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for sid, s in enumerate(spans):
        if s.parent != NO_PARENT:
            kids[s.parent].append(sid)
    return kids


def nesting_errors(spans, tol: float = 1e-9) -> list[str]:
    """Children must lie inside their parent and must not overlap each other."""
    errors = []
    for sid, kids in enumerate(children_of(spans)):
        parent = spans[sid]
        last_end = parent.start - tol
        for k in kids:
            c = spans[k]
            if c.start < parent.start - tol or c.end > parent.end + tol:
                errors.append(f"span {k} ({c.name}) lies outside parent {sid}")
            if c.start < last_end - tol:
                errors.append(f"span {k} ({c.name}) overlaps its previous sibling")
            last_end = max(last_end, c.end)
    return errors


def exclusive_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    excl = [s.duration for s in spans]
    for s in spans:
        if s.parent != NO_PARENT:
            excl[s.parent] -= s.duration
    return excl


def layer_self_times(spans) -> dict[str, float]:
    """Self time per layer: the sum of its spans' exclusive times.

    A span nested in a span of the same layer adds its exclusive time to the
    same layer, so this equals each outermost span's duration minus the time
    covered by its descendants in other layers.
    """
    totals: dict[str, float] = {}
    for s, excl in zip(spans, exclusive_times(spans)):
        totals[s.layer] = totals.get(s.layer, 0.0) + excl
    return totals


def own_layer_times(spans) -> list[float]:
    """Per span: its duration minus the time of descendants in other layers."""
    excl = exclusive_times(spans)
    own = list(excl)
    # Children always follow their parent in ``spans`` (ids are assigned on
    # entry), so a reverse sweep sees every child before its parent.
    for sid in range(len(spans) - 1, -1, -1):
        s = spans[sid]
        if s.parent != NO_PARENT and spans[s.parent].layer == s.layer:
            own[s.parent] += own[sid]
    return own


def attribution_errors(spans, request_walls, rel_tol: float = 0.01) -> list[str]:
    """Check the layer self times against an independent clock.

    ``request_walls`` are the traced requests' wall times, read outside
    their request spans.  Every span must descend from a request span, one
    per request, and the self times of all layers (``bench`` included) must
    add up to the summed walls within ``rel_tol``.
    """
    errors = []
    roots = [sid for sid, s in enumerate(spans) if s.parent == NO_PARENT]
    stray = [sid for sid in roots if spans[sid].name != REQUEST]
    errors += [f"span {sid} ({spans[sid].name}) lies outside any request"
               for sid in stray[:10]]
    if len(roots) - len(stray) != len(request_walls):
        errors.append(f"{len(roots) - len(stray)} request spans for "
                      f"{len(request_walls)} requests")
    total = sum(layer_self_times(spans).values())
    wall = sum(request_walls)
    if abs(total - wall) > rel_tol * wall:
        errors.append(f"layer self times sum to {total!r} s, "
                      f"the requests took {wall!r} s")
    return errors


def median_ms(values) -> float:
    values = list(values)
    return 1e3 * statistics.median(values) if values else 0.0
