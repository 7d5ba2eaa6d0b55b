"""Outside-in attribution of host time to the ``repro.<layer>`` packages.

Nothing under ``src/`` knows about this module. The layer of code is its
package: ``repro.host.vdma.VdmaEngine.copy`` belongs to ``host``. Two
instruments share that rule.

:class:`LayerSampler` gives each layer's *self time*. Every ``SAMPLE_S``
seconds an interval timer interrupts the main thread, which charges the
time since the previous sample to the innermost frame of its stack that
belongs to a ``repro`` package or to the benchmark's own code (the
latter is *unattributed*). Frames of other code (the standard library,
numpy) count for the nearest such frame below them. Nothing is wrapped,
so a sampled pass runs within a few percent of an untraced one, and the
layers' self seconds plus the unattributed seconds of a sampled pass
can be checked against the wall time of an untraced pass.

:class:`LayerTracer` gives *spans* and *calls*. :meth:`LayerTracer.install`
imports every ``repro`` submodule, replaces each public function and
public method (plus ``__init__``) *defined* in it with a wrapper, and
rebinds the aliases other modules imported by name.

* Every wrapped call is counted. A call opens a span only where the
  callee's layer differs from the layer of the innermost open span.
* Generator functions return a forwarding generator that opens a span
  per resume and passes ``send``/``throw``/``close`` through, so
  simulated processes (generators resumed by the kernel) show resume by
  resume. A plain function that returns a generator gets the same
  forwarder.
* Every process spawned through ``Simulator.spawn`` is forwarded once
  more, so its spans carry a root id (the process name: ``rank17``,
  ``daemon:vdma.d0``), and a process body defined in a private function
  is put in the layer of the module that defines it.

A wrapped pass runs 2-3x slower than an untraced one. Subtracting a
per-call estimate of the wrapper's cost does not recover the untraced
time to within a few percent (the cost of a wrapper depends on what it
wraps), so the tracer reports no self time: its spans place calls in
time and nest them, the sampler says where the time went. Spans stay in
memory (up to ``MAX_SPANS``) and are written once, as Chrome-trace JSON,
by :meth:`LayerTracer.write_chrome_trace`.

Both instruments observe the main thread. Coroutine functions are not
wrapped (the asyncio loop, not a layer, drives them); their synchronous
callees are.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import signal
import sys
import time
import types
from pathlib import Path
from typing import Iterable, Optional

__all__ = ["LayerSampler", "LayerTracer", "SampleStats", "layer_of"]

_GENERATOR = types.GeneratorType
#: Layer name of the benchmark's own code.
BASE = "base"
#: Spans kept in memory; later ones are counted as dropped.
MAX_SPANS = 100_000
#: Sampling period, wall-clock seconds. A sample costs tens of
#: microseconds on a VM (the timer interrupt and signal delivery), about
#: 1 % of the pass at this period.
SAMPLE_S = 0.005
HERE = str(Path(__file__).resolve().parent)


def layer_of(module: str) -> Optional[str]:
    """``repro.<layer>[.*]`` -> ``<layer>``; None for any other module."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return sys.intern(parts[1])


# -- sampled self time -----------------------------------------------------------


class SampleStats:
    """Where the host time of one sampled stretch went."""

    def __init__(self, wall_s: float, self_s: dict, unattributed_s: float,
                 samples: int, top: list):
        #: Seconds from :meth:`LayerSampler.start` to :meth:`LayerSampler.stop`.
        self.wall_s = wall_s
        #: Self seconds per layer.
        self.self_s = self_s
        #: Seconds charged to no layer: the benchmark's own code, and the
        #: stretch after the last sample.
        self.unattributed_s = unattributed_s
        self.samples = samples
        #: ``(layer, function, self_s)`` of the costliest functions.
        self.top = top


class LayerSampler:
    """Samples the main thread's stack on an interval-timer signal.

    ``SIGALRM`` from ``ITIMER_REAL`` runs :meth:`_tick` on the main
    thread at its next bytecode boundary, with the interrupted frame: no
    helper thread, no GIL hand-over. The timer is not inherited by forked
    processes. :meth:`start` and :meth:`stop` must be called from the
    main thread, and nothing else may use ``SIGALRM`` meanwhile.
    """

    def __init__(self, period: float = SAMPLE_S):
        self.period = period
        #: ``id(code)`` -> ``(code, (layer, function name))``, or
        #: ``(code, None)`` for code that belongs to no layer and is not
        #: the benchmark's. Keyed by identity: code objects compare equal
        #: across modules when only their file differs. Holding the code
        #: keeps its id from being reused.
        self._kinds: dict = {}

    def _classify(self, frame) -> Optional[tuple[str, str]]:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "")
        layer = layer_of(module)
        if layer is None and code.co_filename.startswith(HERE):
            layer = BASE
        return None if layer is None else (layer, f"{module}.{code.co_qualname}")

    def _tick(self, signum, frame) -> None:
        """Charge the time since the last sample to ``frame``'s layer."""
        now = time.perf_counter()
        kinds = self._kinds
        key = None
        while frame is not None:
            code = frame.f_code
            entry = kinds.get(id(code))
            if entry is None:
                entry = kinds[id(code)] = (code, self._classify(frame))
            if entry[1] is not None:
                key = id(code)
                break
            frame = frame.f_back
        self._by_code[key] = self._by_code.get(key, 0.0) + (now - self._last)
        self._samples += 1
        self._last = now

    def start(self) -> None:
        """Start sampling the main thread."""
        self._by_code: dict = {}
        self._samples = 0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self, top: int = 12) -> SampleStats:
        """Stop sampling; return the totals."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self_s: dict[str, float] = {}
        unattributed = end - self._last
        rows = []
        for key, seconds in self._by_code.items():
            kind = self._kinds[key][1] if key is not None else None
            if kind is None or kind[0] == BASE:
                unattributed += seconds
            else:
                self_s[kind[0]] = self_s.get(kind[0], 0.0) + seconds
                rows.append((kind[0], kind[1], seconds))
        rows.sort(key=lambda row: -row[2])
        return SampleStats(end - self._t0, self_s, unattributed, self._samples, rows[:top])


# -- spans and calls ---------------------------------------------------------------


class _Fn:
    """Per-function record."""

    __slots__ = ("layer", "qualname", "calls")

    def __init__(self, layer: str, qualname: str):
        self.layer = layer
        self.qualname = qualname
        self.calls = 0


class LayerTracer:
    """Wraps the ``repro`` packages; counts calls and records spans."""

    def __init__(self):
        self._fns: list[_Fn] = []
        self._base_fn = _Fn(BASE, "<benchmark>")
        #: Open spans, innermost last: ``(layer, span id)``.
        self._stack: list[tuple] = [(BASE, 0)]
        self._ids = itertools.count(1)
        self.root = "main"
        #: (layer, qualname, t0, t1, span id, parent span id, root).
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._patches: list[tuple[object, str, object]] = []
        self._process_fns: dict[int, tuple] = {}

    # -- wrappers ---------------------------------------------------------------

    def _span(self, rec: _Fn, frame: tuple, parent: tuple, t0: float, t1: float) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((rec.layer, rec.qualname, t0, t1, frame[1], parent[1], self.root))
        else:
            self.spans_dropped += 1

    def _wrap_plain(self, fn, rec: _Fn):
        layer = rec.layer
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter
        span = self._span
        forward = self._forward

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls += 1
            top = stack[-1]
            if top[0] is layer:
                result = fn(*args, **kwargs)
            else:
                frame = (layer, next(ids))
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    span(rec, frame, top, t0, t1)
            if result.__class__ is _GENERATOR and result.gi_code is not _FORWARD_CODE:
                return forward(result, rec)
            return result

        return wrapper

    def _wrap_generator_function(self, fn, rec: _Fn):
        forward = self._forward

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls += 1
            return forward(fn(*args, **kwargs), rec)

        return wrapper

    def _forward(self, gen, rec: Optional[_Fn], root: Optional[str] = None):
        """Drive ``gen``, opening a span of ``rec``'s layer per resume.

        ``rec=None`` forwards without spans; ``root`` tags spans opened
        while this generator (a spawned process) runs.
        """
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter
        span = self._span
        layer = rec.layer if rec is not None else None
        value = None
        error: Optional[BaseException] = None
        while True:
            if root is not None:
                outer_root = self.root
                self.root = root
            try:
                top = stack[-1]
                if layer is None or top[0] is layer:
                    try:
                        out = gen.send(value) if error is None else gen.throw(error)
                    except StopIteration as stop:
                        return stop.value
                else:
                    frame = (layer, next(ids))
                    stack.append(frame)
                    t0 = clock()
                    try:
                        out = gen.send(value) if error is None else gen.throw(error)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        t1 = clock()
                        stack.pop()
                        span(rec, frame, top, t0, t1)
            finally:
                if root is not None:
                    self.root = outer_root
            error = None
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into gen
                value = None
                error = exc

    def _process_fn(self, gen) -> Optional[_Fn]:
        """Record whose layer a spawned process body belongs to, or None."""
        code = getattr(gen, "gi_code", None)
        if code is None or code is _FORWARD_CODE:
            return None  # already a forwarder: it opens its own spans
        seen = self._process_fns.get(id(code))
        if seen is not None:
            return seen[1]
        frame = gen.gi_frame
        module = frame.f_globals.get("__name__", "") if frame is not None else ""
        layer = layer_of(module)
        if layer is not None:
            rec = _Fn(layer, f"{module}.{code.co_qualname}")
            self._fns.append(rec)
        else:
            rec = self._base_fn
        self._process_fns[id(code)] = (code, rec)  # by identity, as in LayerSampler
        return rec

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, fn, layer: str, qualname: str):
        if inspect.iscoroutinefunction(fn) or inspect.isasyncgenfunction(fn):
            return None
        rec = _Fn(layer, qualname)
        self._fns.append(rec)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator_function(fn, rec)
        return self._wrap_plain(fn, rec)

    def install(self, extra_modules: Iterable[types.ModuleType] = ()) -> "LayerTracer":
        """Wrap every ``repro.<layer>`` module; rebind aliases everywhere."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("repro.") and m is not None]
        aliasing = [sys.modules["repro"], *modules, *extra_modules]
        wrapped: dict[int, tuple[object, object]] = {}
        for module in modules:
            layer = layer_of(module.__name__)
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self._wrap(obj, layer, f"{module.__name__}.{name}")
                    if wrapper is not None:
                        wrapped[id(obj)] = (obj, wrapper)
                        self._patch(module, name, wrapper)
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer, module.__name__)
        for module in aliasing:
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, name, hit[1])
        self._hook_spawn()
        return self

    def _wrap_class(self, cls: type, layer: str, modname: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            qualname = f"{modname}.{cls.__qualname__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                wrapper = self._wrap(attr.__func__, layer, qualname)
                if wrapper is not None:
                    self._patch(cls, name, type(attr)(wrapper))
            elif inspect.isfunction(attr):
                wrapper = self._wrap(attr, layer, qualname)
                if wrapper is not None:
                    self._patch(cls, name, wrapper)

    def _hook_spawn(self) -> None:
        from repro.sim.engine import Simulator

        spawn = Simulator.spawn
        tracer = self

        @functools.wraps(spawn)
        def rooted_spawn(sim, gen, name=None, shard=None):
            if hasattr(gen, "send"):
                gen = tracer._forward(gen, tracer._process_fn(gen), root=name or "proc")
            return spawn(sim, gen, name, shard)

        self._patch(Simulator, "spawn", rooted_spawn)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def layer_calls(self) -> dict[str, int]:
        """Wrapped calls per layer since :meth:`install`."""
        if len(self._stack) != 1:
            raise RuntimeError(f"{len(self._stack) - 1} spans still open")
        calls: dict[str, int] = {}
        for rec in self._fns:
            calls[rec.layer] = calls.get(rec.layer, 0) + rec.calls
        return calls

    def fn_calls(self) -> dict[str, int]:
        """Wrapped calls per function, by qualified name."""
        calls: dict[str, int] = {}
        for rec in self._fns:
            if rec.calls:
                calls[rec.qualname] = calls.get(rec.qualname, 0) + rec.calls
        return calls

    @property
    def span_count(self) -> int:
        """Spans opened, kept or dropped."""
        return len(self.spans) + self.spans_dropped

    def write_chrome_trace(self, path, pid_name: str) -> Path:
        """Write the recorded spans as Chrome-trace (Perfetto) JSON."""
        path = Path(path)
        roots: dict[str, int] = {}
        events = [{"ph": "M", "pid": 1, "name": "process_name",
                   "args": {"name": pid_name}}]
        t_origin = self.spans[0][2] if self.spans else 0.0
        for layer, qualname, t0, t1, span, parent, root in self.spans:
            tid = roots.get(root)
            if tid is None:
                tid = roots[root] = len(roots) + 1
                events.append({"ph": "M", "pid": 1, "tid": tid,
                               "name": "thread_name", "args": {"name": root}})
            events.append({
                "ph": "X", "pid": 1, "tid": tid, "cat": layer, "name": qualname,
                "ts": (t0 - t_origin) * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {"span": span, "parent": parent},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "otherData": {"spans_dropped": self.spans_dropped}}))
        return path


_FORWARD_CODE = LayerTracer._forward.__code__
