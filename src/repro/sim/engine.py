"""Generator-based discrete-event simulation kernel.

The whole vSCC reproduction runs on this kernel: every SCC core is a
*process* — a Python generator that yields timing commands — and the
host's DMA, prefetch, write-combining and vDMA engines are fixed-step
state machines, each transfer one :class:`Record` that is its own queue
entry. A process yields:

* a bare ``float``/``int`` — resume the process that many simulated
  nanoseconds later. A negative or NaN delay, bare or inside a chain,
  raises :class:`InvalidYield`.
* a ``tuple`` of such numbers — a *fused delay chain*: sleep each element
  in order with **no observable side effects in between** (the yielding
  code guarantees this; see DESIGN.md §12). By default the engine folds
  the whole chain into a single kernel wake-up at the accumulated end
  time ``((now + d0) + d1) + …`` — bit-identical to sleeping the
  elements one by one, because the accumulation uses the exact same
  float-addition order the per-element wake-ups would. With fusion
  disabled (``REPRO_FUSE=0``) each element is replayed as its own
  wake-up, reproducing the legacy per-yield event stream exactly. The
  chain may instead *start* with an :class:`Event`, :class:`Signal` or
  :class:`Process`: the process then parks until the head fires and
  sleeps the remaining elements from the trigger instant — the
  flag-wait idiom ``yield (watch, poll_ns)``. The head's value is
  discarded (the resume delivers ``None``), so only value-free waits
  qualify.
* an :class:`Event`    — resume when the event is triggered; ``yield`` returns
  the event's value.
* a :class:`Process`   — resume when that process terminates; ``yield``
  returns its return value (``StopIteration.value``).

A process, record or timer that raises fails the whole run:
:meth:`Simulator.run` raises :class:`ProcessFailed` naming it, with the
original exception as the cause. Nothing waiting on it is resumed.

Time is a float in **nanoseconds**; frequency-domain helpers live in
:mod:`repro.sim.clock`. Pending wake-ups live in two queues owned by the
:class:`Simulator` (DESIGN.md §7 and §11):

* a binary heap of delayed wake-ups merge-popped with a FIFO *fast
  lane* of zero-delay wake-ups, preserving global ``(time, seq)`` order.

The dispatch loop resumes a process woken without a payload itself and
queues the three yields that make up nearly every resume without a
call: a positive bare ``float`` (onto the heap), a fused chain with a
``float`` head (summed in sequential order, onto the fast lane or the
heap), and the two-element flag park ``(Signal, d)`` (a waiter on the
signal). Everything else takes one cold path, the process's
``_step``/``_dispatch``: every other yield, a generator that returns
or raises, every wake-up with a payload (an event value or an
unfused chain's next element) and every record. The cold
dispatch is type-keyed (one dict lookup on ``type(command)``) with an
isinstance fallback that caches subclasses.

There is no global locking — dispatch is single-threaded and
deterministic (ties are broken by spawn/schedule order), which is what
keeps every simulated fingerprint bit-identical run to run.

Unpinned: the failure paths (``ProcessFailed`` from a process, record
or timer, ``_bad_delay``, ``TimerHandle.name``), the timer states
``TimerHandle.active``/``cancelled`` and ``schedule_at`` (a chain not
headed by a float) — the kernel tests drive them.
``_DoneStub.__init__`` runs at import, before any pin.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import Any, Callable, Generator, Optional


from .errors import DeadlockError, InvalidYield, ProcessFailed, SimulationError
from .trace import Tracer

__all__ = [
    "Event",
    "FUSE_ENV_VAR",
    "Process",
    "Record",
    "Simulator",
    "TimerHandle",
]

#: Environment variable disabling delay fusion (``0``/``false``/``off``):
#: fused delay chains are then replayed one kernel wake-up per element,
#: reproducing the pre-fusion event stream bit for bit. Set it to run a
#: whole test suite against that unfused oracle; the pin runner
#: (``tools/pins.py``) sets it around each fused and unfused replay.
FUSE_ENV_VAR = "REPRO_FUSE"


class Event:
    """A one-shot event processes can wait on.

    ``trigger(value)`` wakes every waiter with ``value``. Waiting on an
    already-triggered event resumes immediately with the stored value —
    events are *sticky*, which makes completion signalling race-free.
    """

    __slots__ = ("sim", "name", "_triggered", "_value", "_waiters", "_callbacks")

    def __init__(self, sim: "Simulator", name: str = "event"):
        self.sim = sim
        self.name = name
        self._triggered = False
        self._value: Any = None
        self._waiters: list[Process] = []
        self._callbacks: list[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        return self._value

    def trigger(self, value: Any = None) -> None:
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        # Neither list can grow from here on: _add_waiter and on_trigger
        # see _triggered first. So iterate them in place, then drop them.
        sim = self.sim
        for proc in self._waiters:
            if proc.__class__ is _ChainWaiter:
                proc.wake(sim)
            else:
                sim.schedule(0.0, proc, value)
        for cb in self._callbacks:
            cb(value)
        self._waiters = self._callbacks = None

    def on_trigger(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(value)`` when triggered (immediately if already)."""
        if self._triggered:
            callback(self._value)
        else:
            self._callbacks.append(callback)

    def _add_waiter(self, proc: "Process") -> bool:
        """Register ``proc``; return True if it must wait."""
        if self._triggered:
            return False
        self._waiters.append(proc)
        return True


class Signal:
    """A broadcast, *non-sticky* wake-up channel.

    Used for memory watchpoints (flag polling): a waiter parks until the
    next ``pulse()``; pulses with no waiters are lost. Unlike
    :class:`Event`, a Signal can fire any number of times.
    """

    __slots__ = ("sim", "name", "_waiters", "_once")

    def __init__(self, sim: "Simulator", name: str = "signal"):
        self.sim = sim
        self.name = name
        self._waiters: list[Process] = []
        self._once: list[Callable[[], None]] = []

    def pulse(self) -> None:
        # A pulse nobody waits for allocates nothing, and each list is
        # swapped only when it holds something.
        waiters = self._waiters
        if waiters:
            self._waiters = []
            sim = self.sim
            for proc in waiters:
                if proc.__class__ is _ChainWaiter:
                    proc.wake(sim)
                else:
                    sim.schedule(0.0, proc, None)
        callbacks = self._once
        if callbacks:
            self._once = []
            for cb in callbacks:
                cb()

    def once(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the next pulse only (multi-signal waits)."""
        self._once.append(callback)

    def drop_once(self, callback: Callable[[], None]) -> None:
        """Withdraw a :meth:`once` callback the signal has not run yet."""
        if callback in self._once:
            self._once.remove(callback)

    @property
    def has_waiters(self) -> bool:
        return bool(self._waiters) or bool(self._once)

    def _add_waiter(self, proc: "Process") -> bool:
        self._waiters.append(proc)
        return True


# Type-keyed yield dispatch: one dict lookup on type(command) replaces
# the isinstance chain of the previous kernel. Subclasses of the command
# types resolve through the isinstance fallback once, then hit the dict.
_KIND_NUMBER = 0
_KIND_EVENT = 1
_KIND_SIGNAL = 2
_KIND_PROCESS = 3
_KIND_CHAIN = 4

_YIELD_KINDS: dict[type, int] = {tuple: _KIND_CHAIN}


def _bad_delay(proc: "Process", d: Any, where: str = "") -> InvalidYield:
    """The error for a yielded delay that is negative or NaN."""
    what = "negative" if d < 0 else "NaN"
    return InvalidYield(f"process {proc.name!r} yielded a {what} delay {d!r}{where}")


def _resolve_yield_kind(command: Any) -> int:
    """Slow path: classify (and cache) a yield command's type."""
    if isinstance(command, (float, int)):
        kind = _KIND_NUMBER
    elif isinstance(command, Event):
        kind = _KIND_EVENT
    elif isinstance(command, Signal):
        kind = _KIND_SIGNAL
    elif isinstance(command, Process):
        kind = _KIND_PROCESS
    elif isinstance(command, tuple):
        kind = _KIND_CHAIN
    else:
        return -1
    _YIELD_KINDS[command.__class__] = kind
    return kind


class Process:
    """A running simulated activity wrapping a generator.

    Completion is observable through :attr:`done` (an :class:`Event`
    triggered with the generator's return value) or by ``yield``-ing the
    process object from another process.
    """

    __slots__ = ("sim", "name", "gen", "done", "_source")

    def __init__(self, sim: "Simulator", gen: Generator, name: str):
        self.sim = sim
        self.name = name
        self.gen = gen
        self.done = Event(sim, name=f"{name}.done")
        #: Event-source index (kernel.events{source=...} attribution),
        #: assigned at spawn from the normalized process name.
        self._source = 0

    @property
    def finished(self) -> bool:
        return self.done.triggered

    @property
    def result(self) -> Any:
        """Return value of the generator; raises while it has not returned."""
        return self.done.value

    def _step(self, payload: Any) -> None:
        """Advance the generator by one yield: the cold path.

        The dispatch loop resumes a process woken without a payload
        itself; it comes here for every other wake-up.
        """
        if payload.__class__ is _Chain:
            # Unfused replay of a delay chain: sleep the next element as
            # its own kernel wake-up *without* resuming the generator —
            # the chain's contract is that nothing observable happens
            # between elements, so the only job here is to reproduce the
            # legacy per-yield timing and event stream exactly.
            chain = payload.chain
            nxt = payload.index + 1
            self.sim.schedule(
                chain[payload.index],
                self,
                _Chain(chain, nxt) if nxt < len(chain) else None,
            )
            return
        try:
            command = self.gen.send(payload)
        except BaseException as exc:  # noqa: BLE001 - must capture sim faults
            self._exit(exc)
            return
        self._dispatch(command)

    def _exit(self, exc: BaseException) -> None:
        """End the process on what its generator raised: a return
        (``StopIteration``) completes ``done``; anything else fails the
        run with :class:`ProcessFailed`."""
        if isinstance(exc, StopIteration):
            self.done.trigger(exc.value)
            self.sim._live_processes.pop(self, None)
            return
        self.sim._live_processes.pop(self, None)
        raise ProcessFailed(self.name, exc) from exc

    def _dispatch(self, command: Any) -> None:
        """Queue what the generator yielded; raise InvalidYield if it
        is no command."""
        sim = self.sim
        kind = _YIELD_KINDS.get(command.__class__)
        if kind is None:
            kind = _resolve_yield_kind(command)
        if kind == _KIND_NUMBER:
            if not command >= 0:
                raise _bad_delay(self, command)
            sim.schedule(command, self, None)
        elif kind == _KIND_EVENT or kind == _KIND_SIGNAL:
            if not command._add_waiter(self):
                sim.schedule(0.0, self, command._value)
        elif kind == _KIND_PROCESS:
            if not command.done._add_waiter(self):
                sim.schedule(0.0, self, command.done._value)
        elif kind == _KIND_CHAIN:
            if not command:
                raise InvalidYield(
                    f"process {self.name!r} yielded an empty delay chain"
                )
            head = command[0]
            hkind = _YIELD_KINDS.get(head.__class__)
            if hkind is None:
                hkind = _resolve_yield_kind(head)
            if hkind == _KIND_EVENT or hkind == _KIND_SIGNAL or hkind == _KIND_PROCESS:
                # Waitable-headed chain: park on the head, then sleep the
                # tail from the trigger instant (the head's value is
                # discarded — the final resume delivers None).
                for d in command[1:]:
                    if not d >= 0:
                        raise _bad_delay(self, d, " inside a chain")
                waitable = head.done if hkind == _KIND_PROCESS else head
                waiter = _ChainWaiter(self, command)
                if not waitable._add_waiter(waiter):
                    # Already triggered: the wake is immediate, exactly as
                    # the plain ``yield head`` resume would be.
                    waiter.wake(sim)
                return
            if sim._fuse:
                # Accumulate at schedule time in the exact sequential
                # order the per-element wake-ups would use — ((t+a)+b)+c,
                # never t + (a+b+c) — so the fused end time is bitwise
                # the unfused one.
                t = sim.now
                for d in command:
                    if not d >= 0:
                        raise _bad_delay(self, d, " inside a chain")
                    t = t + d
                sim.fused_yields += len(command) - 1
                sim.schedule_at(t, self, None)
            else:
                for d in command:
                    if not d >= 0:
                        raise _bad_delay(self, d, " inside a chain")
                sim.schedule(
                    command[0],
                    self,
                    _Chain(command, 1) if len(command) > 1 else None,
                )
        else:
            raise InvalidYield(
                f"process {self.name!r} yielded unsupported object {command!r}"
            )


class _Chain:
    """Internal payload: remaining elements of an unfused delay chain."""

    __slots__ = ("chain", "index")

    def __init__(self, chain: tuple, index: int):
        self.chain = chain
        self.index = index


class _ChainWaiter:
    """A parked waitable-headed chain: wakes ``proc`` tail-delays after
    the head fires.

    Fused, the tail accumulates from the trigger instant in sequential
    float order — bitwise the time the per-element wake-ups would reach.
    Unfused, the head's wake replays the tail as individual kernel
    events via :class:`_Chain`, reproducing the legacy stream.
    """

    __slots__ = ("proc", "chain")

    def __init__(self, proc: Process, chain: tuple):
        self.proc = proc
        self.chain = chain

    def wake(self, sim: "Simulator") -> None:
        proc = self.proc
        chain = self.chain
        if sim._fuse:
            # Queued as schedule_at would, without its call; the flag
            # park (watch, poll_ns) adds its one tail element unsliced.
            now = sim.now
            if len(chain) == 2:
                t = now + chain[1]
            else:
                t = now
                for d in chain[1:]:
                    t = t + d
            sim.fused_yields += len(chain) - 1
            sim._seq = seq = sim._seq + 1
            if t == now:
                sim._fast.append((t, seq, proc, None))
            else:
                heapq.heappush(sim._queue, (t, seq, proc, None))
        else:
            sim.schedule(0.0, proc, _Chain(chain, 1) if len(chain) > 1 else None)


class _DoneStub:
    """Stand-in ``done`` of a queue record that has no event of its own.

    The dispatch loop skips an entry whose ``done._triggered`` is set;
    records point ``done`` at one of the two shared instances below.
    """

    __slots__ = ("_triggered",)

    def __init__(self, triggered: bool):
        self._triggered = triggered


#: ``done`` of a pending record.
_LIVE = _DoneStub(False)
#: ``done`` of a timer that fired or was cancelled.
_DEAD = _DoneStub(True)

#: Payload of an unfused record's first, zero-delay wake-up: the legacy
#: spawn dispatch, after which the record schedules its real delay.
_ARM = object()


# One-record wake-ups. Each class below is both the queue entry (``done``,
# ``_source``, ``_step``, as the dispatch loop expects of a process) and
# what the caller gets back, so a callback, a posted transfer or a timer
# costs one object and — fused — one queue entry. Each carries ``delay``,
# the wake-up's offset from its arming instant (Simulator._arm).


class _Callback:
    """A :meth:`Simulator.call_at` callback."""

    __slots__ = ("sim", "fn", "delay", "_source")

    done = _LIVE

    def __init__(self, sim: "Simulator", fn: Callable[[], None], delay: float, source: int):
        self.sim = sim
        self.fn = fn
        self.delay = delay
        self._source = source

    def _step(self, payload: Any) -> None:
        if payload is _ARM:
            self.sim.schedule(self.delay, self, None)
        else:
            self.fn()


class _TimedEvent(Event):
    """An :class:`Event` that triggers itself: :meth:`Simulator.trigger_at`.

    Until it fires, ``_value`` holds the value it will trigger with
    (an untriggered event never exposes ``_value``).
    """

    __slots__ = ("delay", "_before", "_source")

    done = _LIVE

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        delay: float,
        before: Optional[Callable[[], None]],
        value: Any,
        source: int,
    ):
        self.sim = sim
        self.name = name
        self._triggered = False
        self._value = value
        self._waiters = []
        self._callbacks = []
        self.delay = delay
        self._before = before
        self._source = source

    def _step(self, payload: Any) -> None:
        if payload is _ARM:
            self.sim.schedule(self.delay, self, None)
            return
        if self._before is not None:
            self._before()
        self.trigger(self._value)


class TimerHandle:
    """A cancellable one-shot timeout from :meth:`Simulator.after`.

    The handle is itself the timer's queue entry. Cancelling points its
    ``done`` at the triggered stub, so the dispatch loop skips the
    pending entry: a cancelled timer costs no callback run and never
    advances simulated time. Cancelling after the timer fired (or
    twice, or from inside its own callback) is a no-op that returns
    False — the usual watchdog idiom ``timer.cancel()`` on the success
    path needs no guard.
    """

    __slots__ = ("sim", "fn", "delay", "done", "fired", "_name", "_source")

    def __init__(
        self, sim: "Simulator", fn: Callable[[], None], delay: float, name: str, source: int
    ):
        self.sim = sim
        self.fn = fn
        self.delay = delay
        self.done = _LIVE
        #: True once the callback has run.
        self.fired = False
        self._name = name
        self._source = source

    @property
    def name(self) -> str:
        """The timer's process name, ``daemon:<name>``."""
        return "daemon:" + self._name

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled);
        still True while its callback runs."""
        return self.done is _LIVE

    @property
    def cancelled(self) -> bool:
        return self.done is _DEAD and not self.fired

    def cancel(self) -> bool:
        """Disarm the timer; True if it was still pending."""
        if self.fired or self.done is _DEAD:
            return False
        self.done = _DEAD
        self.sim._live_records -= 1
        return True

    def _step(self, payload: Any) -> None:
        sim = self.sim
        if payload is _ARM:
            sim.schedule(self.delay, self, None)
            return
        self.fired = True
        try:
            self.fn()
        except BaseException as exc:  # noqa: BLE001 - must capture sim faults
            raise ProcessFailed(self.name, exc) from exc
        finally:
            self.done = _DEAD
            sim._live_records -= 1


class Record(Event):
    """A host engine's transfer as one kernel record (DESIGN.md §7): its
    own queue entry, like :class:`TimerHandle`, and its own completion
    event. It stands in for a spawned process: it counts in
    ``sim.processes_spawned``, and in ``sim.processes_live`` until it
    ends (never in a :class:`DeadlockError`); it interns its event
    source from ``name``; its first step ``start`` runs in the start
    slot. A step ends in :meth:`_wait`, :meth:`_sleep`, :meth:`_finish`
    or a ``schedule`` made elsewhere. A step that raises fails the run
    as a process does: :meth:`Simulator.run` raises ``ProcessFailed(name)``.
    """

    __slots__ = ("_source", "_next")

    done = _LIVE

    def __init__(self, sim: "Simulator", name: str, start: Callable[[Any], None]):
        self.sim = sim
        self.name = name
        self._triggered = False
        self._value: Any = None
        self._waiters: list = []
        self._callbacks: list = []
        self._next = start
        sim._spawned += 1
        sim._live_records += 1
        self._source = sim._source_of(name)
        sim.schedule(0.0, self, None)

    def _wait(self, waitable: Any, then: Callable[[Any], None]) -> None:
        """Run step ``then`` once ``waitable`` (event, signal, record) fires."""
        self._next = then
        if not waitable._add_waiter(self):
            self.sim.schedule(0.0, self, waitable._value)

    def _sleep(self, delay: float, then: Callable[[Any], None]) -> None:
        self._next = then
        self.sim.schedule(delay, self, None)

    def _finish(self, value: Any = None) -> None:
        self._next = None
        self.sim._live_records -= 1
        self.trigger(value)

    def _step(self, payload: Any) -> None:
        try:
            self._next(payload)
        except BaseException as exc:  # noqa: BLE001 - must capture sim faults
            self._next = None
            self.sim._live_records -= 1
            raise ProcessFailed(self.name, exc) from exc


# Loop-exit reasons of :meth:`Simulator._loop`.
_DRAINED = 0
_MAX_EVENTS = 1


class Simulator:
    """Deterministic single-threaded discrete-event simulator.

    Delayed wake-ups go through a binary heap of ``(time, seq, process,
    payload)`` entries; zero-delay wake-ups (event triggers, signal
    pulses, spawns — roughly half of all events in flag-heavy runs) go
    through a FIFO fast lane that skips the heap entirely. Because
    simulated time never decreases, the fast lane is sorted by ``(time,
    seq)`` by construction, and the dispatch loop merge-pops the two
    queues, preserving exactly the global ``(time, seq)`` order of a
    heap-only kernel.

    An exception inside any process, record or timer aborts :meth:`run`
    at once with :class:`ProcessFailed`.

    Fused delay chains (tuple yields) and timer arming collapse into
    single kernel wake-ups unless the ``REPRO_FUSE`` environment
    variable, read at construction, turns fusion off; then every chain
    element is replayed as its own wake-up, reproducing the legacy
    per-yield event stream. Simulated times are bit-identical either
    way — only event counts differ.

    Tracing lives here too: :attr:`tracer` collects categorized trace
    records once a category is enabled, and every component reaches it
    through the ``sim`` it already holds.
    """

    def __init__(self):
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Any, Any]] = []
        #: Zero-delay fast lane: appended in seq order at nondecreasing
        #: times, hence always sorted by (time, seq).
        self._fast: deque[tuple[float, int, Any, Any]] = deque()
        self._seq = 0
        self._fuse = os.environ.get(FUSE_ENV_VAR, "1").strip().lower() not in (
            "0", "false", "off",
        )
        #: Spawned, unfinished processes in spawn order (an insertion-
        #: ordered dict, so a deadlock report lists them the same way on
        #: every interpreter).
        self._live_processes: dict[Process, None] = {}
        #: Armed timers and unfinished records; with the live processes
        #: they make up ``sim.processes_live``.
        self._live_records = 0
        self._spawned = 0
        self.events_processed = 0
        #: Kernel wake-ups saved by delay fusion (chain elements folded
        #: into their chain's single wake-up, len(chain)-1 per chain).
        self.fused_yields = 0
        # Event-source attribution: process names are normalized to a
        # small label set at spawn ("rank-17" -> "rank") and interned to
        # an index, so the dispatch loop pays one list-index increment
        # per event instead of a dict lookup on a string.
        self._source_ids: dict[str, int] = {"proc": 0}
        self._source_names: list[str] = ["proc"]
        self._source_events: list[int] = [0]
        #: Timer name -> source id of ``daemon:<name>``.
        self._timer_sources: dict[str, int] = {}
        #: Source id of ``call_at``, interned at the first timed callback
        #: so the attribution table keeps its first-use order.
        self._call_at_source: Optional[int] = None
        #: Trace records of every component of this simulation.
        self.tracer = Tracer()

    # -- process management -------------------------------------------------

    def spawn(
        self,
        gen: Generator,
        name: Optional[str] = None,
        shard: Any = None,
    ) -> Process:
        """Register a generator as a process, starting at the current time.

        ``shard`` is accepted and ignored. The benchmark's layer tracer
        (``benchmarks/e2e/layertrace.py``) wraps this method and forwards
        a fourth positional argument; the parameter goes once that
        wrapper stops passing it (ROADMAP, next benchmark change).
        """
        if not hasattr(gen, "send"):
            raise TypeError(f"spawn() needs a generator, got {type(gen).__name__}")
        self._spawned += 1
        proc = Process(self, gen, name or f"proc-{self._spawned}")
        proc._source = self._source_of(proc.name)
        self._live_processes[proc] = None
        self.schedule(0.0, proc, None)
        return proc

    def _source_of(self, name: str) -> int:
        """Intern a process name's event-source label, returning its index.

        The label is the name up to the first ``.`` with any trailing
        digits and separators stripped (``"rank-17"`` → ``"rank"``,
        ``"proc-2041"`` → ``"proc"``), so the attribution table stays a
        handful of entries however many processes a run spawns.
        """
        ids = self._source_ids
        idx = ids.get(name)
        if idx is not None:
            return idx
        label = name.partition(".")[0].rstrip("0123456789").rstrip("-_") or name
        idx = ids.get(label)
        if idx is None:
            idx = len(self._source_names)
            self._source_names.append(label)
            self._source_events.append(0)
            ids[label] = idx
        ids[name] = idx
        return idx

    def event(self, name: str = "event") -> Event:
        return Event(self, name)

    def signal(self, name: str = "signal") -> Signal:
        return Signal(self, name)

    def metrics_snapshot(self) -> dict[str, float]:
        """Kernel-level counters for the unified observability surface.

        Besides the ``sim.*`` series: ``kernel.fused_yields`` (wake-ups
        saved by delay fusion) and ``kernel.events{source=…}`` (dispatched
        events per normalized process name).
        """
        snap = {
            "sim.now_ns": self.now,
            "sim.events": float(self.events_processed),
            "sim.processes_spawned": float(self._spawned),
            "sim.processes_live": float(len(self._live_processes) + self._live_records),
            "kernel.fused_yields": float(self.fused_yields),
        }
        names = self._source_names
        for idx, count in enumerate(self._source_events):
            if count:
                snap[f"kernel.events{{source={names[idx]}}}"] = float(count)
        return snap

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, proc: "Process", payload: Any) -> None:
        """Queue a wake-up of ``proc`` with ``payload`` in ``delay`` ns."""
        self._seq += 1
        now = self.now
        if delay == 0.0:
            self._fast.append((now, self._seq, proc, payload))
        else:
            heapq.heappush(self._queue, (now + delay, self._seq, proc, payload))

    def schedule_at(self, t: float, proc: "Process", payload: Any) -> None:
        """Queue a wake-up at *absolute* time ``t`` (fused delay chains)."""
        self._seq += 1
        if t == self.now:
            self._fast.append((t, self._seq, proc, payload))
        else:
            heapq.heappush(self._queue, (t, self._seq, proc, payload))

    def _arm(self, record: Any) -> None:
        """Queue a one-record wake-up ``record.delay`` ns from now.

        Fused, the record is scheduled once. Unfused, it first takes the
        zero-delay wake-up a spawned process's start would, then
        schedules its delay from there — the legacy two-event stream.
        Either way it counts as a spawned process, as it used to be one.
        """
        self._spawned += 1
        if self._fuse:
            self.schedule(record.delay, record, None)
        else:
            self.schedule(0.0, record, _ARM)

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run a plain callback at absolute simulated time ``when``.

        It fires at ``now + max(0, when - now)``, attributed to the
        ``call_at`` event source. A NaN ``when`` raises ValueError.
        """
        if when != when:
            raise ValueError(f"call_at time is NaN: {when}")
        self._arm(_Callback(self, fn, max(0.0, when - self.now), self._call_at_id()))

    def trigger_at(
        self,
        when: float,
        value: Any = None,
        before: Optional[Callable[[], None]] = None,
        name: str = "event",
    ) -> Event:
        """Return an :class:`Event` that triggers itself at time ``when``.

        At ``now + max(0, when - now)`` it runs ``before()`` (if given)
        and then triggers with ``value`` — the timing and event stream of
        a :meth:`call_at` callback doing both. Posted transfers
        (:meth:`repro.sim.resources.Link.post`) arrive this way. A NaN
        ``when`` raises ValueError.
        """
        if when != when:
            raise ValueError(f"trigger_at time is NaN: {when}")
        source = self._call_at_source
        if source is None:
            source = self._call_at_id()
        event = _TimedEvent(self, name, max(0.0, when - self.now), before, value, source)
        self._arm(event)
        return event

    def _call_at_id(self) -> int:
        """The ``call_at`` event-source id (interned once per simulator)."""
        source = self._call_at_source
        if source is None:
            source = self._call_at_source = self._source_of("call_at")
        return source

    def after(
        self, delay_ns: float, fn: Callable[[], None], name: str = "timer"
    ) -> TimerHandle:
        """Arm a cancellable timeout: run ``fn()`` in ``delay_ns`` ns.

        Returns a :class:`TimerHandle`; ``handle.cancel()`` before expiry
        disarms it without running the callback. This is the watchdog
        primitive of the fault/resilience layer (retry timeouts, stalled
        vDMA copies). Its events are attributed to ``daemon:<name>``, and
        an armed timer never counts as a deadlocked process.
        """
        if not delay_ns >= 0:
            what = "negative" if delay_ns < 0 else "NaN"
            raise ValueError(f"{what} timer delay: {delay_ns}")
        source = self._timer_sources.get(name)
        if source is None:
            source = self._timer_sources[name] = self._source_of("daemon:" + name)
        handle = TimerHandle(self, fn, delay_ns, name, source)
        self._live_records += 1
        self._arm(handle)
        return handle

    # -- main loop -----------------------------------------------------------

    def _loop(self, max_events: Optional[int]) -> int:
        """Merge-pop the fast lane and the heap in global (time, seq) order.

        Dispatches until ``max_events`` are dispatched or both queues
        drain.

        A process woken without a payload is resumed here and its three
        hot yields are queued here (see the module docstring); anything
        else goes to the process's cold path. ``_seq`` is read afresh
        after each resume, because the resumed code schedules too.
        """
        queue = self._queue
        fast = self._fast
        pop = heapq.heappop
        push = heapq.heappush
        sources = self._source_events
        fuse = self._fuse
        events = 0
        while True:
            if fast:
                if queue and queue[0] < fast[0]:
                    entry = queue[0]
                    from_heap = True
                else:
                    entry = fast[0]
                    from_heap = False
            elif queue:
                entry = queue[0]
                from_heap = True
            else:
                return _DRAINED
            if from_heap:
                pop(queue)
            else:
                fast.popleft()
            proc = entry[2]
            if proc.done._triggered:
                continue  # stale wake-up for an already-finished process
            now = self.now = entry[0]
            payload = entry[3]
            if payload is None and proc.__class__ is Process:
                try:
                    command = proc.gen.send(None)
                except BaseException as exc:  # noqa: BLE001 - must capture sim faults
                    proc._exit(exc)
                else:
                    cls = command.__class__
                    if cls is float and command > 0.0:
                        self._seq = seq = self._seq + 1
                        push(queue, (now + command, seq, proc, None))
                    elif cls is tuple and command:
                        head = command[0]
                        if head.__class__ is float and fuse:
                            # Summed in sequential order, as Process._dispatch.
                            t = now
                            for d in command:
                                if not d >= 0:
                                    proc._dispatch(command)  # raises InvalidYield
                                t = t + d
                            self.fused_yields += len(command) - 1
                            self._seq = seq = self._seq + 1
                            if t == now:
                                fast.append((t, seq, proc, None))
                            else:
                                push(queue, (t, seq, proc, None))
                        elif (
                            head.__class__ is Signal
                            and len(command) == 2
                            and command[1] >= 0
                        ):
                            head._waiters.append(_ChainWaiter(proc, command))
                        else:
                            proc._dispatch(command)
                    else:
                        proc._dispatch(command)
            else:
                proc._step(payload)
            self.events_processed += 1
            sources[proc._source] += 1
            if max_events is not None:
                events += 1
                if events >= max_events:
                    return _MAX_EVENTS

    def run(self, max_events: Optional[int] = None) -> float:
        """Process events until the queue drains or ``max_events``.

        Returns the simulated time at which the run stopped. Raises
        :class:`DeadlockError` if the queue drains while spawned
        processes remain blocked (armed timers and records never count).
        """
        if self._loop(max_events) == _DRAINED and self._live_processes:
            raise DeadlockError([p.name for p in self._live_processes])
        return self.now
