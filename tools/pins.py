"""One pin runner for ``FINGERPRINTS.json`` and the golden fixtures.

A pin set is a JSON file of ``case -> result`` plus a table of
``case -> fn() -> result``. :func:`run` calls each case with delay
fusion on, which must equal its pin on every field, then off, which
must equal the fused run on every field but :data:`FUSION_VARIANT`.
A pin with no case fails, and so does a case with no pin. Drift reads
``case.field: pinned -> fresh`` under one heading per layer: a series'
metric prefix (``pcie``, ``kernel``, ...), else ``run``. :func:`main`
is the command line (``--update`` re-pins and prints old -> new); it
replays the fused and the unfused runs side by side in two spawned
worker processes, one per mode, and prints each worker's peak RSS.
:func:`check` is the pytest entry; it replays in-process.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
from functools import partial
from pathlib import Path
from typing import Callable, Mapping

from repro.sim.engine import FUSE_ENV_VAR

#: Fields fusion may change: event counts, ``outcome_digest`` (it hashes
#: per-job event counts) and the kernel's event-count series.
FUSION_VARIANT = {"events", "events_sum", "outcome_digest"}
FUSION_VARIANT_SERIES = ("kernel.", "sim.events")

Cases = Mapping[str, Callable[[], dict]]


def _leaves(doc: dict, path: tuple = ()):
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _diff(pinned: dict, fresh: dict, invariant_only: bool = False):
    """``(layer, "field: pinned -> fresh")`` for every leaf that differs."""
    old, new = dict(_leaves(pinned)), dict(_leaves(fresh))
    out = []
    for path in sorted(old.keys() | new.keys()):
        field, name = path[-1], ".".join(path)
        if invariant_only and (
            field in FUSION_VARIANT or field.startswith(FUSION_VARIANT_SERIES)
        ):
            continue
        if path not in new:
            line = f"{name}: missing from fresh run (baseline {old[path]!r})"
        elif path not in old:
            line = f"{name}: new field not in baseline (fresh {new[path]!r})"
        elif old[path] != new[path]:
            line = f"{name}: {old[path]!r} -> {new[path]!r}"
        else:
            continue
        metric = field.split("{")[0]
        out.append((metric.split(".")[0] if "." in metric else "run", line))
    return out


def drift(pinned: dict, fresh: dict, invariant_only: bool = False) -> list[str]:
    """Every field that changed, vanished or appeared (empty = equal)."""
    return [line for _layer, line in _diff(pinned, fresh, invariant_only)]


def report(title: str, drifts) -> list[str]:
    """One ``layer: title:`` heading per layer, its drifted fields below."""
    lines = []
    for layer in sorted({layer for layer, _line in drifts}):
        lines.append(f"{layer}: {title}:")
        lines += [f"    {line}" for lay, line in drifts if lay == layer]
    return lines


def _replay(case: Callable[[], dict], fuse: bool) -> dict:
    saved = os.environ.get(FUSE_ENV_VAR)
    os.environ[FUSE_ENV_VAR] = "1" if fuse else "0"
    try:
        return case()
    finally:
        if saved is None:
            del os.environ[FUSE_ENV_VAR]
        else:
            os.environ[FUSE_ENV_VAR] = saved


def _replays(cases: Cases, names: list[str]):
    """``(name, fused, unfused)`` per case, in order, in this process."""
    for name in names:
        yield name, _replay(cases[name], fuse=True), _replay(cases[name], fuse=False)


def _replay_all(conn, cases: Cases, names: list[str], fuse: bool) -> None:
    """Worker body: replay every case in one fusion mode and send
    ``(True, result)`` per case, then ``(True, peak RSS in kB)``; or
    ``(False, exception)`` and stop."""
    os.environ[FUSE_ENV_VAR] = "1" if fuse else "0"
    try:
        for name in names:
            conn.send((True, cases[name]()))
        conn.send((True, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
    except Exception as exc:  # re-raised by the parent
        conn.send((False, exc))
    finally:
        conn.close()


def _worker_replays(cases: Cases, names: list[str], peak_rss_kb: dict):
    """:func:`_replays` with the fused runs in one worker process and the
    unfused runs in another. The workers are spawned, so each case must
    pickle (a module-level function or a ``partial`` of one). Once every
    case replayed, ``peak_rss_kb`` maps each worker's mode to its peak
    RSS."""
    context = multiprocessing.get_context("spawn")
    subset = {name: cases[name] for name in names}
    workers = []
    try:
        for fuse in (True, False):
            reader, writer = context.Pipe(duplex=False)
            proc = context.Process(target=_replay_all, args=(writer, subset, names, fuse))
            proc.start()
            writer.close()
            workers.append((proc, reader))
        for name in names:
            results = []
            for _proc, reader in workers:
                ok, value = reader.recv()
                if not ok:
                    raise value
                results.append(value)
            yield name, *results
        for mode, (_proc, reader) in zip(("fused", "unfused"), workers):
            _ok, peak_rss_kb[mode] = reader.recv()
    finally:
        for proc, reader in workers:
            reader.close()
            if proc.is_alive():
                proc.terminate()
            proc.join()


def run(cases: Cases, pinned: dict | None, names: list[str] | None = None,
        source: str = "the pin file") -> tuple[dict, list[str]]:
    """Replay ``names`` (default: all); returns (fused results, failures).

    ``pinned=None`` (``--update``) skips the comparison with the pins.
    """
    return _compare(_replays, cases, pinned, names, source)


def _compare(replays, cases: Cases, pinned: dict | None, names: list[str] | None,
             source: str) -> tuple[dict, list[str]]:
    """:func:`run`, replaying through ``replays`` (:func:`_replays` or
    :func:`_worker_replays`)."""
    names = sorted(cases) if names is None else names
    fresh, pin_drift, fusion_drift = {}, [], []
    for name, fused, unfused in replays(cases, names):
        fresh[name] = fused
        moved = _diff({name: fused}, {name: unfused}, invariant_only=True)
        drifted = []
        if pinned is not None and name in pinned:
            drifted = _diff({name: pinned[name]}, {name: fused})
        fusion_drift += moved
        pin_drift += drifted
        status = "DRIFT" if moved or drifted else "ok"
        fused_events, unfused_events = fused.get("events"), unfused.get("events")
        if fused_events != unfused_events:
            status += f" (events {unfused_events} unfused -> {fused_events} fused)"
        print(f"{name:{max(map(len, names))}s} {status}")
    failures = []
    if pinned is not None:
        failures += [f"{name}: no pinned fingerprint (run --update)"
                     for name in sorted(set(cases) - set(pinned))]
        failures += [f"{name}: pinned in {source} but no such scenario"
                     for name in sorted(set(pinned) - set(cases))]
    failures += report("fingerprint drifted (pinned -> fresh)", pin_drift)
    failures += report("unfused replay differs from the fused run (nondeterministic, "
                       "or fusion moved it) (fused -> unfused)", fusion_drift)
    return fresh, failures


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def check(path: Path, cases: Cases, name: str | None = None) -> None:
    """Assert case ``name`` replays its pin; without one, that the pins
    and the cases match one to one."""
    pinned = load(path)
    if name is not None:
        cases = {name: cases[name]}
        pinned = {k: v for k, v in pinned.items() if k == name}
    _fresh, failures = run(cases, pinned, [] if name is None else None, path.name)
    assert not failures, "\n".join(failures)


def main(path: Path, cases: Cases, argv: list[str] | None = None,
         select: str | None = None) -> int:
    """Check every case (or those picked by the ``--{select}`` flag)."""
    parser = argparse.ArgumentParser(description=f"Replay the pins of {path.name}.")
    if select:
        parser.add_argument(f"--{select}", dest="names", action="append",
                            choices=sorted(cases), metavar="NAME",
                            help=f"check only this {select} (repeatable)")
    parser.add_argument("--update", action="store_true",
                        help=f"rerun every case, rewrite {path.name}, print old -> new")
    args = parser.parse_args(argv)
    names = getattr(args, "names", None)
    if args.update and names:
        parser.error(f"--update reruns every case; drop --{select}")

    old = load(path) if path.exists() else {}
    peak_rss_kb: dict[str, int] = {}
    fresh, failures = _compare(partial(_worker_replays, peak_rss_kb=peak_rss_kb), cases,
                               None if args.update else old, names, path.name)
    for mode, kb in peak_rss_kb.items():
        print(f"{mode} worker: peak RSS {kb / 1024:.1f} MB")
    if failures:
        print(f"\n{path.name} FAILED:\n" + "\n".join(f"  {f}" for f in failures))
        return 1
    if args.update:
        table = report("re-pinned (old -> new)", _diff(old, fresh))
        print("\n" + "\n".join(table or ["no pinned value changed"]))
        path.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    else:
        print(f"\n{path.name}: every pin replayed")
    return 0
