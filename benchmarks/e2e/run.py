"""End-to-end benchmark of the vSCC reproduction: five workloads, two clocks.

Run from the repository root::

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --workload bt_spmd --seed 7 --seconds 10
    python3 benchmarks/e2e/run.py --trace              # per-layer numbers

Each workload runs in its own fresh child interpreter (``child.py``), one
at a time. Set-up is measured in that child and in ``SETUP_PROBES``
extra children that only set up; ``setup_s`` is their median. Every
metric is printed by name and unit, the run's document is written to
``--out`` (default under ``benchmarks/out/e2e/``), and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``,
or with ``--trace`` its per-layer metrics. The exit code is 0 only when
every check of every workload passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

SRC = spec.ROOT / "src"
#: Set-up-only children per workload, besides the measuring child.
SETUP_PROBES = 4
#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    """The children's environment: ``src`` first, no ``REPRO_*`` settings,
    a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run ``child.py`` in its own session; return its JSON document.

    On timeout the whole process group (the serve pool included) is
    killed, and waited for, before the error propagates.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE, env=_child_env(), cwd=spec.ROOT,
        start_new_session=True, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child {' '.join(args)} timed out after {timeout:.0f} s")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise ChildFailed(f"child {' '.join(args)} exited {proc.returncode} with no result")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = run_child(common + ["--setup-only"], deadline - time.monotonic())
            setups.append(probe["setup_s"])
    doc = run_child(common + ["--seconds", str(seconds), "--trace", str(trace)],
                    deadline - time.monotonic())
    if not trace:
        setups.append(doc["setup_s"])
        doc.setdefault("metrics", {})["setup_s"] = {**spec.summary(setups), "unit": "s"}
    return doc


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_workload(doc: dict, trace: int) -> None:
    print(f"== {doc['workload']}  seed {doc['seed']}  passes {doc.get('passes', 0)}"
          f"  trace {'on' if trace else 'off'}")
    rows = dict(doc.get("metrics", {}))
    if trace:
        rows.update(doc.get("layers", {}))
    for name, m in rows.items():
        spread = f"  [q1 {_fmt(m['q1'])}, q3 {_fmt(m['q3'])}, n={m['n']}]" if "q1" in m else ""
        print(f"  {name:26s} {_fmt(m['value']):>14s} {m['unit']:8s}{spread}")
    print(f"  {'sim_digest':26s} {doc.get('sim_digest')}")
    print(f"  {'checks':26s} {doc.get('attempted', 0) - doc.get('failed', 0)}"
          f"/{doc.get('attempted', 0)} passed")
    for failure in doc.get("failures", []):
        print(f"  FAILED: {failure}")
    if trace and doc.get("chrome_trace"):
        print(f"  chrome trace: {doc['chrome_trace']}")


def contract_metrics(doc: dict, trace: int) -> dict:
    """The ``BENCHMARK.json`` metrics of one workload: value and unit."""
    declared = spec.per_layer() if trace else spec.end_to_end()
    source = doc.get("layers" if trace else "metrics", {})
    return {m.name: {"value": source[m.name]["value"], "unit": m.unit}
            for m in declared if m.name in source}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS,
                        help="run only this workload (default: all five)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, help="write the run document here")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not spec.BENCHMARK_JSON.is_file():
        print(f"no repro sources under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    seconds = args.seconds if args.seconds is not None else spec.load_benchmark()["run_seconds"]

    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    docs, broken = {}, []
    for name in names:
        try:
            docs[name] = run_workload(name, args.seed, seconds, args.trace, deadline)
        except ChildFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            broken.append(name)
            continue
        print_workload(docs[name], args.trace)

    label = args.workload or "all"
    out = args.out or spec.OUT_DIR / f"{label}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "trace": args.trace, "seconds": seconds,
                               "workloads": docs}, indent=1) + "\n")
    print(f"run document: {out}")
    if broken:
        return 1

    correct = all(doc["correct"] for doc in docs.values())
    attempted = sum(doc["attempted"] for doc in docs.values())
    failed = sum(doc["failed"] for doc in docs.values())
    if args.workload is not None:
        metrics = contract_metrics(docs[args.workload], args.trace)
    else:
        metrics = {f"{name}.{key}": m for name, doc in docs.items()
                   for key, m in contract_metrics(doc, args.trace).items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
