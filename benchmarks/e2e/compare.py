"""Compare run documents of a parent commit and a change, metric by metric.

    python3 benchmarks/e2e/compare.py --parent p1.json p2.json ... \\
        --change c1.json c2.json ...

Pass the documents ``run.py`` wrote, in the order the runs alternated:
pair *i* is ``(parent[i], change[i])`` and should share a seed. For each
(workload, metric) the table shows both sides' medians and quartiles over
runs, the share of pairs the change won (ties count for neither side)
and a verdict:

* ``improved`` — over at least ten pairs, the change won at least 9 in
  10 and its median beats the parent's by more than the parent's own
  quartile spread;
* ``regressed`` — the change's median is worse by more than the bound;
* ``unresolved`` — the parent's spread is wider than the bound, so "no
  worse" cannot be shown (unless every change run beats every parent run);
* ``no worse within bound`` — otherwise.

Simulated metrics (bound 0) compare pair by pair and must be identical,
or better in every pair. Metrics without a bound are only reported. The
last line says whether each workload's ``sim_digest`` matched in every
pair. Exit code 1 if anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402

#: Fewest pairs on which a gain may be claimed.
MIN_GAIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    s = spec.summary(values)
    return s["q1"], s["value"], s["q3"]


def verdict(metric: spec.Metric, parent: list[float], change: list[float]) -> tuple[str, float]:
    """``(verdict, change win fraction)`` for one metric of one workload."""
    sign = 1.0 if metric.better == "lower" else -1.0  # sign * delta > 0: worse
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_frac = wins / len(pairs)
    if metric.bound is None:
        return "reported", win_frac
    if metric.bound == 0:
        if losses:
            return "regressed", win_frac
        return ("improved" if wins == len(pairs) else "identical" if not wins
                else "no worse within bound"), win_frac
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    scale = abs(p_med) or 1.0
    if (len(pairs) >= MIN_GAIN_PAIRS and win_frac >= 0.9
            and sign * (p_med - c_med) > p_q3 - p_q1):
        return "improved", win_frac
    if sign * (c_med - p_med) / scale > metric.bound:
        return "regressed", win_frac
    every_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if (p_q3 - p_q1) / scale > metric.bound and not every_better:
        return "unresolved", win_frac
    return "no worse within bound", win_frac


def _values(docs: list[dict], workload: str, section: str, name: str):
    out = []
    for doc in docs:
        entry = doc["workloads"][workload].get(section, {}).get(name)
        if entry is None:
            return None
        out.append(entry["value"])
    return out


def compare(parent: list[dict], change: list[dict]) -> tuple[list, dict]:
    """Rows ``(workload, metric, parent stats, change stats, win, verdict)``
    and, per workload, how many pairs had the same ``sim_digest``.

    Per-layer rows appear only for traced documents; untraced ones have
    no ``layers`` section."""
    rows, digests = [], {}
    workloads = [w for w in spec.WORKLOADS
                 if all(w in d["workloads"] for d in parent + change)]
    for w in workloads:
        metrics = [("metrics", m) for m in spec.end_to_end() + spec.detail(w)]
        metrics += [("layers", m) for m in spec.per_layer()]
        for section, metric in metrics:
            p, c = _values(parent, w, section, metric.name), _values(change, w, section, metric.name)
            if p is None or c is None:
                continue
            result, win = verdict(metric, p, c)
            rows.append((w, metric, quartiles(p), quartiles(c), win, result))
        digests[w] = sum(
            1 for a, b in zip(parent, change)
            if a["workloads"][w].get("sim_digest") == b["workloads"][w].get("sim_digest")
        )
    return rows, digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("pass as many change documents as parent documents")
    parent = [json.loads(p.read_text()) for p in args.parent]
    change = [json.loads(p.read_text()) for p in args.change]
    rows, digests = compare(parent, change)

    def cell(q):
        return f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':14s} {'metric':26s} {'unit':8s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>5s}  verdict")
    for w, metric, p, c, win, result in rows:
        print(f"{w:14s} {metric.name:26s} {metric.unit:8s} {cell(p):34s} {cell(c):34s} "
              f"{win:5.0%}  {result}")
    pairs = len(parent)
    print("sim_digest: " + ", ".join(
        f"{w} {'matched' if n == pairs else f'differs in {pairs - n}/{pairs} pairs'}"
        for w, n in digests.items()))
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
