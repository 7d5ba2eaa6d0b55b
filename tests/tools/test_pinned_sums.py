"""Pinned float sums must not depend on the Python version.

CPython 3.12's builtin ``sum()`` compensates float additions
(Neumaier); before 3.12 it adds left to right. A pin summed with the
builtin holds on one side of that line only. :func:`neumaier_sum`
emulates 3.12's ``sum()`` so any Python can run both.
"""

import builtins
import math
from types import SimpleNamespace

from repro.scenarios import outcome_fingerprint

_builtin_sum = builtins.sum


def neumaier_sum(iterable, /, start=0):
    """CPython 3.12's ``sum()`` over ints and floats: Neumaier-compensated
    once a float enters; anything else goes to the builtin."""
    items = list(iterable)
    numbers = all(type(x) in (int, float) for x in [start, *items])
    if not numbers or not any(type(x) is float for x in [start, *items]):
        return _builtin_sum(items, start)
    total, comp = float(start), 0.0
    for x in map(float, items):
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_the_emulation_compensates():
    tenths = [0.1] * 10
    assert neumaier_sum(tenths) == math.fsum(tenths) == 1.0
    assert neumaier_sum([1, 2, 3]) == 6
    assert neumaier_sum([1e16, 1.0, -1e16]) == 1.0


def _rows():
    return [
        SimpleNamespace(job_id=f"job-{i:03d}", state="completed", sim_now_ns=0.1, events=3)
        for i in range(10)
    ]


def test_outcome_fingerprint_sums_alike_under_either_sum(monkeypatch):
    plain = outcome_fingerprint(_rows())
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    compensated = outcome_fingerprint(_rows())
    assert plain["sim_now_sum_ns"] == compensated["sim_now_sum_ns"] == 1.0
    assert plain == compensated
