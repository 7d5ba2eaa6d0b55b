"""Every name a ``repro`` module exports in ``__all__`` resolves.

A deleted function or class that a package still re-exports fails here
by name, before any user's ``from repro.x import *`` does.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    assert [n for n in exported if not hasattr(module, n)] == []
