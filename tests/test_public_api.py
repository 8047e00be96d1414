"""Top-level API hygiene: every advertised name actually imports.

Walks every module in the ``repro`` package; wherever a module declares
``__all__``, each listed name must resolve with ``getattr``.  This pins
the public surface against the classic refactoring failure mode where a
re-export list silently drifts away from the module contents.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def _iter_module_names():
    yield "repro"
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield module_info.name


_MODULE_NAMES = sorted(set(_iter_module_names()))


@pytest.mark.parametrize("module_name", _MODULE_NAMES)
def test_every_name_in_all_imports(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    assert len(set(exported)) == len(exported), f"{module_name}: duplicate __all__ entries"
    for name in exported:
        assert hasattr(module, name), (
            f"{module_name}.__all__ lists {name!r} but the module does not "
            "define it"
        )


def test_api_package_is_exported_from_repro():
    assert "api" in repro.__all__
    assert repro.api is importlib.import_module("repro.api")


def test_star_import_packages_have_all():
    """The package front doors must declare an explicit __all__."""
    for module_name in (
        "repro",
        "repro.api",
        "repro.analysis",
        "repro.core",
        "repro.graphs",
        "repro.congest",
        "repro.hashing",
    ):
        module = importlib.import_module(module_name)
        assert getattr(module, "__all__", None), f"{module_name} lacks __all__"


def test_package_imports_leave_shared_memory_unloaded():
    """Sweeps and fleet jobs pickle their workloads; nothing maps shared memory."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH", "")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    probe = (
        "import sys, repro, repro.analysis, repro.service; "
        "print('multiprocessing.shared_memory' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
