"""No module of the package calls a BLAS-backed numpy product.

The batched kernels count and intersect boolean rows with AND, popcount
and ``flatnonzero`` instead of matrix products.  A float32 ``@`` for A2's
step-2 edge-set sizes was measured slower end to end: the sweep benchmark
(300 small Theorem-1/2 and naive cells per op on a two-worker pool, 2-vCPU
host) fell from 113–133 to 89–105 cells/s, because OpenBLAS starts its own
threads in every pool worker and they oversubscribe the cores.  The same
tree pinned to one BLAS thread read 207–252, so the product itself was not
the problem, the threads were; the package pins no thread count, so it
uses no BLAS.  This scan of each module's syntax tree fails on ``@``,
``np.dot``, ``np.matmul``, ``np.einsum``, ``np.tensordot``, ``np.inner``,
``np.linalg`` and the ``ndarray.dot`` method.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import pytest

import repro

SRC = Path(repro.__file__).parent
MODULES = sorted(SRC.rglob("*.py"))

#: numpy attributes that dispatch to BLAS/LAPACK.
BLAS_NAMES = frozenset({"dot", "matmul", "einsum", "tensordot", "inner", "linalg"})


def _numpy_aliases(tree: ast.Module) -> set:
    """Names the module binds to the numpy package itself."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    aliases.add(alias.asname or "numpy")
    return aliases


def blas_calls(path: Path) -> List[str]:
    """``"line: what"`` for every BLAS-backed product the module uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    numpy_names = _numpy_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Attribute):
            base = node.value
            on_numpy = isinstance(base, ast.Name) and base.id in numpy_names
            if node.attr == "dot" or (on_numpy and node.attr in BLAS_NAMES):
                found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "numpy"
        ):
            if node.module.startswith("numpy.linalg"):
                found.append(f"{node.lineno}: {node.module}")
            found.extend(
                f"{node.lineno}: {node.module}.{alias.name}"
                for alias in node.names
                if alias.name in BLAS_NAMES
            )
        elif isinstance(node, ast.Import):
            found.extend(
                f"{node.lineno}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("numpy.linalg")
            )
    return sorted(found, key=lambda entry: int(entry.split(":")[0]))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_no_blas_products(path):
    assert blas_calls(path) == []


class TestTheScan:
    def _scan(self, tmp_path, source):
        path = tmp_path / "module.py"
        path.write_text(source, encoding="utf-8")
        return blas_calls(path)

    def test_flags_every_product(self, tmp_path):
        source = (
            "import numpy as np\n"
            "a = np.ones((2, 2))\n"
            "b = a @ a\n"
            "a @= a\n"
            "c = np.dot(a, a) + a.dot(a)\n"
            "d = np.matmul(a, a) + np.einsum('ij,jk', a, a)\n"
            "e = np.tensordot(a, a) + np.inner(a, a)\n"
            "f = np.linalg.norm(a)\n"
        )
        assert self._scan(tmp_path, source) == [
            "3: @",
            "4: @",
            "5: .dot",
            "5: .dot",
            "6: .matmul",
            "6: .einsum",
            "7: .tensordot",
            "7: .inner",
            "8: .linalg",
        ]

    def test_flags_imports_from_numpy(self, tmp_path):
        source = (
            "import numpy.linalg\n"
            "from numpy import dot, ones\n"
            "from numpy.linalg import norm\n"
        )
        assert self._scan(tmp_path, source) == [
            "1: numpy.linalg",
            "2: numpy.dot",
            "3: numpy.linalg",
        ]

    def test_elementwise_and_bitwise_ops_pass(self, tmp_path):
        source = (
            "import numpy as np\n"
            "a = np.ones((2, 2), dtype=bool)\n"
            "b = (a & a) | ~a\n"
            "c = np.flatnonzero(a).sum() * 2\n"
            "inner = 3\n"
        )
        assert self._scan(tmp_path, source) == []
