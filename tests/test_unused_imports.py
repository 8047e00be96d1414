"""Every name a module of the package imports is used in that module.

The package runs no linter, so an import left behind by a deletion stays
unnoticed; this scan of each module's syntax tree is the lint.  A name
counts as used when the module reads it, lists it in ``__all__`` (a
re-export) or names it inside a string annotation.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set

import pytest

import repro

SRC = Path(repro.__file__).parent
MODULES = sorted(SRC.rglob("*.py"))


def _imported(tree: ast.Module) -> Dict[str, int]:
    """Each name an import statement binds, with the line of its import."""
    names: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> Set[str]:
    """Names the module reads, re-exports, or names in string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(
                    name.id
                    for name in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(name, ast.Name)
                )
    return used


def unused_imports(path: Path) -> Dict[str, int]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    return {name: line for name, line in _imported(tree).items() if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_every_import_is_used(path):
    assert unused_imports(path) == {}


class TestTheScan:
    def _scan(self, tmp_path, source):
        path = tmp_path / "module.py"
        path.write_text(source, encoding="utf-8")
        return unused_imports(path)

    def test_flags_an_unused_import(self, tmp_path):
        source = "import os\nimport json\nfrom typing import List, Optional\nx: List[int] = json.loads('[]')\n"
        assert self._scan(tmp_path, source) == {"os": 1, "Optional": 3}

    def test_reexports_and_string_annotations_count(self, tmp_path):
        source = (
            "from __future__ import annotations\n"
            "from typing import TYPE_CHECKING\n"
            "from .a import exported\n"
            "if TYPE_CHECKING:\n"
            "    from .b import Graph\n"
            "__all__ = ['exported']\n"
            "def f(g: 'Graph | None') -> None: ...\n"
        )
        assert self._scan(tmp_path, source) == {}

    def test_dotted_import_binds_its_head(self, tmp_path):
        assert self._scan(tmp_path, "import os.path\nprint(os.path.sep)\n") == {}
        assert self._scan(tmp_path, "import os.path as osp\n") == {"osp": 1}
