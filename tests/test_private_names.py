"""Private names stay private: no module of the package imports a name
that starts with an underscore from another of its modules.  Dunder
names such as __version__ are public by convention."""

import ast
from pathlib import Path

import pwmlp


def _is_package_module(node):
    """True for a relative import, or an absolute one from pwmlp."""
    module = node.module or ""
    return node.level > 0 or module == "pwmlp" or module.startswith("pwmlp.")


def _private_imports(path):
    """(line, module, name) for each import of a private name from the
    package, relative or absolute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.lineno, "." * node.level + (node.module or ""), alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and _is_package_module(node)
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


def test_no_module_imports_a_private_name_of_another():
    sources = sorted(Path(pwmlp.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    found = {path.name: _private_imports(path) for path in sources}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_guard_sees_a_private_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .oracle import (\n    BOX,\n    _STRIDE,\n)\n"
                    "from . import _hidden, __version__\n"
                    "from numpy import _core\n"
                    "from pwmlp.oracle import _window\n"
                    "from pwmlp import _cache\n"
                    "from pwmlpx import _other\n")
    assert _private_imports(path) == [(1, ".oracle", "_STRIDE"),
                                      (5, ".", "_hidden"),
                                      (7, "pwmlp.oracle", "_window"),
                                      (8, "pwmlp", "_cache")]
