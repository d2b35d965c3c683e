"""The test-side oracles share no code with memdecide.

``exact_accuracy.py`` and ``reference_kernel.py`` are what the simulator is
checked against, so they may import only the standard library and their own
numerical packages: not memdecide, and not a test module, which may import
it.
"""

import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ORACLES = {"exact_accuracy.py": {"numpy", "scipy"}, "reference_kernel.py": {"numpy"}}


def _imported(source):
    """Every module that ``source`` names in an import, ``__import__`` or ``import_module``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        elif isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) in ("__import__", "import_module"):
            yield from (arg.value if isinstance(arg, ast.Constant) else "<dynamic>"
                        for arg in node.args[:1])


def _foreign(source, allowed):
    return sorted({name for name in _imported(source)
                   if name.split(".")[0] not in allowed | sys.stdlib_module_names})


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_imports_only_stdlib_and_its_packages(name):
    assert _foreign((TESTS / name).read_text(), ORACLES[name]) == []


def test_every_import_form_is_seen():
    forms = ["import memdecide", "import memdecide.synapse as s", "from memdecide import x",
             "from memdecide.device import x", "from . import x", "from test_synapse import x",
             "importlib.import_module('memdecide')", "__import__('memdecide')",
             "import_module(name)"]
    for form in forms:
        assert _foreign(form, {"numpy"}), form
    assert _foreign("import math, numpy.linalg\nfrom numpy import exp", {"numpy"}) == []
