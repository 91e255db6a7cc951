"""Names that code outside the package looks up in it: the benchmark's traced
call sites and the demos' imports. Neither is run by the other tests, so a
renamed function would otherwise go unnoticed."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import crittuner

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_call_sites_resolve():
    # resolved as perfbench's Tracer does: attribute by attribute from the
    # package, the last one looked up in the owner's own namespace
    missing = []
    for path, _ in _load_spans().CALL_SITES:
        *owner_path, attr = path.split(".")
        owner = crittuner
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(path)
    assert missing == []


def _crittuner_imports(tree):
    """(module, name) for every name a file imports from crittuner; name is
    None for a plain ``import crittuner...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "crittuner":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "crittuner":
                    yield alias.name, None


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_exist(demo):
    imports = list(_crittuner_imports(ast.parse(demo.read_text(), str(demo))))
    assert imports
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{module}.{name}"
