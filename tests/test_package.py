import ast
import contextlib
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from unittest import mock

import qviterbi


def test_every_export_resolves():
    missing = [name for name in qviterbi.__all__ if not hasattr(qviterbi, name)]
    assert missing == []
    assert len(set(qviterbi.__all__)) == len(qviterbi.__all__)


def test_star_import():
    namespace = {}
    exec("from qviterbi import *", namespace)
    assert set(qviterbi.__all__) <= set(namespace)


class ReadNames(dict):
    """A counter's bound arguments that record which names it reads, each a mock."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return mock.MagicMock()


def test_benchmark_layers_resolve_with_the_arguments_their_counters_read(monkeypatch):
    # qvbench/tracing.py wraps these targets by name; an API change must fail here
    path = Path(__file__).resolve().parents[1] / "qvbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("qvbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    for layer, (module, attr, cls, counter, _peak) in tracing.LAYERS.items():
        owner = importlib.import_module(f"qviterbi.{module}")
        target = getattr(getattr(owner, cls) if cls else owner, attr)
        if counter is None:
            continue
        args = ReadNames()
        counter(args, mock.MagicMock(), lambda key, value: None)
        with contextlib.suppress(AttributeError, TypeError):  # only a failure's counter takes None
            counter(args, None, lambda key, value: None)
        assert args.read <= set(inspect.signature(target).parameters), layer


def _names_read(node) -> set[str]:
    """Names, attributes, imported names and identifier strings under node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names.add(sub.value)  # __all__ entries and qvbench/tracing.py targets
    return names


def test_every_top_level_definition_is_referenced():
    # a helper left behind when its last caller is deleted fails here
    root = Path(__file__).resolve().parents[1]
    bodies = {path: ast.parse(path.read_text(encoding="utf-8")).body
              for part in ("src", "tests", "qvbench") for path in (root / part).rglob("*.py")}
    reads = {(path, at): _names_read(node)
             for path, body in bodies.items() for at, node in enumerate(body)}
    orphans = [
        f"{path.name}:{node.name}"
        for path in sorted((root / "src" / "qviterbi").glob("*.py"))
        for at, node in enumerate(bodies[path])
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in names for key, names in reads.items() if key != (path, at))
    ]
    assert orphans == []
