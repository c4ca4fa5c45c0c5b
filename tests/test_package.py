import ast
import contextlib
import importlib
import importlib.util
import inspect
import math
import re
import sys
from collections import defaultdict
from pathlib import Path
from unittest import mock

import pytest

import qviterbi
from qviterbi import CODE_5_7, QvaParams


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
    # a helper, method or property left behind when its last caller is deleted fails here
    root = Path(__file__).resolve().parents[1]
    bodies = {path: ast.parse(path.read_text(encoding="utf-8")).body
              for part in ("src", "tests", "qvbench") for path in (root / part).rglob("*.py")}
    readers = defaultdict(set)  # name -> the top-level statements that read it
    for path, body in bodies.items():
        for at, node in enumerate(body):
            for name in _names_read(node):
                readers[name].add((path, at))
    orphans = []
    for path in sorted((root / "src" / "qviterbi").glob("*.py")):
        for at, node in enumerate(bodies[path]):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not readers[node.name] - {(path, at)}:
                orphans.append(f"{path.name}:{node.name}")
            members = node.body if isinstance(node, ast.ClassDef) else []
            for member in members:
                # a method is read by another statement or by another member of its class
                if (isinstance(member, ast.FunctionDef) and not member.name.startswith("__")
                        and not readers[member.name] - {(path, at)}
                        and not any(member.name in _names_read(other)
                                    for other in members if other is not member)):
                    orphans.append(f"{path.name}:{node.name}.{member.name}")
    assert orphans == []


def test_no_dataclasses_in_the_package():
    # records are NamedTuples: a dataclass compiles its generated methods at import
    importers = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "qviterbi").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                importers.append(path.name)
    assert importers == []


def test_no_module_reads_another_modules_private_name():
    # a module's underscore names are its own: another module goes through a public one
    readers = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "qviterbi").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # sibling modules bound by `from . import x`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [alias.name for alias in node.names]
                modules.update(names if node.module is None else ())
                readers += [f"{path.name}: {node.module}.{name}" for name in names
                            if name.startswith("_") and not name.startswith("__")]
        readers += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")
                    and not node.attr.startswith("__")]
    assert readers == []


@pytest.mark.parametrize(
    "record, field, bad, message",
    [
        (CODE_5_7, "k", 0, "k, n, m must all be positive"),
        (CODE_5_7, "n", 0, "k, n, m must all be positive"),
        (CODE_5_7, "n", 64, "n = 64 outputs exceeds the 63-output limit"),
        (CODE_5_7, "m", 0, "k, n, m must all be positive"),
        (CODE_5_7, "m", 3, "no generator polynomial has degree exactly m"),
        (CODE_5_7, "generators", ((5,),), "generator matrix must be k rows of n masks"),
        (CODE_5_7, "generators", ((-5, 7),), "generator masks must be non-negative"),
        (QvaParams(0.68, 3), "omega", -0.1, "omega must lie in [0, pi]"),
        (QvaParams(0.68, 3), "omega", math.pi + 0.01, "omega must lie in [0, pi]"),
        (QvaParams(0.68, 3), "iterations", 0, "iterations must be at least 1"),
        (QvaParams(0.68, 3), "phase_mode", "nope",
         "phase_mode must be one of ('errors', 'neglog')"),
    ],
)
def test_validated_records_refuse_a_bad_field_however_built(record, field, bad, message):
    fields = record._asdict() | {field: bad}
    for build in (lambda: type(record)(**fields), lambda: type(record)(*fields.values()),
                  lambda: type(record)._make(fields.values()),
                  lambda: record._replace(**{field: bad})):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
    same = record._replace(**{field: getattr(record, field)})
    assert type(same) is type(record) and same == record
