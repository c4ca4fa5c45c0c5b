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
