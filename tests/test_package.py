import qviterbi


def test_every_export_resolves():
    missing = [name for name in qviterbi.__all__ if not hasattr(qviterbi, name)]
    assert missing == []
    assert len(set(qviterbi.__all__)) == len(qviterbi.__all__)


def test_star_import():
    namespace = {}
    exec("from qviterbi import *", namespace)
    assert set(qviterbi.__all__) <= set(namespace)
