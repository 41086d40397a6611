"""The package's export list: every name resolves and a star import binds it."""

import qmine


def test_every_exported_name_resolves():
    assert [name for name in qmine.__all__ if not hasattr(qmine, name)] == []
    assert len(set(qmine.__all__)) == len(qmine.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from qmine import *", namespace)
    assert set(qmine.__all__) <= namespace.keys()
