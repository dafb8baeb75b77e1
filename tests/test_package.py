"""The package's public surface: every exported name exists, once."""

import cmcselect


def test_every_export_resolves_once():
    names = cmcselect.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(cmcselect, n)] == []
    # a star import reads __all__, so it fails on any name that does not resolve
    namespace: dict = {}
    exec("from cmcselect import *", namespace)
    assert set(names) <= set(namespace)
