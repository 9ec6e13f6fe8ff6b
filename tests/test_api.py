"""The package's public export list."""

import kgen


def test_every_exported_name_resolves_once():
    namespace = {}
    exec("from kgen import *", namespace)
    assert set(kgen.__all__) <= set(namespace)
    assert len(set(kgen.__all__)) == len(kgen.__all__)
