import slicemean


def test_every_export_resolves():
    missing = [name for name in slicemean.__all__ if not hasattr(slicemean, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from slicemean import *", namespace)
    assert set(slicemean.__all__) <= set(namespace)
