import minkruled


def test_public_names_are_unique_and_resolve():
    names = minkruled.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(minkruled, name)] == []
    namespace = {}
    exec("from minkruled import *", namespace)  # raises on a name the package lacks
    assert set(names) <= namespace.keys()
