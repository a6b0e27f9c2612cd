import mtdist


def test_every_export_resolves():
    missing = [name for name in mtdist.__all__ if not hasattr(mtdist, name)]
    assert missing == []
    assert len(set(mtdist.__all__)) == len(mtdist.__all__)
    namespace = {}
    exec("from mtdist import *", namespace)
    assert set(mtdist.__all__) <= set(namespace)
