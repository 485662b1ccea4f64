"""The package's public names."""
import quintiq


def test_every_exported_name_resolves():
    assert [name for name in quintiq.__all__ if not hasattr(quintiq, name)] == []
    assert len(set(quintiq.__all__)) == len(quintiq.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from quintiq import *", namespace)
    assert set(quintiq.__all__) <= namespace.keys()
