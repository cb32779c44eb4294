"""The package namespace: what `from neutral_lab import *` binds."""

import neutral_lab


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from neutral_lab import *", namespace)
    missing = [name for name in neutral_lab.__all__ if name not in namespace]
    assert missing == []
    assert len(set(neutral_lab.__all__)) == len(neutral_lab.__all__)
    assert [name for name in neutral_lab.__all__ if name.startswith("_")] == []
