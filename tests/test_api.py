"""The package's public surface."""

import tosca


def test_every_exported_name_resolves():
    missing = [name for name in tosca.__all__ if not hasattr(tosca, name)]
    assert missing == []
    assert len(set(tosca.__all__)) == len(tosca.__all__)
