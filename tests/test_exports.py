"""The package's public names."""

from __future__ import annotations

import minorsieve


def test_every_export_resolves_once():
    namespace: dict = {}
    exec("from minorsieve import *", namespace)  # a stale name raises
    assert all(name in namespace for name in minorsieve.__all__)
    assert len(set(minorsieve.__all__)) == len(minorsieve.__all__)
