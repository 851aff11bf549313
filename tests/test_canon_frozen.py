"""Canonical labelings are frozen: keys and permutations never drift.

Every canonical key, graph6 line and key order the package emits comes
from ``canonical_data``.  A speedup of the search must leave its
``(key, perm)`` output unchanged, label for label, so these digests were
recorded once and every later version must reproduce them.  The
discovered generators are frozen too: they are the automorphisms found
at tied leaves, in the order found, so equal generator lists show that
the search visited the same leaves in the same order, not only that it
ended at the same one.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from minorsieve import all_entries
from minorsieve.canon import canonical_data
from minorsieve.generate import universe_level

from conftest import random_graph

GOLDEN = {
    "classes_1_to_7": "1452d0608debcc5bef8ddff638b7448c6bcc022d9d0e7b5edf336d20dc79417d",
    "catalog": "8cca1f04a3ffe81e7d220aeded7666ae4bc88079f4835581306f14692f597d2d",
    "random_2000": "e5a149e767633cd9dd9fb5384bffbea4d18606789726a0763c2ae16ea259c16a",
}

GOLDEN_WITH_GENERATORS = {
    "classes_1_to_7": "31dc77275c249b6e163e4de46dd95a69948dd232f9eab18260243b6bf326eb52",
    "catalog": "ec384e11f4d0c785a465c19cdb8e88773ac055e4cf299d452f5a332c8108ad89",
    "random_2000": "a3bec6a1a81605ea6314d0d27f6435aa3842eefdb49500ed43bcf6f2635a602f",
}


def _digest(rows_iter) -> str:
    h = hashlib.sha256()
    for rows in rows_iter:
        key, perm, _ = canonical_data(tuple(rows))
        h.update(len(key).to_bytes(2, "big") + key)
        h.update(bytes(perm))
    return h.hexdigest()


def _digest_with_generators(rows_iter) -> str:
    h = hashlib.sha256()
    for rows in rows_iter:
        key, perm, gens = canonical_data(tuple(rows))
        h.update(len(key).to_bytes(2, "big") + key)
        h.update(bytes(perm))
        h.update(len(gens).to_bytes(2, "big"))
        for gen in gens:
            h.update(bytes(gen))
    return h.hexdigest()


def _classes():
    for n in range(1, 8):
        yield from universe_level(n)


def _catalog():
    for e in all_entries():
        yield e.graph.rows()


def _random():
    rng = random.Random(20260518)
    for _ in range(2000):
        yield random_graph(rng, rng.randint(2, 12)).rows()


@pytest.mark.parametrize("name,source", [
    ("classes_1_to_7", _classes),
    ("catalog", _catalog),
    ("random_2000", _random),
])
def test_canonical_data_is_frozen(name, source):
    assert _digest(source()) == GOLDEN[name]


@pytest.mark.parametrize("name,source", [
    ("classes_1_to_7", _classes),
    ("catalog", _catalog),
    ("random_2000", _random),
])
def test_discovered_generators_are_frozen(name, source):
    assert _digest_with_generators(source()) == GOLDEN_WITH_GENERATORS[name]
