"""The four value types are frozen named tuples: fields by position or
keyword, equality and hashing by value, a ``Name(field=value, ...)``
repr, and pickling into pool workers."""

from __future__ import annotations

import pickle

import pytest

from minorsieve import CatalogEntry, EnumFilter, Graph, Property, \
    SearchReport, Witness, generate_graphs

K4 = Graph.complete(4)

#: (positional construction, keyword construction, expected repr)
SAMPLES = {
    "EnumFilter": (
        EnumFilter(8, 2, True, "nonplanar"),
        EnumFilter(order=8, min_degree=2, connected=True,
                   planarity="nonplanar"),
        "EnumFilter(order=8, min_degree=2, connected=True, "
        "planarity='nonplanar')"),
    "Witness": (
        Witness("edge", (0, 1)),
        Witness(kind="edge", value=(0, 1)),
        "Witness(kind='edge', value=(0, 1))"),
    "SearchReport": (
        SearchReport(Property.NE, (5,), 0, False, "nonplanar", 1, (K4,), 0.5),
        SearchReport(prop=Property.NE, orders=(5,), min_degree=0,
                     connected=False, planarity="nonplanar", scanned=1,
                     found=(K4,), wall_time=0.5),
        "SearchReport(prop=<Property.NE: 'NE'>, orders=(5,), min_degree=0, "
        "connected=False, planarity='nonplanar', scanned=1, "
        "found=(Graph(order=4, size=6),), wall_time=0.5)"),
    "CatalogEntry": (
        CatalogEntry("K4", K4, frozenset({"planar"}), "complete"),
        CatalogEntry(id="K4", graph=K4, claims=frozenset({"planar"}),
                     construction="complete"),
        "CatalogEntry(id='K4', graph=Graph(order=4, size=6), "
        "claims=frozenset({'planar'}), construction='complete')"),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_value_type_is_a_frozen_record(name):
    positional, keyword, text = SAMPLES[name]
    assert type(positional).__name__ == name
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    assert repr(positional) == text
    field = positional._fields[0]
    with pytest.raises(AttributeError):
        setattr(positional, field, None)
    with pytest.raises(AttributeError):
        positional.extra = None  # no instance dict
    assert pickle.loads(pickle.dumps(positional)) == positional


def test_filter_defaults_and_replace():
    filt = EnumFilter(8, planarity="nonplanar")
    assert filt == EnumFilter(order=8, min_degree=0, connected=False,
                              planarity="nonplanar")
    assert filt._replace(min_degree=3).min_degree == 3
    with pytest.raises(ValueError):
        filt._replace(planarity="almost")  # validated like a new filter


def test_filter_pickles_into_pool_workers():
    # a minimum degree streams the level, so every task carries the filter
    filt = EnumFilter(order=7, min_degree=2, connected=True)
    serial = [g.rows() for g in generate_graphs(filt, jobs=1)]
    assert [g.rows() for g in generate_graphs(filt, jobs=2)] == serial
    assert serial
