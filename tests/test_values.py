"""The contract of the package's frozen value classes.

Each class is constructed positionally and by keyword, with its defaults;
compares field by field, only with its own class; hashes as its field
tuple; has a ``Name(field=value, ...)`` repr; and refuses assignment and
deletion.  ``IncidenceStructure`` and ``Graph`` keep their derived views in
the instance's ``__dict__``.
"""

import pytest

import splithex.hexagon as hexagon_module
from splithex.cli import VerificationReport
from splithex.geometry import HyperovalPartition, Strata, hyperoval_partitions, strata_for
from splithex.groups import CharacterWitness, InducedAction
from splithex.hexagon import (
    Check,
    Graph,
    HexLine,
    IncidenceStructure,
    Report,
    sphere_sweep,
)

# class, field names, one value per field, defaults of the trailing fields,
# and the repr of cls(*values)
CASES = [
    (VerificationReport, ("version", "pairing", "checks", "millis"),
     ("0.1.0", 1, ("c",), (3.5,)), {},
     "VerificationReport(version='0.1.0', pairing=1, checks=('c',), "
     "millis=(3.5,))"),
    (Strata, ("isotropic", "norm_one", "oval_vectors", "twin_vectors"),
     (frozenset({(0, 0, 1)}), frozenset({(0, 1, 1)}), frozenset(), frozenset({1})),
     {"oval_vectors": None, "twin_vectors": None},
     "Strata(isotropic=frozenset({(0, 0, 1)}), norm_one=frozenset({(0, 1, 1)}), "
     "oval_vectors=frozenset(), twin_vectors=frozenset({1}))"),
    (HyperovalPartition, ("oval", "twin", "index"),
     (frozenset({(1, 0, 0)}), frozenset({(0, 1, 0)}), 2), {},
     "HyperovalPartition(oval=frozenset({(1, 0, 0)}), twin=frozenset({(0, 1, 0)}), "
     "index=2)"),
    (CharacterWitness, ("on_points", "on_lines", "fixed_points", "fixed_lines"),
     ((1, 0), (0, 1), 0, 2), {},
     "CharacterWitness(on_points=(1, 0), on_lines=(0, 1), fixed_points=0, "
     "fixed_lines=2)"),
    (InducedAction, ("group", "offset", "degree"),
     ("G", 63, 63), {},
     "InducedAction(group='G', offset=63, degree=63)"),
    (HexLine, ("kind", "points", "seed"),
     ("oval", frozenset({(0, 0, 1)}), (0, 0, 1)), {},
     "HexLine(kind='oval', points=frozenset({(0, 0, 1)}), seed=(0, 0, 1))"),
    (IncidenceStructure, ("points", "lines", "tags"),
     ((1, 2), (frozenset({1, 2}),), ("t",)), {"tags": None},
     "IncidenceStructure(points=(1, 2), lines=(frozenset({1, 2}),), tags=('t',))"),
    (Check, ("name", "passed", "witness", "detail"),
     ("order", False, 3, (2, 2)), {"witness": None, "detail": None},
     "Check(name='order', passed=False, witness=3, detail=(2, 2))"),
    (Report, ("checks",),
     ((Check("order", True),),), {},
     "Report(checks=(Check(name='order', passed=True, witness=None, "
     "detail=None),))"),
    (Graph, ("adjacency",),
     (((1,), (0,)),), {},
     "Graph(adjacency=((1,), (0,)))"),
]

IDS = [case[0].__name__ for case in CASES]


class _Other:
    """Equal to nothing but itself."""

    def __repr__(self):
        return "<other>"


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_construction_positional_keyword_and_defaults(case):
    cls, fields, values, defaults, _ = case
    obj = cls(*values)
    assert tuple(getattr(obj, name) for name in fields) == values
    assert cls(**dict(zip(fields, values))) == obj
    required = len(fields) - len(defaults)
    bare = cls(*values[:required])
    for name, default in defaults.items():
        assert getattr(bare, name) == default
    assert bare == cls(**dict(zip(fields[:required], values[:required])))
    with pytest.raises(TypeError):
        cls(*values, None)
    if required:
        with pytest.raises(TypeError):
            cls(*values[:required - 1])


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(case):
    cls, fields, values, _, _ = case
    obj, same = cls(*values), cls(*values)
    assert obj is not same
    assert obj == same and not obj != same
    assert hash(obj) == hash(same) == hash(values)
    # every field takes part in ==
    for i in range(len(fields)):
        changed = values[:i] + (_Other(),) + values[i + 1:]
        assert obj != cls(*changed)
        assert not obj == cls(*changed)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_never_equal_to_a_tuple_or_another_class(case):
    cls, _, values, _, _ = case
    obj = cls(*values)
    assert obj != values and values != obj
    assert obj != list(values)

    class Twin(cls):
        pass

    assert obj != Twin(*values) and Twin(*values) != obj
    # the other classes of the same arity, built from the same values
    for other, fields, *_ in CASES:
        if other is not cls and len(fields) == len(values):
            assert obj != other(*values) and other(*values) != obj


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_repr_names_every_field(case):
    cls, _, values, _, expected = case
    assert repr(cls(*values)) == expected


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_instances_are_frozen(case):
    cls, fields, values, _, _ = case
    obj = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is values[fields.index(name)]
    with pytest.raises(AttributeError):
        obj.unknown = 1
    assert cls(*values) == obj


def test_structure_views_are_computed_once(structure, monkeypatch):
    swept = []

    def recorded(graph):
        swept.append(graph)
        return sphere_sweep(graph)

    monkeypatch.setattr(hexagon_module, "sphere_sweep", recorded)
    s = IncidenceStructure(structure.points, structure.lines, structure.tags)
    views = ("incidences", "pencils", "graph", "concurrency")
    assert not any(name in s.__dict__ for name in views)
    first = [getattr(s, name) for name in views]
    assert all(s.__dict__[name] is view for name, view in zip(views, first))
    assert all(getattr(s, name) is view for name, view in zip(views, first))
    # the structure's sweep is its incidence graph's, kept there
    assert s.graph.sweep is s.graph.sweep is s.graph.__dict__["sweep"]
    assert swept == [s.graph]
    # the views are not fields: equality and hash ignore them
    fresh = IncidenceStructure(structure.points, structure.lines, structure.tags)
    assert fresh == s and hash(fresh) == hash(s)


def test_graph_sweep_is_computed_once(structure, monkeypatch):
    swept = []

    def recorded(graph):
        swept.append(graph)
        return sphere_sweep(graph)

    monkeypatch.setattr(hexagon_module, "sphere_sweep", recorded)
    graph = Graph(structure.graph.adjacency)
    assert graph.sweep is graph.sweep is graph.__dict__["sweep"]
    assert swept == [graph]


def test_strata_for_hits_its_cache_for_an_equal_partition():
    p = hyperoval_partitions()[1]
    q = HyperovalPartition(frozenset(set(p.oval)), frozenset(set(p.twin)), p.index)
    assert q is not p and q.oval is not p.oval
    assert q == p and hash(q) == hash(p)
    first = strata_for(p)
    hits = strata_for.cache_info().hits
    assert strata_for(q) is first
    assert strata_for.cache_info().hits == hits + 1
