import pytest

from splithex.geometry import hyperoval_partitions, strata_for
from splithex.groups import PermutationGroup, automorphism_generators, induced_actions
from splithex.hexagon import IncidenceStructure, build, incidence_graph


@pytest.fixture(scope="session")
def partition():
    return hyperoval_partitions()[0]


@pytest.fixture(scope="session")
def strata(partition):
    return strata_for(partition)


@pytest.fixture(scope="session")
def structure(partition):
    return build(partition)


@pytest.fixture(scope="session")
def corrupted(structure):
    """The hexagon with one point of line 0 swapped for a point off that line."""
    line = structure.lines[0]
    old = min(line, key=structure.points.index)
    new = next(p for p in structure.points if p not in line)
    lines = ((line - {old}) | {new},) + structure.lines[1:]
    return IncidenceStructure(structure.points, lines, structure.tags)


@pytest.fixture(scope="session")
def aut_generators(structure):
    graph = incidence_graph(structure)
    return automorphism_generators(graph, [0] * 63 + [1] * 63)


@pytest.fixture(scope="session")
def aut_group(aut_generators):
    return PermutationGroup(126, aut_generators)


@pytest.fixture(scope="session")
def actions(aut_group, structure):
    return induced_actions(aut_group, structure)
