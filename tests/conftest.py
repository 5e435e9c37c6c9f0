import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from polyindex import (Polytope, bipyramid_square_prism, facet_enumeration, incidence,
                       irregular_hexagon)


@pytest.fixture(scope="session")
def square():
    """The max-norm ball in the plane: vertices (+-1, +-1), facets +-e_i."""
    return Polytope([(1, 1), (-1, 1), (-1, -1), (1, -1)])


@pytest.fixture(scope="session")
def hexagon():
    return irregular_hexagon()


@pytest.fixture(scope="session")
def hexagon_facets(hexagon):
    return facet_enumeration(hexagon)


@pytest.fixture(scope="session")
def bipyramid():
    return bipyramid_square_prism()


@pytest.fixture(scope="session")
def bipyramid_facets(bipyramid):
    return facet_enumeration(bipyramid)


@pytest.fixture(scope="session")
def bipyramid_incidence(bipyramid):
    return incidence(bipyramid)
