import random

import pytest

from metriclie import connection_of, decompose, transform_spec
from metriclie.catalog import catalog_get, catalog_list
from metriclie.linalg import Mat

GENERIC_MAX_DIM = 6


@pytest.fixture(scope="session")
def loaded():
    """name -> (spec, conn) for every catalog entry."""
    out = {}
    for name in catalog_list():
        doc = catalog_get(name).load()
        out[name] = (doc.spec, connection_of(doc.spec))
    return out


@pytest.fixture(scope="session")
def decomposed(loaded):
    """name -> Decomposition, computed once (the searches are the slow part)."""
    return {name: decompose(spec) for name, (spec, _) in loaded.items()}


def _rebased(spec):
    """spec rewritten on a seeded random basis: entries in [-2, 2], drawn
    from random.Random(1) until invertible."""
    n = spec.dim
    rng = random.Random(1)
    while True:
        p = Mat.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                           for _ in range(n)], n)
        if p.rank() == n:
            return transform_spec(spec, p)


@pytest.fixture(scope="session")
def rebased():
    return _rebased


@pytest.fixture(scope="session")
def generic_loaded(loaded):
    """name -> (spec, conn) for the catalog entries of dimension at most
    GENERIC_MAX_DIM, rewritten on the seeded random basis of `_rebased`."""
    out = {}
    for name, (spec, _) in loaded.items():
        if spec.dim > GENERIC_MAX_DIM:
            continue
        t = _rebased(spec)
        out[name] = (t, connection_of(t))
    return out


@pytest.fixture(scope="session")
def shipped_and_generic(loaded, generic_loaded):
    """(label, spec, conn) for every catalog entry as shipped and for each
    generic-basis copy."""
    return ([(name, spec, conn) for name, (spec, conn) in loaded.items()]
            + [(name + " (generic basis)", spec, conn)
               for name, (spec, conn) in generic_loaded.items()])
