import random

import pytest

from metriclie import AlgebraSpec, connection_of, decompose, transform_spec
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


def _so3_over_fields(*ds, degree=2):
    """The orthogonal sum of so(3)⊗K, one block per d, for K = Q(θ) with
    θ^degree = d.  A block has the basis θ^a·e_i (a < degree), named
    e_i, f_i, g_i for a = 0, 1, 2, and the bi-invariant metric
    ⟨θ^a·e_i, θ^b·e_i⟩ = tr_K(θ^(a+b))/degree: 1 at a + b = 0, d at
    a + b = degree, and 0 otherwise."""
    names, brackets, metric = [], {}, {}
    for k, d in enumerate(ds):
        x = [[f"{'efg'[a]}{i}_{k}" for i in (1, 2, 3)] for a in range(degree)]
        names += sum(x, [])
        for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            for a in range(degree):
                for b in range(degree):
                    c = a + b
                    brackets[(x[a][i], x[b][j])] = {
                        x[c % degree][l]: d if c >= degree else 1}
        for i in range(3):
            metric[(x[0][i], x[0][i])] = 1
            for a in range(1, degree):
                metric[(x[a][i], x[degree - a][i])] = d
    return AlgebraSpec.build(names, brackets=brackets, metric=metric)


@pytest.fixture(scope="session")
def so3_over_fields():
    return _so3_over_fields
