import pytest
from hypothesis import settings

from doctrines import fixtures
from doctrines.compare import analysis

# the same examples on every run: no example database, no wall-clock deadline
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def triv():
    return fixtures.triv()


@pytest.fixture(scope="session")
def chain():
    return fixtures.chain_fixture()


@pytest.fixture(scope="session")
def fs2():
    return fixtures.fs2()


@pytest.fixture(scope="session")
def nochoice():
    return fixtures.nochoice()


@pytest.fixture(scope="session")
def witnesses(triv, chain, fs2, nochoice):
    """The equality and existential witnesses of each fixture's analysis."""
    out = {}
    for name, P in (("triv", triv), ("chain", chain), ("fs2", fs2),
                    ("nochoice", nochoice)):
        _, E, X = analysis(P).eed()
        out[name] = (P, E, X)
    return out


@pytest.fixture(scope="session")
def completions(witnesses):
    """The relation, reflexive and quotient completions of each analysis."""
    out = {}
    for name in ("triv", "chain", "fs2"):
        P, E, X = witnesses[name]
        an = analysis(P)
        out[name] = (P, E, X, an.tp(), an.er(), an.qp())
    return out
