import importlib
import inspect
import pkgutil

import pytest

import algcomplete
from algcomplete.catalog import build_catalog, cyclic, dihedral, symmetric
from algcomplete.groups import FiniteGroup, direct_product, group_from_permutations


def public_members():
    """(module.attr, object) for every public function and class defined in the package."""
    for info in pkgutil.iter_modules(algcomplete.__path__):
        if info.name.startswith("_"):
            continue
        mod = importlib.import_module(f"algcomplete.{info.name}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                yield f"{info.name}.{attr}", obj


def public_callables():
    """(module.qualname, callable) for every public function and method of the package."""
    for name, obj in public_members():
        if inspect.isclass(obj):
            for meth in vars(obj):
                fn = getattr(obj, meth)
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{meth}", fn
        else:
            yield name, obj


@pytest.fixture(scope="session")
def catalog():
    return build_catalog(24)


def holomorph_generators(p: int) -> list[list[int]]:
    """Hol(Z_p) on the points of Z_p: x -> x + 1 and x -> g x, g a primitive root."""
    g = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(1, p)}) == p - 1)
    return [[(x + 1) % p for x in range(p)], [(g * x) % p for x in range(p)]]


def relabel(G, rnd):
    """G on shuffled labels, the identity kept at 0."""
    new = [0] + rnd.sample(range(1, G.order), G.order - 1)  # old label i becomes new[i]
    table = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            table[new[a]][new[b]] = new[G.table[a][b]]
    return FiniteGroup.from_table(table, G.name)


@pytest.fixture(scope="session")
def Hol17():
    """Order 272 > 256, so table entries are not all small cached ints."""
    return group_from_permutations(17, holomorph_generators(17), name="Hol(Z17)")


@pytest.fixture(scope="session")
def S3():
    return symmetric(3)


@pytest.fixture(scope="session")
def S4():
    return symmetric(4)


@pytest.fixture(scope="session")
def D5():
    return dihedral(5)


@pytest.fixture(scope="session")
def Z2():
    return cyclic(2)


@pytest.fixture(scope="session")
def Z3():
    return cyclic(3)


@pytest.fixture(scope="session")
def Z4():
    return cyclic(4)


@pytest.fixture(scope="session")
def V4():
    return dihedral(2)


@pytest.fixture(scope="session")
def Z2xS3(Z2, S3):
    G, _, _ = direct_product(Z2, S3, name="Z2xS3")
    return G
