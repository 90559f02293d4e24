import pytest

from opetopes import build_fixture


@pytest.fixture(scope="session")
def point_set():
    return build_fixture("point")


@pytest.fixture(scope="session")
def parallel_set():
    return build_fixture("two_parallel_arrows")


@pytest.fixture(scope="session")
def z2_set():
    return build_fixture("z2_monoid")


@pytest.fixture(scope="session")
def z3_set():
    return build_fixture("z3_monoid")


@pytest.fixture(scope="session")
def broken_set():
    return build_fixture("broken_magma")


@pytest.fixture
def fresh_shapes(monkeypatch):
    """Empty the shape intern table, the enumeration cache and the table of
    derived shapes, so every derived shape is built anew; the returned
    function empties them again.  All are restored afterwards."""
    from opetopes import ARROW, POINT, shapes

    def reset():
        monkeypatch.setattr(shapes, "_INTERNED", {"pt": POINT, "ar": ARROW})
        monkeypatch.setattr(shapes, "_ENUM_CACHE", {})
        monkeypatch.setattr(shapes, "_DERIVED", {})

    reset()
    return reset
