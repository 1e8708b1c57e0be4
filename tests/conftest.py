import multiprocessing

import pytest

from gsmgof import RegimeSpec


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves worker processes alive, and end them, so that
    no later test meets a stale pool."""
    yield
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.kill()
        proc.join(timeout=10)
    assert not leaked, f"worker processes left alive: {leaked}"


@pytest.fixture
def mild_ordinary():
    return RegimeSpec.from_name("mild-ordinary", s=1.0, t=1.0)


@pytest.fixture
def mild_super():
    return RegimeSpec.from_name("mild-super", s=1.0, t=1.0)


@pytest.fixture
def severe_ordinary():
    return RegimeSpec.from_name("severe-ordinary", s=1.0, t=1.0)


@pytest.fixture
def severe_super():
    return RegimeSpec.from_name("severe-super", s=1.0, t=1.0)


@pytest.fixture
def all_regimes(mild_ordinary, mild_super, severe_ordinary, severe_super):
    return [mild_ordinary, mild_super, severe_ordinary, severe_super]
