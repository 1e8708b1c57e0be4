import os

import pytest

from gsmgof import RegimeSpec


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves a child process behind, alive or a zombie."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind (waitpid: {pid}, status {status})")


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
