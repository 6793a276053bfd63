import numpy as np
import pytest

from pseudobosons import build_builtin

# Models are immutable values, so one instance per session is safe to share.


@pytest.fixture(scope="session")
def example1():
    return build_builtin("example1")


@pytest.fixture(scope="session")
def example2():
    return build_builtin("example2")


@pytest.fixture(scope="session")
def bosonic():
    return build_builtin("bosonic")


@pytest.fixture(scope="session")
def swanson():
    return build_builtin("swanson", theta=0.3)


@pytest.fixture(scope="session")
def shifted():
    return build_builtin("shifted", alpha=0.15 + 0.1j, beta=0.2)


@pytest.fixture(scope="session")
def constant_alpha():
    return build_builtin("constant_alpha", alpha_a=1.0, alpha_b=0.5, k=0.7)


@pytest.fixture(scope="session")
def all_builtins(example1, example2, bosonic, swanson, shifted,
                 constant_alpha):
    return {
        "bosonic": bosonic,
        "shifted": shifted,
        "swanson": swanson,
        "constant_alpha": constant_alpha,
        "example1": example1,
        "example2": example2,
    }


@pytest.fixture
def grid():
    return np.linspace(-4.0, 4.0, 161)
