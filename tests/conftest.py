import numpy as np
import pytest

# gridfdi is imported inside the fixtures, so a module that uses none of them
# (test_highs_binding) still runs when gridfdi itself fails to import.


@pytest.fixture(scope="session")
def case3_path():
    from gridfdi import bundled_case

    return bundled_case("case3.m")


@pytest.fixture(scope="session")
def case118_path():
    from gridfdi import bundled_case

    return bundled_case("case118.m")


@pytest.fixture(scope="session")
def net3(case3_path):
    from gridfdi import load_case

    return load_case(case3_path)


@pytest.fixture(scope="session")
def net118(case118_path):
    from gridfdi import load_case

    return load_case(case118_path)


@pytest.fixture(scope="session")
def ptdf3(net3):
    from gridfdi.powerflow import compute_ptdf

    return compute_ptdf(net3)


@pytest.fixture(scope="session")
def ptdf118(net118):
    from gridfdi.powerflow import compute_ptdf

    return compute_ptdf(net118)


@pytest.fixture
def rng():
    return np.random.default_rng(20180713)
