import pytest
from hypothesis import settings

from clannish.examples import (
    alternating_group_quotient,
    frobenius_pair,
    gelfand_ponomarev,
    one_loop_pair,
)
from clannish.fields import make_field

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic, and keep to a few seconds in all.  ``kernel-deep`` draws ten
# times as many, for a long run of a few files (--hypothesis-profile kernel-deep).
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=100)
settings.register_profile("kernel-deep", derandomize=True, deadline=None, max_examples=1000)


def pytest_configure(config):
    # tier-1 unless the command line names a profile: this file may load after
    # the hypothesis plugin has loaded that one
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("tier1")


@pytest.fixture(scope="session")
def F2():
    return make_field(2, 1)


@pytest.fixture(scope="session")
def F4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def F3():
    return make_field(3, 1)


@pytest.fixture(scope="session")
def F5():
    return make_field(5, 1)


@pytest.fixture(scope="session")
def F9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def E1():
    return one_loop_pair()


@pytest.fixture(scope="session")
def GP2():
    return gelfand_ponomarev()


@pytest.fixture(scope="session")
def A4():
    return alternating_group_quotient()


@pytest.fixture(scope="session")
def DIEU():
    return frobenius_pair()
