"""Shared fixtures.  Heavy pipelines are session scoped and lazy, so a
targeted test run only pays for what it touches."""

import pytest
from hypothesis import settings

from droplet_lattice import (
    Pipeline, blas, build_adiabatic_model, default_params, eigensolve, minimize_variational,
)

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")
# whole CLI runs per example: a fixed, small set of draws
settings.register_profile("cli_fuzz", derandomize=True, deadline=None, max_examples=40)


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Every test solves at one BLAS thread per pool, as ``cli.run`` does."""
    blas.set_blas_threads(1)


@pytest.fixture(scope="session")
def small_stack():
    """Fast pipeline for module-level tests."""
    return Pipeline(default_params(n_cavities=101, n_qubits=10))


@pytest.fixture(scope="session")
def tiny_stack():
    """Very small pipeline where brute-force oracles are affordable."""
    return Pipeline(default_params(n_cavities=41, n_qubits=6))


@pytest.fixture(scope="session")
def default_stack():
    return Pipeline(default_params())


@pytest.fixture(scope="session")
def ne80_stack():
    return Pipeline(default_params(n_qubits=80))


@pytest.fixture(scope="session")
def x0_stack():
    return Pipeline(default_params(spacing=0, n_qubits=60))


@pytest.fixture(scope="session")
def x2_stack():
    return Pipeline(default_params(spacing=2))


@pytest.fixture(scope="session")
def x3_stack():
    return Pipeline(default_params(spacing=3))


@pytest.fixture(scope="session")
def delta320_stack():
    return Pipeline(default_params(delta=-3 / 20))


@pytest.fixture(scope="session")
def variational_family():
    """Six-mode variational family of a pipeline's spin model, once per pipeline."""
    cache = {}

    def family(stack):
        if stack not in cache:
            cache[stack] = minimize_variational(stack.model("spin"), n_max=6)
        return cache[stack]

    return family


@pytest.fixture(scope="session")
def full_decomp_default(default_stack):
    """Lowest states of the explicit-photon model at the default point."""
    return eigensolve(default_stack.model("full"), k_lowest=12)


@pytest.fixture(scope="session")
def adia_low(default_stack):
    """Lowest ten levels of the adiabatic model without the bound-to-bound
    block at the default point."""
    h = build_adiabatic_model(
        default_stack.couplings, default_stack.basis, default_stack.params,
        default_stack.bands,
    )
    return eigensolve(h, k_lowest=10)


@pytest.fixture
def blas_pools():
    """The loaded OpenBLAS pools, each set to 2 threads so that a run's
    setting them to one is visible on any host; their own counts come back
    afterwards."""
    pools = blas._blas_pools()
    assert pools and all(None not in pool for pool in pools)
    own = [get() for _, _, get, _ in pools]
    for _, _, _, set_ in pools:
        set_(2)
    yield pools
    for (_, _, _, set_), count in zip(pools, own):
        set_(count)
