import pytest

from sweatauth.config import load_experiment


@pytest.fixture(scope="session")
def cfg():
    return load_experiment("builtin:sex-separation")


@pytest.fixture(scope="session")
def params(cfg):
    return cfg.params


@pytest.fixture(scope="session")
def distribution(cfg):
    return cfg.distribution

