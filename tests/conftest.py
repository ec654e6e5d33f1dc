"""Shared fixtures: small deterministic links reused across test modules."""
from dataclasses import replace

import numpy as np
import pytest

from riscf.channel import aggregated_covariance
from riscf.config import SystemConfig, mode_from_mapping
from riscf.pipeline import build_drop_statistics, build_link_statistics
from riscf.scenario import generate_scenario
from riscf.se import closed_form_moments


def make_link(config, seed, **mode):
    """One scenario drop plus its full second-order link statistics.

    ``seed`` is anything ``np.random.default_rng`` takes: an int, a
    ``SeedSequence`` or a generator, which is then drawn from. ``mode``
    sets mode fields by name, as a ``modes:`` entry does.
    """
    scenario = generate_scenario(config, np.random.default_rng(seed))
    drop = build_drop_statistics(scenario, config)
    return build_link_statistics(drop, mode_from_mapping(mode))


def q_terms(surface):
    """Q1 and Q2 of ``aggregated_covariance``, each on its own.

    Each is the aggregated covariance of the surface with no direct link,
    no Gram (no cascade) and the other term switched off: Q2 scales with
    gain_k and Q1 with the LoS RIS-UE means zbar.
    """
    zero = np.zeros_like
    isolated = replace(surface, gram=zero(surface.gram))
    q1 = aggregated_covariance(0.0, replace(isolated, gain_k=zero(surface.gain_k))).r_o
    q2 = aggregated_covariance(0.0, replace(isolated, zbar=zero(surface.zbar))).r_o
    return q1, q2


@pytest.fixture(scope="session")
def validation_config():
    return SystemConfig(
        n_aps=3,
        n_ues=4,
        n_ap_antennas=2,
        ris_width_elements=4,
        ris_height_elements=2,
        tau_p=2,
        rho_db=20.0,
    )


@pytest.fixture(scope="session")
def validation_link(validation_config):
    return make_link(validation_config, 1)


@pytest.fixture(scope="session")
def validation_moments(validation_link):
    return closed_form_moments(validation_link)


@pytest.fixture(scope="session")
def tiny_config():
    return SystemConfig(
        n_aps=2,
        n_ues=2,
        n_ap_antennas=1,
        ris_width_elements=2,
        ris_height_elements=2,
        tau_p=2,
        rho_db=20.0,
    )


@pytest.fixture(scope="session")
def tiny_link(tiny_config):
    return make_link(tiny_config, 5)
