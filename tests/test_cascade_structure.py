"""The structured cascade statistics against the dense NL x NL reference."""
import dataclasses

import numpy as np
import pytest

from riscf.config import SystemConfig
from riscf.emi import emi_noise_covariance

from conftest import make_link, q_terms
from dense_reference import dense_aggregated, dense_emi, dense_nlos

RTOL = 1e-12


def _close(got, want):
    return np.abs(got - want).max() <= RTOL * np.abs(want).max()


@pytest.mark.parametrize("ris", ["on", "off"])
@pytest.mark.parametrize("emi", ["on", "off"])
@pytest.mark.parametrize("l, side", [(1, 4), (4, 8)])
def test_structured_matches_dense(l, side, emi, ris):
    cfg = SystemConfig(
        n_aps=4,
        n_ues=5,
        n_ap_antennas=l,
        ris_width_elements=side,
        ris_height_elements=side,
        tau_p=3,
    )
    link = make_link(cfg, 11, emi=emi, ris=ris)
    surface = link.surface
    rtilde_m, rtilde_k = dense_nlos(surface, link.scenario, cfg, surface.r_m, ris)

    dense = dense_aggregated(link.stats.r_direct, surface, rtilde_m, rtilde_k)
    for name in ("obar", "r_o"):
        assert _close(getattr(link.stats, name), dense[name]), name
    # Q1 and Q2 alone: isolated surfaces with no direct link
    q1, q2 = q_terms(surface)
    assert _close(q1, dense["q1"]), "q1"
    assert _close(q2, dense["q2"]), "q2"

    dense = dense_emi(
        surface.hbar, surface.phi, surface.R, rtilde_m, link.sigma_r2, surface.element_area
    )
    assert _close(link.r_mm, dense["r_mm"]), "r_mm"
    # the NLoS part Q_m alone: R_mm with the LoS Gram left out
    no_gram = dataclasses.replace(surface, gram=np.zeros_like(surface.gram))
    q_m = emi_noise_covariance(no_gram, link.sigma_r2)
    assert _close(q_m, dense["q_m"]), "q_m"

    if ris == "on":
        assert np.abs(q1).max() > 0.0 and np.abs(q2).max() > 0.0
        assert (emi == "on") == (np.abs(q_m).max() > 0.0)
