"""The two-stage link build: drop statistics shared by every (emi, ris) link."""
import dataclasses

import numpy as np
import pytest

from riscf.config import SystemConfig, mode_from_mapping
from riscf.pipeline import build_drop_statistics, build_link_statistics
from riscf.scenario import generate_scenario

from conftest import make_link

MODES = [("on", "on"), ("off", "on"), ("on", "off")]
PARTS = ("stats", "est", "surface")


def _arrays(obj):
    return {
        f.name: getattr(obj, f.name)
        for f in dataclasses.fields(obj)
        if isinstance(getattr(obj, f.name), np.ndarray)
    }


@pytest.mark.parametrize("l", [1, 3])
def test_shared_drop_matches_standalone_links(l):
    """Links built in turn on one drop equal links built each on its own."""
    cfg = SystemConfig(
        n_aps=4, n_ues=5, n_ap_antennas=l, ris_width_elements=4, ris_height_elements=3
    )
    scenario = generate_scenario(cfg, np.random.default_rng(6))
    drop = build_drop_statistics(scenario, cfg)
    for emi, ris in MODES:
        shared = build_link_statistics(drop, mode_from_mapping({"emi": emi, "ris": ris}))
        alone = make_link(cfg, 6, emi=emi, ris=ris)
        assert shared.sigma_r2 == alone.sigma_r2
        assert np.array_equal(shared.r_mm, alone.r_mm), f"{emi}/{ris} r_mm"
        for part in PARTS:
            want = _arrays(getattr(alone, part))
            got = _arrays(getattr(shared, part))
            assert want.keys() == got.keys() and want, part
            for name, value in want.items():
                assert np.array_equal(got[name], value), f"{emi}/{ris} {part}.{name}"


def test_links_share_moments_per_surface_state():
    """The aggregated moments depend on ris only, so emi groups share them."""
    cfg = SystemConfig(n_aps=3, n_ues=4)
    drop = build_drop_statistics(generate_scenario(cfg, np.random.default_rng(2)), cfg)
    links = {
        (emi, ris): build_link_statistics(drop, mode_from_mapping({"emi": emi, "ris": ris}))
        for emi, ris in MODES
    }
    assert links["on", "on"].stats is links["off", "on"].stats
    assert links["on", "off"].stats is not links["on", "on"].stats
    assert np.abs(links["on", "on"].r_mm).max() > 0.0
    assert not np.any(links["off", "on"].r_mm)
