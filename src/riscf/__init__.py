"""Uplink simulator for RIS-aided cell-free massive MIMO under EMI.

The package computes closed-form spectral-efficiency expressions for the
uplink of a cell-free massive MIMO system assisted by a reconfigurable
intelligent surface (RIS) subject to electromagnetic interference (EMI),
validates them against an independent Monte-Carlo oracle, and implements
fractional and max-min power control.
"""

from riscf.config import SystemConfig
from riscf.scenario import Scenario, generate_scenario, path_loss_db, rician_factor
from riscf.correlation import (
    Surface,
    ris_sinc_correlation,
    gaussian_local_scattering,
    surface_statistics,
)
from riscf.channel import ChannelStatistics, aggregated_covariance
from riscf.emi import (
    sigma_r2_from_rho,
    emi_noise_covariance,
    sample_emi,
)
from riscf.estimation import (
    PilotAssignment,
    EstimationStatistics,
    assign_pilots,
    estimation_statistics,
    mmse_estimate,
)
from riscf.pipeline import (
    DropStatistics,
    LinkStatistics,
    build_drop_statistics,
    build_link_statistics,
)
from riscf.uatf import (
    UatfMoments,
    Combining,
    fixed_weight_form,
    uatf_sinr,
    optimal_lsfd_weights,
    combine,
)
from riscf.se import closed_form_moments, spectral_efficiency
from riscf.montecarlo import OracleEstimate, UatfEstimates, estimate_uatf_terms
from riscf.power import PowerAllocation, fractional_power_control, maxmin_power_control

__version__ = "0.1.0"
