"""Uplink simulator for RIS-aided cell-free massive MIMO under EMI.

The package computes closed-form spectral-efficiency expressions for the
uplink of a cell-free massive MIMO system assisted by a reconfigurable
intelligent surface (RIS) subject to electromagnetic interference (EMI),
validates them against an independent Monte-Carlo oracle, and implements
fractional and max-min power control.
"""

__version__ = "0.1.0"
