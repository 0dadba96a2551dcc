"""First-order deformation quantisation of classical geometric data.

The engine semiquantises a chart equipped with a metric, a Poisson
bivector and a compatible connection, and numerically certifies the
identities the construction must satisfy: classical compatibility
residuals, the deformed exterior algebra, the quantum metric and its
connection, and phase-space evolution identities.
"""

from .lambda_core import Jet, LJet, jet_einsum

__all__ = [
    "Jet",
    "LJet",
    "jet_einsum",
]

__version__ = "0.1.0"
