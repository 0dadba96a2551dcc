"""Phase-space dynamics at the level of generator identities.

Evolution is evaluated pointwise as instantaneous rates along the
Hamiltonian vector field; no trajectories are integrated. Functions
evolve by the Poisson bracket, one-forms by parallel transport along the
same vector field, and the defect between the two measures how far time
evolution is from commuting with the exterior derivative.
"""

from __future__ import annotations

import numpy as np

from .geometry import Field, GeometryData, cov_deriv_jet, poisson_bracket
from .lambda_core import Jet, LJet, jet_einsum


def ham_vf(H: Field, G: GeometryData) -> Field:
    """Evolution vector field: v^j = -om^{ij} H_,i, so that adot = {a, H}."""

    def fn(pt):
        f = G.frame(pt)
        dh = H.at(pt).c.grad()
        return LJet(-jet_einsum("ij,i->j", f.om, dh))

    return Field(fn)


def evolve_scalar(a: Field, H: Field, G: GeometryData) -> Field:
    """adot = {a, H}."""
    return poisson_bracket(a, H, G)


def evolve_oneform(xi: Field, H: Field, G: GeometryData) -> Field:
    """Rate of change of a one-form: parallel transport along the
    evolution vector field, xidot = -nabla_{Hhat} xi."""
    v = ham_vf(H, G)

    def fn(pt):
        f = G.frame(pt)
        vk = v.at(pt).c
        xv = xi.at(pt)

        def rate(x: Jet) -> Jet:
            cd = cov_deriv_jet(x, f.gam, 0, 1)      # [i, k]
            return jet_einsum("ik,k->i", cd, vk)

        return LJet(rate(xv.c), None if xv.l is None else rate(xv.l))

    return Field(fn)


def evolution_defect(a: Field, H: Field, G: GeometryData) -> Field:
    """(da)dot - d(adot), evaluated as -nabla_{ahat}(dH).

    For a Poisson-compatible connection this equals the difference between
    evolving the differential of a and differentiating the evolution of a;
    ``defect_two_route_residual`` checks that identity numerically.
    """

    def fn(pt):
        f = G.frame(pt)
        da = a.at(pt).c.grad()
        ahat = jet_einsum("ik,i->k", f.om, da)       # ahat^k = om^{ik} a_,i
        dh = H.at(pt).c.grad()
        cd = cov_deriv_jet(dh, f.gam, 0, 1)          # (nabla dH)[i, k]
        return LJet(-jet_einsum("ik,k->i", cd, ahat))

    return Field(fn)


def defect_two_route_residual(a: Field, H: Field, G: GeometryData,
                              point) -> float:
    """Max-abs difference between -nabla_{ahat}(dH) and (da)dot - d(adot)."""
    direct = evolution_defect(a, H, G).at(point).c.val

    da = Field(lambda pt: LJet(a.at(pt).c.grad()))
    da_dot = evolve_oneform(da, H, G).at(point).c.val
    adot = evolve_scalar(a, H, G)
    d_adot = adot.at(point).c.grad().val
    return float(np.max(np.abs(direct - (da_dot - d_adot))))
