"""Bit-level pins of the quantisation kernel and the CP^n catalogue.

One SHA-256 over the raw bytes of every jet level the kernel produces at
fixed sample points, so a refactor that reorders a floating-point sum
anywhere in the kernel fails here even where a report's rounding hides it.
A second SHA-256 covers every catalogue check's residual pair and
expected arrays. Each hex was recorded before the routes it guards were
rewritten and is never re-recorded to make a change pass.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from oracles import quantum_torsion, random_oneform
from semiq.errors import JetDomainError
from semiq.geometries import (CATALOGUE, cpn_catalogue_residual, cpn_expected, make_cpn,
                              make_flat, make_flat_torsion)
from semiq.geometry import Field, geometry_from_config
from semiq.lambda_core import Jet, LJet
from semiq import semiquant as sq

EXP_PLANE = Path(__file__).resolve().parent.parent / "perfbench" / "exp_plane.json"

KERNEL_DIGEST = "4ad6b2d0049332575d7a3fd24ff7b52dddcc16e9de391525dde464fb6c0e8ab0"
CATALOGUE_DIGEST = "1fcde3aefc77ec7efce21270a536c9ffe40ce5821c49d29e943f9c4865cb140b"


def _feed(h, v) -> None:
    if isinstance(v, LJet):
        _feed(h, v.c)
        if not v.graded:
            h.update(b"none")
        else:
            _feed(h, v.l)
    elif isinstance(v, Jet):
        for level in v.levels:
            _feed(h, level)
    else:
        arr = np.asarray(v)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())


def _kernel_values(G, pt):
    """Every kernel output at one point, as zero-argument thunks."""
    f = G.frame(pt)
    rng = np.random.default_rng(3)
    xi, eta = random_oneform(G, rng), random_oneform(G, rng)
    gq = sq.g_q_build(G)
    return [
        lambda: sq.nq_basis(f),
        lambda: sq.sigma_basis(f),
        lambda: sq.nq2_basis(f),
        lambda: sq._gq_coeff(f),
        lambda: sq.nabla_Q(xi).at(pt),
        lambda: gq.at(pt),
        lambda: sq.wedge1_map(gq).at(pt),
        lambda: sq.q_map(gq).at(pt),
        lambda: sq.q_map(Field(gq.fn), G).at(pt),
        lambda: quantum_torsion(xi).at(pt),
        lambda: sq.wedge1(xi, eta).at(pt),
    ]


def kernel_digest() -> str:
    with open(EXP_PLANE) as fh:
        plane = geometry_from_config(json.load(fh))
    h = hashlib.sha256()
    for base in (make_cpn(1), make_cpn(2), make_flat(1), make_flat_torsion(), plane):
        for order in (1, 2, 3):
            G = base.at_order(order)
            for pt in G.sample_points(2, 7):
                for thunk in _kernel_values(G, tuple(pt)):
                    try:
                        _feed(h, thunk())
                    except JetDomainError as exc:
                        h.update(type(exc).__name__.encode())
    return h.hexdigest()


def test_kernel_digest_is_pinned():
    assert kernel_digest() == KERNEL_DIGEST


def catalogue_digest() -> str:
    h = hashlib.sha256()
    for base in (make_cpn(1), make_cpn(2)):
        for order in (2, 3):
            G = base.at_order(order)
            for pt in G.sample_points(2, 7):
                for check in sorted(CATALOGUE):
                    h.update(check.encode())
                    _feed(h, np.array(cpn_catalogue_residual(G, check, tuple(pt))))
                    for arr in cpn_expected(G, check, tuple(pt)):
                        _feed(h, arr)
    return h.hexdigest()


def test_catalogue_digest_is_pinned():
    assert catalogue_digest() == CATALOGUE_DIGEST
