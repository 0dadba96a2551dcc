import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semiq.geometries import make_cpn, make_flat, make_flat_torsion
from semiq.geometry import Field


@pytest.fixture(scope="session")
def flat1():
    return make_flat(1)

@pytest.fixture(scope="session")
def flat2():
    return make_flat(2)

@pytest.fixture(scope="session")
def cpn1():
    return make_cpn(1)

@pytest.fixture(scope="session")
def cpn2():
    return make_cpn(2)

@pytest.fixture(scope="session")
def torsion2():
    return make_flat_torsion()


def sample(G, count, seed):
    return [tuple(p) for p in G.sample_points(count, seed)]


def maxabs(x) -> float:
    return float(np.max(np.abs(np.asarray(x))))


def canonical_hamiltonian(n, mass, potential="0"):
    """Flat R^{2n} and H = V + (p1^2 + ... + pn^2)/(2m), where the momenta
    are x(n+1)..x2n and V is an expression in the positions x1..xn."""
    G = make_flat(n)
    kinetic = " + ".join(f"x{k}^2" for k in range(n + 1, 2 * n + 1))
    return G, Field.from_expr(G.dim, f"({potential}) + ({kinetic})/(2*{mass})")


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, cwd):
    """Run ``python -m semiq ARGS`` in a child process started in ``cwd``.

    The package need not be installed: the checkout's absolute ``src``
    directory is prepended to the inherited ``PYTHONPATH``, so the child
    imports this source tree whatever its working directory is.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "semiq", *args],
                          capture_output=True, cwd=cwd, env=env)
