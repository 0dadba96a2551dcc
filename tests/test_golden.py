"""Byte-identity of command output against recorded reference files.

Each command of ``COMMANDS`` runs in-process through ``semiq.cli.main``
from the checkout root. Its stdout, stderr and exit code must equal the
files ``tests/golden/<id>.stdout``, ``.stderr`` and ``.exit`` byte for
byte. The files were recorded once; a change that alters any byte of any
output fails here and has to say why.
"""

import contextlib
import io
from pathlib import Path

import pytest

from semiq.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = "perfbench/exp_plane.json"

CHECK_GEOMETRIES = {
    "cpn1": ["cpn", "--n", "1"],
    "cpn2": ["cpn", "--n", "2"],
    "flat1": ["flat", "--n", "1"],
    "flat2": ["flat", "--n", "2"],
    "flat-torsion": ["flat-torsion"],
    "config": [CONFIG],
}

EVAL_GEOMETRIES = {
    "cpn2": (["--geometry", "cpn", "--n", "2"],
             ["--a", "z1*conj(z2)+x3", "--b", "x4^2-x1*x2", "--at", "0.3,0.1,-0.2,0.25"]),
    "config": (["--geometry", CONFIG],
               ["--a", "exp(x1)*x2", "--b", "x1*x2^2", "--at", "0.2,-0.1"]),
    "flat-torsion": (["--geometry", "flat-torsion"],
                     ["--a", "x1^2*x2", "--b", "sin(x2)", "--at", "0.4,0.3"]),
}


def _commands() -> dict:
    cmds = {}
    for gid, geo in CHECK_GEOMETRIES.items():
        cmds[f"check-{gid}-json"] = ["check", *geo, "--points", "3", "--seed", "1"]
        cmds[f"check-{gid}-text"] = ["check", *geo, "--points", "2", "--seed", "2",
                                     "--format", "text"]
    # the dimension-6 kernel, JSON only: it is the slowest command here
    cmds["check-cpn3-json"] = ["check", "cpn", "--n", "3", "--points", "2", "--seed", "1"]
    # the README's eval and evolve examples
    cmds["readme-eval-star"] = ["eval", "star", "--geometry", "cpn", "--n", "1",
                                "--a", "z1", "--b", "conj(z1)", "--at", "0.3,0.1"]
    cmds["readme-eval-commutator"] = ["eval", "commutator", "--geometry", "flat", "--n", "1",
                                      "--a", "x1", "--b", "x2", "--at", "0,0"]
    cmds["readme-evolve"] = ["evolve", "--geometry", "flat", "--n", "1",
                             "--H", "x2^2/2+x1^2", "--a", "x1", "--at", "0.4,-0.3"]
    for gid, (geo, operands) in EVAL_GEOMETRIES.items():
        for op in ("star", "commutator", "wedge", "nablaQ"):
            cmds[f"eval-{op}-{gid}"] = ["eval", op, *geo, *operands]
    cmds["evolve-cpn2-two-points"] = ["evolve", "--geometry", "cpn", "--n", "2",
                                      "--H", "x1^2+x2*x3", "--a", "x4",
                                      "--at", "0.1,0.2,0.3,0.1;0.2,-0.1,0,0.3"]
    return cmds


COMMANDS = _commands()


def run_in_process(argv):
    """(stdout, stderr, exit code) of ``semiq ARGV`` run through ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue().encode(), err.getvalue().encode(), f"{code}\n".encode()


@pytest.mark.parametrize("cid", sorted(COMMANDS))
def test_golden_output(cid, monkeypatch):
    monkeypatch.chdir(ROOT)
    stdout, stderr, code = run_in_process(COMMANDS[cid])
    assert code == (GOLDEN / f"{cid}.exit").read_bytes()
    assert stderr == (GOLDEN / f"{cid}.stderr").read_bytes()
    assert stdout == (GOLDEN / f"{cid}.stdout").read_bytes()
