"""The command line never ends in a traceback or a non-finite number.

Hypothesis builds argv for ``check``, ``eval`` and ``evolve`` on the
built-in charts and on random JSON configs of dimension 1 to 4, and runs
``cli.main`` in-process. Whatever the input, the exit code is 0, 1 or 2,
no exception escapes, stdout holds no nan or inf, and exit 2 comes with an
``error:`` line on stderr.

A second gate runs ``eval`` at coordinates 10^k, k in [-300, 300], where
mpmath gives the exact output and every derivative the command reads.
"""

import json
import re
import sys
from pathlib import Path

import mpmath as mp

from hypothesis import HealthCheck, example, given, settings, strategies as st

from semiq.cli import main
from semiq.suites import SUITES

EXP_PLANE = Path(__file__).resolve().parent.parent / "perfbench" / "exp_plane.json"

NON_FINITE = re.compile(r"(?i)\b(nan|inf)")

# a one-dimensional chart, where every two-form vanishes
LINE = {"dim": 1, "metric": [["1"]], "poisson": [["0"]]}
# a flat plane sampled where products of coordinates overflow
WIDE = {"dim": 2, "metric": [["1", "0"], ["0", "1"]], "poisson": [["0", "1"], ["-1", "0"]],
        "box": 1e200}


@st.composite
def expressions(draw, dim):
    """A small expression in x1..x{dim}: a constant, a monomial, or a
    function of one coordinate that may be undefined at some points."""
    x = f"x{draw(st.integers(1, dim))}"
    return draw(st.sampled_from(["0", "1", "2.5", x, f"{x}^2", f"1+{x}^2", f"1/{x}",
                                 f"exp({x})", f"sin({x})", f"{x}*x1", f"ln({x})",
                                 f"sqrt(1+{x}^2)"]))


@st.composite
def configs(draw):
    """A JSON geometry config, symmetric by construction; its metric may be
    singular and its entries undefined at some points."""
    dim = draw(st.integers(1, 4))
    diag = [draw(expressions(dim)) for _ in range(dim)]
    off = {(i, j): draw(st.sampled_from(["0", "0", draw(expressions(dim))]))
           for i in range(dim) for j in range(i + 1, dim)}
    metric = [[diag[i] if i == j else off[min(i, j), max(i, j)] for j in range(dim)]
              for i in range(dim)]
    omega = [["0"] * dim for _ in range(dim)]
    for i in range(0, dim - 1, 2):
        entry = draw(expressions(dim))
        omega[i][i + 1], omega[i + 1][i] = entry, f"-({entry})"
    cfg = {"dim": dim, "metric": metric, "poisson": omega,
           "box": draw(st.sampled_from([0.5, 1.0, 1e200]))}
    if draw(st.booleans()):
        cfg["connection"] = [[[draw(st.sampled_from(["0", "0", "x1", "0.5"]))
                               for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    return cfg


@st.composite
def geometries(draw):
    """(geometry argv, chart dimension, config or None)."""
    kind = draw(st.sampled_from(["flat", "cpn", "flat-torsion", "config"]))
    if kind in ("flat", "cpn"):
        n = draw(st.integers(1, 2))
        return [kind, "--n", str(n)], 2 * n, None
    if kind == "flat-torsion":
        return [kind], 2, None
    cfg = draw(configs())
    return ["GEOMETRY_PATH"], cfg["dim"], cfg


@st.composite
def invocations(draw):
    geo, dim, cfg = draw(geometries())
    point = ",".join(str(draw(st.sampled_from([-0.7, -0.1, 0.0, 0.3, 0.6, 1e154])))
                     for _ in range(dim))
    command = draw(st.sampled_from(["check", "eval", "evolve"]))
    if command == "check":
        argv = ["check", *geo, "--points", str(draw(st.integers(1, 2))),
                "--suite", draw(st.sampled_from(SUITES))]
    else:
        named = ["--geometry", geo[0], *geo[1:]]
        if command == "eval":
            op = draw(st.sampled_from(["star", "commutator", "wedge", "nablaQ"]))
            argv = ["eval", op, *named, "--a", draw(expressions(dim)),
                    "--b", draw(expressions(dim)), "--at", point]
        else:
            argv = ["evolve", *named, "--H", draw(expressions(dim)),
                    "--a", draw(expressions(dim)), "--at", point]
    return argv, cfg


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=invocations())
@example(case=(["check", "GEOMETRY_PATH", "--points", "1", "--suite", "dga"], LINE))
@example(case=(["eval", "wedge", "--geometry", "GEOMETRY_PATH", "--a", "x1^2", "--b", "x1",
                "--at", "0.1"], LINE))
@example(case=(["check", "GEOMETRY_PATH", "--points", "2", "--suite", "dga"], WIDE))
@example(case=(["eval", "star", "--geometry", "flat", "--n", "1", "--a", "x1^2", "--b", "x2^2",
                "--at", "1e154,1e154"], None))
def test_cli_exits_cleanly(case, tmp_path, capsys):
    argv, cfg = case
    if cfg is not None:
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(cfg))
        argv = [str(path) if a == "GEOMETRY_PATH" else a for a in argv]
    code = main(argv)
    out = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert not NON_FINITE.search(out.out), (argv, out.out)
    if code == 2:
        assert out.err.startswith("error:"), (argv, out.err)


# -- magnitude gate ---------------------------------------------------------------

# a function of one coordinate -> its value and first three derivatives, exact
DERIVS = {
    "ln({})": lambda x: [mp.log(x), 1 / x, -1 / x ** 2, 2 / x ** 3],
    "sqrt({})": lambda x: [mp.sqrt(x), x ** -0.5 / 2, -x ** -1.5 / 4, 3 * x ** -2.5 / 8],
    "1/{}": lambda x: [1 / x, -1 / x ** 2, 2 / x ** 3, -6 / x ** 4],
    "exp({})": lambda x: [mp.exp(x)] * 4,
}
UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?"
# a printed complex number: (re+imj), an array entry re+im.j, or imj alone
COMPLEX = re.compile(rf"([-+]?{UNSIGNED})\s*([-+]\s*{UNSIGNED})j|([-+]?{UNSIGNED})j")


def magnitude_case(op, f, k, g, j):
    """(argv, the exact values it prints, the exact derivatives it reads) on a
    flat plane at (10^k, 10^j), a function f of x1 and, for wedge, g of x2;
    ``evolve`` of f under H = x2 there; ``star`` of the real and imaginary
    parts of z1 on CP^1 at (10^k, 0) and on CP^2 at (10^k, 0, 0, 0); or
    ``star`` of x1 and x2 on the plane of ``perfbench/exp_plane.json`` at
    (10^k, 1), where om^12 = exp(-2 x1)."""
    X, Y = (mp.mpf(float(f"1e{e}")) for e in (k, j))
    if op == "config-star":
        return (["eval", "star", "--geometry", str(EXP_PLANE), "--a", "x1", "--b", "x2",
                 f"--at=1e{k},1"], [X, mp.exp(-2 * X) / 2], [])
    if op == "cpn-star":
        return (["eval", "star", "--geometry", "cpn", "--n", "1", "--a", "x1", "--b", "x2",
                 f"--at=1e{k},0"], [0, -(1 + X ** 2) ** 2 / 4], [])
    if op == "cpn2-star":
        return (["eval", "star", "--geometry", "cpn", "--n", "2", "--a", "x1", "--b", "x3",
                 f"--at=1e{k},0,0,0"], [0, -(1 + X ** 2) ** 2 / 4], [])
    argv = ["eval", op, "--geometry", "flat", "--n", "1", "--a", f.format("x1"),
            f"--at=1e{k},1e{j}"]
    a = DERIVS[f](X)
    if op == "evolve":          # adot = {a, x2} = a', and the defect of a linear H
        return (["evolve", "--geometry", "flat", "--n", "1", "--a", f.format("x1"),
                 "--H", "x2", f"--at=1e{k},1e{j}"], [a[1], 0, 0], a[:3])
    if op == "star":            # a * x2 at Y = 1
        return argv + ["--b", "x2"], [a[0], a[1] / 2], a[:2]
    if op == "nablaQ":          # the Hessian of a in [0, 0], the lam slot 0
        return argv, [a[2]] + [0] * 7, a
    b = DERIVS[g](Y)            # da ^ db, and its lam slot (1/2) a'' b''
    return argv + ["--b", g.format("x2")], \
        [0, a[1] * b[1], -a[1] * b[1], 0, 0, a[2] * b[2] / 2, -a[2] * b[2] / 2, 0], a[:3] + b[:3]


def printed(text, start="classical"):
    """The complex numbers after ``start``, each with whether it is an
    array entry printed in fixed notation."""
    out, text = [], text[text.index(start):]
    for m in COMPLEX.finditer(text):
        re_, im = (m.group(1), m.group(2).replace(" ", "")) if m.group(2) else ("0", m.group(3))
        entry = text.rfind("[", 0, m.start()) > text.rfind("]", 0, m.start())
        out.append((complex(float(re_), float(im)), entry and "e" not in re_))
    return out


@st.composite
def magnitudes(draw):
    """star, nablaQ and evolve of each function on the plane, star on CP^1,
    CP^2 and a config; wedge, a product of two derivatives, is pinned by its
    example only."""
    op = draw(st.sampled_from(["star", "nablaQ", "evolve", "cpn-star", "cpn2-star",
                               "config-star"]))
    f = None if op.endswith("-star") else draw(st.sampled_from(sorted(DERIVS)))
    return op, f, draw(st.integers(-300, 300)), None, 0


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=magnitudes())
@example(case=("star", "ln({})", 130, None, 0))
@example(case=("star", "sqrt({})", 130, None, 0))
@example(case=("star", "1/{}", 80, None, 0))
@example(case=("cpn-star", None, 40, None, 0))
@example(case=("cpn2-star", None, 40, None, 0))
@example(case=("nablaQ", "ln({})", 130, None, 0))
@example(case=("wedge", "ln({})", 200, "sqrt({})", 300))
@example(case=("config-star", None, 300, None, 0))
@example(case=("evolve", "ln({})", 130, None, 0))
@example(case=("star", "1/{}", -77, None, 0))
def test_magnitudes_against_exact_values(case, capsys):
    """Exit 0 with every printed value within 1e-12 relative (1e-300
    absolute) where every exact value and every derivative the command reads
    is at most 1e300 in magnitude; exit 2 with an error line where one leaves
    the double range; in between, either. An array prints 12 decimals, so a
    fixed-notation entry may also be off by half its last place."""
    argv, exact, read = magnitude_case(*case)
    code = main(argv)
    out = capsys.readouterr()
    size = max(abs(mp.mpmathify(v)) for v in exact + read)
    if size > sys.float_info.max:
        assert code == 2 and out.err.startswith("error:"), (argv, code, out)
        return
    if size > 1e300 and code == 2:
        return
    assert code == 0, (argv, out.err)
    got = printed(out.out, "adot" if argv[0] == "evolve" else "classical")
    assert len(got) == len(exact), (argv, out.out)
    for (v, fixed), x in zip(got, exact):
        tol = max(1e-12 * abs(x), 1e-300) + (5e-13 if fixed else 0)
        assert abs(mp.mpc(v.real, v.imag) - x) <= tol, (argv, v, x)
