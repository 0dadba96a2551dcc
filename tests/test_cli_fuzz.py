"""The command line never ends in a traceback or a non-finite number.

Hypothesis builds argv for ``check``, ``eval`` and ``evolve`` on the
built-in charts and on random JSON configs of dimension 1 to 4, and runs
``cli.main`` in-process. Whatever the input, the exit code is 0, 1 or 2,
no exception escapes, stdout holds no nan or inf, and exit 2 comes with an
``error:`` line on stderr.
"""

import json
import re

from hypothesis import HealthCheck, example, given, settings, strategies as st

from semiq.cli import main
from semiq.suites import SUITES

NON_FINITE = re.compile(r"(?i)\b(nan|inf)")

# a one-dimensional chart, where every two-form vanishes
LINE = {"dim": 1, "metric": [["1"]], "poisson": [["0"]]}


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
           "box": draw(st.sampled_from([0.5, 1.0]))}
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
    point = ",".join(str(draw(st.sampled_from([-0.7, -0.1, 0.0, 0.3, 0.6])))
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
