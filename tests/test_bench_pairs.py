"""The pair summary of ``tools/bench_pairs.py``, on made-up result lines."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "op_wall_p50_ms", "better": "lower", "bound": 0.2},
           {"name": "ops_per_s", "better": "higher", "bound": 0.2}]


def run(tree, pair, p50, ops, failed=0, seed=1):
    result = {"correct": not failed, "failed": failed,
              "metrics": {"op_wall_p50_ms": {"value": p50}, "ops_per_s": {"value": ops}}}
    return {"tree": tree, "workload": "w", "seed": seed, "pair": pair, "result": result}


def test_summary_counts_pairs_won_by_each_metric_direction():
    runs = [run("parent", 0, 10.0, 5.0), run("change", 0, 4.0, 5.0),
            run("change", 1, 6.0, 4.0), run("parent", 1, 6.0, 6.0),
            run("parent", 2, 12.0, 7.0), run("change", 2, 5.0, 9.0, failed=1),
            run("parent", 0, 1.0, 1.0, seed=2), run("change", 0, 2.0, 1.0, seed=2)]
    s = bench_pairs.summarize(runs, METRICS)
    assert list(s) == ["w seed 1", "w seed 2"]
    one = s["w seed 1"]
    assert (one["pairs"], one["correct"], one["failed"]) == (3, False, 1)
    p50 = one["op_wall_p50_ms"]
    assert p50["parent"] == {"median": 10.0, "q1": 8.0, "q3": 11.0}
    assert p50["change"]["median"] == 5.0
    assert p50["change_better_pairs"] == 2            # the tie in pair 1 counts for neither
    assert p50["ratio_of_medians"] == pytest.approx(0.5)
    ops = one["ops_per_s"]
    assert ops["change_better_pairs"] == 1            # higher is better
    assert ops["ratio_of_medians"] == pytest.approx(5.0 / 6.0)
    two = s["w seed 2"]
    assert two["pairs"] == 1 and two["op_wall_p50_ms"]["change_better_pairs"] == 0
    assert two["ops_per_s"]["ratio_of_medians"] == 1.0


def verdicts(parent, change):
    """The two metrics' (worse_by, verdict) over pairs of made-up p50 and
    ops values."""
    runs = [run(t, i, *v) for i, (p, c) in enumerate(zip(parent, change))
            for t, v in (("parent", p), ("change", c))]
    entry = bench_pairs.summarize(runs, METRICS)["w seed 1"]
    return [(entry[m["name"]]["worse_by"], entry[m["name"]]["verdict"]) for m in METRICS]


def test_summary_gives_each_metric_a_verdict_against_its_bound():
    # the parent spreads (q3 - q1) / median = 0.1 on both metrics
    parent = [(9.5, 9.5), (9.5, 9.5), (10.0, 10.0), (10.5, 10.5), (11.0, 11.0)]
    # p50 15% slower and ops 15% fewer: within the 0.2 bound
    (p50, p50_v), (ops, ops_v) = verdicts(parent, [(11.5, 8.5)] * 5)
    assert (p50, ops) == (pytest.approx(0.15), pytest.approx(0.15))
    assert p50_v == ops_v == "within bound"
    # p50 30% slower is worse; ops 30% more is a move in the good direction
    (p50, p50_v), (ops, ops_v) = verdicts(parent, [(13.0, 13.0)] * 5)
    assert (p50, p50_v) == (pytest.approx(0.3), "worse")
    assert (ops, ops_v) == (pytest.approx(-0.3), "within bound")
    # a parent spread of (12 - 8) / 10 = 0.4 exceeds the bound: no verdict,
    # unless every change run beats every parent run
    wide = [(6.0, 6.0), (8.0, 8.0), (10.0, 10.0), (12.0, 12.0), (14.0, 14.0)]
    (_, p50_v), (_, ops_v) = verdicts(wide, [(10.0, 10.0)] * 5)
    assert p50_v == ops_v == "unresolved"
    (p50, p50_v), (ops, ops_v) = verdicts(wide, [(5.0, 15.0)] * 5)
    assert (p50, p50_v) == (pytest.approx(-0.5), "within bound")
    assert (ops, ops_v) == (pytest.approx(-0.5), "within bound")
    # one change run that does not beat the slowest parent run keeps it open
    (_, p50_v), _ = verdicts(wide, [(5.0, 15.0)] * 4 + [(14.0, 15.0)])
    assert p50_v == "unresolved"


def test_run_once_gives_both_trees_one_bytecode_cache(monkeypatch, tmp_path):
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        seen.append((cwd, env))
        line = '{"correct": true, "failed": 0, "metrics": {}}'
        return bench_pairs.subprocess.CompletedProcess(cmd, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    cache = tmp_path / "pycache"
    for tree in (tmp_path / "parent", tmp_path / "change"):
        assert bench_pairs.run_once(tree, "w", 1, 0.1, cache)["correct"]
    (parent_cwd, parent_env), (change_cwd, change_env) = seen
    assert (parent_cwd, change_cwd) == (tmp_path / "parent", tmp_path / "change")
    assert parent_env == change_env
    assert parent_env["PYTHONPYCACHEPREFIX"] == str(cache)


def fake_run_once(tree, workload, seed, seconds, pycache):
    """A result line in which the change reads half the parent's every metric."""
    p50 = 1.0 if tree.name == "change" else 2.0
    metrics = bench_pairs.json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return {"correct": True, "failed": 0, "metrics": {m["name"]: {"value": p50} for m in metrics}}


def test_a_second_invocation_numbers_its_pairs_on(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "BENCH.json"
    argv = ["bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "w", "v", "--seed", "1", "--pairs", "3", "--out", str(out)]
    for _ in range(2):
        monkeypatch.setattr(bench_pairs.sys, "argv", argv)
        assert bench_pairs.main() == 0
    saved = bench_pairs.json.loads(out.read_text())
    for workload in ("w", "v"):
        runs = [r for r in saved["end_to_end_pairs"] if r["workload"] == workload]
        assert [r["pair"] for r in runs] == [i for i in range(6) for _ in range(2)]
        # pair i puts the parent first when i is even, across invocations too
        assert [r["tree"] for r in runs[::2]] == ["parent", "change"] * 3
        entry = saved["summary"][f"{workload} seed 1"]
        assert entry["pairs"] == 6 and entry["op_wall_p50_ms"]["change_better_pairs"] == 6
    # another seed, or --pairs 0, adds no pair to the ones held
    assert bench_pairs.next_pair(saved["end_to_end_pairs"], "w", 2) == 0
    monkeypatch.setattr(bench_pairs.sys, "argv", argv[:-3] + ["0", "--out", str(out)])
    assert bench_pairs.main() == 0
    assert bench_pairs.json.loads(out.read_text())["summary"]["w seed 1"]["pairs"] == 6


def test_about_is_kept_unless_given_and_pairs_0_needs_no_workload(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "BENCH.json"
    trees = ["bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
             "--out", str(out)]
    pairs = ["--workload", "w", "--seed", "1", "--pairs", "1"]

    def invoke(*argv):
        monkeypatch.setattr(bench_pairs.sys, "argv", trees + list(argv))
        assert bench_pairs.main() == 0
        return bench_pairs.json.loads(out.read_text())

    assert invoke(*pairs, "--about", "first")["about"] == "first"
    assert invoke(*pairs)["about"] == "first"             # more pairs, the description kept
    saved = invoke("--pairs", "0")                        # only the summary is rewritten
    assert saved["about"] == "first" and saved["summary"]["w seed 1"]["pairs"] == 2
    assert invoke("--pairs", "0", "--about", "second")["about"] == "second"
    monkeypatch.setattr(bench_pairs.sys, "argv", trees + ["--pairs", "1"])
    with pytest.raises(SystemExit):                       # pairs to run need a workload and seed
        bench_pairs.main()
    assert bench_pairs.json.loads(out.read_text())["summary"]["w seed 1"]["pairs"] == 2
