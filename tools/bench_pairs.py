"""Alternated benchmark pairs of two checkouts, written as a BENCH_*.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [W ...] \
        --seed S [S ...] --pairs N --seconds 35 --out BENCH_NNNN.json [--about TEXT]

For every workload and seed, pair i runs ``python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0`` in each checkout, one run at
a time: the parent first when i is even, the change first when it is odd,
so that a drift of the host falls on both sides alike. Each run's result
line is kept in ``end_to_end_pairs``. ``summary`` gives, per workload and
seed and per end-to-end metric of ``BENCHMARK.json``, each side's median
and quartiles, the pairs the change won (ties apart), the ratio of the
change's median to the parent's, ``worse_by``, the change median's
relative move in the metric's bad direction, and a ``verdict`` against the
metric's ``bound``: ``unresolved`` when the parent's (q3 - q1) / median
exceeds the bound and not every change run beats every parent run, else
``worse`` when ``worse_by`` exceeds the bound, else ``within bound``.
Pairs already in an existing OUT file are kept, so one file can gather
runs made at different times: a new run's pairs are numbered on from the
last one OUT holds for its workload and seed. ``--pairs 0`` only rewrites the summary (and ``about``, if given),
and needs no ``--workload`` or ``--seed``. ``about`` keeps the text OUT
holds unless ``--about`` is given.

Every run writes and reads bytecode in one directory the tool makes empty
(``PYTHONPYCACHEPREFIX``), never in a ``__pycache__`` of either checkout:
a cache left in one tree only would lower that tree's ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: float, pycache: Path) -> dict:
    """The result line of one perfbench run in ``tree``, its bytecode cached
    under ``pycache``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list, metrics: list) -> dict:
    """Per workload and seed: each metric's quartiles, pairs won, ratio and
    bound verdict."""
    out = {}
    for key in dict.fromkeys((r["workload"], r["seed"]) for r in runs):
        mine = [r for r in runs if (r["workload"], r["seed"]) == key]
        side = {t: {r["pair"]: r["result"] for r in mine if r["tree"] == t}
                for t in ("parent", "change")}
        pairs = sorted(side["parent"].keys() & side["change"].keys())
        entry = {"pairs": len(pairs),
                 "correct": all(r["result"]["correct"] for r in mine),
                 "failed": sum(r["result"]["failed"] for r in mine)}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            vals = {t: [side[t][i]["metrics"][name]["value"] for i in pairs] for t in side}
            won = sum((c < p) if lower else (c > p)
                      for p, c in zip(vals["parent"], vals["change"]))
            stats = {t: quartiles(v) for t, v in vals.items()}
            pm, cm = stats["parent"]["median"], stats["change"]["median"]
            worse_by = (cm - pm if lower else pm - cm) / pm
            spread = (stats["parent"]["q3"] - stats["parent"]["q1"]) / pm
            beats_all = (max(vals["change"]) < min(vals["parent"]) if lower
                         else min(vals["change"]) > max(vals["parent"]))
            if spread > m["bound"] and not beats_all:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse_by > m["bound"] else "within bound"
            entry[name] = {**stats, "change_better_pairs": won,
                           "ratio_of_medians": cm / pm, "worse_by": worse_by,
                           "verdict": verdict}
        out[f"{key[0]} seed {key[1]}"] = entry
    return out


def next_pair(runs: list, workload: str, seed: int) -> int:
    """The number of the next pair of ``workload`` and ``seed``: one past the
    highest in ``runs``, or 0."""
    return 1 + max((r["pair"] for r in runs if (r["workload"], r["seed"]) == (workload, seed)),
                   default=-1)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", nargs="+", default=[])
    p.add_argument("--seed", type=int, nargs="+", default=[])
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--about")
    args = p.parse_args()
    if args.pairs and not (args.workload and args.seed):
        p.error("--workload and --seed are required unless --pairs is 0")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    held = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs = held.get("end_to_end_pairs", [])
    about = args.about if args.about is not None else held.get("about", "")

    def save():
        args.out.write_text(json.dumps({"about": about, "summary": summarize(runs, metrics),
                                        "end_to_end_pairs": runs}, indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-pycache-") as pycache:
        for seed in args.seed:
            for workload in args.workload:
                start = next_pair(runs, workload, seed)
                for i in range(start, start + args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    for tree in order:
                        result = run_once(trees[tree], workload, seed, args.seconds,
                                          Path(pycache))
                        runs.append({"tree": tree, "workload": workload, "seed": seed,
                                     "pair": i, "result": result})
                        print(f"{workload} seed {seed} pair {i} {tree}: op_wall_p50_ms "
                              f"{result['metrics']['op_wall_p50_ms']['value']:.3f}",
                              file=sys.stderr, flush=True)
                    save()      # after every pair, so an interrupted run keeps its pairs
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
