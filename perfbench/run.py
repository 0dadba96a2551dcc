"""Benchmark of the semiq engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from its
``src`` directory. Workloads (closed loop, one client, one process, every
command run in-process through ``semiq.cli.main``):

* ``cpn2-check``: ``semiq check cpn --n 2`` with its five default suites
  on one shared geometry. Jet levels 2-3 dominate, frames are reused
  across suites.
* ``small-charts-check``: ``semiq check`` on cpn n=1, flat n=1, the
  expression-defined plane of ``exp_plane.json`` and flat-torsion, each
  with its default suites; dim-2 charts bound by Python dispatch. Covers
  the config route, evolution and the expected failures of flat-torsion.
* ``interactive-eval``: single-point ``eval`` and ``evolve`` commands on
  cpn n=1, 2 and flat n=1, each building its geometry and a cold frame.

A unit is one check command, the four check commands, or one eval or
evolve command. With ``--trace 0`` the last line of stdout holds the
end-to-end metrics, measured untraced:

* ``setup_s``: import plus the workload's geometry and config
  construction, median of 9 fresh interpreters;
* ``op_wall_p50_ms``, ``op_wall_tail_ms``: median and tail of a unit's
  wall time; the tail is p99 on interactive-eval and p75 on the check
  workloads, whose runs hold about 40 units;
* ``ops_per_s``: units per second of unit wall time;
* ``peak_rss_mb``: peak resident memory of the benchmark process;
* ``residual_headroom_log10``: per unit, the least log10(tol / residual)
  over its checks that must pass; the mean over units.

Times are given at reference host speed (see ``hostspeed.py``); the raw
figures are on the line before. With ``--trace 1`` the last line holds
the per-layer metrics of a traced pass over the units an untraced pass
just ran, whose outputs must match it byte for byte (see ``tracer.py``).
Metric names and units come from BENCHMARK.json. ``attempted`` counts
commands, ``failed`` those whose output was wrong.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: np.linalg.inv reaches LAPACK, and the host has two cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
MAX_MEASURE_S = 100.0   # keeps a run under the 180-s limit on a slow host


def import_semiq():
    """Import the engine of this checkout, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import semiq.cli
        import semiq.evolution  # noqa: F401  (imported lazily by `evolve`)
    except ImportError as exc:
        sys.exit(f"cannot import semiq from {SRC}: {exc}")
    if SRC.resolve() not in Path(semiq.cli.__file__).resolve().parents:
        sys.exit(f"semiq was imported from {semiq.cli.__file__}, not from {SRC}")
    return semiq.cli


def setup_probe(workload: str) -> None:
    """One set-up, timed: import plus geometry and config construction."""
    t0 = perf_counter()
    cli = import_semiq()
    import workloads
    for name, n in workloads.GEOMETRIES[workload]:
        cli.build_geometry(name, n)
    print(perf_counter() - t0)


def setup_seconds(workload: str) -> tuple:
    """Median of several set-ups, each in a fresh interpreter: (raw, at reference speed)."""
    from hostspeed import SpeedTrack

    times = []
    track = SpeedTrack(every=0.0)
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", workload],
            capture_output=True, text=True, timeout=60, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
        track.after(len(times), times[-1])
    return statistics.median(times), statistics.median(track.adjust(times))


class Runner:
    """Runs units of one workload and checks every command's output."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_output = {}    # argv -> stdout of its first run

    def command(self, cmd):
        """(stdout, headrooms) of one command; failures are counted."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(cmd.argv))
            text = out.getvalue()
            rooms = cmd.verify(code, text)
            first = self.first_output.setdefault(cmd.argv, text)
            if first != text:
                raise AssertionError("report differs from an earlier run of the same command")
            return text, rooms
        except (Exception, SystemExit):   # one failing command must not end the run
            self.failed += 1
            print(f"FAILED {' '.join(cmd.argv)}\n{err.getvalue()}{traceback.format_exc()}",
                  file=sys.stderr)
            return None, []

    def unit(self, unit):
        """Wall seconds, stdouts and minimum headroom of one unit."""
        t0 = perf_counter()
        outs = []
        rooms = []
        for cmd in unit:
            out, r = self.command(cmd)
            outs.append(out)
            rooms += r
        wall = perf_counter() - t0
        # a CLI call ends its process; free its geometry's reference cycles
        # here, untimed, rather than in a later unit's timed region
        gc.collect()
        return wall, outs, min(rooms, default=None)

    def measure(self, seconds: float = 0.0, count: int = 0):
        """Units in a cycle from the first, for ``seconds`` or ``count`` units.

        Returns walls, outputs and headrooms; ``self.speed`` holds the host
        speed calibrations taken between the units.
        """
        from hostspeed import SpeedTrack

        units = self.workload.units
        walls, outs, rooms = [], [], []
        self.speed = SpeedTrack()
        start = perf_counter()
        while True:
            wall, out, room = self.unit(units[len(walls) % len(units)])
            walls.append(wall)
            self.speed.after(len(walls), wall)
            outs.append(out)
            if room is not None:
                rooms.append(room)
            if count:
                if len(walls) == count:
                    return walls, outs, rooms
                continue
            elapsed = perf_counter() - start
            whole = not self.workload.whole_cycles or len(walls) % len(units) == 0
            if elapsed >= MAX_MEASURE_S or (
                    elapsed >= seconds and whole and len(walls) >= self.workload.min_units):
                return walls, outs, rooms


def wall_stats(walls, tail_pct: int) -> dict:
    ms = [1000.0 * w for w in walls]
    return {
        "op_wall_p50_ms": statistics.median(ms),
        "op_wall_tail_ms": statistics.quantiles(ms, n=100, method="inclusive")[tail_pct - 1],
        "ops_per_s": len(walls) / sum(walls),
    }


def end_to_end(runner, workload_name: str, seconds: float) -> tuple:
    """End-to-end metrics, times at reference speed, plus the raw times."""
    from hostspeed import REFERENCE_S

    setup_raw, setup = setup_seconds(workload_name)
    walls, _, rooms = runner.measure(seconds)
    tail = runner.workload.tail_pct
    metrics = {
        "setup_s": setup,
        **wall_stats(runner.speed.adjust(walls), tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "residual_headroom_log10": statistics.fmean(rooms),
    }
    raw = {"setup_s": setup_raw, **wall_stats(walls, tail),
           "slowdown_p50": statistics.median(c for _, c in runner.speed.marks) / REFERENCE_S}
    return metrics, len(walls), raw


def per_layer(runner, seconds: float, names) -> tuple:
    """Untraced pass, then two traced passes over the same units.

    The traced reports must equal the untraced ones byte for byte, and
    every exact count (calls, output bytes, frame misses) must repeat
    between the two traced passes.
    """
    from tracer import Tracer

    walls, outs, _ = runner.measure(seconds / 3)
    untraced_s = sum(runner.speed.adjust(walls))
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_outs, _ = runner.measure(count=len(walls))
        traced_s = sum(runner.speed.adjust(traced))
        first = tracer.exact_counts()
        metrics = {name: tracer.metric(name) for name in names
                   if name != "trace.overhead_ratio"}
        tracer.reset()
        _, again_outs, _ = runner.measure(count=len(walls))
        second = tracer.exact_counts()
    finally:
        tracer.uninstall()
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    for label, got in (("traced", traced_outs), ("second traced", again_outs)):
        if got != outs:
            runner.failed += 1
            print(f"FAILED self-test: {label} reports differ from untraced", file=sys.stderr)
    if first != second:
        runner.failed += 1
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        print(f"FAILED self-test: counts differ between traced passes: {diff[:10]}",
              file=sys.stderr)
    return metrics, len(walls)


def environment(load) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": load,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--setup-probe":
        setup_probe(sys.argv[2])
        return 0
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    load = os.getloadavg()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = import_semiq()
    env = environment(load)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(cli, wl)
    runner.unit(wl.units[0])   # warm-up; its outputs anchor the repeat check

    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, units = per_layer(runner, args.seconds, [m["name"] for m in table])
        raw = None
    else:
        values, units, raw = end_to_end(runner, args.workload, args.seconds)
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "units_measured": units, "raw": raw}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
