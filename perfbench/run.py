#!/usr/bin/env python3
"""Benchmark for readmit: runs one workload in this process, checks its
outputs and prints its metrics.

    python3 perfbench/run.py --workload pipeline_m --seed 1 --seconds 35 --trace 0

The load is one closed-loop client: the timed part is repeated back to
back for ``--seconds`` (at least once after any warm-up repeat), on inputs
made once from ``--seed``. A repeat starts only when it is expected to end
less than half a repeat past the window, so a run lasts about ``--seconds``
however long one repeat takes. Set-up is repeated too (at least three
times) and both are reported as medians, divided by the host's speed over
the run (``hostspeed``): a fixed reference kernel is timed before every
set-up and repeat. With ``--trace 1`` one more repeat runs with spans
around readmit's public functions and the per-layer metrics come from it.

The second-to-last stdout line is a JSON object of details (environment,
samples, output digest, failed checks); the last line is the result
``{"correct", "attempted", "failed", "metrics"}`` with the metric names and
units of BENCHMARK.json. Exits 2 without a result when the readmit sources
are not next to this directory, and 1 when set-up fails.
"""

import os

# One BLAS thread, set before numpy loads: the benchmark models one client
# with the config's ``jobs`` = 1, and a fixed thread count keeps BLAS sums,
# and so the output bytes, the same from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("etl_l", "pipeline_m", "forest_l")

SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 2.0      # cheap set-ups repeat until this much time is spent
MAX_PROBLEMS = 5


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(seed: int) -> dict:
    import numpy
    from readmit.pipeline import RunConfig

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": RunConfig().jobs,
        "seed": seed,
    }


class Tally:
    """Attempts, failures, output digests and times of the timed repeats."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.wall_s: list[float] = []
        self.ok: list[bool] = []
        self.warm_up_s: list[float] = []

    def add(self, wall_s: float, problems: list[str], timed: bool):
        self.attempted += 1
        if timed:
            self.wall_s.append(wall_s)
            self.ok.append(not problems)
        else:
            self.warm_up_s.append(wall_s)
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append("; ".join(problems))

    def run_s(self) -> float:
        """Median time of the timed repeats that passed their checks (of
        all timed repeats when none did)."""
        ok = [t for t, good in zip(self.wall_s, self.ok) if good]
        return statistics.median(ok or self.wall_s)


def repeat_once(workload, state, tally: Tally, speed: HostSpeed,
                timed: bool = True) -> float:
    """One run of the workload, then its output check; returns the run's
    wall time. A warm-up run (``timed`` false) is checked and counted as
    attempted but left out of ``run_s``."""
    speed.sample(tally.wall_s[-1] if tally.wall_s else 0.0)
    workload.prepare(state)
    gc.collect()
    started = time.perf_counter()
    try:
        result = workload.run(state)
        problems = []
    except Exception as exc:  # a failing run is counted, not fatal
        traceback.print_exc()
        problems = [f"run raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - started
    if not problems:
        try:
            outcome = workload.check(state, result)
        except Exception as exc:
            traceback.print_exc()
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = outcome.problems
            if outcome.digest is not None:
                if tally.digests and outcome.digest != tally.digests[0]:
                    problems.append("output tree differs from the first repeat")
                tally.digests.append(outcome.digest)
    tally.add(elapsed, problems, timed)
    return elapsed


def measure(workload, seed: int, seconds: float, trace: bool, work: Path):
    speed = HostSpeed()
    setup_s = []
    state = None
    while len(setup_s) < SETUP_MIN_REPEATS or (
            sum(setup_s) < SETUP_BUDGET_S and len(setup_s) < SETUP_MAX_REPEATS):
        state = None          # free the previous set-up before building the next
        gc.collect()
        speed.sample(setup_s[-1] if setup_s else 0.0)
        started = time.perf_counter()
        state = workload.setup(seed, work)
        setup_s.append(time.perf_counter() - started)

    tally = Tally()
    started = time.perf_counter()
    repeat_once(workload, state, tally, speed, timed=not workload.warm_up)
    # Later repeats grow the heap by fragmentation, and how many there are
    # depends on the host's speed: the peak is taken after the first.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not tally.wall_s or (time.perf_counter() - started
                               + statistics.median(tally.wall_s) / 2 < seconds):
        repeat_once(workload, state, tally, speed)
    speed.sample(tally.wall_s[-1])
    untraced_run_s = tally.run_s()
    host_factor = speed.factor()
    details = {}
    values = {
        "setup_s": statistics.median(setup_s) / host_factor,
        "run_s": untraced_run_s / host_factor,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        with tracer.installed(layers.sites()):
            traced_run_s = repeat_once(workload, state, tally, speed)
        values.update(layers.layer_metrics(tracer.spans, traced_run_s, untraced_run_s))
        details["largest_self_time"] = max(layers.LAYERS, key=lambda l: values[f"{l}.self_s"])
        details["spans"] = len(tracer.spans)

    details.update({
        "host_factor": host_factor,
        "host_samples": len(speed.samples),
        "setup_s_samples": setup_s,
        "run_s_samples": tally.wall_s,
        "warm_up_s": tally.warm_up_s,
        "output_sha256": tally.digests[0] if tally.digests else None,
        "problems": tally.problems,
        **workload.details(state, values["run_s"]),
    })
    return values, tally, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "readmit" / "__init__.py").is_file():
        print(f"perfbench: no readmit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        values, tally, details = measure(workload, args.seed, args.seconds,
                                         bool(args.trace), work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    details = {"workload": workload.name, "seconds": args.seconds,
               "trace": args.trace, "environment": environment(args.seed), **details}
    print(json.dumps({"perfbench": details}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
