"""Time the pipeline's stages on fixed problems and write ``BENCH_<sha>.json``.

    python3 tools/stage_times.py                      # BENCH_<short sha of HEAD>.json
    python3 tools/stage_times.py --out BENCH_x.json --repeats 15

The package is imported from the ``src`` tree next to this script, in
process, with one BLAS thread unless the environment already sets the
thread variables.  Each case runs once untimed, then ``--repeats``
times (at least 9); every stage gets the median and the quartiles of
its repeats, and so does the whole case.  Before each repeat a fixed
kernel (``_calibrate``) is timed, and its median and quartiles go
with the case: on a shared host they say how fast the host ran.  Each
stage's median and the case's total are also written divided by the
case's calibration median (``stages_rel``, ``total_rel``).  Dividing
does not cancel the host's speed: the kernels of the stages and of the
calibration slow down by different factors when the host changes
state, so an untouched stage can read 14 calibrations in one state and
17 in another.  Only runs alternated back to back (parent, change,
parent, ...) in one host state, whose calibration medians agree,
compare.  The stages are those of the pipeline:

* ``build``: the problem's operators and constraint rows;
* ``compress``: the feasible subspace of each depth and the restricted
  operators;
* ``eig``: the eigen solve (``quality.eigenpairs``);
* ``score``: per-mode scoring (``quality._score_modes``);
* ``sort``: the rest of the report, the mode order and the lift of
  each scored eigenvector to the state space;
* ``reference``: the analytic reference, the time-domain solution of
  ``reduce`` or, in the depth sweep, each depth's reference cover and
  nearest-reference match (``experiments.match_to_reference``);
* ``retain``: truncation and simulation, the rest of ``reduce``.

The cases are acoustic n=256, Orr-Sommerfeld n=110 and canuto n=64 at
depth 1; two depth sweeps from one pass each, the work of
``sweep-k --grid`` up to its output rows, reference matching included:
canuto n=64 at every depth 1..25, many short covers, and acoustic
n=256 at depths 1..3, whose covers run to 18025 points; and ``reduce``
on acoustic n=128 with the benchmark's retained counts (seed 1).  A
stage is timed by wrapping the module attribute that the package looks
up at call time, as the benchmark's tracer does, and a wrapper's time
excludes that of the wrappers it calls.  The file also records the
measured tree, ``git rev-parse HEAD`` of the checkout the script runs
from and whether that checkout had uncommitted changes, and the
environment: Python, numpy, the BLAS, the thread variables and
``PYTHONDONTWRITEBYTECODE``.  Stdlib and numpy only.

Each case also records, from one more untimed run under
``tracemalloc``, the peak of the memory it traced
(``tracemalloc_peak_mb``, counted in MB of 1e6 bytes), and the minor
page faults of each timed repeat (``resource.getrusage``'s
``ru_minflt``), median and quartiles in ``minflt``.  The fault count
hangs on the heap that earlier cases leave behind, which decides
whether the allocator maps a large array fresh, so it can move with
code a case never runs: read it beside the traced peak, and compare it
only between runs alternated back to back.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from eigensieve import constrained, experiments, problems, quality, reduction  # noqa: E402

STAGES = ("build", "compress", "eig", "score", "sort", "reference", "retain")


class Clock:
    """Self time per stage of the wrapped calls made inside ``patched``."""

    def __init__(self):
        self.times = defaultdict(float)
        self._children: list[float] = []

    @contextmanager
    def patched(self, sites):
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in sites]
        try:
            for module, attr, stage in sites:
                setattr(module, attr, self._wrap(getattr(module, attr), stage))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def _wrap(self, fn, stage):
        def timed(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.times[stage] += elapsed - self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
        return timed


def _report_stages(build, n):
    """Build, then ``quality_report`` at depth 1: compress, eig, score and sort."""
    clock = Clock()
    sites = [
        (quality, "compress", "compress"),
        (quality, "eigenpairs", "eig"),
        (quality, "_score_modes", "score"),
    ]
    with clock.patched(sites):
        start = perf_counter()
        sys_ = build(n)
        built = perf_counter()
        quality.quality_report(sys_, 1)
        end = perf_counter()
    times = dict(clock.times, build=built - start)
    times["sort"] = end - built - times["compress"] - times["eig"] - times["score"]
    return times, end - start


def _sweep_stages(problem, n, k_max):
    """A problem at every depth 1..k_max from one ``compress_depths`` pass, matched as ``sweep-k``."""
    clock = Clock()
    prob = problems.get_problem(problem)
    with clock.patched([(quality, "eigenpairs", "eig"), (quality, "_score_modes", "score")]):
        start = perf_counter()
        sys_ = prob.build(n=n)
        times = {"build": perf_counter() - start, "compress": 0.0, "sort": 0.0, "reference": 0.0}
        depths = constrained.compress_depths(sys_, k_max)
        while True:
            mark = perf_counter()
            comp = next(depths, None)
            times["compress"] += perf_counter() - mark
            if comp is None:
                break
            mark = perf_counter()
            lams = quality._report(sys_, comp).lambdas
            times["sort"] += perf_counter() - mark
            mark = perf_counter()
            experiments.match_to_reference(lams, prob.reference_cover(float(np.abs(lams).max())))
            times["reference"] += perf_counter() - mark
        end = perf_counter()
    times["eig"], times["score"] = clock.times["eig"], clock.times["score"]
    times["sort"] -= times["eig"] + times["score"]
    return times, end - start


def _reduce_stages(n=workloads.REDUCE_N):
    """``reduction_sweep`` of acoustic n with the benchmark's retained counts."""
    clock = Clock()
    sites = [
        (reduction, "acoustic_wave", "build"),
        (reduction, "acoustic_reference", "reference"),
        (reduction, "quality_report", "sort"),
        (quality, "compress", "compress"),
        (quality, "eigenpairs", "eig"),
        (quality, "_score_modes", "score"),
    ]
    counts = workloads.r_list(1)
    with clock.patched(sites):
        start = perf_counter()
        reduction.reduction_sweep(n, "bump", counts, t_end=workloads.T_END)
        total = perf_counter() - start
    times = dict(clock.times)
    times["retain"] = total - sum(times.values())
    return times, total


CASES = {
    "acoustic n=256, k=1": lambda: _report_stages(problems.acoustic_wave, 256),
    "orr-sommerfeld n=110, k=1": lambda: _report_stages(problems.orr_sommerfeld, 110),
    "canuto n=64, k=1": lambda: _report_stages(problems.canuto_hyperbolic, 64),
    "canuto n=64, k=1..25": lambda: _sweep_stages("canuto", 64, 25),
    "acoustic n=256, k=1..3": lambda: _sweep_stages("acoustic", 256, 3),
    "reduce acoustic n=128": _reduce_stages,
}


def _calibrate():
    """Seconds of a fixed kernel, the eigenvalues of a seeded 160 x 160 matrix."""
    a = np.random.default_rng(0).standard_normal((160, 160))
    start = perf_counter()
    np.linalg.eigvals(a)
    return perf_counter() - start


def _traced_peak_mb(case):
    """Peak MB of the memory ``tracemalloc`` traces over one run of ``case``."""
    tracemalloc.start()
    try:
        case()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _summary(samples):
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def _environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_configuration": blas.get("openblas configuration"),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var) for var in (*THREAD_VARS, "PYTHONDONTWRITEBYTECODE")},
    }


def _git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"git {' '.join(args)} failed in {ROOT}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def _tree():
    """The measured checkout: its HEAD and whether tracked files differ from it."""
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="output file, default BENCH_<short sha>.json")
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()
    if args.repeats < 9:
        parser.error("need at least 9 repeats")
    tree = _tree()
    out = args.out or ROOT / f"BENCH_{tree['commit'][:7]}.json"
    cases = {}
    for name, case in CASES.items():
        case()
        runs, calibration, faults = [], [], []
        for _ in range(args.repeats):
            calibration.append(_calibrate())
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            runs.append(case())
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        stages = {
            stage: _summary([times.get(stage, 0.0) for times, _ in runs])
            for stage in STAGES
            if any(stage in times for times, _ in runs)
        }
        total, calibration = _summary([total for _, total in runs]), _summary(calibration)
        cases[name] = {
            "stages_s": stages,
            "total_s": total,
            "calibration_s": calibration,
            "stages_rel": {
                stage: summary["median"] / calibration["median"]
                for stage, summary in stages.items()
            },
            "total_rel": total["median"] / calibration["median"],
            "tracemalloc_peak_mb": _traced_peak_mb(case),
            "minflt": _summary(faults),
        }
        print(f"{name}: total {cases[name]['total_s']['median']:.4f} s, "
              + ", ".join(f"{s} {v['median']:.4f}" for s, v in stages.items())
              + f"; calibration {cases[name]['calibration_s']['median']:.4f} s"
              + f"; traced peak {cases[name]['tracemalloc_peak_mb']:.2f} MB"
              + f"; minflt {cases[name]['minflt']['median']:.0f}", flush=True)
    record = {
        "tree": tree["commit"],
        "dirty": tree["dirty"],
        "tool": "tools/stage_times.py",
        "repeats": args.repeats,
        "environment": _environment(),
        "cases": cases,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
