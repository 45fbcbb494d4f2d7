"""Time the stages of fixed CLI commands and write ``BENCH_<sha>.json``.

    python3 tools/stage_times.py                      # BENCH_<short sha of HEAD>.json
    python3 tools/stage_times.py --out BENCH_x.json --repeats 15

The package is imported from the ``src`` tree next to this script, in
process, with one BLAS thread unless the environment already sets the
thread variables.  Each case is one CLI command: its argument list is
run through ``eigensieve.cli.main`` with stdout captured and the exit
code checked, as the benchmark's worker (``perfbench/worker.py``) runs
an op, and its total is the whole command.  Each case runs once
untimed, then ``--repeats`` times (at least 9); every stage gets the
median and the quartiles of its repeats, and so does the total.
Before each repeat a fixed kernel (``_calibrate``) is timed, and its
median and quartiles go with the case: on a shared host they say how
fast the host ran.  Each stage's median and the case's total are also
written divided by the case's calibration median (``stages_rel``,
``total_rel``).  Dividing does not cancel the host's speed: the
kernels of the stages and of the calibration slow down by different
factors when the host changes state, so an untouched stage can read 14
calibrations in one state and 17 in another.  Only runs alternated
back to back (parent, change, parent, ...) in one host state, whose
calibration medians agree, compare.

A stage is the self time of the spans that the benchmark's tracer
(``perfbench/spans.py``'s ``Tracer``) opens around the sites of
``SITES``, module attributes that the package looks up at call time: a
span's time excludes that of the spans it encloses.  The stages are
those of the pipeline, plus the command around it:

* ``build``: the problem's operators and constraint rows (the
  registry's builders and ``reduction.acoustic_wave``);
* ``compress``: the feasible subspace of each depth and the restricted
  operators (``quality.compress``, and each depth of
  ``experiments.compress_depths`` as it is produced);
* ``eig``: the eigen solve (``quality.eigenpairs``, also where the
  ``sweep-k`` summaries call it, or their ``experiments.eigvals``);
* ``score``: per-mode scoring (``quality._score_modes``);
* ``sort``: the rest of a report (``quality._report``), the mode order
  and the lift of each scored eigenvector to the state space;
* ``reference``: the analytic reference, the registry's covers and
  nearest-reference matching (``experiments.match_to_reference``) of
  ``sweep-k``, or the time-domain solution of ``reduce``
  (``reduction.acoustic_reference``);
* ``retain``: truncation and simulation, the rest of
  ``reduction.reduction_sweep``;
* ``write``: formatting and writing the output table
  (``cli._write_output``);
* ``other``: the rest of ``cli.main``, parsing the arguments and
  assembling the table, and the capture of stdout around it.

The cases are ``analyze`` of acoustic n=256, Orr-Sommerfeld n=110 and
n=150 and canuto n=64 at depth 1; ``sweep-k`` of canuto n=64 to depth
25, as the grid and as the summaries; the grid of acoustic n=256 to
depth 3, whose covers run to 18025 points; and ``reduce`` on acoustic
n=128 with the benchmark's retained counts (seed 1).  Every command of
a benchmark workload is a case (``perfbench/workloads.py``), so the
stages split each workload's op, but for the RK4 cross-check that
``reduce-acoustic`` runs beside its command.  The file also records
the measured tree, ``git rev-parse HEAD`` of the checkout the script
runs from and whether that checkout had uncommitted changes, and the
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
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from unittest import mock

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from eigensieve import cli, experiments, quality, reduction  # noqa: E402

STAGES = ("build", "compress", "eig", "score", "sort", "reference", "retain", "write", "other")

# (module, attribute, stage, counter), the shape of spans.SITES.  The
# tracer also wraps every registered problem's builder and cover.
SITES = [
    (cli, "main", "other", None),
    (cli, "_write_output", "write", None),
    (reduction, "acoustic_wave", "build", None),
    (quality, "compress", "compress", None),
    (quality, "eigenpairs", "eig", None),
    (experiments, "eigenpairs", "eig", None),
    (experiments, "eigvals", "eig", None),
    (quality, "_score_modes", "score", None),
    (quality, "_report", "sort", None),
    (experiments, "_report", "sort", None),
    (experiments, "match_to_reference", "reference", None),
    (reduction, "acoustic_reference", "reference", None),
    (reduction, "reduction_sweep", "retain", None),
]

# the stages of the spans the tracer names itself: its root holds only
# the capture of stdout around cli.main
RENAMED = {spans.ROOT: "other", "problems.build": "build", "problems.reference": "reference"}

SEED = 1
_GRID, _SUMMARY, _OS110, _OS150 = workloads.commands("small-spectra", SEED)
CASES = {
    "acoustic n=256, k=1": workloads.commands("analyze-acoustic", SEED)[0],
    "orr-sommerfeld n=110, k=1": _OS110,
    "canuto n=64, k=1": ["analyze", "--problem", "canuto", "--n", "64"],
    "canuto n=64, k=1..25": _GRID,
    "acoustic n=256, k=1..3": ["sweep-k", "--problem", "acoustic", "--n", "256", "--k-max", "3",
                               "--grid"],
    "reduce acoustic n=128": workloads.commands("reduce-acoustic", SEED)[0],
    "canuto n=64, k=1..25, summary": _SUMMARY,
    "orr-sommerfeld n=150, k=1": _OS150,
}


def run(argv: list[str]) -> tuple[dict[str, float], float]:
    """Seconds of each stage and of the whole of one run of the command ``argv``."""
    tracer = spans.Tracer()
    depths = experiments.compress_depths

    def each_depth(*args, **kwargs):
        # a generator's work runs when the caller asks for the next depth
        walk = depths(*args, **kwargs)
        while True:
            with tracer.span("compress"):
                comp = next(walk, None)
            if comp is None:
                return
            yield comp

    # Tracer.op wraps the sites that spans.SITES names when it is entered
    with mock.patch.object(spans, "SITES", SITES), \
            mock.patch.object(experiments, "compress_depths", each_depth), \
            tracer.op(), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with code {code}")
    times = defaultdict(float)
    for name, seconds in tracer.self_times().items():
        times[RENAMED.get(name, name)] += seconds
    _, _, start, end, _ = tracer.spans[0]
    return dict(times), end - start


def _calibrate():
    """Seconds of a fixed kernel, the eigenvalues of a seeded 160 x 160 matrix."""
    a = np.random.default_rng(0).standard_normal((160, 160))
    start = perf_counter()
    np.linalg.eigvals(a)
    return perf_counter() - start


def _traced_peak_mb(argv):
    """Peak MB of the memory ``tracemalloc`` traces over one run of ``argv``."""
    tracemalloc.start()
    try:
        run(argv)
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
    for name, argv in CASES.items():
        run(argv)
        runs, calibration, faults = [], [], []
        for _ in range(args.repeats):
            calibration.append(_calibrate())
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            runs.append(run(argv))
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
            "tracemalloc_peak_mb": _traced_peak_mb(argv),
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
