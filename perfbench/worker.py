"""In-process side of the benchmark: one interpreter runs one workload.

run.py starts it with the BLAS thread count pinned in its environment
and ``src`` on ``PYTHONPATH``.  It sets the workload up, then serves
requests read from stdin one at a time, replying with one JSON line
each; run.py sends the next request only after the reply (a closed
loop with a single caller).  Requests are ``op``, ``traced`` and
``cal`` and ``end``.

    python3 perfbench/worker.py small-spectra --seed 1 [--spans FILE]
    python3 perfbench/worker.py small-spectra --seed 1 --setup   # set up, exit
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import resource
import sys
import traceback
from time import perf_counter

import numpy as np
import scipy
from scipy.linalg import eig, eigvals, expm

from eigensieve import cli, constrained, problems, reduction

import checks
import workloads
from spans import Tracer

#: RK4 step as a share of its stability limit |h lam| <= 2.83 on the
#: imaginary axis: 2.5 / max|lam| is about 1400 steps for acoustic n=128.
RK4_STEP_SCALE = 2.5
#: RK4 pressure against the exact exponential of the same compressed
#: model; the integrator's own error at this step is about 4e-5.
RK4_RTOL = 1e-3


class Rk4CrossCheck:
    """Integrates the full compressed acoustic model with RK4 to ``T_END``.

    Set-up derives the step from the compressed spectrum and the exact
    final pressure from the matrix exponential; an op compresses and
    integrates, and the check compares the two pressures.
    """

    def __init__(self, sys_):
        self.sys = sys_
        n = sys_.n // 2
        self.n = n
        self.x0 = np.concatenate([problems.bump_ic(sys_.labels["grid"]), np.zeros(n)])
        comp = constrained.compress(sys_, 1)
        self.dt = RK4_STEP_SCALE / float(np.abs(eigvals(comp.a_k)).max())
        exact = comp.m @ (expm(workloads.T_END * comp.a_k) @ (comp.m_left @ self.x0))
        self.p_exact = exact[:n].real

    def run(self):
        comp = constrained.compress(self.sys, 1)
        result = reduction.simulate_rk4(comp.a_k, comp.m_left @ self.x0, workloads.T_END, self.dt)
        return comp, result

    def check(self, comp, result) -> None:
        p = (comp.m @ result.states[-1])[: self.n].real
        err = float(np.linalg.norm(p - self.p_exact) / np.linalg.norm(self.p_exact))
        if not math.isfinite(err) or err > RK4_RTOL:
            raise checks.CheckError(f"rk4 pressure differs from the exact solution by {err:.3e}")


class Calibration:
    """Fixed kernel that measures how fast the host runs right now.

    The same mix as an op, at a fixed size and independent of the
    package: a dense LAPACK eigensolve, the per-mode scoring pattern (a
    mat-vec with a dense drift matrix, then a two-column SVD and a norm)
    in a Python loop, and .17g CSV formatting.  run.py times it around
    every sample and rescales the sample by it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.square = rng.standard_normal((160, 160))
        self.drift = rng.standard_normal((512, 512))
        self.modes = rng.standard_normal((512, 48)) + 1j * rng.standard_normal((512, 48))

    def __call__(self) -> float:
        start = perf_counter()
        eig(self.square)
        for v in self.modes.T:
            w = self.drift @ v
            np.linalg.svd(np.column_stack([w.real, w.imag]), full_matrices=False)
            np.linalg.norm(w)
        writer = csv.writer(io.StringIO())
        for row in self.drift[:12]:
            writer.writerows([format(float(x), ".17g")] for x in row)
        return perf_counter() - start


class Workload:
    """Systems built at set-up and the calls of one op."""

    def __init__(self, name: str, seed: int):
        self.commands = workloads.commands(name, seed)
        self.systems = [problems.get_problem(p).build(n=n) for p, n in workloads.systems(name)]
        self.rk4 = Rk4CrossCheck(self.systems[0]) if name == "reduce-acoustic" else None

    def op(self, tracer=None) -> dict:
        """Run one op, timed; check its outputs afterwards, untimed."""
        outputs = []
        rk4 = None
        with tracer.op() if tracer else contextlib.nullcontext():
            start = perf_counter()
            for argv in self.commands:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                outputs.append((argv, code, buf.getvalue()))
            if self.rk4 is not None:
                rk4 = self.rk4.run()
            wall = perf_counter() - start
        if tracer:
            tracer.counts["cli.bytes_out"] += sum(len(text.encode()) for _, _, text in outputs)
        for argv, code, text in outputs:
            if code != 0:
                raise checks.CheckError(f"{argv[0]} exited with code {code}")
            checks.check_output(argv, text)
        if rk4 is not None:
            self.rk4.check(*rk4)
        return {"wall": wall}


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
    }


def serve(work: Workload, spans_path: str | None) -> None:
    tracer = None
    calibrate = Calibration()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = line.strip()
        if request == "cal":
            print(json.dumps({"cal": calibrate()}), flush=True)
            continue
        if request == "end":
            reply = {
                "environment": environment(),
                # ru_maxrss is in KiB on Linux
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            if tracer is not None:
                reply["layers"] = tracer.summary()
                reply["traced_ops"] = tracer.ops
                if spans_path:
                    tracer.dump(spans_path)
            print(json.dumps(reply), flush=True)
            return
        if request == "traced" and tracer is None:
            tracer = Tracer()
        try:
            reply = work.op(tracer if request == "traced" else None)
            reply["ok"] = True
        except Exception as exc:  # an op failure is a result to report, not a crash
            traceback.print_exc(file=sys.stderr)
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(reply), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup", action="store_true", help="set up, then exit")
    parser.add_argument("--spans", help="file the traced spans are written to")
    args = parser.parse_args()
    work = Workload(args.workload, args.seed)
    if not args.setup:
        serve(work, args.spans)


if __name__ == "__main__":
    main()
