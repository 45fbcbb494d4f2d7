"""eigensieve benchmark: one workload, a closed loop with a single caller.

    python3 perfbench/run.py --workload small-spectra --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35      # every workload, one table

Run from the root of a source checkout; stdlib only.  Every child
process gets ``src`` on ``PYTHONPATH`` and one BLAS thread.  With
``--trace 0`` the measurement window interleaves three kinds of step,
each chosen so that all three get their share of the window:

* an op in a long-lived worker (worker.py), which calls
  ``eigensieve.cli.main`` in process; the first op is cold and excluded;
* one of the op's commands as a fresh ``python -m eigensieve`` process;
* a set-up: a fresh interpreter that imports the package and builds
  the workload's systems.

Every sample is rescaled by the host speed that the worker's
calibration kernel measures right before and after it, and all
processes share one CPU; NOTES.md explains why.

With ``--trace 1`` the worker alternates untraced and traced ops and
reports per-layer self times and counts (spans.py).  Every op and
every CLI command is checked (checks.py); the last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
#: Share of the window each kind of step gets in an untraced run.
SHARES = {"op": 0.42, "cli": 0.42, "setup": 0.16}
#: Samples each kind of step gets even when the window is too short.
MIN_SAMPLES = {"op": 3, "cli": 3, "setup": 3}
CHILD_TIMEOUT = 120
#: Reference time of the worker's calibration kernel: about its median
#: on the 2-core x86_64 host the bounds were set on (OpenBLAS 0.3.31,
#: one thread).  Timed metrics are in seconds at that host speed.
CAL_REF_S = 0.055

END_TO_END = {"setup_s": "s", "op_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(dict.fromkeys(THREAD_VARS, BLAS_THREADS))
    return env


class Worker:
    """The worker process and its request/reply pipe."""

    def __init__(self, workload: str, seed: int, spans: Path | None):
        cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, what: str) -> dict:
        self.proc.stdin.write(what + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def fresh(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one fresh interpreter to completion; return its wall time."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    return perf_counter() - start, proc


class Tally:
    """Attempted ops and the failure message of each failed one."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.errors.append(error)
            print(f"FAILED: {error}", file=sys.stderr)
        return error is None


def _cli_error(argv: list[str], proc: subprocess.CompletedProcess) -> str | None:
    if proc.returncode != 0:
        return f"python -m eigensieve {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        checks.check_output(argv, proc.stdout)
    except checks.CheckError as exc:
        return f"python -m eigensieve {argv[0]}: {exc}"
    return None


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """Interleave warm ops, fresh CLI commands and fresh set-ups.

    The worker times the calibration kernel after every sample, so each
    sample has a calibration on either side.  Each sample is kept as its
    wall time and the index of the calibration right after it.
    """
    commands = workloads.commands(workload, seed)
    setup_args = [str(HERE / "worker.py"), workload, "--seed", str(seed), "--setup"]
    fresh(setup_args)  # unmeasured: leaves compiled bytecode behind, as any earlier run would
    samples = {"op": [], "setup": [], **{f"cli{i}": [] for i in range(len(commands))}}
    spent = dict.fromkeys(SHARES, 0.0)
    worker = Worker(workload, seed, None)
    try:
        first = worker.request("op")
        tally.record(first.get("error"))
        cals = [worker.request("cal")["cal"]]
        start = perf_counter()
        while True:
            counts = {"op": len(samples["op"]), "setup": len(samples["setup"]),
                      "cli": min(len(samples[f"cli{i}"]) for i in range(len(commands)))}
            short = [kind for kind in SHARES if counts[kind] < MIN_SAMPLES[kind]]
            if perf_counter() - start >= seconds:
                if not short:
                    break
                choices = short
            else:
                choices = list(SHARES)
            kind = min(choices, key=lambda k: spent[k] / SHARES[k])
            t0 = perf_counter()
            key, wall = kind, None
            if kind == "op":
                reply = worker.request("op")
                if tally.record(reply.get("error")):
                    wall = reply["wall"]
            elif kind == "cli":
                i = min(range(len(commands)), key=lambda j: len(samples[f"cli{j}"]))
                key = f"cli{i}"
                elapsed, proc = fresh(["-m", "eigensieve", *commands[i]])
                if tally.record(_cli_error(commands[i], proc)):
                    wall = elapsed
            else:
                elapsed, proc = fresh(setup_args)
                if proc.returncode == 0:
                    wall = elapsed
                else:
                    print(f"set-up failed: {proc.stderr.strip()[-300:]}", file=sys.stderr)
            cals.append(worker.request("cal")["cal"])
            if wall is not None:
                samples[key].append((wall, len(cals) - 1))
            spent[kind] += perf_counter() - t0
        final = worker.request("end")
    finally:
        worker.close()
    return {"samples": samples, "cals": cals, "final": final, "first_op": first.get("wall")}


def measure_traced(workload: str, seed: int, seconds: float, tally: Tally, spans: Path) -> dict:
    """Alternate untraced and traced ops in one worker."""
    plain: list[float] = []
    traced: list[float] = []
    worker = Worker(workload, seed, spans)
    try:
        tally.record(worker.request("op").get("error"))
        start = perf_counter()
        while (perf_counter() - start < seconds
               or min(len(plain), len(traced)) < MIN_SAMPLES["op"]):
            for kind, samples in (("op", plain), ("traced", traced)):
                reply = worker.request(kind)
                if tally.record(reply.get("error")):
                    samples.append(reply["wall"])
        final = worker.request("end")
    finally:
        worker.close()
    return {"plain": plain, "traced": traced, "final": final}


def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n <= 10:
        return None
    k = n - 10  # the k-th smallest has exactly ten samples above it
    return f"p{100 * k // n}", sorted(samples)[k - 1]


def environment(workload: str, seed: int, seconds: float) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "thread_env": {var: BLAS_THREADS for var in THREAD_VARS},
    }


def host_speed(cals: list[float]) -> list[float]:
    """Speed factor of the sample between calibrations j-1 and j, indexed by j."""
    return [CAL_REF_S / statistics.fmean(cals[max(0, j - 1): j + 1]) for j in range(len(cals))]


def _timings(values: dict[str, list[float]]) -> dict[str, float]:
    """setup_s, op_s and cli_s from per-kind samples; cli_s sums per-command medians."""
    return {
        "setup_s": statistics.median(values["setup"]),
        "op_s": statistics.median(values["op"]),
        "cli_s": sum(statistics.median(v) for key, v in values.items() if key.startswith("cli")),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return the result object and the full record."""
    tally = Tally()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {"environment": environment(workload, seed, seconds)}
    if trace:
        raw = measure_traced(workload, seed, seconds, tally, out_dir / f"{stem}.spans.json")
        layers = raw["final"]["layers"]
        op_traced = statistics.median(raw["traced"])
        op_plain = statistics.median(raw["plain"])
        layers["trace.overhead_s"] = op_traced - op_plain
        # the layer self times above, trace.untraced_s included, add up to this
        layers["trace.op_s"] = statistics.fmean(raw["traced"])
        metrics = layers
        record["samples"] = {"op_untraced": len(raw["plain"]), "op_traced": len(raw["traced"])}
    else:
        raw = measure(workload, seed, seconds, tally)
        samples, speed = raw["samples"], host_speed(raw["cals"])
        scaled = {key: [wall * speed[j] for wall, j in pairs] for key, pairs in samples.items()}
        walls = {key: [wall for wall, _ in pairs] for key, pairs in samples.items()}
        metrics = {**_timings(scaled), "peak_rss_mb": raw["final"]["peak_rss_mb"]}
        record["wall"] = _timings(walls)
        record["host_speed"] = statistics.median(speed)
        record["samples"] = {key: len(pairs) for key, pairs in samples.items()}
        record["op_tail"] = tail(scaled["op"])
        record["first_op_wall_s"] = raw["first_op"]
        record["raw"] = {"samples": samples, "cals": raw["cals"]}
    record["environment"].update(raw["final"]["environment"])
    record["error_rate"] = len(tally.errors) / tally.attempted
    record["errors"] = tally.errors[:10]
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    record["result"] = result
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "bytes" if name == "cli.bytes_out" else "count"


def describe(workload: str, result: dict, record: dict) -> list[str]:
    samples = record["samples"]
    lines = [f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
             f"error_rate {record['error_rate']:.4g} ratio"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if "op" in samples:
        tail_text = "no percentile above the median has ten samples beyond it"
        if record["op_tail"]:
            tail_text = f"{record['op_tail'][0]} {record['op_tail'][1]:.6g} s"
        cli = [n for key, n in samples.items() if key.startswith("cli")]
        lines.append(f"  samples: setup {samples['setup']}, op {samples['op']} ({tail_text}), "
                     f"cli per command {cli}")
        wall = ", ".join(f"{name} {value:.6g} s" for name, value in record["wall"].items())
        lines.append(f"  unscaled wall medians: {wall}; host speed {record['host_speed']:.4g}")
    else:
        lines.append(f"  samples: untraced ops {samples['op_untraced']}, traced ops {samples['op_traced']}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "eigensieve" / "cli.py").is_file():
        print(f"no eigensieve sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # one caller at a time, so one CPU suffices; the calibration then
    # runs on the same CPU as every sample it rescales
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(describe(name, result, record)))
        print(json.dumps({"environment": record["environment"]}))
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
