"""crossint benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep|measure|cli --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from src/, as the
test command does.  --trace 0 starts SETUP_REPEATS fresh worker processes
and times each from start to "ready" (imports, inputs, warm-up); the last
one then runs the timed passes.  It prints the end-to-end metrics.
--trace 1 runs one traced worker and prints the per-layer metrics.  The
last stdout line is {"correct", "attempted", "failed", "metrics"}; a copy
goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time

import workloads

SETUP_REPEATS = 5
WORKER_TIMEOUT = 170.0

# metric name suffix -> unit, first match wins
UNITS = (
    ("ops_per_s", "1/s"),
    ("_ms", "ms"),
    ("_ns", "ns"),
    ("_s", "s"),
    ("_mb", "MB"),
    (".calls", "count"),
)


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNITS if name.endswith(suffix))


def start_worker(args: argparse.Namespace, trace: int) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            str(workloads.BENCH_DIR / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(trace),
        ],
        cwd=workloads.ROOT,
        env=workloads.worker_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )


def finish(proc: subprocess.Popen, command: str | None, deadline: float) -> str:
    """Send `command`, wait for the worker to exit and return its last stdout line."""
    try:
        out, _ = proc.communicate(command, timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def measured(args: argparse.Namespace, deadline: float) -> dict:
    setups = []
    for attempt in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = start_worker(args, trace=0)
        waiting, _, _ = select.select([proc.stdout], [], [], deadline - time.monotonic())
        ready = proc.stdout.readline().strip() if waiting else ""
        setups.append(time.perf_counter() - t0)
        if ready != "ready":
            finish(proc, None, deadline)
            raise RuntimeError("worker did not finish its set-up")
        last = attempt == SETUP_REPEATS - 1
        line = finish(proc, "go\n" if last else "stop\n", deadline)
    result = json.loads(line)
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (workloads.SRC / "crossint" / "__init__.py").is_file():
        print(f"error: no crossint package under {workloads.SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT
    if args.trace:
        result = json.loads(finish(start_worker(args, trace=1), None, deadline))
    else:
        result = measured(args, deadline)
    result["metrics"] = {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in sorted(result["metrics"].items())
    }
    workloads.RESULTS.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (workloads.RESULTS / label).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
