"""Benchmark command: runs one nmixfit workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every workload process is a fresh,
single-threaded Python: its BLAS and OpenMP pools are pinned to one
thread through its own environment, and it imports nmixfit from the
checkout's ``src``.  With ``--trace 0`` the command spawns two set-up
probes and then the timed workload process, and reports the end-to-end
metrics; ``setup_s`` is the median of the three set-ups.  With
``--trace 1`` it spawns one workload process that runs one untimed
round, then times untraced rounds and traced rounds, and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics and
their units are those BENCHMARK.json lists.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-analysis", "bias-sweep", "kernel-regimes")
SETUP_PROBES = 2
# every child process must end within this many seconds of the command's start
RUN_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, deadline, setup_only=False):
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(
        argv, env=_child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:])
        raise SystemExit(f"{args.workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "nmixfit" / "__init__.py").is_file():
        raise SystemExit(f"no nmixfit sources under {ROOT / 'src'}; run from a full checkout")

    deadline = time.monotonic() + RUN_TIMEOUT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        run = _spawn(args, deadline)
        values, wanted = run["per_layer"], spec["per_layer"]
    else:
        setups = [_spawn(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        run = _spawn(args, deadline)
        setups.append(run["setup_s"])
        values = dict(run, setup_s=statistics.median(setups))
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = dict(result, round_s=run["round_s"], setup_samples_s=None if args.trace else setups)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
