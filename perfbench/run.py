"""qmaxent benchmark: one workload, one closed loop, one JSON line of results.

Run from the repository root (stdlib only; the program under test needs
numpy and scipy):

    python3 perfbench/run.py --workload library-batch --seed 1 --seconds 38 --trace 0

Workloads: cli-calls, scan-raster, library-batch (see README.md).  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a separate
traced run, whose spans go to ``perfbench/out/``.  Set-up time is the median
over SETUP_SAMPLES fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: every run must end within this many seconds, set-up included
RUN_BUDGET_S = 170.0
#: processes whose set-up is timed per run: SETUP_SAMPLES - 1 set-up-only
#: probes, then the measuring process itself
SETUP_SAMPLES = 3
#: the end-to-end workloads; the general oracle is only a traced layer pass
WORKLOAD_NAMES = ("cli-calls", "scan-raster", "library-batch")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def spawn(root: Path, args, deadline: float, setup_only: bool = False) -> dict:
    """Run one worker process to its end and return the JSON of its last line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    spawned_at = time.monotonic()
    # a session of its own, so that a timeout also ends the worker's CLI children
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker did not finish within {RUN_BUDGET_S:.0f} s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="qmaxent benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        return fail(f"--seconds must lie in [1, 60], got {args.seconds}")

    root = Path.cwd().resolve()
    if not (root / "src" / "qmaxent" / "__init__.py").is_file():
        return fail(f"no program to measure: {root}/src/qmaxent is missing; "
                    "run from the repository root")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups = [] if args.trace else [
            spawn(root, args, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        summary = spawn(root, args, deadline)
    except RuntimeError as exc:
        return fail(str(exc))

    if args.trace:
        values = summary["per_layer"]
    else:
        setups.append(summary["setup_s"])
        summary["setup_samples_s"] = setups
        summary["setup_s"] = statistics.median(setups)
        values = {name: {"value": summary[name], "unit": unit}
                  for name, unit in END_TO_END_UNITS.items()}
    result_file = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(summary, indent=1) + "\n")
    for message in summary["mistakes"] + summary["errors"]:
        print(message, file=sys.stderr)
    print(json.dumps({"correct": summary["mistake_count"] == 0,
                      "attempted": summary["attempted"], "failed": summary["failed"],
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
