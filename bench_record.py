"""Record a BENCH_<n>.json: the benchmark run on two checkouts as interleaved pairs.

Stdlib only.  Runs ``perfbench/run.py`` in a checkout of the parent commit and
in a checkout of the change, one workload at a time, as pairs of runs with the
same seed whose order alternates (the parent first in even pairs, the change
first in odd ones), so that drift of machine speed falls on both sides alike.
Each run lasts the ``run_seconds`` that ``BENCHMARK.json`` sets, and the
pairs use seeds 1 to 10.  Then it runs ``--trace 1`` on ``library-batch``
once per side for the per-layer metrics.  Run it from the change's checkout, for example

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python3 bench_record.py ../parent . --out BENCH_6.json

The JSON holds the machine, both commits, every run's correctness and
failure counts, and for each end-to-end metric the samples, median and
inter-quartile range of each side and the number of pairs the change won.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cli-calls", "scan-raster", "library-batch")
TRACED_WORKLOAD = "library-batch"
SIDES = ("parent", "change")
PAIRS = 10


def run_bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run; its JSON result line, or an ``error`` entry."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def summary(samples: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                      if len(samples) > 1 else samples * 3)
    return {"samples": samples, "median": median, "iqr": q3 - q1}


def machine() -> dict:
    info = {"platform": platform.platform(), "python": platform.python_version(),
            "cpu_count": os.cpu_count()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    probe = subprocess.run([sys.executable, "-c", "import numpy, scipy; "
                            "print(numpy.__version__, scipy.__version__)"],
                           capture_output=True, text=True)
    if probe.returncode == 0:
        info["numpy"], info["scipy"] = probe.stdout.split()
    return info


def commit(checkout: Path) -> str | None:
    """HEAD of the checkout, marked ``+dirty`` when tracked files differ from it."""
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=checkout, capture_output=True,
                              text=True).stdout.strip()
    head = git("rev-parse", "HEAD")
    if not head:
        return None
    return head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    runs = {w: [] for w in WORKLOADS}
    for i in range(PAIRS):
        seed = 1 + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in WORKLOADS:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(checkouts[side], workload, seed, seconds, 0)
                print(f"pair {i} {workload} {side}: {json.dumps(pair[side])[:200]}",
                      file=sys.stderr, flush=True)
            runs[workload].append(pair)

    workloads = {}
    for workload, pairs in runs.items():
        ok = [p for p in pairs if all("error" not in p[s] for s in SIDES)]
        metrics = {}
        for name, direction in better.items():
            values = {s: [p[s]["metrics"][name]["value"] for p in ok] for s in SIDES}
            sign = 1 if direction == "higher" else -1
            metrics[name] = {
                "unit": ok[0]["change"]["metrics"][name]["unit"] if ok else None,
                "better": direction,
                **{s: summary(values[s]) for s in SIDES if values[s]},
                "change_better_pairs": sum(sign * (c - p) > 0 for p, c in
                                           zip(values["parent"], values["change"])),
            }
        workloads[workload] = {
            "runs": [{"seed": p["seed"], "first": p["first"],
                      **{s: {k: p[s][k] for k in ("correct", "attempted", "failed", "error")
                             if k in p[s]} for s in SIDES}} for p in pairs],
            "metrics": metrics,
        }

    per_layer = {"workload": TRACED_WORKLOAD, "seed": 1}
    for side in SIDES:
        result = run_bench(checkouts[side], TRACED_WORKLOAD, 1, seconds, 1)
        per_layer[side] = result
        print(f"trace {side}: correct={result.get('correct')}", file=sys.stderr, flush=True)

    record = {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": machine(),
        "commits": {s: commit(checkouts[s]) for s in SIDES},
        "settings": {"pairs": PAIRS, "seconds": seconds, "trace": 0,
                     "seeds": list(range(1, PAIRS + 1)),
                     "quartiles": "statistics.quantiles(method='inclusive')"},
        "workloads": workloads,
        "per_layer": per_layer,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
