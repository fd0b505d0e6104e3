"""One benchmark process: set up one workload, then time it in a closed loop.

Started by ``run.py``, never by hand, as

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                --spawned-at T [--setup-only]

from the checkout root with ``PYTHONPATH=src``.  ``T`` is the launcher's
``time.monotonic()`` just before the spawn, so the set-up time covers the
interpreter start.  The last line of standard output is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import CLI_BINDINGS, LIBRARY_BINDINGS, OP, Tracer
from workloads import WORKLOADS

#: percentiles tried for the latency tail, highest first; each needs at least
#: ten samples beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: operations of each other workload that a traced run adds, so that every
#: traced run reports every per-layer metric
SIDE_PASS_OPS = {"cli-calls": 4, "scan-raster": 1, "library-batch": 200, "oracle-general": None}
LAYERS = ("import", "cli", "inference", "entangle", "measures", "thermo", "oracle",
          "smallmat", "exit", "harness")


#: unit of a per-layer metric, by the suffix of its name
UNITS = {"ms": "ms", "us": "us", "pct": "%", "bytes": "B", "ratio": "ratio",
         "iterations": "count", "evals": "count", "modules": "count"}


def unit_of(name: str) -> str:
    return "us" if name == "oracle.us_per_eval" else UNITS[name.rsplit("_", 1)[1]]


def measure(workload, seconds=None, ops=None, tracer=None):
    """Run whole rounds until the next would end past ``seconds``, or one round of ``ops``.

    Only the operations are timed.  Inputs are made before a round and the
    outputs are checked after it, so a round's operations run back to back.
    An exception from the program counts the operation as failed; a wrong
    output is a mistake.
    """
    rounds, errors, mistakes = [], [], []
    failed = attempted = 0
    modules_before = len(sys.modules)
    start = time.monotonic()
    while True:
        items = [workload.inputs(attempted + k) for k in range(ops or workload.round_size)]
        attempted += len(items)
        latencies, done = [], []
        for item in items:
            index = tracer.open(OP) if tracer else None
            t0 = time.monotonic()
            try:
                result = workload.run(item)
            except Exception:  # a fault of the program: count it and go on
                failed += 1
                errors.append(traceback.format_exc(limit=3))
                continue
            finally:
                op_time = time.monotonic() - t0
                if tracer:
                    tracer.close(index)
            latencies.append(op_time)
            done.append((item, result))
        rounds.append(latencies)
        for item, result in done:
            try:
                workload.check(item, result)
            except Exception as exc:  # CheckFailed, or output that does not parse
                mistakes.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.monotonic() - start
        if ops is not None or elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    return {"attempted": attempted, "failed": failed, "rounds": rounds,
            "errors": errors[:5], "mistakes": mistakes[:5], "mistake_count": len(mistakes),
            "modules_imported": len(sys.modules) - modules_before}


def summarize(run: dict) -> dict:
    """End-to-end figures of one timed loop: throughput, median and latency tail."""
    lat = sorted(x for r in run["rounds"] for x in r)
    out = {"samples": len(lat), "rounds": len(run["rounds"])}
    if not lat:
        return out
    out["ops_per_s"] = len(lat) / sum(lat)
    out["latency_p50_ms"] = statistics.median(lat) * 1e3
    for p in TAIL_PERCENTILES:
        if len(lat) * (100.0 - p) / 100.0 >= 10.0:
            out["latency_tail_ms"] = statistics.quantiles(lat, n=1000)[int(p * 10) - 1] * 1e3
            out["latency_tail_percentile"] = p
            break
    return out


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _median(values):
    return statistics.median(values) if values else 0.0


def _importtime_ms(report: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output, 0 if not imported."""
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*" + re.escape(module) + r"\s*$", re.M)
    found = pattern.search(report)
    return int(found.group(1)) / 1e3 if found else 0.0


def _share(tracer, names) -> float:
    total = sum(tracer.durations(OP))
    return 100.0 * sum(sum(tracer.durations(n)) for n in names) / total


@contextlib.contextmanager
def tracing(workload, tracer):
    """Trace a workload's operations: wrap the program's bindings, or trace the CLI child."""
    if workload.in_process:
        tracer.install(LIBRARY_BINDINGS + CLI_BINDINGS)
    workload.tracer = tracer
    try:
        yield
    finally:
        tracer.uninstall()
        workload.tracer = None


def merge(runs: list) -> dict:
    merged = {"rounds": [r for run in runs for r in run["rounds"]]}
    for key in ("attempted", "failed", "mistake_count", "modules_imported", "errors", "mistakes"):
        merged[key] = sum((run[key] for run in runs), [] if key in ("errors", "mistakes") else 0)
    return merged


def traced_run(named, make, seconds):
    """Per-layer metrics of the named workload and one side pass of each other one.

    The named workload's rounds run alternately untraced and traced, so that
    drifts in machine speed fall on both alike; the two give the overhead.
    """
    passes, untraced, traced = {}, [], []
    tracer = Tracer()
    start = time.monotonic()
    while True:
        untraced.append(measure(named, ops=named.round_size))
        with tracing(named, tracer):
            traced.append(measure(named, ops=named.round_size, tracer=tracer))
        if (time.monotonic() - start) * (len(traced) + 1) / len(traced) > seconds:
            break
    untraced = merge(untraced)
    passes[named.name] = (named, tracer, merge(traced))
    for name in WORKLOADS:
        if name == named.name:
            continue
        workload = make(name)
        workload.warmup()
        tracer = Tracer()
        with tracing(workload, tracer):
            passes[name] = (workload, tracer, measure(
                workload, ops=SIDE_PASS_OPS[name] or workload.round_size, tracer=tracer))
    imported = sum(run["modules_imported"] for w, _, run in passes.values() if w.in_process)

    metrics = {}
    cli, cli_tracer, _ = passes["cli-calls"]
    metrics["import.interpreter_ms"] = _median(cli_tracer.durations("import.interpreter")) * 1e3
    metrics["import.qmaxent_ms"] = _median(cli_tracer.durations("import.qmaxent")) * 1e3
    metrics["import.scipy_optimize_ms"] = _median(
        [_importtime_ms(report, "scipy.optimize") for report in cli.importtimes])
    for command in ("infer", "mutual", "thermo", "verify"):
        metrics[f"cli.run_{command}_ms"] = _median(cli_tracer.durations(f"cli.run_{command}")) * 1e3
    metrics["cli.format_us"] = _median(cli_tracer.durations("cli.format")) * 1e6
    metrics["sep.cli_calls_import_pct"] = _share(cli_tracer, ["import.interpreter", "import.qmaxent"])

    scan, scan_tracer, _ = passes["scan-raster"]
    metrics["entangle.scan_region_ms"] = _median(scan_tracer.durations("entangle.scan_region")) * 1e3
    metrics["cli.region_to_csv_ms"] = _median(scan_tracer.durations("cli.region_to_csv")) * 1e3
    metrics["cli.csv_bytes"] = scan.last_csv_bytes
    metrics["entangle.feasible_ratio"] = scan.feasible_ratio
    metrics["sep.scan_raster_scan_csv_pct"] = _share(
        scan_tracer, ["entangle.scan_region", "cli.region_to_csv"])

    lib, lib_tracer, _ = passes["library-batch"]
    for metric, span in (("inference.validate_us", "inference.validate"),
                         ("inference.infer_state_us", "inference.infer_state"),
                         ("inference.multipliers_us", "inference.multipliers"),
                         ("inference.fixed_point_us", "inference.fixed_point"),
                         ("inference.to_density_matrix_us", "inference.to_density_matrix"),
                         ("entangle.ppt_verdict_us", "entangle.ppt_verdict"),
                         ("measures.mutual_matrix_us", "measures.mutual_matrix"),
                         ("measures.mutual_closed_us", "measures.mutual_closed"),
                         ("thermo.free_energy_us", "thermo.free_energy"),
                         ("thermo.legendre_report_us", "thermo.legendre_report"),
                         ("oracle.split_us", "oracle.split"),
                         ("smallmat.hermitian_eigen_us", "smallmat.hermitian_eigen"),
                         ("smallmat.validate_density_matrix_us", "smallmat.validate_density_matrix")):
        metrics[metric] = _median(lib_tracer.durations(span)) * 1e6
    metrics["oracle.split_iterations"] = _median(lib.split_iterations)

    oracle, oracle_tracer, _ = passes["oracle-general"]
    general = oracle_tracer.durations("oracle.general")
    metrics["oracle.general_ms"] = _median(general) * 1e3
    metrics["oracle.general_evals"] = _median(oracle.traced_evals)
    metrics["oracle.us_per_eval"] = sum(general) / sum(oracle.traced_evals) * 1e6
    metrics["sep.oracle_general_oracle_pct"] = _share(oracle_tracer, ["oracle.general"])
    metrics["sep.in_process_import_modules"] = imported

    _, named_tracer, named_run = passes[named.name]
    op_count = max(1, sum(len(r) for r in named_run["rounds"]))
    self_times = named_tracer.self_times()
    for layer in LAYERS:
        metrics[f"self.{layer}_ms"] = self_times.get(layer, 0.0) / op_count * 1e3
    base = summarize(untraced)["latency_p50_ms"]
    metrics["trace.overhead_pct"] = 100.0 * (summarize(named_run)["latency_p50_ms"] / base - 1.0)
    return metrics, passes, untraced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import qmaxent

    root = Path.cwd().resolve()
    if Path(qmaxent.__file__).resolve().parent != root / "src" / "qmaxent":
        print(f"error: imported {qmaxent.__file__}, not the checkout's src/qmaxent",
              file=sys.stderr)
        return 2

    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)

    def make(name):
        return WORKLOADS[name](args.seed, root, out_dir)

    workload = make(args.workload)
    workload.warmup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not args.trace:
        run = measure(workload, args.seconds)
        summary = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(workload), **summarize(run)}
        summary.update({k: run[k] for k in ("attempted", "failed", "errors", "mistakes",
                                             "mistake_count")})
        print(json.dumps(summary))
        return 0
    metrics, passes, untraced = traced_run(workload, make, args.seconds)
    for name, (_, tracer, _) in passes.items():
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}-{name}.json")
    per_layer = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    summary = {"per_layer": per_layer, "untraced": summarize(untraced),
               "traced": summarize(passes[args.workload][2]),
               **merge([untraced, *(run for _, _, run in passes.values())])}
    del summary["rounds"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
