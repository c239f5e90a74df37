"""The cadorder benchmark: one workload, one process, one caller.

    python3 perfbench/run.py --workload corpus|hard|roots|stats \\
        --seed N --seconds S --trace 0|1

Set-up imports ``cadorder`` from ``src/`` and prepares the workload's inputs
at ``--seed`` (see ``workloads.py``); it is repeated ``SETUP_REPEATS`` times
and ``setup_s`` is the median.  One pass then runs every input once, item
after item, through the public entry points: ``cadorder.cli.run`` for
``analyze`` and ``roots``, and ``load_cell_table``/``compute_report``/
``emit_report`` for ``stats``.  No input is run twice in a process, so a memo
kept across problems cannot turn repeats into hits.  The pass takes as long as
it takes; ``--seconds`` is accepted and not used.  Every output is checked
afterwards.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the one pass is traced instead; the last line reports the
per-layer metrics and the spans go to
``.perfbench/trace-<workload>-seed<N>.json``.  Earlier lines print the
machine, every metric with its unit, and figures that are not metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import clock
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 11

END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

TIMED_LAYERS = (
    "parsing.parse_system",
    "poly.resultant",
    "poly.discriminant",
    "poly.exact_div",
    "poly.canonicalize",
    "projection.full_projection",
    "univariate.count_distinct_real_roots",
    "heuristics.choose.brown",
    "heuristics.choose.sotd",
    "heuristics.choose.ndrr",
)

# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = (
    [(f"{layer}.{kind}", unit) for layer in TIMED_LAYERS for kind, unit in (("calls", "count"), ("s", "s"))]
    + [
        *[(f"heuristics.choose.{h}.total_s", "s") for h in ("brown", "sotd", "ndrr")],
        ("poly.resultant.distinct", "count"),
        ("poly.resultant.repeat_frac", "ratio"),
        ("poly.resultant.max_coeff_bits", "bits"),
        ("poly.resultant.max_out_terms", "count"),
        ("poly.discriminant.distinct", "count"),
        ("projection.steps", "count"),
        ("projection.level_polys", "count"),
        ("projection.level_terms", "count"),
        ("projection.max_degree", "count"),
        ("univariate.count_distinct_real_roots.max_degree", "count"),
        ("univariate.count_distinct_real_roots.max_coeff_bits", "bits"),
        ("univariate.squarefree_part.s", "s"),
        ("stats.load_cell_table.s", "s"),
        ("stats.load_cell_table.rows", "count"),
        ("stats.compute_report.s", "s"),
        ("stats.emit_report.s", "s"),
        ("cli.run.s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def load_cadorder():
    """Import a fresh copy of the package, as a new process would."""
    for name in [m for m in sys.modules if m == "cadorder" or m.startswith("cadorder.")]:
        del sys.modules[name]
    cadorder = importlib.import_module("cadorder")
    importlib.import_module("cadorder.cli")
    return cadorder


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_pass(cadorder, items, tracer=None, cpu=process_time) -> dict:
    """Run every item once, back to back; outputs are checked later."""
    results = []
    start, cpu_start = perf_counter(), cpu()
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        t0 = perf_counter()
        try:
            output, error = item.run(cadorder), None
        except Exception as exc:  # an item's failure is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        results.append((item, perf_counter() - t0, output, error))
    if tracer is not None:
        tracer.item = None
    return {"wall": perf_counter() - start, "cpu": cpu() - cpu_start, "results": results}


def check(cadorder, passes) -> list[str]:
    """One message per item that raised or whose output is not the expected one."""
    failures = []
    for p in passes:
        for item, _, output, error in p["results"]:
            if error is not None:
                failures.append(f"{item.id}: raised {error}")
            elif output != item.expected(cadorder):
                failures.append(f"{item.id}: output differs from the expected one")
    return failures


def per_layer_metrics(tracer, overhead_frac: float) -> dict:
    calls = tracer.calls["poly.resultant"]
    repeats = calls - tracer.counters["poly.resultant.distinct"]
    derived = {
        "poly.resultant.repeat_frac": repeats / calls if calls else 0.0,
        "trace.overhead_frac": overhead_frac,
    }

    def value(name: str):
        layer, _, kind = name.rpartition(".")
        if name in derived:
            return derived[name]
        if kind == "calls":
            return tracer.calls[layer]
        if kind == "s":
            return tracer.self_time[layer]
        if kind == "total_s":
            return tracer.total_time[layer]
        return tracer.counters[name]

    return {name: {"value": value(name), "unit": unit} for name, unit in PER_LAYER}


def run(args) -> int:
    machine = machine_info()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    host = clock.HostClock()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            host.sample()
            t0 = perf_counter()
            cadorder = load_cadorder()
            items = workloads.prepare(args.workload, cadorder, args.seed, workdir)
            setups.append(perf_counter() - t0)
            host.sample()
        setup_samples = len(host.samples)
        passes = []
        tracer = None
        if args.trace:
            # Only the tracer's own cost is estimated here: timing an
            # untraced pass as well would run every input twice.
            per_call = spans.wrapper_cost()
            tracer = spans.Tracer()
            origin = perf_counter()
            tracer.install(cadorder)
            try:
                passes.append(run_pass(cadorder, workloads.smoke_items(args.workload), tracer))
                before = tracer.overhead_s(per_call)
                passes.append(run_pass(cadorder, items, tracer))
                overhead = tracer.overhead_s(per_call) - before
            finally:
                tracer.uninstall()
        else:
            host.start()
            passes.append(run_pass(cadorder, items, cpu=host.cpu))
            host.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check(cadorder, passes)
    finally:
        host.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    main_pass = passes[-1]
    item_times = sorted(t for _, t, _, _ in main_pass["results"])
    attempted = sum(len(p["results"]) for p in passes)
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"pass wall {main_pass['wall']:.4f} s, cpu {main_pass['cpu']:.4f} s")
    for message in failures:
        print(f"FAILED {message}")
    print(f"error_rate {len(failures) / attempted} (of {attempted} items"
          f"{', smoke items included' if tracer is not None else ''})")
    # Item latency is printed, not reported: across ten seeds its quartile
    # spread reached 0.32, above the largest bound a metric may have.
    print(f"item_p50_ms {statistics.median(item_times) * 1000} ms (n={len(item_times)})")
    if len(item_times) >= 100:
        print(f"item_p90_ms {statistics.quantiles(item_times, n=10)[-1] * 1000} ms (n={len(item_times)})")
    else:
        print(f"item_p90_ms not reported: n={len(item_times)} leaves fewer than 10 samples beyond it")

    if tracer is None:
        # Each set-up lies between two samples; the host's speed changes
        # within a second, so each is corrected by its own two.
        setup_s = statistics.median(t / host.slowdown(2 * j, 2 * j + 2) for j, t in enumerate(setups))
        setup_slowdown = host.slowdown(0, setup_samples)
        pass_slowdown = host.slowdown(setup_samples)
        kernel_ms = [round(statistics.median(t[k] for t in host.samples[setup_samples:]) * 1000, 4)
                     for k in range(len(clock.KERNELS))]
        print(f"host slowdown: set-up {setup_slowdown:.4f}, pass {pass_slowdown:.4f} "
              f"({len(host.samples)} samples, pass kernel medians {kernel_ms} ms); "
              f"raw set-up {statistics.median(setups):.4f} s")
        values = {
            "cpu_s": main_pass["cpu"] / pass_slowdown ** workloads.HOST_SENSITIVITY[args.workload],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        metrics = per_layer_metrics(tracer, overhead / (main_pass["wall"] - overhead))
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, origin, {"workload": args.workload, "seed": args.seed, "machine": machine})
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        for item_id, counters in sorted(tracer.item_counters.items(), key=lambda it: str(it[0])):
            if args.workload == "hard" and item_id is not None:
                print(f"{item_id}: poly.resultant calls {counters['poly.resultant.calls']}, "
                      f"distinct {counters['poly.resultant.distinct']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cadorder benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cadorder" / "__init__.py").is_file():
        print(f"run.py: no cadorder package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
