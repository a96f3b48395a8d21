"""xbarsim benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload deploy --seed 1 --seconds 10 --trace 0

Runs in one process on one thread (numpy's BLAS is pinned to one thread
before numpy loads). Jobs run in a closed loop, in whole rounds of the
workload's jobs, until --seconds have passed and at least two rounds are
done; each job's checks run outside its timed section. The last line of
stdout is one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
spends half of --seconds untraced and half with every layer wrapped in
spans, and reports the per-layer metrics, the tracing overhead and the
share of job time no span covers. Results and spans go to bench/out/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MODULES = ("cli", "compiler", "container", "crossbar", "fixedpoint", "graph",
           "machine", "models", "regalloc", "schedule", "simulator")

END_TO_END = [  # name, unit, better
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("model_latency_us", "sim_us", "lower"),
    ("model_energy_uj", "uJ", "lower"),
    ("code_instrs", "count", "lower"),
]

ENERGY_COMPONENTS = ("mvmu", "vfu", "sfu", "register_file", "memory",
                     "network", "control")


def _per_job_ms(span):
    return lambda t, jobs: t.ms.get(span, 0.0) / jobs


def _per_job_self_ms(span):
    return lambda t, jobs: t.self_ms.get(span, 0.0) / jobs


def _steps_per_s(t, jobs):
    loop_s = t.self_ms.get("simulator.run", 0.0) / 1e3
    return t.counts.get("simulator.run", 0) / loop_s if loop_s else 0.0


# Host per-layer metrics: name, unit, better, f(Totals of a round, jobs).
HOST_LAYERS = [
    ("graph.from_json_ms", "ms", "lower", _per_job_ms("graph.from_json")),
    ("partition.tile_ms", "ms", "lower", _per_job_ms("partition.tile")),
    ("partition.place_ms", "ms", "lower", _per_job_ms("partition.place")),
    ("partition.movement_ms", "ms", "lower",
     _per_job_ms("partition.movement")),
    ("schedule.coalesce_ms", "ms", "lower", _per_job_ms("schedule.coalesce")),
    ("schedule.linearize_ms", "ms", "lower",
     _per_job_ms("schedule.linearize")),
    ("regalloc.allocate_ms", "ms", "lower", _per_job_ms("regalloc.allocate")),
    ("compiler.compile_ms", "ms", "lower", _per_job_ms("compiler.compile")),
    ("compiler.self_ms", "ms", "lower", _per_job_self_ms("compiler.compile")),
    ("container.save_ms", "ms", "lower", _per_job_ms("container.save")),
    ("container.load_ms", "ms", "lower", _per_job_ms("container.load")),
    ("container.bytes", "bytes", "lower",
     lambda t, jobs: t.counts.get("container.save", 0) / jobs),
    ("fixedpoint.luts_ms", "ms", "lower", _per_job_ms("fixedpoint.luts")),
    ("crossbar.slice_ms", "ms", "lower", _per_job_ms("crossbar.slice")),
    ("crossbar.noise_ms", "ms", "lower", _per_job_ms("crossbar.noise")),
    ("crossbar.mvm_ms", "ms", "lower", _per_job_ms("crossbar.mvm")),
    ("crossbar.mvm_calls", "count", "lower",
     lambda t, jobs: t.calls.get("crossbar.mvm", 0) / jobs),
    ("simulator.configure_ms", "ms", "lower",
     _per_job_ms("simulator.configure")),
    ("simulator.configure_self_ms", "ms", "lower",
     _per_job_self_ms("simulator.configure")),
    ("simulator.run_ms", "ms", "lower", _per_job_ms("simulator.run")),
    ("simulator.loop_self_ms", "ms", "lower",
     _per_job_self_ms("simulator.run")),
    ("simulator.steps", "count", "lower",
     lambda t, jobs: t.counts.get("simulator.run", 0) / jobs),
    ("simulator.steps_per_s", "1/s", "higher", _steps_per_s),
    ("cli.sweep_point_ms", "ms", "lower", _per_job_ms("cli.sweep_point")),
    ("cli.sweep_point_self_ms", "ms", "lower",
     _per_job_self_ms("cli.sweep_point")),
]

# Modeled per-layer metrics, summed over the runs in the modeled aggregates.
MODEL_LAYERS = [
    (f"model.energy.{c}_nj", "nJ", "lower",
     (lambda c: lambda m: m.report.energy_nj.get(c, 0.0))(c))
    for c in ENERGY_COMPONENTS
] + [
    ("model.blocked_ns", "sim_ns", "lower",
     lambda m: sum(m.report.blocked_ns.values())),
    ("model.mode_switches", "count", "lower",
     lambda m: m.report.mode_switches),
    ("model.coalesce_groups", "count", "higher",
     lambda m: m.compile_report.coalesce_groups),
    ("model.spilled_values", "count", "lower",
     lambda m: m.compile_report.spill_count),
]

TRACE_FIGURES = [
    ("trace.overhead_pct", "%", "lower"),
    ("trace.uncovered_pct", "%", "lower"),
]

PER_LAYER = ([(n, u, b) for n, u, b, _ in HOST_LAYERS]
             + [(n, u, b) for n, u, b, _ in MODEL_LAYERS] + TRACE_FIGURES)


def import_xbarsim():
    """Import xbarsim afresh from this checkout -> (modules, seconds).
    numpy is already loaded by the benchmark's own modules."""
    for name in [m for m in sys.modules
                 if m == "xbarsim" or m.startswith("xbarsim.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    mods = {m: importlib.import_module(f"xbarsim.{m}") for m in MODULES}
    elapsed = time.perf_counter() - t0
    where = os.path.dirname(os.path.dirname(mods["cli"].__file__))
    if os.path.realpath(where) != os.path.realpath(SRC):
        raise SystemExit(f"xbarsim imported from {where}, not {SRC}")
    return mods, elapsed


def set_up(name, seed, repeats):
    """Import and build the workload `repeats` times; keep the last.
    Returns (median set-up seconds, workload, modules)."""
    times = []
    for _ in range(repeats):
        gc.collect()
        mods, import_s = import_xbarsim()
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[name](SimpleNamespace(**mods), seed)
        times.append(import_s + time.perf_counter() - t0)
    return statistics.median(times), wl, mods


class Rounds:
    """Closed-loop rounds of a workload's jobs, checked outside timing."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.rates = []         # jobs per second of job time, per round
        self.span_ranges = []   # (first, end) span index per round
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.problems = []
        self.fixed = set()      # expected failures that passed

    def run(self, seconds, min_rounds):
        done = 0
        t_end = time.perf_counter() + seconds
        while done < min_rounds or time.perf_counter() < t_end:
            self.one_round()
            done += 1

    def one_round(self):
        gc.collect()
        tr = self.tracer
        first = len(tr.spans) if tr else 0
        outcomes, busy = [], 0.0
        for job in self.wl.jobs:
            t0 = time.perf_counter()
            outcomes.append(tr.span("job", job.run) if tr else job.run())
            busy += time.perf_counter() - t0
        self.rates.append(len(outcomes) / busy)
        if tr:
            self.span_ranges.append((first, len(tr.spans)))
        failures, problems = self.wl.check_round(outcomes)
        self.problems += problems
        self.attempted += len(outcomes)
        for job, fails in zip(self.wl.jobs, failures):
            if fails:
                self.failed += 1
                if not job.expect_fail:
                    self.unexpected.append(f"{job.name}: {'; '.join(fails)}")
            elif job.expect_fail:
                self.fixed.add(job.name)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def modeled_metrics(wl):
    runs = wl.modeled()
    return {
        "model_latency_us": geomean([m.report.latency_ns / 1e3 for m in runs]),
        "model_energy_uj": geomean([m.report.energy_total_nj / 1e3
                                    for m in runs]),
        "code_instrs": sum(m.instrs for m in runs),
    }


def layer_metrics(wl, traced, untraced_rate):
    spans = traced.tracer.spans
    per_round = []
    for lo, hi in traced.span_ranges:
        t = tracing.Totals(spans, lo, hi)
        row = {n: f(t, len(wl.jobs)) for n, _, _, f in HOST_LAYERS}
        row["trace.uncovered_pct"] = 100.0 * t.uncovered_ns / t.job_ns
        per_round.append(row)
    out = {n: statistics.median(r[n] for r in per_round) for n in per_round[0]}
    for n, _, _, f in MODEL_LAYERS:
        out[n] = sum(f(m) for m in wl.modeled())
    traced_rate = statistics.median(traced.rates)
    out["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30,
                   help="measured time; 0 is a smoke pass: one set-up and "
                        "the minimum rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    setup_s, wl, mods = set_up(args.workload, args.seed,
                               SETUP_REPEATS if args.seconds else 1)
    problems = wl.prepare()

    untraced = Rounds(wl)
    if args.trace:
        untraced.run(args.seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.wrap_layers(mods)
        traced = Rounds(wl, tracer)
        try:
            traced.run(args.seconds / 2, 1)
        finally:
            tracer.unwrap()
        runs = [untraced, traced]
    else:
        untraced.run(args.seconds, 2)
        runs = [untraced]

    modeled = modeled_metrics(wl)
    if args.trace:
        values = layer_metrics(wl, traced, statistics.median(untraced.rates))
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        values = dict(modeled,
                      setup_s=setup_s,
                      jobs_per_s=statistics.median(untraced.rates),
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = {n: u for n, u, _ in END_TO_END}
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}

    for r in runs:
        problems += r.problems + r.unexpected
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    fixed = set().union(*(r.fixed for r in runs))
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for name in sorted(fixed):
        print(f"note: expected failure {name} passed", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    print(f"workload {args.workload} seed {args.seed}: "
          f"{sum(len(r.rates) for r in runs)} rounds of {len(wl.jobs)} jobs")
    if args.workload == "noise_sweep":
        print("sigma where accuracy falls below 90% of clean: "
              + ", ".join(f"{b} bits/device {wl.breaking_sigma(b)}"
                          for b in workloads.BITS))
    print("modeled: " + json.dumps(modeled, sort_keys=True))
    for n in units:
        print(f"  {n} = {values[n]:.6g} {units[n]}")

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(os.path.join(OUT, f"result_{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, modeled=modeled, setup_s=setup_s,
                       round_rates=[r.rates for r in runs]), fh, indent=1)
    if args.trace:
        tracer.write(os.path.join(OUT, f"spans_{stem}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
