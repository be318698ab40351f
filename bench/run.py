"""The ririg benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's inputs are generated from
the seed and set up at least SETUP_REPS times, more for a cheap set-up
(the median is `setup_s`).  Then the workload's ops run in passes, in a
closed loop with one client: each op is issued after the previous one
completes.  Every pass runs the same ops in the same order, on fresh
copies of the inputs and with the program's caches emptied, so each pass
starts as cold as a fresh process.  Passes repeat until MIN_PASSES are
complete and `--seconds` of measured time have passed; the time limit
may end the last pass early.
Every op's result is checked against an independent answer right after
it, outside its timed span.

An op's latency is its time in the untraced pass in which its stretch of
ops ran slowest (see `op_latencies`), and `ops_per_s` is the ops of a
pass over the sum of those latencies; the report line also gives ops per
second of all measured time.

With `--trace 0` the last line of standard output carries the end-to-end
metrics.  With `--trace 1` one extra set-up and every other pass are
traced, and the last line carries their per-layer metrics, plus the
traced passes' throughput as a share of the untraced passes'.  A report
with run facts (seed, nproc, Python version, wall and CPU time) is
printed on the line before and written with each op's latencies, and the
spans, under `.bench_out/`.  See bench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time

from common import ROOT, out_dir

SRC = os.path.join(ROOT, "src")

WORKLOADS = {"enumerate": "w_enumerate", "compat-sweep": "w_compat",
             "survey": "w_survey", "entail": "w_entail"}
SETUP_REPS = 3            # at least; cheap set-ups repeat for
SETUP_MIN_SECONDS = 2.0   # this long in all, up to SETUP_MAX_REPS
SETUP_MAX_REPS = 15
MIN_PASSES = 3
STRETCH_S = 0.5
MAX_FAILURES_LISTED = 20


def _import_program():
    """Import `ririg` from this checkout's sources, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "ririg", "__init__.py")):
        sys.exit(f"bench: no ririg sources under {SRC}")
    sys.path.insert(0, SRC)
    import ririg
    if not os.path.abspath(ririg.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: ririg imported from {ririg.__file__}, not {SRC}")


def percentile(values, q):
    """The q-th percentile, inclusive method (q in 1..99)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def clear_program_caches():
    """Empty every `functools` cache in the `ririg` modules, so that a
    pass starts as cold as a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "ririg" or name.startswith("ririg."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def run_pass(number, ops, tracer, budget):
    """Run one pass of ops; check each after it, outside its timed span.
    With a `budget` in seconds, stop once the ops have taken that long."""
    latencies, passed, failures = [], [], []
    cpu = 0.0
    for index, op in enumerate(ops):
        error = None
        if tracer is not None:
            tracer.op_id = number * len(ops) + index
            tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = op.run()
        except Exception as e:  # a raising op is a failed op
            error = f"{type(e).__name__}: {e}"
        latency = time.perf_counter() - t0
        cpu += time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
        if error is None:
            try:
                if not op.check(result):
                    error = "check failed"
            except Exception as e:
                error = f"check raised {type(e).__name__}: {e}"
        result = None
        if error is not None:
            failures.append({"pass": number, "op": index, "kind": op.kind,
                             "error": error})
        latencies.append(latency)
        passed.append(error is None)
        if budget is not None and sum(latencies) >= budget:
            break
    return {"traced": tracer is not None, "latencies": latencies,
            "passed": passed, "failures": failures, "cpu_s": cpu}


def measure(workload, state, seconds, tracer):
    """Passes over the workload's ops until MIN_PASSES passes are complete
    and `seconds` of measured time have passed, which may end a pass
    early; with a tracer, every other pass is traced."""
    passes = []
    kinds = None
    measured = 0.0
    while len(passes) < MIN_PASSES or measured < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        ops = workload.ops(state, len(passes))
        shape = [(op.kind, op.weight) for op in ops]
        if kinds is None:
            kinds = shape
        elif shape != kinds:
            raise RuntimeError("passes differ in their ops")
        clear_program_caches()
        gc.collect()
        budget = seconds - measured if len(passes) >= MIN_PASSES else None
        passes.append(run_pass(len(passes), ops,
                               tracer if traced else None, budget))
        ops = None
        measured += sum(passes[-1]["latencies"])
    return {"kinds": kinds, "passes": passes, "measured_s": measured}


def op_latencies(run):
    """Each op's latency, taken from the untraced pass in which its
    stretch ran slowest.

    The ops are cut, in pass order, into stretches of at least STRETCH_S
    seconds of median latency; an op that long is a stretch of its own.
    On a shared host the process runs at a steady contended speed with
    spells of faster running that come and go over seconds; the slowest
    pass of a stretch shows the steady speed.  A stretch is long enough
    that preemptions of a millisecond or so, which strike single ops at
    random, average out in its total.
    """
    rows = [p["latencies"] for p in run["passes"] if not p["traced"]]
    count = len(run["kinds"])
    median = [statistics.median(row[i] for row in rows if len(row) > i)
              for i in range(count)]
    out, start, total = [], 0, 0.0
    for i in range(count):
        total += median[i]
        if total >= STRETCH_S or i == count - 1:
            slowest = max((row for row in rows if len(row) > i),
                          key=lambda row: sum(row[start:i + 1]))
            out += slowest[start:i + 1]
            start, total = i + 1, 0.0
    return out


def end_to_end(run, setup_s):
    latencies = op_latencies(run)
    weights = [weight for _, weight in run["kinds"]]
    samples = []
    for weight, latency in zip(weights, latencies):
        samples.extend([latency] * weight)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(weights) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_p90_ms": (percentile(samples, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def pass_weight(run, p):
    """Ops of the workload's unit that a pass completed."""
    return sum(w for _, w in run["kinds"][:len(p["latencies"])])


def per_layer(run, tracer):
    out = {}
    functions = tracer.per_function()
    for stem, (self_s, calls) in functions.items():
        out[f"{stem}.self_s"] = (self_s, "s")
        out[f"{stem}.calls"] = (calls, "count")

    def ratio(num, den):
        return num / den if den else 0.0

    totals = tracer.counts()
    out["compat.tuple_pairs"] = (
        ratio(totals.get("compat.tuple_pairs", 0),
              functions["compat.compat_witness_kary"][1]), "pairs/call")
    out["logic.valuations"] = (
        ratio(totals.get("logic.valuations", 0),
              functions["logic.semantic_entails"][1]), "valuations/call")
    out["catalog.forms_per_algebra"] = (
        ratio(functions["catalog.canonical_form"][1],
              functions["catalog.from_algebra"][1]), "forms/entry")
    out["logic.entails_per_lddt"] = (
        ratio(tracer.children_of("logic.lddt_witness",
                                 "logic.semantic_entails"),
              functions["logic.lddt_witness"][1]), "entails/search")
    rate, weight = {}, {}
    for traced in (False, True):
        chosen = [p for p in run["passes"] if p["traced"] == traced]
        weight[traced] = sum(pass_weight(run, p) for p in chosen)
        rate[traced] = ratio(weight[traced],
                             sum(sum(p["latencies"]) for p in chosen))
    out["trace.ops"] = (weight[True], "count")
    out["trace.ops_per_s"] = (rate[True], "1/s")
    out["trace.ops_per_s_ratio"] = (ratio(rate[True], rate[False]), "ratio")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    workload = importlib.import_module(WORKLOADS[args.workload])

    setup_times = []
    while len(setup_times) < SETUP_REPS or (
            sum(setup_times) < SETUP_MIN_SECONDS
            and len(setup_times) < SETUP_MAX_REPS):
        state = None  # let the previous inputs go before building anew
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)

    tracer = None
    if args.trace:
        import counts
        import tracing
        tracer = tracing.Tracer(counts.HOOKS)
        # one more set-up, traced, so that the set-up layers are seen
        state = None
        tracer.op_id = -1
        tracer.install()
        try:
            state = workload.setup(args.seed)
        finally:
            tracer.uninstall()
    run = measure(workload, state, args.seconds, tracer)

    weights = [weight for _, weight in run["kinds"]]
    attempted = failed = 0
    failures = []
    for p in run["passes"]:
        attempted += pass_weight(run, p)
        failed += sum(w for w, ok in zip(weights, p["passed"]) if not ok)
        failures += p["failures"]
    metrics = per_layer(run, tracer) if tracer else end_to_end(run, setup_s)

    kinds = {}
    for kind, weight in run["kinds"]:
        kinds[kind] = kinds.get(kind, 0) + weight
    untraced = [p for p in run["passes"] if not p["traced"]]
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(),
        "setup_s_each": setup_times, "measured_s": run["measured_s"],
        "cpu_s": sum(p["cpu_s"] for p in run["passes"]),
        "pass_s": [sum(p["latencies"]) for p in run["passes"]],
        "ops_per_pass": kinds,
        "wall_ops_per_s": sum(pass_weight(run, p) for p in untraced)
        / sum(sum(p["latencies"]) for p in untraced),
        "attempted": attempted, "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "failures": failures[:MAX_FAILURES_LISTED],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    directory = out_dir()
    if tracer:
        tracer.write(os.path.join(directory, f"spans-{stem}.json"))
    with open(os.path.join(directory, f"result-{stem}.json"), "w") as fh:
        json.dump(dict(report, metrics=metrics, kinds=run["kinds"],
                       latencies=[p["latencies"] for p in run["passes"]]),
                  fh)
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()
