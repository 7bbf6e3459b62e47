"""Benchmark of the spantreekh pipeline: one workload per process.

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 35 --trace 0

Jobs run closed-loop from one client: each starts when the previous one
ends, in passes over the workload's jobs in the seed's order, until
``--seconds`` have passed; the first pass always completes.  Every job's
output is checked outside its timed region, and a job that raises or fails
a check counts as failed without stopping the run.  The last line of stdout
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it start with ``#`` and give the environment,
the failure ratio and how each metric was sampled.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then wraps the package's layers (see ``tracing.py``) and runs
complete traced passes; it reports per-layer self times and work counts per
pass, and ``trace.overhead``, the traced pass time over the untraced one.
Job times and spans are written to ``.bench_build/`` in the checkout.  The
exit code is 0 only when every job passed, and 2 when the package source is
missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up, print 'ready' and exit")
    return p.parse_args(argv)


def prepare_imports():
    """Put the checkout's source first on the path.  Bytecode is always cached,
    under ``.bench_build``, so set-up time does not depend on the caller's
    environment and the source tree stays clean."""
    if not os.path.isfile(os.path.join(SRC, "spantreekh", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.pycache_prefix = os.path.join(BUILD, "pycache")
    sys.dont_write_bytecode = False
    sys.path.insert(0, SRC)


# -- measurement -----------------------------------------------------------------


def probe_setup(workload, seed):
    """Seconds from starting a fresh interpreter until its first job could run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


class Pass:
    """Job times and failures of one pass over the workload's jobs in order;
    the last pass of a run may stop early at the deadline."""

    def __init__(self):
        self.times = {}
        self.failures = {}

    @property
    def wall(self):
        return sum(self.times.values())


def report_failure(name, error):
    print(f"# FAILED {name}", *(f"#   {ln}" for ln in error.splitlines()), sep="\n",
          file=sys.stderr)


def run_pass(jobs, tracer=None, tag="", deadline=None):
    """Run the jobs once each, stopping before a job once ``deadline`` has
    passed; a job that raises or fails its check is recorded as failed and
    the pass goes on."""
    result = Pass()
    for job in jobs:
        if deadline is not None and perf_counter() >= deadline:
            break
        gc.collect()
        if tracer is not None:
            tracer.open_job(f"{tag}{job.name}")
        start = perf_counter()
        try:
            output = job.run()
            error = None
        except Exception:
            error = traceback.format_exc()
        result.times[job.name] = perf_counter() - start
        if tracer is not None:
            tracer.close_job()
        if error is None:
            try:
                job.check(output)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            result.failures[job.name] = error
            report_failure(job.name, error)
        output = None
    return result


def run_passes(jobs, deadline, tracer=None, whole=False):
    """Closed loop over the jobs until ``deadline``; the first pass always
    completes.  With ``whole``, only complete passes run: none starts that
    would be expected to end after the deadline."""
    passes = []
    while True:
        if passes and whole and perf_counter() + statistics.median(p.wall for p in passes) > deadline:
            return passes
        limit = None if whole or not passes else deadline
        passes.append(run_pass(jobs, tracer, f"{len(passes)}:", limit))
        if perf_counter() >= deadline:
            return passes


def job_medians(passes):
    """Each job's median time over the passes that ran it."""
    samples = {}
    for p in passes:
        for name, seconds in p.times.items():
            samples.setdefault(name, []).append(seconds)
    return {name: statistics.median(values) for name, values in samples.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


# -- reports -----------------------------------------------------------------------


def end_to_end(passes, setup_samples):
    """End-to-end metrics with their units and a line describing the samples."""
    medians = job_medians(passes)
    complete = [p.wall for p in passes if len(p.times) == len(medians)]
    runs = sum(len(p.times) for p in passes)
    q1, q2, q3 = quartiles(complete)
    s1, s2, s3 = quartiles(setup_samples)
    return {
        "setup_s": (s2, "s", f"median of {len(setup_samples)} processes, "
                    f"quartiles {s1:.6f}..{s3:.6f}"),
        "wall_s": (sum(medians.values()), "s", f"sum of per-job medians over {runs} job runs; "
                   f"{len(complete)} complete passes, median {q2:.6f}, quartiles {q1:.6f}..{q3:.6f}"),
        "job_max_s": (max(medians.values()), "s", f"slowest per-job median, job "
                      f"{max(medians, key=medians.get)}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "ru_maxrss of the workload process"),
    }


def per_layer(tracer, traced, untraced):
    from tracing import LAYERS

    n = len(traced)
    self_times = tracer.self_times()
    per_pass = [{layer: 0.0 for layer in (*LAYERS, "job")} for _ in traced]
    for (job, layer), seconds in self_times.items():
        per_pass[int(job.split(":", 1)[0])][layer] += seconds
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(p[layer] for p in per_pass), "s")
    counts = tracer.counts
    for name, value in counts.items():
        metrics[name] = (value / n, "count")
    metrics["khovanov.build_s"] = (tracer.inclusive("khovanov", "differential") / n, "s")
    metrics["khovanov.homology_s"] = (tracer.inclusive("khovanov", "BigradedComplex.homology") / n, "s")
    metrics["spantree.linext_s"] = (tracer.inclusive("spantree", "TreePoset.linear_extension") / n, "s")
    builds, smooths = counts["khovanov.builds"], counts["diagram.smooth_calls"]
    # a ratio over no calls is reported as 1: nothing was recomputed
    metrics["khovanov.build_reuse"] = (tracer.distinct_builds / builds if builds else 1.0, "ratio")
    metrics["diagram.smooth_reuse"] = (tracer.distinct_smoothings / smooths if smooths else 1.0, "ratio")
    metrics["trace.unattributed_s"] = (statistics.median(p["job"] for p in per_pass), "s")
    metrics["trace.overhead"] = (sum(job_medians(traced).values()) / untraced.wall, "ratio")

    # per job: traced time = layer self times + unattributed remainder
    for name, layer, _, _, start, end in tracer.spans:
        if layer == "job":
            layers = sum(v for (j, lay), v in self_times.items() if j == name and lay != "job")
            print(f"# job {name}: traced {end - start:.6f} s = layers {layers:.6f} s"
                  f" + unattributed {self_times[(name, 'job')]:.6f} s")
    return metrics


def write_details(name, payload):
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, name), "w") as fh:
        json.dump(payload, fh)


def main(argv=None):
    args = parse_args(argv)
    prepare_imports()
    if args.setup_probe:
        from workloads import setup

        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    from workloads import GATES, WORKLOADS, setup

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    jobs = setup(args.workload, args.seed)

    if args.trace:
        import workloads
        from tracing import Tracer, install

        deadline = perf_counter() + args.seconds
        untraced = run_pass(jobs)
        tracer = Tracer()
        install(tracer, extra_modules=[workloads])
        traced = run_passes(jobs, deadline, tracer, whole=True)
        passes = [untraced, *traced]
    else:
        setup_samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        deadline = perf_counter() + args.seconds
        passes = run_passes(jobs, deadline)
    gates = GATES.get(args.workload, [])
    gate_errors = 0
    for gate in gates:
        try:
            gate()
        except Exception:
            gate_errors += 1
            report_failure(gate.__name__, traceback.format_exc())

    attempted = sum(len(p.times) for p in passes) + len(gates)
    failed = sum(len(p.failures) for p in passes) + gate_errors
    print(f"# python={platform.python_version()} nproc={os.cpu_count()} "
          f"machine={platform.machine()} workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} jobs={len(jobs)}")
    print(f"# fail_ratio={failed}/{attempted} = {failed / attempted:.4f}")

    if args.trace:
        metrics = per_layer(tracer, traced, untraced)
        write_details(f"trace-{args.workload}-seed{args.seed}.json", {
            "fields": ["name", "layer", "parent", "job", "start", "end"],
            "spans": tracer.spans,
        })
    else:
        report = end_to_end(passes, setup_samples)
        for name, (value, unit, note) in report.items():
            print(f"# {name}: {value:.6f} {unit} ({note})")
        metrics = {name: (value, unit) for name, (value, unit, _) in report.items()}
        write_details(f"result-{args.workload}-seed{args.seed}.json", {
            "seed": args.seed, "workload": args.workload,
            "passes": [{"times": p.times, "failures": p.failures} for p in passes],
            "setup_samples": setup_samples,
        })

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
