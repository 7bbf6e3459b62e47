"""Check that the benchmark counts bad jobs as failed and carries on.

    python3 perfbench/selfcheck.py

Runs a pass of three jobs, once untraced and once traced: a tree-complex job
checked against a deliberately wrong stored expectation, a job whose input
makes the program raise, and a corpus-verify job that passes.  Exits 0 when
the first two, and only they, are reported failed and the third still ran.
"""

from __future__ import annotations

import random
import sys

import run


def main():
    run.prepare_imports()
    import workloads
    from spantreekh.diagram import parse_pd
    from tracing import Tracer, install

    stored = workloads.load_stored_groups()
    wrong = dict(stored["tri-9-pos/reduced"])
    ij = min(wrong)
    rank, torsion = wrong[ij]
    wrong[ij] = (rank + 1, torsion)
    stored["tri-9-pos/reduced"] = wrong
    rng = random.Random(0)
    wrong_job = next(j for j in workloads.tree_complex_jobs(rng, stored)
                     if j.name == "tri-9-pos/reduced")
    raising_job = workloads.Job("raises", lambda: parse_pd("PD[X(1,2,3,4)]"), lambda out: None)
    good_job = next(j for j in workloads.corpus_verify_jobs(rng) if j.name == "3_1")
    jobs = [wrong_job, raising_job, good_job]

    tracer = Tracer()
    results = [run.run_pass(jobs)]
    install(tracer, extra_modules=[workloads])
    results.append(run.run_pass(jobs, tracer, "0:"))

    ok = True
    for label, result in zip(("untraced", "traced"), results):
        failed = sorted(result.failures)
        ran = sorted(result.times)
        print(f"{label}: ran {ran}, failed {failed}")
        ok &= failed == ["raises", "tri-9-pos/reduced"] and ran == sorted(j.name for j in jobs)
        ok &= "stored brute-force groups" in result.failures["tri-9-pos/reduced"]
        ok &= "DiagramError" in result.failures["raises"]
    ok &= not tracer.stack and all(span[5] is not None for span in tracer.spans)
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
