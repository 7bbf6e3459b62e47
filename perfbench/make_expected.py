"""Recompute perfbench/expected.json by brute-force Khovanov homology.

Run from the repository root:

    python3 perfbench/make_expected.py

Each stored job is computed once with ``khovanov_homology`` on the diagram as
built (arc relabelling leaves the groups unchanged).  The 10-crossing
unreduced jobs are left out: brute force on them takes far longer than the
other cases.  Measured one-time costs on a 2-core Xeon: about 19 s for
9-crossing reduced, 116 s for 9-crossing unreduced and 370-390 s for each
10-crossing reduced job.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from spantreekh.khovanov import khovanov_homology  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import EXPECTED_PATH, TREE_COMPLEX_DIAGRAMS, build_diagram  # noqa: E402

STORED = [
    ("tri-9-pos", True),
    ("tri-9-pos", False),
    ("theta-10-mixed", True),
    ("tri-10-mixed", True),
]


def main():
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    groups, seconds = {}, {}
    for name, reduced in STORED:
        job = f"{name}/{'reduced' if reduced else 'unreduced'}"
        start = time.perf_counter()
        result = khovanov_homology(build_diagram(TREE_COMPLEX_DIAGRAMS[name]), reduced=reduced)
        seconds[job] = round(time.perf_counter() - start, 1)
        groups[job] = {f"{i},{j}": [rank, list(tor)] for (i, j), (rank, tor) in sorted(result.items())}
        print(f"{job}: {seconds[job]} s", file=sys.stderr, flush=True)
    data = {
        "provenance": {
            "command": "python3 perfbench/make_expected.py",
            "commit": commit,
            "python": platform.python_version(),
            "route": "spantreekh.khovanov.khovanov_homology (brute force over Z)",
            "seconds": seconds,
            "not_stored": {
                "theta-10-mixed/unreduced": "brute force too slow to run once",
                "tri-10-mixed/unreduced": "brute force too slow to run once",
            },
        },
        "groups": groups,
    }
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
