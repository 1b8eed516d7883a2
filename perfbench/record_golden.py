"""Record the golden verdict table that gates the hierarchy jobs.

usage: python3 perfbench/record_golden.py [seed ...]    (default: 1 2 3 23)

Runs ``hierarchy_report`` on every hierarchy model of the benchmark for each
seed, refuses to write when two seeds disagree, and writes
``perfbench/golden.json``: per model, every criterion's verdict and the
``consistent`` flag. Re-record only when a change moves a verdict on purpose.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from oqmarkov.criteria import hierarchy_report  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def table(seed: int) -> dict:
    out = {}
    for wl in ("hierarchy-dense", "hierarchy-afl"):
        for job in WORKLOADS[wl]:
            rep = hierarchy_report(job.name, seed=seed)
            out[job.name] = {"verdicts": {k: r.verdict for k, r in rep.reports.items()},
                             "consistent": rep.consistent}
    return out


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]] or [1, 2, 3, 23]
    tables = {s: table(s) for s in seeds}
    first = tables[seeds[0]]
    for s, t in tables.items():
        if t != first:
            print(f"error: verdicts at seed {s} differ from seed {seeds[0]}", file=sys.stderr)
            return 1
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(first, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote golden.json from seeds {seeds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
