"""The benchmark's own test.

usage: python3 perfbench/selfcheck.py      (from the root of a checkout)

Asserts, running run.py as a separate process with the benchmark's arguments:
- two traced runs with one seed give identical counts (every ``count`` and
  ``B`` metric), on every workload;
- traced and untraced passes write byte-identical outputs: each trace run
  alternates them, and run.py fails any job whose outputs differ from its
  first pass, so ``failed`` must be 0;
- ``core.trace_norm.calls`` and ``models.env_frame.calls`` are above 0 on the
  hierarchy workloads, which catches a wrapper that missed a re-bound name;
- summed self times account for the traced wall time;
- the reported metric names and units are those of BENCHMARK.json;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.

Takes about two minutes on two cores. It is a script, not a pytest module,
so the repository's test suite does not collect it.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(*args, cwd=ROOT):
    res = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                         cwd=cwd, capture_output=True, text=True, timeout=600)
    return res


def result(res) -> tuple[dict, str]:
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, res.stdout
    return out, res.stdout


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    for wl in [w["name"] for w in bench["workloads"]]:
        counts = []
        for _ in range(2):
            out, text = result(run("--workload", wl, "--seed", str(SEED),
                                   "--seconds", "0", "--trace", "1"))
            metrics = out["metrics"]
            assert {k: v["unit"] for k, v in metrics.items()} == per_layer
            counts.append({k: v["value"] for k, v in metrics.items()
                           if v["unit"] in ("count", "B")})
            m = re.search(r"summed self times ([0-9.]+) s .* traced wall_s ([0-9.]+) s", text)
            assert m and abs(float(m[1]) - float(m[2])) <= 1e-3 * float(m[2]), text
            assert "not found in the package" not in text, text
        assert counts[0] == counts[1], {k: (v, counts[1][k]) for k, v in counts[0].items()
                                        if counts[1][k] != v}
        if wl.startswith("hierarchy"):
            assert counts[0]["core.trace_norm.calls"] > 0, wl
            assert counts[0]["models.env_frame.calls"] > 0, wl
        print(f"ok  {wl}: counts repeat, outputs identical traced and untraced")

    out, _ = result(run("--workload", "hierarchy-afl", "--seed", str(SEED),
                        "--seconds", "0", "--trace", "0"))
    assert {k: v["unit"] for k, v in out["metrics"].items()} == end_to_end
    assert all(v["value"] > 0 for v in out["metrics"].values()), out
    print("ok  end-to-end metrics match BENCHMARK.json")

    bare = os.path.join(ROOT, ".bench_out", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        res = run("--workload", "hierarchy-afl", "--seed", str(SEED),
                  "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert res.returncode != 0 and not res.stdout.strip(), res.stdout
    print("ok  exits non-zero without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
