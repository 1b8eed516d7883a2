"""oqmarkov benchmark: one workload, measured end to end or traced by layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
Workloads (see workloads.py and README.md): hierarchy-dense, hierarchy-afl,
stochastic. Each pass runs the workload's jobs once, in one process, through
``oqmarkov.cli.main`` with ``--jobs 1``. One warm-up pass comes first; passes
then repeat within ``--seconds``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of fresh
processes that import oqmarkov and build the workload's models or specs),
``wall_s`` and ``cpu_s`` (medians per pass) and ``peak_rss_mb``.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics of tracer.py, with the spans written to ``.bench_out/``.

Every job's outputs are checked (see ``workloads.check``) and must be
byte-identical on every pass of a run; a job failing either counts as
failed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

from tracer import FUNCTIONS, METHODS, PassTotals, Tracer  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    out = []

    def timed(name):
        out.extend([(f"{name}.calls", "count"), (f"{name}.self_s", "s")])

    timed("core.trace_norm")
    for f in FUNCTIONS["superop"]:
        timed(f"superop.{f}")
    out += [("superop.me_integrate.rk4_steps", "count"),
            ("superop.me_integrate.us_per_step", "us")]
    timed("models.make_model")
    for m in METHODS:
        timed(f"models.{m}")
    out.append(("models.env_frame.bytes", "B"))
    timed("models.dd_apply")
    for f in FUNCTIONS["criteria"]:
        timed(f"criteria.{f}")
    out.append(("criteria.check_nib.useful_ratio", "ratio"))
    for f in FUNCTIONS["unravel"]:
        timed(f"unravel.{f}")
    out += [("unravel.traj_steps", "count"), ("unravel.traj_steps_per_s", "1/s")]
    for f in FUNCTIONS["classical"]:
        timed(f"classical.{f}")
    out += [("classical.path_steps", "count"), ("classical.path_steps_per_s", "1/s")]
    for f in FUNCTIONS["serialize"]:
        timed(f"serialize.{f}")
        out.append((f"serialize.{f}.bytes", "B"))
    out += [(f"cli.{f}.self_s", "s") for f in FUNCTIONS["cli"]]
    out += [(f"{job_span(wl, job.name)}.s", "s")
            for wl, jobs in WORKLOADS.items() for job in jobs]
    out += [("trace.unattributed_s", "s"), ("trace_overhead_s", "s")]
    return out


def job_span(workload: str, job: str) -> str:
    return f"cli.job.{workload}.{job}"


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no percentile has ten samples beyond it (n={n})"
    pct = 100 * (n - 10) // n
    return f"p{pct} {sorted(values)[n - 11]:.4f} (n={n})"


def measure_setup(workload: str) -> list[float]:
    """Set-up time of fresh processes, one after another."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run([sys.executable, probe, workload, SRC],
                             capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


def clear_caches() -> None:
    """Empty the package's functools caches, so every pass starts from the
    cache state of a fresh ``oqmarkov`` process. A cache kept across passes
    would otherwise make later passes cheaper, and grow peak memory with the
    number of passes (``CollisionModel._propagator_cached`` keeps every
    model instance it has seen)."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "oqmarkov" or name.startswith("oqmarkov.")):
            continue
        for obj in list(vars(mod).values()):
            holders = [obj] + (list(vars(obj).values()) if isinstance(obj, type) else [])
            for h in holders:
                if callable(getattr(h, "cache_clear", None)):
                    h.cache_clear()


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Runs passes of one workload and keeps the per-pass measurements."""

    def __init__(self, workload: str, seed: int, out_dir: str, golden: dict):
        from oqmarkov import cli
        self.cli = cli
        self.workload = workload
        self.jobs = WORKLOADS[workload]
        self.seed = seed
        self.out_dir = out_dir
        self.golden = golden
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digest: dict[str, str] = {}
        self.walls = {False: [], True: []}      # traced? -> pass wall times
        self.cpus: list[float] = []             # untraced passes only
        self.traced: list[tuple[PassTotals, dict]] = []

    def run_pass(self, traced: bool, warm_up: bool = False) -> None:
        tracer = self.tracer
        clear_caches()
        if traced:
            tracer.install()
            tracer.new_pass()
        wall = cpu = 0.0
        job_s = {}
        try:
            for job in self.jobs:
                span = job_span(self.workload, job.name)
                argv = job.argv(self.seed, self.out_dir)
                reason = ""
                c0, t0 = time.process_time(), time.perf_counter()
                if traced:
                    tracer.job = span
                    frame = tracer.begin(span)
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = self.cli.main(argv)
                except Exception:                # a raising job counts as failed
                    rc, reason = None, traceback.format_exc(limit=3)
                finally:
                    if traced:
                        tracer.end(frame)
                t1, c1 = time.perf_counter(), time.process_time()
                wall += t1 - t0
                cpu += c1 - c0
                job_s[span] = t1 - t0
                self.attempted += 1
                reason = reason or check(job, rc, self.out_dir, self.golden)
                if not reason:
                    d = digest(job.outputs(self.out_dir))
                    if self.first_digest.setdefault(job.name, d) != d:
                        reason = "outputs differ from this job's first pass"
                if reason:
                    self.failures.append(f"{job.name}: {reason}")
        finally:
            if traced:
                tracer.uninstall()
        if warm_up:
            return
        self.walls[traced].append(wall)
        if traced:
            self.traced.append((tracer.new_pass(), job_s))
        else:
            self.cpus.append(cpu)

    def run(self, seconds: float, trace: bool) -> None:
        """One warm-up pass, then passes while the next one, estimated by
        the last, still ends within ``seconds``; trace runs alternate traced
        and untraced passes. At least one pass of each kind is measured."""
        start = time.perf_counter()
        self.run_pass(traced=False, warm_up=True)
        last = time.perf_counter() - start
        deadline = time.perf_counter() + seconds
        traced = trace
        while (time.perf_counter() + last <= deadline or not self.walls[traced]
               or (trace and not self.walls[not traced])):
            start = time.perf_counter()
            self.run_pass(traced)
            last = time.perf_counter() - start
            if trace:
                traced = not traced

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, setup: list[float]) -> dict:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"setup_s": (median(setup), "s"),
                "wall_s": (median(self.walls[False]), "s"),
                "cpu_s": (median(self.cpus), "s"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB")}

    def pass_layers(self, t: PassTotals, job_s: dict) -> dict:
        """Per-layer values of one traced pass (trace_overhead_s aside)."""
        def ratio(num, den):
            return num / den if den else 0.0

        steps = t.counts.get("superop.me_integrate.rk4_steps", 0)
        traj = t.counts.get("unravel.traj_steps", 0)
        paths = t.counts.get("classical.path_steps", 0)
        values = {
            "superop.me_integrate.us_per_step": 1e6 * ratio(
                t.incl_s.get("superop.me_integrate", 0.0), steps),
            "criteria.check_nib.useful_ratio": ratio(
                t.calls.get("criteria.check_nib", 0),
                t.counts.get("criteria.check_nib.replacement_maps", 0)),
            "unravel.traj_steps_per_s": ratio(
                traj, t.incl_s.get("unravel.mcwf_jump", 0.0)
                + t.incl_s.get("unravel.mcwf_diffusive", 0.0)),
            "classical.path_steps_per_s": ratio(paths, t.incl_s.get("classical.mcsm", 0.0)),
            "trace.unattributed_s": sum(v for k, v in t.self_s.items()
                                        if k.startswith("cli.job.")),
        }
        for name, _ in per_layer_names():
            if name in values or name == "trace_overhead_s":
                continue
            if name.endswith(".calls"):
                values[name] = t.calls.get(name[:-len(".calls")], 0)
            elif name.endswith(".self_s"):
                values[name] = t.self_s.get(name[:-len(".self_s")], 0.0)
            elif name.startswith("cli.job."):
                values[name] = job_s.get(name[:-len(".s")], 0.0)
            else:
                values[name] = t.counts.get(name, 0)
        return values

    def per_layer(self) -> dict:
        """Medians over the traced passes; counts take the lower median so
        they stay exact."""
        passes = [self.pass_layers(t, job_s) for t, job_s in self.traced]
        out = {}
        for name, unit in per_layer_names():
            if name == "trace_overhead_s":
                value = median(self.walls[True]) - median(self.walls[False])
            elif unit in ("count", "B"):
                value = statistics.median_low([p[name] for p in passes])
            else:
                value = median([p[name] for p in passes])
            out[name] = (value, unit)
        return out

    def unsteady_counts(self) -> list[str]:
        """Counters that differ between the traced passes of this run."""
        first = self.traced[0][0]
        return sorted(k for t, _ in self.traced[1:]
                      for k in set(first.calls) | set(t.calls)
                      if first.calls.get(k) != t.calls.get(k))


def parse_args(argv):
    p = argparse.ArgumentParser(description="oqmarkov benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oqmarkov", "__init__.py")):
        print(f"error: no oqmarkov package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # Cap BLAS threads before numpy is first imported, here and in the probes.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    setup = [] if args.trace else measure_setup(args.workload)

    sys.path.insert(0, SRC)
    import oqmarkov
    import numpy
    if os.path.commonpath([os.path.abspath(oqmarkov.__file__), SRC]) != SRC:
        print(f"error: imported oqmarkov from {oqmarkov.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, out_dir, golden)
        runner.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  BLAS threads {NPROC} "
          f"(nproc {NPROC}, numpy {numpy.__version__})  "
          f"passes {len(runner.walls[False])} untraced, {len(runner.walls[True])} "
          f"traced, after 1 warm-up")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    error_rate = len(runner.failures) / runner.attempted
    if args.trace:
        spans = os.path.join(OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.csv")
        runner.tracer.write_spans(spans)
        metrics = runner.per_layer()
        self_total = median([sum(t.self_s.values()) for t, _ in runner.traced])
        print(f"spans written to {spans}")
        print(f"accounting: summed self times {self_total:.4f} s "
              f"(of which untraced gaps {metrics['trace.unattributed_s'][0]:.4f} s) "
              f"against traced wall_s {median(runner.walls[True]):.4f} s")
        if runner.tracer.missing:
            print(f"not found in the package (reported as 0): {runner.tracer.missing}")
        unsteady = runner.unsteady_counts()
        if unsteady:
            print(f"WARNING call counts differ between traced passes: {unsteady}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:48s} {value:.6g} {unit}")
    else:
        metrics = runner.end_to_end(setup)
        print(f"setup_s      {metrics['setup_s'][0]:.4f} s   median of "
              f"{len(setup)} fresh processes")
        print(f"wall_s       {metrics['wall_s'][0]:.4f} s   median per pass; "
              f"{tail(runner.walls[False])}")
        print(f"cpu_s        {metrics['cpu_s'][0]:.4f} s   median per pass")
        print("pass wall_s  " + " ".join(f"{w:.3f}" for w in runner.walls[False]))
        print(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"error_rate   {error_rate:.4f}   ({len(runner.failures)} failed of "
          f"{runner.attempted} jobs attempted)")
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
