"""Workload definitions: the jobs of each workload, what set-up builds for
it, and the correctness gate each job's outputs must pass.

Every job is one ``oqmarkov`` command line run through ``oqmarkov.cli.main``
with ``--jobs 1``. A workload is a closed loop with one client: the next job
starts only after the previous one returned. The workload seed is passed to
every job as ``--seed``.

This module imports only the standard library at import time, so the
launcher can cap BLAS threads before numpy is first imported.
"""

from __future__ import annotations

import dataclasses
import json
import os

HIERARCHY_DENSE_MODELS = ("tam", "nqib", "collision", "static-dephasing", "eternal")

# A stochastic job fails when its largest deviation from the analytic or
# master-equation oracle exceeds this many standard errors. Seeds 1-8 peaked
# at 2.2 sigma; a 3-sigma gate would tie the error rate to seed luck.
SIGMA_GATE = 5.0


@dataclasses.dataclass(frozen=True)
class Job:
    name: str
    kind: str                 # hierarchy | mcwf | mcsm
    args: tuple               # command line without --seed/--jobs/--out
    out: str                  # output file (hierarchy) or stem (mcwf, mcsm)
    extra_outputs: tuple = ()

    def argv(self, seed: int, out_dir: str) -> list:
        argv = list(self.args) + ["--seed", str(seed), "--jobs", "1",
                                  "--out", os.path.join(out_dir, self.out)]
        if self.kind == "mcsm" and self.extra_outputs:
            argv += ["--paths-out", os.path.join(out_dir, self.extra_outputs[0])]
        return argv

    def outputs(self, out_dir: str) -> list:
        if self.kind == "hierarchy":
            files = [self.out]
        else:
            files = [self.out + ".json", self.out + ".csv"]
        return [os.path.join(out_dir, f) for f in files + list(self.extra_outputs)]


def _hierarchy(model: str) -> Job:
    return Job(model, "hierarchy", ("hierarchy", "--model", model),
               f"hierarchy-{model}.json")


WORKLOADS = {
    "hierarchy-dense": [_hierarchy(m) for m in HIERARCHY_DENSE_MODELS],
    "hierarchy-afl": [_hierarchy("afl")],
    "stochastic": [
        Job("mcwf-jump", "mcwf",
            ("mcwf", "--spec", "decay", "--method", "jump", "--M", "5000",
             "--dt", "1e-3"), "mcwf-jump"),
        Job("mcwf-diffusive", "mcwf",
            ("mcwf", "--spec", "decay", "--method", "diffusive", "--M", "5000",
             "--dt", "1e-3"), "mcwf-diffusive"),
        Job("mcsm-ou", "mcsm", ("mcsm", "--spec", "ou", "--M", "10000"),
            "mcsm-ou", ("mcsm-ou-paths.csv",)),
        Job("mcsm-poisson", "mcsm", ("mcsm", "--spec", "poisson", "--M", "10000"),
            "mcsm-poisson"),
    ],
}


def construct(workload: str) -> None:
    """Build the workload's models or specs, as set-up does in a fresh process.

    Constructing ``afl`` runs its quadrature check."""
    from oqmarkov import classical, core, models, superop
    if workload == "stochastic":
        superop.LindbladSpec(2, None, [(core.SM, 2.0)])
        classical.ou_spec(1.0, 0.5)
        classical.poisson_spec(1.0)
    else:
        for job in WORKLOADS[workload]:
            models.make_model(job.name)


def check(job: Job, rc: int, out_dir: str, golden: dict) -> str:
    """Return "" when the job's outputs are correct, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    missing = [p for p in job.outputs(out_dir) if not os.path.isfile(p)]
    if missing:
        return f"missing outputs {missing}"
    if job.kind == "hierarchy":
        with open(job.outputs(out_dir)[0]) as fh:
            payload = json.load(fh)
        got = {"verdicts": {r["criterion"]: r["verdict"] for r in payload["reports"]},
               "consistent": payload["consistent"]}
        want = golden[job.name]
        return "" if got == want else f"verdicts {got} differ from golden {want}"
    with open(job.outputs(out_dir)[0]) as fh:
        sigma = json.load(fh)["max_sigma_deviation"]
    if sigma is None or not sigma <= SIGMA_GATE:
        return f"max deviation {sigma} sigma exceeds {SIGMA_GATE} sigma"
    return ""
