"""CLI outputs against recorded fixtures.

Every preset's `hierarchy` JSON at seed 23: refactors must leave every
report byte-identical, `nib` and `nqib` included, together with the
implication table, the consistency flag and the extras. The fixtures hold
at any BLAS thread count; CI runs this file a second time with
`OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1`. A change that
moves a fixture on purpose re-records it with
`oqmarkov hierarchy --model NAME --seed 23 --out tests/golden/hierarchy-NAME.json`
and says why.

No checker reads a closed-form map: no preset carries one, and the closed
forms the tests compare against live in `closed_forms.py` beside them.

The stochastic samplers' CSV and JSON files at seed 7 are compared byte
for byte; `STOCHASTIC` holds the command line of each fixture, and a
fixture is re-recorded by running it with `--out tests/golden/stochastic-NAME`.

`analyze` of a preset's hierarchy criteria, with no time, grid or tolerance
flag, must reproduce the fixture's reports; its `--format csv` output for
tam is compared byte for byte with `analyze-tam.csv`.

The stochastic outputs must not depend on how many chunks (`--jobs`) a
sampler run is split into.
"""

import json
from pathlib import Path

import pytest

from oqmarkov.cli import main
from oqmarkov.models import PRESETS
from oqmarkov.serialize import dumps_canonical

GOLDEN = Path(__file__).parent / "golden"


def _by_criterion(payload):
    return {r["criterion"]: r for r in payload["reports"]}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_hierarchy_matches_fixture(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(["hierarchy", "--model", name, "--seed", "23", "--out", str(out)]) == 0
    new = json.loads(out.read_text())
    old = json.loads((GOLDEN / f"hierarchy-{name}.json").read_text())
    new_reports, old_reports = _by_criterion(new), _by_criterion(old)
    assert list(new_reports) == list(old_reports)
    for crit, rep in old_reports.items():
        assert dumps_canonical(new_reports[crit]) == dumps_canonical(rep), crit
    for key in ("artifact_version", "config", "implications", "consistent",
                "extras", "timing"):
        assert dumps_canonical(new[key]) == dumps_canonical(old[key]), key


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_analyze_defaults_match_hierarchy(name, tmp_path):
    """`analyze` with no time, grid or tolerance flag runs each criterion at
    the settings `hierarchy` runs it at, so the reports agree byte for byte
    (`pu`, which `analyze` cannot request, aside)."""
    old = [r for r in json.loads((GOLDEN / f"hierarchy-{name}.json").read_text())["reports"]
           if r["criterion"] != "pu"]
    out = tmp_path / f"{name}.json"
    criteria = ",".join(r["criterion"] for r in old)
    assert main(["analyze", "--model", name, "--criteria", criteria, "--seed", "23",
                 "--out", str(out)]) == 0
    assert dumps_canonical(json.loads(out.read_text())["reports"]) == dumps_canonical(old)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_no_preset_defines_a_closed_form_map(name):
    """Every map a checker reads comes from the model's own dynamics: no
    preset carries a closed-form `analytic_map` that a checker could read."""
    assert not hasattr(PRESETS[name](), "analytic_map")


def test_analyze_csv_matches_fixture(tmp_path):
    out = tmp_path / "analyze-tam.csv"
    assert main(["analyze", "--model", "tam", "--criteria",
                 "fa,qrf,gqrf,composability,nib,divisibility,semigroup,distinguishability",
                 "--seed", "23", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "analyze-tam.csv").read_bytes()


STOCHASTIC = {
    "mcwf-jump": ["mcwf", "--spec", "decay", "--method", "jump", "--M", "200",
                  "--tmax", "0.2"],
    "mcwf-diffusive": ["mcwf", "--spec", "decay", "--method", "diffusive",
                       "--M", "200", "--tmax", "0.2"],
    "mcsm-ou": ["mcsm", "--spec", "ou", "--M", "500"],
    "mcsm-poisson": ["mcsm", "--spec", "poisson", "--M", "500"],
}


@pytest.mark.parametrize("name", sorted(STOCHASTIC))
def test_stochastic_matches_fixture(name, tmp_path):
    stem = f"stochastic-{name}"
    argv = STOCHASTIC[name] + ["--seed", "7", "--out", str(tmp_path / stem)]
    files = [f"{stem}.csv", f"{stem}.json"]
    if name == "mcsm-ou":
        argv += ["--paths-out", str(tmp_path / f"{stem}-paths.csv")]
        files.append(f"{stem}-paths.csv")
    assert main(argv) == 0
    for f in files:
        assert (tmp_path / f).read_bytes() == (GOLDEN / f).read_bytes(), f


@pytest.mark.parametrize("name", sorted(STOCHASTIC))
def test_stochastic_outputs_independent_of_jobs(name, tmp_path):
    files = {}
    for jobs in ("1", "3"):
        stem = tmp_path / f"{name}-jobs{jobs}"
        argv = STOCHASTIC[name] + ["--seed", "11", "--jobs", jobs, "--out", str(stem)]
        if name == "mcsm-ou":
            argv += ["--paths-out", f"{stem}-paths.csv"]
        assert main(argv) == 0
        files[jobs] = [Path(f"{stem}{suffix}").read_bytes()
                       for suffix in (".csv", ".json", "-paths.csv")
                       if Path(f"{stem}{suffix}").exists()]
    assert len(files["1"]) == (3 if name == "mcsm-ou" else 2)
    assert files["1"] == files["3"]
