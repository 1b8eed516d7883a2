"""Every preset's `hierarchy` JSON at seed 23 against fixtures recorded
before the convex `nib` search replaced the grid search.

Refactors must leave every report byte-identical, together with the
implication table, the consistency flag and the extras. The `nib` reports
are the exception: their witnesses and grid strings changed with the convex
search, so only their verdicts are compared. A change that moves a fixture
on purpose re-records it with
`oqmarkov hierarchy --model NAME --seed 23 --out tests/golden/hierarchy-NAME.json`
and says why.
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
        if crit == "nib":
            assert new_reports[crit]["verdict"] == rep["verdict"]
        else:
            assert dumps_canonical(new_reports[crit]) == dumps_canonical(rep), crit
    for key in ("artifact_version", "config", "implications", "consistent",
                "extras", "timing"):
        assert dumps_canonical(new[key]) == dumps_canonical(old[key]), key
