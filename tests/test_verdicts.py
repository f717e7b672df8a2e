"""Verdict regression: the ten pointwise commands on the eight shipped
scenarios, run in-process, give the exit codes and the bool, int and string
report fields recorded in verdicts.json.  Floats are not compared: a change
of summation order may move them in the last bits.  On the two grid
scenarios `integral` runs the analytic path on a copy without the grid, and
`grid definiteness` and the grid path of `integral` run on the scenario as
shipped.  After a deliberate verdict change the record is rebuilt from
`verdicts`: one entry per scenario, dumped with json (indent=1,
sort_keys=True).
"""

import json
from pathlib import Path

import pytest

from curv4 import cli

ROOT = Path(__file__).resolve().parent
SCENARIOS = ROOT.parent / "scenarios"
RECORD = ROOT / "verdicts.json"

COMMANDS = {
    "curvature": ["curvature"],
    "verify weitzenboeck": ["verify", "weitzenboeck"],
    "verify eq22": ["verify", "eq22"],
    "verify lemma22": ["verify", "lemma22"],
    "verify prop23": ["verify", "prop23"],
    "verify thm21": ["verify", "thm21"],
    "verify conformal --k 2": ["verify", "conformal", "--k", "2"],
    "kato scan": ["kato", "scan"],
    "kato ksweep": ["kato", "ksweep"],
    "integral": ["integral"],
}
# Run on the shipped scenarios that carry a grid.
GRID_COMMANDS = {
    "grid definiteness": ["grid", "definiteness"],
    "integral (grid)": ["integral"],
}


def discrete_fields(obj, path=""):
    """The bool, int, str and None leaves of a report, keyed by their path."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {} if isinstance(obj, float) else {path: obj}
    out = {}
    for key, value in items:
        out.update(discrete_fields(value, f"{path}/{key}"))
    return out


def verdicts(name, tmp):
    """{command: {"exit": code, "fields": discrete_fields(report)}} for one
    shipped scenario; "fields" is null when the command writes no report."""
    shipped = SCENARIOS / f"{name}.json"
    raw = json.loads(shipped.read_text())
    commands = {**COMMANDS, **(GRID_COMMANDS if raw.pop("grid", None) else {})}
    analytic = Path(tmp) / f"{name}.json"
    analytic.write_text(json.dumps(raw))
    out = {}
    for command, words in commands.items():
        scenario = analytic if command == "integral" else shipped
        dest = Path(tmp) / command.replace(" ", "_")
        code = cli.main([*words, "--scenario", str(scenario), "--out", str(dest)])
        report = dest / "report.json"
        out[command] = {"exit": code, "fields": discrete_fields(json.loads(report.read_text()))
                        if report.exists() else None}
    return out


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_verdicts_match_record(name, tmp_path):
    assert verdicts(name, tmp_path) == json.loads(RECORD.read_text())[name]
