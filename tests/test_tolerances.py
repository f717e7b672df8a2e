"""The resolved tolerance table: every key gates a command, bad values and
removed keys exit 2, and the README documents exactly the keys and defaults."""

import itertools
import json
import math
import re
from pathlib import Path

import pytest

from curv4 import cli
from curv4.scenario import DEFAULT_TOLERANCES

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

# (key, command, shipped scenario, report field it decides, or None for the
# exit code alone); -1 overridden for the key must change the field or the code
GATES = [
    ("weitzenboeck", ["verify", "weitzenboeck"], "round_s4_random", "passed"),
    ("eq22", ["verify", "eq22"], "conformal_product", "passed"),
    ("lemma22", ["verify", "lemma22"], "conformal_product", "passed"),
    ("prop23", ["verify", "prop23"], "conformal_product", "passed"),
    ("thm21", ["verify", "thm21"], "conformal_product", "passed"),
    ("conformal", ["verify", "conformal"], "conformal_product", "passed"),
    ("conformal", ["kato", "ksweep", "--k", "0,1"], "conformal_product", "passed"),
    ("harmonicity", ["verify", "thm21"], "conformal_product", None),
    ("harmonicity", ["kato", "scan"], "conformal_product", None),
    ("harmonicity", ["kato", "ksweep", "--k", "0,1"], "conformal_product", None),
    ("harmonicity", ["integral"], "cp2_kaehler", None),
    ("kato_classical", ["kato", "scan"], "conformal_product", "classical_kato_ok"),
    ("kato_lemma41", ["kato", "scan"], "conformal_product", "lemma41_floor_ok"),
    ("normal_gamma", ["verify", "eq22"], "conformal_product", None),
    ("normal_gamma", ["verify", "lemma22"], "conformal_product", None),
    ("degeneracy_frac", ["kato", "scan"], "conformal_product", "norm_floor"),
    ("degeneracy_frac", ["verify", "prop23"], "product_volumes", "degenerate_points"),
    ("degeneracy_frac", ["verify", "lemma22"], "product_volumes", "degenerate_points"),
]

_baseline = {}
_runs = itertools.count()


def _outcome(tmp_path, command, raw):
    """(exit code, report.json or None) of one CLI run on the scenario raw."""
    out = tmp_path / f"run{next(_runs)}"
    sfile = out.with_suffix(".json")
    sfile.write_text(json.dumps(raw))
    code = cli.main([*command, "--scenario", str(sfile), "--out", str(out)])
    report = out / "report.json"
    return code, json.loads(report.read_text()) if report.exists() else None


def _field(report, field):
    if field is None or report is None:
        return None
    return report["extra"][field] if field in report.get("extra", {}) else report[field]


def test_every_key_has_a_gate():
    assert {key for key, *_ in GATES} == set(DEFAULT_TOLERANCES)


@pytest.mark.parametrize("key,command,name,field", GATES,
                         ids=[f"{g[0]}-{'_'.join(g[1][:2])}-{g[2]}" for g in GATES])
def test_tolerance_key_is_read(tmp_path, key, command, name, field):
    """A shipped scenario plus the one override {key: -1}, which fails every
    "<= tol" check and passes every ">= tol" gate the other way, changes the
    exit code or the named report field of the command."""
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    cache = (tuple(command), name)
    if cache not in _baseline:
        _baseline[cache] = _outcome(tmp_path, command, raw)
    code, report = _baseline[cache]
    assert code in (0, 1) and report is not None
    code_o, report_o = _outcome(tmp_path, command, {**raw, "tolerances": {key: -1}})
    assert (code_o, _field(report_o, field)) != (code, _field(report, field))
    if "tolerance" in report and key in ("weitzenboeck", "eq22", "lemma22", "prop23",
                                         "thm21", "conformal"):
        assert report["tolerance"] == DEFAULT_TOLERANCES[key]
        assert report_o["tolerance"] == -1.0


def test_degeneracy_frac_decides_the_thm21_premise(tmp_path):
    """thm21's Kato premise admits points by the one degeneracy rule: with
    degeneracy_frac 2 no point is admitted for phi+ or phi- (on this field
    |phi+-| = sqrt(2)|phi|), so the premise holds vacuously everywhere."""
    raw = json.loads((SCENARIOS / "conformal_product.json").read_text())
    counts = []
    for overrides in ({}, {"degeneracy_frac": 2}):
        code, report = _outcome(tmp_path, ["verify", "thm21"], {**raw, "tolerances": overrides})
        assert code == 0
        counts.append(report["extra"]["premise_points"])
    assert counts == [0, 30]


@pytest.mark.parametrize("value", ["abc", None, float("nan"), float("inf"), True, [1e-6],
                                   10**400],
                         ids=["string", "null", "nan", "inf", "bool", "list", "int_past_float"])
def test_malformed_tolerance_exit2(tmp_path, capsys, value):
    """A tolerance that is not a finite number exits 2 naming the key, before
    any verification runs; json.dumps writes NaN and inf as the non-standard
    literals NaN and Infinity, which the reader refuses, naming the file."""
    raw = json.loads((SCENARIOS / "conformal_product.json").read_text())
    code, report = _outcome(tmp_path, ["verify", "thm21"],
                            {**raw, "tolerances": {"thm21": value}})
    assert code == 2 and report is None
    err = capsys.readouterr().err
    literal = isinstance(value, float) and not math.isfinite(value)
    message = (f".json: {json.dumps(value)} is not a JSON number" if literal else
               "tolerances.thm21 must be a finite number")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("where,key", [("manifold", "orientation"), ("tolerances", "eq42"),
                                       ("tolerances", "eq43"), ("tolerances", "eq46")])
def test_removed_keys_exit2(tmp_path, capsys, where, key):
    raw = {"id": "removed", "form": {"preset": "constant"},
           "manifold": {"metric": [["1" if i == j else "0" for j in range(4)]
                                   for i in range(4)]}}
    raw.setdefault(where, {})[key] = -1 if key == "orientation" else 1e-6
    code, _ = _outcome(tmp_path, ["verify", "weitzenboeck"], raw)
    assert code == 2
    assert f"unknown keys [{key!r}] in {where}" in capsys.readouterr().err


def test_readme_tolerance_table_matches_defaults():
    """The README's tolerance table lists exactly the keys and defaults of
    DEFAULT_TOLERANCES."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section, flags=re.M)
    assert len(rows) == len({key for key, _ in rows})
    assert {key: float(default) for key, default in rows} == dict(DEFAULT_TOLERANCES)
