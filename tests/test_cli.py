import argparse
import contextlib
import csv
import importlib.util
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4 import cli, grid, scenario
from curv4.forms import PAIRS

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
PERTURBED = json.loads((SCENARIOS / "perturbed_t4_n8.json").read_text())["grid"]["metric"]


def run(args):
    return cli.main([str(a) for a in args])


def read_report(out):
    with open(Path(out) / "report.json", "rb") as fh:
        return fh.read()


def test_presets_list(capsys):
    assert run(["presets", "list"]) == 0
    out = capsys.readouterr().out
    assert "flat_t4" in out and "kaehler" in out


def test_verify_thm21_conformal(tmp_path):
    code = run(["verify", "thm21", "--scenario", SCENARIOS / "conformal_product.json",
                "--out", tmp_path])
    assert code == 0
    rep = json.loads(read_report(tmp_path))
    assert rep["passed"] and rep["max_rel_residual"] < 1e-6
    assert rep["sign_conventions"]["version"] == 1
    csv_head = (tmp_path / "samples.csv").read_text().splitlines()
    assert csv_head[0].startswith("x1,x2,x3,x4")
    assert len(csv_head) == 31


def test_byte_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["verify", "prop23", "--scenario",
                    SCENARIOS / "conformal_product.json", "--out", out]) == 0
    assert read_report(a) == read_report(b)
    assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()


def test_grid_definiteness(tmp_path):
    code = run(["grid", "definiteness", "--scenario", SCENARIOS / "flat_t4_n6.json",
                "--out", tmp_path])
    assert code == 0
    rep = json.loads(read_report(tmp_path))
    assert rep["b2_plus"] == 3 and rep["b2_minus"] == 3
    assert rep["signature"] == 0 and rep["definite"] is False
    assert rep["kernel_residual"] <= 1e-10
    assert rep["cg_iterations"] >= 0 and rep["cg_relative_residual"] <= 1e-12


def test_grid_harmonic_exports_basis(tmp_path):
    sc = {
        "schema_version": 1, "id": "flat_small",
        "manifold": {"preset": "flat_t4"},
        "grid": {"n": 4},
    }
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps(sc))
    assert run(["grid", "harmonic", "--scenario", sfile, "--out", tmp_path]) == 0
    rep = json.loads(read_report(tmp_path))
    assert len(rep["basis"]) == 6
    assert len(rep["basis"][0]) == 6 * 4**4
    assert "axis-pair lexicographic" in rep["face_ordering"]


def test_grid_harmonic_basis_is_class_labelled(tmp_path):
    """The basis depends on no seed, and basis[p] lies in the class of PAIRS[p]:
    nonzero M2-projection onto the constant p-cochain, zero onto earlier ones."""
    reports = []
    for seed in (3, 11):
        sfile = tmp_path / f"s{seed}.json"
        sfile.write_text(json.dumps({
            "schema_version": 1, "id": "perturbed_small",
            "manifold": {"preset": "flat_t4"},
            "sampling": {"count": 4, "seed": seed},
            "grid": {"n": 4, "metric": PERTURBED},
        }))
        assert run(["grid", "harmonic", "--scenario", sfile, "--out", tmp_path / str(seed)]) == 0
        reports.append(json.loads(read_report(tmp_path / str(seed))))
    a, b = reports
    assert a["basis"] == b["basis"] and a["star_eigenvalues"] == b["star_eigenvalues"]
    gc = grid.assemble(scenario.load(sfile).grid_chart(), 4)
    Z = np.array(a["basis"]).T
    proj = (gc.M[2][:, None] * Z).reshape(len(PAIRS), gc.sites, len(PAIRS)).sum(axis=1)
    diag = np.abs(np.diag(proj))
    assert np.all(diag > 1.0)
    assert np.max(np.abs(np.triu(proj, 1)) / diag[None, :]) <= 1e-10


def test_stalled_cg_exit1(tmp_path, capsys, monkeypatch):
    """A solve that stops at its iteration cap exits 1, naming the class."""
    capped = grid.block_cg
    monkeypatch.setattr(grid, "block_cg",
                        lambda A, B, X0, tol, maxit: capped(A, B, X0, tol, 2))
    for words in (["grid", "definiteness"], ["integral"]):
        assert run([*words, "--scenario", SCENARIOS / "perturbed_t4_n8.json",
                    "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert "dx1^dx2 stopped at its cap of 2 iterations with relative residual" in err


def test_nonharmonic_rejected_exit2(tmp_path, capsys):
    code = run(["verify", "eq22", "--scenario", SCENARIOS / "nonharmonic.json",
                "--out", tmp_path])
    assert code == 2
    assert "not harmonic" in capsys.readouterr().err


def test_unknown_key_rejected_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"id": "x", "manifold": {"preset": "flat_t4"},
                               "bogus": 1}))
    assert run(["verify", "thm21", "--scenario", bad, "--out", tmp_path]) == 2
    assert "unknown keys" in capsys.readouterr().err


# (shipped scenario, path of the key, bad value, command, message)
BAD_NUMBERS = [
    ("conformal_product", ("sampling", "count"), "abc", "kato scan",
     "sampling.count must be an integer"),
    ("conformal_product", ("sampling", "count"), 2.5, "kato scan",
     "sampling.count must be an integer"),
    ("conformal_product", ("sampling", "count"), True, "kato scan",
     "sampling.count must be an integer"),
    ("conformal_product", ("sampling", "count"), 0, "kato scan", "sampling.count must be >= 1"),
    ("conformal_product", ("sampling", "margin"), "0.05", "kato scan",
     "sampling.margin must be a finite number"),
    ("round_s4_random", ("sampling", "margin"), -1, "verify weitzenboeck",
     "sampling.margin must be >= 0"),
    ("round_s4_random", ("sampling", "margin"), 0.5, "curvature",
     "sampling.margin must be < 0.5"),
    ("conformal_product", ("sampling", "seed"), "7", "kato scan",
     "sampling.seed must be an integer"),
    ("conformal_product", ("sampling", "seed"), -1, "kato scan", "sampling.seed must be >= 0"),
    ("flat_t4_n6", ("grid", "n"), "x", "grid definiteness", "grid.n must be an integer"),
    ("flat_t4_n6", ("grid", "n"), 6.7, "grid definiteness", "grid.n must be an integer"),
    ("round_s4_random", ("form", "seed"), "17", "verify weitzenboeck",
     "form.seed must be an integer"),
    ("round_s4_random", ("manifold", "r"), "2", "verify weitzenboeck",
     "manifold.r must be a finite number"),
    ("conformal_product", ("manifold", "r1"), "abc", "curvature",
     "manifold.r1 must be a finite number"),
    ("conformal_product", ("manifold", "r2"), None, "curvature",
     "manifold.r2 must be a finite number"),
    ("conformal_product", ("manifold",),
     {"preset": "conformal", "base": {"preset": "round_s4", "r": "abc"}, "f": "0.1*sin(x1)"},
     "curvature", "manifold.base.r must be a finite number"),
    ("conformal_product", ("manifold",),
     {"preset": "conformal", "base": {"preset": "flat_t4"}, "f": 0.1},
     "curvature", "manifold.f must be an expression string"),
    ("conformal_product", ("conformal_factor",), 0.1, "curvature",
     "conformal_factor must be an expression string"),
    ("cp2_kaehler", ("manifold",), {"metric": [[str(int(i == j)) for j in range(3)]
                                               for i in range(3)]},
     "curvature", "manifold.metric must be a list of 4 rows"),
    ("cp2_kaehler", ("manifold",), {"metric": [["1", "0", "0", "0"], ["0", 1, "0", "0"],
                                               ["0", "0", "1", "0"], ["0", "0", "0", "1"]]},
     "curvature", "manifold.metric[1][1] must be an expression string, not 1"),
    ("perturbed_t4_n8", ("grid", "metric", 2), ["0", "0", "1"], "grid definiteness",
     "grid.metric[2] must be a list of 4 expression strings"),
    ("perturbed_t4_n8", ("grid", "metric", 0, 0), 1, "grid definiteness",
     "grid.metric[0][0] must be an expression string, not 1"),
]


IDENTITY = [[str(int(i == j)) for j in range(4)] for i in range(4)]


def nested_conformal(depth):
    """A manifold of `depth` conformal presets, each the base of the last."""
    spec = "flat_t4"
    for _ in range(depth):
        spec = {"preset": "conformal", "f": "0.01*sin(x1)", "base": spec}
    return spec


# (id, shipped scenario, path of the key, bad value, command, message): before
# the schema walk each raised an uncaught exception, was accepted, or exited 2
# without naming its path
BAD_SCENARIOS = [
    ("manifold-float", "conformal_product", ("manifold",), 3.0, "curvature",
     "manifold must be a JSON object, not 3.0"),
    ("manifold-null", "conformal_product", ("manifold",), None, "curvature",
     "manifold must be a JSON object, not None"),
    ("manifold-bool", "conformal_product", ("manifold",), True, "curvature",
     "manifold must be a JSON object, not True"),
    ("component-null", "nonharmonic", ("form", "components", "12"), None, "verify thm21",
     "form.components.12 must be an expression string, not None"),
    ("component-int", "nonharmonic", ("form", "components", "34"), -1, "verify thm21",
     "form.components.34 must be an expression string, not -1"),
    ("form_components-int", "perturbed_t4_n8", ("form_components",), {"12": 1}, "verify thm21",
     "form_components.12 must be an expression string, not 1"),
    ("components-list", "nonharmonic", ("form", "components"), [["12", "1"]], "verify thm21",
     "form.components must be a JSON object, not [['12', '1']]"),
    ("form_components-list", "perturbed_t4_n8", ("form_components",), [["12", "1"]], "kato scan",
     "form_components must be a JSON object"),
    ("count-huge", "conformal_product", ("sampling", "count"), 2**70, "kato scan",
     f"sampling.count must be <= {scenario.COUNT_MAX}"),
    ("n-huge", "flat_t4_n6", ("grid", "n"), 2**70, "grid definiteness",
     f"grid.n must be <= {scenario.N_MAX}"),
    ("n-small", "flat_t4_n6", ("grid", "n"), 2, "grid definiteness", "grid.n must be >= 3"),
    ("conformal-without-f", "conformal_product", ("manifold",),
     {"preset": "conformal", "base": "flat_t4"}, "curvature", "manifold.f is missing"),
    ("domain-int", "cp2_kaehler", ("manifold",), {"metric": IDENTITY, "domain": 3}, "curvature",
     "manifold.domain must be a list of 4 rows, not 3"),
    ("domain-string", "cp2_kaehler", ("manifold",),
     {"metric": IDENTITY, "domain": [[0, 1], ["a", 1], [0, 1], [0, 1]]}, "curvature",
     "manifold.domain[1][0] must be a finite number, not 'a'"),
    ("domain-triple", "cp2_kaehler", ("manifold",),
     {"metric": IDENTITY, "domain": [[0, 1], [0, 1], [0, 1, 2], [0, 1]]}, "curvature",
     "manifold.domain[2] must be a list of 2 finite numbers"),
    ("domain-empty", "cp2_kaehler", ("manifold",),
     {"metric": IDENTITY, "domain": [[0, 1], [0, 1], [0, 1], [1, 1]]}, "curvature",
     "manifold.domain[3] must have lo < hi"),
    ("domain-infinite", "cp2_kaehler", ("manifold",),
     {"metric": IDENTITY, "domain": [[0, float("inf")]] * 4}, "verify thm21",
     "bad.json: Infinity is not a JSON number"),
    ("margin-nan", "cp2_kaehler", ("sampling", "margin"), float("nan"), "verify thm21",
     "bad.json: NaN is not a JSON number"),
    ("schema_version-bool", "flat_constant", ("schema_version",), True, "verify thm21",
     "schema_version must be an integer, not True"),
    ("schema_version-2", "flat_constant", ("schema_version",), 2, "verify thm21",
     "schema_version must be == 1"),
    ("flat_t4-r", "flat_constant", ("manifold", "r"), 2.0, "verify thm21",
     "unknown keys ['r'] in manifold (allowed: ['preset'])"),
    ("product_s2s2-base", "conformal_product", ("manifold", "base"), "flat_t4", "verify thm21",
     "unknown keys ['base'] in manifold"),
    ("constant-seed", "flat_constant", ("form", "seed"), 3, "verify thm21",
     "unknown keys ['seed'] in form (allowed: ['preset'])"),
    ("radius-zero", "round_s4_random", ("manifold", "r"), 0, "verify weitzenboeck",
     "manifold.r must be > 0"),
    ("preset-unknown", "cp2_kaehler", ("manifold", "preset"), "cp3", "curvature",
     "manifold.preset must be one of ['conformal', 'cp2_fubini_study', 'flat_t4', "
     "'product_s2s2', 'round_s4'], not 'cp3'"),
    ("expression-unparsed", "conformal_product", ("conformal_factor",), "sin(", "curvature",
     "conformal_factor: "),
    ("conformal-too-deep", "conformal_product", ("manifold",),
     nested_conformal(scenario.CONFORMAL_DEPTH_MAX + 1), "curvature",
     "manifold" + ".base" * scenario.CONFORMAL_DEPTH_MAX
     + f" nests conformal more than {scenario.CONFORMAL_DEPTH_MAX} deep"),
]


@pytest.mark.parametrize("name,path,value,command,message",
                         BAD_NUMBERS + [row[1:] for row in BAD_SCENARIOS],
                         ids=[f"{m.split()[0]}-{type(v).__name__}" for *_, v, _, m in BAD_NUMBERS]
                         + [row[0] for row in BAD_SCENARIOS])
def test_bad_scenario_number_exit2(tmp_path, capsys, name, path, value, command, message):
    """A bad value anywhere in a scenario exits 2 naming its JSON path (or the
    file, for JSON that is not strict), before any report is written."""
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    spec = raw
    for key in path[:-1]:
        spec = spec[key]
    spec[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run([*command.split(), "--scenario", bad, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_deep_nesting_exit2(tmp_path, capsys):
    """2,000 nested conformal bases pass the json module's recursion limit: exit 2
    naming the file, not a RecursionError."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"id": "deep", "manifold": ' + '{"preset": "conformal", "f": "0", "base": '
                   * 2000 + '"flat_t4"' + "}" * 2001)
    assert run(["curvature", "--scenario", bad, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.json is nested too deeply" in err
    assert "Traceback" not in err and not (tmp_path / "out" / "report.json").exists()


def test_size_caps_admit_every_shipped_and_benchmark_size(tmp_path):
    """The caps on sampling.count and grid.n are tested on the walk alone, never
    by running a command at the cap; every shipped scenario, every benchmark
    job's scenario (perfbench/workloads.py, full size) and conformal bases
    nested to the depth cap load."""
    raw = {"id": "caps", "manifold": "flat_t4",
           "sampling": {"count": scenario.COUNT_MAX}, "grid": {"n": scenario.N_MAX}}
    sc = scenario.from_dict(raw)
    assert (sc.count, sc.grid_n) == (scenario.COUNT_MAX, scenario.N_MAX)
    for section, key, cap in (("sampling", "count", scenario.COUNT_MAX),
                              ("grid", "n", scenario.N_MAX)):
        with pytest.raises(scenario.InputError, match=f"^{section}.{key} must be <= {cap}$"):
            scenario.from_dict({**raw, section: {key: cap + 1}})
    for path in SCENARIOS.glob("*.json"):
        scenario.load(path)
    scenario.from_dict({**raw, "manifold": nested_conformal(scenario.CONFORMAL_DEPTH_MAX)})
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for job in workloads.make_jobs(name, 0, tmp_path / name):
            scenario.load(job.scenario_path)


def test_console_entry_point_exit2(tmp_path):
    """Outside cli.main, as the installed console script runs it, a bad scenario
    still exits 2 with an error line and no traceback."""
    import subprocess
    import sys

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"id": "x", "manifold": 3.0}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", "import sys; from curv4.cli import main; "
                          "sys.exit(main())", "curvature", "--scenario", str(bad),
                          "--out", str(tmp_path)], env=env, capture_output=True, text=True)
    assert out.returncode == 2 and "Traceback" not in out.stderr
    assert out.stderr == "error: manifold must be a JSON object, not 3.0\n"


def _fields(obj, path=()):
    """The JSON path of every value inside obj, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) \
        else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}
FIELDS = [(name, path) for name, raw in SHIPPED.items() for path in _fields(raw)]
# wrong types, out-of-bound numbers and the shapes that once raised; no value
# in it is a count or lattice size that would make a run allocate much
POOL = [None, True, False, [], [1.0, 2.0], {}, "1", "abc", "sin(x1)", 1, 0, -1, 2.5, 3.0,
        2**70, 1e308, {"preset": "flat_t4"}, {"preset": "conformal", "base": "flat_t4"},
        [["12", "1"]], {"12": 1}, {"metric": [["1"] * 4] * 4, "domain": 3}]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(POOL))
def test_one_field_fuzz_exits_0_1_or_2(field, value):
    """One field of a shipped scenario replaced by a value of the pool, under a
    command that reads it: the exit is 0, 1 or 2, and exit 2 is one error line
    with no traceback and no report."""
    name, path = field
    raw = json.loads(json.dumps(SHIPPED[name]))
    spec = raw
    for key in path[:-1]:
        spec = spec[key]
    spec[path[-1]] = value
    command = ["grid", "definiteness"] if path[0] == "grid" else ["verify", "thm21"]
    with tempfile.TemporaryDirectory() as tmp:
        sfile, out, err = Path(tmp) / "s.json", Path(tmp) / "out", io.StringIO()
        sfile.write_text(json.dumps(raw))
        with contextlib.redirect_stderr(err):
            code = run([*command, "--scenario", sfile, "--out", out])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
            assert not (out / "report.json").exists()

def test_malformed_json_located(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"id": "x",,}')
    assert run(["verify", "thm21", "--scenario", bad, "--out", tmp_path]) == 2
    assert "line 1" in capsys.readouterr().err


def test_bad_expression_forwarded(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "id": "x", "manifold": {"preset": "flat_t4"},
        "form": {"components": {"12": "sin(x9)"}},
    }))
    assert run(["verify", "thm21", "--scenario", bad, "--out", tmp_path]) == 2
    assert "unknown identifier" in capsys.readouterr().err


def test_indefinite_metric_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "id": "x",
        "manifold": {"metric": [["1", "0", "0", "0"], ["0", "-1", "0", "0"],
                                ["0", "0", "1", "0"], ["0", "0", "0", "1"]]},
    }))
    assert run(["verify", "thm21", "--scenario", bad, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "not positive definite" in err and "inline_metric" in err


@pytest.mark.parametrize("command,where", [(["verify", "weitzenboeck"], "form"),
                                           (["kato", "scan"], "form"),
                                           (["verify", "weitzenboeck"], "metric"),
                                           (["kato", "scan"], "metric")])
def test_overflowing_expression_exit2(tmp_path, capsys, command, where):
    """A jet that overflows is bad input: exit 2 with the expression and the
    point named, no traceback, and numpy warns of nothing."""
    sc = {"schema_version": 1, "id": "overflow", "manifold": {"preset": "flat_t4"},
          "sampling": {"count": 4, "margin": 0.05, "seed": 1}}
    if where == "form":
        sc["form"] = {"components": {"12": "exp(5000*x1)"}}
    else:
        sc["manifold"] = {"metric": [["exp(5000*x1)" if i == j == 0 else str(int(i == j))
                                      for j in range(4)] for i in range(4)]}
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps(sc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(command + ["--scenario", sfile, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "non-finite jet coefficients in expression 'exp(5000.0 * x1)' at point (" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_scaled_torus_metric_keeps_its_verdict(tmp_path):
    """Periodicity is tested relative to max|g|, so the perturbed torus with
    its metric scaled by 1e4 is still a torus: grid definiteness gives the
    kernel and signature of the unscaled metric."""
    keys = ("kernel_dim", "b2_plus", "b2_minus", "signature")
    sc = json.loads((SCENARIOS / "perturbed_t4_n8.json").read_text())
    sc["grid"]["n"] = 6
    reports = []
    for scale in ("1", "1e4"):
        sc["grid"]["metric"] = [[f"{scale}*({e})" for e in row] for row in PERTURBED]
        sfile, out = tmp_path / f"s{scale}.json", tmp_path / scale
        sfile.write_text(json.dumps(sc))
        assert run(["grid", "definiteness", "--scenario", sfile, "--out", out]) == 0
        reports.append({k: json.loads(read_report(out))[k] for k in keys})
    assert reports[0] == reports[1] == {"kernel_dim": 6, "b2_plus": 3, "b2_minus": 3,
                                        "signature": 0}


def test_scaled_aperiodic_metric_rejected(tmp_path, capsys):
    """The relative periodicity test still fails a metric that is not
    periodic, scaled by 1e-4 to the size of an absolute 1e-12 slack."""
    sc = json.loads((SCENARIOS / "perturbed_t4_n8.json").read_text())
    sc["grid"]["metric"] = [[f"1e-4*({e})" for e in row] for row in PERTURBED]
    sc["grid"]["metric"][0][0] = "1e-4*(1 + 0.1*sin(x1/2))"
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps(sc))
    assert run(["grid", "definiteness", "--scenario", sfile, "--out", tmp_path]) == 2
    assert "not 2pi-periodic" in capsys.readouterr().err


def test_overflowing_grid_metric_exit2(tmp_path, capsys):
    """A grid metric entry that overflows is bad input named by its expression and
    a point, not a periodicity failure, and numpy warns of nothing."""
    sc = json.loads((SCENARIOS / "perturbed_t4_n8.json").read_text())
    sc["grid"]["metric"][0][0] = "1 + exp(800*sin(x1))"
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps(sc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["grid", "definiteness", "--scenario", sfile, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "metric entry g11: non-finite jet coefficients in expression " \
        "'1.0 + exp(800.0 * sin(x1))' at point (" in err
    assert "periodic" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_identity_violation_exit1(tmp_path):
    """An impossible tolerance forces exit code 1 without an input error."""
    sc = {
        "schema_version": 1, "id": "impossible",
        "manifold": {"preset": "cp2_fubini_study"},
        "form": {"preset": "random_analytic", "seed": 3},
        "sampling": {"count": 8, "margin": 0.05, "seed": 1},
        "tolerances": {"weitzenboeck": 1e-30},
    }
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps(sc))
    assert run(["verify", "weitzenboeck", "--scenario", sfile, "--out", tmp_path]) == 1
    rep = json.loads(read_report(tmp_path))
    assert rep["passed"] is False


@pytest.mark.parametrize("identity,flag", [("lemma22", "degenerate"),
                                           ("thm21", "premise_rho_ge_2")])
def test_flag_columns_hold_0_1(tmp_path, identity, flag):
    """A flag column holds 0 and 1, not the floats 0.0 and 1.0 (on the Kaehler
    form every point is degenerate and meets the Kato premise)."""
    raw = json.loads((SCENARIOS / "cp2_kaehler.json").read_text())
    raw["sampling"]["count"] = 4
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps(raw))
    assert run(["verify", identity, "--scenario", sfile, "--out", tmp_path]) == 0
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    col = lines[0].split(",").index(flag)
    assert [line.split(",")[col] for line in lines[1:]] == ["1"] * 4


def test_non_finite_report_exit1_without_file(tmp_path, capsys, monkeypatch):
    """report.json is strict JSON: a NaN in the report exits 1 naming its key
    path, and leaves no report.json or samples.csv behind."""
    from curv4 import verify

    real = verify.verify_weitzenboeck

    def nan_extra(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.extra["probe"] = [0.5, float("nan")]
        return rep

    monkeypatch.setattr(verify, "verify_weitzenboeck", nan_extra)
    raw = json.loads((SCENARIOS / "flat_constant.json").read_text())
    raw["sampling"]["count"] = 3
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run(["verify", "weitzenboeck", "--scenario", sfile, "--out", out]) == 1
    assert "report value extra.probe[1] is nan" in capsys.readouterr().err
    assert not (out / "report.json").exists() and not (out / "samples.csv").exists()


FLOATS = st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 1.0000000000000002]) | st.floats(
    allow_nan=False, allow_infinity=False)
ARRAYS = st.lists(st.integers(0, 4), min_size=1, max_size=2).flatmap(
    lambda shape: st.lists(FLOATS, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))
    .map(lambda values: np.array(values, dtype=float).reshape(shape)))
REPORTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6) | FLOATS
    | st.lists(FLOATS, max_size=6) | ARRAYS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=24)


@given(st.dictionaries(st.text(max_size=6), REPORTS, max_size=6))
@settings(max_examples=200, deadline=None)
def test_write_report_bytes_are_json_dumps(report):
    """_write_report writes its float lists with the C encoder, and arrays (1-D
    and 2-D) one row at a time, and the bytes are still those of
    json.dumps(indent=2) on the whole report, its arrays as .tolist()."""
    import tempfile

    def listed(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, dict):
            return {k: listed(v) for k, v in obj.items()}
        return [listed(v) for v in obj] if isinstance(obj, list) else obj

    with tempfile.TemporaryDirectory() as out:
        path = cli._write_report(argparse.Namespace(out=out), report)
        assert path.read_bytes() == (json.dumps(listed(report), sort_keys=True, indent=2,
                                                allow_nan=False) + "\n").encode()


def test_grid_harmonic_marker_id_is_json_dumps(tmp_path):
    """A scenario id equal to the marker string the writer once spliced its
    float lists at ("\\u0000float list") is written like any other string: the
    report, basis array included, is json.dumps(indent=2) of itself."""
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps({"schema_version": 1, "id": "\u0000float list",
                                 "manifold": {"preset": "flat_t4"}, "grid": {"n": 3}}))
    assert run(["grid", "harmonic", "--scenario", sfile, "--out", tmp_path]) == 0
    raw = read_report(tmp_path)
    rep = json.loads(raw)
    assert rep["scenario_id"] == "\x00float list" and len(rep["basis"]) == 6
    assert raw == (json.dumps(rep, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_basis_exit1_without_file(tmp_path, capsys, monkeypatch, bad):
    """A non-finite entry of the exported basis exits 1 naming basis[m][i]."""
    real = grid.harmonic_kernel

    def poisoned(*args, **kwargs):
        basis = real(*args, **kwargs)
        basis.vectors[7, 2] = bad
        return basis

    monkeypatch.setattr(grid, "harmonic_kernel", poisoned)
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps({"schema_version": 1, "id": "flat_small",
                                 "manifold": {"preset": "flat_t4"}, "grid": {"n": 3}}))
    out = tmp_path / "out"
    assert run(["grid", "harmonic", "--scenario", sfile, "--out", out]) == 1
    assert f"report value basis[2][7] is {bad!r}" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_tracer_pins_resolve():
    """perfbench/child.py wraps curv4 functions and methods by name
    (install(Tracer())); each name it pins must still resolve, or every traced
    benchmark job fails."""
    import subprocess
    import sys

    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, 'perfbench'); import child; "
            "child.install(child.Tracer()); print('installed')")
    env = dict(os.environ, PYTHONPATH=str(root / "src") + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "installed", out.stderr


def test_kato_scan_cli(tmp_path):
    assert run(["kato", "scan", "--scenario", SCENARIOS / "conformal_product.json",
                "--out", tmp_path]) == 0
    rep = json.loads(read_report(tmp_path))
    assert rep["min_rho"] >= 1.5 - 1e-6
    assert rep["classical_kato_ok"]


def test_ksweep_rows(tmp_path):
    assert run(["kato", "ksweep", "--k", "0,1,2", "--scenario",
                SCENARIOS / "conformal_product.json", "--out", tmp_path]) == 0
    rep = json.loads(read_report(tmp_path))
    assert [row["k"] for row in rep["rows"]] == [0.0, 1.0, 2.0]
    # k = 0 row: the ratio column is the plain Kato ratio
    assert rep["rows"][0]["min_lhs49_over_dnorm"] >= 1.5 - 1e-6
    # k = 1 row: ratio = rho - 3/2 >= -1e-6
    assert rep["rows"][1]["min_lhs49_over_dnorm"] >= -1e-6
    lines = (tmp_path / "ksweep.csv").read_text().splitlines()
    assert lines[0] == "k,min_lhs49_over_dnorm,residual_eq49"
    assert len(lines) == 4


def test_ksweep_rows_equal_verify_conformal(tmp_path):
    """ksweep shares one PointBundle per chunk across its k list; each row is
    the verify conformal --k report at that k, bit for bit."""
    assert run(["kato", "ksweep", "--scenario", SCENARIOS / "conformal_product.json",
                "--out", tmp_path / "sweep"]) == 0
    rows = json.loads(read_report(tmp_path / "sweep"))["rows"]
    assert [row["k"] for row in rows] == [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    for row in rows:
        out = tmp_path / f"k{row['k']}"
        assert run(["verify", "conformal", "--k", row["k"], "--scenario",
                    SCENARIOS / "conformal_product.json", "--out", out]) == 0
        extra = json.loads(read_report(out))["extra"]
        assert row == {"k": extra["k"], "min_lhs49_over_dnorm": extra["min_lhs49_over_dnorm"],
                       "residual_eq49": extra["max_residual_eq49"]}


def test_ksweep_parallel_form_empty_scan(tmp_path):
    """On a parallel form ksweep reports an empty scan, as `kato scan` does,
    and exits on the residuals."""
    assert run(["kato", "ksweep", "--k", "0,1,2", "--scenario",
                SCENARIOS / "cp2_kaehler.json", "--out", tmp_path]) == 0
    rep = json.loads(read_report(tmp_path))
    assert "parallel-degenerate" in rep["empty_scan"]
    assert rep["passed"] is True
    assert rep["monotone_growth_from_k1"] is None
    assert [row["min_lhs49_over_dnorm"] for row in rep["rows"]] == [None] * 3
    lines = (tmp_path / "ksweep.csv").read_text().splitlines()
    assert lines[0] == "k,min_lhs49_over_dnorm,residual_eq49"
    assert [line.split(",")[:2] for line in lines[1:]] == [["0.0", ""], ["1.0", ""],
                                                           ["2.0", ""]]
    assert all(float(line.split(",")[2]) <= rep["tolerance"] for line in lines[1:])


@pytest.mark.parametrize("command", [["verify", "conformal", "--k", "nan"],
                                     ["kato", "ksweep", "--k", "1,nan"],
                                     ["verify", "conformal", "--k", "inf"]],
                         ids=["verify-nan", "ksweep-nan", "verify-inf"])
def test_non_finite_k_exit2(tmp_path, capsys, command):
    """A --k that is not a finite number is bad input named by the flag and its
    value, before any report is written."""
    out = tmp_path / "out"
    assert run(command + ["--scenario", SCENARIOS / "conformal_product.json",
                          "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"--k must be a finite number, not {float(command[-1].split(',')[-1])!r}" in err
    assert "Traceback" not in err and not (out / "report.json").exists()


def test_conformal_chain_small_field_large_k(tmp_path):
    """u^(1-k) is formed as (1/u)^(k-1): on a field of size 1e-11, where
    |phi|^2 ~ 1e-22 and 1/|phi|^(2(k-1)) would overflow its reciprocal jet, Eq 4.6
    stays finite at k = 8 and the default ksweep warns of nothing."""
    raw = json.loads((SCENARIOS / "conformal_product.json").read_text())
    raw["form"] = {"components": {"12": "1e-11*sin(x1)"}}
    sfile = tmp_path / "small.json"
    sfile.write_text(json.dumps(raw))
    assert run(["verify", "conformal", "--k", "8", "--scenario", sfile,
                "--out", tmp_path / "k8"]) == 0
    assert json.loads(read_report(tmp_path / "k8"))["extra"]["max_residual_eq46"] < 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["kato", "ksweep", "--scenario", sfile, "--out", tmp_path / "sweep"]) == 0


def test_curvature_command(tmp_path):
    sc = {
        "schema_version": 1, "id": "s4",
        "manifold": {"preset": "round_s4", "r": 1.0},
        "sampling": {"count": 8, "margin": 0.05, "seed": 2},
    }
    sfile = tmp_path / "s.json"
    sfile.write_text(json.dumps(sc))
    assert run(["curvature", "--scenario", sfile, "--out", tmp_path]) == 0
    rep = json.loads(read_report(tmp_path))
    assert rep["global_stats"]["k_lower"] == pytest.approx(1.0, abs=1e-5)
    assert rep["scal_range"][0] == pytest.approx(12.0, abs=1e-8)
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,x3,x4,scal"
    assert len(lines) == 9
    assert all(float(line.split(",")[4]) == pytest.approx(12.0, abs=1e-8)
               for line in lines[1:])


def test_curvature_memory_bounded_by_chunk(tmp_path):
    """`curvature` runs its sample in chunks (map_chunks): its traced peak at
    4 CHUNK points of conformal_product is at most 1.2 times that at CHUNK
    points (a slate of the whole sample traces 10.2 MB at 1,024 points)."""
    import tracemalloc

    from curv4 import charts

    raw = json.loads((SCENARIOS / "conformal_product.json").read_text())

    def peak(count):
        raw["sampling"]["count"] = count
        sfile = tmp_path / f"s{count}.json"
        sfile.write_text(json.dumps(raw))
        tracemalloc.start()
        try:
            assert run(["curvature", "--scenario", sfile, "--out", tmp_path / str(count)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # warm caches
    one, four = peak(charts.CHUNK), peak(4 * charts.CHUNK)
    assert four <= 1.2 * one, (one, four)


def test_grid_harmonic_memory_per_cell(tmp_path):
    """`grid harmonic` on the perturbed T^4 at n=8 traces at most 2.0 KB a
    cell in-process (1.33 KB measured; 4.8 KB when the basis went into the
    report as nested lists and the report into one string)."""
    import tracemalloc

    sfile = SCENARIOS / "perturbed_t4_n8.json"
    assert json.loads(sfile.read_text())["grid"]["n"] == 8
    args = ["grid", "harmonic", "--scenario", sfile, "--out", tmp_path]
    assert run(args) == 0  # warm caches
    tracemalloc.start()
    try:
        assert run(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2000 * 8**4, peak / 8**4


def test_integral_grid_command(tmp_path):
    assert run(["integral", "--scenario", SCENARIOS / "perturbed_t4_n8.json",
                "--out", tmp_path]) == 0
    rep = json.loads(read_report(tmp_path))
    assert abs(rep["green_stokes_conservative"]) < 1e-12
    assert rep["cg_iterations"] > 0 and rep["cg_relative_residual"] <= 1e-12
    assert rep["integral_delta_FG"] == pytest.approx(
        rep["integral_8KFG"] + rep["integral_remainder"],
        abs=2.0 * rep["h"]**2)


def test_missing_scenario_file(tmp_path, capsys):
    assert run(["verify", "thm21", "--scenario", tmp_path / "nope.json",
                "--out", tmp_path]) == 2
    assert "not found" in capsys.readouterr().err


def test_form_as_string_and_form_components(tmp_path):
    sc = {
        "schema_version": 1, "id": "string_form",
        "manifold": {"preset": "product_s2s2", "r1": 1.0, "r2": 1.0},
        "form": "factor_volumes",
        "sampling": {"count": 6, "margin": 0.05, "seed": 4},
    }
    sfile = tmp_path / "a.json"
    sfile.write_text(json.dumps(sc))
    assert run(["verify", "prop23", "--scenario", sfile, "--out", tmp_path]) == 0

    sc2 = {
        "schema_version": 1, "id": "components_form",
        "manifold": {"preset": "flat_t4"},
        "form_components": {"12": "1", "34": "0.5"},
        "sampling": {"count": 6, "margin": 0.05, "seed": 4},
    }
    sfile2 = tmp_path / "b.json"
    sfile2.write_text(json.dumps(sc2))
    assert run(["verify", "thm21", "--scenario", sfile2, "--out", tmp_path]) == 0

    sc3 = dict(sc2)
    sc3["form"] = "constant"
    sfile3 = tmp_path / "c.json"
    sfile3.write_text(json.dumps(sc3))
    assert run(["verify", "thm21", "--scenario", sfile3, "--out", tmp_path]) == 2


def test_grid_chart_skips_scipy_stats():
    """Neither chart building nor point sampling imports scipy.stats."""
    import subprocess
    import sys

    code = ("import sys; import curv4.cli; from curv4 import scenario; "
            f"scenario.load({str(SCENARIOS / 'flat_t4_n6.json')!r}).grid_chart(); "
            f"sc = scenario.load({str(SCENARIOS / 'conformal_product.json')!r}); "
            "assert len(sc.points(sc.build_chart())) == sc.count; "
            "print('scipy.stats' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


# numpy.random and what it imports: OpenSSL through hashlib, secrets.
RANDOM_MODULES = ("numpy.random", "secrets", "hashlib")

# The watched modules each command loads: the grid only for grid commands, the
# verifiers, canonical frames, presets and csv only where the command runs them.
COMMAND_LOADS = {
    ("curvature",): ["csv", "curv4.canonical", "curv4.presets"],
    ("verify", "eq22"): ["csv", "curv4.presets", "curv4.verify"],
    ("kato", "scan"): ["csv", "curv4.presets", "curv4.verify"],
    ("grid", "definiteness"): ["curv4.grid"],
    ("integral",): ["curv4.canonical", "curv4.grid"],
}


@pytest.mark.parametrize("command", [list(c) for c in COMMAND_LOADS])
def test_commands_skip_scipy_optimize(tmp_path, command):
    """The curvature extremes, the verifiers, the Kato scan and the grid (whose
    coboundaries are lattice-shift stencils) run without importing any scipy
    module, numpy.ma, numpy.random (and the secrets and hashlib it pulls in),
    concurrent.futures (single-threaded) or dataclasses, and import only the
    curv4 modules and csv that they call (COMMAND_LOADS)."""
    import subprocess
    import sys

    sfile = SCENARIOS / "cp2_kaehler.json"
    if command in (["grid", "definiteness"], ["integral"]):
        raw = json.loads((SCENARIOS / "perturbed_t4_n8.json").read_text())
        raw["grid"]["n"] = 4
        sfile = tmp_path / "perturbed_t4_n4.json"
        sfile.write_text(json.dumps(raw))
    argv = command + ["--scenario", str(sfile), "--out", str(tmp_path)]
    watched = ("curv4.grid", "curv4.verify", "curv4.canonical", "curv4.presets", "numpy.ma",
               "concurrent.futures", "csv", "dataclasses") + RANDOM_MODULES
    code = ("import sys; from curv4 import cli; "
            f"assert cli.main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] == 'scipy' or m in {watched!r}))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == str(COMMAND_LOADS[tuple(command)])


def test_each_module_imports_alone():
    """Every curv4 module imports first in a fresh interpreter: no import cycle
    through the names that several modules share, and none loads numpy.random."""
    import pkgutil
    import subprocess
    import sys

    import curv4

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    names = [m.name for m in pkgutil.iter_modules(curv4.__path__)]
    assert "verify" in names and "scenario" in names
    for name in names:
        code = (f"import sys, curv4.{name}; "
                f"print(sorted(m for m in {RANDOM_MODULES!r} if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True)
        assert out.returncode == 0, (name, out.stderr)
        assert out.stdout.strip() == "[]", (name, out.stdout)


def _csv_column(path, name):
    with open(path, newline="") as fh:
        return [float(row[name]) if row[name] else None for row in csv.DictReader(fh)]


def test_kato_verdicts_do_not_depend_on_the_field_scale(tmp_path):
    """thm21's premise, the conformal chain's lhs49/|d|phi||^2, ksweep and
    kato scan admit the same points and read the same ratios for the
    conformal_product field and for 1e-11 times it: the degeneracy rule is
    relative to max|phi| over the run."""
    raw = json.loads((SCENARIOS / "conformal_product.json").read_text())
    del raw["form"]
    commands = {"thm21": ["verify", "thm21"], "conformal": ["verify", "conformal", "--k", "2"],
                # k = 8 is left out: at 1e-11 the jet of |phi|^(2 - 2k) overflows there
                "ksweep": ["kato", "ksweep", "--k", "0,0.5,1,2,4"], "scan": ["kato", "scan"]}
    runs = []
    for amp in ("1", "1e-11"):
        sfile = tmp_path / f"{amp}.json"
        sfile.write_text(json.dumps({**raw, "form_components": {"12": f"{amp}*sin(x1)"}}))
        rep = {}
        for name, cmd in commands.items():
            out = tmp_path / amp / name
            assert run([*cmd, "--scenario", sfile, "--out", out]) == 0
            rep[name] = json.loads(read_report(out))
        rep["premise"] = _csv_column(tmp_path / amp / "thm21" / "samples.csv", "premise_rho_ge_2")
        rep["lhs49"] = _csv_column(tmp_path / amp / "conformal" / "samples.csv",
                                   "lhs49_over_dnorm")
        rep["rho"] = _csv_column(tmp_path / amp / "scan" / "samples.csv", "rho")
        runs.append(rep)
    one, small = runs

    def same_ratios(a, b):
        # abs=1e-12 covers ksweep's k = 1 row, rho - 3/2, which cancels to round-off
        assert [x is None for x in a] == [x is None for x in b]
        assert [x for x in b if x is not None] == pytest.approx(
            [x for x in a if x is not None], rel=1e-12, abs=1e-12)

    assert small["thm21"]["extra"]["premise_points"] == one["thm21"]["extra"]["premise_points"]
    assert small["premise"] == one["premise"]
    assert small["scan"]["valid_points"] == one["scan"]["valid_points"] == 30
    same_ratios(one["rho"], small["rho"])
    same_ratios([one["scan"]["min_rho"]], [small["scan"]["min_rho"]])
    same_ratios(one["lhs49"], small["lhs49"])
    same_ratios([one["conformal"]["extra"]["min_lhs49_over_dnorm"]],
                [small["conformal"]["extra"]["min_lhs49_over_dnorm"]])
    same_ratios([r["min_lhs49_over_dnorm"] for r in one["ksweep"]["rows"]],
                [r["min_lhs49_over_dnorm"] for r in small["ksweep"]["rows"]])
    assert "empty_scan" not in small["ksweep"]


POINTWISE_COMMANDS = [["curvature"], ["verify", "weitzenboeck"], ["verify", "eq22"],
                      ["verify", "lemma22"], ["verify", "prop23"], ["verify", "thm21"],
                      ["verify", "conformal", "--k", "2"], ["kato", "scan"],
                      ["kato", "ksweep", "--k", "0,2"], ["integral"]]


@pytest.mark.parametrize("command", POINTWISE_COMMANDS, ids=" ".join)
def test_pointwise_commands_skip_einsum_path(tmp_path, monkeypatch, command):
    """No pointwise command runs numpy's einsum path search: every contraction
    has a fixed order (a matmul, or an einsum without optimize), so the
    arithmetic does not follow numpy's path heuristics, which change with the
    operand shapes."""
    calls = []
    einsum_path = np.einsum_path

    def spy(*args, **kwargs):
        calls.append(args[0])
        return einsum_path(*args, **kwargs)

    monkeypatch.setattr(np, "einsum_path", spy)
    monkeypatch.setitem(np.einsum.__wrapped__.__globals__, "einsum_path", spy)
    sfile = SCENARIOS / "conformal_product.json"
    raw = json.loads(sfile.read_text())
    raw["sampling"]["count"] = 4
    (tmp_path / "s.json").write_text(json.dumps(raw))
    assert run(command + ["--scenario", tmp_path / "s.json", "--out", tmp_path]) == 0
    assert calls == []
