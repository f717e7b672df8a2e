import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

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
    module, numpy.ma, concurrent.futures (single-threaded) or dataclasses, and
    import only the curv4 modules and csv that they call (COMMAND_LOADS)."""
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
               "concurrent.futures", "csv", "dataclasses")
    code = ("import sys; from curv4 import cli; "
            f"assert cli.main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] == 'scipy' or m in {watched!r}))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("CURV4_THREADS", None)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == str(COMMAND_LOADS[tuple(command)])


def test_each_module_imports_alone():
    """Every curv4 module imports first in a fresh interpreter: no import cycle
    through the names that several modules share."""
    import pkgutil
    import subprocess
    import sys

    import curv4

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    names = [m.name for m in pkgutil.iter_modules(curv4.__path__)]
    assert "verify" in names and "scenario" in names
    for name in names:
        out = subprocess.run([sys.executable, "-c", f"import curv4.{name}"], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, (name, out.stderr)
