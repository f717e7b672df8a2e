"""The workloads' jobs, their scenario files, and the reference checks.

Each job is one `curv4` CLI invocation on a scenario generated from the
workload seed. The seed drives the sampling seeds (which are also the
eigensolver start vectors of grid jobs) and the random_analytic form seed.
The grid metric of the perturbed torus is the shipped one and never varies.
The program sees only the generated files. Why each workload was chosen is
recorded in BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path

PERTURBED_T4_METRIC = [
    ["1 + 0.1*sin(x1)*cos(x2)", "0.03*sin(x3)*sin(x4)", "0", "0"],
    ["0.03*sin(x3)*sin(x4)", "1 + 0.1*sin(x2)*cos(x3)", "0", "0"],
    ["0", "0", "1 + 0.1*sin(x3)*cos(x4)", "0"],
    ["0", "0", "0", "1 + 0.1*sin(x4)*cos(x1)"],
]

# Scenario templates. "count" and "n" are filled from the job's size, the
# sampling seed (also the eigensolver seed of grid jobs) and the
# random_analytic form seed from the workload seed.
SCENARIOS = {
    "conformal_product": {
        "manifold": {"preset": "product_s2s2", "r1": 1.0, "r2": 1.0},
        "conformal_factor": "0.1*sin(x1)*cos(x3)",
        "form": {"preset": "factor_volume_1"},
    },
    "cp2_kaehler": {
        "manifold": {"preset": "cp2_fubini_study"},
        "form": {"preset": "kaehler"},
    },
    "round_s4_random": {
        "manifold": {"preset": "round_s4", "r": 1.0},
        "form": {"preset": "random_analytic"},
    },
    "perturbed_t4": {
        "manifold": {"preset": "flat_t4"},
        "grid": {"metric": PERTURBED_T4_METRIC},
    },
    "flat_t4": {
        "manifold": {"preset": "flat_t4"},
        "form": {"preset": "constant"},
        "grid": {},
    },
}

# A job: name, CLI words before --scenario, scenario template, size key
# ("count" = sample points, "n" = lattice size), full size, smoke size, and
# the reference check (a key of CHECKS). Sizes keep a round of each
# workload at 8-13 s on a 2-core x86 box, so a 40 s run makes two to five.
WORKLOADS = {
    "pointwise_batch": [
        ("kato_scan", ["kato", "scan"], "conformal_product", "count", 1024, 16, "kato_scan"),
        ("thm21", ["verify", "thm21"], "conformal_product", "count", 192, 16, "verify"),
        ("conformal_k2", ["verify", "conformal", "--k", "2"], "conformal_product", "count",
         256, 16, "verify"),
        ("weitzenboeck", ["verify", "weitzenboeck"], "round_s4_random", "count", 384, 16,
         "verify"),
    ],
    "normal_frame": [
        ("eq22", ["verify", "eq22"], "cp2_kaehler", "count", 1, 1, "verify"),
        ("lemma22", ["verify", "lemma22"], "conformal_product", "count", 4, 2, "verify"),
        ("curvature", ["curvature"], "cp2_kaehler", "count", 12, 4, "curvature_cp2"),
    ],
    "grid_hodge": [
        # definiteness at n=6: the eigensolver stalls at max_outer there as at n=8
        ("definiteness", ["grid", "definiteness"], "perturbed_t4", "n", 6, 4, "grid_b2"),
        ("integral", ["integral"], "perturbed_t4", "n", 6, 4, "integral_grid"),
        ("harmonic", ["grid", "harmonic"], "flat_t4", "n", 5, 4, "grid_b2"),
    ],
}


class Job:
    def __init__(self, workload, name, words, check, scenario_path):
        self.workload = workload
        self.name = name
        self.words = words
        self.check = check
        self.scenario_path = scenario_path

    def cli_args(self, out_dir):
        return [*self.words, "--scenario", str(self.scenario_path), "--out", str(out_dir)]


def make_jobs(workload, seed, directory, smoke=False):
    """Write one scenario file per job into directory; same seed, same files."""
    rng = random.Random(f"{workload}:{seed}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name, words, template, size_key, size, smoke_size, check in WORKLOADS[workload]:
        size = smoke_size if smoke else size
        raw = copy.deepcopy(SCENARIOS[template])
        raw.update({"schema_version": 1, "id": f"{workload}_{name}"})
        raw["sampling"] = {"count": size if size_key == "count" else 4,
                           "seed": rng.randrange(1 << 31)}
        if raw.get("form", {}).get("preset") == "random_analytic":
            raw["form"]["seed"] = rng.randrange(1 << 31)
        if "grid" in raw:
            raw["grid"]["n"] = size
        path = directory / f"{name}.json"
        path.write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        jobs.append(Job(workload, name, words, check, path))
    return jobs


# -- reference checks: each returns None when the report is right, else why not


def _check_verify(r):
    if r.get("passed") is not True:
        return f"passed={r.get('passed')!r}, max_rel_residual={r.get('max_rel_residual')!r}"
    return None


def _check_kato_scan(r):
    # the shipped conformal product realises the sharp refined-Kato case
    rho = r.get("min_rho")
    if not isinstance(rho, float) or abs(rho - 1.5) > 1e-6:
        return f"min_rho={rho!r}, expected 1.5 +- 1e-6"
    if r.get("classical_kato_ok") is not True or r.get("lemma41_floor_ok") is not True:
        return "classical_kato_ok or lemma41_floor_ok is not true"
    return None


def _check_curvature_cp2(r):
    # Fubini-Study with holomorphic sectional curvature 4: scal = 24, sec in [1, 4]
    scal = r.get("scal_range") or []
    if len(scal) != 2 or any(abs(s - 24.0) > 1e-8 for s in scal):
        return f"scal_range={scal!r}, expected 24 +- 1e-8"
    sec = r.get("sampled_sec_range") or []
    if len(sec) != 2 or sec[0] < 1.0 - 1e-8 or sec[1] > 4.0 + 1e-8:
        return f"sampled_sec_range={sec!r}, expected inside [1, 4]"
    return None


def _check_grid_b2(r):
    # every flat or near-flat 4-torus: b2+ = b2- = 3
    got = {k: r.get(k) for k in ("kernel_dim", "b2_plus", "b2_minus", "signature")}
    if got != {"kernel_dim": 6, "b2_plus": 3, "b2_minus": 3, "signature": 0}:
        return f"{got}, expected kernel_dim 6, b2+ = b2- = 3, signature 0"
    return None


def _check_integral_grid(r):
    keys = ("integral_delta_FG", "integral_8KFG", "integral_remainder")
    vals = [r.get(k) for k in keys]
    if not all(isinstance(v, float) and math.isfinite(v) for v in vals):
        return f"integrals {dict(zip(keys, vals))} are not all finite"
    return None


CHECKS = {
    "verify": _check_verify,
    "kato_scan": _check_kato_scan,
    "curvature_cp2": _check_curvature_cp2,
    "grid_b2": _check_grid_b2,
    "integral_grid": _check_integral_grid,
}

# For the smoke run: one wrong report per check, which the check must reject.
BROKEN_REPORTS = {
    "verify": {"passed": False, "max_rel_residual": 1.0},
    "kato_scan": {"min_rho": 1.4, "classical_kato_ok": True, "lemma41_floor_ok": True},
    "curvature_cp2": {"scal_range": [24.0, 24.0], "sampled_sec_range": [0.5, 4.0]},
    "grid_b2": {"kernel_dim": 6, "b2_plus": 4, "b2_minus": 2, "signature": 2},
    "integral_grid": {"integral_delta_FG": float("nan"), "integral_8KFG": 1.0,
                      "integral_remainder": 1.0},
}


def check_job(job, exit_code, report_bytes):
    """None if the job's exit code and report match the reference, else why not."""
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    if report_bytes is None:
        return "no report.json"
    try:
        report = json.loads(report_bytes)
    except ValueError as e:
        return f"report.json is not JSON: {e}"
    return CHECKS[job.check](report)
