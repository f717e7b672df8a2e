"""Command-line entry point.

Exit codes: 0 all residuals within tolerance, 1 identity violation or a
solver that stopped above its tolerance, 2 input error.  Each run writes
report.json (full result) and samples.csv (per-point table) into --out;
reports are byte-deterministic for a fixed scenario + seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

import numpy as np

from . import Curv4Error, InputError, scenario
from .forms import EMPTY_SCAN, SIGN_CONVENTIONS

CSV_COLUMNS = ["x1", "x2", "x3", "x4", "residual", "residual_eq28", "residual_eq29",
               "residual_eq42", "residual_eq43", "residual_eq46", "residual_eq49",
               "rho", "grad_sq", "dnorm_sq", "norm", "scal", "K", "R1234", "F", "G",
               "lhs49_over_dnorm", "schwarz_combo", "schwarz_floor",
               "premise_rho_ge_2", "degenerate"]


def main(argv=None):
    gc.freeze()  # import-time objects live to exit: no collection or teardown scans them
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.run(args)
    except Curv4Error as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


def _build_parser():
    p = argparse.ArgumentParser(prog="curv4",
                                description="Curvature identity lab for harmonic "
                                            "2-forms on Riemannian 4-manifolds")
    p.set_defaults(command=None)
    sub = p.add_subparsers(dest="command")

    pres = sub.add_parser("presets", help="preset registry")
    pres_sub = pres.add_subparsers(dest="presets_command", required=True)
    pres_list = pres_sub.add_parser("list", help="list manifold and form presets")
    pres_list.set_defaults(run=_cmd_presets_list)

    def scen_parser(name, help_):
        q = sub.add_parser(name, help=help_)
        q.add_argument("--scenario", required=True, help="scenario JSON file")
        q.add_argument("--out", default=".", help="output directory (default: .)")
        return q

    curv = scen_parser("curvature", "curvature slate and global curvature stats")
    curv.set_defaults(run=_cmd_curvature)

    ver = sub.add_parser("verify", help="verify one identity on a scenario")
    ver.add_argument("identity", choices=["weitzenboeck", "eq22", "lemma22",
                                          "prop23", "thm21", "conformal"])
    ver.add_argument("--scenario", required=True)
    ver.add_argument("--out", default=".")
    ver.add_argument("--k", type=float, default=1.0,
                     help="conformal exponent for 'conformal' (exp(2f) = |phi|^k)")
    ver.set_defaults(run=_cmd_verify)

    kato = sub.add_parser("kato", help="Kato ratio scans")
    kato.add_argument("mode", choices=["scan", "ksweep"])
    kato.add_argument("--scenario", required=True)
    kato.add_argument("--out", default=".")
    kato.add_argument("--k", default="0,0.5,1,2,4,8",
                      help="comma-separated k list for ksweep")
    kato.set_defaults(run=_cmd_kato)

    gr = sub.add_parser("grid", help="discrete Hodge theory on a periodic lattice")
    gr.add_argument("mode", choices=["harmonic", "definiteness"])
    gr.add_argument("--scenario", required=True)
    gr.add_argument("--out", default=".")
    gr.set_defaults(run=_cmd_grid)

    integ = scen_parser("integral", "integral identity mechanism")
    integ.set_defaults(run=_cmd_integral)
    return p


def _cmd_presets_list(args):
    from . import presets

    print("manifold presets:")
    for name in presets.PRESET_NAMES:
        print(f"  {name}")
    print("form presets:")
    for name in presets.FORM_PRESET_NAMES + ("zero",):
        print(f"  {name}")
    return 0


def _load(args):
    return scenario.load(args.scenario)


def _write_report(args, report, samples=None):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2, allow_nan=True)
        fh.write("\n")
    if samples is not None:
        _write_csv(out / "samples.csv", samples)
    return path


def _write_csv(path, samples):
    import csv

    present = set().union(*samples)
    cols = [c for c in CSV_COLUMNS if c in present]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        writer.writerows([_csv_value(row.get(c)) for c in cols] for row in samples)


def _csv_value(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, float) and v != v:  # NaN
        return ""
    return repr(v) if isinstance(v, float) else v


def _scenario_meta(sc):
    return {"scenario_id": sc.id, "seed": sc.seed, "schema_version": scenario.SCHEMA_VERSION}


def _cmd_curvature(args):
    from . import canonical
    from .charts import curvature_at

    sc = _load(args)
    chart = sc.build_chart()
    pts = sc.points(chart)
    slate = curvature_at(chart, pts)
    rng = np.random.default_rng(sc.seed)
    u = rng.standard_normal((64, 4))
    v = rng.standard_normal((64, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v -= np.einsum("mi,mi->m", u, v)[:, None] * u
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    secs = np.einsum("nijkl,mi,mj,mk,ml->nm", slate.R, u, v, u, v, optimize=True)
    stats = canonical.global_curvature_stats(chart, samples=min(sc.count, 48),
                                             seed=sc.seed)
    report = {
        **_scenario_meta(sc),
        "command": "curvature",
        "chart": chart.name,
        "scal_range": [float(np.min(slate.scal)), float(np.max(slate.scal))],
        "sampled_sec_range": [float(np.min(secs)), float(np.max(secs))],
        "global_stats": stats,
        "sign_conventions": SIGN_CONVENTIONS,
    }
    samples = [{"x1": float(p[0]), "x2": float(p[1]), "x3": float(p[2]),
                "x4": float(p[3]), "scal": float(slate.scal[n])}
               for n, p in enumerate(pts)]
    _write_report(args, report, samples)
    return 0


def _cmd_verify(args):
    from . import verify

    sc = _load(args)
    chart = sc.build_chart()
    fld = sc.build_field(chart)
    pts = sc.points(chart)
    common = dict(scenario=sc.id, harmonicity_tol=sc.tolerance("harmonicity"))
    if args.identity == "weitzenboeck":
        rep = verify.verify_weitzenboeck(chart, fld, pts, tol=sc.tolerance("weitzenboeck"),
                                         scenario=sc.id)
    elif args.identity == "eq22":
        rep = verify.verify_component_bochner(chart, fld, pts, tol=sc.tolerance("eq22"),
                                              gamma_tol=sc.tolerance("normal_gamma"),
                                              **common)
    elif args.identity == "lemma22":
        rep = verify.verify_lemma22(chart, fld, pts, tol=sc.tolerance("lemma22"),
                                    gamma_tol=sc.tolerance("normal_gamma"), **common)
    elif args.identity == "prop23":
        rep = verify.verify_prop23(chart, fld, pts, tol=sc.tolerance("prop23"), **common)
    elif args.identity == "thm21":
        rep = verify.verify_theorem21(chart, fld, pts, tol=sc.tolerance("thm21"), **common)
    else:
        rep = verify.verify_conformal_chain(chart, fld, pts, args.k,
                                            tol=sc.tolerance("conformal"), **common)
    report = {**_scenario_meta(sc), "command": f"verify {args.identity}",
              **rep.to_dict()}
    _write_report(args, report, rep.samples)
    return 0 if rep.passed else 1


def _cmd_kato(args):
    import csv

    from . import verify

    sc = _load(args)
    chart = sc.build_chart()
    fld = sc.build_field(chart)
    pts = sc.points(chart)
    if args.mode == "scan":
        scan = verify.kato_scan(chart, fld, pts, scenario=sc.id,
                                harmonicity_tol=sc.tolerance("harmonicity"))
        samples = scan.pop("samples", [])
        report = {**_scenario_meta(sc), "command": "kato scan", **scan}
        _write_report(args, report, samples)
        if scan.get("min_rho") is not None and not (
                scan["classical_kato_ok"] and scan["lemma41_floor_ok"]):
            return 1  # a refined-Kato violation on a harmonic form is a pipeline bug
        return 0
    try:
        ks = [float(x) for x in args.k.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"bad k list {args.k!r}") from None
    if not ks:
        raise InputError("empty k list")
    rows = []
    worst = 0.0
    for k in ks:
        rep = verify.verify_conformal_chain(chart, fld, pts, k, scenario=sc.id,
                                            tol=sc.tolerance("conformal"),
                                            harmonicity_tol=sc.tolerance("harmonicity"))
        rows.append({"k": k, "min_lhs49_over_dnorm": rep.extra["min_lhs49_over_dnorm"],
                     "residual_eq49": rep.extra["max_residual_eq49"]})
        worst = max(worst, rep.extra["max_residual_eq49"])
    # the ratio is None where |d|phi|| vanishes at every point (a parallel form),
    # as in `kato scan`'s empty_scan; the residuals still decide the exit code
    empty = any(row["min_lhs49_over_dnorm"] is None for row in rows)
    report = {**_scenario_meta(sc), "command": "kato ksweep", "rows": rows,
              "max_residual_eq49": worst,
              "tolerance": sc.tolerance("conformal"),
              "passed": bool(worst <= sc.tolerance("conformal")),
              "monotone_growth_from_k1": None if empty else bool(
                  all(rows[i]["min_lhs49_over_dnorm"] <= rows[i + 1]["min_lhs49_over_dnorm"]
                      for i in range(len(rows) - 1)
                      if rows[i]["k"] >= 1.0)),
              "sign_conventions": SIGN_CONVENTIONS}
    if empty:
        report["empty_scan"] = EMPTY_SCAN
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "ksweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "min_lhs49_over_dnorm", "residual_eq49"])
        for row in rows:
            writer.writerow([_csv_value(row["k"]), _csv_value(row["min_lhs49_over_dnorm"]),
                             _csv_value(row["residual_eq49"])])
    _write_report(args, report)
    return 0 if report["passed"] else 1


def _cmd_grid(args):
    from . import grid
    sc = _load(args)
    chart = sc.grid_chart()
    cx = grid.assemble(chart, sc.grid_n)
    basis = grid.harmonic_kernel(cx)
    rep = grid.definiteness_report(basis)
    report = {**_scenario_meta(sc), "command": f"grid {args.mode}", "n": sc.grid_n,
              "h": cx.h, **rep, "sign_conventions": SIGN_CONVENTIONS}
    if args.mode == "harmonic":
        report["face_ordering"] = ("axis-pair lexicographic (12,13,14,23,24,34), "
                                   "then lattice index row-major")
        report["basis"] = [[float(x) for x in basis.vectors[:, m]]
                           for m in range(basis.vectors.shape[1])]
    _write_report(args, report)
    return 0


def _cmd_integral(args):
    sc = _load(args)
    if sc.grid is not None:
        from . import grid
        chart = sc.grid_chart()
        cx = grid.assemble(chart, sc.grid_n)
        phi, delta_res, cg = grid.harmonic_representative(cx, (0, 1))
        fieldd = grid.discrete_field_export(cx, phi)
        rep = grid.discrete_eq23_report(fieldd)
        rep["representative_delta_residual"] = delta_res
        rep.update(cg)
        report = {**_scenario_meta(sc), "command": "integral (grid)", **rep,
                  "sign_conventions": SIGN_CONVENTIONS}
    else:
        from . import verify

        chart = sc.build_chart()
        fld = sc.build_field(chart)
        rep = verify.integral_identity_analytic(
            chart, fld, n_per_axis=max(6, int(round(sc.count ** 0.25)) + 6),
            scenario=sc.id, margin=sc.margin,
            harmonicity_tol=sc.tolerance("harmonicity"))
        report = {**_scenario_meta(sc), "command": "integral (analytic)", **rep}
    _write_report(args, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
