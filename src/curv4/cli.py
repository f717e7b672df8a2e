"""Command-line entry point.

Exit codes: 0 all residuals within tolerance, 1 identity violation, a
solver that stopped above its tolerance or a non-finite report value, 2 input
error.  Each run writes report.json (full result, strict JSON) and
samples.csv (per-point table) into --out; reports are byte-deterministic for
a fixed scenario + seed.
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

# the column order of samples.csv and ksweep.csv
CSV_COLUMNS = ["k", "min_lhs49_over_dnorm", "x1", "x2", "x3", "x4", "residual",
               "residual_eq28", "residual_eq29", "residual_eq42", "residual_eq43",
               "residual_eq46", "residual_eq49", "rho", "grad_sq", "dnorm_sq", "norm", "scal", "K", "R1234", "F", "G",
               "lhs49_over_dnorm", "schwarz_combo", "schwarz_floor",
               "premise_rho_ge_2", "degenerate"]

# `verify IDENTITY` -> the verify function that checks it, called as
# fn(chart, fld, pts[, k], scenario=..., tols=...)
VERIFIERS = {"weitzenboeck": "verify_weitzenboeck", "eq22": "verify_component_bochner",
             "lemma22": "verify_lemma22", "prop23": "verify_prop23",
             "thm21": "verify_theorem21", "conformal": "verify_conformal_chain"}


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
    ver.add_argument("identity", choices=list(VERIFIERS))
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
    for what, names in (("manifold", scenario.MANIFOLD_PRESETS), ("form", scenario.FORM_PRESETS)):
        print(f"{what} presets:")
        for name in filter(None, names):
            print(f"  {name}")
    return 0


def _load(args):
    return scenario.load(args.scenario)


class ReportError(Curv4Error):
    """A report value that strict JSON cannot hold (NaN or infinity)."""

    exit_code = 1


def _write_report(args, report, samples=None, csv_name="samples.csv"):
    """Write report.json, then the per-point columns `samples` to csv_name; a
    non-finite report value raises ReportError before any file is opened."""
    bad = _non_finite(report)
    if bad:
        raise ReportError(f"report value {bad[0]} is {bad[1]!r}, not a finite number")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_encode(report, 0))
        fh.write("\n")
    if samples is not None:
        _write_csv(out / csv_name, samples)
    return path


def _encode(obj, depth):
    """json.dumps(obj, sort_keys=True, indent=2) at nesting `depth`, in pieces.
    json's indent encoder is pure Python, so each list of floats goes whole to
    its C encoder, with the indent's newline and padding as item separator; an
    array is written as its .tolist(), one row at a time."""
    pad = "\n" + "  " * (depth + 1)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist() if obj.ndim < 2 else list(obj)
    if isinstance(obj, dict) and obj:
        brackets, items = "{}", [(pad + json.dumps(k) + ": ", v) for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) == {float}:
            yield "[" + pad + json.dumps(obj, separators=("," + pad, ": "))[1:-1] + pad[:-2] + "]"
            return
        brackets, items = "[]", [(pad, v) for v in obj]
    else:
        yield json.dumps(obj)
        return
    for i, (key, value) in enumerate(items):
        yield ("," if i else brackets[0]) + key
        yield from _encode(value, depth + 1)
    yield pad[:-2] + brackets[1]


def _non_finite(obj, path=""):
    """Key path and value of the first non-finite float of a report, in
    sort_keys order, or None."""
    if isinstance(obj, float):
        return None if np.isfinite(obj) else (path, obj)
    if isinstance(obj, np.ndarray):
        bad = np.argwhere(~np.isfinite(obj))
        if len(bad) == 0:
            return None
        return path + "".join(f"[{i}]" for i in bad[0]), float(obj[tuple(bad[0])])
    items = sorted(obj.items()) if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, (list, tuple)) else ()
    for key, value in items:
        found = _non_finite(value, f"{path}[{key}]" if isinstance(key, int) else
                            f"{path}.{key}" if path else key)
        if found:
            return found
    return None


def _write_csv(path, columns):
    """Write the columns (name -> per-row values) in CSV_COLUMNS order: floats
    as their repr, NaN and None as empty cells, flags as 0/1."""
    import csv

    names = [c for c in CSV_COLUMNS if c in columns]
    cells = []
    for name in names:
        a = np.asarray(columns[name])
        if a.dtype == bool:
            cells.append(a.astype(int).tolist())
            continue
        # the repr of the list is the repr of each float, in one call
        text = repr(a.tolist())[1:-1].split(", ") if a.size else []
        cells.append(["" if v in ("nan", "None") else v for v in text])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(zip(*cells))


def _scenario_meta(sc):
    return {"scenario_id": sc.id, "seed": sc.seed, "schema_version": scenario.SCHEMA_VERSION}


def _cmd_curvature(args):
    from . import canonical
    from .charts import PLANES, curvature_at, map_chunks, normals, wedge

    sc = _load(args)
    chart = sc.build_chart()
    pts = sc.points(chart)
    u, v = normals(sc.seed, PLANES, (2, 64, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v -= np.einsum("mi,mi->m", u, v)[:, None] * u
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    w = wedge(u, v).T  # (6, 64) 2-vectors of the orthonormal planes

    def chunk(p):  # scal and the extreme sampled sectional curvatures
        slate = curvature_at(chart, p)
        secs = np.sum(w * (slate.M @ w), axis=-2)
        return slate.scal, np.min(secs), np.max(secs)

    scal, lo, hi = zip(*map_chunks(chunk, pts))
    scal = np.concatenate(scal)
    stats = canonical.global_curvature_stats(chart, samples=min(sc.count, 48),
                                             seed=sc.seed)
    report = {
        **_scenario_meta(sc),
        "command": "curvature",
        "chart": chart.name,
        "scal_range": [float(np.min(scal)), float(np.max(scal))],
        "sampled_sec_range": [float(np.min(lo)), float(np.max(hi))],
        "global_stats": stats,
        "sign_conventions": SIGN_CONVENTIONS,
    }
    samples = {"x1": pts[:, 0], "x2": pts[:, 1], "x3": pts[:, 2], "x4": pts[:, 3],
               "scal": scal}
    _write_report(args, report, samples)
    return 0


def _cmd_verify(args):
    from . import verify

    sc = _load(args)
    chart = sc.build_chart()
    fld = sc.build_field(chart)
    pts = sc.points(chart)
    k = (_finite_k(args.k),) if args.identity == "conformal" else ()
    rep = getattr(verify, VERIFIERS[args.identity])(chart, fld, pts, *k, scenario=sc.id,
                                                    tols=sc.tols)
    report = {**_scenario_meta(sc), "command": f"verify {args.identity}",
              **rep.to_dict()}
    _write_report(args, report, rep.samples)
    return 0 if rep.passed else 1


def _finite_k(k):
    """k, or InputError naming --k unless it is a finite number."""
    if not np.isfinite(k):
        raise InputError(f"--k must be a finite number, not {k!r}")
    return k


def _cmd_kato(args):
    from . import verify

    sc = _load(args)
    chart = sc.build_chart()
    fld = sc.build_field(chart)
    pts = sc.points(chart)
    if args.mode == "scan":
        scan = verify.kato_scan(chart, fld, pts, scenario=sc.id, tols=sc.tols)
        samples = scan.pop("samples")
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
    ks = [_finite_k(k) for k in ks]
    rows = [{"k": k, "min_lhs49_over_dnorm": rep.extra["min_lhs49_over_dnorm"],
             "residual_eq49": rep.extra["max_residual_eq49"]}
            for k, rep in zip(ks, verify.conformal_sweep(chart, fld, pts, ks, scenario=sc.id,
                                                         tols=sc.tols))]
    worst = max(0.0, *(row["residual_eq49"] for row in rows))
    # the ratio is None where |d|phi|| vanishes at every point (a parallel form),
    # as in `kato scan`'s empty_scan; the residuals still decide the exit code
    empty = any(row["min_lhs49_over_dnorm"] is None for row in rows)
    report = {**_scenario_meta(sc), "command": "kato ksweep", "rows": rows,
              "max_residual_eq49": worst,
              "tolerance": sc.tols["conformal"],
              "passed": bool(worst <= sc.tols["conformal"]),
              "monotone_growth_from_k1": None if empty else bool(
                  all(rows[i]["min_lhs49_over_dnorm"] <= rows[i + 1]["min_lhs49_over_dnorm"]
                      for i in range(len(rows) - 1)
                      if rows[i]["k"] >= 1.0)),
              "sign_conventions": SIGN_CONVENTIONS}
    if empty:
        report["empty_scan"] = EMPTY_SCAN
    _write_report(args, report, {c: [row[c] for row in rows]
                                 for c in ("k", "min_lhs49_over_dnorm", "residual_eq49")},
                  "ksweep.csv")
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
        report["basis"] = basis.vectors.T
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
        rep = grid.discrete_eq23_report(fieldd, tols=sc.tols)
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
            scenario=sc.id, margin=sc.margin, tols=sc.tols)
        report = {**_scenario_meta(sc), "command": "integral (analytic)", **rep}
    _write_report(args, report)
    return 0 if report.get("passed", True) else 1  # the grid report has no verdict yet


if __name__ == "__main__":
    sys.exit(main())
