"""One benchmark job in its own process.

    python3 perfbench/child.py run   STATUS -- <curv4 CLI arguments>
    python3 perfbench/child.py trace STATUS SPANS SPAWNED -- <curv4 CLI arguments>

`run` executes `curv4.cli.main` on the arguments, as `python -m curv4.cli`
does, and only notes when set-up ended: the last return of
Scenario.build_chart, build_field or grid_chart. `trace` also wraps the
public functions of every curv4 module (see `install`), keeps spans in
memory and writes them to SPANS when the job ends; SPAWNED is the parent's
time.monotonic() just before it started this process, so interpreter
start-up counts as a span too. Both write a JSON status to STATUS on exit;
its `main_end` lets the parent time interpreter shut-down, from the return
of the CLI to the process exit. Nothing under src/ is changed; the wrappers are set on
the imported modules and classes from here.
"""

from __future__ import annotations

import time

T_FIRST = time.monotonic()  # before any other import

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402


class Tracer:
    """Timing wrappers sharing one explicit call stack.

    A wrapped call pushes a frame [key, start, child_time, span_id]. On return
    its duration goes to the key's inclusive time, the duration minus the time
    of its wrapped children to the key's self time, and the duration to the
    parent frame's child time. Keys made with span=True also record
    (id, parent id, key, start, end); hot keys keep only the aggregates.
    Single-threaded: the benchmark leaves CURV4_THREADS unset.
    """

    def __init__(self):
        self.stack = []
        self.stats = {}  # key -> [layer, calls, inclusive_s, self_s]
        self.spans = []
        self.counters = {}
        self.root_s = 0.0
        self.next_id = 0

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, key, layer, fn, span=True, recursive=False, before=None, after=None):
        """Wrapper of fn timed under key.

        recursive=True records only the outermost call: while it runs, fn's
        own module name points back at fn, so the recursion inside costs
        nothing extra.
        """
        stats = self.stats.setdefault(key, [layer, 0, 0.0, 0.0])
        stack, spans, clock, tracer = self.stack, self.spans, time.monotonic, self
        home = fn.__globals__ if recursive else None

        def wrapper(*args, **kwargs):
            if home is not None:
                home[fn.__name__] = fn
            if before is not None:
                args, kwargs = before(args, kwargs)
            if span:
                sid = tracer.next_id
                tracer.next_id += 1
            else:
                sid = stack[-1][3] if stack else None
            frame = [key, 0.0, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if home is not None:
                    home[fn.__name__] = wrapper
                dur = t1 - t0
                stats[1] += 1
                stats[2] += dur
                stats[3] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                    parent = stack[-1][3]
                else:
                    tracer.root_s += dur
                    parent = None
                if span:
                    spans.append((sid, parent, key, t0, t1))
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def root_span(self, key, t0, t1):
        """Record a finished top-level span timed by the caller."""
        self.stats[key] = [key, 1, t1 - t0, t1 - t0]
        self.spans.append((self.next_id, None, key, t0, t1))
        self.next_id += 1
        self.root_s += t1 - t0


def install(tracer):
    """Wrap the entry points of each curv4 layer.

    A function is replaced in every curv4 module that holds it, so names
    imported with `from x import f` are wrapped where they were imported as
    well as at their source.
    """
    from curv4 import canonical, charts, cli, expr, forms, grid, jets, scenario, verify

    modules = [m for name, m in list(sys.modules.items())
               if isinstance(m, types.ModuleType) and name.split(".")[0] == "curv4"]

    def patch(fn, key, layer, **kw):
        w = tracer.wrap(key, layer, fn, **kw)
        for m in modules:
            for name, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, name, w)

    def patch_method(cls, name, key, layer, **kw):
        raw = cls.__dict__[name]
        if isinstance(raw, property):
            setattr(cls, name, property(tracer.wrap(key, layer, raw.fget, **kw)))
        elif isinstance(raw, staticmethod):
            setattr(cls, name, staticmethod(tracer.wrap(key, layer, raw.__func__, **kw)))
        else:
            setattr(cls, name, tracer.wrap(key, layer, raw, **kw))

    patch(scenario.load, "scenario.load", "scenario.load")
    for name in ("build_chart", "build_field", "grid_chart", "points"):
        patch_method(scenario.Scenario, name, f"scenario.{name}", "scenario.load")
    patch(cli._write_report, "cli.write_report", "cli.write_report")

    # expr: evaluation, and the symbolic helpers (hot and recursive)
    patch(expr.eval_jet, "expr.eval_jet", "expr.eval_jet")
    patch(expr.eval_jet_env, "expr.eval_jet_env", "expr.eval_jet")
    patch(expr.eval_values, "expr.eval_values", "expr.eval_values")
    for name in ("substitute", "constant_value", "to_string"):
        patch(getattr(expr, name), f"expr.{name}", "expr.symbolic", span=False, recursive=True)
    for name in ("add", "sub", "mul", "num", "_fold"):
        patch(getattr(expr, name), f"expr.{name}", "expr.symbolic", span=False)

    # jets: mul is one function under two names, __mul__ and __rmul__
    def count_mul(args, kwargs, result):
        points = result.c.size // jets.NCOEFF
        tracer.count("mul_jet_points" if isinstance(args[1], jets.Jet3) else "mul_scalar_points",
                     points)

    mul = tracer.wrap("jets.mul", "jets.mul", jets.Jet3.__dict__["__mul__"], span=False,
                      after=count_mul)
    jets.Jet3.__mul__ = mul
    jets.Jet3.__rmul__ = mul
    patch_method(jets.Jet3, "_compose", "jets.compose", "jets.compose", span=False)
    for name in ("mat_inverse", "det4"):
        patch(getattr(jets, name), f"jets.{name}", "jets.linalg")

    # charts: Geometry (properties through fget) and normal charts
    for name, raw in list(vars(charts.Geometry).items()):
        if isinstance(raw, property) or name in ("of_chart", "frame_jets"):
            patch_method(charts.Geometry, name, f"charts.Geometry.{name}", "charts.geometry")
    for name in ("metric_jets", "metric_jets_env", "curvature_at"):
        patch(getattr(charts, name), f"charts.{name}", "charts.geometry")
    for name in ("normal_chart", "normal_chart_map", "pullback_two_form"):
        patch(getattr(charts, name), f"charts.{name}", "charts.normal_chart")

    # forms: the public operators, plus _full_jets which verify calls
    for name, fn in list(vars(forms).items()):
        if (isinstance(fn, types.FunctionType) and fn.__module__ == forms.__name__
                and (not name.startswith("_") or name == "_full_jets")):
            patch(fn, f"forms.{name}", "forms.ops")
    patch_method(forms.TwoFormField, "component_jets", "forms.component_jets", "forms.ops")

    patch(canonical.canonicalize, "canonical.canonicalize", "canonical.canonicalize")
    patch(canonical.curvature_term_K, "canonical.curvature_term_K", "canonical.canonicalize")
    patch(canonical.global_curvature_stats, "canonical.global_curvature_stats",
          "canonical.plane_search")
    patch(canonical.plane_minimum, "canonical.plane_minimum", "canonical.plane_search")
    patch(canonical.minimize, "canonical.minimize", "canonical.plane_search")

    def count_points(args, kwargs):
        tracer.count("verify_points", len(args[2]))
        return args, kwargs

    for name, key in (("verify_weitzenboeck", "weitzenboeck"), ("verify_component_bochner", "eq22"),
                      ("verify_lemma22", "lemma22"), ("verify_theorem21", "thm21"),
                      ("verify_conformal_chain", "conformal"), ("kato_scan", "kato_scan")):
        patch(getattr(verify, name), f"verify.{key}", "verify", before=count_points)

    _install_grid(tracer, grid, patch, patch_method)


def _install_grid(tracer, grid, patch, patch_method):
    import inspect

    def product_bytes(d):
        # one sparse product reads each stored value, its column index and
        # the vector entry it multiplies
        return d.nnz * (d.data.itemsize + d.indices.itemsize + 8)

    state = {"bytes_per_col": 0}

    def sym2_complex(args, kwargs):
        d1, d2 = args[0].d[1], args[0].d[2]
        state["bytes_per_col"] = 2 * (product_bytes(d1) + product_bytes(d2))
        return args, kwargs

    def laplace1_complex(args, kwargs):
        state["bytes_per_col"] = 2 * product_bytes(args[0].d[1])
        return args, kwargs

    def counted_apply(counter):
        def before(args, kwargs):
            apply_A = args[0]
            per_col = state["bytes_per_col"]

            def count(a, kw):
                cols = 1 if a[0].ndim == 1 else a[0].shape[1]
                tracer.count(counter, cols)
                tracer.count("matvec_bytes", cols * per_col)
                return a, kw

            timed = tracer.wrap("grid.matvec", "grid.matvec", apply_A, span=False, before=count)
            return (timed,) + tuple(args[1:]), kwargs
        return before

    tol_default = inspect.signature(grid.smallest_eigenpairs).parameters["tol"].default

    def eigen_result(args, kwargs, result):
        _, X, lam_max, resid = result
        wanted = max(X.shape[1] - 2, 1)
        rel = float(max(resid[:wanted])) / max(float(lam_max), 1e-300)
        tracer.counters.setdefault("eigensolves", []).append(
            [rel, bool(rel <= kwargs.get("tol", tol_default))])

    patch(grid.assemble, "grid.assemble", "grid.assemble")
    patch(grid.smallest_eigenpairs, "grid.smallest_eigenpairs", "grid.eigensolver",
          before=sym2_complex, after=eigen_result)
    patch(grid.harmonic_kernel, "grid.harmonic_kernel", "grid.eigensolver")
    patch(grid.block_cg, "grid.block_cg", "grid.block_cg",
          before=counted_apply("block_cg_columns"))
    patch(grid.harmonic_representative, "grid.harmonic_representative", "grid.cg_single",
          before=laplace1_complex)
    patch(grid._cg_single, "grid._cg_single", "grid.cg_single",
          before=counted_apply("cg_single_applies"))
    patch(grid._star_counts, "grid._star_counts", "grid.star_counts")
    patch(grid.definiteness_report, "grid.definiteness_report", "grid.star_counts")
    for name in ("discrete_eq23_report", "discrete_field_export"):
        patch(getattr(grid, name), f"grid.{name}", "grid.discrete_report")
    patch_method(grid._CellGeometry, "__init__", "grid._CellGeometry", "grid.cell_geometry")


def _mark_setup(status):
    """Note the return time of the scenario's chart and field builders."""
    from curv4 import scenario

    for name in ("build_chart", "build_field", "grid_chart"):
        fn = getattr(scenario.Scenario, name)

        def marked(*args, _fn=fn, **kwargs):
            result = _fn(*args, **kwargs)
            status["setup_done"] = time.monotonic()
            return result

        setattr(scenario.Scenario, name, functools.update_wrapper(marked, fn))


def main(argv):
    mode = argv[0]
    sep = argv.index("--")
    paths, cli_args = argv[1:sep], argv[sep + 1:]
    status = {"mode": mode}
    tracer = Tracer() if mode == "trace" else None
    try:
        if tracer is not None:
            tracer.root_span("startup.interpreter", float(paths[2]), T_FIRST)
            tracer.wrap("startup.import", "startup.import", __import__)("curv4.cli")
            install(tracer)
        import curv4.cli

        _mark_setup(status)
        return curv4.cli.main(cli_args)
    finally:
        status["main_end"] = time.monotonic()
        if tracer is not None:
            status["stats"] = tracer.stats
            status["counters"] = tracer.counters
            status["root_s"] = tracer.root_s
            status["spans"] = len(tracer.spans)
            _write_spans(paths[1], tracer.spans)
        with open(paths[0], "w", encoding="utf-8") as fh:
            json.dump(status, fh)


def _write_spans(path, spans):
    keys = sorted({s[2] for s in spans})
    index = {k: i for i, k in enumerate(keys)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "key", "start_s", "end_s"], "keys": keys,
                   "spans": [[s[0], s[1], index[s[2]], s[3], s[4]] for s in spans]}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
