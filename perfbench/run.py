"""curv4 benchmark: workloads of real CLI jobs, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. One run generates the workload's scenario
files from the seed, then repeats rounds of the workload's jobs, one process
at a time, until the next round would end after --seconds (at least two
rounds). Every job's exit code and report.json are checked against a
reference, and report.json must be byte-identical in every round.

--trace 0 prints the end-to-end metrics: per-job medians over the rounds of
set-up time and wall time, summed over the jobs, and the largest peak RSS.
Set-up and wall time are scaled to a fixed machine speed (see PROBE): a
shared 2-core x86 box was seen to change speed by up to 1.7x for minutes at
a time, which no run length averages out. The log lines show the raw times.
--trace 1 alternates untraced rounds with traced rounds (perfbench/child.py
wraps each layer's public functions) and prints the per-layer metrics. The
spans of the traced jobs are kept in
.perfbench_work/spans/<workload>-<seed>/round<i>/<job>.spans.json; all other
scratch files (scenarios, reports, logs) are removed when the run ends.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. --smoke runs every workload at tiny sizes in both modes and checks
metric names, units, BENCHMARK.json and the wiring of the reference checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from workloads import BROKEN_REPORTS, CHECKS, WORKLOADS, check_job, make_jobs

CHILD = Path(__file__).resolve().parent / "child.py"
HARD_LIMIT_S = 165.0  # a run must end well inside 180 s
BLAS_THREADS = 1  # never more than nproc; one core per job keeps timings steady
MUL_FLOPS_JET = 165 + 130  # products + adds per point of a jet x jet product
MUL_FLOPS_SCALAR = 35  # one product per coefficient
# The speed probe: a fresh interpreter importing what curv4's jobs spend most
# of their set-up on. It runs before every job and once after the last; a
# job's times are multiplied by PROBE_REF_S over the mean of the probes on
# either side of it, so they read as seconds on a machine where the probe
# takes PROBE_REF_S (its median on the 2-core x86 box the sizes were set on).
PROBE = "import numpy, scipy.optimize, scipy.sparse, scipy.sparse.linalg"
PROBE_REF_S = 0.65


class Run:
    """One benchmark run of one workload: its jobs, rounds and results."""

    def __init__(self, root, workload, seed, seconds, trace, smoke=False):
        self.seconds = seconds
        self.trace = trace
        self.t_start = time.monotonic()
        self.deadline = self.t_start + HARD_LIMIT_S
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.spans = root / ".perfbench_work" / "spans" / (
            f"smoke-{workload}" if smoke else f"{workload}-{seed}")
        self.jobs = make_jobs(workload, seed, self.work / "scenarios", smoke)
        self.env = child_env(root)
        self.rounds = []  # (mode, {job name: result})
        self.probes = []  # seconds of each speed probe, in the order run
        self.first_report = {}  # job name -> (round, sha256 of report.json)

    def execute(self):
        if self.trace:
            shutil.rmtree(self.spans, ignore_errors=True)  # spans of an earlier run
        subprocess.run([sys.executable, "-c", "import curv4.cli"], env=self.env, check=True,
                       cwd=self.work, timeout=60)  # warm bytecode and file caches
        modes = ["run", "trace"] if self.trace else ["run"]
        took = {}
        while True:
            mode = modes[len(self.rounds) % len(modes)]
            r0 = time.monotonic()
            results = {}
            for job in self.jobs:
                results[job.name] = self.run_job(job, mode, len(self.rounds))
                print(describe(job, mode, len(self.rounds), results[job.name]), flush=True)
            self.rounds.append((mode, results))
            took[mode] = time.monotonic() - r0
            next_mode = modes[len(self.rounds) % len(modes)]
            next_took = took.get(next_mode, took[mode])
            now = time.monotonic()
            if len(self.rounds) >= len(modes) and now + next_took > self.deadline:
                break
            if len(self.rounds) >= 2 and now - self.t_start + next_took > self.seconds:
                break
        self.probe()
        for _, results in self.rounds:
            for r in results.values():
                i = r["probe"]
                r["speed"] = PROBE_REF_S / ((self.probes[i] + self.probes[i + 1]) / 2)

    def probe(self):
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-c", PROBE], env=self.env, check=True, cwd=self.work,
                       timeout=max(1.0, self.deadline - t0))
        self.probes.append(time.monotonic() - t0)

    def run_job(self, job, mode, index):
        rdir = self.work / f"round{index}"
        rdir.mkdir(parents=True, exist_ok=True)
        out = rdir / job.name
        status_path = rdir / f"{job.name}.status.json"
        self.probe()
        with open(rdir / f"{job.name}.log", "wb") as log:
            cmd = [sys.executable, str(CHILD), mode, str(status_path)]
            t0 = time.monotonic()
            if mode == "trace":
                spans = self.spans / f"round{index}" / f"{job.name}.spans.json"
                spans.parent.mkdir(parents=True, exist_ok=True)
                cmd += [str(spans), repr(t0)]
            cmd += ["--", *job.cli_args(out)]
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=rdir)
            watchdog = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            watchdog.start()
            try:
                _, wstatus, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(wstatus)
        status = json.loads(status_path.read_text()) if status_path.is_file() else {}
        report_path = out / "report.json"
        report = report_path.read_bytes() if report_path.is_file() else None
        result = {
            "mode": mode,
            "probe": len(self.probes) - 1,
            "exit": proc.returncode,
            "wall_s": t1 - t0,
            "setup_s": status["setup_done"] - t0 if "setup_done" in status else None,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "shutdown_s": t1 - status["main_end"] if "main_end" in status else 0.0,
            "out_bytes": sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0,
            "status": status,
        }
        result["error"] = check_job(job, proc.returncode, report)
        if result["error"] is None:
            digest = hashlib.sha256(report).hexdigest()
            first = self.first_report.setdefault(job.name, (index, digest))
            if first[1] != digest:
                result["error"] = f"report.json differs from round {first[0]}"
        return result

    def counts(self):
        results = [r for _, rs in self.rounds for r in rs.values()]
        return len(results), sum(r["error"] is not None for r in results)

    def per_job(self, mode):
        """job name -> results of the rounds run in mode."""
        out = {job.name: [] for job in self.jobs}
        for m, rs in self.rounds:
            if m == mode:
                for name, r in rs.items():
                    out[name].append(r)
        return out

    def end_to_end(self):
        runs = self.per_job("run")

        def med(name, key, scaled=True):
            vals = [r[key] * (r["speed"] if scaled else 1.0)
                    for r in runs[name] if r[key] is not None]
            return statistics.median(vals) if vals else 0.0  # only when every round failed

        names = [job.name for job in self.jobs]
        return {
            "setup_s": sum(med(n, "setup_s") for n in names),
            "wall_s": sum(med(n, "wall_s") for n in names),
            "peak_rss_mb": max(med(n, "rss_mb", scaled=False) for n in names),
        }

    def per_layer(self):
        untraced = self.per_job("run")
        traced = self.per_job("trace")
        chosen = []  # per job, the traced round with the median wall time
        for job in self.jobs:
            rs = sorted(traced[job.name], key=lambda r: r["wall_s"])
            chosen.append(rs[(len(rs) - 1) // 2])
        values = layer_values([r["status"] for r in chosen])
        values["cli.report_bytes"] = sum(r["out_bytes"] for r in chosen)
        traced_wall = sum(r["wall_s"] for r in chosen)
        traced_scaled = sum(r["wall_s"] * r["speed"] for r in chosen)
        untraced_scaled = sum(
            statistics.median(r["wall_s"] * r["speed"] for r in untraced[job.name])
            for job in self.jobs)
        covered = sum(r["status"].get("root_s", 0.0) + r["shutdown_s"] for r in chosen)
        values["trace.coverage"] = covered / traced_wall
        values["trace.overhead_frac"] = traced_scaled / untraced_scaled - 1.0
        attempted, failed = self.counts()
        values["failed_frac"] = failed / attempted
        return values

    def result(self, bench):
        """The result line; names and units come from BENCHMARK.json."""
        attempted, failed = self.counts()
        if self.trace:
            values, specs = self.per_layer(), bench["per_layer"]
        else:
            values, specs = self.end_to_end(), bench["end_to_end"]
        if set(values) != {m["name"] for m in specs}:
            raise RuntimeError(f"computed metrics {sorted(values)} do not match "
                               f"BENCHMARK.json {sorted(m['name'] for m in specs)}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    def cleanup(self):
        """Remove the scratch files; the spans stay."""
        shutil.rmtree(self.work, ignore_errors=True)


def layer_values(statuses):
    """Per-layer metrics from the trace status of each job (summed over jobs)."""
    stats, counters, eigensolves = {}, {}, []
    for st in statuses:
        for key, (layer, calls, incl, self_s) in st.get("stats", {}).items():
            acc = stats.setdefault(key, [layer, 0, 0.0, 0.0])
            acc[1] += calls
            acc[2] += incl
            acc[3] += self_s
        for name, value in st.get("counters", {}).items():
            if name == "eigensolves":
                eigensolves += value
            else:
                counters[name] = counters.get(name, 0) + value

    def self_s(layer):
        return sum(v[3] for v in stats.values() if v[0] == layer)

    def calls(*keys):
        return sum(stats[k][1] for k in keys if k in stats)

    def incl(key):
        return stats[key][2] if key in stats else 0.0

    mul_calls = calls("jets.mul")
    jet_pts = counters.get("mul_jet_points", 0)
    scalar_pts = counters.get("mul_scalar_points", 0)
    return {
        "scenario.load_s": self_s("scenario.load"),
        "cli.write_report_s": self_s("cli.write_report"),
        "expr.eval_jet_s": self_s("expr.eval_jet"),
        "expr.eval_jet_calls": calls("expr.eval_jet_env"),
        "expr.symbolic_s": self_s("expr.symbolic"),
        "expr.to_string_calls": calls("expr.to_string"),
        "expr.eval_values_s": self_s("expr.eval_values"),
        "jets.mul_s": self_s("jets.mul"),
        "jets.mul_calls": mul_calls,
        "jets.mul_mean_batch": (jet_pts + scalar_pts) / mul_calls if mul_calls else 0.0,
        "jets.mul_gflops_computed": (jet_pts * MUL_FLOPS_JET + scalar_pts * MUL_FLOPS_SCALAR) / 1e9,
        "jets.compose_s": self_s("jets.compose"),
        "jets.linalg_s": self_s("jets.linalg"),
        "charts.geometry_s": self_s("charts.geometry"),
        "charts.normal_chart_s": self_s("charts.normal_chart"),
        "charts.normal_chart_calls": calls("charts.normal_chart"),
        "forms.ops_s": self_s("forms.ops"),
        "forms.ops_calls": sum(v[1] for v in stats.values() if v[0] == "forms.ops"),
        "canonical.canonicalize_s": self_s("canonical.canonicalize"),
        "canonical.plane_search_s": self_s("canonical.plane_search"),
        "canonical.nelder_mead_starts": calls("canonical.minimize"),
        "verify.kato_scan_s": incl("verify.kato_scan"),
        "verify.thm21_s": incl("verify.thm21"),
        "verify.conformal_s": incl("verify.conformal"),
        "verify.weitzenboeck_s": incl("verify.weitzenboeck"),
        "verify.eq22_s": incl("verify.eq22"),
        "verify.lemma22_s": incl("verify.lemma22"),
        "verify.self_s": self_s("verify"),
        "verify.points": counters.get("verify_points", 0),
        "grid.assemble_s": self_s("grid.assemble"),
        "grid.eigensolver_s": self_s("grid.eigensolver"),
        "grid.eigensolver_outer_iters": calls("grid.block_cg"),
        "grid.eigensolver_rel_resid": max((e[0] for e in eigensolves), default=0.0),
        "grid.eigensolver_converged": int(bool(eigensolves) and all(e[1] for e in eigensolves)),
        "grid.block_cg_s": self_s("grid.block_cg"),
        "grid.block_cg_matvecs": counters.get("block_cg_columns", 0),
        "grid.matvec_s": self_s("grid.matvec"),
        "grid.matvec_gbytes_computed": counters.get("matvec_bytes", 0) / 1e9,
        "grid.cg_single_s": self_s("grid.cg_single"),
        "grid.cg_single_iters": counters.get("cg_single_applies", 0),
        "grid.star_counts_s": self_s("grid.star_counts"),
        "grid.discrete_report_s": self_s("grid.discrete_report"),
        "grid.cell_geometry_s": self_s("grid.cell_geometry"),
    }


def describe(job, mode, index, r):
    setup = "-" if r["setup_s"] is None else f"{r['setup_s']:.3f}"
    verdict = "ok" if r["error"] is None else f"FAILED: {r['error']}"
    return (f"job {job.workload}/{job.name} round {index} {mode}: wall {r['wall_s']:.3f} s, "
            f"setup {setup} s, rss {r['rss_mb']:.1f} MB, exit {r['exit']}, {verdict}")


def child_env(root):
    env = dict(os.environ)
    env.pop("CURV4_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "blas_threads": BLAS_THREADS,
            "curv4_threads": "unset", "job_processes_at_once": 1,
            "speed_probe": PROBE, "speed_probe_ref_s": PROBE_REF_S}


def measure(root, bench, workload, seed, seconds, trace, smoke=False):
    run = Run(root, workload, seed, seconds, trace, smoke)
    try:
        run.execute()
        return run.result(bench)
    finally:
        run.cleanup()


def smoke(root, bench):
    """Every workload at tiny sizes, both modes; returns a list of problems."""
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name, broken in BROKEN_REPORTS.items():
        if CHECKS[name](broken) is None:
            problems.append(f"check {name} accepts a wrong report")
    for workload in WORKLOADS:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            res = measure(root, bench, workload, 1, 1, trace, smoke=True)
            print(json.dumps(res), flush=True)
            where = f"{workload} --trace {trace}"
            if not res["correct"] or res["attempted"] < 2 * len(WORKLOADS[workload]):
                problems.append(f"{where}: correct={res['correct']}, failed={res['failed']}, "
                                f"attempted={res['attempted']}")
            want = [(m["name"], m["unit"]) for m in specs]
            got = [(k, v["unit"]) for k, v in res["metrics"].items()]
            if got != want:
                problems.append(f"{where}: metrics and units {got} != {want}")
            bad = [k for k, v in res["metrics"].items() if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append(f"{where}: non-numeric values for {bad}")
    return problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both modes")
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "curv4" / "cli.py").is_file():
        print(f"error: no curv4 sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("env " + json.dumps(environment()), flush=True)
    if args.smoke:
        problems = smoke(root, bench)
        for line in problems:
            print(f"smoke: {line}", file=sys.stderr)
        print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
        return 1 if problems else 0
    if args.workload is None:
        p.error("--workload is required")
    res = measure(root, bench, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
