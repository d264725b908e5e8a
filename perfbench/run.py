"""ellgenus benchmark: one workload, one run, every metric with its unit.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing needs installing).  Workloads:

basis_cli     CLI ``basis --machine`` at (N, degree) = (12, 6), (7, 8), (9, 8),
              (12, 8); a fresh interpreter per job, so caches start cold.
reduce_batch  104 seeded ``reduce_Uq`` / ``reduce_Wtilde`` calls in one process,
              on bases built once in set-up (see reduce_batch.py).

Each workload is a closed loop: one client, one job at a time.  Whole passes
over the job list repeat until S seconds have gone (at least one pass), on
alternating CPUs, and each job's time is its fastest pass.  Set-up is sampled
several times per run, also on alternating CPUs, and reported as its fastest
sample.
Every job's output is checked -- CLI outputs against the digests in
reference.json plus their rank certificates,
reductions against their known verdicts and decompositions -- and the
checking time is left out of every timed metric.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
it reports the per-layer metrics of a traced pass (see layertrace.py).  A
traced run alternates two untraced and two traced passes on one CPU; the
overhead ratio compares the fastest pass of each kind.  The line before it records the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASIS_JOBS = ((12, 6), (7, 8), (9, 8), (12, 8))
CLI_SETUP_PROBES = 9  # fresh interpreters importing ellgenus.cli, per basis_cli run
REDUCE_SETUPS = 4  # reduce_batch set-ups, each in a fresh process, per run
TRACE_PAIRS = 2  # untraced + traced pass pairs in a traced run
DEADLINE_S = 170.0  # the whole run, set-up included, must end before 180 s
ALL_CPUS = tuple(sorted(os.sched_getaffinity(0)))

sys.path.insert(0, str(HERE))
from layertrace import merge  # noqa: E402

# (metric, unit, span, field): field 0 = calls, 1 = inclusive s, 2 = self s
SPAN_METRICS = (
    ("genus.phi_series_s", "s", "genus.phi_series", 1),
    ("genus.multiplicative_class_s", "s", "genus.multiplicative_class", 1),
    ("genus.genus_s", "s", "genus.genus", 1),
    ("series.XQSeries.mul_self_s", "s", "series.XQSeries.__mul__", 2),
    ("series.XQSeries.inv_self_s", "s", "series.XQSeries.inv", 2),
    ("series.XQSeries.log_self_s", "s", "series.XQSeries.log", 2),
    ("series.QSeries.mul_calls", "count", "series.QSeries.__mul__", 0),
    ("series.QSeries.mul_self_s", "s", "series.QSeries.__mul__", 2),
    ("modforms.weight_basis_s", "s", "modforms.weight_basis", 1),
    ("modforms.eisenstein_candidates_s", "s", "modforms.eisenstein_candidates", 1),
    ("modforms.is_in_span_s", "s", "modforms.is_in_span", 1),
    ("linalg.rref_s", "s", "linalg.rref", 1),
    ("linalg.eliminate_s", "s", "linalg.eliminate", 1),
    ("linalg.eliminate_calls", "count", "linalg.eliminate", 0),
    ("reduce.reduce_Uq_s", "s", "reduce.reduce_Uq", 1),
    ("reduce.reduce_Uq_self_s", "s", "reduce.reduce_Uq", 2),
    ("reduce.reduce_Wtilde_s", "s", "reduce.reduce_Wtilde", 1),
    ("cyclo.mul_calls", "count", "cyclo.Cyclo.__mul__", 0),
    ("cyclo.mul_self_s", "s", "cyclo.Cyclo.__mul__", 2),
    ("cyclo.inv_calls", "count", "cyclo.Cyclo.inv", 0),
    ("cyclo.descend_calls", "count", "cyclo.descend", 0),
    ("cyclo.descend_s", "s", "cyclo.descend", 1),
    ("cyclo.reduce_mod_NZ_s", "s", "cyclo.reduce_mod_NZ", 1),
)


class Job(NamedTuple):
    """One CLI invocation; its output must match the reference digest and check_basis."""

    id: str
    argv: list[str]


def check_basis(doc: dict) -> str | None:
    cert = doc.get("certificate", {})
    if doc.get("command") != "basis" or cert.get("rank") != cert.get("dimension") \
            or len(doc.get("elements", ())) != cert.get("dimension"):
        return "basis rank differs from the dimension"
    return None


def basis_jobs() -> list[Job]:
    return [
        Job(f"basis-N{n}-d{d}", ["--level", str(n), "--degree", str(d), "--machine", "basis"])
        for n, d in BASIS_JOBS
    ]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_child(cmd: list[str], deadline: float, **kw) -> tuple[float, float, int]:
    """Run cmd to completion; returns (wall_s, user+system cpu_s, exit code).

    The wait blocks in waitpid (a timeout would make Popen.wait poll in
    sleeps of up to 50 ms); a timer kills the child at the deadline instead.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, **kw)
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, code


def pin_for_pass(index: int) -> None:
    """Run pass `index` (and the children it starts) on one CPU, alternating.

    Contention from other tenants differs from CPU to CPU and lasts seconds
    to minutes; alternating lets the per-job minimum below see every CPU.
    """
    os.sched_setaffinity(0, {ALL_CPUS[index % len(ALL_CPUS)]})


class Run:
    """Everything one run measured, reduced to metrics at the end."""

    def __init__(self):
        self.setup: list[float] = []
        self.pass_walls: list[float] = []  # summed job wall time per untraced pass
        self.pass_main_s: list[float] = []  # summed time in cli.main per untraced basis_cli pass
        self.traced_walls: list[float] = []  # summed job wall time per traced pass
        self.job_times: dict[str, list[list[float]]] = {}  # job -> [wall_s, cpu_s] per pass
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # the first few, for the log
        self.peak_rss_kb = 0
        self.jobs_per_pass = 0
        self.trace: dict | None = None

    def end_to_end(self) -> dict:
        # Other tenants only ever slow a job down, so each job's time is its
        # fastest pass, and set-up time its fastest sample; a pass's time is
        # the sum of those job times.  A failed job's times count too.
        best_wall = sorted(min(w for w, _ in v) for v in self.job_times.values())
        best_cpu = [min(c for _, c in v) for v in self.job_times.values()]
        return {
            "wall_s": (sum(best_wall), "s"),
            "cpu_s": (sum(best_cpu), "s"),
            "job_p50_s": (_percentile(best_wall, 0.5), "s"),
            "job_p90_s": (_percentile(best_wall, 0.9), "s"),
            "peak_rss_mb": (self.peak_rss_kb / 1024, "MiB"),
            "setup_s": (min(self.setup), "s"),
        }

    def per_layer(self) -> dict:
        spans, caches = self.trace["spans"], self.trace["caches"]
        out = {}
        for metric, unit, span, field in SPAN_METRICS:
            out[metric] = (spans.get(span, [0, 0.0, 0.0])[field], unit)
        hits, misses = caches.get("genus.phi_series", [0, 0])
        out["genus.phi_series_hits"] = (hits, "count")
        out["genus.phi_series_misses"] = (misses, "count")
        rows, rank = self.trace["rref"]
        out["modforms.candidate_yield"] = (rank / rows if rows else 0.0, "ratio")
        out["linalg.rref_rows"] = (rows, "count")
        mul_calls, _, mul_self = spans.get("cyclo.Cyclo.__mul__", [0, 0.0, 0.0])
        out["cyclo.mul_rate"] = (mul_calls / mul_self if mul_self else 0.0, "1/s")
        fastest = min(range(len(self.pass_walls)), key=self.pass_walls.__getitem__)
        untraced_wall = self.pass_walls[fastest]
        main_s = self.pass_main_s[fastest] if self.pass_main_s else 0.0
        out["cli.main_s"] = (main_s, "s")
        out["cli.startup_s"] = (untraced_wall - main_s if main_s else 0.0, "s")
        out["trace.overhead_ratio"] = (min(self.traced_walls) / untraced_wall, "ratio")
        return out


def _percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between the closest ranks (inclusive method)."""
    pos = p * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def run_cli_pass(run: Run, jobs: list[Job], reference: dict, workdir: Path, trace: bool,
                 rng: random.Random, deadline: float) -> None:
    """One pass over the jobs in a seeded order, recorded in run.

    An untraced pass records every job's times, failed or not; a traced pass
    records only its wall time and, for the first traced pass, the layer trace.
    """
    order = list(jobs)
    rng.shuffle(order)
    pass_wall = main_s = 0.0
    dumps = []
    for job in order:
        out_path, report_path = workdir / f"{job.id}.out", workdir / f"{job.id}.report"
        report_path.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(workdir / f"{job.id}.err", "wb") as err:
            wall, cpu, code = time_child(
                [sys.executable, str(HERE / "cli_job.py"), str(report_path), str(int(trace)),
                 *job.argv], deadline, stdout=out, stderr=err)
        run.attempted += 1
        pass_wall += wall
        if not trace:
            run.job_times.setdefault(job.id, []).append([wall, cpu])
        problem = _check_cli_output(job, out_path.read_bytes(), code, reference)
        if problem is None and not report_path.exists():
            problem = "no job report"
        if problem:
            run.failed += 1
            run.failures.append(f"{job.id}: {problem}")
            if code == -9:
                break
            continue
        report = json.loads(report_path.read_text())
        if trace:
            dumps.append(report["trace"])
        else:
            main_s += report["main_s"]
    if not trace:
        run.pass_walls.append(pass_wall)
        run.pass_main_s.append(main_s)
        return
    run.traced_walls.append(pass_wall)
    if run.trace is None:
        run.trace = merge(dumps)


def _check_cli_output(job: Job, stdout: bytes, code: int, reference: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if hashlib.sha256(stdout).hexdigest() != reference.get(job.id):
        return "output differs from the reference digest"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    return check_basis(doc)


def run_cli_workload(run: Run, seed: int, seconds: float, trace: bool, workdir: Path,
                     deadline: float) -> None:
    jobs = basis_jobs()
    run.jobs_per_pass = len(jobs)
    reference = json.loads((HERE / "reference.json").read_text())
    for i in range(CLI_SETUP_PROBES):
        pin_for_pass(i)
        wall, _, code = time_child([sys.executable, "-c", "import ellgenus.cli"], deadline)
        if code != 0:
            raise SystemExit("error: cannot import ellgenus.cli from src/")
        run.setup.append(wall)
    rng = random.Random(seed)
    if trace:
        pin_for_pass(0)
        for _ in range(TRACE_PAIRS):
            run_cli_pass(run, jobs, reference, workdir, False, rng, deadline)
            run_cli_pass(run, jobs, reference, workdir, True, rng, deadline)
    else:
        start = time.perf_counter()
        while not run.pass_walls or (time.perf_counter() - start < seconds
                                     and time.monotonic() < deadline):
            pin_for_pass(len(run.pass_walls))
            run_cli_pass(run, jobs, reference, workdir, False, rng, deadline)
    run.peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def run_reduce_workload(run: Run, seed: int, seconds: float, trace: bool,
                        deadline: float) -> None:
    script = str(HERE / "reduce_batch.py")
    base = [sys.executable, script, "--seed", str(seed), "--seconds", str(seconds)]
    for i in range(REDUCE_SETUPS - 1):
        pin_for_pass(i + 1)
        proc = subprocess.run(base + ["--setup-only"], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise SystemExit(f"error: reduce_batch set-up failed\n{proc.stderr}")
        run.setup.append(json.loads(proc.stdout)["setup_s"])
    pin_for_pass(0)
    proc = subprocess.run(base + ["--trace", str(int(trace))], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise SystemExit(f"error: reduce_batch failed\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if not trace:
        run.setup.append(out["setup_s"])
    run.pass_walls = out["pass_walls"]
    run.job_times = out["job_times"]
    run.attempted = out["attempted"]
    run.failed = out["failed"]
    run.failures = out["failures"]
    run.peak_rss_kb = out["peak_rss_kb"]
    run.jobs_per_pass = out["jobs_per_pass"]
    if trace:
        run.trace = out["trace"]
        run.traced_walls = out["traced_walls"]


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(run: Run, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "jobs_per_pass": run.jobs_per_pass,
        "passes": len(run.pass_walls),
        "jobs": run.attempted,
        "setup_samples": len(run.setup),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("basis_cli", "reduce_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ellgenus" / "cli.py").is_file():
        print(f"error: no ellgenus sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run = Run()
    if args.workload == "reduce_batch":
        run_reduce_workload(run, args.seed, args.seconds, bool(args.trace), deadline)
    else:
        workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            run_cli_workload(run, args.seed, args.seconds, bool(args.trace), workdir, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    metrics = run.per_layer() if args.trace else run.end_to_end()
    for failure in run.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    print(json.dumps({"provenance": provenance(run, args)}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
