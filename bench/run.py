"""trunceig benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload {spectral,tabulated,coefficient,all} \
        --seed N --seconds S --trace {0,1}

Each command of a workload runs as its own `python -m trunceig.cli`
process with PYTHONPATH=src, in a closed loop with one client: the next
command starts when the previous one has exited.  Whole passes of the
workload's command list repeat for about --seconds, and until at least
MIN_SAMPLES commands have run.  Every output is checked (see checks.py);
a command fails on a non-zero exit or a failed check.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced passes with passes run under traced_cli.py and reports
the per-layer metrics: per-pass self times and counts of each layer, and
the tracing overhead against the untraced passes of the same run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give each
metric with its unit and sample count, the error rate and the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from checks import CheckError
from workloads import WORKLOADS, Command, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TRACED_CLI = os.path.join(BENCH_DIR, "traced_cli.py")
MIN_SAMPLES = 20
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# One client runs one command at a time.  A second OpenBLAS thread made
# `spectrum --kernel sinc:c=10 --n-nodes 200` slower (0.72 s against 0.47 s
# on a 2-core x86-64 VM) and noisier, so children get one BLAS thread.
BLAS_THREADS = 1
# The whole run, set-up and checks included, has to end within 180 s.
DEADLINE_S = 150.0


@dataclass
class Run:
    """One finished command: its resource use and where its output went."""

    command: Command
    spawned: float
    wall: float
    cpu: float
    rss_mb: float
    status: int
    out_path: str
    spans_path: str | None
    error: str | None = None
    rel_err: float | None = None


@dataclass
class Pass:
    traced: bool
    runs: list[Run]

    @property
    def wall(self) -> float:
        return sum(run.wall for run in self.runs)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def execute(command: Command, out_path: str, env: dict, root: str, timeout: float,
            traced: bool = False) -> Run:
    """Run one command and take its rusage from its own wait4 record, so
    that one child's peak RSS cannot leak into another's figures."""
    spans_path = out_path + ".spans" if traced else None
    prefix = [TRACED_CLI, spans_path] if traced else ["-m", "trunceig.cli"]
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, *prefix, *command.argv],
                                stdout=out, stderr=err, env=env, cwd=root)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.monotonic() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(command, spawned, wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024.0, proc.returncode, out_path, spans_path)


def check(run: Run) -> None:
    if run.status != 0:
        with open(run.out_path + ".err", "r", encoding="utf-8", errors="replace") as handle:
            tail = handle.read().strip().splitlines()[-1:]
        run.error = f"exit status {run.status}: {' '.join(tail)}"
        return
    try:
        with open(run.out_path, "r", encoding="utf-8") as handle:
            run.rel_err = run.command.check(handle.read())
    except (CheckError, ValueError, IndexError, KeyError, OSError) as exc:
        run.error = f"{type(exc).__name__}: {exc}"


def set_up(name: str, seed: int, work: str, env: dict, root: str, deadline: float):
    """Generate the inputs and run one warm-up command, SETUP_REPEATS times."""
    times, warmups = [], []
    for k in range(SETUP_REPEATS):
        start = time.monotonic()
        directory = os.path.join(work, f"setup-{k}")
        os.makedirs(directory)
        workload = WORKLOADS[name](seed, directory)
        warmups.append(execute(workload.warmup, os.path.join(directory, "warmup.out"),
                               env, root, deadline - time.monotonic()))
        times.append(time.monotonic() - start)
    return workload, statistics.median(times), warmups


def one_pass(workload: Workload, index: int, traced: bool, directory: str,
             env: dict, root: str, deadline: float) -> Pass:
    this = Pass(traced, [])
    for j, command in enumerate(workload.pass_commands(index)):
        if time.monotonic() >= deadline:
            break
        out = os.path.join(directory, f"pass{index}-cmd{j}.out")
        this.runs.append(execute(command, out, env, root, deadline - time.monotonic(), traced))
    return this


def timed_loop(workload: Workload, seconds: float, traced: bool, directory: str,
               env: dict, root: str, deadline: float) -> tuple[list[Pass], float]:
    """Closed loop over whole passes, stopping at the pass boundary nearest
    to `seconds`; traced runs alternate untraced and traced passes so that
    both see the same machine conditions."""
    passes: list[Pass] = []
    start = time.monotonic()
    while True:
        index = len(passes)
        passes.append(one_pass(workload, index, traced and index % 2 == 1,
                               directory, env, root, deadline))
        elapsed = time.monotonic() - start
        if time.monotonic() >= deadline:
            return passes, elapsed
        if elapsed + 0.5 * elapsed / len(passes) >= seconds and enough(passes, traced):
            return passes, elapsed


def enough(passes: list[Pass], traced: bool) -> bool:
    if traced:
        return sum(p.traced for p in passes) >= 2 and sum(not p.traced for p in passes) >= 2
    return sum(len(p.runs) for p in passes) >= MIN_SAMPLES


def tail_percentile(count: int) -> int:
    """Highest percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if count * (100 - p) / 100 >= 10:
            return p
    return 50


def end_to_end(passes, elapsed, setup_s) -> tuple[dict, dict]:
    runs = [run for p in passes for run in p.runs]
    walls = [run.wall for run in runs]
    p = tail_percentile(len(walls))
    tail = walls[0]
    if len(walls) > 1:
        tail = statistics.quantiles(walls, n=100, method="inclusive")[p - 1]
    errors = [run.rel_err for run in runs if run.rel_err is not None]
    values = {
        "setup_s": setup_s,
        "cmds_per_s": len(runs) / elapsed,
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail,
        "cpu_per_cmd_s": statistics.median(run.cpu for run in runs),
        "peak_rss_mb": max(run.rss_mb for run in runs),
        # With no checked eigenvalue at all the run is already incorrect;
        # report a 100% error rather than leave the metric out.
        "lambda_rel_err_max": max(errors) if errors else 1.0,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "latency_tail_s": f"p{p} of {len(walls)} commands",
        "lambda_rel_err_max": f"worst of {len(errors)} checked outputs, modes k <= 10",
    }
    return values, notes


def layer_totals(runs: list[Run]) -> dict[str, float]:
    """Self time and call count per span name, plus the counters, for one pass.

    A span's self time is its duration minus the time its child spans cover.
    """
    totals: dict[str, float] = defaultdict(float)
    for run in runs:
        if run.error is not None:
            continue
        with open(run.spans_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        spans = data["spans"]
        children = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _), inner in zip(spans, children):
            totals[f"{name}.self_s"] += end - start - inner
            totals[f"{name}.calls"] += 1
            if name == "cli.main":
                totals["trace.main_s"] += end - start
        for name, value in data["counters"].items():
            totals[name] += value
        totals["cli.startup_s"] += data["imported"] - run.spawned
    nodes = totals["spectral.spectral_system.nodes"]
    totals["spectral.spectral_system.kept_ratio"] = (
        totals["spectral.spectral_system.kept"] / nodes if nodes else 0.0)
    prolate = totals["kernels.prolate_eigenvalues.calls"]
    totals["kernels.prolate_eigenvalues.eigh_per_call"] = (
        totals["kernels.eigh.calls"] / prolate if prolate else 0.0)
    return totals


def per_layer(passes, names) -> tuple[dict, dict]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = [layer_totals(p.runs) for p in traced] or [{}]
    values = {name: statistics.median(t.get(name, 0.0) for t in per_pass) for name in names}
    if traced and plain:
        values["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                         / statistics.median(p.wall for p in plain) - 1.0)
    note = f"median over {len(traced)} traced passes"
    return values, {name: note for name in names}


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "trunceig")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(root),
        "source_sha256": digest.hexdigest(),
    }


def run_workload(name, seed, seconds, traced, spec, root) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    work = os.path.join(root, ".bench_work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload, setup_s, warmups = set_up(name, seed, work, env, root, deadline)
        loop_dir = os.path.join(work, "loop")
        os.makedirs(loop_dir)
        passes, elapsed = timed_loop(workload, seconds, traced, loop_dir, env, root, deadline)
        runs = warmups + [run for p in passes for run in p.runs]
        for run in runs:
            check(run)
        declared = spec["per_layer" if traced else "end_to_end"]
        if traced:
            values, notes = per_layer(passes, [m["name"] for m in declared])
        else:
            values, notes = end_to_end(passes, elapsed, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    failed = [run for run in runs if run.error is not None]
    return {
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "seed": seed,
        "facts": machine_facts(root),
        "attempted": len(runs),
        "failed": len(failed),
        "failures": [f"{' '.join(r.command.argv)}: {r.error}" for r in failed[:5]],
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
        "notes": notes,
        "samples": sum(len(p.runs) for p in passes if not p.traced),
    }


def report(result: dict) -> None:
    print(f"workload {result['workload']} (seed {result['seed']}): {result['why']}")
    for name, metric in result["metrics"].items():
        note = result["notes"].get(name, f"{result['samples']} commands")
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}  [{note}]")
    rate = result["failed"] / result["attempted"]
    print(f"  error_rate = {rate:.6g}  [{result['failed']} of {result['attempted']} commands]")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"  machine {json.dumps(result['facts'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "trunceig", "cli.py")):
        print(f"error: no trunceig sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace), spec, root)
               for name in names]
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in results for name, metric in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
