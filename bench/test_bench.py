"""Tests of the benchmark itself.

Run from the repository root with `python3 -m pytest bench`.  One untraced
and one traced pass of every workload run once per session (about 40 s on
a 2-core machine); the tests then check that every output passes its
check, that a corrupted output or a failing command counts as a failure,
and that each workload's trace puts the work in the layer it claims.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import run
from workloads import WORKLOADS, Command

ROOT = os.path.dirname(run.BENCH_DIR)
IN_PROCESS = ("spectral.", "kernels.", "stability.", "infotheory.", "regularize.", "cli.main")


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Per workload: (untraced pass, traced pass, layer totals of the traced pass)."""
    env = run.child_env(ROOT)
    out = {}
    for name, build in WORKLOADS.items():
        directory = str(tmp_path_factory.mktemp(name))
        workload = build(7, directory)
        deadline = time.monotonic() + run.DEADLINE_S
        plain = run.one_pass(workload, 0, False, directory, env, ROOT, deadline)
        traced = run.one_pass(workload, 1, True, directory, env, ROOT, deadline)
        for r in plain.runs + traced.runs:
            run.check(r)
        out[name] = (plain, traced, run.layer_totals(traced.runs))
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_pass_has_no_errors(passes, name):
    plain, traced, _ = passes[name]
    errors = [f"{r.command.argv}: {r.error}" for r in plain.runs + traced.runs if r.error]
    assert errors == []
    assert len(plain.runs) == len(traced.runs) > 0


def test_corrupted_output_counts_as_failure(passes):
    plain, _, _ = passes["spectral"]
    victim = plain.runs[2]  # sinc spectrum: checked against the numpy oracle
    with open(victim.out_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    k, lam, *rest = lines[3].split(",")
    lines[3] = ",".join([k, f"{float(lam) * (1 + 1e-6):.9g}", *rest])
    with open(victim.out_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    victim.error = None
    run.check(victim)
    assert victim.error is not None and "lambda" in victim.error


def test_truncated_output_and_bad_exit_count_as_failures(passes, tmp_path):
    plain, _, _ = passes["coefficient"]
    victim = plain.runs[0]  # truncate
    with open(victim.out_path, encoding="utf-8") as handle:
        text = handle.read()
    with open(victim.out_path, "w", encoding="utf-8") as handle:
        handle.write(text.splitlines()[0] + "\n")
    run.check(victim)
    assert victim.error is not None

    bad = Command(["spectrum", "--kernel", "no-such-kernel"], lambda out: None)
    env = run.child_env(ROOT)
    result = run.execute(bad, str(tmp_path / "bad.out"), env, ROOT, 60)
    run.check(result)
    assert result.status == 2 and result.error.startswith("exit status 2")


def _self_times(totals):
    return {k: v for k, v in totals.items()
            if k.endswith(".self_s") and k.startswith(IN_PROCESS)}


def test_spectral_time_is_in_the_eigensolve(passes):
    _, _, totals = passes["spectral"]
    assert totals["spectral.eigh.self_s"] >= 0.7 * totals["trace.main_s"]


def test_tabulated_time_is_in_the_nystrom_build(passes):
    _, _, totals = passes["tabulated"]
    assert totals["spectral.nystrom_matrix.self_s"] >= 0.25 * totals["trace.main_s"]


def test_coefficient_bypasses_the_spectral_core(passes):
    _, _, totals = passes["coefficient"]
    assert totals.get("spectral.eigh.calls", 0) == 0
    assert totals.get("spectral.nystrom_matrix.calls", 0) == 0
    self_times = _self_times(totals)
    assert max(self_times, key=self_times.get) == "stability.stability_sup_exact.self_s"


def test_declared_metrics_are_the_reported_ones(passes):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    plain, traced, _ = passes["coefficient"]
    values, _ = run.end_to_end([plain], plain.wall, 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(values)
    layers, _ = run.per_layer([plain, traced], [m["name"] for m in spec["per_layer"]])
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("count, percentile", [(20, 50), (39, 50), (40, 75), (100, 90), (1000, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(count, percentile):
    assert run.tail_percentile(count) == percentile
