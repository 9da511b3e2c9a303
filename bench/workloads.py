"""The benchmark's workloads: seeded inputs and one pass of CLI commands.

A workload pass is a fixed list of `trunceig` invocations; the timed loop
repeats whole passes, so every run measures the same command mix.  The
seed picks the tabulated kernel, the --seed of commands that draw noise and
the cover point sets; it never changes how much work a pass does.

Why these three: measured at the first benchmarked commit, the Jacobi
eigensolve is about 80% of `spectral`; the tabulated kernel's per-sample
node lookup makes the Nystrom build a third of `tabulated`; and
`coefficient` never builds or solves a Nystrom matrix, so it is the
workload on which spectral-core changes must show no change.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import (
    check_cover,
    check_entropy,
    check_instance,
    check_solve,
    check_spectrum,
    check_stability,
    check_sweep,
    check_truncate,
    constraint_weights,
    gl_grid,
    green_eigenvalues,
    green_samples,
    nystrom_eigenvalues,
    sinc_samples,
)

STABILITY_EPS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7]
SWEEP_EPS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
TRUNCATE_EPS = [1e-2, 1e-3, 1e-4]
SINC_C = 10.0
TABLE_NODES = 200
COVER_EPS = 0.5


@dataclass
class Command:
    """One CLI invocation and the check its standard output must pass."""

    argv: list[str]
    check: Callable[[str], float | None]


@dataclass
class Workload:
    warmup: Command
    pass_commands: Callable[[int], list[Command]]


# Oracles are computed on first use, after the timed loop, so that neither
# set-up time nor the loop pays for the benchmark's own numerics.


def _triangular(count: int) -> np.ndarray:
    return green_eigenvalues(count, 0.0, 1.0, 1.0)


@functools.cache
def _sinc_eigs(n: int) -> np.ndarray:
    x, w = gl_grid(n, -1.0, 1.0)
    return nystrom_eigenvalues(sinc_samples(x, SINC_C), w)


@functools.cache
def _weights(spec: str, count: int) -> np.ndarray:
    return constraint_weights(spec, count)


def spectral(seed: int, work_dir: str) -> Workload:
    sinc_log = f"sinc_log:c={SINC_C:g}"

    def check_sinc_sweep(out):
        lam = _sinc_eigs(400)
        lam = lam[lam > 0][:30]
        return check_sweep(out, lam, _weights(sinc_log, lam.size), SWEEP_EPS, seed)

    def triangular_spectrum(n):
        return Command(
            ["spectrum", "--kernel", "triangular", "--n-nodes", str(n), "--n-modes", "10"],
            lambda out: check_spectrum(out, 10, closed_form=_triangular(n), n=n),
        )

    def sinc_spectrum(n):
        return Command(
            ["spectrum", "--kernel", f"sinc:c={SINC_C:g}", "--n-nodes", str(n), "--n-modes", "12"],
            lambda out: check_spectrum(out, 12, oracle=_sinc_eigs(n)),
        )

    sweep = Command(
        ["sweep", "--kernel", f"sinc:c={SINC_C:g}", "--n-nodes", "400",
         "--constraint", sinc_log, "--n-modes", "30", "--seed", str(seed)],
        check_sinc_sweep,
    )
    commands = [triangular_spectrum(128), triangular_spectrum(256),
                sinc_spectrum(200), sinc_spectrum(400), sweep]
    return Workload(commands[0], lambda _: commands)


def tabulated(seed: int, work_dir: str) -> Workload:
    """The triangular kernel moved to a seeded interval and scaled: symmetric,
    positive definite, with closed-form eigenvalues scale * (L / (k pi))^2."""
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(-1.0, 0.0))
    b = a + float(rng.uniform(1.0, 2.0))
    scale = float(rng.uniform(0.5, 2.0))
    x, w = gl_grid(TABLE_NODES, a, b)
    samples = green_samples(x, a, b, scale)
    table = f"{work_dir}/table.json"
    with open(table, "w", encoding="utf-8") as handle:
        json.dump({"a": a, "b": b, "nodes": x.tolist(), "weights": w.tolist(),
                   "samples": samples.tolist()}, handle)
    kernel = f"tabulated:{table}"
    exact = green_eigenvalues(TABLE_NODES, a, b, scale)
    oracle = functools.cache(lambda: nystrom_eigenvalues(samples, w))

    def lam():
        return oracle()[oracle() > 0][:100]

    def beta():
        return _weights("derivative", lam().size)

    spectrum = Command(
        ["spectrum", "--kernel", kernel, "--n-modes", "10"],
        lambda out: check_spectrum(out, 10, oracle(), exact, TABLE_NODES),
    )
    truncate = Command(
        ["truncate", "--kernel", kernel, "--constraint", "derivative"],
        lambda out: check_truncate(out, lam(), beta(), TRUNCATE_EPS),
    )

    def pass_commands(i: int) -> list[Command]:
        instance = f"{work_dir}/instance-{i}.json"
        simulate = Command(
            ["simulate", "--kernel", kernel, "--constraint", "derivative",
             "--seed", str(seed), "--output", instance],
            lambda out: check_instance(instance, lam(), beta(), 1e-3, seed),
        )
        solve = Command(["solve", "--instance", instance],
                        lambda out: check_solve(out, instance, exact))
        return [spectrum, truncate, simulate, solve]

    return Workload(spectrum, pass_commands)


def _ellipsoid_points(rng, count: int) -> np.ndarray:
    """Points on the boundary of the ellipsoid with semi-axes (1, 0.6, 0.3)."""
    z = rng.standard_normal((count, 3))
    return z / np.linalg.norm(z, axis=1)[:, None] * np.array([1.0, 0.6, 0.3])


def coefficient(seed: int, work_dir: str) -> Workload:
    rng = np.random.default_rng(seed)
    lam = _triangular(3000)

    def cover(count: int) -> Command:
        points = _ellipsoid_points(rng, count)
        path = f"{work_dir}/points-{count}.csv"
        np.savetxt(path, points, delimiter=",", fmt="%.17g")
        return Command(["cover", "--points", path, "--eps", f"{COVER_EPS:g}"],
                       lambda out: check_cover(out, points, COVER_EPS))

    def derivative(count):
        return _weights("derivative", count)

    def stability(modes: int, constraint: str) -> Command:
        return Command(
            ["stability", "--constraint", constraint, "--n-modes", str(modes)],
            lambda out: check_stability(out, lam[:modes], _weights(constraint, modes),
                                        STABILITY_EPS),
        )

    fixed = [
        Command(["truncate", "--constraint", "derivative"],
                lambda out: check_truncate(out, lam[:100], derivative(100), TRUNCATE_EPS)),
        Command(["sweep", "--constraint", "derivative", "--seed", str(seed)],
                lambda out: check_sweep(out, lam[:100], derivative(100), SWEEP_EPS, seed)),
        Command(["entropy", "--constraint", "derivative", "--eps-grid", "1e-2,1e-3"],
                lambda out: check_entropy(out, lam[:100], derivative(100), [1e-2, 1e-3])),
        stability(100, "derivative"),
        stability(3000, "derivative"),
        stability(1000, f"sinc_log:c={SINC_C:g}"),
    ]
    covers = [cover(20), cover(30)]

    def pass_commands(i: int) -> list[Command]:
        instance = f"{work_dir}/instance-{i}.json"
        simulate = Command(
            ["simulate", "--constraint", "derivative", "--n-modes", "2000",
             "--seed", str(seed), "--output", instance],
            lambda out: check_instance(instance, lam[:2000], derivative(2000), 1e-3, seed),
        )
        solve = Command(["solve", "--instance", instance],
                        lambda out: check_solve(out, instance, lam))
        return [*fixed, simulate, solve, *covers]

    return Workload(fixed[0], pass_commands)


WORKLOADS = {"spectral": spectral, "tabulated": tabulated, "coefficient": coefficient}
