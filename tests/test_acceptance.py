"""Acceptance gate: twelve numbered checks, one PASS/FAIL line each.

Every check hands its verdict and measured numbers to the scoreboard reporter
(see conftest), which replays the full list at the end of the run, so the log
carries all twelve lines even when a criterion misses its pinned tolerance.
"""

import math
import time

import numpy as np

from trunceig import (
    Ellipsoid,
    FinitePointSet,
    PFunction,
    check_condition,
    classify_continuity,
    covering_number_exact,
    ellipsoid_of,
    entropy_lower_bound,
    feasibility_check,
    gauss_legendre,
    identity_rule_residuals,
    information_flow_comparison,
    packing_number_exact,
    plateau_count,
    prolate_eigenvalues,
    shannon_entropy_estimate,
    shannon_number,
    spectral_system,
    stability_bound,
    stability_sup_exact,
    synthesize_problem,
    triangular_kernel,
    truncated_solution,
    truncation_identity,
    truncation_weighted,
    weak_pairing,
    weighted_rule_residuals,
)
from trunceig.kernels import SincKernel

EPS_GRID = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def tri_lam(count):
    return 1.0 / (np.arange(1, count + 1) * math.pi) ** 2


def test_criterion_01_discretized_spectrum_accuracy(acceptance_report):
    start = time.perf_counter()
    system = spectral_system(triangular_kernel, gauss_legendre(256, 0.0, 1.0))
    elapsed = time.perf_counter() - start
    exact = tri_lam(10)
    rel = np.abs(system.eigenvalues[:10] - exact) / exact
    worst = float(np.max(rel))
    ok = worst <= 1e-3 and elapsed < 10.0
    acceptance_report(1, ok,
                      f"256-node eigenvalues vs (k pi)^-2 for k <= 10: max rel err "
                      f"{worst:.4e} (tolerance 1e-3), runtime {elapsed:.2f}s (< 10s)")


def test_criterion_02_truncation_closed_forms(acceptance_report):
    lam = tri_lam(200)
    beta = math.pi * np.arange(1, 201, dtype=float)
    k1_coarse = truncation_identity(lam, 1e-2, 1.0)
    k1_fine = truncation_identity(lam, 1e-4, 1.0)
    k2_mid = truncation_weighted(lam, beta, 1e-3, 1.0)
    ok = (k1_coarse, k1_fine, k2_mid) == (3, 31, 3)
    acceptance_report(2, ok,
                      f"k1(1e-2)={k1_coarse} (want 3), k1(1e-4)={k1_fine} (want 31), "
                      f"k2(1e-3)={k2_mid} (want 3), exact integers")


def test_criterion_03_entropy_bound_value(acceptance_report):
    lam = tri_lam(80)
    report = entropy_lower_bound(ellipsoid_of(lam, None, 1.0), 0.01)
    oracle = sum(math.log2(v / 0.01) for v in lam if v >= 0.01)
    ok = abs(report.entropy_bits - 4.853) <= 1e-3 and abs(report.entropy_bits - oracle) < 1e-12
    acceptance_report(3, ok,
                      f"triangular ellipsoid bits at eps=0.01: {report.entropy_bits:.6f} "
                      f"(want 4.853 +- 1e-3, direct-sum oracle {oracle:.6f})")


def test_criterion_04_covering_never_exceeds_packing(acceptance_report):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = 0
    violations = 0
    for trial in range(50):
        count = int(rng.integers(5, 21))
        dim = int(rng.integers(2, 5))
        ps = FinitePointSet(rng.uniform(-1.0, 1.0, size=(count, dim)))
        d = np.sqrt(np.sum((ps.points[:, None] - ps.points[None, :]) ** 2, axis=2))
        off = d[np.triu_indices(count, k=1)]
        for q in (0.15, 0.5, 0.85):
            eps = float(np.quantile(off, q))
            n_cover, _ = covering_number_exact(ps, eps)
            m_pack, _ = packing_number_exact(ps, eps)
            cases += 1
            violations += n_cover > m_pack
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    acceptance_report(4, ok,
                      f"covering <= packing on {cases} seeded (set, eps) cases: "
                      f"{violations} violations, {elapsed:.1f}s (< 60s)")


def test_criterion_05_error_splitting_inequalities(acceptance_report):
    lam = tri_lam(60)
    beta = math.pi * np.arange(1, 61, dtype=float)
    bad = 0
    infeasible = 0
    for seed in range(100):
        inst = synthesize_problem(lam, beta, 1e-3, 1.0, f_decay=(1.0, 2.0),
                                  noise_mode="range_compatible", seed=seed)
        if not feasibility_check(inst).permissible:
            infeasible += 1
            continue
        rep2 = weighted_rule_residuals(inst, truncated_solution(inst, "k2"))
        rep1 = identity_rule_residuals(inst, truncated_solution(inst, "k1"))
        for rep in (rep2, rep1):
            s = 1e-12
            holds = (
                rep.image_residual <= math.sqrt(2.0) * 1e-3 * (1 + s)
                and rep.constraint_residual <= math.sqrt(2.0) * (1 + s)
                and rep.combined <= 4.0 * 1e-6 * (1 + s)
            )
            bad += not holds
    ok = bad == 0 and infeasible == 0
    acceptance_report(5, ok,
                      f"six inequalities on 100 seeded instances (both rules): "
                      f"{bad} failures, {infeasible} infeasible draws, slack 1e-12")


def test_criterion_06_strong_convergence_rate(acceptance_report):
    lam = tri_lam(80)
    beta = math.pi * np.arange(1, 81, dtype=float)
    errors = []
    rowwise_ok = True
    for i, eps in enumerate(EPS_GRID):
        inst = synthesize_problem(lam, beta, eps, 1.0, f_decay=(1.0, 2.0), seed=i)
        rec = truncated_solution(inst, "k2")
        err = float(np.linalg.norm(inst.f_true - rec.coefficients))
        errors.append(err)
        rowwise_ok &= err <= math.sqrt(2.0) * eps ** (1.0 / 3.0)
    ratio = errors[-1] / errors[0]
    ok = rowwise_ok and ratio <= 0.2
    acceptance_report(6, ok,
                      f"||f - f2|| <= sqrt(2) eps^(1/3) rowwise: {rowwise_ok}; "
                      f"final/first error ratio {ratio:.4f} (<= 0.2)")


def test_criterion_07_weak_convergence_bound(acceptance_report):
    lam = tri_lam(100)
    beta = math.pi * np.arange(1, 101, dtype=float)
    v = 1.0 / np.arange(1, 101, dtype=float)
    v_norm = float(np.linalg.norm(v))
    bounds = []
    paired_ok = True
    for eps in EPS_GRID:
        inst = synthesize_problem(lam, beta, eps, 1.0, f_decay=(1.0, 2.0), seed=7)
        rec = truncated_solution(inst, "k1")
        pairing, bound = weak_pairing(inst, rec, v)
        paired_ok &= pairing <= bound * (1.0 + 1e-12)
        bounds.append(bound)
    decreasing = all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    ok = paired_ok and decreasing and bounds[-1] < 1e-2 * v_norm
    acceptance_report(7, ok,
                      f"Schwarz bound strictly decreasing {decreasing}, final "
                      f"{bounds[-1]:.6f} < 1e-2 ||v|| = {1e-2 * v_norm:.6f}, "
                      f"pairing <= bound everywhere: {paired_ok}")


def test_criterion_08_exact_supremum_under_jensen_bound(acceptance_report):
    presets = []

    lam_tri = tri_lam(50)
    beta_tri = math.pi * np.arange(1, 51, dtype=float)
    presets.append(("power", lam_tri, beta_tri, PFunction.power(1.0 / 3.0)))

    beta_log = np.sqrt(np.linspace(1.6, 9.0, 40))
    lam_log = 2.0 * np.exp(-(beta_log**2))
    presets.append(("explog", lam_log, beta_log, PFunction.explog()))

    worst_gap = -math.inf
    all_ok = True
    for name, lam, betas, p in presets:
        cond_ok, first = check_condition(lam, betas, p)
        all_ok &= cond_ok
        for eps in (1e-2, 1e-3, 1e-4):
            for E in (0.5, 1.0, 2.0):
                sup = stability_sup_exact(lam, betas, eps, E)
                cap = stability_bound(eps, E, p)
                gap = sup - cap
                worst_gap = max(worst_gap, gap)
                all_ok &= sup <= cap * (1.0 + 1e-9)
    acceptance_report(8, all_ok,
                      f"exact sup <= analytic bound on the 3x3 grid for both presets; "
                      f"worst gap sup - bound = {worst_gap:.4e}")


def test_criterion_09_continuity_classification(acceptance_report):
    grid = np.geomspace(0.3, 1e-6, 14)

    holder_fit = classify_continuity(grid, 2.0 * grid ** (1.0 / 3.0))
    holder_ok = holder_fit.model == "holder" and abs(holder_fit.exponent - 1.0 / 3.0) <= 1e-3

    log_fit = classify_continuity(grid, np.abs(np.log(grid / 2.0)) ** -0.5)
    log_ok = log_fit.model == "logarithmic" and abs(log_fit.exponent + 0.5) <= 1e-2

    ok = holder_ok and log_ok
    acceptance_report(9, ok,
                      f"synthetic power data -> {holder_fit.model}({holder_fit.exponent:.6f}); "
                      f"synthetic log data -> {log_fit.model}({log_fit.exponent:.6f})")


def test_criterion_10_shannon_plateau_and_entropy_estimate(acceptance_report):
    system = spectral_system(SincKernel(10.0), gauss_legendre(400, -1.0, 1.0))
    plateau = plateau_count(system.eigenvalues, 0.5)

    s_number = shannon_number(10.0, 2.0)
    estimate = shannon_entropy_estimate(s_number, 1e-3)
    direct = entropy_lower_bound(Ellipsoid(system.eigenvalues), 1e-3).entropy_bits
    rel_gap = abs(direct - estimate) / estimate

    ok = plateau in (5, 6, 7) and rel_gap <= 0.20
    acceptance_report(10, ok,
                      f"plateau_count(0.5) = {plateau} (want 5..7 around S = {s_number:.3f}); "
                      f"direct bits {direct:.3f} vs S log2(1/eps) = {estimate:.3f}, "
                      f"relative gap {rel_gap:.3f} (tolerance 0.20)")


def test_criterion_11_prolate_reference_eigenvalue(acceptance_report):
    chi10 = float(prolate_eigenvalues(1.0, 11)[10])
    asymptote = 10.0 * 11.0 + 1.0 / 2.0
    ok = abs(chi10 - 110.5) <= 0.05
    acceptance_report(11, ok,
                      f"chi_10(c=1) = {chi10:.6f} (want 110.5 +- 0.05; "
                      f"k(k+1) + c^2/2 = {asymptote})")


def test_criterion_12_weighted_rule_transmits_fewer_bits(acceptance_report):
    lam = tri_lam(200)
    beta = math.pi * np.arange(1, 201, dtype=float)
    diffs = []
    for eps in EPS_GRID:
        flow = information_flow_comparison(lam, beta, eps, 1.0)
        diffs.append(flow.report_k1.entropy_bits - flow.report_k2.entropy_bits)
    ok = all(d > 0.0 for d in diffs)
    acceptance_report(12, ok,
                      f"bits(k1) - bits(k2) over the eps grid: "
                      f"{', '.join(f'{d:.2f}' for d in diffs)} (all > 0)")
