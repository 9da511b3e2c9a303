"""Comparison functions, the Jensen-style cap, exact suprema, regime fits."""

import math

import numpy as np
import pytest

from trunceig import (
    ConstraintSequence,
    PFunction,
    check_condition,
    classify_continuity,
    p_eval,
    p_inverse,
    parse_pfunction,
    stability_bound,
    stability_report,
    stability_sup_exact,
)

TRI_LAM = 1.0 / (np.arange(1, 51) * math.pi) ** 2
DERIV_BETA = math.pi * np.arange(1, 51, dtype=float)


def test_pfunction_presets_closed_forms():
    p = PFunction.power(1.0 / 3.0)
    assert p_eval(p, 1e-3) == pytest.approx(1e-9, rel=1e-12)
    assert p_inverse(p, 1e-6) == pytest.approx(1e-2, rel=1e-12)
    assert p_eval(p, 0.0) == 0.0
    assert p_inverse(p, 0.0) == 0.0

    q = PFunction.explog()
    assert p_eval(q, 0.5) == pytest.approx(2.0 * math.exp(-4.0), rel=1e-14)
    with pytest.raises(ValueError):
        p_eval(q, -0.1)
    with pytest.raises(ValueError):
        PFunction.power(1.5)
    with pytest.raises(ValueError):
        PFunction.power(0.0)


def test_pfunction_round_trips():
    p = PFunction.power(0.25)
    for r in (1e-4, 1e-2, 0.5):
        assert p_inverse(p, p_eval(p, r)) == pytest.approx(r, rel=1e-12)

    q = PFunction.explog()
    for r in (5e-3, 1e-2, 0.5):
        assert p_inverse(q, p_eval(q, r)) == pytest.approx(r, rel=1e-12)

    # The defining identity of the inverse: ln r - 2/r = ln(s/4).
    s = 1e-6
    r = p_inverse(q, s)
    assert math.log(r) - 2.0 / r == pytest.approx(math.log(s / 4.0), rel=1e-12)
    assert r == pytest.approx(0.15030038825137326, rel=1e-12)


def test_explog_underflow_and_domain_cap():
    q = PFunction.explog()
    # exp(-2/r) underflows double precision long before r = 1e-4.
    assert p_eval(q, 1e-4) == 0.0
    cap = p_eval(q, 2.0 / 3.0)
    assert p_inverse(q, cap) == pytest.approx(2.0 / 3.0, rel=1e-9)
    with pytest.raises(ValueError, match="invertible range"):
        p_inverse(q, cap * 1.01)
    with pytest.raises(ValueError):
        p_inverse(q, -1e-3)


def test_custom_pfunction_interpolates():
    rs = np.linspace(0.1, 1.0, 10)
    p = PFunction.custom(rs, rs**2)
    assert p_eval(p, rs[4]) == pytest.approx(rs[4] ** 2)
    mid = 0.5 * (rs[2] + rs[3])
    assert p_eval(p, mid) == pytest.approx(0.5 * (rs[2] ** 2 + rs[3] ** 2))
    assert p_inverse(p, rs[6] ** 2) == pytest.approx(rs[6])
    with pytest.raises(ValueError):
        p_eval(p, 2.0)
    with pytest.raises(ValueError):
        p_inverse(p, 2.0)


def test_custom_pfunction_validation():
    rs = np.linspace(0.1, 1.0, 10)
    with pytest.raises(ValueError):
        PFunction.custom(rs, rs[:-1] ** 2)
    with pytest.raises(ValueError):
        PFunction.custom(rs, np.sqrt(rs))  # concave, p(r)/r decreasing
    with pytest.raises(ValueError):
        PFunction.custom(rs, -(rs**2))
    with pytest.raises(ValueError):
        PFunction.custom(rs[:2], rs[:2] ** 2)


def test_parse_pfunction_grammar():
    assert parse_pfunction("explog").kind == "explog"
    p = parse_pfunction("power:gamma=0.25")
    assert p.kind == "power" and p.gamma == 0.25
    assert p.describe() == "power:gamma=0.25"
    for bad in ("power", "power:gamma=2", "explog:c=1", "linear", "power:gamma=x",
                "power:gamma=0.5,zz=2"):
        with pytest.raises(ValueError):
            parse_pfunction(bad)


def test_check_condition_boundary_cases():
    p = PFunction.power(1.0 / 3.0)
    # lambda_k = (k pi)^-2 with beta_k = k pi sits exactly on the equality
    # lambda_k^2 = beta_k^2 p(beta_k^-2).
    ok, first = check_condition(TRI_LAM, DERIV_BETA, p, 50)
    assert ok and first is None

    ok, first = check_condition(TRI_LAM, 1.01 * DERIV_BETA, p, 50)
    assert ok

    ok, first = check_condition(TRI_LAM, 0.5 * DERIV_BETA, p, 50)
    assert not ok and first == 1

    with pytest.raises(ValueError):
        check_condition(TRI_LAM, DERIV_BETA, p, 0)
    with pytest.raises(ValueError):
        check_condition(TRI_LAM, DERIV_BETA, p, 51)


def test_stability_bound_values_and_scaling():
    p = PFunction.power(1.0 / 3.0)
    assert stability_bound(1e-3, 1.0, p) == pytest.approx(0.1, rel=1e-12)
    # Power regime: bound = E^(1-gamma) eps^gamma.
    assert stability_bound(1e-3, 8.0, p) == pytest.approx(0.4, rel=1e-12)
    grid = np.geomspace(1e-2, 1e-6, 9)
    vals = [stability_bound(float(e), 1.0, p) for e in grid]
    assert np.all(np.diff(vals) < 0)

    q = PFunction.explog()
    assert stability_bound(1e-3, 1.0, q) == pytest.approx(
        math.sqrt(0.15030038825137326), rel=1e-10
    )
    with pytest.raises(ValueError):
        stability_bound(0.0, 1.0, p)


def test_sup_exact_single_mode_and_dominating_cases():
    lam = np.array([1.0, 0.5])
    betas = np.array([1.0, 1.0])
    assert stability_sup_exact(lam[:1], betas[:1], 0.3, 1.0, K=1) == pytest.approx(0.3)
    assert stability_sup_exact(lam[:1], betas[:1], 3.0, 1.0, K=1) == pytest.approx(1.0)
    # Noise binds on the better-resolved mode; budget binds when noise is loose.
    assert stability_sup_exact(lam, betas, 0.3, 1.0) == pytest.approx(0.6)
    assert stability_sup_exact(lam, betas, 10.0, 1.0) == pytest.approx(1.0)


def test_sup_exact_triangular_stays_under_the_cap():
    sup = stability_sup_exact(TRI_LAM, DERIV_BETA, 1e-3, 1.0)
    assert sup == pytest.approx(0.09729079055436535, rel=1e-10)
    assert sup <= stability_bound(1e-3, 1.0, PFunction.power(1.0 / 3.0))


def test_sup_exact_never_beaten_by_sampling():
    rng = np.random.default_rng(41)
    for trial in range(8):
        m = 5
        lam = np.sort(rng.uniform(0.05, 1.0, m))[::-1].copy()
        betas = rng.uniform(0.5, 4.0, m)
        eps = float(rng.uniform(0.01, 0.3))
        E = float(rng.uniform(0.5, 2.0))
        best = stability_sup_exact(lam, betas, eps, E)

        # Random feasible points never exceed the reported supremum, and the
        # best of many sampled boundary points comes close to it.
        u = rng.dirichlet(np.ones(m), size=4000)  # mass splits over modes
        scale = np.minimum(
            eps**2 / (u @ lam**2),
            E**2 / (u @ betas**2),
        )
        norms = np.sqrt(np.sum(u * scale[:, None], axis=1))
        assert float(np.max(norms)) <= best * (1.0 + 1e-12)

        # Include the two-mode vertices the theory says are optimal.
        assert best >= float(np.max(np.sqrt(np.minimum(eps**2 / lam**2, E**2 / betas**2))))


def test_classify_continuity_synthetic_regimes():
    grid = np.geomspace(0.3, 1e-6, 14)
    holder = 2.0 * grid ** (1.0 / 3.0)
    fit = classify_continuity(grid, holder)
    assert fit.model == "holder"
    assert fit.exponent == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert fit.residual < 1e-12

    logarithmic = np.abs(np.log(grid / 2.0)) ** -0.5
    fit = classify_continuity(grid, logarithmic)
    assert fit.model == "logarithmic"
    assert fit.exponent == pytest.approx(-0.5, abs=1e-3)
    assert fit.residual < fit.alt_residual


def test_classify_continuity_on_computed_sweep():
    grid = np.geomspace(1e-2, 1e-6, 15)
    sups = np.array([stability_sup_exact(TRI_LAM, DERIV_BETA, float(e), 1.0) for e in grid])
    fit = classify_continuity(grid, sups)
    assert fit.model == "holder"
    assert 0.25 < fit.exponent < 0.40


def test_classify_continuity_validation():
    grid = np.geomspace(0.3, 1e-4, 8)
    with pytest.raises(ValueError):
        classify_continuity(grid[:4], grid[:4])
    with pytest.raises(ValueError):
        classify_continuity(grid[::-1].copy(), np.ones(8))
    with pytest.raises(ValueError):
        classify_continuity(grid, np.full(8, 0.7))  # constant: unclassifiable
    with pytest.raises(ValueError):
        classify_continuity(2.0 * np.ones(8), np.ones(8))


def test_stability_report_combines_the_pieces():
    p = PFunction.power(1.0 / 3.0)
    rep = stability_report(TRI_LAM, DERIV_BETA, p, 1e-3, 1.0)
    assert rep.eps == 1e-3 and rep.E == 1.0
    assert rep.bound == pytest.approx(stability_bound(1e-3, 1.0, p))
    assert rep.exact_sup == pytest.approx(stability_sup_exact(TRI_LAM, DERIV_BETA, 1e-3, 1.0))
    assert rep.condition_ok and rep.first_violation is None
    assert rep.exact_sup <= rep.bound

    rep = stability_report(TRI_LAM, 0.5 * DERIV_BETA, p, 1e-3, 1.0)
    assert not rep.condition_ok and rep.first_violation == 1
