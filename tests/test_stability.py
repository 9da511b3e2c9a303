"""Comparison functions, the Jensen-style cap, exact suprema, regime fits."""

import math
import tracemalloc

import numpy as np
import pytest

from trunceig import (
    PFunction,
    check_condition,
    classify_continuity,
    p_eval,
    p_inverse,
    parse_pfunction,
    stability_bound,
    stability_sup_exact,
)
from trunceig.regularize import _validate_eigenvalues, _weights

TRI_LAM = 1.0 / (np.arange(1, 51) * math.pi) ** 2
DERIV_BETA = math.pi * np.arange(1, 51, dtype=float)


def _sup_by_pairs(eigenvalues, beta, eps: float, E: float, K: int | None = None) -> float:
    """Reference supremum by vertex enumeration, O(K^2) time and memory.

    In u_k = f_k^2 this is a linear program with two resource constraints, so
    the optimum sits on a vertex supported on at most two modes: enumerate
    every single mode and every pair with both constraints active.
    """
    lam = _validate_eigenvalues(eigenvalues)
    if eps <= 0 or E <= 0:
        raise ValueError("need eps > 0 and E > 0")
    if K is None:
        K = lam.size
    if not 1 <= K <= lam.size:
        raise ValueError("K must lie in [1, number of modes]")
    betas = _weights(beta, lam.size, K)
    lam2 = lam[:K] ** 2
    bet2 = betas**2
    e2 = eps * eps
    E2 = E * E

    best = float(np.max(np.minimum(e2 / lam2, E2 / bet2)))

    # Pair vertices: both constraints active on modes (i, j).  Degenerate
    # vertices (a zero coordinate) coincide with single-mode candidates, so
    # only strictly non-negative solutions of well-conditioned pairs matter.
    li = lam2[:, None]
    lj = lam2[None, :]
    bi = bet2[:, None]
    bj = bet2[None, :]
    det = li * bj - lj * bi
    cond_scale = li * bj + lj * bi
    with np.errstate(divide="ignore", invalid="ignore"):
        ui = (e2 * bj - E2 * lj) / det
        uj = (E2 * li - e2 * bi) / det
    upper = np.triu(np.ones((K, K), dtype=bool), k=1)
    valid = upper & (np.abs(det) > 1e-12 * cond_scale) & (ui >= 0.0) & (uj >= 0.0)
    if np.any(valid):
        best = max(best, float(np.max(ui[valid] + uj[valid])))
    return math.sqrt(best)


def _random_instance(seed: int):
    """Seeded (eigenvalues, beta, eps, E, K) with K <= 200 and eps in [1e-7, 1]."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 201))
    lam = np.sort(rng.uniform(1e-6, 1.0, size) ** rng.uniform(1.0, 6.0))[::-1].copy()
    beta = rng.uniform(0.1, 10.0, size) ** rng.uniform(0.5, 3.0)
    if seed % 3 == 0:
        beta = np.sort(beta)  # the usual shape: weights grow with k
    eps = float(10.0 ** rng.uniform(-7.0, 0.0))
    E = float(10.0 ** rng.uniform(-2.0, 1.0))
    K = int(rng.integers(1, size + 1)) if seed % 4 == 0 else None
    return lam, beta, eps, E, K


# Points (a_k, b_k) = (lambda_k^2 / eps^2, beta_k^2 / E^2) in degenerate layouts.
SUP_DEGENERATE = {
    "K=1": ([0.3], [2.0], 0.1, 1.0, None),
    "repeated-points": ([0.5, 0.5, 0.5, 0.2, 0.2], [1.0, 1.0, 1.0, 3.0, 3.0], 0.1, 1.0, None),
    "point-on-diagonal": ([1.0, 0.5, 0.25], [0.25, 1.0, 8.0], 0.5, 1.0, None),  # (1, 1)
    "collinear-hull": ([4.0, 3.0, 2.0], [2.0, math.sqrt(11.0), 4.0], 1.0, 1.0, None),  # b = 20 - a
    "all-noise-bound": ([1.0, 0.5, 0.25], [1.0, 1.0, 1.0], 1e-3, 1.0, None),
    "all-budget-bound": ([1.0, 0.5, 0.25], [1.0, 2.0, 3.0], 10.0, 1.0, None),
    "K-prefix": (TRI_LAM, DERIV_BETA, 1e-3, 1.0, 17),
}


@pytest.mark.parametrize(
    "instance",
    [pytest.param(_random_instance(seed), id=f"random-{seed}") for seed in range(300)]
    + [pytest.param(case, id=name) for name, case in SUP_DEGENERATE.items()],
)
def test_sup_exact_matches_pair_enumeration(instance):
    lam, beta, eps, E, K = instance
    expected = _sup_by_pairs(lam, beta, eps, E, K)
    assert stability_sup_exact(lam, beta, eps, E, K) == pytest.approx(expected, rel=1e-12)


def test_sup_exact_degenerate_closed_forms():
    def sup(name):
        return stability_sup_exact(*SUP_DEGENERATE[name])

    assert sup("K=1") == pytest.approx(0.1 / 0.3, rel=1e-15)
    assert sup("point-on-diagonal") == pytest.approx(1.0, rel=1e-15)
    # The hull edge b = 20 - a crosses a = b at 10 between two of its points.
    assert sup("collinear-hull") == pytest.approx(math.sqrt(0.1), rel=1e-14)
    assert sup("all-noise-bound") == pytest.approx(1e-3 / 0.25, rel=1e-15)
    assert sup("all-budget-bound") == pytest.approx(1.0, rel=1e-15)


def test_sup_exact_memory_is_linear_in_modes():
    K = 2000
    lam = 1.0 / (np.arange(1, K + 1) * math.pi) ** 2
    beta = math.pi * np.arange(1, K + 1, dtype=float)
    tracemalloc.start()
    try:
        stability_sup_exact(lam, beta, 1e-4, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A K x K float64 array alone would take 32 MB.
    assert peak < 2_000_000


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
    r = np.array([0.1, 0.5, 2.0 / 3.0])
    q = parse_pfunction("explog")
    assert np.array_equal(q.p(r), 4.0 * r * np.exp(-2.0 / r))
    assert q.inverse(1e-6) == pytest.approx(0.15030038825137326, rel=1e-12)
    with pytest.raises(ValueError, match="invertible range"):
        q.inverse(1.0)  # above p(2/3): the range check is the inverse's own
    p = parse_pfunction("power:gamma=0.25")
    assert np.array_equal(p.p(r), r**4.0) and p.inverse(0.0625) == 0.5
    with pytest.raises(ValueError, match="repeated power preset parameter 'gamma'"):
        parse_pfunction("power:gamma=0.5,gamma=0.2")
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


def _condition_by_loop(lam, betas, p, K):
    """Reference check_condition: one scalar p_eval per mode."""
    for k in range(K):
        if lam[k] ** 2 < betas[k] ** 2 * p_eval(p, 1.0 / betas[k] ** 2) * (1.0 - 1e-9):
            return False, k + 1
    return True, None


@pytest.mark.parametrize("p", [
    PFunction.power(1.0 / 3.0),
    PFunction.explog(),
    PFunction.custom(np.geomspace(1e-5, 1e3, 400), np.geomspace(1e-5, 1e3, 400) ** 3),
], ids=["power", "explog", "custom"])
def test_check_condition_matches_the_scalar_loop(p):
    late = 1.01 * DERIV_BETA
    late[6] *= 0.01  # violates from mode 7 only
    verdicts = set()
    for betas in (DERIV_BETA, 1.01 * DERIV_BETA, 0.5 * DERIV_BETA, 0.05 * DERIV_BETA, late):
        for K in (1, 7, 50):
            expected = _condition_by_loop(TRI_LAM, betas, p, K)
            assert check_condition(TRI_LAM, betas, p, K) == expected
            verdicts.add(expected)
    assert (True, None) in verdicts and (False, 7) in verdicts


@pytest.mark.parametrize("p, tabulated", [
    (PFunction.power(0.25), False),
    (PFunction.explog(), False),
    (PFunction.custom(np.linspace(0.1, 1.0, 10), np.linspace(0.1, 1.0, 10) ** 2), True),
], ids=["power", "explog", "custom"])
def test_p_eval_on_arrays_matches_scalar_calls(p, tabulated):
    r = np.array([0.0, 0.1, 0.25, 0.5, 1.0])
    values = p_eval(p, r)
    assert isinstance(values, np.ndarray) and values.shape == r.shape
    scalars = [p_eval(p, float(x)) for x in r]
    assert all(type(v) is float for v in scalars)
    np.testing.assert_allclose(values, scalars, rtol=1e-15, atol=0.0)
    assert values[0] == 0.0 and scalars[0] == 0.0
    with pytest.raises(ValueError):
        p_eval(p, np.array([0.5, -1e-3]))
    if tabulated:
        with pytest.raises(ValueError, match="tabulated range"):
            p_eval(p, np.array([0.5, 2.0]))
        assert p_eval(p, 0.0) == 0.0  # below the table, but p(0) = 0 exactly


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
    for eps, E in ((1e-2, 1e-300), (1e-2, 1e308), (1e-7, 1e150)):  # (eps/E)^2 not normal
        with pytest.raises(ValueError, match=r"\(eps/E\)\^2 is not a finite, normal double"):
            stability_bound(eps, E, p)


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


@pytest.mark.parametrize("E", [1e-160, 1e-3, 10.0, 1e160])
@pytest.mark.filterwarnings("error")
def test_sup_exact_scales_with_E(E):
    # eps^2 and E^2 over- or underflow at E = 1e+-160; the supremum must not.
    for ratio in (1e-1, 1e-3, 1e-6):
        sup = stability_sup_exact(TRI_LAM, DERIV_BETA, ratio * E, E)
        assert sup == pytest.approx(E * stability_sup_exact(TRI_LAM, DERIV_BETA, ratio, 1.0),
                                    rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_sup_exact_where_lambda_over_eps_squared_overflows():
    # lambda^2 / eps^2 = 1e500: the supremum used to come out 0 with a RuntimeWarning.
    assert stability_sup_exact([1e100], [1.0], 1e-150, 1.0) == pytest.approx(1e-250, rel=1e-15)
    assert stability_sup_exact([1e100, 1.0], [1.0, 2.0], 1e-150, 1.0) == pytest.approx(
        1e-150, rel=1e-15)
    # eps > E, with lambda^2 / eps^2 = 1e-500: the constraint decides, sup = E / beta_1.
    assert stability_sup_exact([1e-100], [4.0], 1e150, 1.0) == pytest.approx(0.25, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_sup_exact_at_tiny_lambda_and_eps():
    # lambda ~ 1e-90 and eps / E = 1e-90 give the supremum of lambda * 1e90 at eps = E.
    # Points scaled by eps^2 sat near 1e-180, where the hull's products underflowed to 0:
    # a division by zero with two modes, a popped hull vertex with more.
    assert stability_sup_exact([1e-90, 1e-92], [0.5, 100.0], 1e-90, 1.0) == pytest.approx(
        1.0000374955471356, rel=1e-15)
    lam = np.array([1.0, 0.9, 0.5, 0.3, 0.1])
    betas = np.array([1.0, 1.5, 3.0, 7.0, 20.0])
    for ratio in (1.0, 0.1, 1e-3):
        assert stability_sup_exact(lam * 1e-90, betas, ratio * 1e-90, 1.0) == pytest.approx(
            stability_sup_exact(lam, betas, ratio, 1.0), rel=1e-14)


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

        # Include the two-mode vertices the theory says are optimal.  The best
        # vertex is the supremum itself when it is attained there, computed
        # another way: 4 ulp absorb the two roundings.
        vertex = float(np.max(np.sqrt(np.minimum(eps**2 / lam**2, E**2 / betas**2))))
        assert best >= vertex * (1.0 - 4 * np.finfo(float).eps)


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

