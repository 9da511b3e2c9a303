"""Comparison functions, the Jensen-style cap, exact suprema, regime fits."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from trunceig import (
    PFunction,
    check_condition,
    classify_continuity,
    p_eval,
    parse_pfunction,
    stability_bound,
    stability_sup_exact,
)
from trunceig.regularize import _validate_eigenvalues, _weights

TRI_LAM = 1.0 / (np.arange(1, 51) * math.pi) ** 2
DERIV_BETA = math.pi * np.arange(1, 51, dtype=float)


def _sup_by_pairs(eigenvalues, beta, eps: float, E: float) -> float:
    """Reference supremum by vertex enumeration, O(K^2) time and memory.

    In u_k = f_k^2 this is a linear program with two resource constraints, so
    the optimum sits on a vertex supported on at most two modes: enumerate
    every single mode and every pair with both constraints active.
    """
    lam = _validate_eigenvalues(eigenvalues)
    if eps <= 0 or E <= 0:
        raise ValueError("need eps > 0 and E > 0")
    K = lam.size
    betas = _weights(beta, K)
    lam2 = lam**2
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
    """Seeded (eigenvalues, beta, eps, E) with at most 200 modes and eps in [1e-7, 1]."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 201))
    lam = np.sort(rng.uniform(1e-6, 1.0, size) ** rng.uniform(1.0, 6.0))[::-1].copy()
    beta = rng.uniform(0.1, 10.0, size) ** rng.uniform(0.5, 3.0)
    if seed % 3 == 0:
        beta = np.sort(beta)  # the usual shape: weights grow with k
    eps = float(10.0 ** rng.uniform(-7.0, 0.0))
    E = float(10.0 ** rng.uniform(-2.0, 1.0))
    K = int(rng.integers(1, size + 1)) if seed % 4 == 0 else size  # a prefix of the modes
    return lam[:K], beta[:K], eps, E


# Points (a_k, b_k) = (lambda_k^2 / eps^2, beta_k^2 / E^2) in degenerate layouts.
SUP_DEGENERATE = {
    "K=1": ([0.3], [2.0], 0.1, 1.0),
    "repeated-points": ([0.5, 0.5, 0.5, 0.2, 0.2], [1.0, 1.0, 1.0, 3.0, 3.0], 0.1, 1.0),
    "point-on-diagonal": ([1.0, 0.5, 0.25], [0.25, 1.0, 8.0], 0.5, 1.0),  # (1, 1)
    "collinear-hull": ([4.0, 3.0, 2.0], [2.0, math.sqrt(11.0), 4.0], 1.0, 1.0),  # b = 20 - a
    "all-noise-bound": ([1.0, 0.5, 0.25], [1.0, 1.0, 1.0], 1e-3, 1.0),
    "all-budget-bound": ([1.0, 0.5, 0.25], [1.0, 2.0, 3.0], 10.0, 1.0),
    "K-prefix": (TRI_LAM[:17], DERIV_BETA[:17], 1e-3, 1.0),
}


SUP_CASES = {**{f"random-{seed}": _random_instance(seed) for seed in range(300)}, **SUP_DEGENERATE}


@pytest.mark.parametrize("instance, grid", [
    pytest.param(case, grid, id=name + ("-grid" if grid else ""))
    for grid in (False, True) for name, case in SUP_CASES.items()
])
def test_sup_exact_matches_pair_enumeration(instance, grid):
    if not grid:
        assert stability_sup_exact(*instance) == pytest.approx(_sup_by_pairs(*instance), rel=1e-12)
        return
    # The grid form: one call, one hull, for six eps around the instance's own.
    lam, beta, eps, E = instance
    eps_grid = eps * np.array([1e2, 1e1, 1.0, 1e-1, 1e-2, 1e-3])
    expected = [_sup_by_pairs(lam, beta, e, E) for e in eps_grid.tolist()]
    assert stability_sup_exact(lam, beta, eps_grid, E).tolist() == pytest.approx(expected, rel=1e-12)


def _sup2_exact(lam, beta, eps: float, E: float) -> Fraction:
    """sup^2 by vertex enumeration in exact rational arithmetic on the given doubles: the
    best single mode, and every pair of modes with both constraints active."""
    lam2 = [Fraction(x) ** 2 for x in lam]
    bet2 = [Fraction(x) ** 2 for x in beta]
    e2, E2 = Fraction(eps) ** 2, Fraction(E) ** 2
    best = max(min(e2 / a, E2 / b) for a, b in zip(lam2, bet2))
    for i in range(len(lam2)):
        for j in range(i + 1, len(lam2)):
            det = lam2[i] * bet2[j] - lam2[j] * bet2[i]
            if det:
                ui = (e2 * bet2[j] - E2 * lam2[j]) / det
                uj = (E2 * lam2[i] - e2 * bet2[i]) / det
                if ui >= 0 and uj >= 0:
                    best = max(best, ui + uj)
    return best


@pytest.mark.parametrize("form", ["scalar", "grid"])
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.filterwarnings("error")
def test_sup_exact_matches_the_exact_oracle_at_wide_scales(seed, form):
    # lambda, beta over 1e+-150, E over 1e+-50 and eps/E over 1e+-150, where _sup_by_pairs
    # overflows: sup^2 against the exact optimum of the linear program.
    rng = np.random.default_rng(seed)
    for _ in range(50):
        K = int(rng.integers(1, 7))
        lam = np.sort(10.0 ** rng.uniform(-150.0, 150.0, K))[::-1].copy()
        beta = 10.0 ** rng.uniform(-150.0, 150.0, K)
        E = float(10.0 ** rng.uniform(-50.0, 50.0))
        grid = E * 10.0 ** rng.uniform(-150.0, 150.0, 6)
        sups = (stability_sup_exact(lam, beta, grid, E).tolist() if form == "grid"
                else [stability_sup_exact(lam, beta, e, E) for e in grid.tolist()])
        for e, sup in zip(grid.tolist(), sups):
            exact = _sup2_exact(lam.tolist(), beta.tolist(), e, E)
            assert float(abs(Fraction(sup) ** 2 - exact) / exact) <= 1e-13


def test_sup_exact_grid_shapes():
    lam, beta = TRI_LAM[:10], DERIV_BETA[:10]
    assert type(stability_sup_exact(lam, beta, 1e-3, 1.0)) is float
    assert type(stability_sup_exact(lam, beta, np.float64(1e-3), 1.0)) is float
    grid = [1e-2, 1e-3, 1e-4]
    sups = stability_sup_exact(lam, beta, grid, 1.0)
    assert isinstance(sups, np.ndarray) and sups.shape == (3,)
    assert sups.tolist() == [stability_sup_exact(lam, beta, e, 1.0) for e in grid]
    assert stability_sup_exact(lam, beta, [], 1.0).shape == (0,)
    with pytest.raises(ValueError, match="^eps must be a float or a 1-d grid$"):
        stability_sup_exact(lam, beta, np.full((2, 3), 1e-3), 1.0)
    # A bad eps in a grid fails as it does alone, naming that eps.
    with pytest.raises(ValueError, match=r"^\(eps/E\)\^2 is not a finite, normal double at "
                                         r"eps = 1e-200, E = 1$"):
        stability_sup_exact(lam, beta, [1e-2, 1e-200, 1e-3], 1.0)
    with pytest.raises(ValueError, match="^need finite eps > 0 and E > 0$"):
        stability_sup_exact(lam, beta, [1e-2, 0.0], 1.0)


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
    assert p.inverse(1e-6) == pytest.approx(1e-2, rel=1e-12)
    assert p_eval(p, 0.0) == 0.0

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
        assert p.inverse(p_eval(p, r)) == pytest.approx(r, rel=1e-12)

    q = PFunction.explog()
    for r in (5e-3, 1e-2, 0.5):
        assert q.inverse(p_eval(q, r)) == pytest.approx(r, rel=1e-12)

    # The defining identity of the inverse: ln r - 2/r = ln(s/4).
    s = 1e-6
    r = q.inverse(s)
    assert math.log(r) - 2.0 / r == pytest.approx(math.log(s / 4.0), rel=1e-12)
    assert r == pytest.approx(0.15030038825137326, rel=1e-12)


def test_explog_underflow_and_domain_cap():
    q = PFunction.explog()
    # exp(-2/r) underflows double precision long before r = 1e-4.
    assert p_eval(q, 1e-4) == 0.0
    cap = p_eval(q, 2.0 / 3.0)
    assert q.inverse(cap) == pytest.approx(2.0 / 3.0, rel=1e-9)
    with pytest.raises(ValueError, match="invertible range"):
        q.inverse(cap * 1.01)


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
    ok, first = check_condition(TRI_LAM, DERIV_BETA, p)
    assert ok and first is None

    ok, first = check_condition(TRI_LAM, 1.01 * DERIV_BETA, p)
    assert ok

    ok, first = check_condition(TRI_LAM, 0.5 * DERIV_BETA, p)
    assert not ok and first == 1


def _condition_by_loop(lam, betas, p):
    """Reference check_condition: one scalar p_eval per mode."""
    for k in range(lam.size):
        if lam[k] ** 2 < betas[k] ** 2 * p_eval(p, 1.0 / betas[k] ** 2) * (1.0 - 1e-9):
            return False, k + 1
    return True, None


@pytest.mark.parametrize("p", [
    PFunction.power(1.0 / 3.0),
    PFunction.explog(),
], ids=["power", "explog"])
def test_check_condition_matches_the_scalar_loop(p):
    late = 1.01 * DERIV_BETA
    late[6] *= 0.01  # violates from mode 7 only
    verdicts = set()
    for betas in (DERIV_BETA, 1.01 * DERIV_BETA, 0.5 * DERIV_BETA, 0.05 * DERIV_BETA, late):
        for K in (1, 7, 50):
            expected = _condition_by_loop(TRI_LAM[:K], betas[:K], p)
            assert check_condition(TRI_LAM[:K], betas[:K], p) == expected
            verdicts.add(expected)
    assert (True, None) in verdicts and (False, 7) in verdicts


@pytest.mark.parametrize("p", [PFunction.power(0.25), PFunction.explog()], ids=["power", "explog"])
def test_p_eval_on_arrays_matches_scalar_calls(p):
    r = np.array([0.0, 0.1, 0.25, 0.5, 1.0])
    values = p_eval(p, r)
    assert isinstance(values, np.ndarray) and values.shape == r.shape
    scalars = [p_eval(p, float(x)) for x in r]
    assert all(type(v) is float for v in scalars)
    np.testing.assert_allclose(values, scalars, rtol=1e-15, atol=0.0)
    assert values[0] == 0.0 and scalars[0] == 0.0
    with pytest.raises(ValueError):
        p_eval(p, np.array([0.5, -1e-3]))


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
    assert stability_sup_exact(lam[:1], betas[:1], 0.3, 1.0) == pytest.approx(0.3)
    assert stability_sup_exact(lam[:1], betas[:1], 3.0, 1.0) == pytest.approx(1.0)
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


def test_classify_continuity_on_computed_sweep():
    grid = np.geomspace(1e-2, 1e-6, 15)
    sups = stability_sup_exact(TRI_LAM, DERIV_BETA, grid, 1.0)
    fit = classify_continuity(grid, sups)
    assert fit.model == "holder"
    assert 0.25 < fit.exponent < 0.40


def test_classify_continuity_validation():
    grid = np.geomspace(0.3, 1e-4, 8)
    with pytest.raises(ValueError):
        classify_continuity(grid[:4], grid[:4])
    with pytest.raises(ValueError, match="^grids must be matching 1-d arrays$"):
        classify_continuity(grid, np.ones(7))
    with pytest.raises(ValueError):
        classify_continuity(grid[::-1].copy(), np.ones(8))
    with pytest.raises(ValueError):
        classify_continuity(grid, np.full(8, 0.7))  # constant: unclassifiable
    with pytest.raises(ValueError):
        classify_continuity(2.0 * np.ones(8), np.ones(8))

