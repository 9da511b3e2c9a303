"""Truncation rules, problem synthesis, error splitting, convergence bounds."""

import json
import math

import numpy as np
import pytest

from trunceig import (
    Ellipsoid,
    FinitePointSet,
    PFunction,
    ProblemInstance,
    check_condition,
    covering_number_exact,
    ellipsoid_of,
    entropy_lower_bound,
    feasibility_check,
    identity_rule_residuals,
    information_flow_comparison,
    make_noise,
    packing_number_exact,
    parse_constraint,
    prolate_eigenvalues,
    stability_bound,
    stability_sup_exact,
    synthesize_problem,
    truncated_solution,
    truncation_identity,
    truncation_weighted,
    weak_pairing,
    weighted_rule_residuals,
)
from trunceig.errors import InfeasibleSpecError
from trunceig.regularize import _norm, _square

TRI_LAM_80 = 1.0 / (np.arange(1, 81) * math.pi) ** 2
DERIVATIVE_80 = math.pi * np.arange(1, 81, dtype=float)  # beta_k = k pi


def test_truncation_identity_closed_forms():
    # lambda_k = (k pi)^-2 >= eps/E picks k <= sqrt(E/eps)/pi.
    assert truncation_identity(TRI_LAM_80, 1e-2, 1.0) == 3
    assert truncation_identity(TRI_LAM_80, 1e-3, 1.0) == 10
    assert truncation_identity(TRI_LAM_80, 1e-4, 1.0) == 31
    assert truncation_identity(TRI_LAM_80, 1.0, 1.0) == 0
    assert truncation_identity(TRI_LAM_80, 0.0, 1.0) == 80
    # Scaling E is the same as scaling 1/eps.
    assert truncation_identity(TRI_LAM_80, 1e-2, 10.0) == truncation_identity(
        TRI_LAM_80, 1e-3, 1.0
    )


def test_truncation_weighted_closed_form():
    beta = DERIVATIVE_80
    # (k pi)^-2 >= eps k pi picks k <= (eps pi^3)^(-1/3).
    assert truncation_weighted(TRI_LAM_80, beta, 1e-3, 1.0) == 3
    assert truncation_weighted(TRI_LAM_80, beta, 1e-6, 1.0) == 31
    assert truncation_weighted(TRI_LAM_80, beta, 0.0, 1.0) == 80


def test_truncation_is_the_last_index_over_threshold():
    rng = np.random.default_rng(23)
    betas = parse_constraint("power:p=0.7,scale=2", 80)
    for _ in range(200):
        eps = float(10.0 ** rng.uniform(-7, 0))
        E = float(10.0 ** rng.uniform(-1, 1))
        k1 = truncation_identity(TRI_LAM_80, eps, E)
        if k1 > 0:
            assert TRI_LAM_80[k1 - 1] >= eps / E
        if k1 < 80:
            assert TRI_LAM_80[k1] < eps / E
        k2 = truncation_weighted(TRI_LAM_80, betas, eps, E)
        if k2 > 0:
            assert TRI_LAM_80[k2 - 1] >= eps / E * betas[k2 - 1]
        if k2 < 80:
            assert TRI_LAM_80[k2] < eps / E * betas[k2]
        assert k2 <= k1 or betas[min(k2, 79)] < 1.0


def test_truncation_keeps_boundary_ties():
    lam = np.array([1.0, 0.5, 0.25])
    assert truncation_identity(lam, 0.25, 1.0) == 3
    assert truncation_weighted(lam, np.array([1.0, 1.0, 1.0]), 0.25, 1.0) == 3


def test_truncation_where_the_cap_on_the_weights_is_subnormal_or_zero():
    # lambda_1 / (eps / E) = 1e-325 rounds to zero, yet (eps / E) beta_k = 1e305 > lambda_k.
    assert truncation_weighted([1e-20, 1e-21], [1.0, 1.0], 1e304, 0.1) == 0
    assert truncation_identity([1e-20, 1e-21], 1e304, 0.1) == 0
    # Here the cap 2 lambda_1 / (eps / E) = 2e-323 is subnormal and above beta_k = 5e-324.
    assert truncation_weighted([1e-20, 1e-21], [5e-324, 5e-324], 1e302, 0.1) == 1


def test_truncation_input_validation():
    with pytest.raises(ValueError):
        truncation_identity(np.array([1.0, -0.5]), 1e-2, 1.0)
    with pytest.raises(ValueError):
        truncation_identity(np.array([0.5, 1.0]), 1e-2, 1.0)
    with pytest.raises(ValueError):
        truncation_identity(TRI_LAM_80, -1e-2, 1.0)
    with pytest.raises(ValueError):
        truncation_identity(TRI_LAM_80, 1e-2, 0.0)
    with pytest.raises(ValueError):
        truncation_weighted(TRI_LAM_80, np.ones(79), 1e-2, 1.0)
    with pytest.raises(ValueError):
        truncation_weighted(TRI_LAM_80, -np.ones(80), 1e-2, 1.0)


def test_parse_constraint_presets():
    k = np.arange(1, 13, dtype=float)
    assert np.array_equal(parse_constraint("identity", 12), np.ones(12))
    assert parse_constraint("derivative", 12) == pytest.approx(math.pi * k)
    assert parse_constraint("power:p=0.5,scale=3", 12) == pytest.approx(3.0 * np.sqrt(k))
    assert parse_constraint("power:p=1.5", 12) == pytest.approx(k**1.5)  # scale 1
    assert parse_constraint("power:p=-0.5", 12) == pytest.approx(k**-0.5)


def test_parse_constraint_prolate_and_sinc_log():
    pro = parse_constraint("prolate:c=1", 11)
    chi10 = pro[10] ** 2
    assert chi10 == pytest.approx(110.5, abs=0.05)
    assert np.all(np.diff(pro) > 0)  # chi_{k-1} increases with k

    c = 2.0
    vals = parse_constraint("sinc_log:c=2", 20)
    split = math.ceil(math.e * c)
    # Head agrees with the operator weights, tail with the log form.
    assert vals[: split] == pytest.approx(parse_constraint("prolate:c=2", split))
    k_tail = np.arange(split + 1, 21, dtype=float)
    assert vals[split:] == pytest.approx(
        np.sqrt(2.0 * k_tail * np.log(k_tail / (math.e * c)))
    )
    assert np.all(vals > 0)


def test_parse_constraint_grammar():
    k = np.arange(1, 6, dtype=float)
    assert np.array_equal(parse_constraint("identity", 5), np.ones(5))
    assert np.array_equal(parse_constraint("derivative", 5), math.pi * k)
    assert np.array_equal(parse_constraint("power:p=2,scale=0.5", 5), 0.5 * k**2)
    assert np.array_equal(parse_constraint("power:p=1", 5), k)
    chi = prolate_eigenvalues(1.5, 5)
    assert np.array_equal(parse_constraint("prolate:c=1.5", 5), np.sqrt(chi))
    # e c = 27.2 >= 5: every weight comes from the operator.
    assert np.array_equal(parse_constraint("sinc_log:c=10", 5),
                          np.sqrt(prolate_eigenvalues(10.0, 5)))
    for bad in ("power", "power:1", "power:q=2", "prolate", "spline:c=1", "power:p=x",
                "identity:p=99", "derivative:c=5", "power:p=1,zz=3", "sinc_log:c=10,scale=3",
                "power:p=nan", "power:p=inf", "power:p=1,scale=nan", "power:p=1,scale=inf",
                "prolate:c=nan", "prolate:c=inf", "sinc_log:c=nan", "sinc_log:c=inf"):
        with pytest.raises(ValueError):
            parse_constraint(bad, 5)
    with pytest.raises(ValueError, match="repeated power constraint parameter 'p'"):
        parse_constraint("power:p=1,p=2", 5)


def test_make_noise_norm_and_modes():
    lam = TRI_LAM_80[:30]
    for seed in range(25):
        n = make_noise(seed, 1e-3, "flat", lam)
        norm = float(np.linalg.norm(n))
        assert 0.5e-3 <= norm <= 1e-3 + 1e-18
        shaped = make_noise(seed, 1e-3, "range_compatible", lam)
        assert 0.5e-3 <= float(np.linalg.norm(shaped)) <= 1e-3 + 1e-18
        # Shaped draws decay with the spectrum: the ratio n_k/lambda_k stays
        # of one size, so late modes carry almost nothing.
        assert float(np.linalg.norm(shaped[20:])) < 0.1 * float(np.linalg.norm(shaped))

    assert np.array_equal(make_noise(7, 1e-3, "flat", lam), make_noise(7, 1e-3, "flat", lam))
    assert not np.array_equal(make_noise(7, 1e-3, "flat", lam), make_noise(8, 1e-3, "flat", lam))
    assert np.all(make_noise(3, 0.0, "flat", lam) == 0.0)

    with pytest.raises(ValueError):
        make_noise(0, 1e-3, "gaussian", lam)
    with pytest.raises(ValueError):
        make_noise(0, -1e-3, "flat", lam)


def test_synthesize_problem_tight_budget():
    beta = DERIVATIVE_80
    for seed in range(10):
        inst = synthesize_problem(TRI_LAM_80, beta, 1e-3, 1.0,
                                  f_decay=(1.0, 2.0), seed=seed)
        budget = float(np.sum(inst.betas**2 * inst.f_true**2))
        assert budget == pytest.approx(1.0, abs=1e-10)
        assert float(np.linalg.norm(inst.noise)) <= 1e-3
        assert np.array_equal(inst.g_clean, inst.eigenvalues * inst.f_true)
        assert inst.g_noisy == pytest.approx(inst.g_clean + inst.noise, abs=1e-18)


def test_synthesize_problem_coefficient_options():
    # Explicit unit coefficient on the first mode with a tight unit budget
    # needs no rescaling at all.
    inst = synthesize_problem(TRI_LAM_80[:5], np.ones(5), 1e-4, 1.0, f_coeffs=[1.0], seed=1)
    assert np.array_equal(inst.f_true, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))

    # Short coefficient lists are padded with zeros.
    inst = synthesize_problem(TRI_LAM_80[:6], np.ones(6), 1e-4, 2.0, f_coeffs=[1.0, 1.0],
                              seed=1)
    assert np.all(inst.f_true[2:] == 0.0)
    assert float(np.sum(inst.f_true**2)) == pytest.approx(4.0, rel=1e-12)

    # Decay law rescales to the exact budget.
    beta_d = DERIVATIVE_80[:40]
    inst = synthesize_problem(TRI_LAM_80[:40], beta_d, 1e-3, 3.0, f_decay=(1.0, 2.0), seed=2)
    k = np.arange(1, 41, dtype=float)
    ratio = inst.f_true / k**-2.0
    assert np.ptp(ratio) < 1e-10 * abs(ratio[0])
    assert float(np.sum(inst.betas**2 * inst.f_true**2)) == pytest.approx(9.0, abs=1e-10)

    with pytest.raises(InfeasibleSpecError):
        synthesize_problem(TRI_LAM_80[:5], np.ones(5), 1e-3, 1.0, f_coeffs=[0.0, 0.0], seed=0)


def test_synthesize_problem_untight_rescales_only_over_budget():
    lam, beta = TRI_LAM_80[:20], DERIVATIVE_80[:20]
    # f_k = 1 / k^2 has sum beta^2 f^2 = pi^2 sum 1 / k^2, about 15.6 > E^2 = 1.
    inst = synthesize_problem(lam, beta, 1e-3, 1.0, f_decay=(1.0, 2.0), seed=0, tight=False)
    k = np.arange(1, 21, dtype=float)
    ratio = inst.f_true / k**-2.0
    assert np.ptp(ratio) < 1e-12 * ratio[0] and ratio[0] < 1.0
    assert float(np.linalg.norm(inst.betas * inst.f_true)) == pytest.approx(1.0, rel=1e-12)
    # Under budget, f is kept as given.
    inst = synthesize_problem(lam, beta, 1e-3, 10.0, f_decay=(1.0, 2.0), seed=0, tight=False)
    assert np.array_equal(inst.f_true, k**-2.0)
    assert float(np.linalg.norm(inst.betas * inst.f_true)) < 10.0


def test_synthesize_problem_zero_eps_is_noise_free():
    inst = synthesize_problem(TRI_LAM_80[:10], np.ones(10),
                              0.0, 1.0, f_decay=(1.0, 1.0), seed=4)
    assert np.all(inst.noise == 0.0)
    assert np.array_equal(inst.g_noisy, inst.g_clean)


def test_synthesis_rejects_non_finite_eps_or_E_by_name():
    # A NaN eps or E used to surface as "f_true must be finite" or "noise must
    # be finite", or as a NaN noise vector from make_noise itself.
    lam = TRI_LAM_80[:10]
    beta = np.ones(10)
    for eps, E in ((math.nan, 1.0), (math.inf, 1.0), (-1e-3, 1.0), (1e-3, math.nan),
                   (1e-3, math.inf), (1e-3, 0.0)):
        with pytest.raises(ValueError, match=r"^need finite eps >= 0 and E > 0$"):
            synthesize_problem(lam, beta, eps, E, f_decay=(1.0, 1.0), seed=0)
    for eps in (math.nan, math.inf, -1e-3):
        with pytest.raises(ValueError, match=r"^need finite eps >= 0$"):
            make_noise(0, eps, "flat", lam)


def test_every_eps_and_E_taker_makes_the_one_check():
    # Ten functions take a noise bound eps, most with a budget E, and all check them
    # through regularize._check_scales: eps >= 0 where the data can be noise-free,
    # eps > 0 elsewhere, both finite, E > 0.  Before, six messages said this.
    lam, beta = TRI_LAM_80[:10], DERIVATIVE_80[:10]
    inst = synthesize_problem(lam, beta, 1e-3, 1.0, f_decay=(1.0, 2.0), seed=0)
    points = FinitePointSet(np.eye(3))
    takers = {
        "need finite eps >= 0 and E > 0": [
            lambda eps, E: truncation_weighted(lam, beta, eps, E),
            lambda eps, E: ProblemInstance(lam, beta, inst.f_true, inst.f_true * lam, eps, E, 0),
            lambda eps, E: synthesize_problem(lam, beta, eps, E, f_decay=(1.0, 2.0)),
        ],
        "need finite eps > 0 and E > 0": [
            lambda eps, E: stability_bound(eps, E, PFunction.power(0.5)),
            lambda eps, E: stability_sup_exact(lam, beta, eps, E),
            lambda eps, E: information_flow_comparison(lam, beta, eps, E),
        ],
        "need finite eps >= 0": [
            lambda eps, E: make_noise(0, eps, "flat", lam),
            lambda eps, E: packing_number_exact(points, eps),
            lambda eps, E: covering_number_exact(points, eps),
        ],
        "need finite eps > 0": [lambda eps, E: entropy_lower_bound(Ellipsoid(lam), eps)],
    }
    for message, calls in takers.items():
        bad = [(eps, 1.0) for eps in (math.nan, math.inf, -1e-3)]
        bad += [(0.0, 1.0)] if "eps > 0" in message else []
        bad += [(1e-3, E) for E in (math.nan, math.inf, 0.0, -1.0)] if "E > 0" in message else []
        for call in calls:
            for eps, E in bad:
                with pytest.raises(ValueError, match=f"^{message}$"):
                    call(eps, E)
            call(1e-3, 1.0)  # the check passes a good pair


def test_noise_check_where_the_norm_of_the_data_overflows():
    # ||gbar|| = 1.84e308 overflows, and its rounding allowance u ||gbar|| read inf,
    # so noise of norm 1.84e308 passed the bound eps = 1e308.  ||u gbar|| is 4.1e292.
    with pytest.raises(ValueError, match="^noise norm exceeds its stated bound eps$"):
        ProblemInstance([1.0, 1.0], [1.0, 1.0], [9e153, 9e153], [1.3e308, 1.3e308],
                        1e308, 1.34e154, 0)


def test_problem_instance_invariants():
    lam = np.array([0.5, 0.25])
    beta = np.ones(2)
    f = np.array([0.6, 0.2])
    g = lam * f
    noise = np.array([3e-4, -4e-4])
    inst = ProblemInstance(lam, beta, f, g + noise, 1e-3, 1.0, 0)
    assert inst.n_modes == 2
    # The clean data and the noise are derived from the stored fields.
    assert np.array_equal(inst.g_clean, g)
    assert np.array_equal(inst.noise, (g + noise) - g)

    with pytest.raises(ValueError, match="noise norm"):
        ProblemInstance(lam, beta, f, g + noise, 1e-4, 1.0, 0)
    with pytest.raises(ValueError, match="budget"):
        ProblemInstance(lam, beta, f, g + noise, 1e-3, 0.5, 0)
    with pytest.raises(ValueError, match="one entry per mode"):
        ProblemInstance(lam, beta, f[:1], g + noise, 1e-3, 1.0, 0)
    with pytest.raises(ValueError, match="one entry per mode"):
        ProblemInstance(lam, beta, f, (g + noise)[:1], 1e-3, 1.0, 0)
    for bad in ([1.0], [1.0, 1.0, 1.0], [1.0, 0.0], [1.0, math.nan]):
        with pytest.raises(ValueError, match="one finite, positive constraint weight"):
            ProblemInstance(lam, bad, f, g + noise, 1e-3, 1.0, 0)


@pytest.mark.filterwarnings("error")
def test_problem_instance_noise_check_does_not_overflow():
    # ||noise||^2 = 9e400 overflows; the check used to compare inf > inf and
    # accept noise three times its stated bound.
    with pytest.raises(ValueError, match="^noise norm exceeds its stated bound eps$"):
        ProblemInstance([1.0, 0.5], [1, 1], [0, 0], [3e200, 0], 1e200, 1.0, 0)
    inst = ProblemInstance([1.0, 0.5], [1, 1], [0, 0], [6e199, 8e199], 1e200, 1.0, 0)
    assert inst.eps == 1e200
    with pytest.raises(ValueError, match="noise norm"):
        ProblemInstance([1.0, 0.5], [1, 1], [0, 0], [6e199, 8.1e199], 1e200, 1.0, 0)


def test_problem_instance_budget_at_the_largest_E():
    # E (1 + 5e-10) overflows at E = max, and the check passed ||beta f|| = 1e600.
    E = np.finfo(float).max
    with pytest.raises(ValueError, match="budget exceeded"):
        ProblemInstance([1.0], [1e300], [1e300], [1e300], 0.0, E, 0)
    assert ProblemInstance([1.0], [1e300], [1.0], [1.0], 0.0, E, 0).E == E


def test_problem_instance_json_round_trip():
    fields = {"eigenvalues": "eigenvalues", "beta": "betas", "f_true": "f_true",
              "g_noisy": "g_noisy"}
    for noise_mode in ("flat", "range_compatible"):
        for constraint in ("identity", "derivative"):
            for seed in (0, 9, 23, 101):
                inst = synthesize_problem(TRI_LAM_80[:20], parse_constraint(constraint, 20),
                                          1e-3, 1.0, f_decay=(1.0, 2.0), seed=seed,
                                          noise_mode=noise_mode)
                text = inst.to_json()
                raw = json.loads(text)
                assert sorted(raw) == sorted([*fields, "eps", "E", "seed", "noise_mode"])
                # repr floats read back to the very same doubles.
                for key, name in fields.items():
                    assert np.array_equal(raw[key], getattr(inst, name))
                assert (raw["eps"], raw["E"], raw["seed"], raw["noise_mode"]) == (
                    inst.eps, inst.E, inst.seed, inst.noise_mode)
                clone = ProblemInstance.from_json(text)
                for name in (*fields.values(), "g_clean", "noise"):
                    assert np.array_equal(getattr(clone, name), getattr(inst, name))
                assert (clone.eps, clone.E, clone.seed) == (inst.eps, inst.E, inst.seed)
                assert clone.noise_mode == inst.noise_mode
                # Serialization is deterministic byte for byte.
                assert clone.to_json() == text


def test_square_checks_the_range_before_squaring():
    low, high = math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max)
    assert _square(low, "x^2", "eps = 1, E = 2") == np.finfo(float).tiny
    assert _square(-high, "x^2", "eps = 1, E = 2") == high**2
    message = r"^x\^2 is not a finite, normal double at eps = 1, E = 2$"
    for bad in (math.nextafter(low, 0.0), math.nextafter(high, math.inf), 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=message):
            _square(bad, "x^2", "eps = 1, E = 2")
    weights = np.array([1.0, 2.0, 1e200, 1e-200])
    assert np.array_equal(_square(weights[:2], "beta_k^2"), [1.0, 4.0])
    with pytest.raises(ValueError, match=r"^beta_k\^2 is not a finite, normal double at k = 3$"):
        _square(weights, "beta_k^2")
    with pytest.raises(ValueError, match=r"at k = 4$"):
        _square(weights[[0, 1, 1, 3]], "beta_k^2")


def test_norm_scales_by_powers_of_two():
    rng = np.random.default_rng(1978)
    for _ in range(50):
        x = rng.standard_normal(60) * 10.0 ** rng.uniform(-70, 70, 60)
        w = 10.0 ** rng.uniform(-70, 70, 60)
        assert _norm(x, w) == math.sqrt(float(np.sum(w**2 * x**2)))  # bit for bit in range
        assert _norm(x, float(w[0])) == math.sqrt(float(np.sum(np.full(60, w[0]) ** 2 * x**2)))
        assert _norm(x) == math.sqrt(float(np.sum(x**2)))
    # beta^2 overflows and f^2 underflows here.
    assert _norm(np.array([1e-200]), np.array([1e200])) == pytest.approx(1.0, rel=1e-15)
    assert _norm(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)
    assert _norm(np.array([3e-300, 4e-300]), 1e-20) == pytest.approx(5e-320, rel=1e-3)
    assert _norm(np.array([1e300, 1e300]), 1e10) == math.inf
    assert _norm(np.zeros(3), 1e300) == 0.0
    assert _norm(np.zeros(0)) == 0.0
    # A stack gives each row's norm bit for bit: 0 for a zero row, inf above the range.
    stack = rng.standard_normal((20, 60)) * 10.0 ** rng.uniform(-300, 300, (20, 60))
    stack[3], stack[7] = 0.0, 1.7e308
    for w in (1.0, 1e10, 10.0 ** rng.uniform(0, 70, 60)):
        norms = _norm(stack, w)
        assert norms.shape == (20,) and norms[3] == 0.0 and norms[7] == math.inf
        assert np.array_equal(norms, [_norm(row, w) for row in stack])


def test_derived_noise_allows_for_the_rounding_of_g_noisy():
    # At eps = 1e-18 the noise is below the rounding of g_noisy = lambda f +
    # noise, so g_noisy - lambda f can exceed eps by a rounding error.  Such
    # an instance used to fail its own round trip through the file.
    k = np.arange(1, 101, dtype=float)
    lam, beta = 1.0 / (k * math.pi) ** 2, math.pi * k
    for seed in range(30):
        for eps in (1e-14, 1e-16, 1e-18, 1e-20):
            inst = synthesize_problem(lam, beta, eps, 1.0, f_decay=(1.0, 2.0), seed=seed)
            clone = ProblemInstance.from_json(inst.to_json())
            assert np.array_equal(clone.noise, inst.noise)
    inst = synthesize_problem(lam, beta, 1e-18, 1.0, f_decay=(1.0, 2.0), seed=21)
    assert float(np.linalg.norm(inst.noise)) > 1e-18
    # Noise above eps by more than that rounding is still rejected.
    noisy = inst.g_clean.copy()
    noisy[0] += 1e-14
    with pytest.raises(ValueError, match="noise norm"):
        ProblemInstance(lam, beta, inst.f_true, noisy, 1e-15, 1.0, 0)


def test_problem_instance_reads_seventeen_digit_files():
    # Instance files written with every float as "%.17g" load to the same
    # arrays as the repr-float files written now.
    inst = synthesize_problem(TRI_LAM_80[:12], DERIVATIVE_80[:12], 0.1, 2.0,
                              f_decay=(1.0, 2.0), seed=5)

    def array(values):
        return "[\n" + ",\n".join(f"    {v:.17g}" for v in values) + "\n  ]"

    old = (
        "{\n"
        f'  "eigenvalues": {array(inst.eigenvalues)},\n'
        f'  "beta": {array(inst.betas)},\n'
        f'  "f_true": {array(inst.f_true)},\n'
        f'  "g_noisy": {array(inst.g_noisy)},\n'
        f'  "eps": {inst.eps:.17g},\n'
        f'  "E": {inst.E:.17g},\n'
        f'  "seed": {inst.seed},\n'
        f'  "noise_mode": "{inst.noise_mode}"\n'
        "}\n"
    )
    assert '"eps": 0.10000000000000001,' in old and '"E": 2,' in old
    assert json.loads(old) == json.loads(inst.to_json())
    clone = ProblemInstance.from_json(old)
    for name in ("eigenvalues", "betas", "f_true", "g_noisy", "g_clean", "noise"):
        assert np.array_equal(getattr(clone, name), getattr(inst, name))
    assert (clone.eps, clone.E, clone.seed, clone.noise_mode) == (0.1, 2.0, 5, "flat")
    assert clone.to_json() == inst.to_json()


def test_truncated_solution_shapes_and_rules():
    inst = synthesize_problem(TRI_LAM_80, DERIVATIVE_80,
                              1e-3, 1.0, f_decay=(1.0, 2.0), seed=3)
    rec1 = truncated_solution(inst, "k1")
    rec2 = truncated_solution(inst, "k2")
    assert rec1.cutoff == truncation_identity(inst.eigenvalues, inst.eps, inst.E)
    assert rec2.cutoff == truncation_weighted(inst.eigenvalues, inst.betas, inst.eps, inst.E)
    assert rec2.cutoff <= rec1.cutoff

    for rec in (rec1, rec2):
        assert np.all(rec.coefficients[rec.cutoff:] == 0.0)
        # Within the cutoff the reconstruction solves lambda f = gbar.
        assert inst.eigenvalues[: rec.cutoff] * rec.coefficients[: rec.cutoff] == pytest.approx(
            inst.g_noisy[: rec.cutoff], rel=1e-15
        )
        # Re-applying the truncation formula to the data changes nothing.
        again = inst.g_noisy[: rec.cutoff] / inst.eigenvalues[: rec.cutoff]
        assert np.array_equal(again, rec.coefficients[: rec.cutoff])

    with pytest.raises(ValueError):
        truncated_solution(inst, "identity")


def test_truncated_solution_noise_free_single_mode():
    lam = TRI_LAM_80[:5]
    inst = synthesize_problem(lam, np.ones(5), 0.0, 1.0,
                              f_coeffs=[1.0], seed=0)
    rec = truncated_solution(inst, "k1")
    assert rec.cutoff == 5  # eps = 0 keeps everything
    assert np.array_equal(rec.coefficients, inst.f_true)


def test_truncated_solution_empty_cutoff():
    lam = TRI_LAM_80[:5]
    f = np.zeros(5)
    f[0] = 1e-3
    inst = ProblemInstance(lam, np.ones(5), f, lam * f, 0.9, 1.0, 0)
    rec = truncated_solution(inst, "k1")
    assert rec.cutoff == 0
    assert np.all(rec.coefficients == 0.0)


def test_feasibility_single_mode_closed_form():
    lam = np.array([0.5])
    beta = np.array([2.0])
    f = np.array([0.3])
    noise = np.array([0.04])
    inst = ProblemInstance(lam, beta, f, lam * f + noise, 0.05, 1.0, 0)
    res = feasibility_check(inst)
    # min |beta f| subject to |lambda f - gbar| <= eps is beta (gbar - eps) / lambda.
    expected = 2.0 * (0.19 - 0.05) / 0.5
    assert res.min_constraint_norm == pytest.approx(expected, rel=1e-9)
    assert res.permissible

    # Data within eps of zero: the zero solution is admissible.
    quiet = ProblemInstance(lam, beta, np.array([0.1]), np.array([0.01]), 0.05, 1.0, 0)
    res = feasibility_check(quiet)
    assert res == type(res)(True, 0.0)


def test_feasibility_matches_boundary_search():
    # Two modes: scan the active-constraint boundary directly.
    lam = np.array([0.8, 0.2])
    betas = np.array([1.0, 3.0])
    f = np.array([0.5, 0.4])
    noise = np.array([0.06, -0.03])
    g = lam * f
    inst = ProblemInstance(lam, betas, f, g + noise, 0.1, 3.0, 0)
    res = feasibility_check(inst)

    theta = np.linspace(0.0, 2.0 * math.pi, 400_001)
    u = np.stack([np.cos(theta), np.sin(theta)])
    cand = (inst.g_noisy[:, None] + 0.1 * u) / lam[:, None]
    norms = np.sqrt(np.sum((betas[:, None] * cand) ** 2, axis=0))
    assert res.min_constraint_norm == pytest.approx(float(np.min(norms)), rel=1e-6)
    assert res.permissible == (res.min_constraint_norm <= 3.0)


def test_synthesized_problems_are_permissible():
    for seed in range(20):
        inst = synthesize_problem(TRI_LAM_80[:40], DERIVATIVE_80[:40],
                                  1e-3, 1.0, f_decay=(1.0, 2.0), seed=seed)
        res = feasibility_check(inst)
        assert res.permissible
        assert res.min_constraint_norm <= 1.0 + 1e-9


def test_error_splitting_reports():
    for seed in range(25):
        inst = synthesize_problem(TRI_LAM_80, DERIVATIVE_80,
                                  1e-3, 1.0, f_decay=(1.0, 2.0), seed=seed)
        rec1 = truncated_solution(inst, "k1")
        rec2 = truncated_solution(inst, "k2")
        rep1 = identity_rule_residuals(inst, rec1)
        rep2 = weighted_rule_residuals(inst, rec2)
        for rep in (rep1, rep2):
            assert rep.ok
            assert rep.image_residual <= math.sqrt(2.0) * inst.eps * (1 + 1e-12)
            assert rep.constraint_residual <= math.sqrt(2.0) * inst.E * (1 + 1e-12)
            assert rep.combined <= 4.0 * inst.eps**2 * (1 + 1e-12)

    inst = synthesize_problem(TRI_LAM_80, DERIVATIVE_80,
                              1e-3, 1.0, f_decay=(1.0, 2.0), seed=0)
    with pytest.raises(ValueError):
        weighted_rule_residuals(inst, truncated_solution(inst, "k1"))
    with pytest.raises(ValueError):
        identity_rule_residuals(inst, truncated_solution(inst, "k2"))


def test_residual_report_allows_rounding_but_no_absolute_slack():
    # The report's slack was 1e-12 max(1, bound): at eps = 1e-14 that passed an
    # image residual ten times its bound sqrt(2) eps.
    eps = 1e-14
    inst = synthesize_problem(TRI_LAM_80, DERIVATIVE_80, eps, 1.0, f_decay=(1.0, 2.0), seed=0)
    rec = truncated_solution(inst, "k2")
    assert weighted_rule_residuals(inst, rec).ok
    rec.coefficients[0] += 10.0 * math.sqrt(2.0) * eps / TRI_LAM_80[0]
    report = weighted_rule_residuals(inst, rec)
    assert report.image_residual == pytest.approx(10.0 * math.sqrt(2.0) * eps, rel=0.01)
    assert not report.ok


def test_residual_report_where_the_norm_of_fhat_overflows():
    # ||lambda fhat|| = 2e308 overflows; its rounding allowance u ||lambda fhat|| read
    # inf, so the inf image residual of this reconstruction passed.  ||u lambda fhat||
    # is 4.4e292.
    inst = ProblemInstance(np.ones(4), np.ones(4), np.zeros(4), np.zeros(4), 1e-3, 1.0, 0)
    rec = truncated_solution(inst, "k2")
    rec.coefficients[:] = 1e308
    report = weighted_rule_residuals(inst, rec)
    assert report.image_residual == math.inf
    assert not report.ok


def test_weak_pairing_on_a_noise_free_instance_makes_the_one_check():
    lam = TRI_LAM_80[:10]
    inst = ProblemInstance(lam, np.ones(10), np.zeros(10), np.zeros(10), 0.0, 1.0, 0)
    with pytest.raises(ValueError, match="^need finite eps > 0$"):
        weak_pairing(inst, truncated_solution(inst, "k1"), np.zeros(10))


def test_weak_pairing_basics():
    inst = synthesize_problem(TRI_LAM_80, DERIVATIVE_80,
                              1e-3, 1.0, f_decay=(1.0, 2.0), seed=5)
    rec = truncated_solution(inst, "k1")
    pairing, bound = weak_pairing(inst, rec, np.zeros(80))
    assert (pairing, bound) == (0.0, 0.0)

    with pytest.raises(ValueError):
        weak_pairing(inst, rec, np.zeros(79))


def test_weak_pairing_noise_free_first_mode():
    lam = TRI_LAM_80[:10]
    f = np.zeros(10)
    f[0] = 0.5
    g = lam * f
    inst = ProblemInstance(lam, np.ones(10), f, g, 1e-4, 1.0, 0)
    rec = truncated_solution(inst, "k1")
    assert rec.cutoff >= 1
    v = np.zeros(10)
    v[0] = 1.0
    pairing, bound = weak_pairing(inst, rec, v)
    assert pairing == 0.0
    assert bound > 0.0


def test_weak_pairing_bound_holds_and_decays():
    # The pairing against any fixed probe is controlled, and the control
    # tightens as the noise level drops.
    v = 1.0 / np.arange(1, 81, dtype=float)
    beta = DERIVATIVE_80
    last_bound = math.inf
    for eps in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4):
        inst = synthesize_problem(TRI_LAM_80, beta, eps, 1.0,
                                  f_decay=(1.0, 2.0), seed=7)
        rec = truncated_solution(inst, "k1")
        pairing, bound = weak_pairing(inst, rec, v)
        assert pairing <= bound * (1.0 + 1e-9)
        assert bound < last_bound
        last_bound = bound


# Every entry point that takes the weight sequence beta follows one contract:
# an array holds exactly one finite, positive weight per eigenvalue.
LAM_5 = TRI_LAM_80[:5]
BETA_TAKERS = {
    "truncation_weighted": lambda b: truncation_weighted(LAM_5, b, 1e-3, 1.0),
    "check_condition": lambda b: check_condition(LAM_5, b, PFunction.power(1.0 / 3.0)),
    "stability_sup_exact": lambda b: stability_sup_exact(LAM_5, b, 1e-3, 1.0),
    "ellipsoid_of": lambda b: ellipsoid_of(LAM_5, b, 1.0),
    "information_flow_comparison": lambda b: information_flow_comparison(LAM_5, b, 1e-3, 1.0),
}
BAD_WEIGHTS = {
    "zero": [1.0, 2.0, 0.0, 4.0, 5.0],
    "negative": [1.0, 2.0, -3.0, 4.0, 5.0],
    "nan": [1.0, 2.0, math.nan, 4.0, 5.0],
    "one_too_few": [1.0, 2.0, 3.0, 4.0],
    "one_too_many": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
}


@pytest.mark.parametrize("bad", sorted(BAD_WEIGHTS))
@pytest.mark.parametrize("taker", sorted(BETA_TAKERS))
def test_beta_takers_reject_bad_weights(taker, bad):
    BETA_TAKERS[taker](np.arange(1.0, 6.0))  # the valid sequence is accepted
    with pytest.raises(ValueError):
        BETA_TAKERS[taker](np.array(BAD_WEIGHTS[bad]))
