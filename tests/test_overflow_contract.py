"""A decimal oracle for the overflow contract.

Python's decimal module at 50 digits, with exponents up to 1e+-999999,
decides exactly on seeded families whether an input lies in the admissible
class: beta = k^p for p in [-400, 400], eps and E across 1e+-300, and f
entries across 1e+-300 with zeros mixed in.  Each test asserts that the code
reaches the same verdict: ProblemInstance's noise check and budget,
synthesize_problem's exit class (also where its noise sum overflows), both
truncation cutoffs, and check_condition's verdict or its exit-2 gates; and that
weak_pairing's bound, feasibility_check's minimum norm, the residual report's
combined value and entropy's bits are true at every scale.  Tier-1 runs
with warnings as errors, so a leaked RuntimeWarning fails here too.  A
verdict that lies within rounding of its threshold is undecidable in
doubles; such draws are counted, must stay rare, and are not asserted.
"""

import decimal
import functools
import math
import re
from decimal import Decimal as D

import numpy as np
import pytest

from trunceig import (
    InfeasibleSpecError,
    PFunction,
    ProblemInstance,
    check_condition,
    feasibility_check,
    make_noise,
    parse_constraint,
    parse_kernel,
    synthesize_problem,
    truncated_solution,
    truncation_identity,
    truncation_weighted,
    weak_pairing,
    weighted_rule_residuals,
)
from trunceig.cli import main

CTX = decimal.Context(prec=50, Emax=999999, Emin=-999999)
TINY = D(float(np.finfo(float).tiny))
MAX = D(float(np.finfo(float).max))
MACH = D(float(np.finfo(float).eps))
SUBNORMAL = D(5e-324)
REL = D("1e-12")
DRAWS = 1000


@pytest.fixture(autouse=True)
def decimal_context():
    with decimal.localcontext(CTX):
        yield


def _above(lhs, rhs, slop=D(0)):
    """lhs > rhs, or None when they lie within slop plus REL of each other."""
    if abs(lhs - rhs) <= slop + REL * max(abs(lhs), abs(rhs)):
        return None
    return lhs > rhs


def _sum_sq(w, x):
    """sum (w_k x_k)^2 of doubles, exactly."""
    return sum(((D(float(a)) * D(float(b))) ** 2 for a, b in zip(w, x)), D(0))


def _normal_square(x):
    return TINY <= D(float(x)) ** 2 <= MAX


def _family(rng):
    """lambda_k = 2^-k, beta = k^p, f across 1e+-300 with zeros, eps, E.
    lambda f is then exact wherever it is normal, so the noise of the data is
    known exactly and only the checks are put to the test."""
    m = int(rng.integers(1, 41))
    k = np.arange(1, m + 1)
    with np.errstate(over="ignore"):  # inf, or 0 on underflow, beyond the double range
        beta = k ** rng.uniform(-400.0, 400.0)
    f = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-300.0, 300.0, m)
    f[rng.random(m) < 0.3] = 0.0
    lam = 2.0 ** -k
    eps, E = 10.0 ** rng.uniform(-300.0, 300.0, 2)
    return lam, beta, f, float(eps), float(E)


def _instance_oracle(lam, beta, f, g, eps, E):
    """The first check a ProblemInstance fails ('weights', 'noise', 'budget') or
    'ok'; None when a verdict is within rounding.  Every finite E > 0 is admissible."""
    if not np.all((0 < beta) & (beta < math.inf)):
        return "weights"
    noise = sum(((D(float(gk)) - D(float(lk)) * D(float(fk))) ** 2
                 for gk, lk, fk in zip(g, lam, f)), D(0)).sqrt()
    g_norm = _sum_sq(np.ones(lam.size), g).sqrt()
    bound = D(float(eps)) * D(1.0 + 1e-9) + MACH * g_norm
    over = _above(noise, bound, lam.size * SUBNORMAL)  # lambda f rounds if subnormal
    if over is not False:
        return over and "noise"
    over = _above(_sum_sq(beta, f), (D(float(E)) * D(1.0 + 5e-10)) ** 2)
    if over is None:
        return None
    return "budget" if over else "ok"


def _instance_verdict(*args):
    try:
        ProblemInstance(*args, seed=0)
    except ValueError as exc:
        for key, text in (("weights", "constraint weight"), ("noise", "noise norm"),
                          ("budget", "budget exceeded")):
            if text in str(exc):
                return key
        raise
    return "ok"


def _check_instances(cases):
    decided = 0
    for args in cases:
        want = _instance_oracle(*args)
        if want is not None:
            decided += 1
            assert _instance_verdict(*args) == want, args
    return decided


def test_budget_verdict_agrees_with_decimal():
    rng = np.random.default_rng(20160220)
    cases = []
    for i in range(DRAWS):
        lam, beta, f, eps, E = _family(rng)
        if i % 3 == 0 and np.all((0 < beta) & (beta < math.inf)) and np.any(f):
            # E within a relative 1e-3 .. 2e-10 of ||beta f||, on both sides of the slack.
            delta = D(float(rng.choice([-1e-3, 2e-10, 8e-10, 1e-3])))
            E = float(_sum_sq(beta, f).sqrt() / (1 + delta))
            if not 0 < E < math.inf:
                continue
        cases.append((lam, beta, f, lam * f, eps, E))
    verdicts = [_instance_oracle(*args) for args in cases]
    assert _check_instances(cases) >= 0.95 * len(cases)
    assert {"weights", "budget", "ok"} <= set(verdicts)


def test_noise_verdict_agrees_with_decimal():
    rng = np.random.default_rng(1602)
    cases = []
    for _ in range(DRAWS):
        lam, _, f, eps, _ = _family(rng)
        if rng.random() < 0.5:
            f = f * 10.0 ** -rng.uniform(0.0, 300.0)  # data small against the noise
        z = rng.standard_normal(lam.size)
        scale = D(float(rng.choice([0.0, 0.5, 0.9, 1.1, 2.0, 1e3]))) * D(eps)
        norm = _sum_sq(np.ones(z.size), z).sqrt()
        noise = np.array([float(scale * D(float(zk)) / norm) for zk in z])
        cases.append((lam, np.ones(lam.size), f, lam * f + noise, eps, 1.0))
    verdicts = [_instance_oracle(*args) for args in cases]
    assert _check_instances(cases) >= 0.9 * len(cases)
    assert {"noise", "ok"} <= set(verdicts)


def _synthesis_oracle(lam, beta, f, eps, E, tight):
    """'weights', 'zero', 'overflow', 'underflow' or 'ok'; None within rounding.

    No square of E or of a sum decides: f is rescaled by E / ||beta f|| where tight
    or ||beta f|| > E, and refused only where a rescaled entry overflows or the
    rescaled doubles (rounded once here) miss E by more than 5e-10, relatively."""
    if not np.all((0 < beta) & (beta < math.inf)):
        return "weights"
    if tight and not np.any(f):
        return "zero"
    norm, E = _sum_sq(beta, f).sqrt(), D(float(E))
    rescale = tight or _above(norm, E)
    if not rescale:  # None: too close to E to tell whether the code rescales
        return None if rescale is None else "ok"
    scale = E / norm
    over = _above(D(float(np.max(np.abs(f)))) * scale, MAX)
    if over is not False:
        return over and "overflow"
    exact = [D(float(fk)) * scale for fk in f]
    # The code's scale is E / ||beta f|| to a relative 1e-13, so a normal entry differs from
    # this rounding by as much, and a subnormal one by the least subnormal where its exact
    # value lies that close to a rounding midpoint.
    units = [abs(x) / SUBNORMAL for x in exact]
    near = [x < TINY / SUBNORMAL and abs(x % 1 - D("0.5")) <= x * D("1e-13") for x in units]
    slop = D("1e-13") + SUBNORMAL * sum((D(float(bk)) for bk, n in zip(beta, near) if n), D(0)) / E
    scaled = [float(x) for x in exact]
    under = _above(abs(_sum_sq(beta, scaled).sqrt() / E - 1), D("5e-10"), slop)
    if under is not False:
        return under and "underflow"
    return "ok"


def test_synthesis_exit_class_agrees_with_decimal():
    rng = np.random.default_rng(63)
    decided = 0
    seen = set()
    for i in range(DRAWS):
        lam, beta, f, eps, E = _family(rng)
        tight = bool(i % 2)
        if i % 4 == 1 and np.all((0 < beta) & (beta < math.inf)) and np.any(f):
            # ||beta f|| near 1e-162, where the sum of squares leaves the subnormals.
            scale = D(10) ** D(rng.uniform(-166.0, -158.0)) / _sum_sq(beta, f).sqrt()
            f = np.array([float(D(float(fk)) * scale) for fk in f])
        if i % 4 == 3:  # E below 1e-300, down to the subnormals
            E = float(10.0 ** rng.uniform(-323.0, -300.0))
        want = _synthesis_oracle(lam, beta, f, eps, E, tight)
        if want is None:
            continue
        decided += 1
        seen.add(want)
        try:
            inst = synthesize_problem(lam, beta, eps, E, f_coeffs=f, seed=i, tight=tight)
        except InfeasibleSpecError as exc:  # exit 3
            got = next(key for key, text in (("zero", "f is zero"), ("overflow", "f overflows"),
                                             ("underflow", "f underflows")) if text in str(exc))
        except ValueError:  # exit 2
            got = "weights"
        else:
            got = "ok"
            if tight:
                norm = _sum_sq(inst.betas, inst.f_true).sqrt()
                assert abs(norm / D(E) - 1) < D("5e-10"), (norm, E)
        assert got == want, (i, str(want), got)
    assert decided >= 0.95 * DRAWS
    assert seen == {"weights", "zero", "overflow", "underflow", "ok"}


def _cutoff_oracle(lam, beta, eps, E):
    """Largest k with lambda_k E >= eps beta_k (0 if none); None where a verdict lies
    within rounding of its threshold."""
    cutoff = 0
    for k, (lk, bk) in enumerate(zip(lam, beta), 1):
        keep = _above(D(float(lk)) * D(E), D(eps) * D(float(bk)))
        if keep is None:
            return None
        cutoff = k if keep else cutoff
    return cutoff


def test_truncation_rules_agree_with_decimal():
    # eps / E runs across 1e+-630 and lambda_k into the subnormals.  The rules compared
    # lambda_k with the double eps / E, which kept every mode where that ratio rounded
    # to 0 and lost digits where it was subnormal.
    rng = np.random.default_rng(1454)
    decided, seen = 0, set()
    for _ in range(DRAWS):
        m = int(rng.integers(1, 41))
        lam = np.sort(10.0 ** rng.uniform(-320.0, 300.0, m))[::-1]
        beta = 10.0 ** rng.uniform(-300.0, 300.0, m)
        eps, E = (float(x) for x in 10.0 ** rng.uniform(-323.0, 308.0, 2))
        eps = 0.0 if rng.random() < 0.05 else eps
        for got, weights in ((truncation_identity(lam, eps, E), np.ones(m)),
                             (truncation_weighted(lam, beta, eps, E), beta)):
            want = _cutoff_oracle(lam, weights, eps, E)
            if want is not None:
                decided += 1
                seen.add("none" if want == 0 else "all" if want == m else "some")
                assert got == want, (lam, weights, eps, E)
    assert decided >= 0.95 * 2 * DRAWS
    assert seen == {"none", "some", "all"}


@pytest.mark.parametrize("eps, E", [(1e160, 1.0), (1e-3, 1e-160)])
def test_residual_combined_where_eps_over_E_squared_leaves_the_range(eps, E):
    # combined = image^2 + (eps/E)^2 constr^2 formed (eps/E)^2 first: inf at
    # eps/E = 1e160, whose value is 9.87e300, and at 1e157, whose value is 1e-6.
    lam = parse_kernel("triangular").analytic_eigenvalue(np.arange(1.0, 21.0))
    beta = parse_constraint("derivative", 20)
    inst = synthesize_problem(lam, beta, eps, E, f_coeffs=[1e-10], tight=False)
    rec = truncated_solution(inst, "k2")
    diff = [D(float(x)) - D(float(y)) for x, y in zip(inst.f_true, rec.coefficients)]
    want = (sum((D(float(lk)) * dk) ** 2 for lk, dk in zip(lam, diff))
            + (D(eps) / D(E)) ** 2 * sum((D(float(bk)) * dk) ** 2 for bk, dk in zip(beta, diff)))
    assert abs(D(weighted_rule_residuals(inst, rec).combined) / want - 1) < D("1e-14")


def test_synthesis_where_the_noise_scale_overflows():
    # At eps = 1.7e308, eps / ||draws|| overflows, so the noise is scaled as
    # (n / ||n||) (s eps); the data lambda_1 f_1 + n_1, with f_1 = 1e308 (to within
    # rounding of the budget), then overflow at some seeds, and those are exit 3.
    lam, eps = np.array([1.6, 0.4]), 1.7e308
    verdicts = []
    for seed in range(8):
        noise = make_noise(seed, eps, "flat", lam)
        assert D(eps) / 2 <= _sum_sq(np.ones(2), noise).sqrt() <= D(eps) * (1 + REL)
        over = _above(abs(D(1.6) * D(1e308) + D(float(noise[0]))), MAX)
        try:
            inst = synthesize_problem(lam, [1e-158] * 2, eps, 1e150, f_coeffs=[1e308],
                                      tight=False, seed=seed)
        except InfeasibleSpecError as exc:
            assert str(exc).startswith("lambda_k f_k + n_k overflows at k = 1"), exc
            assert over is True
            verdicts.append(3)
        else:
            assert over is False
            assert np.array_equal(inst.g_noisy, lam * inst.f_true + noise)
            verdicts.append(0)
    assert verdicts == [3, 3, 3, 3, 0, 0, 3, 0]


@pytest.mark.parametrize("top", [1e200, 1e-158, 1e-170])
def test_range_compatible_noise_where_its_squares_leave_the_range(top):
    # The plain ||lambda draws|| overflowed at 1e200 (a RuntimeWarning and
    # all-zero noise), underflowed to 0 at 1e-170 (all-zero noise) and lost
    # digits in subnormal squares at 1e-158.  Now, as in range, the noise
    # norm is s eps for the seed's draw s in [1/2, 1).
    lam, eps = top * np.array([1.0, 0.5, 0.1]), 1e-3
    for seed in range(8):
        rng = np.random.default_rng(seed)
        rng.standard_normal(lam.size)
        want = D(rng.uniform(0.5, 1.0)) * D(eps)
        noise = make_noise(seed, eps, "range_compatible", lam)
        assert abs(_sum_sq(np.ones(lam.size), noise).sqrt() / want - 1) < D("1e-15")


def test_weak_pairing_bound_where_its_squares_leave_the_range():
    # lambda_k^2 overflowed at 1e200 (a RuntimeWarning and a bound of 0) and
    # underflowed with (eps/E)^2 at 1e-170 (a division by zero); at 1e-300 and
    # 1e-310, 1 / hypot(lambda_k, eps/E) overflowed.  Now the bound
    # 2 eps sqrt(sum v_k^2 / (lambda_k^2 + (eps/E)^2)) is true at every scale.
    cases = [(top * np.array([1.0, 0.5, 0.1]), 1e-5 * top, 2.0)
             for top in (1e200, 1e150, 1.0, 1e-158, 1e-170, 1e-300, 1e-310)]
    # lambda_k / (eps/E) above 2^1024: bringing eps/E to 1 alone would take
    # lambda_k to inf, its weight to 0 and the bound to 0.
    cases += [(np.array([1e200]), 1e-100, 1e20), (np.array([1.0]), 1e-160, 1e150),
              (np.array([1e300, 1e-300]), 1e-290, 1.0), (np.array([1e300, 1e-300]), 1e-320, 1.0)]
    for lam, eps, E in cases:
        m, v = lam.size, 1.0 / np.arange(1.0, lam.size + 1)
        inst = ProblemInstance(lam, np.ones(m), np.zeros(m), np.zeros(m), eps, E, seed=0)
        _, bound = weak_pairing(inst, truncated_solution(inst, "k1"), v)
        ratio2 = (D(eps) / D(E)) ** 2
        want = 2 * D(eps) * sum(D(vk) ** 2 / (D(lk) ** 2 + ratio2)
                                for lk, vk in zip(lam, v)).sqrt()
        assert abs(D(bound) / want - 1) < D("1e-15"), (lam, eps, E)


def _feasibility_exact(lam, beta, g, eps):
    """min ||beta f|| subject to ||lambda f - g|| <= eps, with ||g|| > eps: f_k =
    lambda_k g_k / (lambda_k^2 + mu beta_k^2) at the mu whose misfit is eps,
    found by bisection on log10 mu."""
    lam, beta, g = ([D(float(v)) for v in arr] for arr in (lam, beta, g))

    def f(mu):
        return [lk * gk / (lk * lk + mu * bk * bk) for lk, bk, gk in zip(lam, beta, g)]

    def misfit(mu):
        return sum(((lk * fk - gk) ** 2 for lk, fk, gk in zip(lam, f(mu), g)), D(0)).sqrt()

    lo, hi = D(-2000), D(2000)
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if misfit(D(10) ** mid) <= D(eps) else (lo, mid)
    return sum(((bk * fk) ** 2 for bk, fk in zip(beta, f(D(10) ** lo))), D(0)).sqrt()


@pytest.mark.parametrize("lam, beta, f, g, eps", [
    ([1e100], [1e-100], [1e-100], [1.05], 0.1),
    ([1e-60], [1e60], [1e-60], [1e-120], 1e-130),
    ([1e200], [1.0], [1e-200], [1.05], 0.1),
    ([1.0], [1e160], [1e-160], [1e-160], 1e-170),
    ([1e-160], [1.0], [1.0], [1e-160], 1e-170),
], ids=["rho-1e200", "rho-1e-120", "lambda-1e200", "beta-1e160", "lambda-1e-160"])
def test_feasibility_where_the_multiplier_leaves_the_range(lam, beta, f, g, eps):
    # The multiplier mu = (lambda / beta)^2 eps / (|g| - eps) lies beyond 2^400
    # or below 2^-200, and in the last three lambda^2 or beta^2 leaves the
    # double range: the bisection on mu raised ConvergenceError (after
    # overflow warnings in two cases) or returned 0.  One mode has the closed
    # form beta (|g| - eps) / lambda.
    inst = ProblemInstance(lam, beta, f, g, eps, 1.0, seed=0)
    res = feasibility_check(inst)
    want = D(beta[0]) * (D(g[0]) - D(eps)) / D(lam[0])
    assert abs(D(res.min_constraint_norm) / want - 1) < D("1e-15")
    assert res.permissible


def test_feasibility_of_two_modes_whose_squares_leave_the_range():
    # lambda_k^2 overflows, beta_k^2 underflows and mu is near 1e600; rho_k =
    # lambda_k / beta_k differ by a factor 2, so both modes share the misfit.
    lam, beta = np.array([1e200, 1e190]), np.array([1e-100, 2e-110])
    f, g, eps = np.array([1e-200, 1e-190]), np.array([1.05, 0.97]), 0.1
    res = feasibility_check(ProblemInstance(lam, beta, f, g, eps, 1.0, seed=0))
    want = _feasibility_exact(lam, beta, g, eps)
    assert abs(D(res.min_constraint_norm) / want - 1) < D("1e-14")
    assert D("1e-301") < want < D("1e-299")


def _p_exact(spec, r):
    kind, gamma = spec
    if kind == "power":
        return (r.ln() * D(1.0 / gamma)).exp()
    return 4 * r * (-2 / r).exp()


@functools.cache
def _condition_cases(seed):
    """Draws for check_condition: (lam, beta, p spec, verdict, p overflows).
    The verdict is a gate message, (ok, first violating k), or None within
    rounding; p overflows where evaluating p in doubles leaves the range."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(DRAWS):
        lam, beta, _, _, _ = _family(rng)
        lam = lam * 10.0 ** rng.uniform(-200.0, 200.0)
        spec = ("explog", None) if rng.random() < 0.3 else ("power", float(rng.uniform(0.05, 0.95)))
        cases.append((lam, beta, spec, *_condition_oracle(lam, beta, spec)))
    return cases


def _condition_oracle(lam, beta, spec):
    if not np.all((0 < beta) & (beta < math.inf)):
        return "one finite, positive constraint weight", False
    for name, x in (("beta_k^2", beta), ("lambda_k^2", lam)):
        bad = [k for k, v in enumerate(x, 1) if not _normal_square(v)]
        if bad:
            return f"{name} is not a finite, normal double at k = {bad[0]}", False
    r = [D(float(v)) for v in 1.0 / beta**2]  # the arguments the code hands p
    p = [_p_exact(spec, rk) for rk in r]
    overflows = any(pk > MAX for pk in p) or (spec[0] == "explog" and any(2 / rk > MAX for rk in r))
    for k, pk in enumerate(p, 1):
        over = _above(pk, MAX)
        if over is not False:
            return over and f"p(beta_k^-2) is not a finite double at k = {k}", overflows
    for k, (lk, bk, pk) in enumerate(zip(lam, beta, p), 1):
        violated = _above(D(float(bk)) ** 2 * pk * D(1.0 - 1e-9), D(float(lk)) ** 2)
        if violated is None:
            return None, overflows
        if violated:
            return (False, k), overflows
    return (True, None), overflows


def _pfunction(spec):
    return PFunction.explog() if spec[0] == "explog" else PFunction.power(spec[1])


def _check_conditions(cases):
    decided = 0
    seen = set()
    for lam, beta, spec, want, _ in cases:
        if want is None:
            continue
        decided += 1
        if isinstance(want, str):
            seen.add(want.split()[0])
            with pytest.raises(ValueError, match=re.escape(want)):
                check_condition(lam, beta, _pfunction(spec))
        else:
            seen.add(want[0])
            assert check_condition(lam, beta, _pfunction(spec)) == want
    assert decided >= 0.95 * len(cases)
    return seen


def test_check_condition_agrees_with_decimal():
    seen = _check_conditions([c for c in _condition_cases(1978) if not c[4]])
    assert seen == {"one", "beta_k^2", "lambda_k^2", True, False}


def test_check_condition_where_p_overflows():
    # A power p above the largest double is an exit-2 gate.  Explog's 2/r
    # overflows where beta_k^2 > max / 2, and gives p = 0, which keeps the verdict.
    explog = [(np.array(lam), np.array([1.0, 1.3e154]), ("explog", None))
              for lam in ([1.0, 0.5], [0.5, 0.4])]
    cases = [c for c in _condition_cases(1978) if c[4]]
    cases += [(*c, *_condition_oracle(*c)) for c in explog]
    assert all(c[4] for c in cases)
    assert _check_conditions(cases) == {"p(beta_k^-2)", True, False}


@pytest.mark.parametrize("argv", [
    ["--E", "1e308"],
    ["--E", "1e200", "--eps-grid", "1e-100,1e-200"],
    ["--eps-grid", "1e-300,5e-324"],
], ids=["E-1e308", "E-1e200", "eps-subnormal"])
def test_entropy_bits_where_E_lambda_over_eps_overflows(capsys, argv):
    # E lambda_k / eps overflows on these grids, and entropy exited 2 ("bit count
    # ... is not finite").  Each printed count is sum log2(E lambda_k / eps) over
    # the kept modes to the 9 digits printed.
    assert main(["entropy", "--constraint", "derivative", *argv]) == 0
    out = capsys.readouterr().out.splitlines()
    E = D(float(argv[argv.index("--E") + 1])) if "--E" in argv else D(1)
    lam = [D(x) for x in 1.0 / (np.arange(1, 101) * math.pi) ** 2]
    default = "1e-2,1e-3,1e-4"  # entropy's --eps-grid
    grid = (argv[argv.index("--eps-grid") + 1] if "--eps-grid" in argv else default).split(",")
    assert len(out) == 1 + len(grid)
    for row in out[1:]:
        eps, k1, bits_k1, k2, bits_k2, _ = row.split(",")
        assert (k1, k2) == ("100", "100")  # E / eps passes every mode
        want = sum((E * x / D(float(eps))).ln() for x in lam) / D(2).ln()
        assert bits_k1 == bits_k2 == f"{float(want):.9g}"
