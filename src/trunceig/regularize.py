"""Truncated eigenfunction-expansion regularization.

Everything here works in coefficient space: a diagonal operator with positive
eigenvalues lambda_k (non-increasing), data coefficients gbar_k = lambda_k f_k
+ n_k with noise bound ||n|| <= eps, and an a-priori constraint
sum_k beta_k^2 f_k^2 <= E^2.  The constraint enters only through its weights:
every function that takes them takes one array beta_1 .. beta_m, one finite,
positive weight per eigenvalue, and parse_constraint turns a constraint
string into that array.  The two truncation rules keep the modes whose
eigenvalues survive comparison against the noise-to-signal ratio eps/E,
either plainly (beta = 1) or weighted by beta_k, and simple division
recovers the retained coefficients.

A ProblemInstance holds only the fields of its JSON file (eigenvalues, betas,
f_true, g_noisy, eps, E, seed, noise_mode); g_clean and noise are derived.

One overflow contract decides whether an input lies in the admissible class.
A square of user-scale data ((eps/E)^2, and in the stability layer beta_k^2 and
lambda_k^2) is formed by _square, which first checks that every |x| lies in
[sqrt(tiny), sqrt(max)] and otherwise raises a ValueError naming the quantity
and the first bad mode k (or eps and E).  A sum of squares is read through its
root, from _norm, which forms ||w x|| = r 2^h in exact powers of two (_norm_pair)
and scales back with _ldexp: bit for bit sqrt(sum(w^2 x^2)) in range, and inf,
not nan, beyond it.  The budget ||beta f|| <= E, the noise check, the rescaling
in synthesize_problem, feasibility_check's misfit and minimum, the residual
norms, weak_pairing's bound and infotheory's point distances all go through it,
and the truncation rules compare lambda_k E with eps beta_k from mantissas, so
they compare true values at every finite E > 0 and print no warning.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InfeasibleSpecError
from .kernels import _from_json, _preset

__all__ = [
    "parse_constraint",
    "ProblemInstance",
    "Reconstruction",
    "ResidualReport",
    "FeasibilityResult",
    "truncation_identity",
    "truncation_weighted",
    "truncated_solution",
    "make_noise",
    "synthesize_problem",
    "feasibility_check",
    "weighted_rule_residuals",
    "identity_rule_residuals",
    "weak_pairing",
]

_SQRT_TINY, _SQRT_MAX = math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max)


def parse_constraint(text: str, count: int) -> np.ndarray:
    """Weights beta_1 .. beta_count of a constraint string.

    'identity' gives beta_k = 1, 'derivative' beta_k = k pi (the
    first-derivative constraint in the sine basis), 'power:p=1[,scale=s]'
    beta_k = s k^p, and 'prolate:c=1' beta_k^2 = chi_{k-1}(c), the
    commuting-operator constraint.  'sinc_log:c=10' is its asymptotic form
    for the bandlimited case: beta_k^2 = 2 k ln(k / (e c)) for k above
    ceil(e c), and chi_{k-1} below that, where the logarithm is not positive.
    """
    head, params = _preset(text, "constraint", {
        "identity": ((), ()), "derivative": ((), ()), "power": (("p",), ("scale",)),
        "prolate": (("c",), ()), "sinc_log": (("c",), ())})
    k = np.arange(1, count + 1, dtype=float)
    if head == "identity":
        return np.ones(count)
    if head == "derivative":
        return math.pi * k
    if head == "power":
        p, scale = params["p"], params.get("scale", 1.0)
        if not (-math.inf < p < math.inf and 0 < scale < math.inf):
            raise ValueError("power constraint needs a finite p and a finite scale > 0")
        with np.errstate(over="ignore"):
            beta = scale * k**p
        if not np.all(np.isfinite(beta) & (beta > 0)):
            raise ValueError(f"power constraint p = {p:g}, scale = {scale:g} gives weights "
                             f"scale*k^p that are not finite and positive for k <= {count}")
        return beta
    c = params["c"]
    # prolate_eigenvalues checks c, and gives every weight unless 0 < e c < count (compared
    # as floats: ceil(e c) overflows near the float limit, and fails on a NaN).
    split = count if head == "prolate" or not 0 < math.e * c < count else math.ceil(math.e * c)
    tail = k[split:]
    return np.concatenate([
        np.sqrt(kernels.prolate_eigenvalues(c, split)),
        np.sqrt(2.0 * tail * np.log(tail / (math.e * c))),
    ])


def _validate_eigenvalues(eigenvalues) -> np.ndarray:
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigenvalues must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    if np.any(lam <= 0):
        raise ValueError("eigenvalues must be positive")
    if np.any(np.diff(lam) > 1e-12 * float(lam[0])):
        raise ValueError("eigenvalues must be non-increasing")
    return lam


def _check_scales(eps: float, E: float | None = None, *, noise_free: bool = False) -> None:
    """The one check of a noise bound eps and, where given, a budget E: both finite,
    E > 0, and eps > 0, or eps >= 0 where a rule or an instance can be noise-free."""
    if not (0 <= eps < math.inf and (noise_free or eps > 0) and (E is None or 0 < E < math.inf)):
        raise ValueError(f"need finite eps {'>=' if noise_free else '>'} 0"
                         + ("" if E is None else " and E > 0"))


def _weights(beta, size: int) -> np.ndarray:
    """Constraint weights beta_1 .. beta_size for `size` eigenvalues.

    The one rule for what a constraint argument may be: an array holding
    exactly one finite, positive weight per eigenvalue.
    """
    try:
        betas = np.asarray(beta, dtype=float)
    except (TypeError, ValueError):
        betas = None
    if betas is None or betas.shape != (size,) or not np.all(np.isfinite(betas) & (betas > 0)):
        raise ValueError("need one finite, positive constraint weight per eigenvalue")
    return betas


def _square(x, what: str, where: str = ""):
    """x**2 of a float or an array once every |x| lies in [_SQRT_TINY, _SQRT_MAX], where
    x**2 is a finite, normal double; else a ValueError naming what and where (default: k)."""
    bad = np.flatnonzero(~((_SQRT_TINY <= np.abs(x)) & (np.abs(x) <= _SQRT_MAX)))
    if bad.size:
        raise ValueError(f"{what} is not a finite, normal double at {where or f'k = {bad[0] + 1}'}")
    return x**2


def _ldexp(x, e):
    """x 2^e for x >= 0 (a float or an array), inf with no warning above the largest double."""
    mant, exp = np.frexp(x)
    # mant 2^1024 is finite for a mantissa in [1/2, 1), so only the clamped entries are inf.
    out = np.where(exp + e <= 1024, np.ldexp(mant, np.minimum(exp + e, 1024)), math.inf)
    return float(out) if out.ndim == 0 else out


def _norm_pair(x, w=1.0):
    """(r, h) with ||w x|| = r 2^h over the last axis (w a float or weights that broadcast
    against x), summed from mantissas at the largest power of two: r is 0 or in [1/4, sqrt(n))."""
    (mx, ex), (mw, ew) = np.frexp(x), np.frexp(w)
    terms, exp = (mw * mw) * (mx * mx), 2 * (ex + ew)
    # top is even, so the root scales by 2^(top/2); no nonzero term has 2(e_x + e_w) < -4400.
    top = np.max(exp, axis=-1, where=terms != 0, initial=-4400, keepdims=True)
    return np.sqrt(np.sum(np.ldexp(terms, exp - top), axis=-1)), top[..., 0] // 2


def _norm(x, w=1.0):
    """||w x|| from _norm_pair: bit for bit sqrt(sum(w^2 x^2)) in range, and inf with no
    warning above.  A vector gives a float, a stack an array."""
    return _ldexp(*_norm_pair(x, w))


def _bisect(below, lo: float, hi: float) -> float:
    """Bisect [lo, hi], where below(lo) holds and below(hi) does not, until its
    midpoint no longer splits it (at most 200 halvings); return that midpoint."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def truncation_identity(eigenvalues, eps: float, E: float) -> int:
    """Largest k with lambda_k >= eps / E (0 if none): the beta = 1 case of
    truncation_weighted."""
    return truncation_weighted(eigenvalues, np.ones(np.size(eigenvalues)), eps, E)


def truncation_weighted(eigenvalues, beta, eps: float, E: float) -> int:
    """Largest k with lambda_k >= (eps / E) * beta_k (0 if none), decided as lambda_k E >=
    eps beta_k on mantissas and exponents, so neither eps / E nor a product has to be a double."""
    lam = _validate_eigenvalues(eigenvalues)
    _check_scales(eps, E, noise_free=True)
    (ml, el), (mb, eb), (mE, eE), (me, ee) = map(np.frexp, (lam, _weights(beta, lam.size), E, eps))
    # Both mantissa products lie in [1/4, 1) (eps beta_k may be 0): a gap of 2 exponents decides.
    hits = np.nonzero(np.ldexp(ml * mE, np.clip(el + eE - eb - ee, -2, 2)) >= me * mb)[0]
    return int(hits[-1] + 1) if hits.size else 0


@dataclass
class ProblemInstance:
    """A synthetic coefficient-space inverse problem.

    Holds the fields of its JSON file: the eigenvalues, the constraint
    weights betas (one per mode), the exact solution f_true, the noisy data
    g_noisy, the noise bound eps, the constraint budget E, the seed and the
    noise mode.  g_clean = lambda * f_true and noise = g_noisy - g_clean are
    derived, and ||noise|| <= eps and ||beta f|| <= E are checked by _norm.
    """

    eigenvalues: np.ndarray
    betas: np.ndarray
    f_true: np.ndarray
    g_noisy: np.ndarray
    eps: float
    E: float
    seed: int
    noise_mode: str = "flat"

    def __post_init__(self):
        self.eigenvalues = _validate_eigenvalues(self.eigenvalues)
        m = self.eigenvalues.size
        self.betas = _weights(self.betas, m)
        for name in ("f_true", "g_noisy"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (m,):
                raise ValueError(f"{name} must have one entry per mode")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, arr)
        _check_scales(self.eps, self.E, noise_free=True)
        # noise = g_noisy - lambda f is known to the rounding u ||gbar||, read as ||u gbar||.
        rounding = _norm(self.g_noisy, np.finfo(float).eps)
        if not _norm(self.noise) <= self.eps * (1.0 + 1e-9) + rounding:
            raise ValueError("noise norm exceeds its stated bound eps")
        # The slack divides the norm: E (1 + 5e-10) overflows, and passes any norm, near max.
        if not _norm(self.f_true, self.betas) / (1.0 + 5e-10) <= self.E:
            raise ValueError("constraint budget exceeded: sum beta^2 f^2 > E^2")

    @property
    def n_modes(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def g_clean(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # an infinite entry fails the noise check
            return self.eigenvalues * self.f_true

    @property
    def noise(self) -> np.ndarray:
        return self.g_noisy - self.g_clean

    def to_json(self) -> str:
        payload = {
            "eigenvalues": self.eigenvalues.tolist(),
            "beta": self.betas.tolist(),
            "f_true": self.f_true.tolist(),
            "g_noisy": self.g_noisy.tolist(),
            "eps": self.eps,
            "E": self.E,
            "seed": self.seed,
            "noise_mode": self.noise_mode,
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ProblemInstance":
        def build(lam, beta, f_true, g_noisy, eps, E, seed, noise_mode):
            return cls(lam, beta, f_true, g_noisy, float(eps), float(E), int(seed), str(noise_mode))

        return _from_json(json.loads(text), "instance", ("eigenvalues", "beta", "f_true",
                          "g_noisy", "eps", "E", "seed", "noise_mode"), build)


@dataclass
class Reconstruction:
    """Truncated inversion of noisy data: coefficients gbar_k / lambda_k up to
    the cutoff, zero beyond it."""

    rule: str
    cutoff: int
    coefficients: np.ndarray


def truncated_solution(instance: ProblemInstance, rule: str) -> Reconstruction:
    """Invert the data on the modes kept by a truncation rule.

    rule "k1" compares eigenvalues against eps/E directly; rule "k2" weights
    the comparison by beta_k.
    """
    lam = instance.eigenvalues
    if rule == "k1":
        cutoff = truncation_identity(lam, instance.eps, instance.E)
    elif rule == "k2":
        cutoff = truncation_weighted(lam, instance.betas, instance.eps, instance.E)
    else:
        raise ValueError("rule must be 'k1' or 'k2'")
    (mg, eg), (ml, el) = np.frexp(instance.g_noisy[:cutoff]), np.frexp(lam[:cutoff])
    bad = np.flatnonzero((np.frexp(mg / ml)[1] + eg - el > 1024) & (mg != 0))  # as for lambda f
    if bad.size:
        raise ValueError(f"fhat_k = gbar_k / lambda_k overflows at k = {bad[0] + 1}")
    coeff = np.zeros(lam.size)
    coeff[:cutoff] = instance.g_noisy[:cutoff] / lam[:cutoff]
    return Reconstruction(rule, cutoff, coeff)


def make_noise(seed: int, eps: float, mode: str, eigenvalues) -> np.ndarray:
    """Seeded noise vector with ||n|| uniformly drawn in [eps/2, eps].

    "flat" spreads i.i.d. normal draws over every mode; "range_compatible"
    shapes the draws by lambda_k, so the noise lives where the operator range
    does.  Where the plain sum of squares of the shaped draws is not a finite,
    normal double (it overflows, or underflows and loses digits), _norm gives
    their norm.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    _check_scales(eps, noise_free=True)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(lam.size)
    scale_fraction = rng.uniform(0.5, 1.0)
    if mode == "flat":
        n, w = draws, 1.0
    elif mode == "range_compatible":
        n, w = lam * draws, lam
    else:
        raise ValueError("noise mode must be 'flat' or 'range_compatible'")
    with np.errstate(over="ignore"):  # an overflow takes _norm below
        norm = float(np.linalg.norm(n))
    if not _SQRT_TINY <= norm < math.inf:
        norm = _norm(draws, w)
    if eps == 0.0 or norm == 0.0:
        return np.zeros(lam.size)
    scale = scale_fraction * eps / norm
    # scale overflows only for eps near the largest double; n / norm has entries <= 1.
    return n * scale if scale < math.inf else (n / norm) * (scale_fraction * eps)


def synthesize_problem(
    eigenvalues,
    beta,
    eps: float,
    E: float,
    *,
    f_coeffs=None,
    f_decay: tuple[float, float] | None = None,
    noise_mode: str = "flat",
    seed: int = 0,
    tight: bool = True,
) -> ProblemInstance:
    """Build a ProblemInstance whose invariants hold by construction.

    The solution comes either from explicit coefficients (f_coeffs, padded
    with zeros) or from the decay law f_k = c k^(-q) given as f_decay=(c, q).
    With tight=True the solution is rescaled so the constraint budget is met
    with equality; otherwise it is only rescaled down when the budget is
    exceeded.
    """
    lam = _validate_eigenvalues(eigenvalues)
    m = lam.size
    _check_scales(eps, E, noise_free=True)
    if (f_coeffs is None) == (f_decay is None):
        raise ValueError("give exactly one of f_coeffs or f_decay")
    if f_coeffs is not None:
        f = np.zeros(m)
        given = np.asarray(f_coeffs, dtype=float).ravel()
        if given.size > m:
            raise ValueError("more coefficients than modes")
        f[: given.size] = given
    else:
        c, q = f_decay
        k = np.arange(1, m + 1, dtype=float)
        with np.errstate(over="ignore"):  # an infinite f_k is rejected below
            f = c * k ** (-q)
    if not np.all(np.isfinite(f)):
        raise InfeasibleSpecError("solution coefficients are not finite")

    betas = _weights(beta, m)
    r, h = _norm_pair(f, betas)  # ||beta f|| = r 2^h
    why = "f is zero" if tight and r == 0 else ""
    if not why and (tight or _ldexp(r, h) > E):
        # f_k E / ||beta f|| = (m_k m_E / r) 2^(e_k + e_E - h): finite while the exponent <= 1024.
        (mE, eE), (mf, ef) = np.frexp(E), np.frexp(f)
        mant, exp = np.frexp(mf * (mE / r))
        exp = exp + ef + eE - h
        f = np.ldexp(mant, np.minimum(exp, 1024))
        r, h = _norm_pair(f, betas)  # meets E to ProblemInstance's 5e-10 unless f underflowed
        why = ("the rescaled f overflows" if np.any(exp > 1024, where=mant != 0) else
               "the rescaled f underflows" if abs(_ldexp(r / mE, h - eE) - 1.0) > 5e-10 else "")
    if why:
        raise InfeasibleSpecError(f"cannot meet the constraint budget with equality: {why}")

    # lambda_k f_k = (m_k f_k) 2^e_k, m_k in [1/2, 1): finite while its exponent is <= 1024.
    mant, exp2 = np.frexp(lam)
    bad = np.flatnonzero(np.frexp(mant * f)[1] + exp2 > 1024)
    if bad.size:
        raise InfeasibleSpecError(f"lambda_k f_k overflows at k = {bad[0] + 1}, "
                                  "so the data cannot be formed")
    g_clean, noise = lam * f, make_noise(seed, eps, noise_mode, lam)
    # Halving is exact, so the halves sum to half of lambda f + n as rounded: 2^1023 or
    # more exactly where lambda f + n overflows.
    bad = np.flatnonzero(np.abs(0.5 * g_clean + 0.5 * noise) >= 2.0**1023)
    if bad.size:
        raise InfeasibleSpecError(f"lambda_k f_k + n_k overflows at k = {bad[0] + 1}, "
                                  "so the data cannot be formed")

    return ProblemInstance(
        eigenvalues=lam,
        betas=betas,
        f_true=f,
        g_noisy=g_clean + noise,
        eps=float(eps),
        E=float(E),
        seed=int(seed),
        noise_mode=noise_mode,
    )


@dataclass
class FeasibilityResult:
    """Outcome of the compatibility check between data and constraint budget."""

    permissible: bool
    min_constraint_norm: float


def feasibility_check(instance: ProblemInstance) -> FeasibilityResult:
    """Smallest constraint norm among solutions fitting the data within eps.

    Minimizes sum beta_k^2 f_k^2 subject to sum (lambda_k f_k - gbar_k)^2
    <= eps^2.  If the data already lie within eps of zero the minimum is 0.
    Otherwise the minimizer is f_k = lambda_k gbar_k / (lambda_k^2 + t^2 beta_k^2).
    With x_k = rho_k / t and rho_k = lambda_k / beta_k, its misfit gbar_k /
    (1 + x_k^2) grows with t, and beta_k f_k is gbar_k x_k / (t (1 + x_k^2)), or
    gbar_k / (rho_k (1 + x_k^-2)) where x_k >= 1.  log2 t is bisected over
    every scale the rho_k can give, and each term is kept as a mantissa and an
    integer exponent, split between the two factors of _norm, so neither t,
    rho_k nor any square has to be a double.
    """
    g, eps = instance.g_noisy, instance.eps
    if _norm(g) <= eps:
        return FeasibilityResult(True, 0.0)
    (mg, eg), (ml, el), (mb, eb) = map(np.frexp, (g, instance.eigenvalues, instance.betas))
    m, e = ml / mb, el - eb  # rho_k = m_k 2^e_k

    def norm(mant, exp):  # ||mant 2^exp||: a term beyond 2^(+-2000) reads 0 or inf either way
        exp = np.clip(exp, -2000, 2000)
        return _norm(np.ldexp(mant, exp // 2), np.ldexp(1.0, exp - exp // 2))

    def terms(S: float, sigma: float):
        """x_k >= 1, 1 + min(x_k, 1/x_k)^2, and x_k = c_k 2^d_k, at t = 2^(S + sigma), S whole."""
        c, d = m / 2.0**sigma, e - int(S)
        fit = np.ldexp(c, np.minimum(d, 3)) >= 1.0  # c_k > 1/8, so d_k >= 3 fits
        z = np.ldexp(np.where(fit, 1.0 / c, c), np.where(fit, -d, d))  # at most 1: no overflow
        return fit, 1.0 + z * z, c, d

    def fits(S: float, sigma: float) -> bool:  # the misfit at t = 2^(S + sigma) is at most eps
        fit, den, c, d = terms(S, sigma)
        return norm(mg / den / np.where(fit, c * c, 1.0), eg - np.where(fit, 2 * d, 0)) <= eps

    # Every x_k is above 2^1099 at the lower end and below 2^-1099 at the upper one.  The
    # first pass bisects log2 t + 2^42, whose doubles are 2^-10 apart, to find S; the
    # second finds the fraction sigma of log2 t = S + sigma to the spacing of doubles near 1.
    shift = 2.0**42
    lo, hi = shift + float(np.min(e)) - 1100.0, shift + float(np.max(e)) + 1100.0
    S = math.floor(_bisect(lambda v: fits(*divmod(v - shift, 1.0)), lo, hi) - shift)
    sigma = _bisect(lambda sigma: fits(S, sigma), -1.0, 2.0)
    fit, den, c, d = terms(S, sigma)
    size = np.where(fit, 1.0 / m, c / 2.0**sigma) / den
    min_norm = norm(mg * size, eg + np.where(fit, -e, d - S))
    return FeasibilityResult(min_norm <= instance.E * (1.0 + 1e-9), min_norm)


@dataclass
class ResidualReport:
    """The three error-splitting inequalities for a truncated reconstruction.

    image_residual     = || lambda (f - fhat) ||      vs sqrt(2) eps
    constraint_residual= || beta (f - fhat) ||        vs sqrt(2) E
    combined           = image^2 + (eps/E)^2 constr^2 vs 4 eps^2 (implied by the two)
    """

    image_residual: float
    constraint_residual: float
    combined: float
    ok: bool


def _residual_report(instance: ProblemInstance, rec: Reconstruction, betas: np.ndarray) -> ResidualReport:
    """ok allows ||n|| <= eps + excess and ||beta f|| <= E + 5e-10 E, as ProblemInstance does,
    and fhat = gbar / lambda's rounding r, |r| <= u |fhat|: image <= sqrt(2) (eps + excess +
    ||lambda r||), constr <= sqrt(2) (E + 5e-10 E + excess max_kept beta/lambda + ||beta r||)."""
    lam, eps, E, u = instance.eigenvalues, instance.eps, instance.E, math.ulp(1.0)
    fhat = rec.coefficients
    diff = instance.f_true - fhat
    (me, ee), (mE, eE) = np.frexp(eps), np.frexp(E)
    image, (r, h) = _norm(diff, lam), _norm_pair(diff, betas)
    constr, scaled = _ldexp(r, h), _ldexp(me * r / mE, ee + h - eE)  # (eps/E) constr, at any scale
    combined = image * image + scaled * scaled

    excess = 1e-9 * eps + _norm(instance.g_noisy, u)
    (mb, eb), (ml, el) = np.frexp(betas[:rec.cutoff]), np.frexp(lam[:rec.cutoff])
    amplified = float(np.max(_ldexp(excess * mb / ml, eb - el), initial=0.0))
    ok = (image <= math.sqrt(2.0) * (eps + excess + _norm(u * fhat, lam))
          and constr <= math.sqrt(2.0) * (E * (1.0 + 5e-10) + amplified + _norm(u * fhat, betas)))
    return ResidualReport(image, constr, combined, ok)


def weighted_rule_residuals(instance: ProblemInstance, rec: Reconstruction) -> ResidualReport:
    """Error-splitting report for the beta-weighted truncation rule."""
    if rec.rule != "k2":
        raise ValueError("reconstruction must come from rule 'k2'")
    return _residual_report(instance, rec, instance.betas)


def identity_rule_residuals(instance: ProblemInstance, rec: Reconstruction) -> ResidualReport:
    """Error-splitting report for the plain truncation rule (beta = 1)."""
    if rec.rule != "k1":
        raise ValueError("reconstruction must come from rule 'k1'")
    return _residual_report(instance, rec, np.ones(instance.n_modes))


def weak_pairing(instance: ProblemInstance, rec: Reconstruction, v) -> tuple[float, float]:
    """Pairing |sum (f_k - fhat_k) v_k| and its Schwarz bound.

    The bound 2 eps sqrt(sum v_k^2 / (lambda_k^2 + (eps/E)^2)) is read from _norm with
    weights 1 / hypot(lambda_k 2^e, eps/E 2^e), times eps 2^e, where 2^e brings eps/E
    into (1/2, 2) but keeps lambda_1 2^e below 2^1023: no square leaves the range, and
    a weight overflows only where lambda_1 / max(lambda_k, eps/E) exceeds 2^2046.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != instance.f_true.shape:
        raise ValueError("need one pairing coefficient per mode")
    _check_scales(instance.eps)
    diff = instance.f_true - rec.coefficients
    pairing = abs(float(np.sum(diff * v)))
    (m_eps, e_eps), (m_E, e_E) = np.frexp(instance.eps), np.frexp(instance.E)
    e = min(e_E - e_eps, 1023 - int(np.frexp(instance.eigenvalues[0])[1]))
    ratio = np.ldexp(m_eps / m_E, e - e_E + e_eps)
    weights = 1.0 / np.hypot(np.ldexp(instance.eigenvalues, e), ratio)
    return pairing, _ldexp(m_eps * _norm(v, weights), e_eps + e + 1)
