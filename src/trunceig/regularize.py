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
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._json import dumps
from .errors import (
    ConvergenceError,
    DegenerateModeError,
    HypothesisWarning,
    InfeasibleSpecError,
)
from .kernels import _parse_params

__all__ = [
    "parse_constraint",
    "ProblemInstance",
    "Reconstruction",
    "ResidualReport",
    "StrongErrorBound",
    "FeasibilityResult",
    "truncation_identity",
    "truncation_weighted",
    "truncated_solution",
    "make_noise",
    "synthesize_problem",
    "feasibility_check",
    "weighted_rule_residuals",
    "identity_rule_residuals",
    "strong_error_bound",
    "weak_pairing",
]


def parse_constraint(text: str, count: int) -> np.ndarray:
    """Weights beta_1 .. beta_count of a constraint string.

    'identity' gives beta_k = 1, 'derivative' beta_k = k pi (the
    first-derivative constraint in the sine basis), 'power:p=1[,scale=s]'
    beta_k = s k^p, and 'prolate:c=1' beta_k^2 = chi_{k-1}(c), the
    commuting-operator constraint.  'sinc_log:c=10' is its asymptotic form
    for the bandlimited case: beta_k^2 = 2 k ln(k / (e c)) for k above
    ceil(e c), and chi_{k-1} below that, where the logarithm is not positive.
    """
    head, _, rest = text.partition(":")
    head = head.strip()
    what = f"{head} constraint"
    k = np.arange(1, count + 1, dtype=float)
    if head == "identity":
        _parse_params(rest, what)
        return np.ones(count)
    if head == "derivative":
        _parse_params(rest, what)
        return math.pi * k
    if head == "power":
        params = _parse_params(rest, what, required=("p",), optional=("scale",))
        p, scale = params["p"], params.get("scale", 1.0)
        if not (-math.inf < p < math.inf and 0 < scale < math.inf):
            raise ValueError("power constraint needs a finite p and a finite scale > 0")
        return scale * k**p
    if head not in ("prolate", "sinc_log"):
        raise ValueError(f"unknown constraint {head!r}")
    c = _parse_params(rest, what, required=("c",))["c"]
    if not 0 < c < math.inf:
        raise ValueError("bandwidth c must be finite and positive")
    # Compared as floats first: ceil(e c) overflows for c near the float limit.
    split = count if head == "prolate" or math.e * c >= count else math.ceil(math.e * c)
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


def _weights(beta, size: int, count: int | None = None) -> np.ndarray:
    """Constraint weights beta_1 .. beta_count for `size` eigenvalues.

    The one rule for what a constraint argument may be: an array holding
    exactly one finite, positive weight per eigenvalue, of which the first
    `count` entries are used.  count defaults to size.
    """
    try:
        betas = np.asarray(beta, dtype=float)
    except (TypeError, ValueError):
        betas = None
    if betas is None or betas.shape != (size,) or not np.all(np.isfinite(betas) & (betas > 0)):
        raise ValueError("need one finite, positive constraint weight per eigenvalue")
    return betas[:count]


def truncation_identity(eigenvalues, eps: float, E: float) -> int:
    """Largest k with lambda_k >= eps / E (0 if none): the beta = 1 case of
    truncation_weighted."""
    lam = _validate_eigenvalues(eigenvalues)
    return truncation_weighted(lam, np.ones(lam.size), eps, E)


def truncation_weighted(eigenvalues, beta, eps: float, E: float) -> int:
    """Largest k with lambda_k >= (eps / E) * beta_k (0 if none)."""
    lam = _validate_eigenvalues(eigenvalues)
    if not (0 <= eps < math.inf and 0 < E < math.inf):
        raise ValueError("need finite eps >= 0 and E > 0")
    hits = np.nonzero(lam >= (eps / E) * _weights(beta, lam.size))[0]
    return int(hits[-1] + 1) if hits.size else 0


@dataclass
class ProblemInstance:
    """A synthetic coefficient-space inverse problem.

    Carries the exact solution f_true, clean data g_clean = lambda * f_true,
    a noise vector with ||noise|| <= eps, and the constraint budget E with
    its weights betas, one per mode.  low_mode_fraction records how much of
    ||f||^2 the weighted truncation rule would retain (a skewness diagnostic
    for the reference-solution assumption behind the strong bounds).
    """

    eigenvalues: np.ndarray
    betas: np.ndarray
    f_true: np.ndarray
    g_clean: np.ndarray
    noise: np.ndarray
    g_noisy: np.ndarray
    eps: float
    E: float
    seed: int
    noise_mode: str = "flat"
    low_mode_fraction: float | None = None

    def __post_init__(self):
        self.eigenvalues = _validate_eigenvalues(self.eigenvalues)
        m = self.eigenvalues.size
        self.betas = _weights(self.betas, m)
        for name in ("f_true", "g_clean", "noise", "g_noisy"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (m,):
                raise ValueError(f"{name} must have one entry per mode")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, arr)
        if not (0 <= self.eps < math.inf and 0 < self.E < math.inf):
            raise ValueError("need finite eps >= 0 and E > 0")
        noise_norm = float(np.linalg.norm(self.noise))
        if noise_norm > self.eps * (1.0 + 1e-9):
            raise ValueError("noise norm exceeds its stated bound eps")
        forward = self.eigenvalues * self.f_true
        drift = float(np.linalg.norm(self.g_clean - forward))
        if drift > 1e-9 * (1.0 + float(np.linalg.norm(forward))):
            raise ValueError("g_clean must equal eigenvalues * f_true")
        resid = float(np.linalg.norm(self.g_noisy - self.g_clean - self.noise))
        if resid > 1e-9 * (1.0 + float(np.linalg.norm(self.g_noisy))):
            raise ValueError("g_noisy must equal g_clean + noise")
        budget = float(np.sum(self.betas**2 * self.f_true**2))
        if budget > self.E**2 * (1.0 + 1e-9):
            raise ValueError("constraint budget exceeded: sum beta^2 f^2 > E^2")

    @property
    def n_modes(self) -> int:
        return int(self.eigenvalues.size)

    def to_json(self) -> str:
        payload = {
            "eigenvalues": self.eigenvalues,
            "beta": self.betas,
            "f_true": self.f_true,
            "g_noisy": self.g_noisy,
            "eps": self.eps,
            "E": self.E,
            "seed": self.seed,
            "noise_mode": self.noise_mode,
        }
        return dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ProblemInstance":
        raw = json.loads(text)
        lam = np.asarray(raw["eigenvalues"], dtype=float)
        f_true = np.asarray(raw["f_true"], dtype=float)
        g_noisy = np.asarray(raw["g_noisy"], dtype=float)
        g_clean = lam * f_true
        return cls(
            eigenvalues=lam,
            betas=raw["beta"],
            f_true=f_true,
            g_clean=g_clean,
            noise=g_noisy - g_clean,
            g_noisy=g_noisy,
            eps=float(raw["eps"]),
            E=float(raw["E"]),
            seed=int(raw["seed"]),
            noise_mode=str(raw["noise_mode"]),
        )


@dataclass
class Reconstruction:
    """Truncated inversion of noisy data: coefficients gbar_k / lambda_k up to
    the cutoff, zero beyond it."""

    rule: str
    cutoff: int
    coefficients: np.ndarray
    data_projection: np.ndarray


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
    if np.any(lam[:cutoff] == 0.0):
        raise DegenerateModeError("zero eigenvalue inside the retained range")
    coeff = np.zeros(lam.size)
    proj = np.zeros(lam.size)
    coeff[:cutoff] = instance.g_noisy[:cutoff] / lam[:cutoff]
    proj[:cutoff] = instance.g_noisy[:cutoff]
    return Reconstruction(rule, cutoff, coeff, proj)


def make_noise(seed: int, eps: float, mode: str, eigenvalues, k_noise: int | None = None) -> np.ndarray:
    """Seeded noise vector with ||n|| uniformly drawn in [eps/2, eps].

    "flat" spreads i.i.d. normal draws over the first k_noise modes (all of
    them by default); "range_compatible" shapes the draws by lambda_k, so the
    noise lives where the operator range does.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    m = lam.size
    if not 0 <= eps < math.inf:
        raise ValueError("need finite eps >= 0")
    if k_noise is None:
        k_noise = m
    if not 1 <= k_noise <= m:
        raise ValueError("k_noise must lie in [1, number of modes]")
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(k_noise)
    scale_fraction = rng.uniform(0.5, 1.0)
    n = np.zeros(m)
    if mode == "flat":
        n[:k_noise] = draws
    elif mode == "range_compatible":
        n[:k_noise] = lam[:k_noise] * draws
    else:
        raise ValueError("noise mode must be 'flat' or 'range_compatible'")
    norm = float(np.linalg.norm(n))
    if eps == 0.0 or norm == 0.0:
        return np.zeros(m)
    return n * (scale_fraction * eps / norm)


def range_compatibility_sums(instance: ProblemInstance) -> tuple[float, float]:
    """Report how well the noisy data sit inside the operator's range.

    Returns (sum of gbar_k / lambda_k, sum of (gbar_k / lambda_k)^2) over the
    retained modes. Blow-up of either sum as modes are added flags data that
    the inversion cannot treat as coming from a square-integrable source;
    both conventions circulate, so both are reported without picking one.
    """
    ratios = instance.g_noisy / instance.eigenvalues
    return float(np.sum(ratios)), float(np.sum(ratios**2))


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
    k_noise: int | None = None,
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
    if not (0 <= eps < math.inf and 0 < E < math.inf):
        raise ValueError("need finite eps >= 0 and E > 0")
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
        f = c * k ** (-q)
    if not np.all(np.isfinite(f)):
        raise InfeasibleSpecError("solution coefficients are not finite")

    betas = _weights(beta, m)
    budget = float(np.sum(betas**2 * f**2))
    if tight:
        if budget == 0.0:
            raise InfeasibleSpecError(
                "cannot meet the constraint budget with equality: f is zero"
            )
        f = f * (E / math.sqrt(budget))
    elif budget > E**2:
        f = f * (E / math.sqrt(budget))

    g_clean = lam * f
    noise = make_noise(seed, eps, noise_mode, lam, k_noise)
    g_noisy = g_clean + noise

    f_sq = float(np.sum(f**2))
    if f_sq > 0 and eps > 0:
        cut = truncation_weighted(lam, betas, eps, E)
        low_fraction = float(np.sum(f[:cut] ** 2) / f_sq)
    else:
        low_fraction = 1.0

    return ProblemInstance(
        eigenvalues=lam,
        betas=betas,
        f_true=f,
        g_clean=g_clean,
        noise=noise,
        g_noisy=g_noisy,
        eps=float(eps),
        E=float(E),
        seed=int(seed),
        noise_mode=noise_mode,
        low_mode_fraction=low_fraction,
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
    Otherwise the minimizer has f_k(mu) = lambda_k gbar_k / (lambda_k^2 +
    mu beta_k^2) and the data residual grows monotonically in mu, so the
    active-constraint multiplier is found by bisection.
    """
    lam = instance.eigenvalues
    betas = instance.betas
    g = instance.g_noisy
    eps = instance.eps

    g_norm = float(np.linalg.norm(g))
    if g_norm <= eps:
        return FeasibilityResult(True, 0.0)

    lam2 = lam * lam
    bet2 = betas * betas
    target = eps * eps

    def residual_sq(mu: float) -> float:
        misfit = g * (mu * bet2) / (lam2 + mu * bet2)
        return float(np.sum(misfit * misfit))

    lo = 0.0
    hi = 1.0
    for _ in range(400):
        if residual_sq(hi) >= target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("could not bracket the feasibility multiplier")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if residual_sq(mid) < target:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    f = lam * g / (lam2 + mu * bet2)
    min_norm = float(np.sqrt(np.sum(bet2 * f * f)))
    permissible = min_norm <= instance.E * (1.0 + 1e-9)
    return FeasibilityResult(permissible, min_norm)


@dataclass
class ResidualReport:
    """The three error-splitting inequalities for a truncated reconstruction.

    image_residual     = || lambda (f - fhat) ||      vs sqrt(2) eps
    constraint_residual= || beta (f - fhat) ||        vs sqrt(2) E
    combined           = image^2 + (eps/E)^2 constr^2 vs 4 eps^2
    """

    image_residual: float
    constraint_residual: float
    combined: float
    image_bound: float
    constraint_bound: float
    combined_bound: float
    ok: bool

    @property
    def margins(self) -> tuple[float, float, float]:
        return (
            self.image_bound - self.image_residual,
            self.constraint_bound - self.constraint_residual,
            self.combined_bound - self.combined,
        )


def _residual_report(instance: ProblemInstance, rec: Reconstruction, betas: np.ndarray) -> ResidualReport:
    lam = instance.eigenvalues
    diff = instance.f_true - rec.coefficients
    image = float(np.sqrt(np.sum((lam * diff) ** 2)))
    constr = float(np.sqrt(np.sum((betas * diff) ** 2)))
    ratio = instance.eps / instance.E
    combined = image * image + ratio * ratio * constr * constr

    image_bound = math.sqrt(2.0) * instance.eps
    constr_bound = math.sqrt(2.0) * instance.E
    combined_bound = 4.0 * instance.eps**2
    slack = 1e-12
    ok = (
        image <= image_bound + slack * max(1.0, image_bound)
        and constr <= constr_bound + slack * max(1.0, constr_bound)
        and combined <= combined_bound + slack * max(1.0, combined_bound)
    )
    return ResidualReport(image, constr, combined, image_bound, constr_bound,
                          combined_bound, ok)


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


@dataclass
class StrongErrorBound:
    """Norm-convergence bound data for the weighted rule.

    spectrum[k-1] = lambda_k^2 + (eps/E)^2 beta_k^2 is the symbol of the
    combined normal operator; its minimum over retained modes controls
    ||f - fhat|| <= 2 eps / sqrt(min spectrum), with the weaker but simpler
    form 2 E / beta_{k0} at the argmin k0.  When k0 is the last listed mode
    the weights never outgrow the decay, and strong_error_bound warns with a
    HypothesisWarning.
    """

    spectrum: np.ndarray
    k0: int
    bound: float
    simplified_bound: float


def strong_error_bound(eigenvalues, beta, eps: float, E: float) -> StrongErrorBound:
    lam = _validate_eigenvalues(eigenvalues)
    if not (0 < eps < math.inf and 0 < E < math.inf):
        raise ValueError("need finite eps > 0 and E > 0")
    betas = _weights(beta, lam.size)
    ratio = eps / E
    spectrum = lam * lam + (ratio * betas) ** 2
    k0 = int(np.argmin(spectrum)) + 1
    if k0 == lam.size:
        warnings.warn(
            "combined spectrum is smallest on the last mode; the error bound does not shrink",
            HypothesisWarning,
            stacklevel=2,
        )
    bound = 2.0 * eps / math.sqrt(float(spectrum[k0 - 1]))
    simplified = 2.0 * E / float(betas[k0 - 1])
    return StrongErrorBound(spectrum, k0, bound, simplified)


def weak_pairing(instance: ProblemInstance, rec: Reconstruction, v) -> tuple[float, float]:
    """Pairing |sum (f_k - fhat_k) v_k| and its Schwarz bound.

    The bound is 2 eps sqrt(sum v_k^2 / (lambda_k^2 + (eps/E)^2)), finite for
    any coefficient vector v over the retained modes.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != instance.f_true.shape:
        raise ValueError("need one pairing coefficient per mode")
    if instance.eps <= 0:
        raise ValueError("weak pairing bound needs eps > 0")
    diff = instance.f_true - rec.coefficients
    pairing = abs(float(np.sum(diff * v)))
    lam = instance.eigenvalues
    ratio = instance.eps / instance.E
    denom = lam * lam + ratio * ratio
    bound = 2.0 * instance.eps * math.sqrt(float(np.sum(v * v / denom)))
    return pairing, bound
