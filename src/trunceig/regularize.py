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
A square of user-scale data (E^2, (eps/E)^2, and in the stability layer
beta_k^2 and lambda_k^2) is formed by _square, which first checks that every
|x| lies in [sqrt(tiny), sqrt(max)] and otherwise raises a ValueError naming
the quantity and the first bad mode k (or eps and E).  A sum of squares is
read through its root, from _norm, which forms ||w x|| in exact powers of
two: bit for bit the plain sqrt(sum(w^2 x^2)) inside the double range, and
inf, not nan, beyond it.  The budget ||beta f|| <= E, the noise check, the
rescaling in synthesize_problem and the residual norms all go through it, so
they compare true values and print no warning.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConvergenceError, HypothesisWarning, InfeasibleSpecError
from .kernels import _preset

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
    "range_compatibility_sums",
    "synthesize_problem",
    "feasibility_check",
    "weighted_rule_residuals",
    "identity_rule_residuals",
    "strong_error_bound",
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


def _square(x, what: str, where: str = ""):
    """x**2 of a float or an array once every |x| lies in [_SQRT_TINY, _SQRT_MAX], where
    x**2 is a finite, normal double; else a ValueError naming what and where (default: k)."""
    bad = np.flatnonzero(~((_SQRT_TINY <= np.abs(x)) & (np.abs(x) <= _SQRT_MAX)))
    if bad.size:
        raise ValueError(f"{what} is not a finite, normal double at {where or f'k = {bad[0] + 1}'}")
    return x**2


def _norm(x, w=1.0) -> float:
    """||w x|| (w a float or one weight per entry), summed from mantissas at the largest
    power of two: bit for bit sqrt(sum(w^2 x^2)) in range, and inf with no warning above."""
    (mx, ex), (mw, ew) = np.frexp(x), np.frexp(w)
    terms, exp = (mw * mw) * (mx * mx), 2 * (ex + ew)
    # top is even, so the root scales by 2^(top/2); no nonzero term has 2(e_x + e_w) < -4400.
    top = int(np.max(exp, where=terms != 0, initial=-4400))
    root = math.sqrt(float(np.sum(np.ldexp(terms, exp - top))))
    return math.ldexp(root, top // 2) if math.frexp(root)[1] + top // 2 <= 1024 else math.inf


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
    """Largest k with lambda_k >= (eps / E) * beta_k (0 if none)."""
    lam = _validate_eigenvalues(eigenvalues)
    if not (0 <= eps < math.inf and 0 < E < math.inf):
        raise ValueError("need finite eps >= 0 and E > 0")
    ratio = eps / E
    # No mode passes with (eps/E) beta_k > 2 lambda_1: capping beta_k there, floored at
    # the least positive double, keeps the product finite and changes no verdict.
    cap = max(2.0 * (float(lam[0]) / ratio), math.ulp(0.0)) if ratio > 0 else math.inf
    hits = np.nonzero(lam >= ratio * np.minimum(_weights(beta, lam.size), cap))[0]
    return int(hits[-1] + 1) if hits.size else 0


@dataclass
class ProblemInstance:
    """A synthetic coefficient-space inverse problem.

    Holds the fields of its JSON file: the eigenvalues, the constraint
    weights betas (one per mode), the exact solution f_true, the noisy data
    g_noisy, the noise bound eps, the constraint budget E, the seed and the
    noise mode.  g_clean = lambda * f_true and noise = g_noisy - g_clean are
    derived, and ||noise|| <= eps and ||beta f|| <= E are checked by _norm.
    low_mode_fraction records how much of ||f||^2 the weighted truncation rule
    would retain (a skewness diagnostic for the reference-solution assumption
    behind the strong bounds); only synthesize_problem sets it.
    """

    eigenvalues: np.ndarray
    betas: np.ndarray
    f_true: np.ndarray
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
        for name in ("f_true", "g_noisy"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (m,):
                raise ValueError(f"{name} must have one entry per mode")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, arr)
        if not (0 <= self.eps < math.inf and 0 < self.E < math.inf):
            raise ValueError("need finite eps >= 0 and E > 0")
        _square(self.E, "E^2", f"eps = {self.eps:g}, E = {self.E:g}")
        # noise = g_noisy - lambda f is known only to the rounding of g_noisy.
        rounding = np.finfo(float).eps * _norm(self.g_noisy)
        if not _norm(self.noise) <= self.eps * (1.0 + 1e-9) + rounding:
            raise ValueError("noise norm exceeds its stated bound eps")
        if not _norm(self.f_true, self.betas) <= self.E * (1.0 + 5e-10):
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
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("instance must be a JSON object")
        missing = [key for key in ("eigenvalues", "beta", "f_true", "g_noisy", "eps", "E", "seed",
                                   "noise_mode") if key not in raw]
        if missing:
            raise ValueError(f"instance lacks {', '.join(missing)}")
        try:
            return cls(raw["eigenvalues"], raw["beta"], raw["f_true"], raw["g_noisy"],
                       float(raw["eps"]), float(raw["E"]), int(raw["seed"]),
                       str(raw["noise_mode"]))
        except TypeError as exc:
            raise ValueError(f"instance field of the wrong type: {exc}") from None


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
    _square(E, "E^2", f"eps = {eps:g}, E = {E:g}")
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
    budget = _norm(f, betas)  # sum beta^2 f^2 = budget^2
    if budget > _SQRT_MAX:
        raise InfeasibleSpecError("sum beta^2 f^2 overflows, so f cannot be rescaled to the budget")
    if tight and budget * budget == 0.0:
        why = "sum beta^2 f^2 underflows to zero" if np.any(f) else "f is zero"
        raise InfeasibleSpecError(f"cannot meet the constraint budget with equality: {why}")
    if tight or budget > E:
        # E / ||beta f|| overflows only where ||beta f|| < E / max, so f is far below the range.
        f, budget = (f, budget) if E / budget < math.inf else (f * 2.0**64, budget * 2.0**64)
        if float(np.max(np.abs(f))) * (E / budget) == math.inf:
            raise InfeasibleSpecError("cannot meet the constraint budget with equality: "
                                      "the rescaled f overflows")
        f = f * (E / budget)

    # lambda_k f_k = (m_k f_k) 2^e_k, m_k in [1/2, 1): finite while its exponent is <= 1024.
    mant, exp2 = np.frexp(lam)
    bad = np.flatnonzero(np.frexp(mant * f)[1] + exp2 > 1024)
    if bad.size:
        raise InfeasibleSpecError(f"lambda_k f_k overflows at k = {bad[0] + 1}, "
                                  "so the data cannot be formed")
    g_noisy = lam * f + make_noise(seed, eps, noise_mode, lam, k_noise)

    norm = _norm(f)
    if norm > 0 and eps > 0:
        cut = truncation_weighted(lam, betas, eps, E)
        low_fraction = (_norm(f[:cut]) / norm) ** 2
    else:
        low_fraction = 1.0

    return ProblemInstance(
        eigenvalues=lam,
        betas=betas,
        f_true=f,
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

    hi = 1.0
    for _ in range(400):
        if residual_sq(hi) >= target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("could not bracket the feasibility multiplier")
    mu = _bisect(lambda mu: residual_sq(mu) < target, 0.0, hi)
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
    image = _norm(diff, lam)
    constr = _norm(diff, betas)
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
