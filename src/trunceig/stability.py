"""Stability estimates for the constrained inverse problem.

The object of interest is the worst-case norm sup { ||f|| : ||A f|| <= eps,
||B f|| <= E }.  When the spectra satisfy lambda_k^2 >= beta_k^2 p(1/beta_k^2)
for a convex p with p(r)/r increasing and p(0+) = 0, a Jensen argument caps
that supremum by E sqrt(p^{-1}(eps^2 / E^2)).  Two presets cover the classical
regimes: power-law p gives Holder continuity, the exp-log p gives the far
weaker logarithmic modulus.  In finite mode space the supremum itself is a
two-constraint linear program over u_k = f_k^2.  Its value is read off the
lower convex hull of the points (lambda_k^2 / eps^2, beta_k^2 / E^2): one
monotone-chain pass (Andrew 1979) gives it exactly in O(K log K) time and
O(K) memory, which keeps the analytic bound honest at any mode count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import _preset
from .regularize import _bisect, _square, _validate_eigenvalues, _weights

__all__ = [
    "PFunction",
    "p_eval",
    "p_inverse",
    "check_condition",
    "stability_bound",
    "stability_sup_exact",
    "classify_continuity",
    "ContinuityFit",
    "parse_pfunction",
]

# Convexity of 4 r exp(-2/r) holds only up to r = 2/3; the preset refuses to
# invert beyond the value it takes there.
EXPLOG_R_MAX = 2.0 / 3.0


@dataclass(frozen=True)
class PFunction:
    """A comparison function: a vectorized p, called on r != 0 only, and its
    inverse for one s > 0, which raises ValueError outside the range it inverts."""

    p: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[float], float]

    @classmethod
    def power(cls, gamma: float) -> "PFunction":
        """p(r) = r^(1/gamma); inverse s^gamma (Holder regime)."""
        gamma = float(gamma)
        if not 0 < gamma < 1:
            raise ValueError("power preset needs 0 < gamma < 1")
        return cls(lambda r: r ** (1.0 / gamma), lambda s: s**gamma)

    @classmethod
    def explog(cls) -> "PFunction":
        """p(r) = 4 r exp(-2/r) (logarithmic regime), convex on (0, 2/3]; the
        inverse bisects there to double precision and refuses s above p(2/3)."""

        def p(r):
            return 4.0 * r * np.exp(-2.0 / r)

        def inverse(s):
            cap = p(EXPLOG_R_MAX)
            if s > cap:
                raise ValueError(f"s={s:g} above the invertible range (p(2/3) = {cap:.6g})")
            return _bisect(lambda r: p(r) < s, 0.0, EXPLOG_R_MAX)

        return cls(p, inverse)

    @classmethod
    def custom(cls, rs, ps) -> "PFunction":
        rs = np.asarray(rs, dtype=float)
        ps = np.asarray(ps, dtype=float)
        if rs.ndim != 1 or rs.shape != ps.shape or rs.size < 3:
            raise ValueError("custom tables need matching shapes, length >= 3")
        if np.any(np.diff(rs) <= 0) or np.any(np.diff(ps) <= 0):
            raise ValueError("custom tables must be strictly increasing")
        if np.any(rs <= 0) or np.any(ps <= 0):
            raise ValueError("custom tables must be positive")
        ratio = ps / rs
        if np.any(np.diff(ratio) < -1e-12 * np.max(ratio)):
            raise ValueError("custom table violates p(r)/r increasing")
        second = np.diff(np.diff(ps) / np.diff(rs))
        if np.any(second < -1e-12 * np.max(np.abs(ps))):
            raise ValueError("custom table is not convex")

        def p(r):
            if not np.all((rs[0] <= r) & (r <= rs[-1])):
                raise ValueError("r outside the tabulated range")
            return np.interp(r, rs, ps)

        def inverse(s):
            if not ps[0] <= s <= ps[-1]:
                raise ValueError("s outside the tabulated range")
            return float(np.interp(s, ps, rs))

        return cls(p, inverse)


def parse_pfunction(text: str) -> PFunction:
    """Parse 'power:gamma=0.333' or 'explog'."""
    head, params = _preset(text, "preset", {"explog": ((), ()), "power": (("gamma",), ())})
    return PFunction.explog() if head == "explog" else PFunction.power(params["gamma"])


def p_eval(p: PFunction, r):
    """p(r), with p(0) = 0, for a scalar r (a Python float) or elementwise for an array r."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("p is defined for r >= 0")
    out = np.zeros_like(r)
    nonzero = r != 0
    out[nonzero] = p.p(r[nonzero])
    return float(out) if out.ndim == 0 else out


def p_inverse(p: PFunction, s: float) -> float:
    """Solve p(r) = s for r; p.inverse does so for s > 0."""
    if s < 0:
        raise ValueError("p takes non-negative values")
    return 0.0 if s == 0.0 else p.inverse(s)


def check_condition(eigenvalues, beta, p: PFunction, K: int) -> tuple[bool, int | None]:
    """Does lambda_k^2 >= beta_k^2 p(beta_k^-2) hold for k = 1..K?

    Returns (ok, first violating k or None).  A relative slack of 1e-9
    absorbs round-off in the equality case; beta_k^2 and lambda_k^2 must pass _square.
    """
    lam = _validate_eigenvalues(eigenvalues)
    if not 1 <= K <= lam.size:
        raise ValueError("K must lie in [1, number of modes]")
    bet2 = _square(_weights(beta, lam.size, K), "beta_k^2")
    lam2 = _square(lam[:K], "lambda_k^2")
    bad = np.nonzero(lam2 < bet2 * p_eval(p, 1.0 / bet2) * (1.0 - 1e-9))[0]
    if bad.size:
        return False, int(bad[0]) + 1
    return True, None


def stability_bound(eps: float, E: float, p: PFunction) -> float:
    """Jensen-style cap E sqrt(p^{-1}(eps^2 / E^2)) on the worst-case norm."""
    if not (0 < eps < math.inf and 0 < E < math.inf):
        raise ValueError("need finite eps > 0 and E > 0")
    return E * math.sqrt(p_inverse(p, _square(eps / E, "(eps/E)^2", f"eps = {eps:g}, E = {E:g}")))


def stability_sup_exact(eigenvalues, beta, eps: float, E: float, K: int | None = None) -> float:
    """Exact sup { ||f|| : ||lambda f|| <= eps, ||beta f|| <= E } over K modes.

    In u_k = f_k^2 this is a linear program with two resource constraints.
    Put a_k = lambda_k^2 / eps^2 and b_k = beta_k^2 / E^2.  A feasible u of
    mass s = sum u_k has the mean point (x, y) = sum u_k (a_k, b_k) / s in
    P = conv{(a_k, b_k)}, and both constraints hold exactly when
    s max(x, y) <= 1; so sup^2 = 1 / min { max(x, y) : (x, y) in P }.
    max(x, y) grows in each coordinate, so the minimum lies on the lower hull
    of P, and along a hull edge it is piecewise linear with one kink, where
    the edge crosses x = y.  The minimum is therefore attained at a
    lower-hull vertex or at such a crossing, which on the edge (p, q) has
    x = y = (x_p y_q - x_q y_p) / ((x_p - y_p) - (x_q - y_q)).  Every
    candidate is a point of P, so none undercuts the true minimum, and the
    minimizer is among them: the result is exact, found with one sort and
    one monotone-chain pass (Andrew 1979) in O(K log K) time and O(K)
    memory.  The supremum scales, sup(eps, E) = E sup(eps / E, 1), and the
    points (lambda_k^2 / (eps/E)^2, beta_k^2) are formed from mantissas and
    exponents divided by a power of two near the minimum, so only (eps / E)^2,
    lambda_k^2 and beta_k^2 have to be finite, normal doubles (checked as in
    stability_bound), not eps^2, E^2 or the points themselves.
    """
    lam = _validate_eigenvalues(eigenvalues)
    if not (0 < eps < math.inf and 0 < E < math.inf):
        raise ValueError("need finite eps > 0 and E > 0")
    if K is None:
        K = lam.size
    if not 1 <= K <= lam.size:
        raise ValueError("K must lie in [1, number of modes]")
    mr, er = math.frexp(_square(eps / E, "(eps/E)^2", f"eps = {eps:g}, E = {E:g}"))
    ma, ea = np.frexp(_square(lam[:K], "lambda_k^2"))
    mb, eb = np.frexp(_square(_weights(beta, lam.size, K), "beta_k^2"))
    ea = ea - er
    # Every point has max(x, y) above 2^(max(e_a, e_b) - 1), so the minimum lies in
    # (2^(top - 2), 2^(top + 1)).  A point with a coordinate above 2^(top + 500) moves
    # it by under 2^-498 relative and is dropped; the rest, divided by 2^top, are finite.
    top = int(np.min(np.maximum(ea, eb)))
    keep = np.maximum(ea, eb) <= top + 500
    a = np.ldexp(ma[keep] / mr, ea[keep] - top)
    b = np.ldexp(mb[keep], eb[keep] - top)

    order = np.lexsort((b, a))
    hull: list[tuple[float, float]] = []
    for x, y in zip(a[order].tolist(), b[order].tolist()):
        # Pop while the last two hull points and (x, y) fail to turn left.
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) > (y1 - y0) * (x - x0):
                break
            hull.pop()
        hull.append((x, y))

    hx, hy = np.array(hull).T
    best = float(np.min(np.maximum(hx, hy)))
    d = hx - hy
    crosses = np.sign(d[:-1]) * np.sign(d[1:]) < 0
    if np.any(crosses):
        num = hx[:-1] * hy[1:] - hx[1:] * hy[:-1]
        best = min(best, float(np.min(num[crosses] / (d[:-1] - d[1:])[crosses])))
    # sup = E / sqrt(best 2^top), from the mantissa of E: inf with no warning above range.
    half, odd = divmod(top, 2)
    mE, eE = math.frexp(E)
    root = mE / math.sqrt(math.ldexp(best, odd))
    return math.ldexp(root, eE - half) if math.frexp(root)[1] + eE - half <= 1024 else math.inf


@dataclass
class ContinuityFit:
    """Classification of a noise-to-error sweep as Holder or logarithmic."""

    model: str
    exponent: float
    residual: float
    alt_residual: float


def classify_continuity(eps_grid, sup_values) -> ContinuityFit:
    """Fit log(sup) against log(eps) and against log |log(eps/2)|.

    Whichever regression leaves the smaller residual names the continuity
    modulus; its slope is the reported exponent (the Holder exponent in the
    power case, the logarithm power otherwise).
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    sup_values = np.asarray(sup_values, dtype=float)
    if eps_grid.shape != sup_values.shape or eps_grid.ndim != 1:
        raise ValueError("grids must be matching 1-d arrays")
    if eps_grid.size < 5:
        raise ValueError("need at least five grid points")
    if np.any(np.diff(eps_grid) >= 0):
        raise ValueError("eps grid must be strictly decreasing")
    if np.any(eps_grid <= 0) or np.any(eps_grid >= 1) or np.any(sup_values <= 0):
        raise ValueError("need 0 < eps < 1 and positive sup values")

    y = np.log(sup_values)
    if float(np.ptp(y)) < 1e-13:
        raise ValueError("sup values are constant: unclassifiable")

    def fit(x):
        A = np.stack([x, np.ones_like(x)], axis=1)
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = float(np.sum((A @ coef - y) ** 2))
        return float(coef[0]), resid

    slope_h, resid_h = fit(np.log(eps_grid))
    slope_l, resid_l = fit(np.log(np.abs(np.log(eps_grid / 2.0))))
    if resid_h <= resid_l:
        return ContinuityFit("holder", slope_h, resid_h, resid_l)
    return ContinuityFit("logarithmic", slope_l, resid_l, resid_h)
