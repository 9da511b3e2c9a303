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
from .regularize import (_bisect, _check_scales, _ldexp, _scaled, _square, _validate_eigenvalues,
                         _weights)

__all__ = [
    "PFunction",
    "p_eval",
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


def check_condition(eigenvalues, beta, p: PFunction) -> tuple[bool, int | None]:
    """Does lambda_k^2 >= beta_k^2 p(beta_k^-2) hold for every listed mode k?

    Returns (ok, first violating k or None).  A relative slack of 1e-9
    absorbs round-off in the equality case; beta_k^2 and lambda_k^2 must pass _square,
    and p(beta_k^-2) must be a finite double, else a ValueError names the first bad k.
    """
    lam = _validate_eigenvalues(eigenvalues)
    bet2 = _square(_weights(beta, lam.size), "beta_k^2")
    lam2 = _square(lam, "lambda_k^2")
    with np.errstate(over="ignore"):  # explog's 2/r overflows to p = 0; an infinite p is gated
        pk = p_eval(p, 1.0 / bet2)
    bad = np.flatnonzero(~np.isfinite(pk))
    if bad.size:
        raise ValueError(f"p(beta_k^-2) is not a finite double at k = {bad[0] + 1}")
    bad = np.nonzero(lam2 < bet2 * pk * (1.0 - 1e-9))[0]
    if bad.size:
        return False, int(bad[0]) + 1
    return True, None


def stability_bound(eps: float, E: float, p: PFunction) -> float:
    """Jensen-style cap E sqrt(p^{-1}(eps^2 / E^2)) on the worst-case norm."""
    _check_scales(eps, E)
    return E * math.sqrt(p.inverse(_square(eps / E, "(eps/E)^2", f"eps = {eps:g}, E = {E:g}")))


def stability_sup_exact(eigenvalues, beta, eps: float, E: float) -> float:
    """Exact sup { ||f|| : ||lambda f|| <= eps, ||beta f|| <= E } over the listed modes.

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
    _check_scales(eps, E)
    ratio2 = _square(eps / E, "(eps/E)^2", f"eps = {eps:g}, E = {E:g}")
    ma, ea = _scaled((_square(lam, "lambda_k^2"),), (ratio2,))
    mb, eb = _scaled((_square(_weights(beta, lam.size), "beta_k^2"),))
    # Every point has max(x, y) in [2^(max(e_a, e_b) - 1), 2^max(e_a, e_b)), so the minimum lies
    # in [2^(top - 2), 2^top).  A point with a coordinate above 2^(top + 500) moves
    # it by under 2^-498 relative and is dropped; the rest, divided by 2^top, are finite.
    top = int(np.min(np.maximum(ea, eb)))
    keep = np.maximum(ea, eb) <= top + 500
    a = np.ldexp(ma[keep], ea[keep] - top)
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
    d = hx - hy
    i = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)  # the edges (i, i + 1) crossing x = y
    crossings = (hx[i] * hy[i + 1] - hx[i + 1] * hy[i]) / (d[i] - d[i + 1])
    best = float(np.min(np.concatenate([np.maximum(hx, hy), crossings])))
    # sup = E / sqrt(best 2^top), scaled back from the mantissa of E.
    half, odd = divmod(top, 2)
    return _ldexp(*_scaled((E,), (math.sqrt(math.ldexp(best, odd)),), -half))


@dataclass
class ContinuityFit:
    """Classification of a noise-to-error sweep as Holder or logarithmic."""

    model: str
    exponent: float
    residual: float


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
        return ContinuityFit("holder", slope_h, resid_h)
    return ContinuityFit("logarithmic", slope_l, resid_l)
