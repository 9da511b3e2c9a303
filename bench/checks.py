"""Independent oracles and per-command output checks.

Every check recomputes what a command printed from closed forms or from
numpy routines that share no code with trunceig.  A check raises CheckError
on a mismatch; it returns the worst relative error, against the closed form,
of the triangular-family eigenvalues k <= ACCURACY_MODES that the output
prints, or None when it prints none.

Discretized eigenvalues are never compared byte for byte: a different
eigensolver legitimately moves eigenvalues near round-off, and a better
discretization legitimately moves the triangular ones toward the closed
form.  Triangular-family eigenvalues are therefore checked against the
closed form with a tolerance on the n^-2 rate the plain Nystrom build
meets, and smooth or tabulated kernels against numpy.linalg.eigh of a
Nystrom matrix built here.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

ACCURACY_MODES = 10
# The plain Gauss-Legendre Nystrom build of a kernel with a diagonal kink
# meets rel_err_k <= C (k/n)^2 with C about 1.75 at k = 1 and 1.36 at k = 10.
KINK_RATE = 2.5
# Modes below DROP_TOL * |lambda_1| are discarded by the program.
DROP_TOL = 1e-12
# Printed CSV carries 9 significant digits.
PRINT_RTOL = 2e-8


class CheckError(Exception):
    """A command's output disagrees with its oracle."""


def parse_csv(text: str, header: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != header:
        raise CheckError(f"expected header {header!r}, got {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def close(got, want, rtol=PRINT_RTOL, atol=0.0, what="value"):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape} != {want.shape}")
    bad = np.abs(got - want) > atol + rtol * np.abs(want)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckError(f"{what}[{i}]: got {float(got.flat[i])!r}, want {float(want.flat[i])!r}")


def equal(got, want, what="value"):
    if got != want:
        raise CheckError(f"{what}: got {got!r}, want {want!r}")


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def gl_grid(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def green_samples(x: np.ndarray, a: float, b: float, scale: float) -> np.ndarray:
    """scale * (min - a)(b - max)/(b - a): the triangular kernel moved to [a, b]."""
    lo = np.minimum(x[:, None], x[None, :])
    hi = np.maximum(x[:, None], x[None, :])
    return scale * (lo - a) * (b - hi) / (b - a)


def green_eigenvalues(count: int, a: float, b: float, scale: float) -> np.ndarray:
    k = np.arange(1, count + 1, dtype=float)
    return scale * ((b - a) / (k * math.pi)) ** 2


def sinc_samples(x: np.ndarray, c: float) -> np.ndarray:
    d = x[:, None] - x[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(c * d) / (math.pi * d)
    out[np.abs(d) <= 1e-12] = c / math.pi
    return out


def nystrom_eigenvalues(samples: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Kept eigenvalues of sqrt(w) K sqrt(w), ordered by magnitude."""
    root = np.sqrt(weights)
    lam = np.linalg.eigvalsh(root[:, None] * samples * root[None, :])
    lam = lam[np.argsort(-np.abs(lam), kind="stable")]
    return lam[np.abs(lam) > DROP_TOL * abs(lam[0])]


def prolate_chi(c: float, count: int) -> np.ndarray:
    """Smallest eigenvalues of the operator commuting with the sinc kernel,
    in the normalized Legendre basis (pentadiagonal, see the kernels module
    docstring), at an order far past the one the program settles on."""
    order = count + 60 + int(2 * c)
    m = np.arange(order, dtype=float)
    a = np.zeros(order)
    a[1:] = m[1:] / np.sqrt(4.0 * m[1:] ** 2 - 1.0)
    a_next = (m + 1.0) / np.sqrt(4.0 * (m + 1.0) ** 2 - 1.0)
    mat = np.diag(m * (m + 1.0) + c * c * (a * a + a_next * a_next))
    off = c * c * a_next[:-2] * a_next[1:-1]
    mat += np.diag(off, 2) + np.diag(off, -2)
    return np.linalg.eigvalsh(mat)[:count]


def constraint_weights(spec: str, count: int) -> np.ndarray:
    k = np.arange(1, count + 1, dtype=float)
    if spec == "derivative":
        return math.pi * k
    head, _, rest = spec.partition(":c=")
    if head == "sinc_log":
        c = float(rest)
        split = math.ceil(math.e * c)
        out = np.empty(count)
        head_n = min(split, count)
        out[:head_n] = np.sqrt(prolate_chi(c, head_n))
        tail = k[split:]
        out[split:] = np.sqrt(2.0 * tail * np.log(tail / (math.e * c)))
        return out
    raise ValueError(f"no oracle for constraint {spec!r}")


# ---------------------------------------------------------------------------
# Coefficient-space oracles
# ---------------------------------------------------------------------------


def cutoff(lam: np.ndarray, weights: np.ndarray, eps: float, E: float) -> int:
    hits = np.nonzero(lam >= (eps / E) * weights)[0]
    return int(hits[-1] + 1) if hits.size else 0


def bits(lam: np.ndarray, cut: int, eps: float, E: float) -> float:
    return float(np.sum(np.log2(E * lam[:cut] / eps)))


def synthesis(lam, beta, eps, E, seed, decay=(1.0, 2.0)):
    """(f, noise) of a tight, flat-noise instance with f_k = c k^-q."""
    k = np.arange(1, lam.size + 1, dtype=float)
    f = decay[0] * k ** (-decay[1])
    f *= E / math.sqrt(float(np.sum(beta**2 * f**2)))
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(lam.size)
    fraction = rng.uniform(0.5, 1.0)
    return f, draws * (fraction * eps / float(np.linalg.norm(draws)))


def sup_exact(lam, beta, eps, E) -> float:
    """sup ||f|| subject to ||lambda f|| <= eps and ||beta f|| <= E.

    With u_k = f_k^2 this is the LP max sum u s.t. a.u <= 1, b.u <= 1 for
    a = lambda^2/eps^2, b = beta^2/E^2.  Its dual gives 1 / max_t g(t) with
    g(t) = min_k (b_k + t (a_k - b_k)) on [0, 1]: the maximum of a concave
    piecewise-linear function, found where the lower envelope of the rising
    lines crosses that of the falling ones.
    """
    a = lam**2 / eps**2
    b = beta**2 / E**2
    slope = a - b
    rising = slope >= 0

    def g(t: float) -> float:
        return float(np.min(b + t * slope))

    if not rising.any():
        best = g(0.0)
    elif rising.all():
        best = g(1.0)
    else:
        def gap(t):
            return np.min(b[rising] + t * slope[rising]) - np.min(b[~rising] + t * slope[~rising])

        if gap(0.0) >= 0:
            best = g(0.0)
        elif gap(1.0) <= 0:
            best = g(1.0)
        else:
            lo, hi = 0.0, 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                lo, hi = (mid, hi) if gap(mid) < 0 else (lo, mid)
            i = np.flatnonzero(rising)[np.argmin(b[rising] + lo * slope[rising])]
            j = np.flatnonzero(~rising)[np.argmin(b[~rising] + lo * slope[~rising])]
            vertex = (b[j] - b[i]) / (slope[i] - slope[j])
            best = max(g(lo), g(float(np.clip(vertex, 0.0, 1.0))))
    return math.sqrt(1.0 / best)


def continuity_fit(eps, sups) -> tuple[str, float]:
    y = np.log(sups)

    def fit(x):
        A = np.stack([x, np.ones_like(x)], axis=1)
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        return float(coef[0]), float(np.sum((A @ coef - y) ** 2))

    slope_h, resid_h = fit(np.log(eps))
    slope_l, resid_l = fit(np.log(np.abs(np.log(eps / 2.0))))
    return ("holder", slope_h) if resid_h <= resid_l else ("logarithmic", slope_l)


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------


def worst_rel_err(lam, exact) -> float:
    count = min(ACCURACY_MODES, len(lam))
    lam = np.asarray(lam[:count], dtype=float)
    return float(np.max(np.abs(lam - exact[:count]) / exact[:count]))


def check_spectrum(text, count, oracle=None, closed_form=None, n=None):
    """oracle: kept eigenvalues of the benchmark's own Nystrom matrix, for
    kernels whose discretization no correct change may move; closed_form:
    the triangular family's eigenvalues, met at the n^-2 rate or better."""
    rows = parse_csv(text, "k,lambda,lambda_analytic,rel_err")
    if oracle is not None:
        count = min(count, oracle.size)
    equal(len(rows), count, "spectrum rows")
    equal([int(r[0]) for r in rows], list(range(1, count + 1)), "mode numbers")
    lam = np.array([float(r[1]) for r in rows])
    if oracle is not None:
        close(lam, oracle[:count], atol=1e-10 * abs(oracle[0]), what="lambda")
    if closed_form is None:
        return None
    exact = closed_form[:count]
    rel = np.abs(lam - exact) / exact
    bad = rel > KINK_RATE * (np.arange(1, count + 1) / n) ** 2
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckError(f"lambda_{i + 1} rel err {rel[i]:.3e} above the n^-2 rate")
    if rows[0][2]:
        close([float(r[2]) for r in rows], exact, what="lambda_analytic")
        # rel is recomputed from lambda rounded to 9 digits.
        close([float(r[3]) for r in rows], rel, rtol=1e-6, atol=2 * PRINT_RTOL, what="rel_err")
    return worst_rel_err(lam, closed_form)


def check_truncate(text, lam, beta, eps_grid, E=1.0):
    rows = parse_csv(text, "eps,k1,k2")
    equal(len(rows), len(eps_grid), "truncate rows")
    for row, eps in zip(rows, eps_grid):
        close(float(row[0]), eps, what="eps")
        equal(int(row[1]), cutoff(lam, np.ones_like(lam), eps, E), f"k1 at eps={eps}")
        equal(int(row[2]), cutoff(lam, beta, eps, E), f"k2 at eps={eps}")
    return None


def check_entropy(text, lam, beta, eps_grid, E=1.0):
    rows = parse_csv(text, "eps,k1,bits_k1,k2,bits_k2,bit_diff")
    equal(len(rows), len(eps_grid), "entropy rows")
    for row, eps in zip(rows, eps_grid):
        k1 = cutoff(lam, np.ones_like(lam), eps, E)
        k2 = cutoff(lam, beta, eps, E)
        equal((int(row[1]), int(row[3])), (k1, k2), f"cutoffs at eps={eps}")
        b1, b2 = bits(lam, k1, eps, E), bits(lam, k2, eps, E)
        close([float(row[i]) for i in (2, 4, 5)], [b1, b2, b1 - b2], atol=1e-7, what="bits")
    return None


def check_sweep(text, lam, beta, eps_grid, seed, gamma=1.0 / 3.0, E=1.0):
    header = ("eps,k1,k2,err_f1_weak_bound,err_f2,bound_sqrt2_M,"
              "lemma6_ok,lemma7_ok,H_bits_k1,H_bits_k2")
    rows = parse_csv(text, header)
    equal(len(rows), len(eps_grid), "sweep rows")
    v = 1.0 / np.arange(1, lam.size + 1)
    for i, (row, eps) in enumerate(zip(rows, eps_grid)):
        k1 = cutoff(lam, np.ones_like(lam), eps, E)
        k2 = cutoff(lam, beta, eps, E)
        equal((int(row[1]), int(row[2])), (k1, k2), f"cutoffs at eps={eps}")
        f, noise = synthesis(lam, beta, eps, E, seed + i)
        miss = f.copy()
        miss[:k2] = -noise[:k2] / lam[:k2]
        weak = 2.0 * eps * math.sqrt(float(np.sum(v * v / (lam**2 + (eps / E) ** 2))))
        want = [eps, weak, np.linalg.norm(miss), math.sqrt(2.0) * E * (eps / E) ** gamma,
                bits(lam, k1, eps, E), bits(lam, k2, eps, E)]
        got = [float(row[j]) for j in (0, 3, 4, 5, 8, 9)]
        close(got, want, rtol=1e-6, atol=1e-9, what=f"sweep row {i}")
        equal((row[6], row[7]), ("true", "true"), "error-splitting flags")
    return None


def check_stability(text, lam, beta, eps_grid, gamma=1.0 / 3.0, E=1.0):
    rows = parse_csv(text, "eps,bound,exact_sup,condition_ok")
    equal(len(rows), len(eps_grid), "stability rows")
    rhs = beta**2 * (1.0 / beta**2) ** (1.0 / gamma)
    ok = "true" if bool(np.all(lam**2 >= rhs * (1.0 - 1e-9))) else "false"
    sups = np.array([sup_exact(lam, beta, eps, E) for eps in eps_grid])
    for row, eps, sup in zip(rows, eps_grid, sups):
        close([float(row[0]), float(row[1]), float(row[2])],
              [eps, E * (eps / E) ** gamma, sup], rtol=1e-6, what=f"stability at eps={eps}")
        equal(row[3], ok, "condition_ok")
    match = re.search(r"^# classification: model=(\w+) exponent=(\S+) ", text, re.M)
    if match is None:
        raise CheckError("missing classification line")
    model, exponent = continuity_fit(np.asarray(eps_grid), sups)
    equal(match.group(1), model, "continuity model")
    close(float(match.group(2)), exponent, rtol=1e-5, what="continuity exponent")
    return None


def check_instance(path, lam, beta, eps, seed, E=1.0):
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    f, noise = synthesis(lam, beta, eps, E, seed)
    # The Jacobi eigensolver stops at an off-diagonal norm of 1e-12 ||A||,
    # so discretized eigenvalues agree with the oracle to that absolute level.
    close(raw["eigenvalues"], lam, rtol=1e-9, atol=1e-11 * lam[0], what="instance eigenvalues")
    close(raw["beta"], beta, rtol=1e-9, what="instance beta")
    close(raw["f_true"], f, rtol=1e-9, what="instance f_true")
    close(raw["g_noisy"], np.asarray(raw["eigenvalues"]) * f + noise, rtol=1e-9, atol=1e-15,
          what="instance g_noisy")
    equal((raw["eps"], raw["E"], raw["seed"]), (eps, E, seed), "instance scalars")
    return None


def check_solve(text, instance_path, closed_form=None):
    with open(instance_path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    lam = np.asarray(raw["eigenvalues"], dtype=float)
    beta = np.asarray(raw["beta"], dtype=float)
    g = np.asarray(raw["g_noisy"], dtype=float)
    rows = parse_csv(text, "k,lambda_k,beta_k,f_k,gbar_k,fhat_k")
    equal(len(rows), lam.size, "solve rows")
    cols = np.array([[float(x) for x in row] for row in rows])
    close(cols[:, 0], np.arange(1, lam.size + 1), what="k")
    close(cols[:, 1], lam, what="lambda_k")
    close(cols[:, 2], beta, what="beta_k")
    close(cols[:, 3], raw["f_true"], what="f_k")
    close(cols[:, 4], g, what="gbar_k")
    cut = cutoff(lam, beta, raw["eps"], raw["E"])
    close(cols[:cut, 5], g[:cut] / lam[:cut], rtol=1e-7, what="fhat_k")
    if np.any(cols[cut:, 5] != 0.0):
        raise CheckError(f"fhat_k nonzero beyond the cutoff {cut}")
    if closed_form is None:
        return None
    return worst_rel_err(cols[:, 1], closed_form)


def check_cover(text, points, eps):
    match = re.fullmatch(r"N=(\d+), M=(\d+), holds=(true|false)\n", text)
    if match is None:
        raise CheckError(f"unexpected cover output {text!r}")
    n_cover, m_pack = int(match.group(1)), int(match.group(2))
    if not 1 <= n_cover <= m_pack <= len(points) or match.group(3) != "true":
        raise CheckError(f"covering/packing chain broken: {text.strip()}")
    # Greedy solutions bracket the exact ones: any eps-separated set found
    # greedily is a packing, and any greedy cover is a cover.
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    packing: list[int] = []
    for i in range(len(points)):
        if all(dist[i, j] > eps for j in packing):
            packing.append(i)
    uncovered = np.ones(len(points), dtype=bool)
    greedy_cover = 0
    while uncovered.any():
        gains = ((dist <= eps) & uncovered[None, :]).sum(axis=1)
        uncovered &= dist[int(np.argmax(gains))] > eps
        greedy_cover += 1
    if m_pack < len(packing) or n_cover > greedy_cover:
        raise CheckError(f"N={n_cover}, M={m_pack} outside greedy brackets "
                         f"N <= {greedy_cover}, M >= {len(packing)}")
    return None
