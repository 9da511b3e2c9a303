"""Concrete kernels and their spectral reference data.

Two analytically understood kernels drive everything downstream: the
triangular kernel on [0, 1], whose eigensystem is knowable in closed form,
and the bandlimiting sinc kernel on [-1, 1], whose eigenvalue staircase is
summarized by the Shannon number.  The sinc case also carries the commuting
second-order differential operator, diagonalized here in a normalized
Legendre basis to produce its eigenvalue sequence chi_k.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ResolutionError
from .spectral import MAX_ORDER, QuadratureGrid, eigh

__all__ = [
    "triangular_kernel",
    "SincKernel",
    "TabulatedKernel",
    "KernelSpec",
    "parse_kernel",
    "prolate_eigenvalues",
    "prolate_modes",
    "legendre_series",
    "shannon_number",
    "plateau_count",
]


def triangular_kernel(x, y):
    """Piecewise-bilinear kernel (1 - max(x,y)) * min(x,y) on [0, 1]^2.

    This is the inverse kernel of the one-dimensional Dirichlet Laplacian, so
    its eigenvalues are 1/(k pi)^2 with eigenfunctions sqrt(2) sin(k pi x).
    x and y may be broadcastable arrays.
    """
    if not np.all((0.0 <= x) & (x <= 1.0) & (0.0 <= y) & (y <= 1.0)):
        raise ValueError("triangular kernel is defined on [0, 1]^2")
    out = 1.0 - np.maximum(x, y)
    out *= np.minimum(x, y)
    return out


@dataclass(frozen=True)
class SincKernel:
    """Bandlimiting kernel sin(c (x - y)) / (pi (x - y)) with bandwidth c > 0."""

    c: float

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError("bandwidth c must be finite and positive")

    def __call__(self, x, y):
        # In place on two arrays of the broadcast shape: the Nystrom build's
        # peak memory is set here.
        d = np.asarray(np.subtract(x, y), dtype=float)
        diagonal = np.abs(d) <= 1e-12
        d[diagonal] = 1.0
        out = np.multiply(self.c, d, out=np.empty_like(d))
        np.sin(out, out=out)
        d *= math.pi
        out /= d
        out[diagonal] = self.c / math.pi
        return out


class TabulatedKernel:
    """Kernel given by symmetric samples on a fixed quadrature grid.

    It can only be evaluated at its own nodes; x and y may be broadcastable
    arrays of them.  It says so through `evaluates_off_grid`, so
    spectral_system gives it no row-defect correction.
    """

    evaluates_off_grid = False

    def __init__(self, grid: QuadratureGrid, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (grid.size, grid.size):
            raise ValueError("sample matrix must be square and match the grid")
        scale = max(float(np.max(np.abs(samples))), 1.0)
        if float(np.max(np.abs(samples - samples.T))) > 1e-12 * scale:
            raise ValueError("tabulated samples must be symmetric within 1e-12")
        self.grid = grid
        self.samples = 0.5 * (samples + samples.T)

    def _locate(self, x):
        nodes = self.grid.nodes
        i = np.minimum(np.searchsorted(nodes, np.subtract(x, 1e-12)), nodes.size - 1)
        if not np.all(np.abs(nodes[i] - x) <= 1e-12):
            raise ValueError("tabulated kernel can only be evaluated at its own nodes")
        return i

    def __call__(self, x, y):
        return self.samples[self._locate(x), self._locate(y)]


@dataclass(frozen=True)
class KernelSpec:
    """Parsed kernel: the callable on [a, b], a tabulated kernel's own grid, the
    closed-form eigenvalues k -> lambda_k (vectorized, k >= 1) where known, and
    the node count below which no quadrature rule resolves it, where known."""

    kernel: Callable
    a: float
    b: float
    grid: QuadratureGrid | None = None
    analytic_eigenvalue: Callable[[np.ndarray], np.ndarray] | None = None
    min_nodes: int | None = None


def _preset(text: str, what: str, heads: dict) -> tuple[str, dict[str, float]]:
    """Head and float parameters of a 'head:key=value,...' string.

    The one grammar behind kernel, constraint and p-function strings: `heads`
    maps each head to its (required, optional) keys.  Every required key must
    appear, no other key is accepted, no key may appear twice, and empty
    chunks are skipped.  `what` names the family in error messages.
    """
    head, _, rest = text.partition(":")
    head = head.strip()
    if head not in heads:
        raise ValueError(f"unknown {what} {head!r}")
    required, optional = heads[head]
    what = f"{head} {what}"
    params = {}
    for chunk in rest.split(","):
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"malformed {what} parameter {chunk!r}")
        if key not in required and key not in optional:
            raise ValueError(f"unknown {what} parameter {key!r}")
        if key in params:
            raise ValueError(f"repeated {what} parameter {key!r}")
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise ValueError(f"bad {what} parameter {chunk!r}") from exc
    for key in required:
        if key not in params:
            raise ValueError(f"{what} requires {key}=...")
    return head, params


def _from_json(raw, what: str, keys: tuple[str, ...], build):
    """build(*values) of `keys` in a parsed JSON file.

    The one shape check of a JSON file: raw must be an object holding every
    key, and a TypeError from build, a field of the wrong type, becomes a
    ValueError.  `what` names the file in error messages.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in raw]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(missing)}")
    try:
        return build(*(raw[key] for key in keys))
    except TypeError as exc:
        raise ValueError(f"{what} field of the wrong type: {exc}") from None


def _tabulated(a, b, nodes, weights, samples) -> KernelSpec:
    grid = QuadratureGrid(float(a), float(b), nodes, weights)
    return KernelSpec(TabulatedKernel(grid, samples), grid.a, grid.b, grid=grid)


def parse_kernel(text: str) -> KernelSpec:
    """Parse a kernel string: 'triangular', 'sinc:c=10[,a=-1,b=1]', 'tabulated:FILE'."""
    head, _, path = text.partition(":")
    if head.strip() == "tabulated":  # the one head whose tail is a file path
        if not path:
            raise ValueError("tabulated kernel requires a file path")
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        return _from_json(raw, "kernel table", ("a", "b", "nodes", "weights", "samples"),
                          _tabulated)
    head, params = _preset(text, "kernel", {"triangular": ((), ()), "sinc": (("c",), ("a", "b"))})
    if head == "triangular":
        return KernelSpec(triangular_kernel, 0.0, 1.0,
                          analytic_eigenvalue=lambda k: 1.0 / (k * math.pi) ** 2)
    c = params["c"]
    kernel = SincKernel(c)  # checks c
    a = params.get("a", -1.0)
    b = params.get("b", 1.0)
    if not -math.inf < a < b < math.inf:
        raise ValueError("sinc interval must satisfy finite a < b")
    if not math.isfinite(b - a):
        raise ValueError(f"sinc interval [{a:g}, {b:g}] is too long: b - a overflows")
    if not math.isfinite(math.pi * (b - a)):
        raise ValueError(f"sinc interval [{a:g}, {b:g}] is too long: pi*(b - a) overflows")
    if not math.isfinite(c * (b - a)):
        raise ValueError(f"bandwidth c = {c:g} is too large for [{a:g}, {b:g}]: "
                         "c*(b - a) overflows")
    # Two nodes per period 2 pi / c of sin(c (x - y)) where an n-point rule is sparsest,
    # about pi (b - a) / (2 n) apart mid-interval: a necessary floor, not a sufficient one.
    return KernelSpec(kernel, a, b, min_nodes=math.ceil(c * (b - a) / 2))


# ---------------------------------------------------------------------------
# Commuting differential operator for the sinc kernel.
#
# The operator -d/dx[(1 - x^2) d/dx] + c^2 x^2 on [-1, 1] commutes with the
# bandlimiting kernel and shares its eigenfunctions.  In the orthonormal
# Legendre basis the first term is diagonal with entries m(m+1) and
# multiplication by x is the tridiagonal Jacobi matrix with off-diagonal
# a_m = m / sqrt(4 m^2 - 1), so x^2 contributes the pentadiagonal square of
# that matrix.  Degree m couples only to m and m +- 2, so the even and the odd
# degrees form two tridiagonal blocks of about half the order, and the solves
# below never build the full matrix (Xiao, Rokhlin & Yarvin, Inverse Problems
# 17, 2001).
# ---------------------------------------------------------------------------


def _prolate_coefficients(c: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and (m, m + 2) coupling of the operator in a basis of `order`."""
    if order > MAX_ORDER:
        raise ValueError(
            f"prolate basis order {order} exceeds the limit MAX_ORDER = {MAX_ORDER}"
        )
    m = np.arange(order, dtype=float)
    # Off-diagonal of multiplication-by-x in the normalized Legendre basis:
    # a_m = m / sqrt(4 m^2 - 1), with a_0 = 0.
    a = np.zeros(order)
    a[1:] = m[1:] / np.sqrt(4.0 * m[1:] ** 2 - 1.0)
    a_next = (m + 1.0) / np.sqrt(4.0 * (m + 1.0) ** 2 - 1.0)
    diag = m * (m + 1.0) + c * c * (a * a + a_next * a_next)
    coupling = c * c * a_next[:-2] * a_next[1:-1]
    return diag, coupling


def _prolate_blocks(c: float, order: int) -> list[np.ndarray]:
    """The even-degree and the odd-degree block, each tridiagonal, built
    straight from the coefficient vectors."""
    diag, coupling = _prolate_coefficients(c, order)
    blocks = []
    for parity in (0, 1):
        block = np.diag(diag[parity::2])
        off = coupling[parity::2]
        i = np.arange(off.size)
        block[i, i + 1] = block[i + 1, i] = off
        blocks.append(block)
    return blocks


def _prolate_chi(c: float, count: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The convergence loop behind prolate_eigenvalues and prolate_modes.

    The basis order starts at count + 30 and doubles until the last requested
    eigenvalue is stable under adding 10 more basis functions.  Each solve is
    numpy.linalg.eigvalsh on the two blocks, merged in ascending order.
    Returns (chi, position, order) of the order + 10 solve: position[k] is
    chi_k's index among the even block's ascending eigenvalues followed by the
    odd block's.  Raises ResolutionError after six orders.
    """
    if not 0 < c < math.inf:
        raise ValueError("bandwidth c must be finite and positive")
    if c * c == math.inf:
        raise ValueError(f"bandwidth c = {c:g} is too large: c^2 overflows")
    if count < 1:
        raise ValueError("count must be at least 1")

    def solve(order: int) -> tuple[np.ndarray, np.ndarray]:
        values = np.concatenate([np.linalg.eigvalsh(b) for b in _prolate_blocks(c, order)])
        position = np.argsort(values, kind="stable")[:count]
        return values[position], position

    for order in ((count + 30) * 2**k for k in range(6)):
        # The larger solve first: an order above MAX_ORDER fails before any work.
        chi_check, position = solve(order + 10)
        chi, _ = solve(order)
        scale = max(float(np.abs(chi[-1])), 1.0)
        if float(np.max(np.abs(chi - chi_check))) <= 1e-8 * scale:
            return chi_check, position, order + 10
    raise ResolutionError(f"operator eigenvalues did not stabilize by order {order}")


def prolate_modes(c: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest `count` eigenvalues chi_0 < chi_1 < ... of the commuting
    operator for bandwidth c, and the normalized-Legendre coefficient rows of
    their eigenfunctions.

    chi is prolate_eigenvalues(c, count), unchanged.  The rows come from eigh
    on the same two blocks of the converged order, which is rows.shape[1]; a
    row is zero on the degrees of the other parity.
    """
    chi, position, order = _prolate_chi(c, count)
    rows = np.zeros((count, order))
    n_even = (order + 1) // 2
    odd = position >= n_even
    for parity, block in enumerate(_prolate_blocks(c, order)):
        lam, vectors = eigh(block)
        mine = np.flatnonzero(odd == bool(parity))
        rows[mine, parity::2] = vectors[np.argsort(lam)[position[mine] - parity * n_even]]
    return chi, rows


def prolate_eigenvalues(c: float, count: int) -> np.ndarray:
    """Smallest `count` eigenvalues chi_0 < chi_1 < ... of the commuting
    operator for bandwidth c, from eigvalsh on its even and odd blocks at the
    basis order that _prolate_chi resolves.  Raises ResolutionError if none
    does."""
    return _prolate_chi(c, count)[0]


def legendre_series(coefficients, x) -> np.ndarray:
    """Evaluate sum_m coeff[m] * sqrt(m + 1/2) * P_m(x)."""
    coefficients = np.asarray(coefficients, dtype=float)
    x = np.asarray(x, dtype=float)
    if coefficients.size == 0:
        return np.zeros_like(x)
    scale = np.sqrt(np.arange(coefficients.size) + 0.5)
    return np.polynomial.legendre.legval(x, coefficients * scale)


def shannon_number(omega: float, X: float) -> float:
    """Time-bandwidth mode count omega * X / pi for the band [-omega, omega]
    restricted to an interval of length X."""
    if not (0 < omega < math.inf and 0 < X < math.inf):
        raise ValueError("omega and X must be finite and positive")
    return omega * X / math.pi


def plateau_count(eigenvalues, threshold: float) -> int:
    """Number of eigenvalues at or above threshold in a non-increasing sequence."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    finite = bool(np.all(np.isfinite(eigenvalues))) and math.isfinite(threshold)
    if eigenvalues.ndim != 1 or eigenvalues.size == 0 or not finite:
        raise ValueError("need a non-empty 1-d array of finite eigenvalues and a finite threshold")
    scale = float(np.max(np.abs(eigenvalues)))
    if np.any(np.diff(eigenvalues) > 1e-12 * max(scale, 1.0)):
        raise ValueError("eigenvalues must be non-increasing")
    return int(np.sum(eigenvalues >= threshold))
