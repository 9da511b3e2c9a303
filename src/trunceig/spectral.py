"""Quadrature discretization of symmetric integral operators.

A symmetric kernel K(x, y) on [a, b] is sampled on a Gauss-Legendre grid and
scaled into the symmetric matrix sqrt(w_i) K(x_i, x_j) sqrt(w_j), whose
eigenpairs approximate the eigenvalues and (weighted) eigenfunction samples of
the integral operator.  operator_matrix builds that matrix with the row
defect below on its diagonal, and two routes solve it with LAPACK's symmetric
driver:

- spectral_eigenvalues calls numpy.linalg.eigvalsh and returns the kept
  eigenvalues only.  The truncation rules read nothing else, so the CLI
  takes this route.
- spectral_system calls numpy.linalg.eigh and keeps the eigenfunction
  samples too, for project and reconstruct.

Both order the eigenvalues by non-increasing magnitude and drop the same
modes (DROP_TOL).  eigvalsh and eigh use different LAPACK algorithms, so
their eigenvalues agree to a few units of round-off in lambda_1, not bit for
bit.

Kernels are array-valued: K(X, Y) takes broadcastable node arrays and returns
the samples at every (X, Y) pair; a scalar return is broadcast.

A kernel whose derivative jumps on the diagonal, such as the triangular
kernel, defeats the smoothness that Gauss-Legendre quadrature relies on, and
the plain build converges only like n^-2.  operator_matrix therefore adds the
row defect d_i = int_a^b K(x_i, y) dy - sum_j w_j K(x_i, x_j) to the diagonal
before either eigensolve (singularity subtraction; Kress, Linear Integral
Equations, ch. 12; Atkinson 1997, ch. 4).  The row integral is a Gauss-Legendre
sum on [a, x_i] plus one on [x_i, b], which is accurate for any kernel that is
smooth on each side of the diagonal; for a kernel smooth across it the defect
is at round-off and changes nothing.  A kernel that cannot be evaluated off
its own nodes declares `evaluates_off_grid = False` (TabulatedKernel does) and
gets no correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureGrid",
    "SymmetricOperatorMatrix",
    "SpectralSystem",
    "gauss_legendre",
    "nystrom_matrix",
    "operator_matrix",
    "eigh",
    "row_defect",
    "spectral_system",
    "spectral_eigenvalues",
    "project",
    "reconstruct",
]

# Modes whose eigenvalue magnitude falls below DROP_TOL * |lambda_1| carry no
# usable spectral information at double precision and are discarded.
DROP_TOL = 1e-12

# Gauss-Legendre orders of the row integrals in row_defect: the value is the
# SPLIT_ORDER sum on each side of the diagonal, and a row whose CHECK_ORDER sum
# differs from it by more than DEFECT_RTOL * int |K(x_i, y)| dy is taken as
# unresolved by the split rule and keeps d_i = 0.  Gauss-Legendre error decays
# geometrically in the order, so agreement at 16 points leaves the 24-point
# value at round-off.
SPLIT_ORDER = 24
CHECK_ORDER = 16
DEFECT_RTOL = 1e-12

# Largest order of any dense build: the Gauss-Legendre node count (and so the
# Nystrom matrix) and the prolate basis order in kernels.  Both are checked
# before anything of that size is allocated.  At the limit, on a 2-core x86-64
# VM with 1 BLAS thread, `trunceig spectrum --kernel sinc:c=10 --n-nodes 2048`
# takes 1.4-1.7 s at 102 MB peak RSS, and `trunceig stability --constraint
# prolate:c=1 --n-modes 2008` (basis order 2038, checked at 2048, as two
# blocks of about half that order) takes 0.6 s at 53-54 MB.
MAX_ORDER = 2048


@dataclass
class QuadratureGrid:
    """Nodes and weights of a quadrature rule on [a, b]."""

    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if not self.a < self.b:
            raise ValueError("interval must satisfy a < b")
        if self.nodes.ndim != 1 or self.weights.ndim != 1:
            raise ValueError("nodes and weights must be one-dimensional")
        if self.nodes.size != self.weights.size:
            raise ValueError("nodes and weights must have equal length")
        if self.nodes.size < 2:
            raise ValueError("a grid needs at least two nodes")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if self.nodes[0] < self.a or self.nodes[-1] > self.b:
            raise ValueError("nodes must lie inside [a, b]")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        length = self.b - self.a
        with np.errstate(over="ignore"):  # an infinite sum fails the check below
            total = float(np.sum(self.weights))
        if abs(total - length) > 1e-12 * length:
            raise ValueError("weights must sum to b - a")

    @property
    def size(self) -> int:
        return int(self.nodes.size)


def gauss_legendre(n: int, a: float, b: float) -> QuadratureGrid:
    """Gauss-Legendre rule with n nodes on [a, b].

    Nodes are the roots of the degree-n Legendre polynomial: Newton runs on the
    (n + 1) // 2 roots in [0, 1) from Tricomi's O(n^-4) guess (Hale & Townsend,
    SIAM J. Sci. Comput. 35(2), 2013) to a 1e-15 step, and their mirror image
    gives the rest, so the rule is exactly symmetric (an odd order's middle node
    is 0).  It integrates degree 2n - 1 exactly.  Against 40 digits, nodes are
    within 6.4e-17 and the end weights within 1.9e-12 relative at n = 800 and
    7.0e-11 at n = 2048; numpy's leggauss has 1.4e-9 at n = 800, and is cubic in n.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if n > MAX_ORDER:
        raise ValueError(f"{n} quadrature nodes exceed the limit MAX_ORDER = {MAX_ORDER}")
    if not math.isfinite(b - a):  # QuadratureGrid checks a < b
        raise ValueError(f"interval [{a:g}, {b:g}] must have a finite length b - a")

    # Descending roots in [0, 1); cos(theta_k) as a sine is exactly 0 for an odd order's middle root.
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    x = np.sin(np.pi * (n + 1 - 2 * k) / (2 * n + 1))
    x *= 1 - (1 - 1 / n) / (8 * n**2) - (39 - 28 / np.sin(theta) ** 2) / (384 * n**4)
    step = math.inf
    for _ in range(100):
        p_prev, p = np.ones_like(x), x  # P_0 and P_1, then up to P_n-1 and P_n
        for m in range(2, n + 1):
            p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        if np.max(np.abs(step)) <= 1e-15:
            break
        step = p / dp
        x = x - step
    else:
        raise ValueError("Newton iteration for quadrature nodes stalled")
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = np.concatenate([-x, x[n // 2 - 1::-1]])
    w = np.concatenate([w, w[n // 2 - 1::-1]])

    half = 0.5 * (b - a)
    nodes = (0.5 * a + 0.5 * b) + half * x  # a + b may overflow where b - a does not
    weights = half * w
    return QuadratureGrid(float(a), float(b), nodes, weights)


@dataclass
class SymmetricOperatorMatrix:
    """A Nystrom build: the exactly symmetric array `entries` and its order.

    Only nystrom_matrix makes one; eigh and row_defect take plain arrays.
    """

    entries: np.ndarray

    @property
    def order(self) -> int:
        return int(self.entries.shape[0])


def nystrom_matrix(kernel, grid: QuadratureGrid) -> SymmetricOperatorMatrix:
    """Symmetrically scaled kernel samples sqrt(w_i) K(x_i, x_j) sqrt(w_j).

    The kernel is called once, as kernel(x[:, None], x[None, :]) on the node
    column and row, and its result is broadcast to n x n, so a kernel that
    returns a constant scalar is accepted.

    The matrix shares its eigenvalues with the quadrature discretization of
    the integral operator, and eigenvector components v[i] recover weighted
    eigenfunction samples via psi(x_i) = v[i] / sqrt(w_i).
    """
    n = grid.size
    nodes = grid.nodes
    samples = np.broadcast_to(kernel(nodes[:, None], nodes[None, :]), (n, n))
    _check_finite(samples, "kernel evaluation is non-finite at node pair")
    root_w = np.sqrt(grid.weights)
    matrix = root_w[:, None] * samples
    matrix *= root_w
    # The kernel's array may be its own (a cache): it is only read, and
    # dropped here so that it is freed before the transposed copy below.
    del samples
    matrix += matrix.T
    matrix *= 0.5
    return SymmetricOperatorMatrix(matrix)


def operator_matrix(kernel, grid: QuadratureGrid) -> np.ndarray:
    """The matrix both eigensolves run on: W^1/2 K W^1/2 + diag(d).

    That is nystrom_matrix's array with the row defects of row_defect added
    to its diagonal, which keeps it exactly symmetric.
    """
    matrix = nystrom_matrix(kernel, grid).entries
    matrix[np.diag_indices(grid.size)] += row_defect(kernel, grid, matrix)
    return matrix


def _check_finite(m: np.ndarray, what: str = "non-finite matrix entry at") -> None:
    """Raise ValueError naming the first non-finite entry of m after `what`."""
    if not np.all(np.isfinite(m)):
        bad = np.argwhere(~np.isfinite(m))[0]
        raise ValueError(f"{what} ({bad[0]}, {bad[1]})")


def _magnitude_order(lam: np.ndarray) -> np.ndarray:
    """Indices that order eigenvalues by non-increasing magnitude, stable under ties."""
    return np.argsort(-np.abs(lam), kind="stable")


def _kept(lam: np.ndarray) -> np.ndarray:
    """Mask of the modes kept from eigenvalues in magnitude order: those above
    DROP_TOL * |lambda_1|, so none when every eigenvalue is zero."""
    return np.abs(lam) > DROP_TOL * np.abs(lam[0])


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by LAPACK (numpy.linalg.eigh).

    m must be a square array of finite entries; a non-finite entry raises
    ValueError naming it.  LAPACK reads only the lower triangle.
    Returns (eigenvalues, eigenvectors) with eigenvalues ordered by
    non-increasing magnitude (stable under ties) and eigenvectors as rows of
    the second array.  Each eigenvector has its first nonzero component
    positive, which pins the otherwise arbitrary sign.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("eigh needs a square matrix")
    _check_finite(m)
    lam, v = np.linalg.eigh(m)
    order = _magnitude_order(lam)
    lam = lam[order]
    vectors = v.T[order]  # one new C-ordered array of the sorted rows
    del v
    if vectors.size:
        mags = np.abs(vectors)
        anchor = np.argmax(mags > 1e-12 * mags.max(axis=1, keepdims=True), axis=1)
        del mags  # freed before the sign flip copies the rows it selects
        vectors[vectors[np.arange(anchor.size), anchor] < 0] *= -1.0
    return lam, vectors


@dataclass
class SpectralSystem:
    """Discrete eigensystem of an integral operator on a quadrature grid.

    eigfun[k, i] holds the k-th eigenfunction sampled at node i, normalized so
    that sum_i w_i eigfun[j, i] eigfun[k, i] = delta_jk.  Eigenvalues are
    ordered by non-increasing magnitude; negative_count reports how many
    retained eigenvalues are not positive.
    """

    grid: QuadratureGrid
    eigenvalues: np.ndarray
    eigfun: np.ndarray
    negative_count: int

    @property
    def n_modes(self) -> int:
        return int(self.eigenvalues.size)


def row_defect(kernel, grid: QuadratureGrid, matrix: np.ndarray) -> np.ndarray:
    """Row defects d_i = int_a^b K(x_i, y) dy - sum_j w_j K(x_i, x_j) of a Nystrom build.

    `matrix` is the array nystrom_matrix(kernel, grid).entries; the grid's own
    row sums are read from it as (S sqrt(w))_i / sqrt(w_i).  The integral is the SPLIT_ORDER
    Gauss-Legendre sum on [a, x_i] plus the one on [x_i, b], from a single
    kernel call on an n x 2 (SPLIT_ORDER + CHECK_ORDER) array of split nodes.
    Rows whose CHECK_ORDER sums disagree with it (a kernel that oscillates too
    fast for the split rule, or is not smooth off the diagonal), or are not
    finite, get d_i = 0 and keep the plain build.  A kernel with
    `evaluates_off_grid = False` gets d = 0.
    """
    x = grid.nodes
    if not getattr(kernel, "evaluates_off_grid", True):
        return np.zeros(x.size)
    rules = [gauss_legendre(order, 0.0, 1.0) for order in (SPLIT_ORDER, CHECK_ORDER)]
    t = np.concatenate([rule.nodes for rule in rules])
    q = np.concatenate([rule.weights for rule in rules])
    left, right = x - grid.a, grid.b - x
    y = np.hstack([grid.a + left[:, None] * t, x[:, None] + right[:, None] * t])
    weights = np.hstack([left[:, None] * q, right[:, None] * q])
    terms = weights * np.broadcast_to(kernel(x[:, None], y), y.shape)
    value = np.tile(np.arange(t.size) < SPLIT_ORDER, 2)
    integral = terms[:, value].sum(axis=1)
    check = terms[:, ~value].sum(axis=1)
    scale = np.abs(terms[:, value]).sum(axis=1)
    with np.errstate(invalid="ignore"):  # non-finite rows compare False
        resolved = np.abs(integral - check) <= DEFECT_RTOL * scale
    # sqrt(w) scaled by 2^-e, e the exponent of its largest entry: exact, and the product
    # sums w_j K_ij sqrt(w_i) 2^-e, which stays finite where sqrt(w_i) K_ij w_j would not.
    root_w = np.sqrt(grid.weights)
    root_w = np.ldexp(root_w, -np.frexp(np.max(root_w))[1])
    defect = integral - (matrix @ root_w) / root_w
    return np.where(resolved, defect, 0.0)


def spectral_system(kernel, grid: QuadratureGrid) -> SpectralSystem:
    """Eigenvalues and weighted eigenfunction samples of a kernel on a grid.

    The eigensolve runs on W^1/2 K W^1/2 + diag(d), the Nystrom matrix with
    the row defects of row_defect on its diagonal, which is still symmetric.
    The correction restores fast convergence for kernels that are smooth on
    each side of the diagonal but kinked on it (the triangular kernel's
    relative eigenvalue error at 256 nodes falls from 2.1e-3 to 3e-6) and is
    at round-off for kernels smooth across it.  Tabulated kernels, which
    cannot be evaluated between their nodes, get no correction.
    """
    lam, vectors = eigh(operator_matrix(kernel, grid))
    keep = _kept(lam)
    kept_lam = lam[keep]
    psi = vectors[keep]
    psi /= np.sqrt(grid.weights)
    return SpectralSystem(grid, kept_lam, psi, int(np.sum(kept_lam <= 0)))


def spectral_eigenvalues(kernel, grid: QuadratureGrid) -> np.ndarray:
    """The eigenvalues spectral_system keeps, without its eigenfunctions.

    numpy.linalg.eigvalsh on operator_matrix, then spectral_system's
    magnitude order and DROP_TOL filter.  No eigenvector is formed, so the
    solve is faster and holds one n x n array less.  The values agree with
    spectral_system(kernel, grid).eigenvalues to a few units of round-off in
    lambda_1.
    """
    matrix = operator_matrix(kernel, grid)
    _check_finite(matrix)
    lam = np.linalg.eigvalsh(matrix)
    lam = lam[_magnitude_order(lam)]
    return lam[_kept(lam)]


def project(system: SpectralSystem, f_samples) -> np.ndarray:
    """Coefficients sum_i w_i f(x_i) psi_k(x_i) for every stored mode k."""
    f_samples = np.asarray(f_samples, dtype=float)
    if f_samples.shape != (system.grid.size,):
        raise ValueError("sample vector must match the grid size")
    return system.eigfun @ (system.grid.weights * f_samples)


def reconstruct(system: SpectralSystem, coefficients, cutoff: int) -> np.ndarray:
    """Node samples of sum_{k <= cutoff} c_k psi_k."""
    coefficients = np.asarray(coefficients, dtype=float)
    if cutoff < 0 or cutoff > system.n_modes:
        raise ValueError("cutoff must lie between 0 and the stored mode count")
    if coefficients.ndim != 1 or coefficients.size < cutoff:
        raise ValueError("need at least cutoff coefficients")
    if cutoff == 0:
        return np.zeros(system.grid.size)
    return coefficients[:cutoff] @ system.eigfun[:cutoff]
