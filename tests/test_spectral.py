"""Quadrature, Nystrom discretization, and the eigensolver."""

import json
import math
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from trunceig import (
    QuadratureGrid,
    SincKernel,
    TabulatedKernel,
    eigh,
    gauss_legendre,
    nystrom_matrix,
    parse_kernel,
    project,
    reconstruct,
    row_defect,
    spectral_eigenvalues,
    spectral_system,
    triangular_kernel,
)
from trunceig.spectral import MAX_ORDER

from conftest import triangular_eigensystem


def test_gauss_legendre_two_point_closed_form():
    # On [-1, 1] the two-point rule sits at +-1/sqrt(3) with unit weights.
    g = gauss_legendre(2, -1.0, 1.0)
    r = 1.0 / np.sqrt(3.0)
    assert g.nodes == pytest.approx([-r, r], abs=1e-15)
    assert g.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    # Affine map onto [2, 5].
    g = gauss_legendre(2, 2.0, 5.0)
    assert g.nodes == pytest.approx([3.5 - 1.5 * r, 3.5 + 1.5 * r], abs=1e-14)
    assert g.weights == pytest.approx([1.5, 1.5], abs=1e-14)


def test_gauss_legendre_integrates_polynomials_exactly():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8, 13, 40):
        a, b = sorted(rng.uniform(-3.0, 3.0, size=2))
        if b - a < 0.1:
            b = a + 0.7
        g = gauss_legendre(n, a, b)
        for deg in range(0, 2 * n):
            exact = (b ** (deg + 1) - a ** (deg + 1)) / (deg + 1)
            got = float(np.sum(g.weights * g.nodes**deg))
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-13)


def test_gauss_legendre_grid_invariants():
    for n in (2, 7, 64):
        g = gauss_legendre(n, 0.0, 1.0)
        assert g.size == n
        assert np.all(np.diff(g.nodes) > 0)
        assert np.all(g.weights > 0)
        assert float(np.sum(g.weights)) == pytest.approx(1.0, abs=1e-13)
        assert np.all(g.nodes > 0.0) and np.all(g.nodes < 1.0)
    with pytest.raises(ValueError):
        gauss_legendre(1, 0.0, 1.0)
    with pytest.raises(ValueError, match=f"exceed the limit MAX_ORDER = {MAX_ORDER}"):
        gauss_legendre(MAX_ORDER + 1, 0.0, 1.0)
    for a, b in ((-1e308, 1e308), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match=r"^interval \[.*\] must have a finite length b - a$"):
            gauss_legendre(8, a, b)
    for a, b in ((1.0, 0.0), (0.5, 0.5)):  # QuadratureGrid's own check
        with pytest.raises(ValueError, match=r"^interval must satisfy a < b$"):
            gauss_legendre(8, a, b)
    # a + b overflows here but b - a does not: the nodes are still inside.
    g = gauss_legendre(8, 1e308, 1.5e308)
    assert 1e308 < g.nodes[0] and g.nodes[-1] < 1.5e308


REFERENCE = json.loads((Path(__file__).parent / "gauss_legendre_40digits.json").read_text())


@pytest.mark.parametrize("n, earlier_rtol", [
    (16, 1.89e-15), (24, 1.09e-14), (128, 3.40e-13), (400, 1.93e-12),
])
def test_gauss_legendre_matches_a_40_digit_reference(n, earlier_rtol):
    # Errors are taken exactly, in decimal.  earlier_rtol is the weights' error
    # under the earlier Newton on all n roots.  The end weights are the worst:
    # w = 2 / ((1 - x^2) P_n'(x)^2) moves by 2 dx / (1 - x^2) relative when the
    # end node x moves by dx, so the bound adds that change for one ulp of x,
    # which another libm's rounding may shift the end node by.
    rule = REFERENCE["rules"][str(n)]
    half_x = [Decimal(s) for s in rule["nodes"]]
    half_w = [Decimal(s) for s in rule["weights"]]
    want_x = [-x for x in reversed(half_x)] + half_x[n % 2:]
    want_w = list(reversed(half_w)) + half_w[n % 2:]
    end = float(half_x[-1])
    weight_rtol = earlier_rtol + 2 * math.ulp(end) / (1 - end * end)
    g = gauss_legendre(n, -1.0, 1.0)
    assert max(abs(Decimal(x) - want) for x, want in zip(g.nodes, want_x)) <= Decimal("1e-16")
    assert max(abs(Decimal(w) / want - 1) for w, want in zip(g.weights, want_w)) <= weight_rtol


@pytest.mark.parametrize("n", [2, 3, 16, 17, 24, 127, 128, 255, 256, 257, 400, 401, 2047, 2048])
def test_gauss_legendre_is_exactly_symmetric(n):
    g = gauss_legendre(n, -1.0, 1.0)
    assert np.array_equal(g.nodes, -g.nodes[::-1])
    assert np.array_equal(g.weights, g.weights[::-1])
    if n % 2:
        assert g.nodes[n // 2] == 0.0


def test_quadrature_grid_validation():
    nodes = np.array([0.2, 0.8])
    w = np.array([0.5, 0.5])
    QuadratureGrid(0.0, 1.0, nodes, w)  # sane baseline
    with pytest.raises(ValueError):
        QuadratureGrid(1.0, 0.0, nodes, w)
    with pytest.raises(ValueError):
        QuadratureGrid(0.0, 1.0, nodes[::-1].copy(), w)
    with pytest.raises(ValueError):
        QuadratureGrid(0.0, 1.0, nodes, np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        QuadratureGrid(0.0, 1.0, nodes, np.array([0.5, 0.1]))
    with pytest.raises(ValueError):
        QuadratureGrid(0.0, 1.0, np.array([1.2, 1.8]), w)
    with pytest.raises(ValueError):
        QuadratureGrid(0.0, 1.0, np.array([0.4]), np.array([1.0]))
    with pytest.raises(ValueError, match="^nodes and weights must be one-dimensional$"):
        QuadratureGrid(0.0, 1.0, nodes[None, :], w)
    with pytest.raises(ValueError, match="^nodes and weights must have equal length$"):
        QuadratureGrid(0.0, 1.0, nodes, np.array([0.25, 0.25, 0.5]))
    # A kernel table's rule gets gauss_legendre's limits on the interval and the order.
    with pytest.raises(ValueError, match=r"^interval \[-1e\+308, 1e\+308\] must have a finite "
                                         r"length b - a$"):
        QuadratureGrid(-1e308, 1e308, nodes, np.array([1e308, 1e308]))
    n = MAX_ORDER + 1
    with pytest.raises(ValueError, match=f"^{n} quadrature nodes exceed the limit "
                                         f"MAX_ORDER = {MAX_ORDER}$"):
        QuadratureGrid(0.0, 1.0, (np.arange(n) + 0.5) / n, np.full(n, 1.0 / n))


def test_nystrom_matrix_constant_kernel():
    g = gauss_legendre(12, 0.0, 1.0)
    m = nystrom_matrix(lambda x, y: 1.0, g)
    rw = np.sqrt(g.weights)
    assert np.max(np.abs(m.entries - np.outer(rw, rw))) < 1e-15
    # Rank one with trace sum(w) = 1.
    lam, _ = eigh(m.entries)
    assert lam[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(lam[1:])) < 1e-12


def test_nystrom_matrix_is_exactly_symmetric():
    g = gauss_legendre(30, 0.0, 1.0)

    def lopsided(x, y):
        # Float evaluation of a symmetric formula in asymmetric order.
        return (x * 0.1 + 1.0) * (y * 0.1 + 1.0) + np.sin(3.0 * x) * np.sin(3.0 * y)

    m = nystrom_matrix(lopsided, g).entries
    assert np.array_equal(m, m.T)


def test_nystrom_matrix_rejects_non_finite_kernel():
    g = gauss_legendre(4, 0.0, 1.0)

    def bad(x, y):
        return np.where((x > 0.8) & (y > 0.8), np.nan, x * y)

    with pytest.raises(ValueError, match=r"\(3, 3\)"):
        nystrom_matrix(bad, g)


def test_nystrom_matrix_calls_kernel_once_on_broadcast_nodes():
    g = gauss_legendre(7, 0.0, 1.0)
    shapes = []

    def recording(x, y):
        shapes.append((np.shape(x), np.shape(y)))
        return x * y

    nystrom_matrix(recording, g)
    assert shapes == [((7, 1), (1, 7))]


def test_nystrom_matrix_leaves_the_kernels_array_unchanged():
    # A kernel may hand back an array it keeps, such as a cached table.
    g = gauss_legendre(9, 0.0, 1.0)
    cached = triangular_kernel(g.nodes[:, None], g.nodes[None, :]) + 0.25
    before = cached.copy()
    m = nystrom_matrix(lambda x, y: cached, g).entries
    assert np.array_equal(cached, before)
    rw = np.sqrt(g.weights)
    assert np.array_equal(m, 0.5 * (rw[:, None] * cached * rw + (rw[:, None] * cached * rw).T))


def test_eigh_two_by_two_closed_form():
    lam, vec = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert lam == pytest.approx([3.0, 1.0], abs=1e-14)
    r = 1.0 / np.sqrt(2.0)
    assert vec[0] == pytest.approx([r, r], abs=1e-12)
    assert vec[1] == pytest.approx([r, -r], abs=1e-12)


def test_eigh_identity_and_zero():
    lam, vec = eigh(np.eye(5))
    assert lam == pytest.approx(np.ones(5))
    assert np.max(np.abs(vec @ vec.T - np.eye(5))) < 1e-14

    lam, vec = eigh(np.zeros((4, 4)))
    assert np.all(lam == 0.0)
    assert np.array_equal(vec, np.eye(4))


def test_eigh_random_matrices_reconstruct():
    rng = np.random.default_rng(11)
    for trial in range(6):
        n = int(rng.integers(2, 24))
        m = rng.standard_normal((n, n))
        m = 0.5 * (m + m.T)
        lam, vec = eigh(m)
        scale = float(np.max(np.abs(lam)))

        # Ordering by magnitude, rows orthonormal, sign pinned.
        assert np.all(np.diff(np.abs(lam)) <= 1e-12 * scale)
        assert np.max(np.abs(vec @ vec.T - np.eye(n))) < 1e-10
        for row in vec:
            lead = row[np.argmax(np.abs(row) > 1e-12 * np.max(np.abs(row)))]
            assert lead > 0

        # M v = lambda v and full reconstruction.
        resid = m @ vec.T - vec.T * lam[None, :]
        assert np.max(np.abs(resid)) < 1e-9 * max(scale, 1.0)
        assert np.max(np.abs(vec.T @ np.diag(lam) @ vec - m)) < 1e-9 * max(scale, 1.0)


def test_eigh_agrees_with_numpy():
    rng = np.random.default_rng(29)
    m = rng.standard_normal((40, 40))
    m = 0.5 * (m + m.T)
    lam, _ = eigh(m)
    ref = np.linalg.eigvalsh(m)
    ref = ref[np.argsort(-np.abs(ref), kind="stable")]
    assert lam == pytest.approx(ref, abs=1e-10)


def test_eigh_near_diagonal_input_is_no_op_fast():
    d = np.diag(np.array([5.0, 3.0, 2.0, 1.0]))
    d[0, 1] = d[1, 0] = 1e-16
    lam, vec = eigh(d)
    assert lam == pytest.approx([5.0, 3.0, 2.0, 1.0])
    assert np.max(np.abs(vec - np.eye(4))) < 1e-12


def test_eigh_checks_its_input_array():
    with pytest.raises(ValueError, match="square"):
        eigh(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        eigh(np.ones(4))
    m = np.eye(3)
    m[2, 1] = np.inf
    with pytest.raises(ValueError, match=r"non-finite matrix entry at \(2, 1\)"):
        eigh(m)
    m[2, 1] = np.nan
    with pytest.raises(ValueError, match=r"\(2, 1\)"):
        eigh(m)


def test_triangular_system_matches_analytic_eigenpairs(tri_sys_256):
    sys = tri_sys_256
    lam1, psi1 = triangular_eigensystem(1)
    assert abs(sys.eigenvalues[0] - lam1) <= 1e-4 * lam1

    # Leading eigenfunction within 1e-3 of sqrt(2) sin(pi x) up to sign.
    samples = psi1(sys.grid.nodes)
    diff = min(
        float(np.max(np.abs(sys.eigfun[0] - samples))),
        float(np.max(np.abs(sys.eigfun[0] + samples))),
    )
    assert diff <= 1e-3

    # All eigenvalues positive here and sorted by magnitude.
    assert sys.negative_count == 0
    assert np.all(np.diff(np.abs(sys.eigenvalues)) <= 1e-12 * sys.eigenvalues[0])


def test_triangular_eigenvalue_error_shrinks_with_refinement():
    worst = []
    for n in (64, 128, 256):
        sys = spectral_system(triangular_kernel, gauss_legendre(n, 0.0, 1.0))
        exact = np.array([triangular_eigensystem(k)[0] for k in range(1, 11)])
        worst.append(float(np.max(np.abs(sys.eigenvalues[:10] - exact) / exact)))
    assert worst[0] > worst[1] > worst[2]
    # 2.5e-3 sits just above the plain 256-node build's error on the first
    # ten modes (2.1e-3); with the row-defect correction the error is about
    # 3e-6, and acceptance criterion 1 pins it below 1e-3.
    assert worst[2] < 2.5e-3


def test_triangular_row_defect_matches_closed_form_row_integral():
    # int_0^1 K(x, y) dy = x (1 - x) / 2; the split rule integrates each
    # linear piece of the triangular kernel exactly.
    g = gauss_legendre(64, 0.0, 1.0)
    x = g.nodes
    want = x * (1.0 - x) / 2.0 - triangular_kernel(x[:, None], x[None, :]) @ g.weights
    assert np.max(np.abs(want)) > 1e-6
    d = row_defect(triangular_kernel, g, nystrom_matrix(triangular_kernel, g).entries)
    assert d == pytest.approx(want, abs=1e-15)


def test_smooth_kernel_row_defect_is_round_off(sinc_sys_400):
    kern = SincKernel(10.0)
    g = sinc_sys_400.grid
    bound = float(np.max(np.abs(row_defect(kern, g, nystrom_matrix(kern, g).entries))))
    assert bound < 1e-14
    # Weyl: adding diag(d) moves no eigenvalue by more than max |d_i|.
    plain = eigh(nystrom_matrix(kern, g).entries)[0][: sinc_sys_400.n_modes]
    assert np.max(np.abs(sinc_sys_400.eigenvalues - plain)) <= bound


def test_row_defect_leaves_unresolved_rows_uncorrected():
    # At c = 80 the sinc kernel oscillates too fast for the split rule on
    # [-1, 1], its check order disagrees on every row, and the build stays the
    # plain one, which the 400-node grid resolves.
    kern = SincKernel(80.0)
    g = gauss_legendre(400, -1.0, 1.0)
    assert not np.any(row_defect(kern, g, nystrom_matrix(kern, g).entries))


@pytest.mark.filterwarnings("error")
def test_row_defect_on_a_wide_interval_does_not_overflow():
    # sqrt(w_i) K_ij w_j overflowed in the row sums near 1e300, though
    # sum_j w_j K_ij is finite: a RuntimeWarning from the matrix product.  8
    # nodes do not resolve this kernel (the CLI refuses them), so no row is
    # corrected.
    kern = SincKernel(10.0)
    g = gauss_legendre(8, 1e300, 1.0000001e300)
    assert np.array_equal(row_defect(kern, g, nystrom_matrix(kern, g).entries), np.zeros(8))


@pytest.mark.parametrize("text, n", [("triangular", 128), ("sinc:c=10", 200)])
def test_row_defect_is_the_split_integral_less_the_plain_row_sums(text, n):
    # The zero matrix gives the split rule's integrals; scaling sqrt(w) by a
    # power of two before its product with the matrix changes no bit of the rest.
    spec = parse_kernel(text)
    g = gauss_legendre(n, spec.a, spec.b)
    matrix = nystrom_matrix(spec.kernel, g).entries
    integral = row_defect(spec.kernel, g, np.zeros_like(matrix))
    assert np.all(integral != 0.0)  # every row is resolved
    root_w = np.sqrt(g.weights)
    assert np.array_equal(row_defect(spec.kernel, g, matrix),
                          integral - (matrix @ root_w) / root_w)


def test_tabulated_kernel_gets_no_row_defect():
    g = gauss_legendre(40, 0.0, 1.0)
    table = TabulatedKernel(g, triangular_kernel(g.nodes[:, None], g.nodes[None, :]))
    system = spectral_system(table, g)
    plain = eigh(nystrom_matrix(table, g).entries)[0]
    assert np.array_equal(system.eigenvalues, plain[: system.n_modes])


def test_weighted_orthonormality_of_eigenfunctions(tri_sys_256):
    sys = tri_sys_256
    w = sys.grid.weights
    k = min(sys.n_modes, 12)
    gram = (sys.eigfun[:k] * w[None, :]) @ sys.eigfun[:k].T
    assert np.max(np.abs(gram - np.eye(k))) < 1e-8


def test_constant_kernel_single_retained_mode():
    sys = spectral_system(lambda x, y: 1.0, gauss_legendre(20, 0.0, 1.0))
    assert sys.n_modes == 1
    assert sys.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    # The eigenfunction of the rank-one averaging kernel is constant 1.
    assert sys.eigfun[0] == pytest.approx(np.ones(20), abs=1e-10)


def test_project_reconstruct_round_trip(tri_sys_256):
    sys = tri_sys_256
    rng = np.random.default_rng(17)
    # A band-limited function: exact linear combination of stored modes.
    coeffs = np.zeros(sys.n_modes)
    coeffs[:8] = rng.standard_normal(8)
    samples = reconstruct(sys, coeffs, sys.n_modes)
    back = project(sys, samples)
    assert np.max(np.abs(back - coeffs)) < 1e-8

    # Parseval: weighted square norm equals coefficient square norm.
    norm_x = float(np.sum(sys.grid.weights * samples**2))
    assert norm_x == pytest.approx(float(np.sum(coeffs**2)), rel=1e-8)

    assert np.all(reconstruct(sys, coeffs, 0) == 0.0)
    with pytest.raises(ValueError):
        reconstruct(sys, coeffs, sys.n_modes + 1)
    with pytest.raises(ValueError, match="^need at least cutoff coefficients$"):
        reconstruct(sys, coeffs[:3], 4)
    with pytest.raises(ValueError):
        project(sys, samples[:-1])


def _table_40():
    g = gauss_legendre(40, 0.0, 1.0)
    return TabulatedKernel(g, triangular_kernel(g.nodes[:, None], g.nodes[None, :])), g


@pytest.mark.parametrize("kernel, grid", [
    (triangular_kernel, gauss_legendre(256, 0.0, 1.0)),
    (SincKernel(10.0), gauss_legendre(400, -1.0, 1.0)),
    (SincKernel(1.0), gauss_legendre(200, -1.0, 1.0)),
    _table_40(),
    (lambda x, y: 1.0, gauss_legendre(20, 0.0, 1.0)),
], ids=["triangular-256", "sinc-10-400", "sinc-1-200", "tabulated-40", "constant-20"])
def test_spectral_eigenvalues_match_spectral_system(kernel, grid):
    # eigvalsh and eigh run different LAPACK algorithms on the same matrix:
    # the values agree to round-off in lambda_1, and the same modes are kept.
    system = spectral_system(kernel, grid)
    lam = spectral_eigenvalues(kernel, grid)
    assert lam.shape == system.eigenvalues.shape
    assert np.max(np.abs(lam - system.eigenvalues)) <= 4e-15 * abs(system.eigenvalues[0])
    assert np.all(np.diff(np.abs(lam)) <= 0)


@pytest.mark.parametrize("kernel, a", [(SincKernel(10.0), -1.0), (triangular_kernel, 0.0)],
                         ids=["sinc", "triangular"])
def test_spectral_eigenvalues_peak_memory(kernel, a):
    # The Nystrom build holds the kernel's samples and one scaled copy, and
    # eigvalsh one more copy for LAPACK: about 2 n^2 doubles at the peak,
    # where the eigh route of spectral_system holds about 3.2 n^2.
    n = 400
    grid = gauss_legendre(n, a, 1.0)
    spectral_eigenvalues(kernel, grid)  # first-call set-up is not counted
    tracemalloc.start()
    try:
        spectral_eigenvalues(kernel, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 8


@pytest.mark.parametrize("kernel, a", [(SincKernel(10.0), -1.0), (triangular_kernel, 0.0)],
                         ids=["sinc", "triangular"])
def test_spectral_system_peak_memory(kernel, a):
    # The operator matrix stays alive through eigh, which holds at most two
    # more n x n arrays of doubles (LAPACK's eigenvectors and their sorted
    # rows, or the sorted rows and their magnitudes): about 3.2 n^2 at n = 400.
    n = 400
    grid = gauss_legendre(n, a, 1.0)
    spectral_system(kernel, grid)  # first-call set-up is not counted
    tracemalloc.start()
    try:
        spectral_system(kernel, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * n * n * 8
