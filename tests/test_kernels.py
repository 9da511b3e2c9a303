"""Kernel library: closed forms, parsing, prolate spectra, mode counting."""

import json
import math

import numpy as np
import pytest

from trunceig import (
    SincKernel,
    TabulatedKernel,
    gauss_legendre,
    legendre_series,
    parse_kernel,
    plateau_count,
    prolate_eigenvalues,
    prolate_modes,
    shannon_number,
    triangular_kernel,
)
from trunceig import kernels
from trunceig.spectral import eigh

from conftest import triangular_eigensystem


def test_triangular_kernel_values_and_symmetry():
    assert triangular_kernel(0.25, 0.5) == pytest.approx(0.25 * 0.5)
    assert triangular_kernel(0.5, 0.25) == pytest.approx(0.25 * 0.5)
    assert triangular_kernel(0.0, 0.7) == 0.0
    assert triangular_kernel(1.0, 0.7) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, y = rng.uniform(0.0, 1.0, size=2)
        assert triangular_kernel(x, y) == pytest.approx(triangular_kernel(y, x), abs=1e-15)
        assert triangular_kernel(x, y) >= 0.0
    with pytest.raises(ValueError):
        triangular_kernel(-0.1, 0.5)
    with pytest.raises(ValueError):
        triangular_kernel(0.5, 1.1)


def test_triangular_eigensystem_closed_form():
    lam, psi = triangular_eigensystem(3)
    assert lam == pytest.approx(1.0 / (3.0 * math.pi) ** 2)
    x = np.linspace(0.0, 1.0, 7)
    assert psi(x) == pytest.approx(np.sqrt(2.0) * np.sin(3.0 * math.pi * x))
    # Eigenfunctions vanish at the interval ends.
    assert abs(psi(0.0)) < 1e-15 and abs(psi(1.0)) < 1e-12


def test_triangular_kernel_satisfies_eigen_identity():
    # integral K(x, y) psi_k(y) dy = lambda_k psi_k(x), checked by quadrature
    # split at the kink y = x so each piece is smooth.
    for k in (1, 2, 5):
        lam, psi = triangular_eigensystem(k)
        for x in (0.15, 0.5, 0.83):
            integral = 0.0
            for g in (gauss_legendre(40, 0.0, x), gauss_legendre(40, x, 1.0)):
                kernel_row = np.array([triangular_kernel(x, y) for y in g.nodes])
                integral += float(np.sum(g.weights * kernel_row * psi(g.nodes)))
            assert integral == pytest.approx(lam * float(psi(x)), rel=1e-12, abs=1e-15)


def test_sinc_kernel_diagonal_and_symmetry():
    kern = SincKernel(10.0)
    assert kern(0.3, 0.3) == pytest.approx(10.0 / math.pi)
    assert kern(0.2, -0.4) == pytest.approx(kern(-0.4, 0.2), abs=1e-15)
    assert kern(0.2, -0.4) == pytest.approx(math.sin(10.0 * 0.6) / (math.pi * 0.6))
    with pytest.raises(ValueError):
        SincKernel(0.0)
    for c in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="^bandwidth c must be finite and positive$"):
            SincKernel(c)


def test_tabulated_kernel_lookup():
    g = gauss_legendre(6, 0.0, 1.0)
    samples = np.add.outer(g.nodes, g.nodes)
    kern = TabulatedKernel(g, samples)
    for i in (0, 3, 5):
        for j in (1, 4):
            assert kern(g.nodes[i], g.nodes[j]) == samples[i, j]
    with pytest.raises(ValueError):
        kern(0.5 * (g.nodes[0] + g.nodes[1]), g.nodes[0])
    assert np.array_equal(kern(g.nodes[:, None], g.nodes[None, :]), samples)
    with pytest.raises(ValueError):
        kern(g.nodes[:, None], g.nodes[None, :] + 1e-6)
    with pytest.raises(ValueError):
        TabulatedKernel(g, samples + np.triu(np.ones((6, 6)), k=1))


def test_parse_kernel_grammar(tmp_path):
    spec = parse_kernel("triangular")
    assert spec.kernel is triangular_kernel and (spec.a, spec.b) == (0.0, 1.0)
    assert spec.grid is None and spec.min_nodes is None
    k = np.arange(1, 6, dtype=float)
    assert np.array_equal(spec.analytic_eigenvalue(k), 1.0 / (k * math.pi) ** 2)
    assert spec.analytic_eigenvalue(2) == pytest.approx(triangular_eigensystem(2)[0])

    spec = parse_kernel("sinc:c=10")
    assert spec.kernel == SincKernel(10.0) and (spec.a, spec.b) == (-1.0, 1.0)
    assert spec.grid is None and spec.analytic_eigenvalue is None
    assert spec.kernel(0.0, 0.0) == pytest.approx(10.0 / math.pi)
    assert spec.min_nodes == 10  # ceil(c (b - a) / 2)

    spec = parse_kernel("sinc:c=2.5,a=0,b=3")
    assert (spec.kernel.c, spec.a, spec.b) == (2.5, 0.0, 3.0)
    assert spec.min_nodes == 4

    g = gauss_legendre(4, 0.0, 2.0)
    payload = {
        "a": 0.0,
        "b": 2.0,
        "nodes": list(g.nodes),
        "weights": list(g.weights),
        "samples": [[float(x * y) for y in g.nodes] for x in g.nodes],
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(payload))
    spec = parse_kernel(f"tabulated:{path}")
    assert isinstance(spec.kernel, TabulatedKernel) and spec.grid is spec.kernel.grid
    assert np.array_equal(spec.grid.nodes, g.nodes) and (spec.a, spec.b) == (0.0, 2.0)
    assert spec.analytic_eigenvalue is None and spec.min_nodes is None
    assert spec.kernel(g.nodes[1], g.nodes[2]) == pytest.approx(g.nodes[1] * g.nodes[2])

    with pytest.raises(ValueError, match="repeated sinc kernel parameter 'c'"):
        parse_kernel("sinc:c=10,c=20")
    for bad in ("gauss", "sinc", "sinc:c=-1", "sinc:c=1,a=2,b=1", "triangular:a=0",
                "sinc:c=1,zz=3", "tabulated:", "sinc:c=inf", "sinc:c=nan",
                "sinc:c=10,a=-inf", "sinc:c=10,b=inf", "sinc:c=10,a=nan", "sinc:c=1e308",
                "sinc:c=10,a=-1e308,b=1e308", "sinc:c=1e300,a=0,b=1e10"):
        with pytest.raises(ValueError):
            parse_kernel(bad)


def test_prolate_eigenvalues_reference_value():
    # chi_10 at c=1 from the classical tables, and the small-c limit
    # chi_m -> m(m+1) of Legendre's equation.
    chi = prolate_eigenvalues(1.0, 11)
    assert chi[10] == pytest.approx(110.5, abs=0.05)
    chi_small = prolate_eigenvalues(1e-6, 5)
    m = np.arange(5.0)
    assert chi_small == pytest.approx(m * (m + 1.0), abs=1e-6)


def test_prolate_eigenvalues_structure():
    chi = prolate_eigenvalues(2.0, 21)
    assert np.all(np.diff(chi) > 0)
    assert np.all(chi > 0)
    # Large-order regime: chi_m = m(m+1) + c^2/2 up to a small correction.
    m = np.arange(21.0)
    dev = np.abs(chi - (m * (m + 1.0) + 2.0))
    assert float(np.max(dev[7:])) < 0.05


def test_prolate_modes_are_orthonormal():
    chi, vec = prolate_modes(1.0, 6)
    assert chi.shape == (6,)
    assert vec.shape == (6, 46)  # basis order 36 and its order + 10 check solve
    assert np.max(np.abs(vec @ vec.T - np.eye(6))) < 1e-10


@pytest.mark.parametrize("c, count, orders", [(1.0, 6, 1), (50.0, 5, 2), (200.0, 5, 3)])
def test_prolate_modes_solve_twice_per_order_tried(monkeypatch, c, count, orders):
    # Each order tried is solved at order + 10 and at order, eigenvalues only,
    # as an even and an odd block of half the order; the rows come from one
    # eigh per block at the converged order + 10.
    values_calls, vector_calls = [], []

    def counting_eigvalsh(m):
        values_calls.append(m.shape[0])
        return eigvalsh(m)

    def counting_eigh(m):
        vector_calls.append(m.shape[0])
        return eigh(m)

    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(kernels, "eigh", counting_eigh)
    chi, rows = prolate_modes(c, count)
    tried = [(count + 30) * 2**k for k in range(orders)]

    def halves(n):
        return [(n + 1) // 2, n // 2]

    assert values_calls == [h for order in tried for n in (order + 10, order) for h in halves(n)]
    assert vector_calls == halves(tried[-1] + 10)
    assert rows.shape == (count, tried[-1] + 10)
    assert chi.shape == (count,)


def _dense_prolate(c, order):
    # The operator's full Galerkin matrix, built independently of kernels:
    # m(m+1) on the diagonal plus c^2 times the leading block of J^2, where J
    # is multiplication by x on one more Legendre degree than the basis.
    m = np.arange(order + 1, dtype=float)
    a = m[1:] / np.sqrt(4.0 * m[1:] ** 2 - 1.0)
    jacobi = np.diag(a, 1) + np.diag(a, -1)
    return np.diag(m[:-1] * (m[:-1] + 1.0)) + c * c * (jacobi @ jacobi)[:order, :order]


@pytest.mark.parametrize("count", [1, 5, 40, 500])
@pytest.mark.parametrize("c", [1.0, 10.0, 100.0])
def test_prolate_eigenvalues_match_dense_full_matrix(c, count):
    chi = prolate_eigenvalues(c, count)
    order = prolate_modes(c, count)[1].shape[1]
    reference = np.linalg.eigvalsh(_dense_prolate(c, order))[:count]
    assert np.all(np.abs(chi - reference) <= 1e-13 * reference)


@pytest.mark.parametrize("c, count", [(1.0, 6), (10.0, 30), (50.0, 5)])
def test_prolate_modes_rows_are_eigenvectors_for_chi(c, count):
    chi, rows = prolate_modes(c, count)
    matrix = _dense_prolate(c, rows.shape[1])
    residual = matrix @ rows.T - rows.T * chi[None, :]
    assert np.max(np.abs(residual)) <= 1e-12 * max(float(np.max(chi)), 1.0)
    assert np.array_equal(chi, prolate_eigenvalues(c, count))


def test_legendre_series_orthonormality():
    g = gauss_legendre(64, -1.0, 1.0)
    for m in range(6):
        for n in range(m, 6):
            cm = np.zeros(6)
            cn = np.zeros(6)
            cm[m] = 1.0
            cn[n] = 1.0
            inner = float(np.sum(g.weights * legendre_series(cm, g.nodes)
                                 * legendre_series(cn, g.nodes)))
            assert inner == pytest.approx(1.0 if m == n else 0.0, abs=1e-12)


def test_bandlimited_modes_match_commuting_operator(sinc_sys_200):
    # The sinc kernel and the commuting differential operator share
    # eigenfunctions; compare the Nystrom modes against the operator's
    # modes through the weighted cosine of the sampled functions.
    sys = sinc_sys_200
    count = sys.n_modes
    assert count == 6
    _, vec = prolate_modes(1.0, count)
    w = sys.grid.weights
    for k in range(count):
        samples = legendre_series(vec[k], sys.grid.nodes)
        num = abs(float(np.sum(w * samples * sys.eigfun[k])))
        den = math.sqrt(float(np.sum(w * samples**2)) * float(np.sum(w * sys.eigfun[k] ** 2)))
        assert num / den > 0.999


def test_shannon_number_values():
    assert shannon_number(10.0, 2.0) == pytest.approx(20.0 / math.pi)
    assert shannon_number(math.pi, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        shannon_number(0.0, 1.0)
    with pytest.raises(ValueError):
        shannon_number(1.0, -2.0)
    for omega, X in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            shannon_number(omega, X)


def test_plateau_count_basics():
    lam = np.array([1.0, 0.99, 0.7, 0.2, 0.01])
    assert plateau_count(lam, 0.5) == 3
    assert plateau_count(lam, 2.0) == 0
    assert plateau_count(lam, 1e-9) == 5
    with pytest.raises(ValueError):
        plateau_count(lam[::-1].copy(), 0.5)


def test_plateau_count_rejects_non_finite_input():
    # A NaN eigenvalue passed the order check and was silently not counted.
    for lam in ([1.0, math.nan, 0.2], [math.inf, 1.0, 0.2], [1.0, 0.5, -math.inf]):
        with pytest.raises(ValueError):
            plateau_count(lam, 0.5)
    for threshold in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            plateau_count([1.0, 0.5, 0.2], threshold)


def test_bandlimited_spectrum_step_profile(sinc_sys_400):
    # c = 10: about 2c/pi modes near 1, then a sharp fall.
    lam = sinc_sys_400.eigenvalues
    assert lam[0] > 0.99
    assert lam[9] < 1e-2
    assert plateau_count(lam, 0.5) == 6
    assert sinc_sys_400.negative_count == 0
