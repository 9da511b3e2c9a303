"""Bit-count bounds on data ellipsoids and exact covering/packing numbers."""

import math

import numpy as np
import pytest

from trunceig import (
    Ellipsoid,
    FinitePointSet,
    covering_number_exact,
    ellipsoid_of,
    entropy_lower_bound,
    information_flow_comparison,
    packing_number_exact,
    sample_ellipsoid,
    shannon_entropy_estimate,
    shannon_number,
    truncation_identity,
    truncation_weighted,
)
from trunceig.errors import BudgetExceededError

TRI_LAM_80 = 1.0 / (np.arange(1, 81) * math.pi) ** 2
DERIVATIVE_80 = math.pi * np.arange(1, 81, dtype=float)  # beta_k = k pi


# The list- and frozenset-based solvers that the bitmask search replaced, kept
# as the reference it is checked against.  They read the point set's distance
# matrix in place of a per-call build, and skip the budget check: every case
# below has at most 30 points.
def _pack_by_lists(point_set: FinitePointSet, eps: float) -> tuple[int, list[int]]:
    """Largest number of points with pairwise distances strictly above eps.

    Branch-and-bound maximum clique on the graph whose edges join points
    farther than eps apart.  Returns the count and one witness (sorted point
    indices).
    """
    if not 0 <= eps < math.inf:
        raise ValueError("eps must be finite and non-negative")
    m = point_set.size
    dist = point_set.distances
    adj = dist > eps

    # Greedy seed gives the search a non-trivial incumbent to prune against.
    order = sorted(range(m), key=lambda i: -int(np.sum(adj[i])))
    best: list[int] = []
    for i in order:
        if all(adj[i, j] for j in best):
            best.append(i)

    current: list[int] = []

    def extend(candidates: list[int]):
        nonlocal best
        if not candidates:
            if len(current) > len(best):
                best = current.copy()
            return
        if len(current) + len(candidates) <= len(best):
            return
        for pos, i in enumerate(candidates):
            if len(current) + len(candidates) - pos <= len(best):
                break
            current.append(i)
            extend([j for j in candidates[pos + 1:] if adj[i, j]])
            current.pop()

    extend(order)
    return len(best), sorted(best)


def _cover_by_sets(point_set: FinitePointSet, eps: float) -> tuple[int, list[int]]:
    """Fewest closed eps-balls centered at set points that cover the set.

    Exact branch-and-bound set cover.  Returns the count and the chosen
    centers (sorted point indices).
    """
    if not 0 <= eps < math.inf:
        raise ValueError("eps must be finite and non-negative")
    m = point_set.size
    dist = point_set.distances
    balls = [frozenset(np.nonzero(dist[i] <= eps)[0].tolist()) for i in range(m)]
    max_ball = max(len(b) for b in balls)

    # Greedy cover as the incumbent.
    uncovered = set(range(m))
    greedy: list[int] = []
    while uncovered:
        i = max(range(m), key=lambda i: len(balls[i] & uncovered))
        greedy.append(i)
        uncovered -= balls[i]
    best = greedy

    chosen: list[int] = []

    def solve(uncovered: frozenset):
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = chosen.copy()
            return
        if len(chosen) + math.ceil(len(uncovered) / max_ball) >= len(best):
            return
        # Branch on the hardest point: the one fewest balls can cover.
        target = min(uncovered, key=lambda e: sum(1 for b in balls if e in b))
        options = [i for i in range(m) if target in balls[i]]
        options.sort(key=lambda i: -len(balls[i] & uncovered))
        for i in options:
            chosen.append(i)
            solve(uncovered - balls[i])
            chosen.pop()

    solve(frozenset(range(m)))
    return len(best), sorted(best)


def test_ellipsoid_sorts_and_validates():
    e = Ellipsoid(np.array([0.3, 1.0, 0.5]))
    assert np.array_equal(e.semi_axes, [1.0, 0.5, 0.3])
    assert e.dim == 3
    with pytest.raises(ValueError):
        Ellipsoid(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Ellipsoid(np.array([]))


def test_ellipsoid_rejects_non_finite_semi_axes():
    # A NaN axis was sorted to the front and then dropped by the entropy sum;
    # an infinite one gave infinitely many bits.
    for axes in ([0.5, math.nan, 0.1], [0.5, math.inf, 0.1], [math.nan], [0.5, -math.inf]):
        with pytest.raises(ValueError):
            Ellipsoid(np.array(axes))


def test_ellipsoid_of_closed_forms():
    e = ellipsoid_of(TRI_LAM_80, None, 1.0)
    assert e.semi_axes == pytest.approx(TRI_LAM_80)

    # beta_k = k pi shrinks axis k to 1/(k pi)^3.
    e = ellipsoid_of(TRI_LAM_80, DERIVATIVE_80, 1.0)
    k = np.arange(1, 81, dtype=float)
    assert e.semi_axes == pytest.approx(1.0 / (k * math.pi) ** 3)

    # The budget enters linearly.
    double = ellipsoid_of(TRI_LAM_80, DERIVATIVE_80, 2.0)
    assert double.semi_axes == pytest.approx(2.0 * e.semi_axes)

    with pytest.raises(ValueError):
        ellipsoid_of(TRI_LAM_80, None, 0.0)
    with pytest.raises(ValueError):
        ellipsoid_of(TRI_LAM_80, np.ones(79), 1.0)


def test_ellipsoid_of_rejects_non_finite_or_malformed_eigenvalues():
    # Unordered positive eigenvalues are fine: the axes are sorted.
    assert np.array_equal(ellipsoid_of([0.1, 0.5, 0.3], None, 1.0).semi_axes, [0.5, 0.3, 0.1])
    for bad in ([0.5, math.nan, 0.1], [0.5, math.inf, 0.1], [0.5, -math.inf], [],
                [[0.5, 0.1]], [0.5, 0.0]):
        with pytest.raises(ValueError):
            ellipsoid_of(bad, None, 1.0)
    for E in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ellipsoid_of([0.5, 0.1], None, E)


def test_exact_cover_and_pack_reject_non_finite_eps():
    # A NaN radius gave every ball no points, so the greedy cover never ended.
    square = FinitePointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    for exact in (covering_number_exact, packing_number_exact):
        for eps in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError):
                exact(square, eps)


def test_entropy_lower_bound_triangular_value():
    report = entropy_lower_bound(ellipsoid_of(TRI_LAM_80, None, 1.0), 0.01)
    assert report.cutoff == 3
    assert report.entropy_bits == pytest.approx(4.852666791047949, abs=1e-9)
    # log2 M >= 4.853 means at least 28 distinguishable messages.
    assert 2.0**report.entropy_bits > 28.0


def test_entropy_lower_bound_edge_cases():
    e = Ellipsoid(np.array([0.5, 0.25, 0.125]))
    report = entropy_lower_bound(e, 0.6)
    assert (report.cutoff, report.entropy_bits) == (0, 0.0)

    # Axes exactly at eps contribute log2(1) = 0 but still count as resolved.
    flat = Ellipsoid(np.full(4, 0.3))
    report = entropy_lower_bound(flat, 0.3)
    assert (report.cutoff, report.entropy_bits) == (4, 0.0)

    with pytest.raises(ValueError):
        entropy_lower_bound(e, 0.0)


@pytest.mark.filterwarnings("error")
def test_entropy_lower_bound_whose_bit_count_overflows():
    # 1e300 / 1e-10 overflows: the bound used to warn and report inf bits, where the
    # rule comparison, which counts through the same helper, raised.
    with pytest.raises(ValueError) as info:
        entropy_lower_bound(Ellipsoid([1e300, 1.0]), 1e-10)
    assert str(info.value) == "bit count over 2 modes is not finite at eps = 1e-10"


def test_entropy_monotonicity():
    e = ellipsoid_of(TRI_LAM_80, None, 1.0)
    grid = np.geomspace(0.5, 1e-6, 25)
    bits = [entropy_lower_bound(e, float(x)).entropy_bits for x in grid]
    assert np.all(np.diff(bits) >= 0.0)  # shrinking eps never loses bits

    # Growing any semi-axis never loses bits either.
    grown = Ellipsoid(e.semi_axes * np.linspace(1.0, 2.0, 80))
    for x in (1e-2, 1e-4):
        assert entropy_lower_bound(grown, x).entropy_bits >= entropy_lower_bound(
            e, x
        ).entropy_bits


def test_constrained_ellipsoid_carries_fewer_bits():
    eps = 1e-3
    plain = entropy_lower_bound(ellipsoid_of(TRI_LAM_80, None, 1.0), eps)
    weighted = entropy_lower_bound(
        ellipsoid_of(TRI_LAM_80, DERIVATIVE_80, 1.0), eps
    )
    assert weighted.entropy_bits < plain.entropy_bits


def test_information_flow_comparison_matches_truncation_rules():
    beta = DERIVATIVE_80
    out = information_flow_comparison(TRI_LAM_80, beta, 1e-3, 1.0)
    assert out.report_k1.cutoff == truncation_identity(TRI_LAM_80, 1e-3, 1.0)
    assert out.report_k2.cutoff == truncation_weighted(TRI_LAM_80, beta, 1e-3, 1.0)
    assert out.report_k1.entropy_bits > out.report_k2.entropy_bits
    assert out.bit_difference == pytest.approx(
        out.report_k1.entropy_bits - out.report_k2.entropy_bits
    )

    # Identity weights keep both rules identical.
    same = information_flow_comparison(TRI_LAM_80, np.ones(80), 1e-3, 1.0)
    assert same.bit_difference == 0.0

    # Noise coarser than the top mode: nothing gets through either rule.
    none = information_flow_comparison(TRI_LAM_80, beta, 0.5, 1.0)
    assert none.report_k1.entropy_bits == 0.0
    assert none.report_k2.entropy_bits == 0.0


def test_shannon_entropy_estimate_values():
    assert shannon_entropy_estimate(1.0, 0.5) == pytest.approx(1.0)
    assert shannon_entropy_estimate(20.0 / math.pi, 1e-3) == pytest.approx(63.45, abs=0.01)
    with pytest.raises(ValueError):
        shannon_entropy_estimate(0.0, 0.5)
    with pytest.raises(ValueError):
        shannon_entropy_estimate(1.0, 1.0)
    with pytest.raises(ValueError):
        shannon_entropy_estimate(1.0, 0.0)
    for S in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            shannon_entropy_estimate(S, 1e-3)


def test_bandlimited_entropy_tracks_mode_count_estimate(sinc_sys_400):
    # The direct sum runs above the step-spectrum heuristic at this bandwidth,
    # dominated by the shoulder modes; the ratio stays near one.
    eps = 1e-3
    direct = entropy_lower_bound(Ellipsoid(sinc_sys_400.eigenvalues), eps).entropy_bits
    estimate = shannon_entropy_estimate(shannon_number(10.0, 2.0), eps)
    assert 1.0 < direct / estimate < 1.30


def test_finite_point_set_validation():
    FinitePointSet(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        FinitePointSet(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        FinitePointSet(np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        FinitePointSet(np.zeros((0, 2)))


def test_finite_point_set_distances_in_and_beyond_the_squaring_range():
    # In range the distances are bit for bit the plain formula ...
    rng = np.random.default_rng(5)
    for scale in (1e-6, 1.0, 1e3, 1e140):
        points = scale * rng.standard_normal((12, 3))
        diff = points[:, None, :] - points[None, :, :]
        assert np.array_equal(FinitePointSet(points).distances,
                              np.sqrt(np.sum(diff * diff, axis=2)))
    # ... and beyond it, where the squares overflow, they are still true, or inf
    # above the largest double, with no warning.
    assert FinitePointSet(np.array([[1e200, 0.0], [-1e200, 0.0]])).distances[0, 1] == 2e200
    assert FinitePointSet(np.array([[1.7e308], [-1.7e308]])).distances[0, 1] == math.inf
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="points must be finite"):
            FinitePointSet(np.array([[0.0, 0.0], [bad, 1.0]]))


def test_packing_three_collinear_points():
    ps = FinitePointSet(np.array([[0.0], [1.0], [2.0]]))
    m, witness = packing_number_exact(ps, 1.0)
    assert m == 2
    assert witness == [0, 2]

    # Separation wider than the diameter: single point survives.
    m, witness = packing_number_exact(ps, 5.0)
    assert m == 1 and len(witness) == 1

    # Separation below the closest pair: everything survives.
    m, witness = packing_number_exact(ps, 0.5)
    assert m == 3 and witness == [0, 1, 2]


def test_covering_three_collinear_points():
    ps = FinitePointSet(np.array([[0.0], [1.0], [2.0]]))
    n, centers = covering_number_exact(ps, 1.0)
    assert n == 1
    assert centers == [1]

    n, centers = covering_number_exact(ps, 0.5)
    assert n == 3

    n, centers = covering_number_exact(ps, 2.0)
    assert n == 1


def test_square_with_center_counts():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
    ps = FinitePointSet(pts)

    n, _ = covering_number_exact(ps, 0.6)
    m, _ = packing_number_exact(ps, 0.6)
    assert (n, m) == (5, 5)

    n, centers = covering_number_exact(ps, 1.2)
    m, witness = packing_number_exact(ps, 1.2)
    assert (n, m) == (1, 2)
    assert centers == [4]  # the center reaches every corner
    assert sorted(pts[witness][:, 0]) in ([0.0, 1.0],)  # an opposite corner pair


def test_covering_never_exceeds_packing():
    rng = np.random.default_rng(31)
    for trial in range(12):
        count = int(rng.integers(2, 13))
        dim = int(rng.integers(1, 4))
        ps = FinitePointSet(rng.uniform(-1.0, 1.0, size=(count, dim)))
        d = np.sqrt(np.sum((ps.points[:, None] - ps.points[None, :]) ** 2, axis=2))
        off = d[np.triu_indices(count, k=1)]
        for eps in np.quantile(off, [0.1, 0.4, 0.8]):
            eps = float(eps)
            n, centers = covering_number_exact(ps, eps)
            m, witness = packing_number_exact(ps, eps)
            assert n <= m

            # Witness sets do what they claim.
            wd = d[np.ix_(witness, witness)]
            assert np.all(wd[np.triu_indices(m, k=1)] > eps)
            assert np.all(np.min(d[:, centers], axis=1) <= eps)
            # A maximal separated set is itself a net.
            assert np.all(np.min(d[:, witness], axis=1) <= eps)


def _solver_family():
    """Seeded (name, point set, eps) cases: random sets with eps at distance
    quantiles, exactly at pairwise distances, at 0 and past the diameter, plus
    equally spaced collinear sets (tied distances) and single points."""
    for m in (2, 3, 5, 8, 12, 16, 20, 24, 27):
        for dim in (1, 2, 3, 4):
            rng = np.random.default_rng(100 * m + dim)
            ps = FinitePointSet(rng.uniform(-1.0, 1.0, size=(m, dim)))
            off = np.sort(ps.distances[np.triu_indices(m, k=1)])
            radii = {f"q{q}": float(np.quantile(off, q)) for q in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9)}
            radii.update(at_min=float(off[0]), at_median=float(off[off.size // 2]),
                         at_diameter=float(off[-1]), zero=0.0, past_diameter=2.0 * float(off[-1]))
            for label, eps in radii.items():
                yield f"random-m{m}-d{dim}-{label}", ps, eps
    for m in (1, 2, 3, 5, 10, 20, 30):
        for eps in (0.0, 1.0, 100.0):
            yield f"collinear-m{m}-eps{eps:g}", FinitePointSet(np.arange(float(m))[:, None]), eps
    for dim in (1, 4):
        yield f"single-d{dim}", FinitePointSet(np.full((1, dim), 0.5)), 0.0


_FAMILY = list(_solver_family())


@pytest.mark.parametrize("ps, eps", [case[1:] for case in _FAMILY],
                         ids=[case[0] for case in _FAMILY])
def test_exact_solvers_match_reference(ps, eps):
    m, witness = packing_number_exact(ps, eps)
    n, centers = covering_number_exact(ps, eps)
    assert (m, n) == (_pack_by_lists(ps, eps)[0], _cover_by_sets(ps, eps)[0])
    d = ps.distances
    assert len(witness) == m and witness == sorted(set(witness))
    assert np.all(d[np.ix_(witness, witness)][np.triu_indices(m, k=1)] > eps)
    assert len(centers) == n and centers == sorted(set(centers))
    assert np.all(np.min(d[:, centers], axis=1) <= eps)


def test_exact_search_budget():
    # The set refuses itself, so no solver can be handed one over the budget.
    with pytest.raises(BudgetExceededError, match="limited to 30 points, got 31"):
        FinitePointSet(np.arange(31.0)[:, None])
    with pytest.raises(BudgetExceededError):  # before the finite check
        FinitePointSet(np.full((31, 2), np.nan))


def test_sample_ellipsoid_boundary_points():
    e = ellipsoid_of(TRI_LAM_80, None, 1.0)
    ps = sample_ellipsoid(e, 3, 20, seed=12)
    assert ps.size == 20
    axes = e.semi_axes[:3]
    radii = np.sum((ps.points / axes[None, :]) ** 2, axis=1)
    assert radii == pytest.approx(np.ones(20), abs=1e-10)

    again = sample_ellipsoid(e, 3, 20, seed=12)
    assert np.array_equal(ps.points, again.points)
    other = sample_ellipsoid(e, 3, 20, seed=13)
    assert not np.array_equal(ps.points, other.points)

    single = sample_ellipsoid(e, 1, 1, seed=0)
    assert abs(abs(single.points[0, 0]) - axes[0]) < 1e-10

    with pytest.raises(ValueError):
        sample_ellipsoid(e, 5, 10, seed=0)
    with pytest.raises(ValueError):
        sample_ellipsoid(e, 2, 31, seed=0)
