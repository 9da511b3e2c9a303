"""Covering and packing bounds for data ellipsoids.

The image of the a-priori solution set under a diagonal operator is an
ellipsoid with semi-axes E lambda_k / beta_k.  Counting the eps-balls needed
to cover it (entropy) and the eps-separated points it can hold (capacity)
measures how many distinguishable data sets -- and hence recoverable
messages -- the problem supports at noise level eps.  Alongside the volume
lower bound on the entropy there are exact combinatorial solvers for small
finite point sets, which let the chain "covering <= packing" be checked
against ground truth rather than against itself.  Both are branch-and-bound
searches over Python-int bitmasks of the points, relabelled so that bit
order is the search's vertex order: packing is a maximum clique over
"farther than eps" masks, covering a set cover over closed-ball masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .regularize import (_check_scales, _norm, _validate_eigenvalues, _weights,
                         truncation_identity, truncation_weighted)

__all__ = [
    "Ellipsoid",
    "InfoReport",
    "FlowComparison",
    "FinitePointSet",
    "ellipsoid_of",
    "entropy_lower_bound",
    "information_flow_comparison",
    "shannon_entropy_estimate",
    "packing_number_exact",
    "covering_number_exact",
    "sample_ellipsoid",
]

EXACT_BUDGET = 30


@dataclass
class Ellipsoid:
    """Axis-aligned ellipsoid described by its semi-axes, sorted descending."""

    semi_axes: np.ndarray

    def __post_init__(self):
        self.semi_axes = np.sort(np.asarray(self.semi_axes, dtype=float))[::-1].copy()
        if self.semi_axes.ndim != 1 or self.semi_axes.size == 0:
            raise ValueError("an ellipsoid needs at least one semi-axis")
        if not np.all(np.isfinite(self.semi_axes) & (self.semi_axes > 0)):
            raise ValueError("semi-axes must be finite and positive")

    @property
    def dim(self) -> int:
        return int(self.semi_axes.size)


def ellipsoid_of(eigenvalues, beta, E: float) -> Ellipsoid:
    """Data ellipsoid of the constraint set: semi-axes E lambda_k / beta_k (beta=None: all 1)."""
    # Any order is allowed (the axes are sorted).  With E > 0 and beta_k > 0 each axis has
    # lambda_k's sign, so Ellipsoid's refusal of an axis not finite and > 0 covers lambda.
    if not E > 0:
        raise ValueError("need E > 0")
    lam = np.asarray(eigenvalues, dtype=float)
    return Ellipsoid(E * lam / (1.0 if beta is None else _weights(beta, lam.size)))


@dataclass
class InfoReport:
    """A bit-count lower bound at noise radius eps.

    entropy_bits bounds log2 of the covering number from below by summing
    log2(semi_axis / eps) over the axes longer than eps.
    """

    cutoff: int
    entropy_bits: float


def _axis_bits(axes: np.ndarray, eps: float, scale: float = 1.0) -> float:
    """sum log2 a + log2 scale - log2 eps over the semi-axes a (0 for none): finite."""
    return float(np.sum(np.log2(axes) + (np.log2(scale) - np.log2(eps))))


def entropy_lower_bound(ellipsoid: Ellipsoid, eps: float) -> InfoReport:
    """Volume lower bound on the eps-entropy of an ellipsoid."""
    _check_scales(eps)
    above = ellipsoid.semi_axes[ellipsoid.semi_axes >= eps]
    return InfoReport(int(above.size), _axis_bits(above, eps))


@dataclass
class FlowComparison:
    """Bit counts transmitted under the two truncation rules."""

    report_k1: InfoReport
    report_k2: InfoReport
    bit_difference: float


def information_flow_comparison(eigenvalues, beta, eps: float, E: float) -> FlowComparison:
    """Distinguishable-message bits kept by each truncation rule.

    Both counts sum log2(E lambda_k / eps) over the retained modes; the plain
    rule retains through k1, the weighted rule only through k2.  With weights
    beta_k >= 1 the weighted rule keeps fewer modes, so the a-priori
    constraint that sharpens the reconstruction also shrinks the number of
    messages the regularized data can still encode.
    """
    lam = _validate_eigenvalues(eigenvalues)
    _check_scales(eps, E)
    k1 = truncation_identity(lam, eps, E)
    k2 = truncation_weighted(lam, beta, eps, E)

    b1, b2 = (_axis_bits(lam[:cut], eps, E) for cut in (k1, k2))
    return FlowComparison(
        InfoReport(k1, b1),
        InfoReport(k2, b2),
        b1 - b2,
    )


def shannon_entropy_estimate(shannon_number: float, eps: float) -> float:
    """Step-spectrum entropy heuristic S * log2(1/eps)."""
    if not 0 < shannon_number < math.inf:
        raise ValueError("the mode count S must be finite and positive")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    return shannon_number * math.log2(1.0 / eps)


@dataclass
class FinitePointSet:
    """A small set of distinct points in a common Euclidean space.

    The pairwise distance matrix is built once, here, and both exact solvers
    read it.  It is quadratic in memory, so a set of more than EXACT_BUDGET
    points is refused before its values are checked or its distances built.
    Each distance is the _norm of a halved difference, doubled: bit for bit
    sqrt(sum(diff^2)) in range, and inf with no warning above it.
    """

    points: np.ndarray
    distances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise ValueError("points must form a non-empty 2-d array")
        if self.size > EXACT_BUDGET:
            raise ValueError(f"exact search limited to {EXACT_BUDGET} points, "
                             f"got {self.size}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        half = 0.5 * self.points  # so no difference overflows
        self.distances = _norm(half[:, None, :] - half[None, :, :], 2.0)
        off = self.distances[np.triu_indices(self.size, k=1)]
        if off.size and float(np.min(off)) <= 1e-12:
            raise ValueError("points must be pairwise distinct (min spacing 1e-12)")

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


def _degree_ordered_masks(relation: np.ndarray) -> tuple[list[int], list[int]]:
    """Rows of a symmetric boolean relation as int bitmasks over the points sorted
    by ascending row count: bit q of masks[p] is relation[order[p], order[q]]."""
    order = np.argsort(relation.sum(axis=1), kind="stable").tolist()
    rows = relation[np.ix_(order, order)]
    return order, [sum(1 << q for q in np.flatnonzero(row).tolist()) for row in rows]


def packing_number_exact(point_set: FinitePointSet, eps: float) -> tuple[int, list[int]]:
    """Largest number of points with pairwise distances strictly above eps.

    Branch-and-bound maximum clique (Carraghan & Pardalos 1990) on the graph
    whose edges join points farther than eps apart, with the candidate set of
    each node an int bitmask.  Candidates are taken lowest degree first, and a
    branch is pruned once |clique| + |candidates| <= |best|; the first leaf
    reached is a greedy clique, so no separate incumbent is needed.  Returns
    the count and one witness (sorted point indices).
    """
    _check_scales(eps, noise_free=True)
    order, neighbours = _degree_ordered_masks(point_set.distances > eps)
    best: list[int] = []

    def extend(clique: list[int], candidates: int):
        nonlocal best
        if not candidates:
            if len(clique) > len(best):
                best = clique
            return
        while candidates and len(clique) + candidates.bit_count() > len(best):
            low = candidates & -candidates
            candidates ^= low
            p = low.bit_length() - 1
            extend(clique + [p], candidates & neighbours[p])

    extend([], (1 << point_set.size) - 1)
    return len(best), sorted(order[p] for p in best)


def covering_number_exact(point_set: FinitePointSet, eps: float) -> tuple[int, list[int]]:
    """Fewest closed eps-balls centered at set points that cover the set.

    Exact branch-and-bound set cover over ball bitmasks.  Each node branches
    on the uncovered point that the fewest balls hold; distance is symmetric,
    so those are the balls centred inside that point's own ball.  Centres are
    tried in order of how many uncovered points each covers, and a branch is
    pruned once |chosen| + ceil(|uncovered| / widest ball) >= |best|, starting
    from the cover by every point.  Returns the count and the chosen centers
    (sorted point indices).
    """
    _check_scales(eps, noise_free=True)
    m = point_set.size
    # Fewest balls first, so the lowest uncovered bit is the branch point.
    order, balls = _degree_ordered_masks(point_set.distances <= eps)
    widest = max(ball.bit_count() for ball in balls)
    best = list(range(m))

    def solve(chosen: list[int], uncovered: int):
        nonlocal best
        if len(chosen) + math.ceil(uncovered.bit_count() / widest) >= len(best):
            return
        if not uncovered:
            best = chosen
            return
        target = (uncovered & -uncovered).bit_length() - 1
        options = [q for q in range(m) if balls[target] >> q & 1]
        options.sort(key=lambda q: -(balls[q] & uncovered).bit_count())
        for q in options:
            solve(chosen + [q], uncovered & ~balls[q])

    solve([], (1 << m) - 1)
    return len(best), sorted(order[q] for q in best)


def sample_ellipsoid(ellipsoid: Ellipsoid, dim_cut: int, count: int, seed: int) -> FinitePointSet:
    """Seeded points on the boundary of the ellipsoid's leading-axes section.

    Directions are isotropic Gaussian draws scaled onto the boundary of the
    ellipsoid restricted to its first dim_cut axes.  A draw within 1e-12 of a
    point taken is rejected, and the 1000th rejection raises a ValueError.
    """
    if not 1 <= dim_cut <= min(4, ellipsoid.dim):
        raise ValueError("dim_cut must lie in [1, min(4, dim)]")
    if not 1 <= count <= EXACT_BUDGET:
        raise ValueError(f"count must lie in [1, {EXACT_BUDGET}]")
    axes = ellipsoid.semi_axes[:dim_cut]
    rng = np.random.default_rng(seed)
    points: list[np.ndarray] = []
    rejected = 0
    while len(points) < count:
        z = rng.standard_normal(dim_cut)
        norm = float(np.linalg.norm(z))
        if norm < 1e-12:
            continue
        u = z / norm
        t = 1.0 / math.sqrt(float(np.sum((u / axes) ** 2)))
        p = t * u
        if any(float(np.linalg.norm(p - q)) <= 1e-12 for q in points):
            rejected += 1
            if rejected == 1000:
                raise ValueError(f"the section holds no {count} points 1e-12 apart")
            continue
        points.append(p)
    return FinitePointSet(np.array(points))
