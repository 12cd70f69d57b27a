"""Communication topologies and the Laplacian spectra that bound consensus steps.

Agents exchange iterates over an undirected weighted graph.  The admissible
consensus step size for the swarm update is governed by two spectral
quantities of the graph Laplacian ``L``: its smallest positive eigenvalue
``rho2`` and the spectral radius of ``L^2``.  A topology keeps the
Laplacian's rows as a padded neighbour table, which no other zoswarm
module reads: ``laplacian_product`` applies ``L`` from it a block of rows
at a time, for the consensus step and the spectral solve alike.
``laplacian_spectrum`` bounds both quantities by a Lanczos iteration over
that table, certifies the step bound ``alpha_max`` on a 40-bit grid, and
keeps the profile on the topology, so every run on one graph shares a
single solve.  No n x n array is built and no LAPACK routine runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_array, check_integer, check_number

__all__ = [
    "Topology",
    "SpectralProfile",
    "GraphSamplingError",
    "EigenSolveError",
    "erdos_renyi",
    "laplacian_spectrum",
    "laplacian_product",
    "is_connected",
]

# Disconnected Erdos-Renyi draws retried before giving up.
MAX_ATTEMPTS = 100

# Doubles held at a time by a block of work: an Erdos-Renyi draw holds this
# many uniforms, not one per pair of agents, and a Laplacian product this
# many gathered neighbour entries, not n * width * p.
DRAW_CHUNK = 2**16

# Lanczos steps the spectral solve may take to certify alpha_max.
MAX_LANCZOS_STEPS = 300

# alpha_max is rounded down to this many significant bits.  The solve runs
# until the exact bound's snap is certified, so the last bits of its own
# rounding do not reach the records.
ALPHA_MAX_BITS = 40


class GraphSamplingError(RuntimeError):
    """No connected graph was found within the retry budget."""


class EigenSolveError(RuntimeError):
    """The spectral solve could not certify ``alpha_max`` (see :func:`laplacian_spectrum`)."""


@dataclass(frozen=True, eq=False, init=False)
class Topology:
    """Undirected weighted communication graph over agents ``0..n-1``.

    ``Topology(n, weights)`` takes an ``(n, n)`` array with ``weights[i, j] > 0``
    exactly when agents ``i`` and ``j`` can talk to each other; it must be
    finite, real, symmetric and nonnegative, with finite row sums and no self loops.
    Weights are dimensionless mixing coefficients, not distances.

    The graph is kept as the rows of its Laplacian ``L = Deg - W``, in a
    padded neighbour table: ``neighbours[i]`` lists agent ``i`` itself, then
    its neighbours in ascending order, then ``i`` again as padding up to the
    largest degree plus one; ``coefficients[i]`` holds the weighted degree,
    then ``-w_ij`` for each neighbour, then ``0.0`` for the padding.  So
    ``(L @ X)[i] = coefficients[i] @ X[neighbours[i]]``.  No dense copy is
    kept.  Both arrays are read-only, so the spectrum the topology memoizes
    can never go stale; the caller's matrix is only read.  Equality and
    hashing go by identity, as the spectrum memo does.
    """

    n: int
    neighbours: np.ndarray
    coefficients: np.ndarray
    # set once by laplacian_spectrum
    _spectrum: SpectralProfile | None = field(default=None, repr=False)

    def __init__(self, n: int, weights: np.ndarray) -> None:
        check_integer("n", n, 1)
        w = check_array("weights", weights, (n, n))
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be symmetric")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("self weights must be zero")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        with np.errstate(over="ignore"):  # a degree past the float range is named below
            degrees = w.sum(axis=1)
        if np.isinf(degrees).any():  # inf is the largest degree: argmax names the first such agent
            raise ValueError(f"the weights of agent {degrees.argmax()} sum past the float range")
        rows, columns = np.nonzero(w)
        self._assign(n, rows, columns, w[rows, columns], degrees)

    def _assign(self, n, rows, columns, values, degrees) -> None:
        """Keep the table of stored entries sorted by row, then column."""
        starts = np.searchsorted(rows, np.arange(n + 1))
        # slot 0 is the agent itself; its stored entries follow in column order
        slots = np.arange(columns.size) - starts[rows] + 1
        width = int(np.diff(starts).max()) + 1
        neighbours = np.repeat(np.arange(n)[:, None], width, axis=1)
        neighbours[rows, slots] = columns
        coefficients = np.zeros((n, width))
        coefficients[:, 0] = degrees
        coefficients[rows, slots] = -values
        object.__setattr__(self, "n", n)
        for name, table in (("neighbours", neighbours), ("coefficients", coefficients)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @property
    def edge_count(self) -> int:
        """How many undirected edges the graph has: its table's ``-w_ij`` entries, halved."""
        return int((self.coefficients[:, 1:] < 0.0).sum()) // 2


@dataclass(frozen=True)
class SpectralProfile:
    """The spectral bounds of a topology's Laplacian.

    ``alpha_max`` is the upper end of the open interval of admissible
    consensus step sizes, ``rho2 / (2 * rho_l2)`` rounded down to
    :data:`ALPHA_MAX_BITS` significant bits.  ``rho2`` is a lower bound on
    the smallest positive Laplacian eigenvalue and ``rho_l2`` an upper bound
    on the spectral radius of ``L^2``, each within rounding of the exact
    value, so every step below ``alpha_max`` is admissible.
    """

    rho2: float
    rho_l2: float
    alpha_max: float


def _snap_down(value: float) -> float:
    """``value`` rounded down onto the grid of :data:`ALPHA_MAX_BITS`-bit mantissas."""
    mantissa, exponent = math.frexp(value)
    return math.ldexp(math.floor(math.ldexp(mantissa, ALPHA_MAX_BITS)), exponent - ALPHA_MAX_BITS)


def erdos_renyi(n: int, prob: float, seed: int = 0) -> Topology:
    """Sample a connected Erdos-Renyi graph with unit edge weights.

    Every unordered pair of agents is linked independently with probability
    ``prob``.  The sampler is deterministic for a fixed ``seed``: one
    generator seeded with it serves the call, and each draw that comes out
    disconnected is retried with the generator's next block, up to
    :data:`MAX_ATTEMPTS` draws before giving up.  A block holds one uniform
    double per unordered pair, row-major over the upper triangle, and is
    drawn :data:`DRAW_CHUNK` doubles at a time.

    Args:
        n: number of agents, at least 2.
        prob: edge probability in (0, 1].
        seed: seed of the generator behind the edge draws.

    Returns:
        A connected :class:`Topology` with 0/1 weights.

    Raises:
        GraphSamplingError: if every attempt in the budget is disconnected.
    """
    check_integer("n", n, 2)
    check_number("prob", prob, "(0, 1]")
    check_integer("seed", seed, 0)
    # position in the draw block of the first pair (i, i + 1) of each row i
    row = np.arange(n - 1)
    offsets = row * (2 * n - 1 - row) // 2
    pairs = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        # chunk after chunk, the generator yields the doubles of one block in order
        hits = np.concatenate(
            [
                (rng.random(min(DRAW_CHUNK, pairs - start)) < prob).nonzero()[0] + start
                for start in range(0, pairs, DRAW_CHUNK)
            ]
        )
        topo = _draw_topology(n, hits, offsets)
        if is_connected(topo):
            return topo
    raise GraphSamplingError(
        f"no connected graph of {n} agents at edge probability {prob} "
        f"within {MAX_ATTEMPTS} attempts from seed {seed}"
    )


def _draw_topology(n: int, hits: np.ndarray, offsets: np.ndarray) -> Topology:
    """The 0/1 topology whose upper-triangle pairs, row-major, are ``hits``."""
    i = np.searchsorted(offsets, hits, side="right") - 1
    j = hits - offsets[i] + i + 1
    rows, columns = np.concatenate([i, j]), np.concatenate([j, i])
    # each (row, column) pair occurs once, so one key sorts as lexsort's two do
    order = np.argsort(rows * n + columns)
    rows, columns = rows[order], columns[order]
    # exact neighbour counts: the row sums of a 0/1 matrix, bit for bit
    degrees = np.bincount(rows, minlength=n).astype(float)
    topo = Topology.__new__(Topology)  # no dense matrix to check or pass over
    topo._assign(n, rows, columns, np.ones(rows.size), degrees)
    return topo


def is_connected(topo: Topology) -> bool:
    """True iff a traversal from agent 0 over positive-weight edges reaches everyone."""
    return not _component_labels(topo).any()


def laplacian_spectrum(topo: Topology) -> SpectralProfile:
    """Certified spectral bounds of ``L = Deg - A``, memoized per topology.

    The first call on a topology runs a Lanczos iteration over the
    topology's neighbour table (see :func:`_solve_spectrum`) and stores the
    profile on it; later calls on the same object return that profile.  The
    solve builds no n x n array and calls no LAPACK routine, and its
    reductions are BLAS-free, so the result does not depend on the BLAS
    thread count.

    ``rho2`` is a lower bound on the smallest positive eigenvalue and
    ``rho_l2`` an upper bound on the spectral radius of ``L^2``, each within
    rounding of the exact value.  ``alpha_max`` is ``rho2 / (2 * rho_l2)``
    rounded down onto a grid of :data:`ALPHA_MAX_BITS`-bit mantissas, and
    the iteration runs until that grid point is also the snap of the
    Ritz values' ratio, an upper bound, so it is the snap of the exact
    bound.  If the Krylov space runs dry first, as it does on small graphs,
    the lower bound's snap is kept, at most ``2 + kappa / 512`` grid points
    below, for ``kappa = lambda_max / rho2``.

    Raises:
        EigenSolveError: if the bounds do not settle onto one grid point
            within :data:`MAX_LANCZOS_STEPS` steps, or ``rho2`` is too small
            beside the largest eigenvalue to be told from zero.
        ValueError: if the graph has no positive Laplacian eigenvalue
            (i.e. no edges at all), in which case no consensus step bound
            exists, or if ``rho2``, ``rho_l2`` or ``alpha_max`` comes out
            non-finite or ``rho_l2`` below the normal floats (weights too
            large or too small for floats).
    """
    if topo._spectrum is None:
        object.__setattr__(topo, "_spectrum", _solve_spectrum(topo))
    return topo._spectrum


def laplacian_product(topo: Topology, x: np.ndarray) -> np.ndarray:
    """``L @ x`` for a vector or an ``(n, p)`` matrix ``x``, from the neighbour table.

    Row ``i`` is ``coefficients[i] @ x[neighbours[i]]``, summed over the
    table's slots in a fixed order by ``np.einsum``, without BLAS, so the
    result does not depend on the BLAS thread count.  Neighbour rows are
    gathered with ``np.take`` a block of agents at a time, each block
    holding at most :data:`DRAW_CHUNK` doubles (or one agent's row, if that
    is larger), so no ``(n, width, p)`` array is built.  A row's sum does
    not depend on the block it falls in: each block goes through the same
    ``einsum``, written into its rows of one preallocated output.
    """
    neighbours, coefficients = topo.neighbours, topo.coefficients
    rows = max(1, DRAW_CHUNK // (coefficients.shape[1] * math.prod(x.shape[1:])))
    product = np.empty((topo.n, *x.shape[1:]))
    for start in range(0, topo.n, rows):
        block = slice(start, start + rows)
        # a temporary, so each gathered block is freed before the next is taken
        np.einsum(
            "ij,ij...->i...",
            coefficients[block],
            x.take(neighbours[block], axis=0),
            out=product[block],
        )
    return product


def _component_labels(topo: Topology) -> np.ndarray:
    """The connected component of each agent, numbered from 0 in order of first agent.

    Each component is a breadth-first search from its first agent that
    expands a whole level at once: the next frontier is every unlabelled
    agent at the end of an edge leaving the current one.
    """
    labels = np.full(topo.n, -1)
    count = 0
    while (unlabelled := np.flatnonzero(labels < 0)).size:
        frontier = np.zeros(topo.n, dtype=bool)
        frontier[unlabelled[0]] = True
        while frontier.any():
            labels[frontier] = count
            reached = np.zeros(topo.n, dtype=bool)
            # slot 0 and the padding point at frontier agents, which are already labelled
            reached[topo.neighbours[frontier]] = True
            frontier = reached & (labels < 0)
        count += 1
    return labels


def _solve_spectrum(topo: Topology) -> SpectralProfile:
    """Lanczos over the neighbour table, stopped once the snapped bound is certified.

    The null space of ``L`` is spanned by the indicator vectors of the
    connected components, so the iteration runs on its complement: every
    vector loses its mean over each component, and ``rho2`` is the smallest
    positive eigenvalue also on a disconnected graph.  The start vector is
    the fixed ``cos(0), cos(1), ...``, and each new vector is
    reorthogonalised twice against all earlier ones with BLAS-free
    reductions.  After each step the extreme Ritz values of the tridiagonal
    are bracketed by Sturm bisection and widened into bounds on the extreme
    eigenvalues (see :class:`_RitzEdge`).  The lower-bound ratio
    ``rho2_lo / (2 rho_l2_hi)`` and the Ritz ratio ``theta_min / (2
    theta_max^2)`` enclose the exact ratio, so once both snap to the same
    grid point that point is the exact ratio's snap.
    """
    labels = _component_labels(topo)
    sizes = np.bincount(labels)
    rank = topo.n - sizes.size  # dimension of the complement of the null space
    if rank == 0:
        raise ValueError("graph has no edges; the Laplacian spectrum is all zero")
    top_degree = float(topo.coefficients[:, 0].max())
    if not math.isfinite(top_degree * top_degree):
        # the largest eigenvalue is at least the largest degree
        raise ValueError(
            "Laplacian spectrum has rho_l2 = inf; the weights are too large for a float solve"
        )
    # Gershgorin puts the spectrum in [0, 2 * top_degree]; the margin covers rounding
    bound = 3.0 * top_degree

    def project(v: np.ndarray) -> np.ndarray:
        return v - (np.bincount(labels, v) / sizes)[labels]

    v = project(np.cos(np.arange(topo.n, dtype=float)))
    v /= math.sqrt(np.einsum("i,i->", v, v))
    basis = np.empty((min(16, rank), topo.n))
    # the tridiagonal: off[i] couples rows i - 1 and i, off[0] = 0
    off, off2 = [0.0], [0.0]
    bottom, top = _RitzEdge(1.0), _RitzEdge(-1.0)
    for m in range(1, MAX_LANCZOS_STEPS + 1):
        if m > basis.shape[0]:
            grown = np.empty((min(2 * basis.shape[0], rank), topo.n))
            grown[: m - 1] = basis[: m - 1]
            basis = grown
        basis[m - 1] = v
        w = laplacian_product(topo, v)
        a = float(np.einsum("i,i->", v, w))
        earlier = basis[:m]
        for _ in range(2):
            w = project(w - np.einsum("kj,k->j", earlier, np.einsum("kj,j->k", earlier, w)))
        beta = math.sqrt(np.einsum("i,i->", w, w))

        pivmin = _PIVOT_FLOOR * max(1.0, max(off2))
        for edge in (bottom, top):
            edge.locate(a, off2, bound, pivmin)
        floor = 4.0 * _EPS * -top.lo
        # the Krylov space is exhausted: no later step can tighten the bounds
        exhausted = m == rank or beta <= floor
        for edge in (bottom, top):
            if exhausted:
                edge.lo, edge.hi = _bisect(edge.diag, off2, 0, edge.lo, edge.hi, 0.0, pivmin)
            edge.widen(off, off2, beta, floor, pivmin)
        rho2 = bottom.lo - bottom.widening
        try:
            rho_l2 = (top.widening - top.lo) ** 2
        except OverflowError:  # lambda_max can reach twice the degree the guard bounds
            rho_l2 = math.inf
        if rho2 > 0.0:
            profile = _profile(rho2, rho_l2)
            ritz = _ratio(bottom.hi, top.hi**2)
            if exhausted or (math.isfinite(ritz) and profile.alpha_max == _snap_down(ritz)):
                return profile
        elif exhausted:
            break
        off.append(beta)
        off2.append(beta * beta)
        v = w / beta
    else:
        raise EigenSolveError(
            f"the spectral bounds of a {topo.n}-agent Laplacian did not settle onto one "
            f"alpha_max grid point within {MAX_LANCZOS_STEPS} Lanczos steps"
        )
    raise EigenSolveError(
        f"rho2 of a {topo.n}-agent Laplacian is too small beside its largest eigenvalue "
        "to be told from zero"
    )


def _profile(rho2: float, rho_l2: float) -> SpectralProfile:
    """The profile of two bounds, its ``alpha_max`` snapped; ValueError if any is
    non-finite or ``rho_l2`` is below the normal floats, where it has lost the bits
    the ratio needs."""
    bounds = {"rho2": rho2, "rho_l2": rho_l2, "alpha_max": _ratio(rho2, rho_l2)}
    for name, value in bounds.items():
        if not math.isfinite(value) or (name == "rho_l2" and value < _NORMAL_FLOOR):
            raise ValueError(
                f"Laplacian spectrum has {name} = {value}; the weights are out of range "
                "for a float solve"
            )
    bounds["alpha_max"] = _snap_down(bounds["alpha_max"])
    return SpectralProfile(**bounds)


def _ratio(rho2: float, rho_l2: float) -> float:
    """``rho2 / (2 rho_l2)``, infinite when ``rho_l2`` underflows to zero."""
    return rho2 / (2.0 * rho_l2) if rho_l2 > 0.0 else math.inf


_EPS = float(np.finfo(float).eps)
_NORMAL_FLOOR = float(np.finfo(float).tiny)  # the smallest normal float
# Sturm pivots smaller than this times the largest squared coupling are
# replaced by minus itself, so a pivot is never zero (as LAPACK's dstebz)
_PIVOT_FLOOR = _NORMAL_FLOOR


class _RitzEdge:
    """The smallest Ritz value of a growing Lanczos tridiagonal, step by step.

    ``sign = -1`` tracks the largest one instead, as the smallest of the
    negated matrix.  After :meth:`locate`, ``[lo, hi]`` is a Sturm-certified
    bracket of the Ritz value and ``near`` a lower bound on the next Ritz
    value up; after :meth:`widen`, ``widening`` is how far below ``lo`` the
    matrix's own extreme eigenvalue may lie.
    """

    def __init__(self, sign: float) -> None:
        self.sign = sign
        self.diag: list[float] = []
        self.lo = self.hi = self.near = math.nan
        self.drift = 0.0  # how far the Ritz value moved in the last step
        self.widening = math.inf

    def locate(self, a: float, off2: list[float], bound: float, pivmin: float) -> None:
        """Take the new diagonal entry ``a`` and re-bracket, the spectrum lying in ``+-bound``."""
        diag = self.diag
        diag.append(self.sign * a)
        m = len(diag)
        if m == 1:
            self.lo = self.hi = diag[0]
            return
        # Cauchy interlacing: the smallest Ritz value only moves down as the
        # matrix grows, and the next one stays above the old smallest
        old_lo, old_hi = self.lo, self.hi
        reach = max(2.0 * self.drift, _EPS * bound)
        while (lo := old_lo - reach) > -bound and _sturm_count(diag, off2, lo, pivmin) > 0:
            reach *= 16.0
        lo, hi = _bisect(diag, off2, 0, max(lo, -bound), old_hi, self.widening / 8.0, pivmin)
        self.drift = max(0.5 * (old_lo + old_hi - lo - hi), 0.0)
        self.lo, self.hi = lo, hi
        # the next Ritz value also only moves down: re-bracket it once it
        # drops below the last bound
        if m == 2 or _sturm_count(diag, off2, self.near, pivmin) > 1:
            top = bound if m == 2 else self.near
            self.near, _ = _bisect(diag, off2, 1, old_lo, top, (top - old_lo) / 8.0, pivmin)

    def widen(
        self, off: list[float], off2: list[float], beta: float, floor: float, pivmin: float
    ) -> None:
        """Residual or Kato-Temple widening, floored at ``floor`` against rounding.

        The residual of the Ritz pair is ``beta |s_k|``; the gap to the next
        Ritz value stands in for the gap to the next eigenvalue.
        """
        centre = 0.5 * (self.lo + self.hi)
        residual = beta * _bottom_component(self.diag, off, off2, centre, pivmin)
        gap = self.near - self.hi  # nan while there is no second Ritz value
        if gap > 0.0:
            residual = min(residual, residual * residual / gap)
        self.widening = max(residual, floor)


def _sturm_count(diag: list[float], off2: list[float], x: float, pivmin: float) -> int:
    """How many eigenvalues of the tridiagonal lie below ``x``: its negative pivots at ``x``.

    The inner loop of every bisection, so it counts in place instead of
    keeping the pivots as :func:`_pivots` does.
    """
    count = 0
    q = 1.0
    for a, b2 in zip(diag, off2):
        q = a - x - b2 / q
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
    return count


def _bisect(diag, off2, j, lo, hi, width, pivmin) -> tuple[float, float]:
    """Halve ``[lo, hi]`` around eigenvalue ``j`` (from 0, ascending) down to ``width``.

    The bracket stops shrinking early once its ends are adjacent floats.
    """
    while hi - lo > width and lo < (mid := 0.5 * (lo + hi)) < hi:
        if _sturm_count(diag, off2, mid, pivmin) > j:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _pivots(diag, off2, x, pivmin) -> list[float]:
    """The pivots of ``T - x`` eliminated from the top, as in :func:`_sturm_count`."""
    pivots = []
    q = 1.0
    for a, b2 in zip(diag, off2):
        q = a - x - b2 / q
        if -pivmin < q < pivmin:
            q = -pivmin
        pivots.append(q)
    return pivots


def _bottom_component(diag, off, off2, x, pivmin) -> float:
    """``|s_k|``, the last entry of the unit eigenvector of the tridiagonal at eigenvalue ``x``.

    A twisted factorization: pivots from the top and from the bottom meet at
    the row where the eigenvector is largest, and the entries follow outward
    from there as products of coupling-to-pivot ratios.  Unlike the top-down
    recurrence alone, this stays accurate when ``x`` is also, to working
    precision, an eigenvalue of a leading block, which every converged Ritz
    value is.
    """
    upper = _pivots(diag, off2, x, pivmin)
    lower = _pivots(diag[::-1], [0.0, *off2[:0:-1]], x, pivmin)[::-1]
    twists = [abs(u + d - a + x) for u, d, a in zip(upper, lower, diag)]
    twist = twists.index(min(twists))
    entry, norm2 = 1.0, 1.0
    for i in range(twist - 1, -1, -1):
        entry *= off[i + 1] / upper[i]
        norm2 += entry * entry
    entry = 1.0
    for i in range(twist + 1, len(diag)):
        entry *= off[i] / lower[i]
        norm2 += entry * entry
    last = abs(entry) / math.sqrt(norm2)
    return last if math.isfinite(last) else 1.0
