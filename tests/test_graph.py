import math
import tracemalloc
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_engine
from zoswarm import graph
from zoswarm.config import build_topology, load_config
from zoswarm.graph import (
    EigenSolveError,
    GraphSamplingError,
    Topology,
    erdos_renyi,
    is_connected,
    laplacian_spectrum,
)
from zoswarm.graph import _snap_down


def assert_snapped(alpha_max, raw):
    """``alpha_max`` is ``raw`` rounded down onto the 40-bit mantissa grid."""
    exponent = math.frexp(raw)[1]
    assert alpha_max <= raw
    assert raw - alpha_max < math.ldexp(1.0, exponent - 40)  # within one grid step
    assert math.ldexp(alpha_max, 40 - exponent).is_integer()  # on the grid


def laplacian(topo):
    """The dense Laplacian ``Deg - W`` of a topology, from its weights."""
    w = reference_engine.weights(topo)
    return np.diag(w.sum(axis=1)) - w


def path3():
    return Topology(3, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))


def pair():
    return Topology(2, np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestTopology:
    def test_rejects_asymmetric_weights(self):
        with pytest.raises(ValueError, match="symmetric"):
            Topology(2, np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self"):
            Topology(2, np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Topology(2, np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_degrees_and_edges(self):
        topo = path3()
        assert np.array_equal(np.diag(laplacian(topo)), [1.0, 2.0, 1.0])
        assert topo.neighbours.tolist() == [[0, 1, 0], [1, 0, 2], [2, 1, 2]]
        assert topo.coefficients.tolist() == [[1, -1, 0], [2, -1, -1], [1, -1, 0]]

    def test_equality_and_hash_go_by_identity(self):
        # equal weights would make an array comparison ambiguous; the spectrum memo is per object
        topo, twin = pair(), pair()
        assert topo != twin
        assert topo == topo
        assert {topo: 1}[topo] == 1 and hash(topo) == hash(topo)
        # a profile is three numbers and compares by value
        profile, other = laplacian_spectrum(topo), laplacian_spectrum(twin)
        assert profile == other and profile is not other
        assert laplacian_spectrum(topo) is profile


class TestErdosRenyi:
    def test_two_nodes_prob_one_forces_the_edge(self):
        for seed in (0, 1, 99):
            topo = erdos_renyi(2, 1.0, seed=seed)
            assert np.array_equal(reference_engine.weights(topo), [[0.0, 1.0], [1.0, 0.0]])

    def test_three_nodes_prob_one_is_complete_triangle(self):
        topo = erdos_renyi(3, 1.0, seed=5)
        assert np.array_equal(reference_engine.weights(topo), np.ones((3, 3)) - np.eye(3))

    def test_seed_determinism_and_connectivity(self):
        a = erdos_renyi(10, 0.4, seed=7)
        b = erdos_renyi(10, 0.4, seed=7)
        assert np.array_equal(reference_engine.weights(a), reference_engine.weights(b))
        assert is_connected(a)

    @pytest.mark.parametrize("n, prob, seed", [(10, 0.2, 7), (1000, 0.0207, 2)])
    def test_matches_seeded_sampler_replay(self, n, prob, seed):
        # replay the documented draw order: upper-triangle pairs, row-major,
        # each retry taking the next block of the one seeded generator
        topo = erdos_renyi(n, prob, seed=seed)
        rng = np.random.default_rng(seed)
        for attempt in range(100):
            draws = rng.random(n * (n - 1) // 2)
            expected = np.zeros((n, n))
            expected[np.triu_indices(n, k=1)] = (draws < prob).astype(float)
            expected = expected + expected.T
            if is_connected(Topology(n, expected)):
                break
        assert np.array_equal(reference_engine.weights(topo), expected)
        # the draw's table is the dense constructor's, bit for bit
        dense = Topology(n, expected)
        for name in ("neighbours", "coefficients"):
            got, want = getattr(topo, name), getattr(dense, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        if n == 10:
            assert attempt > 0  # the replay covers retries, not only a first draw

    def test_neighbouring_seeds_do_not_share_retries(self):
        # both seeds retry at this density; a retry must not replay the next seed
        assert not np.array_equal(
            reference_engine.weights(erdos_renyi(10, 0.2, seed=7)),
            reference_engine.weights(erdos_renyi(10, 0.2, seed=8)),
        )

    def test_invariants_on_many_samples(self):
        for seed in range(12):
            topo = erdos_renyi(8, 0.3, seed=seed)
            w = reference_engine.weights(topo)
            assert np.array_equal(w, w.T)
            assert np.all(np.diag(w) == 0.0)
            assert np.all(w >= 0.0)

    def test_keeps_no_dense_matrix(self):
        n = 1000
        erdos_renyi(10, 0.5, seed=0)  # lazy imports stay out of the trace
        tracemalloc.start()
        try:
            topo = erdos_renyi(n, 0.0207, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(v.nbytes for v in vars(topo).values() if isinstance(v, np.ndarray))
        assert kept < 1_000_000  # a dense n x n copy alone is 8 MB
        # uniforms are drawn a chunk at a time, not as one block of n (n - 1) / 2
        assert peak < 0.25 * 8 * n * n
        profile = laplacian_spectrum(topo)
        table = sum(v.nbytes for v in vars(profile).values() if isinstance(v, np.ndarray))
        assert table < 1_000_000

    def test_reports_failure_when_budget_exhausted(self):
        # 30 agents at vanishing edge probability essentially never connect
        with pytest.raises(GraphSamplingError):
            erdos_renyi(30, 1e-6, seed=0)


class TestConnectivity:
    def test_complete_triangle_connected(self):
        assert is_connected(erdos_renyi(3, 1.0, seed=0))

    def test_no_edges_disconnected(self):
        assert not is_connected(Topology(2, np.zeros((2, 2))))

    def test_path_connected_until_edge_removed(self):
        assert is_connected(path3())
        broken = Topology(3, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float))
        assert not is_connected(broken)


class TestLaplacianSpectrum:
    def test_path3_spectrum(self):
        topo = path3()
        profile = laplacian_spectrum(topo)
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.array_equal(laplacian(topo), expected)
        eigs = np.linalg.eigvalsh(laplacian(topo))
        assert np.allclose(eigs, [0.0, 1.0, 3.0], atol=1e-10)
        assert abs(profile.rho2 - 1.0) < 1e-10
        assert abs(profile.rho_l2 - 9.0) < 1e-9
        assert abs(profile.alpha_max - 1.0 / 18.0) < 1e-10

    def test_pair_spectrum_closed_form(self):
        topo = pair()
        profile = laplacian_spectrum(topo)
        assert np.array_equal(laplacian(topo), [[1.0, -1.0], [-1.0, 1.0]])
        assert abs(profile.rho2 - 2.0) < 1e-12
        assert abs(profile.rho_l2 - 4.0) < 1e-12
        assert abs(profile.alpha_max - 0.25) < 1e-12

    def test_rejects_edgeless_graph(self):
        with pytest.raises(ValueError, match="no edges"):
            laplacian_spectrum(Topology(3, np.zeros((3, 3))))

    def test_row_sums_and_psd_on_random_graphs(self):
        for seed in range(10):
            lap = laplacian(erdos_renyi(9, 0.35, seed=seed))
            assert np.all(np.abs(lap @ np.ones(9)) < 1e-10)
            eigs = np.linalg.eigvalsh(lap)
            assert np.all(eigs >= -1e-10)

    def test_zero_multiplicity_matches_connectivity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = 7
            w = np.triu((rng.random((n, n)) < 0.25).astype(float), k=1)
            w = w + w.T
            topo = Topology(n, w)
            if not np.any(topo.coefficients[:, 1:]):
                continue
            eigs = np.linalg.eigvalsh(laplacian(topo))
            multiplicity = int(np.sum(np.abs(eigs) < 1e-9))
            assert (multiplicity == 1) == is_connected(topo)

    def test_rho_l2_equals_spectral_radius_squared(self):
        for seed in range(8):
            topo = erdos_renyi(8, 0.5, seed=seed)
            profile = laplacian_spectrum(topo)
            eigs_sq = np.linalg.eigvalsh(laplacian(topo) @ laplacian(topo))
            assert abs(profile.rho_l2 - eigs_sq.max()) < 1e-8
            assert_snapped(profile.alpha_max, profile.rho2 / (2.0 * profile.rho_l2))

    @pytest.mark.parametrize(
        "build, alpha_max",
        [
            (lambda: build_topology(load_config("paper_iv_a")), "0x1.4e6b7baa0c000p-8"),
            (lambda: build_topology(load_config("toy_quadratic")), "0x1.9999999998000p-4"),
            # the toy_swarm_1k benchmark topology at workload seeds 0 and 1
            (lambda: erdos_renyi(1000, 0.0207, seed=2), "0x1.0807590fb2000p-9"),
            (lambda: erdos_renyi(1000, 0.0207, seed=3), "0x1.58769017d4000p-9"),
        ],
        ids=["paper_iv_a", "toy_quadratic", "swarm_seed0", "swarm_seed1"],
    )
    def test_alpha_max_keeps_the_dense_solves_bits(self, build, alpha_max):
        # the snaps of LAPACK's eigenvalues, with which the golden records were made
        assert laplacian_spectrum(build()).alpha_max.hex() == alpha_max

    def test_solve_keeps_no_dense_matrix(self):
        n = 1000
        topo = erdos_renyi(n, 0.0207, seed=2)
        laplacian_spectrum(path3())  # lazy imports stay out of the trace
        tracemalloc.start()
        try:
            laplacian_spectrum(topo)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * n * n  # a dense Laplacian alone is 8 n^2 bytes

    def test_step_budget_runs_out(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_LANCZOS_STEPS", 2)
        with pytest.raises(EigenSolveError, match="within 2 Lanczos steps"):
            laplacian_spectrum(erdos_renyi(30, 0.3, seed=0))

    def test_disconnected_graph_reports_the_smallest_positive_eigenvalue(self):
        # a weighted triangle, a weighted path of four and an isolated agent
        w = np.zeros((8, 8))
        edges = [(0, 1, 1.5), (1, 2, 0.7), (0, 2, 2.2), (3, 4, 0.3), (4, 5, 4.0), (5, 6, 1.1)]
        for i, j, weight in edges:
            w[i, j] = w[j, i] = weight
        topo = Topology(8, w)
        assert not is_connected(topo)
        eigs = np.linalg.eigvalsh(laplacian(topo))
        rho2 = eigs[eigs > 1e-9].min()
        assert abs(laplacian_spectrum(topo).rho2 - rho2) <= 1e-12 * rho2

    def test_rho2_below_rounding_is_an_error_not_a_null_eigenvalue(self):
        # two triangles joined by a link of weight 1e-20: connected, with rho2
        # about 7e-21, far below what rounding on the eigenvalue 3 resolves
        w = np.zeros((6, 6))
        for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            w[i, j] = w[j, i] = 1.0
        w[2, 3] = w[3, 2] = 1e-20
        with pytest.raises(EigenSolveError, match="rho2 .* too small"):
            laplacian_spectrum(Topology(6, w))

    def test_alpha_max_snaps_thread_jitter_onto_one_grid_point(self):
        # the n = 1000 bound LAPACK returned on one and on two BLAS threads
        one, two = float.fromhex("0x1.0807590fb277cp-9"), float.fromhex("0x1.0807590fb276cp-9")
        assert _snap_down(one).hex() == _snap_down(two).hex() == "0x1.0807590fb2000p-9"
        assert _snap_down(0.25) == 0.25  # values on the grid stay put


@st.composite
def connected_topologies(draw):
    """A random spanning tree plus random extra edges, all with positive weights."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight = st.floats(0.1, 10.0)
    weights = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(1, n):
        i, j = order[k], order[rng.integers(k)]
        weights[i, j] = weights[j, i] = draw(weight)
    for i, j in zip(*np.triu_indices(n, k=1)):
        if weights[i, j] == 0.0 and draw(st.booleans()):
            weights[i, j] = weights[j, i] = draw(weight)
    return Topology(n, weights)


@settings(max_examples=100, deadline=None)
@given(connected_topologies())
def test_laplacian_properties_on_random_connected_graphs(topo):
    # zero row sums: agents that already agree feel no consensus pull
    profile = laplacian_spectrum(topo)
    lap = laplacian(topo)
    scale = lap.diagonal().max()
    # LAPACK is the test-only reference.  Its eigenvalues carry rounding of
    # their own, up to 8.6 eps lambda_max on a complete graph of equal weights,
    # so the bounds may cross them on the unsafe side by up to 16 eps lambda_max
    eigs = np.linalg.eigvalsh(lap)
    rho2, top = eigs[eigs > 1e-9].min(), np.abs(eigs).max()
    slack = 16 * np.finfo(float).eps * top
    assert rho2 - 1e-12 * top <= profile.rho2 <= rho2 + slack
    assert top - slack <= math.sqrt(profile.rho_l2) <= top + 1e-12 * top
    # alpha_max is at most the reference's snap, and below it by no more
    # than the reference's rounding moves the snap
    assert profile.alpha_max <= _snap_down(rho2 / (2.0 * top**2))
    assert profile.alpha_max >= _snap_down((rho2 - slack) / (2.0 * (top + slack) ** 2))
    assert_snapped(profile.alpha_max, profile.rho2 / (2.0 * profile.rho_l2))
    assert np.all(np.abs(lap.sum(axis=1)) <= 1e-12 * scale)
    assert np.array_equal(lap, lap.T)
    assert np.linalg.eigvalsh(lap).min() >= -1e-9 * scale
    assert profile.alpha_max > 0.0
    # the table's padding points at the agent itself and weighs nothing
    own = topo.neighbours == np.arange(topo.n)[:, None]
    assert np.all(own[:, 0])
    assert np.all(topo.coefficients[:, 1:][own[:, 1:]] == 0.0)


def queue_bfs_connected(weights: np.ndarray) -> bool:
    """Reference traversal: one agent at a time from a FIFO queue."""
    n = weights.shape[0]
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in range(n):
            if weights[i, j] > 0.0 and j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == n


@st.composite
def weighted_graphs(draw):
    """Symmetric weight matrices of any density, often disconnected, from n = 1 up."""
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6, 1.0]))
    upper = np.triu(rng.random((n, n)) < density, k=1)
    weights = np.where(upper, rng.uniform(0.01, 5.0, (n, n)), 0.0)
    return weights + weights.T


@settings(max_examples=300, deadline=None)
@given(weighted_graphs())
def test_is_connected_matches_a_queue_bfs(w):
    assert is_connected(Topology(len(w), w)) == queue_bfs_connected(w)


@settings(max_examples=200, deadline=None)
@given(weighted_graphs())
def test_table_gives_back_the_dense_weights(w):
    topo = Topology(len(w), w)
    assert reference_engine.weights(topo).tobytes() == w.tobytes()
    assert topo.coefficients[:, 0].tobytes() == w.sum(axis=1).tobytes()


@pytest.mark.parametrize(
    "weights, connected",
    [
        ([[0.0]], True),
        ([[0.0, 0.0], [0.0, 0.0]], False),
        ([[0.0, 0.3], [0.3, 0.0]], True),
    ],
)
def test_is_connected_on_one_and_two_agents(weights, connected):
    topo = Topology(len(weights), np.array(weights))
    assert is_connected(topo) is connected is queue_bfs_connected(reference_engine.weights(topo))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n * (n - 1) // 2 - 1)))
    )
)
def test_a_drawn_topology_orders_its_entries_by_one_key_as_lexsort_does(case):
    # each (row, column) pair occurs once, so sorting row * n + column gives
    # lexsort's (row, then column) order, and the table keeps its bits
    n, hits = case
    hits = np.array(sorted(hits), dtype=np.int64)  # a draw yields its hits in order
    row = np.arange(n - 1)
    offsets = row * (2 * n - 1 - row) // 2
    i = np.searchsorted(offsets, hits, side="right") - 1
    j = hits - offsets[i] + i + 1
    rows, columns = np.concatenate([i, j]), np.concatenate([j, i])
    assert np.array_equal(np.argsort(rows * n + columns), np.lexsort((columns, rows)))
    drawn = graph._draw_topology(n, hits, offsets)
    upper = np.triu_indices(n, k=1)
    w = np.zeros((n, n))
    w[upper[0][hits], upper[1][hits]] = 1.0
    dense = Topology(n, w + w.T)
    assert drawn.neighbours.tobytes() == dense.neighbours.tobytes()
    assert drawn.coefficients.tobytes() == dense.coefficients.tobytes()


def symmetric(n, edges):
    """The dense weights of ``n`` agents with the undirected ``(i, j, w)`` edges."""
    w = np.zeros((n, n))
    for i, j, weight in edges:
        w[i, j] = w[j, i] = weight
    return w


@st.composite
def small_weighted_graphs(draw):
    """2 to 7 agents with at least one edge, often disconnected; unit, uniform or log-uniform weights."""
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.3, 0.6, 1.0])), k=1)
    upper[0, 1] = True
    kind = draw(st.sampled_from(["unit", "uniform", "log-uniform"]))
    weights = {
        "unit": lambda: np.ones((n, n)),
        "uniform": lambda: rng.uniform(0.01, 10.0, (n, n)),
        "log-uniform": lambda: 10.0 ** rng.uniform(-3.0, 3.0, (n, n)),
    }[kind]()
    w = np.where(upper, weights, 0.0)
    return w + w.T


# eigenvalues 4, 6 and 7 twice each: a Sturm chain that is not square free miscounts
REPEATED = symmetric(
    7,
    [(i, j, 1.0) for i in range(7) for j in range(i + 1, 7)
     if (i, j) not in ((0, 1), (1, 2), (3, 4), (4, 5))],
)
# weights over six decades, kappa = 1.1e6: alpha_max sits 916 grid points below the snap
WIDE = symmetric(
    6,
    [
        (0, 1, 467.6581403261049), (0, 3, 942.0612981954358), (0, 4, 0.002308745765845746),
        (0, 5, 3.7084099019013634), (1, 2, 0.0017118062745283091), (1, 5, 0.11292909633925799),
        (3, 4, 6.285813367763839), (4, 5, 13.303327901111944),
    ],
)


@settings(max_examples=100, deadline=None)
@given(small_weighted_graphs())
@example(REPEATED)
@example(WIDE)
@example(symmetric(4, [(0, 1, 1e-3), (2, 3, 1e3)]))  # two components, kappa = 1e6
@example(symmetric(2, [(0, 1, 1.0)]))  # the exact bound 1/4 is itself a grid point
def test_alpha_max_is_never_above_the_exact_snap(w):
    # The solve floors its widening at 4 eps lambda_max, at the bottom edge
    # too, so its rho2 may sit 4 eps kappa below rho2: with 2^40 grid points
    # per binade that is kappa / 1024 grid points, plus one for where the
    # snap falls.  The test allows twice that, 2 + kappa / 512, for
    # kappa = lambda_max / rho2 (1.1e6 and 916 grid points on WIDE).
    profile = laplacian_spectrum(Topology(len(w), w))
    exact = reference_engine.ExactSpectrum(w)
    snap, kappa = exact.alpha_max_snap()
    alpha_max = Fraction(profile.alpha_max)
    assert alpha_max <= snap
    assert (snap - alpha_max) / reference_engine.grid_step(snap) <= 2 + kappa / 512
    # rho2 is a lower bound: no positive eigenvalue lies below it
    rho2 = Fraction(profile.rho2)
    assert exact.at_most(rho2) == 0 or (exact.at_most(rho2) == 1 and exact.is_eigenvalue(rho2))


@pytest.mark.parametrize("exponent", [*range(-170, -150), *range(150, 160), 308])
@pytest.mark.parametrize("edges", [[(0, 1)], [(0, 1), (1, 2)]], ids=["K2", "P3"])
def test_an_edge_weight_out_of_float_range_is_a_value_error(edges, exponent):
    # about 1e154 squares past the float range, and below about 1e-154 rho_l2
    # is subnormal, with too few bits left for an alpha_max below the exact snap
    w = symmetric(len(edges) + 1, [(i, j, 10.0**exponent) for i, j in edges])
    try:
        profile = laplacian_spectrum(Topology(len(w), w))
    except ValueError as exc:
        if (len(edges), exponent) == (2, 308):  # agent 1's degree is past the float range
            assert str(exc) == "the weights of agent 1 sum past the float range"
        else:
            assert str(exc).endswith("for a float solve")
    else:
        assert Fraction(profile.alpha_max) <= reference_engine.ExactSpectrum(w).alpha_max_snap()[0]
