import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoswarm.graph import (
    GraphSamplingError,
    Topology,
    erdos_renyi,
    is_connected,
    laplacian_spectrum,
)


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

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="2x2"):
            Topology(2, np.zeros((3, 3)))

    def test_degrees_and_edges(self):
        topo = path3()
        assert np.array_equal(np.diag(laplacian_spectrum(topo).laplacian), [1.0, 2.0, 1.0])
        assert topo.edges() == [(0, 1, 1.0), (1, 2, 1.0)]


class TestErdosRenyi:
    def test_two_nodes_prob_one_forces_the_edge(self):
        for seed in (0, 1, 99):
            topo = erdos_renyi(2, 1.0, seed=seed)
            assert np.array_equal(topo.weights, [[0.0, 1.0], [1.0, 0.0]])

    def test_three_nodes_prob_one_is_complete_triangle(self):
        topo = erdos_renyi(3, 1.0, seed=5)
        assert np.array_equal(topo.weights, np.ones((3, 3)) - np.eye(3))

    def test_seed_determinism_and_connectivity(self):
        a = erdos_renyi(10, 0.4, seed=7)
        b = erdos_renyi(10, 0.4, seed=7)
        assert np.array_equal(a.weights, b.weights)
        assert is_connected(a)

    def test_matches_seeded_sampler_replay(self):
        # replay the documented draw order: upper-triangle pairs, row-major,
        # each retry taking the next block of the one seeded generator
        n, prob, seed = 10, 0.2, 7
        topo = erdos_renyi(n, prob, seed=seed)
        rng = np.random.default_rng(seed)
        for attempt in range(100):
            draws = rng.random(n * (n - 1) // 2)
            expected = np.zeros((n, n))
            expected[np.triu_indices(n, k=1)] = (draws < prob).astype(float)
            expected = expected + expected.T
            if is_connected(Topology(n, expected)):
                break
        assert np.array_equal(topo.weights, expected)
        assert attempt > 0  # the replay covers retries, not only a first draw

    def test_neighbouring_seeds_do_not_share_retries(self):
        # both seeds retry at this density; a retry must not replay the next seed
        assert not np.array_equal(
            erdos_renyi(10, 0.2, seed=7).weights, erdos_renyi(10, 0.2, seed=8).weights
        )

    def test_invariants_on_many_samples(self):
        for seed in range(12):
            topo = erdos_renyi(8, 0.3, seed=seed)
            w = topo.weights
            assert np.array_equal(w, w.T)
            assert np.all(np.diag(w) == 0.0)
            assert np.all(w >= 0.0)

    def test_rejects_tiny_and_bad_probability(self):
        with pytest.raises(ValueError):
            erdos_renyi(1, 0.5)
        with pytest.raises(ValueError):
            erdos_renyi(5, 0.0)
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5)

    def test_reports_failure_when_budget_exhausted(self):
        # 30 agents at vanishing edge probability essentially never connect
        with pytest.raises(GraphSamplingError):
            erdos_renyi(30, 1e-6, seed=0, max_attempts=5)


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
        profile = laplacian_spectrum(path3())
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.array_equal(profile.laplacian, expected)
        eigs = np.linalg.eigvalsh(profile.laplacian)
        assert np.allclose(eigs, [0.0, 1.0, 3.0], atol=1e-10)
        assert abs(profile.rho2 - 1.0) < 1e-10
        assert abs(profile.rho_l2 - 9.0) < 1e-9
        assert abs(profile.alpha_max - 1.0 / 18.0) < 1e-10

    def test_pair_spectrum_closed_form(self):
        profile = laplacian_spectrum(pair())
        assert np.array_equal(profile.laplacian, [[1.0, -1.0], [-1.0, 1.0]])
        assert abs(profile.rho2 - 2.0) < 1e-12
        assert abs(profile.rho_l2 - 4.0) < 1e-12
        assert abs(profile.alpha_max - 0.25) < 1e-12

    def test_rejects_edgeless_graph(self):
        with pytest.raises(ValueError, match="no edges"):
            laplacian_spectrum(Topology(3, np.zeros((3, 3))))

    def test_row_sums_and_psd_on_random_graphs(self):
        for seed in range(10):
            profile = laplacian_spectrum(erdos_renyi(9, 0.35, seed=seed))
            lap = profile.laplacian
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
            if not topo.edges():
                continue
            eigs = np.linalg.eigvalsh(laplacian_spectrum(topo).laplacian)
            multiplicity = int(np.sum(np.abs(eigs) < 1e-9))
            assert (multiplicity == 1) == is_connected(topo)

    def test_rho_l2_equals_spectral_radius_squared(self):
        for seed in range(8):
            profile = laplacian_spectrum(erdos_renyi(8, 0.5, seed=seed))
            eigs_sq = np.linalg.eigvalsh(profile.laplacian @ profile.laplacian)
            assert abs(profile.rho_l2 - eigs_sq.max()) < 1e-8
            assert abs(
                profile.alpha_max - profile.rho2 / (2.0 * profile.rho_l2)
            ) < 1e-15 * max(1.0, profile.alpha_max)


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
    lap = profile.laplacian
    scale = topo.weights.sum(axis=1).max()
    assert np.all(np.abs(lap.sum(axis=1)) <= 1e-12 * scale)
    assert np.array_equal(lap, lap.T)
    assert np.linalg.eigvalsh(lap).min() >= -1e-9 * scale
    assert profile.alpha_max == profile.rho2 / (2.0 * profile.rho_l2)
    assert profile.alpha_max > 0.0
