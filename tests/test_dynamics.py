"""Unit tests for the decentralised dynamics of both games."""

import random

import pytest

from repro.core import (
    best_response_dynamics_ucg,
    is_nash_graph_ucg,
    is_nash_profile_ucg,
    is_pairwise_stable,
    pairwise_dynamics_bcg,
    sample_nash_networks_ucg,
    sample_stable_networks_bcg,
)
from repro.core.dynamics import DynamicsResult
from repro.graphs import (
    Graph,
    complete_graph,
    is_connected,
    random_connected_graph,
    random_graph,
    star_graph,
)


class TestUCGBestResponseDynamics:
    def test_converges_from_empty_start(self):
        result = best_response_dynamics_ucg(6, alpha=2.0, rng=random.Random(1))
        assert isinstance(result, DynamicsResult)
        assert result.converged
        assert is_connected(result.graph)
        assert is_nash_profile_ucg(result.profile, 2.0)

    def test_fixed_point_is_a_nash_network(self):
        # n = 10 is the paper's size for the sampled Figures 2 and 3.
        cases = [(7, 3.0, seed) for seed in range(4)] + [(10, 4.0, 9)]
        for n, alpha, seed in cases:
            result = best_response_dynamics_ucg(n, alpha=alpha, rng=random.Random(seed))
            assert result.converged
            assert is_nash_graph_ucg(result.graph, alpha)

    def test_cheap_links_produce_dense_networks(self):
        result = best_response_dynamics_ucg(6, alpha=0.5, rng=random.Random(2))
        assert result.converged
        # For α < 1 the (essentially unique) Nash network is the complete graph.
        assert result.graph.num_edges == 15

    def test_expensive_links_produce_sparse_networks(self):
        result = best_response_dynamics_ucg(6, alpha=30.0, rng=random.Random(3))
        assert result.converged
        assert result.graph.num_edges == 5  # a tree

    def test_deterministic_order_option(self):
        a = best_response_dynamics_ucg(5, alpha=2.0, randomize_order=False)
        b = best_response_dynamics_ucg(5, alpha=2.0, randomize_order=False)
        assert a.graph == b.graph

    def test_history_and_rounds_recorded(self):
        result = best_response_dynamics_ucg(5, alpha=2.0, rng=random.Random(4))
        assert len(result.history) == result.rounds

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            best_response_dynamics_ucg(5, alpha=0.0)
        from repro.core import StrategyProfile

        with pytest.raises(ValueError):
            best_response_dynamics_ucg(5, alpha=1.0, initial=StrategyProfile(4))


class TestBCGPairwiseDynamics:
    def test_converges_to_pairwise_stable_network(self):
        # n = 10 is the paper's size for the sampled Figures 2 and 3.
        cases = [(7, 2.0, seed, random_graph) for seed in range(4)]
        cases.append((10, 3.0, 3, random_connected_graph))
        for n, alpha, seed, generate in cases:
            rng = random.Random(seed)
            start = generate(n, 0.3, rng)
            result = pairwise_dynamics_bcg(n, alpha=alpha, initial=start, rng=rng)
            assert result.converged
            assert is_pairwise_stable(result.graph, alpha)

    def test_cheap_links_reach_complete_graph(self):
        # Start from a connected network: from the empty network single-link
        # additions cannot reduce an infinite distance cost, so the dynamics
        # would freeze there (the empty network is itself pairwise stable).
        result = pairwise_dynamics_bcg(
            6, alpha=0.5, initial=star_graph(6), rng=random.Random(5)
        )
        assert result.converged
        assert result.graph == complete_graph(6)

    def test_empty_start_freezes_by_mutual_blocking(self):
        result = pairwise_dynamics_bcg(6, alpha=0.5, rng=random.Random(5))
        assert result.converged
        assert result.graph.num_edges == 0
        assert is_pairwise_stable(result.graph, 0.5)

    def test_star_start_is_already_stable(self):
        star = star_graph(6)
        result = pairwise_dynamics_bcg(6, alpha=3.0, initial=star, rng=random.Random(6))
        assert result.converged
        assert result.graph == star
        assert result.rounds == 1

    def test_profile_is_mutual_consent_form(self):
        result = pairwise_dynamics_bcg(5, alpha=2.0, rng=random.Random(7))
        assert result.profile is not None
        assert result.profile.bilateral_graph() == result.graph

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            pairwise_dynamics_bcg(5, alpha=-1.0)
        with pytest.raises(ValueError):
            pairwise_dynamics_bcg(5, alpha=1.0, initial=Graph(4))


class TestSampling:
    def test_sampled_bcg_networks_are_stable(self):
        graphs = sample_stable_networks_bcg(6, alpha=2.0, num_samples=4, seed=1)
        assert graphs
        assert all(is_pairwise_stable(g, 2.0) for g in graphs)

    def test_sampled_ucg_networks_are_nash(self):
        graphs = sample_nash_networks_ucg(6, alpha=2.0, num_samples=4, seed=1)
        assert graphs
        assert all(is_nash_graph_ucg(g, 2.0) for g in graphs)
