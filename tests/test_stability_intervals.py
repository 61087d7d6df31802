"""Unit tests for α-interval machinery and pairwise-stability profiles."""

import pytest

from repro.core import (
    AlphaInterval,
    AlphaIntervalSet,
    FULL_ALPHA_RANGE,
    distance_delta,
    has_stabilizing_alpha,
    is_pairwise_stable,
    pairwise_stability_interval,
    pairwise_stability_profile,
)
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    hoffman_singleton_graph,
    path_graph,
    petersen_graph,
    star_graph,
)


class TestAlphaInterval:
    def test_contains_and_empty(self):
        interval = AlphaInterval(1.0, 3.0)
        assert interval.contains(1.0)
        assert interval.contains(3.0)
        assert not interval.contains(3.5)
        assert not interval.is_empty()
        assert AlphaInterval(2.0, 1.0).is_empty()

    def test_intersection(self):
        a = AlphaInterval(1.0, 5.0)
        b = AlphaInterval(3.0, 8.0)
        assert a.intersect(b) == AlphaInterval(3.0, 5.0)
        assert a.intersect(AlphaInterval(6.0, 7.0)).is_empty()

    def test_full_range(self):
        assert FULL_ALPHA_RANGE.contains(1e-6)
        assert FULL_ALPHA_RANGE.contains(1e9)


class TestAlphaIntervalSet:
    def test_merging_overlapping_intervals(self):
        s = AlphaIntervalSet([AlphaInterval(1, 3), AlphaInterval(2, 5), AlphaInterval(8, 9)])
        assert len(s.intervals) == 2
        assert s.contains(4)
        assert not s.contains(6)
        assert s.min_alpha() == 1
        assert s.max_alpha() == 9

    def test_empty_set(self):
        s = AlphaIntervalSet([AlphaInterval(3, 1)])
        assert s.is_empty()
        assert s.min_alpha() is None
        assert s.max_alpha() is None
        assert not s.contains(2)

    def test_add(self):
        s = AlphaIntervalSet()
        s.add(AlphaInterval(0, 1))
        s.add(AlphaInterval(1, 2))
        assert len(s.intervals) == 1
        s.add(AlphaInterval(5, 4))  # empty, ignored
        assert len(s.intervals) == 1

    def test_repr(self):
        assert "AlphaIntervalSet" in repr(AlphaIntervalSet([AlphaInterval(0, 1)]))

    def test_touching_interval_merge_tolerance(self):
        # Gaps at or below the 1e-12 merge tolerance close; larger gaps stay.
        s = AlphaIntervalSet([AlphaInterval(0.0, 1.0), AlphaInterval(1.0 + 1e-13, 2.0)])
        assert len(s.intervals) == 1
        assert s.intervals[0] == AlphaInterval(0.0, 2.0)
        s = AlphaIntervalSet([AlphaInterval(0.0, 1.0), AlphaInterval(1.0 + 1e-6, 2.0)])
        assert len(s.intervals) == 2

    def test_add_empty_interval_is_noop(self):
        s = AlphaIntervalSet()
        s.add(AlphaInterval(2.0, 1.0))
        assert s.is_empty()
        assert s.intervals == []
        # ... and an empty add does not disturb existing components.
        s.add(AlphaInterval(3.0, 4.0))
        s.add(AlphaInterval(9.0, 8.0))
        assert s.intervals == [AlphaInterval(3.0, 4.0)]

    def test_min_max_alpha_on_unbounded_intervals(self):
        infinity = float("inf")
        s = AlphaIntervalSet([AlphaInterval(3.0, infinity)])
        assert s.min_alpha() == 3.0
        assert s.max_alpha() == infinity
        assert s.contains(1e18)
        s.add(AlphaInterval(0.0, 1.0))
        assert s.min_alpha() == 0.0
        assert s.max_alpha() == infinity
        # Unbounded components merge with overlapping finite ones.
        s.add(AlphaInterval(0.5, 5.0))
        assert s.intervals == [AlphaInterval(0.0, infinity)]

    def test_contains_at_exact_endpoints(self):
        s = AlphaIntervalSet([AlphaInterval(1.0, 2.0)])
        assert s.contains(1.0) and s.contains(2.0)
        # The default tolerance is 1e-9 on either side of the endpoints.
        assert s.contains(1.0 - 0.5e-9) and s.contains(2.0 + 0.5e-9)
        assert not s.contains(1.0 - 2e-9) and not s.contains(2.0 + 2e-9)
        assert s.contains(2.0 + 2e-9, tol=1e-8)
        assert not s.contains(2.0 + 2e-9, tol=0.0)

    def test_degenerate_point_interval(self):
        s = AlphaIntervalSet([AlphaInterval(1.5, 1.5)])
        assert not s.is_empty()
        assert s.contains(1.5)
        assert s.min_alpha() == s.max_alpha() == 1.5


class TestDistanceDelta:
    def test_finite(self):
        assert distance_delta(5.0, 3.0) == 2.0

    def test_both_infinite(self):
        assert distance_delta(float("inf"), float("inf")) == 0.0

    def test_one_infinite(self):
        assert distance_delta(float("inf"), 3.0) == float("inf")
        assert distance_delta(3.0, float("inf")) == float("-inf")


class TestAlphaMinCaching:
    def test_alpha_min_computed_once_and_memoised(self):
        profile = pairwise_stability_profile(cycle_graph(6))
        first = profile.alpha_min
        assert profile._alpha_min_cache == first
        assert profile.alpha_min == first  # second read served from the memo

    def test_mutating_inputs_is_not_silently_stale(self):
        """The deviation tables are frozen after the first alpha_min read.

        Mutating ``addition_saving`` afterwards must not silently change an
        already-published ``alpha_min`` (callers may have cached decisions
        on it); a profile built from the mutated tables sees the new value.
        This test is the explicit record of that contract.
        """
        profile = pairwise_stability_profile(cycle_graph(6))
        frozen = profile.alpha_min
        bumped = dict(profile.addition_saving)
        for key in bumped:
            bumped[key] = 1e6
        profile.addition_saving.update(bumped)
        # The memo holds: no silent change after mutation...
        assert profile.alpha_min == frozen
        # ...while a fresh profile over the mutated tables recomputes.
        from repro.core.stability_intervals import PairwiseStabilityProfile

        fresh = PairwiseStabilityProfile(
            graph=profile.graph,
            removal_increase=dict(profile.removal_increase),
            addition_saving=bumped,
        )
        assert fresh.alpha_min == 1e6
        assert fresh.alpha_min != frozen

    def test_cache_not_shared_between_profiles(self):
        a = pairwise_stability_profile(cycle_graph(6))
        b = pairwise_stability_profile(star_graph(6))
        assert a.alpha_min != b.alpha_min


class TestPairwiseStabilityProfile:
    def test_star_interval(self):
        lo, hi = pairwise_stability_interval(star_graph(6))
        assert lo == 1.0        # two leaves save 1 each by linking directly
        assert hi == float("inf")  # severing disconnects: infinite distance increase

    def test_complete_graph_interval(self):
        lo, hi = pairwise_stability_interval(complete_graph(5))
        assert lo == 0.0   # no missing links
        assert hi == 1.0   # severing any edge costs exactly one extra hop

    def test_cycle_intervals_match_hand_computation(self):
        assert pairwise_stability_interval(cycle_graph(5)) == (1.0, 4.0)
        assert pairwise_stability_interval(cycle_graph(8)) == (5.0, 12.0)

    def test_path_graph(self):
        # The centre edge of P_4 is essential; the missing chords are attractive
        # for small α, so the path is stable only for large α.
        profile = pairwise_stability_profile(path_graph(4))
        assert profile.alpha_max == float("inf")
        assert profile.alpha_min == 2.0

    def test_profile_consistency_with_exact_checks(self, small_random_graphs):
        for graph in small_random_graphs:
            profile = pairwise_stability_profile(graph)
            lo, hi = profile.stability_interval()
            if lo < hi:
                midpoint = (lo + hi) / 2.0 if hi != float("inf") else lo + 1.0
                assert profile.is_stable_at(midpoint)
                assert is_pairwise_stable(graph, midpoint)
            if hi != float("inf"):
                assert not profile.is_stable_at(hi + 1.0)

    def test_violations_messages(self):
        violations = pairwise_stability_profile(path_graph(4)).violations_at(1.0)
        assert violations
        assert any("bilaterally add" in message for message in violations)
        severance = pairwise_stability_profile(complete_graph(4)).violations_at(3.0)
        assert any("severing" in message for message in severance)

    def test_disconnected_graph_has_no_stabilizing_alpha(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert not has_stabilizing_alpha(g)

    def test_petersen_has_stabilizing_alpha(self):
        assert has_stabilizing_alpha(petersen_graph())

    def test_figure1_windows_of_petersen_and_hoffman_singleton(self):
        assert pairwise_stability_interval(petersen_graph()) == (1.0, 5.0)
        graph = hoffman_singleton_graph()
        lo, hi = pairwise_stability_interval(graph)
        assert lo < hi
        assert is_pairwise_stable(graph, (lo + hi) / 2.0)

    def test_edgeless_graph_boundary_conventions(self):
        # Two isolated vertices: adding the single missing link brings the
        # distance from infinity to 1, an infinite saving.
        two = pairwise_stability_profile(Graph(2))
        assert two.alpha_max == float("inf")
        assert two.alpha_min == float("inf")
        # Three isolated vertices: adding any one link still leaves a third
        # vertex unreachable, so under the ∞ - ∞ = 0 convention the measured
        # saving is zero.
        three = pairwise_stability_profile(Graph(3))
        assert three.alpha_max == float("inf")
        assert three.alpha_min == 0.0
