"""Integration tests: every experiment reproduces its paper claims."""

import pytest

from repro.experiments import (
    ExperimentResult,
    available_experiments,
    run_experiment,
)
from repro.experiments import figure1, figure2, figure3, lemmas, propositions
from repro.experiments.base import ClaimCheck


class TestRegistry:
    def test_expected_ids_registered(self):
        ids = available_experiments()
        for expected in (
            "figure1",
            "figure2",
            "figure3",
            "lemma4",
            "lemma5",
            "lemma6",
            "prop1",
            "prop3",
            "prop4",
            "prop5",
        ):
            assert expected in ids

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("figure99")


class TestResultTypes:
    def test_claim_rendering(self):
        claim = ClaimCheck("d", "e", "o", True)
        assert claim.render().startswith("[PASS]")
        assert ClaimCheck("d", "e", "o", False).render().startswith("[FAIL]")

    def test_experiment_result_render_and_summary(self):
        result = ExperimentResult("x", "Title")
        result.add_claim("a", "b", "c", True)
        result.notes.append("a note")
        result.tables.append("a table")
        text = result.render()
        assert "Title" in text and "a note" in text and "a table" in text
        assert result.summary() == "x: 1/1 claims reproduced"
        assert result.all_passed


class TestFigureExperiments:
    def test_figure1_claims_reproduce(self):
        result = figure1.run(include_hoffman_singleton=False)
        assert result.all_passed
        assert result.tables

    def test_figure2_claims_reproduce_on_default_census(self):
        # n = 6 (the default) is the smallest census on which the paper's
        # high-cost reversal is visible; at n = 5 the two games' stable sets
        # coincide for very expensive links and the gap is exactly zero.
        result = figure2.run()
        assert result.all_passed

    def test_figure3_claims_reproduce_on_default_census(self):
        result = figure3.run()
        assert result.all_passed

    def test_figure2_sampled_at_the_paper_size(self):
        figure = figure2.compute_figure2_sampled(
            n=10, total_edge_costs=[4.0], num_samples=4, seed=3
        )
        assert figure.bcg.points[0].num_equilibria >= 1
        assert figure.ucg.points[0].num_equilibria >= 1

    def test_figure2_compute_returns_aligned_series(self):
        figure = figure2.compute_figure2(n=5, total_edge_costs=[2.0, 8.0])
        assert len(figure.ucg.points) == 2
        assert figure.bcg.points[0].alpha == 1.0


class TestLemmaExperiments:
    def test_lemma4(self):
        assert lemmas.run_lemma4(n=5).all_passed

    def test_lemma5(self):
        assert lemmas.run_lemma5(n=5).all_passed

    def test_lemma6(self):
        result = lemmas.run_lemma6(sizes=(5, 6, 8, 12))
        assert result.all_passed

    def test_merged_runner(self):
        result = lemmas.run(n=5)
        assert result.all_passed
        assert len(result.tables) >= 3


class TestPropositionExperiments:
    def test_prop1(self):
        assert propositions.run_proposition1(n=5, alphas=(0.5, 2.0, 5.0)).all_passed

    def test_prop3(self):
        assert propositions.run_proposition3().all_passed

    def test_prop4(self):
        assert propositions.run_proposition4(n=5, alphas=(1.5, 3.0, 8.0)).all_passed

    def test_prop5(self):
        result = propositions.run_proposition5(max_n=6)
        assert result.all_passed
