"""Tests for the Table-1 closed-form complexity predictions."""

import pytest

from repro.analysis import (
    dolev_listing_clique,
    naive_two_hop_upper,
    pandurangan_listing_clique_lower,
    predicted_round_complexities,
    table1_rows,
    this_paper_finding_congest,
    this_paper_listing_congest,
    this_paper_listing_lower,
)


class TestRows:
    def test_all_paper_rows_present(self):
        keys = {row.key for row in table1_rows()}
        assert {
            "dolev-listing-clique",
            "censor-hillel-finding-clique",
            "theorem1-finding-congest",
            "theorem2-listing-congest",
            "drucker-finding-broadcast-lower",
            "pandurangan-listing-clique-lower",
            "theorem3-listing-lower",
            "naive-two-hop",
        } <= keys

    def test_implemented_flags(self):
        by_key = {row.key: row for row in table1_rows()}
        assert not by_key["censor-hillel-finding-clique"].implemented
        assert not by_key["drucker-finding-broadcast-lower"].implemented
        assert by_key["theorem2-listing-congest"].implemented
        theorem1 = by_key["theorem1-finding-congest"]
        assert theorem1.implemented
        assert (theorem1.problem, theorem1.model) == ("finding", "CONGEST")

    def test_predicted_round_complexities_mapping(self):
        predictions = predicted_round_complexities(256)
        assert set(predictions) == {row.key for row in table1_rows()}
        assert all(value > 0 for value in predictions.values())


class TestFormulas:
    def test_exact_values_at_powers_of_two(self):
        # n = 4096: log2 n = 12.
        assert dolev_listing_clique(4096) == pytest.approx(16 * 12 ** (2 / 3))
        assert this_paper_finding_congest(4096) == pytest.approx(256 * 12 ** (2 / 3))
        assert this_paper_listing_congest(4096) == pytest.approx(512 * 12)
        assert this_paper_listing_lower(4096) == pytest.approx(16 / 12)

    def test_naive_uses_max_degree_when_given(self):
        assert naive_two_hop_upper(100, max_degree=12) == 12.0
        assert naive_two_hop_upper(100) == 100.0

    def test_table1_orderings_hold_asymptotically(self):
        # The qualitative story of Table 1 at a comfortably large n:
        n = 10**6
        values = predicted_round_complexities(n)
        # The clique listing algorithm beats both CONGEST algorithms.
        assert values["dolev-listing-clique"] < values["theorem1-finding-congest"]
        assert values["dolev-listing-clique"] < values["theorem2-listing-congest"]
        # Finding is cheaper than listing in CONGEST.
        assert values["theorem1-finding-congest"] < values["theorem2-listing-congest"]
        # Both new upper bounds are sublinear, the naive baseline is not.
        assert values["theorem1-finding-congest"] < values["naive-two-hop"]
        assert values["theorem2-listing-congest"] < values["naive-two-hop"]
        # The Theorem-3 lower bound sits below the Dolev upper bound (tight
        # up to polylog factors) and above the older Pandurangan et al. bound.
        assert values["theorem3-listing-lower"] < values["dolev-listing-clique"]
        assert values["theorem3-listing-lower"] > values["pandurangan-listing-clique-lower"]

    def test_theorem3_improves_on_pandurangan_for_all_sizes(self):
        for n in (10**3, 10**4, 10**6, 10**9):
            assert this_paper_listing_lower(n) > pandurangan_listing_clique_lower(n)
