"""The three statistics and their decomposition identity."""

import pytest
from hypothesis import given, strategies as st

from colorperm.perm import (
    ColoredLetter,
    ColoredPermutation,
    GroupParams,
    enumerate_group,
    parse_window,
)
from colorperm.stats import csum, exc, exc_A, summarize


def letters(*texts):
    out = []
    for text in texts:
        value, _, color = text.partition("^")
        out.append(ColoredLetter(int(value), int(color) if color else 0))
    return frozenset(out)


class TestWorkedExamples:
    def test_three_colors_three_letters(self):
        p = parse_window("3,1^1,2^2", r=3)
        letter_set, count = exc(p)
        assert count == 6
        assert letter_set == letters("1^2", "2^2", "3^2", "1^1", "3^1", "1")
        positions, count_a = exc_A(p)
        assert (positions, count_a) == (frozenset({1}), 1)
        assert csum(p) == 3
        assert 6 == 3 * 1 + 3

    def test_three_colors_four_letters(self):
        p = parse_window("1^1,3^2,4,2^1", r=3)
        assert exc(p)[1] == 7
        assert exc_A(p) == (frozenset({3}), 1)
        assert csum(p) == 4

    def test_identity_scores_zero(self):
        s = summarize(parse_window("1,2,3,4", r=3))
        assert (s.exc, s.exc_A, s.csum) == (0, 0, 0)
        assert s.exc_set == frozenset()
        assert s.exc_A_set == frozenset()


class TestSummarize:
    def test_matches_componentwise_functions(self):
        for r, n in [(1, 4), (2, 3), (3, 2), (3, 3)]:
            for p in enumerate_group(GroupParams(r, n)):
                s = summarize(p)
                assert s.exc == exc(p)[1]
                assert s.exc_A == exc_A(p)[1]
                assert s.csum == csum(p)
                assert s.exc_set == exc(p)[0]
                assert s.exc_A_set == exc_A(p)[0]

    def test_decomposition_identity_holds_componentwise(self):
        # Recompute the identity from the standalone functions, without
        # trusting the assertion inside summarize.
        for r, n in [(2, 3), (3, 3), (4, 2)]:
            for p in enumerate_group(GroupParams(r, n)):
                assert exc(p)[1] == r * exc_A(p)[1] + csum(p)

    @given(st.data())
    def test_decomposition_identity_random(self, data):
        r = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 7))
        values = data.draw(st.permutations(list(range(1, n + 1))))
        colors = data.draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
        p = ColoredPermutation(values, colors, r)
        assert exc(p)[1] == r * exc_A(p)[1] + csum(p)

    def test_bounds_attained(self):
        summaries = [summarize(p) for p in enumerate_group(GroupParams(2, 2))]
        assert max(s.exc for s in summaries) == 2 * 2 - 1
        assert min(s.exc for s in summaries) == 0
        assert max(s.exc_A for s in summaries) == 1
        assert max(s.csum for s in summaries) == 2

    def test_repr_mentions_counts(self):
        s = summarize(parse_window("3,1^1,2^2", r=3))
        assert "exc=6" in repr(s)


class TestStatisticFacts:
    def test_uncolored_exc_equals_exc_A_plus_last_position_check(self):
        # With one color the alphabet is plain 1..n and exc = exc_A.
        for p in enumerate_group(GroupParams(1, 4)):
            assert exc(p)[1] == exc_A(p)[1]
            assert csum(p) == 0

    def test_csum_counts_negatives_for_two_colors(self):
        for p in enumerate_group(GroupParams(2, 3)):
            assert csum(p) == sum(1 for c in p.colors if c)

    def test_exc_A_ignores_colored_positions(self):
        p = parse_window("3^1,1,2", r=2)  # tau(1)=3 exceeds 1, but colored
        assert exc_A(p) == (frozenset(), 0)

    def test_exc_A_excludes_last_position(self):
        for p in enumerate_group(GroupParams(2, 3)):
            assert 3 not in exc_A(p)[0]

    def test_max_exc_element(self):
        # All letters except the largest are excedance letters for some
        # element; the maximum exc over the group is r*n - 1.
        p = parse_window("2,3,1^1", r=2)
        s = summarize(p)
        assert s.exc == 5
        assert ColoredLetter(3, 0) not in s.exc_set
        assert len(s.exc_set) == 5
