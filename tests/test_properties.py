"""The complementing involution and sequence-shape checks."""

import pytest
from hypothesis import given, strategies as st

from colorperm import properties
from colorperm.perm import (
    ColoredPermutation,
    GroupParams,
    enumerate_group,
    format_window,
    parse_window,
)
from colorperm.properties import (
    PropertyVerdict,
    check_exc_complement,
    check_involution,
    check_symmetry_dist,
    is_log_concave,
    is_unimodal,
    symmetry_map,
)
from colorperm.stats import summarize


class TestSymmetryMap:
    def test_worked_example(self):
        p = parse_window("2^1,1^2,4^1,3", r=3)
        q = symmetry_map(p)
        assert format_window(q) == "1^2,4^1,3^2,2^2"
        assert summarize(p).exc == 4
        assert summarize(q).exc == 7
        assert 4 + 7 == 3 * 4 - 1

    def test_single_letter(self):
        # Position n maps color b to r-1-b; with n = 1 that is the whole map.
        for b, expected in [(0, "1^2"), (1, "1^1"), (2, "1")]:
            p = ColoredPermutation((1,), (b,), r=3)
            assert format_window(symmetry_map(p)) == expected

    def test_exc_complement_exhaustive(self):
        for r, n in [(1, 4), (2, 3), (2, 4), (3, 2), (3, 3)]:
            target = r * n - 1
            for p in enumerate_group(GroupParams(r, n)):
                assert summarize(p).exc + summarize(symmetry_map(p)).exc == target

    def test_involution_exhaustive(self):
        for r, n in [(1, 4), (2, 3), (3, 3), (4, 2)]:
            for p in enumerate_group(GroupParams(r, n)):
                assert symmetry_map(symmetry_map(p)) == p

    @given(st.data())
    def test_involution_random(self, data):
        r = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(1, 8))
        values = data.draw(st.permutations(list(range(1, n + 1))))
        colors = data.draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
        p = ColoredPermutation(tuple(values), tuple(colors), r)
        assert symmetry_map(symmetry_map(p)) == p
        assert summarize(p).exc + summarize(symmetry_map(p)).exc == r * n - 1


class TestElementwiseChecks:
    def test_complement_verdict_passes(self):
        verdict = check_exc_complement(2, 3)
        assert verdict.passed
        assert verdict.name == "exc_complement"
        assert (verdict.r, verdict.n) == (2, 3)
        assert verdict.counterexample is None

    def test_involution_verdict_passes(self):
        assert check_involution(3, 2).passed

    @pytest.mark.parametrize("r, n", [(1, 5), (2, 4), (3, 3), (4, 3)])
    def test_exc_rows_follow_enumeration_order(self, r, n):
        # The outer sum over positions must list exc in enumerate_group
        # order, so that a rank indexes the right element.
        expected = [summarize(p).exc for p in enumerate_group(GroupParams(r, n))]
        assert list(properties._exc_by_rank(r, n)) == expected

    @pytest.mark.parametrize(
        "r, n", [(1, 4), (2, 3), (3, 2), (1, 5), (2, 5), (3, 4), (4, 3)]
    )
    def test_ranks_follow_enumeration_order(self, r, n):
        elements = list(enumerate_group(GroupParams(r, n)))
        rank = {p: k for k, p in enumerate(elements)}
        images = list(properties.image_ranks(r, n))
        assert images == [rank[symmetry_map(p)] for p in elements]

    @pytest.mark.parametrize("r, n", [(1, 4), (2, 3), (3, 2)])
    def test_element_at_each_rank(self, r, n):
        elements = list(enumerate_group(GroupParams(r, n)))
        assert [properties._element(r, n, k) for k in range(len(elements))] == elements

    def test_involution_names_the_first_element_mapped_twice_elsewhere(
        self, monkeypatch
    ):
        # The last color raised by one, everything else kept.
        monkeypatch.setattr(properties, "value_half", lambda values: values)
        monkeypatch.setattr(
            properties, "color_half",
            lambda colors, r: colors[:-1] + ((colors[-1] + 1) % r,),
        )
        verdict = check_involution(3, 2)
        assert verdict.counterexample == "1,2 maps twice to 1,2^2"
        assert check_involution(2, 2).passed

    def test_a_corrupt_rank_is_found_past_the_whole_array_comparison(self):
        # The last element of Z_3 wr S_4 sent to rank 0 instead of its
        # image 3^1,2^1,1^1,4: the complement fails at the last element
        # itself, and the involution first at the element mapped there.
        images = properties.image_ranks(3, 4)
        images[-1] = 0
        complement = check_exc_complement(3, 4, images=images)
        assert complement.counterexample == (
            "4^2,3^2,2^2,1^2 -> 3^1,2^1,1^1,4: exc 8 + 0 != 11"
        )
        involution = check_involution(3, 4, images=images)
        assert involution.counterexample == (
            "3^1,2^1,1^1,4 maps twice to 3^1,2^1,1^1,4"
        )

    def test_a_corrupt_exc_is_found_past_the_whole_array_comparison(
        self, monkeypatch
    ):
        # exc of the last element raised by one: the first element whose
        # pair sums wrong is its image, 3^1,2^1,1^1,4.
        exact = properties._exc_by_rank

        def raised(r, n):
            excs = exact(r, n)
            excs[-1] += 1
            return excs

        monkeypatch.setattr(properties, "_exc_by_rank", raised)
        assert check_exc_complement(3, 4).counterexample == (
            "3^1,2^1,1^1,4 -> 4^2,3^2,2^2,1^2: exc 3 + 9 != 11"
        )
        assert check_involution(3, 4).passed

    @pytest.mark.parametrize("check", [check_exc_complement, check_involution])
    def test_given_ranks_serve_the_check(self, check):
        assert check(2, 3, images=properties.image_ranks(2, 3)).passed

    @pytest.mark.parametrize("check", [check_exc_complement, check_involution])
    @pytest.mark.parametrize("r, n", [(0, 2), (2, 0), (True, 2)])
    def test_bad_parameters_are_errors(self, check, r, n):
        with pytest.raises(ValueError):
            check(r, n)


class TestSymmetryDist:
    def test_palindrome_passes(self):
        assert check_symmetry_dist([1, 3, 3, 1], 2, 2).passed
        assert check_symmetry_dist([1, 3, 5, 5, 3, 1], 3, 2).passed

    def test_palindrome_fails_with_counterexample(self):
        verdict = check_symmetry_dist([1, 2, 2, 2])
        assert not verdict.passed
        assert "k=0" in verdict.counterexample

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            check_symmetry_dist([1, 2, 1], 2, 2)


class TestShapeChecks:
    def test_log_concave_passes(self):
        assert is_log_concave([1, 3, 3, 1]).passed
        assert is_log_concave([6, 2]).passed
        assert is_log_concave([]).passed
        assert is_log_concave([1, 0, 0, 1]).passed  # zero middle is fine

    def test_log_concave_fails(self):
        verdict = is_log_concave([1, 1, 3])
        assert not verdict.passed
        assert "k=1" in verdict.counterexample
        assert not is_log_concave([1, 0, 1]).passed

    def test_unimodal_passes(self):
        for row in ([1, 3, 3, 1], [1, 2, 3], [3, 2, 1], [2, 2, 2], [5]):
            assert is_unimodal(row).passed

    def test_unimodal_fails(self):
        verdict = is_unimodal([1, 3, 1, 2])
        assert not verdict.passed
        assert "k=2" in verdict.counterexample

    def test_verdict_json_shape(self):
        obj = is_log_concave([1, 1, 3], r=2, n=3).to_json_obj()
        assert list(obj) == ["property", "r", "n", "pass", "counterexample"]
        assert obj["pass"] is False
        passing = PropertyVerdict("x").to_json_obj()
        assert list(passing) == ["property", "r", "n", "pass"]
        assert passing["r"] is None and passing["pass"] is True

    def test_pass_state_comes_from_the_counterexample_alone(self):
        # A bare AssertionError's message is "", and that is still a FAIL.
        empty = PropertyVerdict("x", 1, 2, "")
        assert empty.passed is False
        assert empty.to_json_obj()["counterexample"] == ""
        with pytest.raises(TypeError):
            PropertyVerdict("x", passed=True)
