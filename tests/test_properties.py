"""The complementing involution and sequence-shape checks."""

import pytest
from hypothesis import given, strategies as st

from colorperm import properties, stats
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


def complement_failures(r, n):
    """The elementwise reference: every element of Z_r wr S_n whose exc
    and its image's exc, each by summarize, do not sum to r*n - 1."""
    return [
        p
        for p in enumerate_group(GroupParams(r, n))
        if summarize(p).exc + summarize(properties.symmetry_map(p)).exc != r * n - 1
    ]


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

    @pytest.mark.parametrize("r, n", [(1, 4), (2, 3), (3, 3), (4, 3), (2, 5)])
    def test_map_follows_the_window_formula(self, r, n):
        # The window formula, written out: values 1..n-1 reversed, the
        # last in place, every value v sent to n+1-v; colors 1..n-1
        # reversed with each c sent to (r-c) mod r, the last c to r-1-c.
        for p in enumerate_group(GroupParams(r, n)):
            values = tuple(n + 1 - v for v in p.values[-2::-1]) + (n + 1 - p.values[-1],)
            colors = tuple((r - c) % r for c in p.colors[-2::-1]) + (r - 1 - p.colors[-1],)
            assert symmetry_map(p) == ColoredPermutation(values, colors, r)

    def test_per_position_data(self):
        assert properties.position_map(4) == (3, 2, 1, 4)
        assert properties.value_map(4) == (4, 3, 2, 1)
        assert [properties.color_map(3, 4, 2, c) for c in range(3)] == [0, 2, 1]
        assert [properties.color_map(3, 4, 4, c) for c in range(3)] == [2, 1, 0]
        # An element of a group with a huge r maps without building
        # anything of size r.
        p = ColoredPermutation((2, 1), (1, 0), r=10**18)
        assert symmetry_map(p) == ColoredPermutation((1, 2), (10**18 - 1,) * 2, r=10**18)

    @pytest.mark.parametrize(
        "r, n", [(1, 4), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (2, 5)]
    )
    def test_exc_complement_exhaustive(self, r, n):
        assert complement_failures(r, n) == []

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

    def test_map_coupling_two_positions_fails_the_reference(self, monkeypatch):
        # Negative control: the image's first two colors swapped whenever
        # the source's first two colors differ.  The checks read only the
        # per-position data, which this fault leaves alone, so they pass;
        # the elementwise reference is what sees it.
        exact = properties.symmetry_map

        def coupled(p):
            q = exact(p)
            if p.colors[0] == p.colors[1]:
                return q
            colors = (q.colors[1], q.colors[0]) + q.colors[2:]
            return ColoredPermutation(q.values, colors, q.r)

        monkeypatch.setattr(properties, "symmetry_map", coupled)
        failures = complement_failures(2, 3)
        assert format_window(failures[0]) == "1,3^1,2"
        assert check_exc_complement(2, 3).passed and check_involution(2, 3).passed


class TestDataChecks:
    def test_complement_verdict_passes(self):
        verdict = check_exc_complement(2, 3)
        assert verdict.passed
        assert verdict.name == "exc_complement"
        assert (verdict.r, verdict.n) == (2, 3)
        assert verdict.counterexample is None

    def test_involution_verdict_passes(self):
        assert check_involution(3, 2).passed

    @pytest.mark.parametrize("r, n", [(1, 40), (2, 40), (5, 12), (3, 60)])
    def test_checks_pass_far_beyond_enumeration(self, r, n):
        assert check_exc_complement(r, n).passed
        assert check_involution(r, n).passed

    def test_position_map_that_is_no_involution_is_named(self, monkeypatch):
        # sigma a 3-cycle of the positions: a permutation, so every image
        # is an element, but applying the map twice moves the letters.
        monkeypatch.setattr(properties, "position_map", lambda n: (2, 3, 1))
        assert check_involution(1, 3).counterexample == (
            "position 1 -> 2 -> 3: 1,2,3 maps twice to 2,3,1"
        )

    def test_last_color_raised_by_one_fails_both_checks(self, monkeypatch):
        # gamma_n(c) = c + 1 at r = 3: still a color, but neither
        # undone by applying it again nor complementing exc.
        exact = properties.color_map
        monkeypatch.setattr(
            properties,
            "color_map",
            lambda r, n, i, c: (c + 1) % r if i == n else exact(r, n, i, c),
        )
        for n in (1, 2, 3):
            assert not check_exc_complement(3, n).passed, n
            assert not check_involution(3, n).passed, n

    def test_involution_names_the_first_element_mapped_twice_elsewhere(
        self, monkeypatch
    ):
        # Positions and values kept, and the last color raised by one.
        monkeypatch.setattr(properties, "position_map", lambda n: tuple(range(1, n + 1)))
        monkeypatch.setattr(properties, "value_map", lambda n: tuple(range(1, n + 1)))
        monkeypatch.setattr(
            properties, "color_map", lambda r, n, i, c: c if i < n else (c + 1) % r
        )
        verdict = check_involution(3, 2)
        assert verdict.counterexample == (
            "position 2 color 0 -> 1 -> 2: 1,2 maps twice to 1,2^2"
        )
        assert check_involution(2, 2).passed

    def test_each_condition_names_a_witness(self, monkeypatch):
        # (a): the colors at the last position kept instead of mapped to
        # r-1-c, so a pair term varies with the color.
        exact = properties.color_map
        monkeypatch.setattr(
            properties, "color_map", lambda r, n, i, c: c if i == n else exact(r, n, i, c)
        )
        assert check_exc_complement(3, 2).counterexample == (
            "position 2 value 1 color 1: 2,1 -> 1,2: exc 3 + 0 != 5"
        )
        # (b): values reversed but not complemented, at r = 1, where no
        # pair term can vary with the color.
        monkeypatch.setattr(properties, "color_map", exact)
        monkeypatch.setattr(properties, "value_map", lambda n: tuple(range(1, n + 1)))
        assert check_exc_complement(1, 3).counterexample == (
            "values 1 and 2 at positions 1 and 3: 2,3,1 -> 3,2,1: exc 2 + 1 != 2"
        )

    def test_a_table_that_disagrees_with_summarize_is_an_assertion(self, monkeypatch):
        # One exceeded count too many at color 1 where position 1 holds
        # value 2: the pair term varies with the color, yet summarize finds
        # both witnesses sound, so no FAIL can name an element.
        build = stats.contributions

        def skewed(r, n):
            table, ascents = build(r, n)
            row = list(table[0][1])
            row[1] += 1
            table[0][1] = tuple(row)
            return table, ascents

        monkeypatch.setattr(stats, "contributions", skewed)
        message = r"^position 1 value 1 color 1, yet 1\^1,2 and 1,2 pass elementwise$"
        with pytest.raises(AssertionError, match=message):
            check_exc_complement(2, 2)
        assert check_involution(2, 2).passed

    def test_an_image_outside_the_group_is_named(self, monkeypatch):
        exact = properties.position_map
        monkeypatch.setattr(
            properties, "position_map", lambda n: exact(n)[:-1] + (n + 1,)
        )
        for check in (check_exc_complement, check_involution):
            assert check(2, 2).counterexample == (
                "position map 1,3 is not a permutation of 1..2: "
                "no image is an element of Z_2 wr S_2"
            )

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
