"""Group parameters, letter order, window notation and the extended-alphabet action."""

import pytest
from hypothesis import given, strategies as st

from colorperm.perm import (
    ColoredLetter,
    ColoredPermutation,
    ColorOutOfRangeError,
    DuplicateValueError,
    GroupParams,
    MalformedTokenError,
    ValueOutOfRangeError,
    apply_extended,
    enumerate_group,
    format_window,
    iter_alphabet,
    parse_window,
)


def all_elements(r, n):
    return list(enumerate_group(GroupParams(r, n)))


class TestGroupParams:
    def test_size(self):
        assert GroupParams(1, 3).size == 6
        assert GroupParams(2, 2).size == 8
        assert GroupParams(3, 5).size == 29160
        assert GroupParams(2, 8).size == 10321920

    @pytest.mark.parametrize(
        "r,n", [(0, 2), (-1, 2), (2, 0), (2, -3), (True, 2), (2, True)]
    )
    def test_rejects_bad_params(self, r, n):
        with pytest.raises(ValueError):
            GroupParams(r, n)


class TestLetterOrder:
    def test_order_chain_r3_n2(self):
        chain = ["1^2", "2^2", "1^1", "2^1", "1", "2"]
        letters = list(iter_alphabet(GroupParams(3, 2)))
        assert [str(x) for x in letters] == chain
        for a, b in zip(letters, letters[1:]):
            assert a < b and a <= b and b > a and b >= a
            assert not b < a and a != b

    def test_extremes(self):
        letters = list(iter_alphabet(GroupParams(4, 3)))
        assert min(letters) == ColoredLetter(1, 3)
        assert max(letters) == ColoredLetter(3, 0)

    def test_compare_equal(self):
        a, b = ColoredLetter(2, 1), ColoredLetter(2, 1)
        assert a == b and a <= b and a >= b
        assert not a < b and not a > b

    def test_sorted_matches_compare(self):
        letters = list(iter_alphabet(GroupParams(3, 3)))
        shuffled = letters[::-1]
        assert sorted(shuffled) == letters


class TestParseFormat:
    def test_parse_window_with_colors(self):
        p = parse_window("3,1^1,2^2", r=3)
        assert p.values == (3, 1, 2)
        assert p.colors == (0, 1, 2)
        assert p.r == 3 and p.n == 3

    def test_format_omits_zero_colors(self):
        p = ColoredPermutation((2, 1), (0, 1), r=2)
        assert format_window(p) == "2,1^1"

    def test_round_trip_whitespace(self):
        p = parse_window(" 2 , 1^1 ", r=2)
        assert format_window(p) == "2,1^1"

    @pytest.mark.parametrize(
        "text",
        # The last four are a non-ASCII digit and non-canonical numbers.
        ["", "x", "1,", "^1", "1^", "1^^1", "1.5,2", "1 2", "\u0663,1,2", "1^01,2", "01,2", "2,1^00"],
    )
    def test_malformed_tokens(self, text):
        with pytest.raises(MalformedTokenError):
            parse_window(text, r=2)

    def test_malformed_token_position(self):
        with pytest.raises(MalformedTokenError) as info:
            parse_window("2,1,oops", r=2)
        assert info.value.token_index == 3

    @pytest.mark.parametrize("text", ["0,1", "1,3", "4", "2,3"])
    def test_value_out_of_range(self, text):
        with pytest.raises(ValueOutOfRangeError):
            parse_window(text, r=2)

    def test_color_out_of_range(self):
        with pytest.raises(ColorOutOfRangeError) as info:
            parse_window("1^2,2", r=2)
        assert info.value.token_index == 1
        parse_window("1^2,2", r=3)  # same text is fine with more colors

    def test_duplicate_value(self):
        with pytest.raises(DuplicateValueError) as info:
            parse_window("2,2", r=2)
        assert info.value.token_index == 2

    def test_errors_are_window_parse_errors(self):
        for exc_type in (
            MalformedTokenError,
            ValueOutOfRangeError,
            ColorOutOfRangeError,
            DuplicateValueError,
        ):
            assert issubclass(exc_type, ValueError)

    def test_round_trip_everything_in_small_groups(self):
        for r, n in [(1, 3), (2, 3), (3, 2)]:
            for p in all_elements(r, n):
                assert parse_window(format_window(p), r) == p

    @given(st.data())
    def test_round_trip_random_windows(self, data):
        r = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(1, 8))
        values = data.draw(st.permutations(list(range(1, n + 1))))
        colors = data.draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
        p = ColoredPermutation(values, colors, r)
        assert parse_window(format_window(p), r) == p


class TestConstructor:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            ColoredPermutation((1, 1), (0, 0), r=2)
        with pytest.raises(ValueError):
            ColoredPermutation((1, 3), (0, 0), r=2)

    def test_rejects_bad_colors(self):
        with pytest.raises(ValueError):
            ColoredPermutation((1, 2), (0, 2), r=2)
        with pytest.raises(ValueError):
            ColoredPermutation((1, 2), (0,), r=2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ColoredPermutation((), (), r=2)


class TestExtendedAction:
    def test_worked_example_full_row(self):
        # sigma = (3, 1^1, 2^2) in Z_3 wr S_3, images of the alphabet in order.
        p = parse_window("3,1^1,2^2", r=3)
        inputs = ["1^2", "2^2", "3^2", "1^1", "2^1", "3^1", "1", "2", "3"]
        images = ["3^2", "1", "2^1", "3^1", "1^2", "2", "3", "1^1", "2^2"]
        for text_in, text_out in zip(inputs, images):
            value, _, color = text_in.partition("^")
            x = ColoredLetter(int(value), int(color) if color else 0)
            assert str(apply_extended(p, x)) == text_out

    def test_action_is_a_bijection_on_letters(self):
        for p in all_elements(3, 2):
            images = {apply_extended(p, x) for x in iter_alphabet(p.params)}
            assert len(images) == 6

    def test_rejects_foreign_letters(self):
        p = parse_window("2,1", r=2)
        with pytest.raises(ValueError):
            apply_extended(p, ColoredLetter(3, 0))
        with pytest.raises(ValueError):
            apply_extended(p, ColoredLetter(1, 2))

    def test_color_equivariance(self):
        # Raising the input color raises the output color, cyclically.
        for p in all_elements(3, 2):
            for x in iter_alphabet(p.params):
                y = apply_extended(p, x)
                x_up = ColoredLetter(x.value, (x.color + 1) % 3)
                y_up = apply_extended(p, x_up)
                assert y_up.value == y.value
                assert y_up.color == (y.color + 1) % 3


class TestEnumeration:
    def test_sizes(self):
        for r, n in [(1, 4), (2, 3), (3, 2), (4, 1)]:
            elements = all_elements(r, n)
            assert len(elements) == GroupParams(r, n).size
            assert len(set(elements)) == len(elements)

    def test_lex_order_b2(self):
        windows = [format_window(p) for p in all_elements(2, 2)]
        assert windows == [
            "1,2",
            "1,2^1",
            "1^1,2",
            "1^1,2^1",
            "2,1",
            "2,1^1",
            "2^1,1",
            "2^1,1^1",
        ]

    def test_slices_partition_the_group(self):
        params = GroupParams(3, 3)
        whole = list(enumerate_group(params))
        concatenated = []
        for first in range(1, 4):
            concatenated.extend(enumerate_group(params, first_value=first))
        assert concatenated == whole

    def test_bad_first_value(self):
        with pytest.raises(ValueError):
            list(enumerate_group(GroupParams(2, 2), first_value=3))
