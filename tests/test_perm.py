"""Group parameters, letter order, window notation and the extended-alphabet action."""

import itertools

import pytest
from hypothesis import given, strategies as st

from colorperm.perm import (
    ColoredLetter,
    ColoredPermutation,
    GroupParams,
    WindowParseError,
    apply_extended,
    enumerate_group,
    format_window,
    iter_alphabet,
    parse_window,
    value_words,
)
from colorperm.stats import summarize


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
    @pytest.mark.parametrize(
        "r, n, chain",
        [
            (3, 2, "1^2,2^2,1^1,2^1,1,2"),
            (1, 3, "1,2,3"),
            (4, 1, "1^3,1^2,1^1,1"),
        ],
    )
    def test_order_chain_r3_n2(self, r, n, chain):
        letters = list(iter_alphabet(GroupParams(r, n)))
        assert ",".join(map(str, letters)) == chain
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

    def test_letters_are_immutable(self):
        letter = ColoredLetter(1, 0)
        with pytest.raises(AttributeError):
            letter.value = 2
        assert letter == ColoredLetter(1, 0)

    @pytest.mark.parametrize("r", range(1, 6))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_letter_place_in_alphabet(self, r, n):
        # Colors descend block by block, values ascend within a block:
        # j^b is letter (r-1-b)*n + j-1, counted from 0.
        letters = list(iter_alphabet(GroupParams(r, n)))
        assert len(letters) == r * n
        for j in range(1, n + 1):
            for b in range(r):
                assert letters[(r - 1 - b) * n + j - 1] == ColoredLetter(j, b)


class TestParseFormat:
    def test_parse_window_with_colors(self):
        p = parse_window("3,1^1,2^2", r=3)
        assert p.values == (3, 1, 2)
        assert p.colors == (0, 1, 2)
        assert p.r == 3 and p.n == 3

    def test_format_omits_zero_colors(self):
        p = ColoredPermutation((2, 1), (0, 1), r=2)
        assert format_window(p) == "2,1^1"

    def test_elements_are_immutable(self):
        p = parse_window("3,1^1,2^2", r=3)
        kept = {p}
        for field, value in (("values", (1, 2, 3)), ("colors", (0, 0, 0)), ("r", 4)):
            with pytest.raises(AttributeError):
                setattr(p, field, value)
        assert p in kept
        s = summarize(p)
        assert len(s.exc_set) == s.exc == 6

    def test_round_trip_whitespace(self):
        p = parse_window(" 2 , 1^1 ", r=2)
        assert format_window(p) == "2,1^1"

    @pytest.mark.parametrize(
        "text",
        # The last four are a non-ASCII digit and non-canonical numbers.
        ["", "x", "1,", "^1", "1^", "1^^1", "1.5,2", "1 2", "\u0663,1,2", "1^01,2", "01,2", "2,1^00"],
    )
    def test_malformed_tokens(self, text):
        with pytest.raises(WindowParseError, match=r"is not of the form v or v\^c"):
            parse_window(text, r=2)

    def test_malformed_token_position(self):
        with pytest.raises(WindowParseError) as info:
            parse_window("2,1,oops", r=2)
        assert info.value.token_index == 3
        assert str(info.value) == "token 3 ('oops') is not of the form v or v^c"

    @pytest.mark.parametrize(
        "text, index, value, n",
        [("0,1", 1, 0, 2), ("1,3", 2, 3, 2), ("4", 1, 4, 1), ("2,3", 2, 3, 2)],
        ids=["0,1", "1,3", "4", "2,3"],
    )
    def test_value_out_of_range(self, text, index, value, n):
        with pytest.raises(WindowParseError) as info:
            parse_window(text, r=2)
        assert info.value.token_index == index
        assert str(info.value) == f"token {index}: value {value} is not in 1..{n}"

    def test_color_out_of_range(self):
        with pytest.raises(WindowParseError) as info:
            parse_window("1^2,2", r=2)
        assert info.value.token_index == 1
        assert str(info.value) == "token 1: color 2 is not in 0..1"
        parse_window("1^2,2", r=3)  # same text is fine with more colors

    def test_duplicate_value(self):
        with pytest.raises(WindowParseError) as info:
            parse_window("2,2", r=2)
        assert info.value.token_index == 2
        assert str(info.value) == "token 2: value 2 appears more than once"

    @pytest.mark.parametrize(
        "text",
        ["1,1", "1,3", "1,2^2", ""],
        ids=["duplicate", "value-out-of-range", "color-out-of-range", "empty"],
    )
    def test_rejects_non_elements(self, text):
        # parse_window is the one validated entry; the constructor trusts.
        with pytest.raises(WindowParseError):
            parse_window(text, r=2)

    def test_errors_are_window_parse_errors(self):
        assert issubclass(WindowParseError, ValueError)

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
        p = ColoredPermutation(tuple(values), tuple(colors), r)
        assert parse_window(format_window(p), r) == p


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
        with pytest.raises(ValueError):
            apply_extended(p, ColoredLetter(True, 0))
        with pytest.raises(ValueError):
            apply_extended(p, ColoredLetter(1, False))

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
        # Value words of consecutive runs of first values are consecutive
        # blocks of the whole order, so their tasks concatenate to it.
        whole = list(itertools.permutations(range(1, 6)))
        assert list(value_words(5)) == whole
        for runs in ([range(1, 6)], [range(1, 3), range(3, 4), range(4, 6)]):
            assert [w for run in runs for w in value_words(5, run)] == whole
        assert list(value_words(3, range(2, 3))) == [(2, 1, 3), (2, 3, 1)]

    def test_bad_first_value(self):
        for run in (range(3, 4), range(2, 4), range(0, 2)):
            with pytest.raises(ValueError):
                list(value_words(2, run))
