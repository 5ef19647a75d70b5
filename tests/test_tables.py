"""JointTable container and its serialization."""

import json
import sys

import pytest

from colorperm.dist import joint_table
from colorperm.tables import JointTable


def stdlib_json(table):
    counts = {f"{i},{k}": str(count) for (i, k), count in table.items()}
    return json.dumps({"r": table.r, "n": table.n, "counts": counts}, indent=2) + "\n"


# Inputs from_json_obj rejects, each with its error's type and message.
REJECTED = [
    # Once accepted as a table of total 1010: a negative count, then
    # overwritten through a second spelling of the same cell.
    (
        {"0,0": "-5", "+0,0": "7", "1,٠": "٣", " 1 ,1": "1_000"},
        ValueError,
        "'0,0': '-5' not in nonnegative ASCII decimal",
    ),
    ({"0,0": "-5"}, ValueError, "'0,0': '-5' not in nonnegative ASCII decimal"),
    (
        {"0,0": "1", "+0,0": "7"},
        ValueError,
        "'+0,0': '7' not in nonnegative ASCII decimal",
    ),
    ({"00,0": "1"}, ValueError, "'00,0': '1' not in nonnegative ASCII decimal"),
    ({"1,٠": "1"}, ValueError, "'1,٠': '1' not in nonnegative ASCII decimal"),
    ({" 1 ,1": "1"}, ValueError, "' 1 ,1': '1' not in nonnegative ASCII decimal"),
    ({"1": "1"}, ValueError, "'1': '1' not in nonnegative ASCII decimal"),
    ({"0,0,0": "1"}, ValueError, "'0,0,0': '1' not in nonnegative ASCII decimal"),
    ({"-0,0": "1"}, ValueError, "'-0,0': '1' not in nonnegative ASCII decimal"),
    ({"0,0\n": "1"}, ValueError, "'0,0\\n': '1' not in nonnegative ASCII decimal"),
    ({"0,0": "٣"}, ValueError, "'0,0': '٣' not in nonnegative ASCII decimal"),
    ({"0,0": "1_000"}, ValueError, "'0,0': '1_000' not in nonnegative ASCII decimal"),
    ({"0,0": " 1"}, ValueError, "'0,0': ' 1' not in nonnegative ASCII decimal"),
    ({"0,0": "+1"}, ValueError, "'0,0': '+1' not in nonnegative ASCII decimal"),
    ({"0,0": "01"}, ValueError, "'0,0': '01' not in nonnegative ASCII decimal"),
    ({"0,0": ""}, ValueError, "'0,0': '' not in nonnegative ASCII decimal"),
    ({"0,0": 1}, ValueError, "'0,0': 1 not in nonnegative ASCII decimal"),
    ({"0,0": None}, ValueError, "'0,0': None not in nonnegative ASCII decimal"),
    ({"1,1": "1\n2"}, ValueError, "'1,1': '1\\n2' not in nonnegative ASCII decimal"),
    ({"1,1": "5\n"}, ValueError, "'1,1': '5\\n' not in nonnegative ASCII decimal"),
    ({"3,0": "1"}, IndexError, "cell (3, 0) outside box 0..2 x 0..1"),
    ({"0,2": "1"}, IndexError, "cell (0, 2) outside box 0..2 x 0..1"),
    ({"10,10": "1"}, IndexError, "cell (10, 10) outside box 0..2 x 0..1"),
]


def b2_table():
    # Hand-enumerated joint (csum, exc_A) counts for Z_2 wr S_2.
    return JointTable(2, 2, [[1, 1], [3, 1], [2, 0]])


class TestBoxSemantics:
    def test_shape(self):
        table = JointTable(3, 4, [[0] * 4 for _ in range(9)])
        assert table.i_max == 8
        assert table.n == 4

    def test_get_outside_box_is_zero(self):
        table = b2_table()
        assert table.get(-1, 0) == 0
        assert table.get(0, -1) == 0
        assert table.get(3, 0) == 0
        assert table.get(0, 2) == 0

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 1], [3, 1]],  # a row short
            [[1, 1], [3, 1], [2, 0], [0, 0]],  # a row too many
            [[1, 1], [3, 1], [2]],  # a row too narrow
            [[1, 1, 0], [3, 1], [2, 0]],  # a row too wide
        ],
    )
    def test_rows_must_fill_the_box(self, rows):
        with pytest.raises(ValueError, match="fill the box"):
            JointTable(2, 2, rows)

    @pytest.mark.parametrize("cell", [-1, True, 1.0, "1", None])
    def test_cells_are_ints_at_least_zero(self, cell):
        # to_json writes any cell it holds, and from_json_obj reads back
        # only ints >= 0; a table holds nothing else.
        with pytest.raises(ValueError, match="cells must be ints >= 0"):
            JointTable(1, 1, [[cell]])
        with pytest.raises(ValueError, match="cells must be ints >= 0"):
            JointTable(2, 2, [[1, 1], [3, cell], [2, 0]])

    def test_rows_are_copied(self):
        rows = [[1, 1], [3, 1], [2, 0]]
        table = JointTable(2, 2, rows)
        rows[0][0] = 99
        assert table == b2_table()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            JointTable(0, 2, [[0, 0]])
        with pytest.raises(ValueError):
            JointTable(2, 0, [[]])
        with pytest.raises(ValueError):
            JointTable(True, 2, [[0, 0], [0, 0], [0, 0]])

    def test_total_and_d_row(self):
        table = b2_table()
        assert table.total == 8
        assert table.d_row() == [6, 2]

    def test_items_sorted_dense(self):
        keys = [key for key, _ in b2_table().items()]
        assert keys == sorted(keys)
        assert len(keys) == 6

    def test_equality(self):
        assert b2_table() == b2_table()
        assert b2_table() != JointTable(2, 2, [[2, 1], [3, 1], [2, 0]])


class TestSerialization:
    def test_csv_golden(self):
        assert b2_table().to_csv() == "i\\k,0,1\n0,1,1\n1,3,1\n2,2,0\n"

    def test_json_counts_are_decimal_strings(self):
        obj = json.loads(b2_table().to_json())
        assert obj["r"] == 2 and obj["n"] == 2
        assert obj["counts"]["1,0"] == "3"
        assert all(isinstance(v, str) for v in obj["counts"].values())

    def test_json_key_order(self):
        keys = list(json.loads(b2_table().to_json())["counts"])
        assert keys == ["0,0", "0,1", "1,0", "1,1", "2,0", "2,1"]

    @pytest.mark.parametrize("r, n", [(1, 1), (2, 2), (1, 9), (5, 40), (3, 100)])
    def test_json_is_the_stdlib_encoding(self, r, n):
        table = joint_table(r, n)
        assert table.to_json() == stdlib_json(table)

    def test_json_round_trip(self):
        text = b2_table().to_json()
        assert JointTable.from_json_obj(json.loads(text)) == b2_table()

    def test_big_counts_survive_json(self):
        table = JointTable(1, 1, [[10**40 + 1]])
        assert table.to_json() == stdlib_json(table)
        restored = JointTable.from_json_obj(json.loads(table.to_json()))
        assert restored.get(0, 0) == 10**40 + 1

    def test_cells_left_out_of_json_are_zero(self):
        table = JointTable.from_json_obj({"r": 2, "n": 2, "counts": {"1,0": "3"}})
        assert table == JointTable(2, 2, [[0, 0], [3, 0], [0, 0]])
        empty = JointTable.from_json_obj({"r": 2, "n": 2, "counts": {}})
        assert empty == JointTable(2, 2, [[0, 0], [0, 0], [0, 0]])

    def test_reordered_and_sparse_json_read_back(self):
        table = joint_table(3, 12)
        counts = json.loads(table.to_json())["counts"]
        reordered = dict(reversed(list(counts.items())))
        obj = {"r": 3, "n": 12, "counts": reordered}
        assert JointTable.from_json_obj(obj) == table
        sparse = {key: count for key, count in reordered.items() if count != "0"}
        assert len(sparse) < len(counts)
        obj = {"r": 3, "n": 12, "counts": sparse}
        assert JointTable.from_json_obj(obj) == table

    @pytest.mark.parametrize("planted", [False, True], ids=["alone", "in-full-box"])
    @pytest.mark.parametrize("counts, error, message", REJECTED)
    def test_json_accepts_only_what_to_json_writes(
        self, counts, error, message, planted
    ):
        # Alone or planted in an otherwise canonical full box, a bad item
        # raises the same error: the reader checks each item as it reaches
        # it, and the good items raise nothing.
        if planted:
            counts = {**json.loads(b2_table().to_json())["counts"], **counts}
        with pytest.raises(error) as info:
            JointTable.from_json_obj({"r": 2, "n": 2, "counts": counts})
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "counts, error, message",
        [
            (
                {"0,0": "01", "9,9": "1"},
                ValueError,
                "'0,0': '01' not in nonnegative ASCII decimal",
            ),
            (
                {"9,9": "1", "0,0": "01"},
                IndexError,
                "cell (9, 9) outside box 0..2 x 0..1",
            ),
            (
                {"0,0": "1", "0,1": "x", "5,5": "1"},
                ValueError,
                "'0,1': 'x' not in nonnegative ASCII decimal",
            ),
        ],
    )
    def test_first_bad_item_in_dict_order_raises(self, counts, error, message):
        with pytest.raises(error) as info:
            JointTable.from_json_obj({"r": 2, "n": 2, "counts": counts})
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no int/str digit limit",
    )
    def test_count_past_digit_limit_fails_before_later_items(self):
        # int() refuses the first count, before the bad key after it.
        huge = "1" * (sys.get_int_max_str_digits() + 1)
        counts = {"0,0": huge, "9,9": "1"}
        with pytest.raises(ValueError, match="Exceeds the limit"):
            JointTable.from_json_obj({"r": 2, "n": 2, "counts": counts})
