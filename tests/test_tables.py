"""JointTable container and its serialization."""

import json

import pytest

from colorperm.tables import JointTable


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
        obj = b2_table().to_json_obj()
        assert obj["r"] == 2 and obj["n"] == 2
        assert obj["counts"]["1,0"] == "3"
        assert all(isinstance(v, str) for v in obj["counts"].values())

    def test_json_key_order(self):
        keys = list(b2_table().to_json_obj()["counts"])
        assert keys == ["0,0", "0,1", "1,0", "1,1", "2,0", "2,1"]

    def test_json_round_trip(self):
        text = b2_table().to_json()
        assert JointTable.from_json_obj(json.loads(text)) == b2_table()

    def test_big_counts_survive_json(self):
        table = JointTable(1, 1, [[10**40 + 1]])
        restored = JointTable.from_json_obj(json.loads(table.to_json()))
        assert restored.get(0, 0) == 10**40 + 1

    def test_cells_left_out_of_json_are_zero(self):
        table = JointTable.from_json_obj({"r": 2, "n": 2, "counts": {"1,0": "3"}})
        assert table == JointTable(2, 2, [[0, 0], [3, 0], [0, 0]])

    @pytest.mark.parametrize("key", ["3,0", "0,2", "10,10"])
    def test_json_key_outside_box_raises(self, key):
        with pytest.raises(IndexError, match=r"outside box 0\.\.2 x 0\.\.1"):
            JointTable.from_json_obj({"r": 2, "n": 2, "counts": {key: "1"}})

    @pytest.mark.parametrize(
        "counts",
        [
            # Once accepted as a table of total 1010: a negative count,
            # then overwritten through a second spelling of the same cell.
            {"0,0": "-5", "+0,0": "7", "1,٠": "٣", " 1 ,1": "1_000"},
            {"0,0": "-5"},
            {"0,0": "1", "+0,0": "7"},
            {"00,0": "1"},
            {"1,٠": "1"},
            {" 1 ,1": "1"},
            {"1": "1"},
            {"0,0,0": "1"},
            {"-0,0": "1"},
            {"0,0": "٣"},
            {"0,0": "1_000"},
            {"0,0": " 1"},
            {"0,0": "+1"},
            {"0,0": "01"},
            {"0,0": ""},
            {"0,0": 1},
        ],
    )
    def test_json_accepts_only_what_to_json_writes(self, counts):
        with pytest.raises(ValueError):
            JointTable.from_json_obj({"r": 2, "n": 2, "counts": counts})
