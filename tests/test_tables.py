"""JointTable container and its serialization."""

import json

import pytest

from colorperm.tables import JointTable


def b2_table():
    # Hand-enumerated joint (csum, exc_A) counts for Z_2 wr S_2.
    table = JointTable(2, 2)
    for (i, k), count in {(0, 0): 1, (0, 1): 1, (1, 0): 3, (1, 1): 1, (2, 0): 2}.items():
        table.set(i, k, count)
    return table


class TestBoxSemantics:
    def test_shape(self):
        table = JointTable(3, 4)
        assert table.i_max == 8
        assert table.k_max == 3

    def test_get_outside_box_is_zero(self):
        table = b2_table()
        assert table.get(-1, 0) == 0
        assert table.get(0, -1) == 0
        assert table.get(3, 0) == 0
        assert table.get(0, 2) == 0

    def test_set_outside_box_raises(self):
        table = JointTable(2, 2)
        with pytest.raises(IndexError):
            table.set(3, 0, 1)
        with pytest.raises(IndexError):
            table.add(0, 2)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            JointTable(0, 2)
        with pytest.raises(ValueError):
            JointTable(2, 0)
        with pytest.raises(ValueError):
            JointTable(True, 2)

    def test_add_accumulates(self):
        table = JointTable(2, 2)
        table.add(1, 0)
        table.add(1, 0, 2)
        assert table.get(1, 0) == 3

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
        other = b2_table()
        other.add(0, 0)
        assert b2_table() != other


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
        table = JointTable(1, 1)
        table.set(0, 0, 10**40 + 1)
        restored = JointTable.from_json_obj(json.loads(table.to_json()))
        assert restored.get(0, 0) == 10**40 + 1
