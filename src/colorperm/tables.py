"""Dense tables of joint (color statistic, excedance) counts.

A JointTable for parameters (r, n) holds one exact integer count per cell
of the box i in 0..(r-1)*n, k in 0..n-1, where k indexes exc_A and i a
color statistic (color sum, or number of nonzero colors, depending on who
filled the table).  Cells outside the box read as 0.

Serialization: CSV is a dense grid with header ``i\\k``; JSON stores every
cell count as a decimal string so that consumers without big integers do
not silently round.
"""

from __future__ import annotations

import json

from .perm import check_params


class JointTable:
    __slots__ = ("r", "n", "_rows")

    def __init__(self, r: int, n: int):
        check_params(r, n)
        self.r = r
        self.n = n
        self._rows = [[0] * n for _ in range((r - 1) * n + 1)]

    @property
    def i_max(self) -> int:
        return (self.r - 1) * self.n

    @property
    def k_max(self) -> int:
        return self.n - 1

    def _check_bounds(self, i: int, k: int):
        if not (0 <= i <= self.i_max and 0 <= k <= self.k_max):
            raise IndexError(
                f"cell ({i}, {k}) outside box 0..{self.i_max} x 0..{self.k_max}"
            )

    def get(self, i: int, k: int) -> int:
        """Count at cell (i, k); 0 outside the box."""
        if 0 <= i <= self.i_max and 0 <= k <= self.k_max:
            return self._rows[i][k]
        return 0

    def set(self, i: int, k: int, count: int):
        self._check_bounds(i, k)
        self._rows[i][k] = count

    def add(self, i: int, k: int, count: int = 1):
        self._check_bounds(i, k)
        self._rows[i][k] += count

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self._rows)

    def d_row(self) -> list[int]:
        """Column sums: the distribution over k with i summed out."""
        return [sum(row[k] for row in self._rows) for k in range(self.n)]

    def items(self):
        """Yield ((i, k), count) for every cell of the box, sorted."""
        for i, row in enumerate(self._rows):
            for k, count in enumerate(row):
                yield (i, k), count

    def __eq__(self, other):
        if not isinstance(other, JointTable):
            return NotImplemented
        return self.r == other.r and self.n == other.n and self._rows == other._rows

    def __repr__(self):
        return f"JointTable(r={self.r}, n={self.n}, total={self.total})"

    def to_csv(self) -> str:
        header = "i\\k," + ",".join(str(k) for k in range(self.n))
        lines = [header]
        for i, row in enumerate(self._rows):
            lines.append(str(i) + "," + ",".join(str(c) for c in row))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        counts = {}
        for (i, k), count in self.items():
            counts[f"{i},{k}"] = str(count)
        return {"r": self.r, "n": self.n, "counts": counts}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "JointTable":
        table = cls(obj["r"], obj["n"])
        for key, count in obj["counts"].items():
            i, k = (int(part) for part in key.split(","))
            table.set(i, k, int(count))
        return table
