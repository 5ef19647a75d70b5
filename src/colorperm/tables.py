"""Dense tables of joint (color statistic, excedance) counts.

A JointTable for parameters (r, n) holds one exact integer count per cell
of the box i in 0..(r-1)*n, k in 0..n-1, where k indexes exc_A and i a
color statistic (color sum, or number of nonzero colors, depending on who
built the table).  A table is a value, built whole from its finished
rows; no cell changes afterwards.  Cells outside the box read as 0.

Serialization: CSV is a dense grid with header ``i\\k``; JSON stores every
cell count as a decimal string so that consumers without big integers do
not silently round.
"""

from __future__ import annotations

import json
import re

from .perm import check_params

_CELL = re.compile(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)")
_DECIMAL = re.compile(r"0|[1-9][0-9]*")


class JointTable:
    __slots__ = ("r", "n", "_rows")

    def __init__(self, r: int, n: int, rows):
        check_params(r, n)
        rows = [list(row) for row in rows]
        if len(rows) != (r - 1) * n + 1 or any(len(row) != n for row in rows):
            raise ValueError(f"rows must fill the box: {(r - 1) * n + 1} rows of {n}")
        self.r = r
        self.n = n
        self._rows = rows

    @property
    def i_max(self) -> int:
        return (self.r - 1) * self.n

    def get(self, i: int, k: int) -> int:
        """Count at cell (i, k); 0 outside the box."""
        if 0 <= i <= self.i_max and 0 <= k < self.n:
            return self._rows[i][k]
        return 0

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
        """Inverse of to_json_obj: keys "i,k" and counts in canonical ASCII
        decimal (none negative, one key per cell); cells left out are 0."""
        r, n = obj["r"], obj["n"]
        check_params(r, n)
        rows = [[0] * n for _ in range((r - 1) * n + 1)]
        for key, count in obj["counts"].items():
            cell = _CELL.fullmatch(key)
            decimal = isinstance(count, str) and _DECIMAL.fullmatch(count)
            if not (cell and decimal):
                raise ValueError(f"{key!r}: {count!r} not in nonnegative ASCII decimal")
            i, k = map(int, cell.groups())
            if not (i < len(rows) and k < n):
                raise IndexError(
                    f"cell ({i}, {k}) outside box 0..{len(rows) - 1} x 0..{n - 1}"
                )
            rows[i][k] = int(count)
        return cls(r, n, rows)
