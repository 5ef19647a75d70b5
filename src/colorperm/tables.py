"""Dense tables of joint (color statistic, excedance) counts.

A JointTable for parameters (r, n) holds one exact integer count per cell
of the box i in 0..(r-1)*n, k in 0..n-1, where k indexes exc_A and i a
color statistic (color sum, or number of nonzero colors, depending on who
built the table).  A table is a value, built whole from its finished
rows; no cell changes afterwards.  Cells outside the box read as 0.

Serialization: CSV is a dense grid with header ``i\\k``; JSON stores every
cell count as a decimal string so that consumers without big integers do
not silently round.

The JSON text is exactly what json.dumps(..., indent=2) gives for
{"r": r, "n": n, "counts": {"i,k": str(count), ...}}, with the cells in
row-major order, but it is written without the json module: keys and
counts are ASCII digits and commas, so nothing needs escaping, and each
row is one %-format of a template built from per-k key suffixes.

Reading makes one pass over the items in dict order: it looks each key
up among the box's own keys, checks that its count is a canonical ASCII
decimal string and converts it with int(), so the first offending item
raises the error.
"""

from __future__ import annotations

import re

from .perm import check_params

_CELL = re.compile(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)")
_DECIMAL = re.compile(r"0|[1-9][0-9]*")


def _box_places(height: int, n: int) -> dict[str, int]:
    """Map each canonical key "i,k" of the box to its row-major place i*n + k."""
    ks = [str(k) for k in range(n)]
    places = {}
    for i in range(height):
        places.update(zip(map(f"{i},".__add__, ks), range(i * n, i * n + n)))
    return places


class JointTable:
    __slots__ = ("r", "n", "_rows")

    def __init__(self, r: int, n: int, rows):
        check_params(r, n)
        rows = [list(row) for row in rows]
        if len(rows) != (r - 1) * n + 1 or any(len(row) != n for row in rows):
            raise ValueError(f"rows must fill the box: {(r - 1) * n + 1} rows of {n}")
        if not all(type(count) is int and count >= 0 for row in rows for count in row):
            raise ValueError("cells must be ints >= 0")
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

    def to_json(self) -> str:
        """json.dumps({"r": r, "n": n, "counts": {"i,k": str(count), ...}},
        indent=2) plus a newline, cells in row-major order."""
        suffixes = [f'{k}": "%s' for k in range(self.n)]
        rows = []
        for i, row in enumerate(self._rows):
            head = f'    "{i},'
            rows.append(head + f'",\n{head}'.join(suffixes) % tuple(row))
        return (
            f'{{\n  "r": {self.r},\n  "n": {self.n},\n  "counts": {{\n'
            + '",\n'.join(rows)
            + '"\n  }\n}\n'
        )

    @classmethod
    def from_json_obj(cls, obj: dict) -> "JointTable":
        """Inverse of json.loads(to_json()): keys "i,k" and counts in
        canonical ASCII decimal (none negative, one key per cell); cells
        left out are 0."""
        r, n = obj["r"], obj["n"]
        check_params(r, n)
        height = (r - 1) * n + 1
        places = _box_places(height, n)
        cells = [0] * (height * n)
        for key, count in obj["counts"].items():
            place = places.get(key)
            decimal = isinstance(count, str) and _DECIMAL.fullmatch(count)
            if place is None or not decimal:
                cell = _CELL.fullmatch(key)
                if not (cell and decimal):
                    raise ValueError(
                        f"{key!r}: {count!r} not in nonnegative ASCII decimal"
                    )
                i, k = cell.groups()
                raise IndexError(
                    f"cell ({i}, {k}) outside box 0..{height - 1} x 0..{n - 1}"
                )
            cells[place] = int(count)
        return cls(r, n, [cells[at : at + n] for at in range(0, height * n, n)])
