"""Closed forms for the exc_A distribution on Z_r wr S_n.

The generating polynomial D_{r,n}(t) = sum_k d(r, n, k) t^k has the
Stirling expansion

    D_{r,n}(t) = r * sum_{j=1}^{n} j! S(n, j) (t + r - 1)^(j-1) (1 - t)^(n-j)

and its coefficients have an explicit alternating double sum (d_explicit).
Both are computed exactly over the integers, in O(n^2) coefficient
operations per polynomial or per row of coefficients.

D_closed evaluates the expansion by Horner's rule in (t + r - 1): with
w_j = r j! S(n, j), start from H = w_n and set
H <- H (t + r - 1) + w_j (1 - t)^(n-j) for j = n-1 down to 1, carrying
(1 - t)^(n-j) along one factor at a time.

d_explicit sums the alternating double sum over j first; that inner sum
depends on the Stirling row of n only, not on r or k:

    A_i = sum_{j>i} (-1)^j j! S(n, j) C(j-1, i),
    d(r, n, k) = r * sum_i (-1)^(k-1-i) r^i A_i C(n-1-i, k),

so a coefficient costs O(n) once the row A of n is known.  The two routes
share only the Stirling row S(n, 0..n) from stirling_row.  It and A
(_alternants) each keep their last four rows, keyed by n and by the
row's values, so a whole d_explicit row over k builds each of them once.

D_{r,n} also satisfies a first-order recurrence in n involving the
derivative,

    D_{r,n}(t) = (rn + (n-1)(t-1)) D_{r,n-1}(t) - (t-1)(t+r-1) D'_{r,n-1}(t),

verified by check_eq2.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import factorial
from typing import NamedTuple

from .perm import check_int, check_params


@lru_cache(maxsize=4)
def stirling_row(n: int) -> tuple[int, ...]:
    """Stirling numbers of the second kind S(n, 0..n): set partitions into j blocks.

    Built row by row from S(0, 0) = 1 by S(m, j) = j*S(m-1, j) + S(m-1, j-1).
    """
    check_int("set size n", n, 0)
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [j * a + b for j, a, b in zip(range(1, m), row[1:], row)] + [1]
    return tuple(row)


class IntPolynomial:
    """A polynomial in one variable t with integer coefficients.

    The result type of the closed forms.  Coefficients are stored
    ascending by degree with trailing zeros stripped; the zero polynomial
    has no coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        for c in coeffs:
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} is not an integer")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int and Fraction inputs."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(
            tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1)
        )

    def render(self) -> str:
        """Human-readable form like ``1 + 11*t + 11*t^2 + t^3``."""
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
                continue
            power = "t" if k == 1 else f"t^{k}"
            if c == 1:
                terms.append(power)
            elif c == -1:
                terms.append(f"-{power}")
            else:
                terms.append(f"{c}*{power}")
        return " + ".join(terms).replace(" + -", " - ")

    def __repr__(self):
        return f"IntPolynomial({self.coeffs!r})"

    def __str__(self):
        return self.render()


def _mul(a, b) -> list[int]:
    """Product of two coefficient lists, both ascending by degree."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def D_closed(r: int, n: int) -> IntPolynomial:
    """Generating polynomial of exc_A over Z_r wr S_n, by the Stirling form.

    Horner's rule in (t + r - 1), from j = n down to 1.
    """
    check_params(r, n)
    row = stirling_row(n)
    horner = [r * factorial(n) * row[n]]
    down = [1]  # (1 - t)^(n-j)
    for j in range(n - 1, 0, -1):
        down = [a - b for a, b in zip(down + [0], [0] + down)]
        weight = r * factorial(j) * row[j]
        # horner <- horner * (t + r - 1) + weight * (1 - t)^(n-j)
        horner = [
            (r - 1) * a + b + weight * c
            for a, b, c in zip(horner + [0], [0] + horner, down)
        ]
    return IntPolynomial(horner)


@lru_cache(maxsize=4)
def _alternants(row: tuple[int, ...]) -> tuple[int, ...]:
    """A_i = sum_{j>i} (-1)^j j! S(n, j) C(j-1, i) for i = 0..n-1.

    A_i is the coefficient of x^i in sum_j (-1)^j j! S(n, j) (1 + x)^(j-1),
    evaluated by Horner's rule in (1 + x), so the binomials come from
    Pascal's rule: additions only.  ``row`` is stirling_row(n).
    """
    n = len(row) - 1
    signed = [(-1 if j % 2 else 1) * factorial(j) * row[j] for j in range(n + 1)]
    horner = [signed[n]]
    for j in range(n - 1, 0, -1):
        # horner <- horner * (1 + x) + signed[j]
        horner = [a + b for a, b in zip(horner + [0], [0] + horner)]
        horner[0] += signed[j]
    return tuple(horner)


def d_explicit(r: int, n: int, k: int) -> int:
    """Coefficient d(r, n, k) of D_{r,n} by the explicit alternating sum.

    The double sum over j and i, regrouped by i:
    d(r, n, k) = r * sum_i (-1)^(k-1-i) r^i A_i C(n-1-i, k),
    summed from i = n-1-k down to 0 so that C(m, k), m = n-1-i, steps
    from C(k, k) = 1 by C(m+1, k) = C(m, k) (m+1) / (m+1-k), an exact
    integer division.  A comes from _alternants(stirling_row(n)).  The sum
    has massive cancellation; the result is asserted nonnegative before
    being returned.
    """
    check_params(r, n)
    check_int("k", k, 0, n - 1)
    alternants = _alternants(stirling_row(n))
    total = 0
    binomial = 1  # C(n-1-i, k)
    power = r ** (n - k)  # r^(i+1)
    for i in range(n - 1 - k, -1, -1):  # C(n-1-i, k) = 0 beyond
        term = alternants[i] * (power * binomial)
        total += -term if (k - 1 - i) % 2 else term
        m = n - 1 - i
        binomial = binomial * (m + 1) // (m + 1 - k)
        power //= r
    if total < 0:
        raise AssertionError(f"d({r}, {n}, {k}) evaluated negative: {total}")
    return total


class Eq2Report(NamedTuple):
    """Outcome of verifying the derivative recurrence for D_{r,n}.

    It passes exactly when there is no failure detail.
    """

    r: int
    n_max: int
    first_failure_n: int | None = None
    detail: str | None = None

    @property
    def passed(self) -> bool:
        return self.detail is None


def check_eq2(r: int, n_max: int) -> Eq2Report:
    """Verify the derivative recurrence linking D_{r,n} to D_{r,n-1}.

    Checks n = 2..n_max with exact arithmetic and reports the first
    failure, if any.  An n_max below 2 leaves no n to check and raises
    ValueError, as a bad r does.
    """
    check_params(r)
    check_int("n_max", n_max, 2)
    t_minus_1 = [-1, 1]
    quadratic = _mul(t_minus_1, [r - 1, 1])  # (t-1)(t+r-1)
    prev = D_closed(r, 1)
    for n in range(2, n_max + 1):
        lhs = D_closed(r, n)
        linear = _mul([n - 1], t_minus_1)  # rn + (n-1)(t-1)
        linear[0] += r * n
        plus = _mul(linear, prev.coeffs)
        minus = _mul(quadratic, prev.derivative().coeffs)
        rhs = IntPolynomial(
            a - b for a, b in zip_longest(plus, minus, fillvalue=0)
        )
        if lhs != rhs:
            detail = f"n={n}: closed form {lhs.render()} != recurrence {rhs.render()}"
            return Eq2Report(r, n_max, n, detail)
        prev = lhs
    return Eq2Report(r, n_max)
