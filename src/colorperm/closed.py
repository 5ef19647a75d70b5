"""Closed forms for the exc_A distribution on Z_r wr S_n.

The generating polynomial D_{r,n}(t) = sum_k d(r, n, k) t^k has the
Stirling expansion

    D_{r,n}(t) = r * sum_{j=1}^{n} j! S(n, j) (t + r - 1)^(j-1) (1 - t)^(n-j)

and its coefficients have an explicit alternating double sum (d_explicit).
Both are computed exactly over the integers.  D_{r,n} also satisfies a
first-order recurrence in n involving the derivative,

    D_{r,n}(t) = (rn + (n-1)(t-1)) D_{r,n-1}(t) - (t-1)(t+r-1) D'_{r,n-1}(t),

verified by check_eq2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, factorial

from .perm import check_params


@cache
def stirling2(n: int, j: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into j blocks.

    Memoized triangle from S(n, j) = j*S(n-1, j) + S(n-1, j-1), S(0, 0) = 1.
    """
    if not (isinstance(n, int) and n >= 0):
        raise ValueError(f"set size n must be an integer >= 0, got {n!r}")
    if not isinstance(j, int):
        raise ValueError(f"block count j must be an integer, got {j!r}")
    if j < 0 or j > n:
        return 0
    if n == 0:
        return 1
    return j * stirling2(n - 1, j) + stirling2(n - 1, j - 1)


class IntPolynomial:
    """A polynomial in one variable t with integer coefficients.

    Coefficients are stored ascending by degree with trailing zeros
    stripped; the zero polynomial has no coefficients.  Arithmetic is
    exact and accepts plain ints as scalars.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} is not an integer")
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    @staticmethod
    def _coerce(other):
        if isinstance(other, IntPolynomial):
            return other
        if isinstance(other, int):
            return IntPolynomial((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not (isinstance(e, int) and e >= 0):
            raise ValueError(f"exponent must be an integer >= 0, got {e!r}")
        out = IntPolynomial((1,))
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

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


#: The variable t as a polynomial.
T = IntPolynomial((0, 1))


def D_closed(r: int, n: int) -> IntPolynomial:
    """Generating polynomial of exc_A over Z_r wr S_n, by the Stirling form."""
    check_params(r, n)
    down_powers = [IntPolynomial((1,))]  # (1 - t)^e for e = 0..n-1
    for _ in range(n - 1):
        down_powers.append(down_powers[-1] * (1 - T))
    total = IntPolynomial()
    up = IntPolynomial((1,))  # (t + r - 1)^(j-1)
    for j in range(1, n + 1):
        total = total + factorial(j) * stirling2(n, j) * up * down_powers[n - j]
        up = up * (T + (r - 1))
    return r * total


def d_explicit(r: int, n: int, k: int) -> int:
    """Coefficient d(r, n, k) of D_{r,n} by the explicit alternating sum.

    The sum has massive cancellation; the result is asserted nonnegative
    before being returned.
    """
    check_params(r, n)
    if not (isinstance(k, int) and 0 <= k <= n - 1):
        raise ValueError(f"k must be an integer in 0..{n - 1}, got {k!r}")
    total = 0
    for j in range(1, n + 1):
        weight = factorial(j) * stirling2(n, j)
        for i in range(j):
            sign = -1 if (k + j - 1 - i) % 2 else 1
            total += sign * r**i * weight * comb(j - 1, i) * comb(n - 1 - i, k)
    total *= r
    if total < 0:
        raise AssertionError(f"d({r}, {n}, {k}) evaluated negative: {total}")
    return total


@dataclass(frozen=True)
class Eq2Report:
    """Outcome of verifying the derivative recurrence for D_{r,n}."""

    r: int
    n_max: int
    passed: bool
    first_failure_n: int | None = None
    detail: str | None = None


def check_eq2(r: int, n_max: int) -> Eq2Report:
    """Verify the derivative recurrence linking D_{r,n} to D_{r,n-1}.

    Checks n = 2..n_max with exact arithmetic and reports the first
    failure, if any.
    """
    check_params(r, n_max)
    prev = D_closed(r, 1)
    for n in range(2, n_max + 1):
        lhs = D_closed(r, n)
        rhs = (r * n + (n - 1) * (T - 1)) * prev - (T - 1) * (T + (r - 1)) * prev.derivative()
        if lhs != rhs:
            return Eq2Report(
                r=r,
                n_max=n_max,
                passed=False,
                first_failure_n=n,
                detail=f"n={n}: closed form {lhs.render()} != recurrence {rhs.render()}",
            )
        prev = lhs
    return Eq2Report(r=r, n_max=n_max, passed=True)
