"""Stirling numbers, integer polynomials and the closed forms."""

from fractions import Fraction
from math import factorial

import pytest

from colorperm import closed
from colorperm.closed import (
    D_closed,
    IntPolynomial,
    check_eq2,
    d_explicit,
    stirling2,
)
from colorperm.dist import eulerian_row, excA_dist


def partitions_into_blocks(items, j):
    """All set partitions of items into exactly j nonempty blocks."""
    if not items:
        return [[]] if j == 0 else []
    head, rest = items[0], items[1:]
    out = []
    for partition in partitions_into_blocks(rest, j):
        for b in range(len(partition)):
            out.append(partition[:b] + [partition[b] + [head]] + partition[b + 1 :])
    for partition in partitions_into_blocks(rest, j - 1):
        out.append(partition + [[head]])
    return out


class TestStirling:
    def test_frozen_triangle(self):
        triangle = [
            [1],
            [0, 1],
            [0, 1, 1],
            [0, 1, 3, 1],
            [0, 1, 7, 6, 1],
            [0, 1, 15, 25, 10, 1],
            [0, 1, 31, 90, 65, 15, 1],
        ]
        for n, row in enumerate(triangle):
            assert [stirling2(n, j) for j in range(n + 1)] == row

    def test_against_brute_set_partitions(self):
        for n in range(8):
            for j in range(n + 1):
                assert stirling2(n, j) == len(
                    partitions_into_blocks(list(range(n)), j)
                )

    def test_out_of_triangle(self):
        assert stirling2(3, 5) == 0
        assert stirling2(3, -1) == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)
        with pytest.raises(ValueError):
            stirling2(2, 1.5)


class TestIntPolynomial:
    def test_normalization(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial(()).coeffs == ()
        assert IntPolynomial((0,)).coeffs == ()
        assert IntPolynomial((1, 2, 0)) == IntPolynomial((1, 2))

    def test_degree_and_coeff(self):
        p = IntPolynomial((6, 2))
        assert p.degree == 1
        assert IntPolynomial(()).degree == -1
        assert p.coeff(0) == 6 and p.coeff(1) == 2 and p.coeff(5) == 0

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(ValueError):
            IntPolynomial((1.5,))

    def test_evaluation(self):
        p = IntPolynomial((6, 2))
        assert p(0) == 6
        assert p(1) == 8
        assert p(-2) == 2
        assert IntPolynomial((0, 0, 0, 1))(Fraction(1, 2)) == Fraction(1, 8)

    def test_derivative(self):
        assert IntPolynomial((1, 11, 11, 1)).derivative() == IntPolynomial(
            (11, 22, 3)
        )
        assert IntPolynomial((5,)).derivative() == IntPolynomial(())

    def test_render_golden(self):
        assert IntPolynomial(()).render() == "0"
        assert IntPolynomial((6, 2)).render() == "6 + 2*t"
        assert IntPolynomial((1, 11, 11, 1)).render() == "1 + 11*t + 11*t^2 + t^3"
        assert IntPolynomial((1, -1)).render() == "1 - t"
        assert IntPolynomial((0, 0, -1)).render() == "-t^2"
        assert IntPolynomial((0, 3)).render() == "3*t"


class TestDClosed:
    def test_single_letter(self):
        for r in range(1, 6):
            assert D_closed(r, 1).coeffs == (r,)

    def test_frozen_small(self):
        assert D_closed(2, 2).coeffs == (6, 2)
        assert D_closed(3, 2).coeffs == (15, 3)
        assert D_closed(1, 4).coeffs == (1, 11, 11, 1)

    def test_one_color_is_eulerian(self):
        for n in range(1, 10):
            assert list(D_closed(1, n).coeffs) == eulerian_row(n)

    def test_matches_recursions(self):
        for r in range(1, 5):
            for n in range(1, 11):
                row = excA_dist(r, n)
                assert [D_closed(r, n).coeff(k) for k in range(n)] == row

    def test_degree(self):
        for r in range(1, 5):
            for n in range(1, 9):
                assert D_closed(r, n).degree == n - 1

    def test_mass_at_one(self):
        for r in range(1, 5):
            for n in range(1, 11):
                assert sum(D_closed(r, n).coeffs) == r**n * factorial(n)


class TestDExplicit:
    def test_frozen(self):
        assert [d_explicit(2, 2, k) for k in range(2)] == [6, 2]
        assert [d_explicit(3, 2, k) for k in range(2)] == [15, 3]

    def test_matches_closed_form(self):
        for r in range(1, 5):
            for n in range(1, 11):
                poly = D_closed(r, n)
                for k in range(n):
                    assert d_explicit(r, n, k) == poly.coeff(k)

    def test_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            d_explicit(2, 3, 3)
        with pytest.raises(ValueError):
            d_explicit(2, 3, -1)


class TestEq2:
    def test_holds(self):
        for r in range(1, 5):
            report = check_eq2(r, 10)
            assert report.passed
            assert report.first_failure_n is None

    def test_factor_products(self):
        # Eq. 2's factors (t-1)(t+r-1) = (1-r) + (r-2)t + t^2, the middle
        # sign included, and (rn + (n-1)(t-1)) times a polynomial.
        for r in range(1, 6):
            assert closed._mul([-1, 1], [r - 1, 1]) == [1 - r, r - 2, 1]
        assert closed._mul([4, 1], [6, 2]) == [24, 14, 2]

    def test_report_carries_failure_details(self, monkeypatch):
        exact = closed.D_closed

        def doctored(r, n):
            coeffs = list(exact(r, n).coeffs)
            if n == 3:
                coeffs[1] += 1
            return IntPolynomial(coeffs)

        monkeypatch.setattr(closed, "D_closed", doctored)
        report = check_eq2(2, 6)
        assert report.passed is False
        assert report.first_failure_n == 3
        assert report.detail.startswith("n=3:")
