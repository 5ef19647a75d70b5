"""Stirling numbers, integer polynomials and the closed forms."""

import ast
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from colorperm import closed
from colorperm.closed import (
    D_closed,
    IntPolynomial,
    check_eq2,
    d_explicit,
    stirling_row,
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
            (1,),
            (0, 1),
            (0, 1, 1),
            (0, 1, 3, 1),
            (0, 1, 7, 6, 1),
            (0, 1, 15, 25, 10, 1),
            (0, 1, 31, 90, 65, 15, 1),
        ]
        for n, row in enumerate(triangle):
            assert stirling_row(n) == row

    def test_against_brute_set_partitions(self):
        for n in range(8):
            row = stirling_row(n)
            for j in range(n + 1):
                assert row[j] == len(partitions_into_blocks(list(range(n)), j))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            stirling_row(-1)
        with pytest.raises(ValueError):
            stirling_row(2.5)
        stirling_row(1)  # a cached row for 1 must not answer for True
        with pytest.raises(ValueError):
            stirling_row(True)

    def test_cold_row_at_large_n(self):
        # S(n, 2) = 2^(n-1) - 1; a cold row is a loop, not n-deep recursion.
        stirling_row.cache_clear()
        row = stirling_row(600)
        assert len(row) == 601 and row[600] == 1
        assert row[2] == 2**599 - 1

    def test_d_explicit_row_builds_the_stirling_row_once(self):
        stirling_row.cache_clear()
        [d_explicit(3, 30, k) for k in range(30)]
        assert stirling_row.cache_info().misses == 1

    def test_d_explicit_row_builds_the_alternants_once(self):
        closed._alternants.cache_clear()
        [d_explicit(3, 30, k) for k in range(30)]
        assert closed._alternants.cache_info().misses == 1

    def test_closed_has_no_unbounded_cache_and_no_recursion(self):
        tree = ast.parse(Path(closed.__file__).read_text())
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            assert "cache" not in (name, getattr(node, "name", None)), ast.unparse(node)
            # Caches are keyed by value: an id() key outlives its object.
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "id", ast.unparse(node)
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
                "lru_cache"
            ):
                sizes = node.args[:1] + [
                    kw.value for kw in node.keywords if kw.arg == "maxsize"
                ]
                assert all(
                    isinstance(size, ast.Constant) and type(size.value) is int
                    for size in sizes
                ), ast.unparse(node)
            if isinstance(node, ast.FunctionDef):
                called = {
                    inner.func.id
                    for inner in ast.walk(node)
                    if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)
                }
                assert node.name not in called, f"{node.name} calls itself"


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
        with pytest.raises(ValueError):
            IntPolynomial((True, 2))
        with pytest.raises(ValueError):
            IntPolynomial((1, 0.0))

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

    def test_repr_and_str(self):
        assert repr(D_closed(2, 2)) == "IntPolynomial((6, 2))"
        assert str(D_closed(2, 2)) == "6 + 2*t"

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

    def test_matches_recursions_at_large_n(self):
        assert list(D_closed(3, 200).coeffs) == excA_dist(3, 200)


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

    @pytest.mark.parametrize("r, n", [(3, 100), (5, 40)])
    def test_full_row_at_large_n(self, r, n):
        # (3, 100) is where a float sign from (-1) ** m with m < 0 showed.
        assert [d_explicit(r, n, k) for k in range(n)] == excA_dist(r, n)

    @pytest.mark.parametrize("n", [1, 2, 5, 13])
    def test_alternants_match_their_definition(self, n):
        # Horner's rule in (1 + x) against the sum with binomials.
        row = stirling_row(n)
        signed = [(-1) ** j * factorial(j) * row[j] for j in range(n + 1)]
        expected = tuple(
            sum(signed[j] * comb(j - 1, i) for j in range(i + 1, n + 1))
            for i in range(n)
        )
        assert closed._alternants(row) == expected

    def test_alternant_cache_is_keyed_by_the_row_values(self):
        row = stirling_row(7)
        first = closed._alternants(row)
        # An equal row that is another object is answered from the cache.
        copy = tuple(list(row))
        assert copy is not row
        hits = closed._alternants.cache_info().hits
        assert closed._alternants(copy) == first
        assert closed._alternants.cache_info().hits == hits + 1
        # A row with one entry changed is another key.
        changed = row[:2] + (row[2] + 1,) + row[3:]
        assert closed._alternants(changed) != first

    def test_a_changed_stirling_row_is_never_answered_from_the_cache(
        self, monkeypatch
    ):
        clean = [d_explicit(3, 7, k) for k in range(7)]
        row = stirling_row(7)
        off = row[:3] + (row[3] + 1,) + row[4:]
        monkeypatch.setattr(closed, "stirling_row", lambda n: off)
        warm = [d_explicit(3, 7, k) for k in range(7)]
        closed._alternants.cache_clear()
        cold = [d_explicit(3, 7, k) for k in range(7)]
        assert warm == cold
        assert warm != clean

    def test_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            d_explicit(2, 3, 3)
        with pytest.raises(ValueError):
            d_explicit(2, 3, -1)
        with pytest.raises(ValueError):
            d_explicit(2, 3, True)


class TestEq2:
    def test_holds(self):
        for r in range(1, 5):
            report = check_eq2(r, 10)
            assert report.passed
            assert report.first_failure_n is None and report.detail is None

    @pytest.mark.parametrize("n_max", [1, 0, True, 2.5])
    def test_a_sweep_with_no_n_to_check_is_refused(self, n_max):
        # n = 2..n_max is empty at n_max = 1, so a pass would check nothing.
        with pytest.raises(ValueError, match="n_max must be an integer >= 2"):
            check_eq2(2, n_max)

    def test_bad_r_is_refused(self):
        with pytest.raises(ValueError, match="number of colors r"):
            check_eq2(0, 3)

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
