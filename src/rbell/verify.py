"""Verification suites: every identity the library implements, run over
parameter grids and reported as PASS / FAIL / KNOWN-ERRATUM check results.

Every check is one row of the table ``_CHECKS``: its suite, its name, the
function that scans its grid, the default nmax and rmax, and any cap on
them.  A check function returns its first counterexample as a string, or
None; the runner turns that into a ``CheckResult``.  A row named None
reports its own list of results: the erratum, the two oracle checks from one
enumeration, the three Carlitz checks from one scan, and the three integral
checks, two of them from one quadrature per point.  Each check scans
its grid in a fixed order and keeps its first counterexample, so reports
are deterministic.  The one expected failure is the frequently printed
simplified form of the cross-r polynomial recurrence, which is reported as
KNOWN-ERRATUM (see bell.cross_r_printed); it does not fail a suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import pairwise
from typing import Callable, NamedTuple

from .algebra import ApproxReal, IntPolynomial
from .analytic import (
    cesaro_integral,
    dobinski_eval,
    dobinski_series_sum,
    egf_coeffs,
    kummer_residual,
    max_indices,
    ogf_coefficient_pair,
    real_rootedness_report,
    sin_moment,
)
from .bell import (
    carlitz_compositions,
    carlitz_inversions,
    cross_r_printed,
    cross_r_step,
    cross_r_steps,
    rbell_number,
    rbell_numbers,
    rbell_poly,
    rbell_polys,
    rbell_polys_from_bell,
    rbell_polys_rec,
    rbell_table,
    whitehead_row_sum,
    whitehead_steps,
)
from .errors import ConvergenceError, DomainError, InconsistencyError
from .oracle import enumerate_grid
from .stirling import binomial, horizontal_check, stirling2r_explicit, stirling_row, stirling_rows
from .transforms import (
    binomial_transform,
    cigler_closed_form,
    cigler_minors,
    hankel_det,
    hankel_transform_rbell,
    inverse_binomial_transform,
    log_convexity_check,
)

# classical r-Bell numbers, rows r = 0..6, columns n = 0..6
REFERENCE_BELL_TABLE = (
    (1, 1, 2, 5, 15, 52, 203),
    (1, 2, 5, 15, 52, 203, 877),
    (1, 3, 10, 37, 151, 674, 3263),
    (1, 4, 17, 77, 372, 1915, 10481),
    (1, 5, 26, 141, 799, 4736, 29371),
    (1, 6, 37, 235, 1540, 10427, 73013),
    (1, 7, 50, 365, 2727, 20878, 163967),
)

# leading values of the diagonal row sum sum_{i=1}^n B_{i,n-i}
REFERENCE_ROW_SUMS = (1, 4, 13, 44, 163)


class CheckResult(NamedTuple):
    name: str
    status: str  # "PASS", "FAIL", or "KNOWN-ERRATUM"
    detail: str = ""


def _result(name: str, counterexample: str | None) -> CheckResult:
    if counterexample is None:
        return CheckResult(name, "PASS")
    return CheckResult(name, "FAIL", counterexample)


def _points(nmax: int, rmax: int, n_from: int = 0, r_from: int = 0):
    """The (n, r) grid in the order every check scans it: r outer, n inner."""
    for r in range(r_from, rmax + 1):
        for n in range(n_from, nmax + 1):
            yield n, r


def _row_points(nmax: int, rmax: int):
    """The grid of _points, each point with row n+r of the second-kind
    r-triangle, from one walk per r."""
    for r in range(rmax + 1):
        for n, row in enumerate(stirling_rows(2, r, nmax + r)):
            yield n, r, row


# Every check below takes the resolved (nmax, rmax) of its table row, None
# for an axis it does not scan, and returns its first counterexample or None,
# or, in a row named None, its own list of results.  A check that reads
# consecutive rows of one r takes them from one walk per r (stirling_rows or
# a list form built on it), in the same (r, n) order.

# ---------------------------------------------------------------------------
# definitions


def _explicit_formula(nmax: int, rmax: int) -> str | None:
    for n, r, row in _row_points(nmax, rmax):
        for k in range(n + 1):
            a = row[k]
            b = stirling2r_explicit(n, k, r)
            if a != b:
                return f"(n={n}, k={k}, r={r}): recurrence {a} vs alternating sum {b}"
    return None


def _row_sums(nmax: int, rmax: int) -> str | None:
    # rbell_number sums this very row; the table takes the Bell-triangle route
    table = rbell_table(nmax, rmax)
    for n, r, row in _row_points(nmax, rmax):
        if r >= len(table) or n >= len(table[r]):
            return f"(n={n}, r={r}): rbell_table has no entry B_{{n,r}}"
        total = sum(row)
        expected = table[r][n]
        if total != expected:
            return f"(n={n}, r={r}): row sum {total} vs B = {expected}"
    return None


def _cross_r_stirling(nmax: int, rmax: int) -> str | None:
    for r in range(1, rmax + 1):
        # {n+r, k+r}_r at index k; {n-1+r, k+r}_{r-1} and {n+r, k+r}_{r-1} at
        # index k+1, two consecutive rows of the (r-1)-walk
        rows = zip(stirling_rows(2, r, nmax + r), pairwise(stirling_rows(2, r - 1, nmax + r)))
        for n, (row, (below, wider)) in enumerate(rows):
            below += (0,)
            for k in range(n + 1):
                lhs = row[k]
                rhs = wider[k + 1] - (r - 1) * below[k + 1]
                if lhs != rhs:
                    return f"(n={n}, k={k}, r={r}): {lhs} vs {rhs}"
    return None


def _log_concavity(nmax: int, rmax: int) -> str | None:
    for n, r, row in _row_points(nmax, rmax):
        row = (0, *row, 0)  # {n+r, k}_r at index k - r + 1
        for k in range(max(r, 1), n + r + 1):
            j = k - r + 1
            middle = row[j] ** 2
            sides = row[j + 1] * row[j - 1]
            if middle < sides:
                return f"(n={n}, k={k}, r={r}): {middle} < {sides}"
    return None


def _number_table(nmax: None, rmax: None) -> str | None:
    if rbell_table(6, 6) != [list(row) for row in REFERENCE_BELL_TABLE]:
        return "7x7 table differs from the reference values"
    return None


def _polynomial_formulas(nmax: None, rmax: int) -> str | None:
    for r in range(rmax + 1):
        closed_forms = (
            [1],
            [r, 1],
            [r * r, 2 * r + 1, 1],
            [r**3, 3 * r * r + 3 * r + 1, 3 * r + 3, 1],
            [r**4, 4 * r**3 + 6 * r * r + 4 * r + 1, 6 * r * r + 12 * r + 7, 4 * r + 6, 1],
        )
        for n, coeffs in enumerate(closed_forms):
            got, want = rbell_poly(n, r), IntPolynomial(coeffs)
            if got != want:
                return f"(n={n}, r={r}): {got!r} vs closed form {want!r}"
    return None


def _bell_addition(nmax: int, rmax: None) -> str | None:
    points = (Fraction(1, 2), Fraction(1), Fraction(2))
    polys = rbell_polys(nmax, 0)
    # B_k(x) at each point, evaluated once and shared by every (n, y)
    values = {x: [p(x) for p in polys] for x in points}
    for n in range(nmax + 1):
        for x in points:
            for y in points:
                lhs = polys[n](x + y)
                rhs = sum(
                    binomial(n, k) * values[x][k] * values[y][n - k]
                    for k in range(n + 1)
                )
                if lhs != rhs:
                    return f"(n={n}, x={x}, y={y}): {lhs} vs {rhs}"
    return None


def _horizontal(nmax: int, rmax: int) -> str | None:
    for n, r in _points(nmax, rmax):
        residual = horizontal_check(n, r)
        if residual:
            return f"(n={n}, r={r}): residual {residual!r}"
    return None


# ---------------------------------------------------------------------------
# recurrences


def _route_agreement(nmax: int, rmax: int) -> str | None:
    for r in range(rmax + 1):
        # one walk each of the r-Stirling rows, the derivative recurrence and
        # the (r-1)-rows, and one set of ordinary Bell polynomials, serve
        # every n of this r
        recurrence = rbell_polys_rec(nmax, r)
        expansion = rbell_polys_from_bell(nmax, r)
        cross = cross_r_steps(nmax, r) if r >= 1 else None
        for n, direct in enumerate(rbell_polys(nmax, r)):
            routes = {
                "derivative recurrence": recurrence[n],
                "Bell expansion": expansion[n],
            }
            if cross:
                routes["cross-r division"] = cross[n]
            for label, poly in routes.items():
                if poly != direct:
                    return f"(n={n}, r={r}): {label} gives {poly!r}, direct {direct!r}"
    return None


def _derivative_relation(nmax: int, rmax: int) -> str | None:
    x = IntPolynomial([0, 1])
    for r in range(rmax + 1):
        for n, (p, after) in enumerate(pairwise(rbell_polys(nmax + 1, r))):
            lhs = x * p.derivative()
            rhs = after - r * p - x * p
            if lhs != rhs:
                return f"(n={n}, r={r}): {lhs!r} vs {rhs!r}"
    return None


def _monic_shape(nmax: int, rmax: int) -> str | None:
    for r in range(rmax + 1):
        for n, p in enumerate(rbell_polys(nmax, r)):
            if p.degree != n or p.leading_coefficient != 1:
                return f"(n={n}, r={r}): {p!r} not monic of degree n"
            if p.constant_term != r**n:
                return f"(n={n}, r={r}): constant term {p.constant_term} vs r^n = {r**n}"
    return None


def _whitehead(nmax: int, rmax: int) -> str | None:
    for r in range(rmax + 1):
        pairs = zip(whitehead_steps(nmax, r), rbell_numbers(nmax + 1, r)[1:])
        for n, (stepped, expected) in enumerate(pairs):
            if stepped != expected:
                return f"(n={n}, r={r}): {stepped} vs {expected}"
    for n, want in enumerate(REFERENCE_ROW_SUMS, start=1):
        got = whitehead_row_sum(n)
        if got != want:
            return f"row sum at n={n}: {got} vs {want}"
    return None


def _bell_shift(nmax: int, rmax: None) -> str | None:
    pairs = zip(rbell_numbers(nmax, 1), rbell_numbers(nmax + 1, 0)[1:])
    for n, (shifted, bell) in enumerate(pairs):
        if shifted != bell:
            return f"n={n}"
    return None


def _erratum(nmax: None, rmax: None) -> list[CheckResult]:
    """The one check that expects a disagreement: it reports KNOWN-ERRATUM
    when the printed form is wrong and the division form is right."""
    printed = cross_r_printed(2, 2)
    corrected = cross_r_step(2, 2)
    actual = rbell_poly(2, 2)
    if printed == actual or corrected != actual:
        status, detail = "FAIL", (
            "expected the printed simplified form to disagree and the division "
            f"form to agree; got printed {printed!r}, corrected {corrected!r}, "
            f"actual {actual!r}"
        )
    else:
        status, detail = "KNOWN-ERRATUM", (
            f"the commonly printed simplified recurrence gives {printed(1)} at "
            f"(n=2, r=2, x=1) where the table value is {actual(1)}; the corrected "
            "division form agrees everywhere"
        )
    return [CheckResult("cross-r-printed-form", status, detail)]


# ---------------------------------------------------------------------------
# carlitz: nmax bounds n + m.


def _carlitz(total: int, rmax: int) -> list[CheckResult]:
    """Three checks from one scan, each against one rbell_table built by the
    Bell triangle and Whitehead's step: the library's Carlitz composition and
    inversion sums, which read r-Bell numbers off r-Stirling rows, and the
    roundtrip, composition fed with the inversions, which must give
    B_{n+m,r}.  Each (r, n) reads one list of each sum, for every m.  The
    points are compared in (r, n, m) order; each check keeps its own first
    counterexample."""
    names = ("carlitz-compose", "carlitz-inverse", "carlitz-roundtrip")
    table = rbell_table(total, rmax + total)  # B_{n,r+m} at [r + m][n]
    first = {}  # check name -> its first counterexample
    for r in range(rmax + 1):
        rows = list(stirling_rows(2, r, total + r))
        for n in range(total + 1):
            composed = carlitz_compositions(n, total - n, r)
            inverses = carlitz_inversions(n, total - n, r)
            for m in range(total + 1 - n):
                recomposed = sum(s * inverses[j] for j, s in enumerate(rows[m]))
                compared = (
                    (composed[m], "B = ", table[r][n + m]),
                    (inverses[m], "B = ", table[r + m][n]),
                    (recomposed, "", table[r][n + m]),
                )
                for name, (got, label, want) in zip(names, compared):
                    if got != want and name not in first:
                        first[name] = f"(n={n}, m={m}, r={r}): {got} vs {label}{want}"
    return [_result(name, first.get(name)) for name in names]


# ---------------------------------------------------------------------------
# transforms and Cigler's determinants


def _transform_roundtrip(nmax: int, rmax: int) -> str | None:
    for r in range(rmax + 1):
        seq = rbell_numbers(nmax, r)
        if inverse_binomial_transform(binomial_transform(seq)) != seq:
            return f"r={r}"
        if binomial_transform(inverse_binomial_transform(seq)) != seq:
            return f"r={r} (reverse order)"
    return None


def _poly_transform_relations(nmax: int, rmax: int) -> str | None:
    upper = rbell_polys(nmax, 0)
    for r in range(rmax + 1):
        lower, upper = upper, rbell_polys(nmax, r + 1)
        if inverse_binomial_transform(lower) != upper:
            return f"r={r}: inverse transform"
        if binomial_transform(upper) != lower:
            return f"r={r}: forward transform"
    return None


def _layman(nmax: None, rmax: int) -> str | None:
    shifted = rbell_numbers(10, 0)
    for r in range(rmax + 1):
        base, shifted = shifted, rbell_numbers(10, r + 1)
        for size in range(1, 6):
            a = hankel_det(base, size)
            b = hankel_det(shifted, size)
            if a != b:
                return f"(r={r}, size={size}): {a} vs {b}"
    return None


def _hankel_products(nmax: None, rmax: int) -> str | None:
    expected = [math.prod(math.factorial(i) for i in range(m + 1)) for m in range(6)]
    for r in range(rmax + 1):
        got = hankel_transform_rbell(r, 5)
        if got != expected:
            return f"r={r}: {got} vs {expected}"
    return None


def _log_convexity(nmax: int, rmax: int) -> str | None:
    length = max(nmax, 2)
    for r in range(rmax + 1):
        seq = rbell_numbers(length, r)
        if not log_convexity_check(seq):
            return f"r={r}"
    return None


def _cigler(nmax: int, rmax: int) -> str | None:
    """Every d(n, k) of one r comes from one elimination per k; the points
    are compared in (r, n, k) order.  An elimination that meets a zero minor
    is reported before any point of its r."""
    if nmax < 1:
        return None
    for r in range(rmax + 1):
        minors = []
        for k in (0, 1):
            try:
                minors.append(cigler_minors(nmax, k, r))
            except InconsistencyError as exc:
                return f"(k={k}, r={r}): {exc}"
        for n in range(1, nmax + 1):
            for k in (0, 1):
                computed, expected = minors[k][n - 1], cigler_closed_form(n, k, r)
                if computed != expected:
                    return f"(n={n}, k={k}, r={r}): {computed!r} vs {expected!r}"
    return None


# ---------------------------------------------------------------------------
# numeric routes: the dobinski, integral, ogf and kummer suites


def _dobinski(nmax: int, rmax: int) -> str | None:
    tol = 1e-9
    tn, td = tol.as_integer_ratio()
    for r in range(rmax + 1):
        for n, poly in enumerate(rbell_polys(nmax, r)):
            for x in (Fraction(1, 2), Fraction(1), Fraction(2)):
                approx = dobinski_eval(n, r, x, tol)
                exact = poly(x)
                if not approx.encloses(exact):
                    return f"(n={n}, r={r}, x={x}): {approx!r} does not enclose {exact}"
                # err > tol * max(1, exact), cross-multiplied in integers
                en, ed = approx.err.as_integer_ratio()
                xn, xd = exact.as_integer_ratio()
                if en * td * xd > tn * ed * max(xd, xn):
                    return f"(n={n}, r={r}, x={x}): err {approx.err} above tol * max(1, exact)"
    return None


def _quadrature(n: int, r: int) -> ApproxReal | str:
    """cesaro_integral(n, r, 1e-8)'s value, or the text of its quadrature
    error; a DomainError propagates."""
    try:
        return cesaro_integral(n, r, 1e-8).value
    except (InconsistencyError, ConvergenceError) as exc:
        return str(exc)


def _sin_moment(nmax: int) -> str | None:
    for j in range(7):
        for n in range(1, nmax + 1):
            approx = sin_moment(j, n, 1e-8)
            # j^n / n! as one int quotient, since float(n!) overflows past n = 170;
            # the float target carries a few ulp of rounding of its own
            target = math.pi / 2 * (j**n / math.factorial(n))
            off = abs(approx.value - target) > approx.err + 1e-15 * target
            if off or approx.err > 1e-8 * max(1.0, target):
                return f"(j={j}, n={n}): {approx.value!r} vs {target!r}"
    return None


def _integral(nmax: tuple[int, int], rmax: int) -> list[CheckResult]:
    """Three checks in report order.  cesaro-integral and compelling-identity
    share one pass that computes each quadrature once and keeps nothing past
    its point: cesaro-integral compares it with rbell_number, and
    compelling-identity compares e times it with the bare Dobinski series
    sum_k (k+r)^n / k!.  A quadrature error is the counterexample of both,
    and each keeps its own first counterexample.  sin-moment runs on its own
    grid, n <= nmax[1].

    Errors surface in the order of separate scans: one met while computing
    for cesaro-integral ends the run at once, one met only for
    compelling-identity closes that check and is raised after sin-moment."""
    names = ("cesaro-integral", "compelling-identity")
    first = {}  # check name -> its first counterexample
    deferred = None
    for n, r in _points(nmax[0], rmax, n_from=1):
        cesaro = names[0] not in first
        compelling = names[1] not in first and deferred is None
        if not (cesaro or compelling):
            break
        where = f"(n={n}, r={r}): "
        quad = None
        if cesaro:
            exact = rbell_number(n, r)
            quad = _quadrature(n, r)
            if isinstance(quad, str):
                first[names[0]] = where + quad
            elif not quad.encloses(exact):
                first[names[0]] = f"{where}{quad.value!r} vs exact {exact}"
        if not compelling:
            continue
        try:
            raw = dobinski_series_sum(n, r, 1, 1e-9)
            if quad is None:
                quad = _quadrature(n, r)
        except DomainError as exc:
            deferred = exc
            continue
        if isinstance(quad, str):
            first[names[1]] = where + quad
            continue
        lhs = raw.value
        rhs = math.e * quad.value
        allowance = raw.err + math.e * quad.err + 1e-12 * max(1.0, abs(lhs))
        if abs(lhs - rhs) > allowance:
            first[names[1]] = f"{where}|{lhs!r} - {rhs!r}| above {allowance!r}"
    sin_result = _result("sin-moment", _sin_moment(nmax[1]))
    if deferred is not None:
        raise deferred
    return [_result(names[0], first.get(names[0])), sin_result, _result(names[1], first.get(names[1]))]


def _ogf(mmax: int, rmax: int) -> str | None:
    for r in range(rmax + 1):
        for m in range(mmax + 1):
            # z = 1/d with r <= d <= m + r is a pole of the generating function
            for z in (Fraction(1, d) for d in (100, 50, 2 * (m + r + 1)) if not r <= d <= m + r):
                lhs, rhs = ogf_coefficient_pair(m, r, z)
                if lhs != rhs:
                    return f"(m={m}, r={r}, z={z}): {lhs} vs {rhs}"
    return None


def _egf(nmax: int, rmax: int) -> str | None:
    for r in range(rmax + 1):
        polys = rbell_polys(nmax, r)
        for x in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)):
            for n, c in enumerate(egf_coeffs(nmax, r, x)):
                fact = math.factorial(n)
                expected = polys[n](x)
                if fact * c != expected:
                    return f"(n={n}, r={r}, x={x}): n!*c = {fact * c} vs {expected}"
    return None


def _kummer(nmax: None, rmax: None) -> str | None:
    tol = 1e-10
    for a in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for b in (Fraction(3, 2), Fraction(2), Fraction(3)):
            for x in (Fraction(-2), Fraction(-1, 2), Fraction(1, 2), Fraction(2)):
                residual = kummer_residual(a, b, x, tol)
                if residual.value > residual.err + tol:
                    return f"(a={a}, b={b}, x={x}): residual {residual!r}"
    return None


# ---------------------------------------------------------------------------
# root structure and the maximizing index


def _real_rootedness(nmax: int, rmax: int) -> str | None:
    for n, r in _points(nmax, rmax, n_from=1):
        report = real_rootedness_report(n, r)
        if report != ((n, n, False) if r >= 1 else (n, n - 1, True)):
            return f"(n={n}, r={r}): {report}"
    return None


def _maximizing_index(nmax: int, rmax: int) -> str | None:
    for r in range(rmax + 1):
        for n, report in enumerate(max_indices(nmax, r), start=1):
            ks = report.maximizers
            if ks != tuple(range(ks[0], ks[0] + len(ks))):
                return f"(n={n}, r={r}): maximizers {ks} not consecutive"
            if not report.bound_holds:
                return f"(n={n}, r={r}): no maximizer within 1 of {report.ratio_estimate}"
    return None


# ---------------------------------------------------------------------------
# oracle


def _oracle(nmax: int, rmax: int) -> list[CheckResult]:
    """Two checks from one enumeration: the enumerated counts against the
    library, then B_{n,r} increasing in r over the enumerated totals.  Only
    n + r <= 12 is enumerated, by one walk of the restricted growth strings
    for the whole grid (oracle.enumerate_grid): each point is the subtree
    below the staircase 0, 1, ..., r-1, and the default grid visits each of
    the 820,987 nonempty strings of length at most 11 once.  The points are
    compared in scan order, and both checks stop at the first mismatch."""
    points = [(n, r) for n, r in _points(min(nmax, 12), min(rmax, 12)) if n + r <= 12]
    counts = enumerate_grid(points).counts
    totals = {}
    mismatch = None
    for n, r in points:
        found = counts[n, r]
        totals[n, r] = found.total
        if found.total != rbell_number(n, r):
            mismatch = f"(n={n}, r={r}): enumerated {found.total} vs {rbell_number(n, r)}"
            break
        row = stirling_row(2, n + r, r)
        for k, count in found.by_blocks.items():
            if count != row[k - r]:
                mismatch = f"(n={n}, r={r}, k={k}): enumerated {count} vs {row[k - r]}"
                break
        if mismatch is not None:
            break

    violation = None
    for (n, r), lower in sorted(totals.items(), key=lambda item: item[0][::-1]):
        upper = totals.get((n, r + 1))
        if upper is not None and upper < lower:
            violation = f"(n={n}, r={r}): {upper} < {lower}"
            break
    return [_result("oracle-totals", mismatch), _result("oracle-monotonicity", violation)]


# ---------------------------------------------------------------------------
# the check table


class _Check(NamedTuple):
    """One check: its suite, its name (None when the check reports its own
    results), its scan, and its grid.  nmax and rmax are the defaults the
    user's --nmax/--rmax replace, None for an axis the check does not scan;
    a row that reports checks on different n grids has a tuple of nmax
    defaults, each resolved alone.  n_cap bounds the resolved nmax."""

    suite: str
    name: str | None
    scan: Callable
    nmax: int | tuple[int, ...] | None
    rmax: int | None
    n_cap: int | None = None


# Rows are in report order; a suite's rows are contiguous.  A row named None
# reports its own results: one for the erratum, two for the oracle and three
# each for carlitz and integral.
_CHECKS = (
    _Check("definitions", "explicit-formula", _explicit_formula, 12, 8),
    _Check("definitions", "stirling-row-sums", _row_sums, 12, 8),
    _Check("definitions", "cross-r-stirling", _cross_r_stirling, 12, 8),
    _Check("definitions", "stirling-log-concavity", _log_concavity, 12, 8),
    _Check("definitions", "number-table", _number_table, None, None),
    _Check("definitions", "polynomial-formulas", _polynomial_formulas, None, 8),
    _Check("definitions", "bell-addition", _bell_addition, 10, None),
    _Check("definitions", "horizontal-gf", _horizontal, 12, 8),
    _Check("recurrences", "route-agreement", _route_agreement, 12, 8),
    _Check("recurrences", "derivative-relation", _derivative_relation, 12, 8),
    _Check("recurrences", "monic-shape", _monic_shape, 12, 8),
    _Check("recurrences", "whitehead-step", _whitehead, 12, 8),
    _Check("recurrences", "bell-shift", _bell_shift, 12, None),
    _Check("recurrences", None, _erratum, None, None),
    _Check("carlitz", None, _carlitz, 10, 6),
    _Check("transforms", "transform-roundtrip", _transform_roundtrip, 10, 6),
    _Check("transforms", "poly-binomial-relations", _poly_transform_relations, 10, 6),
    _Check("transforms", "layman-hankel", _layman, None, 6),
    _Check("transforms", "hankel-products", _hankel_products, None, 6),
    _Check("transforms", "log-convexity", _log_convexity, 12, 8),
    # Without its cap, cigler at --nmax 14 --rmax 9 takes 0.66-1.08 s instead of
    # 0.015-0.026 s (Python 3.11, 2 vCPUs, cold process).
    _Check("cigler", "cigler-determinants", _cigler, 5, 4, n_cap=6),
    _Check("dobinski", "dobinski-enclosure", _dobinski, 15, 6),
    _Check("integral", None, _integral, (8, 6), 4),
    _Check("ogf", "ogf-coefficient-pair", _ogf, 10, 6),
    _Check("ogf", "egf-coefficients", _egf, 12, 6),
    _Check("kummer", "kummer-transformation", _kummer, None, None),
    _Check("roots", "real-rootedness", _real_rootedness, 15, 8),
    _Check("maxindex", "maximizing-index", _maximizing_index, 30, 10),
    _Check("oracle", None, _oracle, 12, 12),
)


def _axis(default, given: int | None, cap: int | None = None):
    if default is None:
        return None
    if isinstance(default, tuple):
        return tuple(_axis(d, given, cap) for d in default)
    value = default if given is None else given
    return value if cap is None else min(value, cap)


def _run_rows(suite: str, nmax: int | None, rmax: int | None) -> list[CheckResult]:
    results = []
    for check in _CHECKS:
        if check.suite == suite:
            n, r = _axis(check.nmax, nmax, check.n_cap), _axis(check.rmax, rmax)
            found = check.scan(n, r)
            results += found if check.name is None else [_result(check.name, found)]
    return results


# suite name -> callable (nmax, rmax) -> list[CheckResult]; run_suite looks
# each one up at call time, so a caller may replace an entry.
SUITES = {suite: partial(_run_rows, suite) for suite in dict.fromkeys(c.suite for c in _CHECKS)}


def run_suite(
    suite: str, nmax: int | None = None, rmax: int | None = None
) -> list[CheckResult]:
    """Run one named suite (or all of them) and return its check results."""
    if suite == "all":
        return [result for name in SUITES for result in SUITES[name](nmax, rmax)]
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}")
    return SUITES[suite](nmax, rmax)
