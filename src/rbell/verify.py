"""Verification suites: every identity the library implements, run over
parameter grids and reported as PASS / FAIL / KNOWN-ERRATUM check results.

Every row of the table ``_CHECKS`` holds its suite, the names of its checks,
the scan that runs them over its grid, the default nmax and rmax, and any cap
on them.  Most rows hold one check; the four row checks of definitions
share one scan of one r-Stirling walk per r, the three Carlitz checks one
scan, the two oracle checks one enumeration, and the three integral checks
one scan, two of them one quadrature per point.  Every scan is a generator
that yields its counterexamples in a fixed scan order, and one runner keeps
the first of each check, so reports are deterministic: a check with none
passes, and a scan is closed as soon as each of its checks has one.  The
one expected failure is the frequently printed simplified form of the
cross-r polynomial recurrence, which is reported as KNOWN-ERRATUM (see
bell.cross_r_printed); it does not fail a suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import pairwise, product
from typing import Callable, Iterator, NamedTuple

from .algebra import IntPolynomial, leading_principal_minors
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
    cross_r_steps,
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
from .stirling import binomial, horizontal_checks, stirling2r_explicit, stirling_rows
from .transforms import (
    binomial_transform,
    cigler_closed_form,
    cigler_minors,
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


def _points(nmax: int, rmax: int, n_from: int = 0):
    """The (n, r) grid in the order every check scans it: r outer, n inner."""
    for r in range(rmax + 1):
        for n in range(n_from, nmax + 1):
            yield n, r


# Every scan below takes the resolved (nmax, rmax) of its table row, None
# for an axis it does not scan, and yields each counterexample as its detail
# text.  A scan that names one of several checks of its row, or a status
# other than FAIL, yields a triple (i, status, detail) for the row's check i
# instead.  A scan that reads several rows or values of one r takes them
# from one walk per r (stirling_rows or a list form built on it), in the same
# (r, n) order.

# ---------------------------------------------------------------------------
# definitions


def _definitions(nmax: int, rmax: int) -> Iterator[tuple[int, str, str]]:
    """Four checks from one scan of row n+r of the second-kind r-triangle,
    one walk per r: the recurrence against the alternating sum
    (explicit-formula, check 0), the row sum against one rbell_table built by
    the Bell triangle (stirling-row-sums, check 1), the row against two
    consecutive rows of the (r-1)-walk for r >= 1 (cross-r-stirling, check 2),
    and log-concavity in k (check 3).  Each check is compared in its own
    (r, n, k) order, and nothing more is computed for a check once it has a
    counterexample."""
    table = rbell_table(nmax, rmax)
    closed = set()  # the checks that need no further point

    def fail(i: int, detail: str) -> tuple[int, str, str]:
        closed.add(i)
        return i, "FAIL", detail

    for r in range(rmax + 1):
        # consecutive rows (below, wider) of the (r-1)-walk: {n-1+r, k+r}_{r-1}
        # and {n+r, k+r}_{r-1} at index k+1
        pairs = pairwise(stirling_rows(2, r - 1, nmax + r)) if r and 2 not in closed else None
        for n, row in enumerate(stirling_rows(2, r, nmax + r)):
            if 0 not in closed:
                for k, a in enumerate(row):
                    if a != (b := stirling2r_explicit(n, k, r)):
                        yield fail(0, f"(n={n}, k={k}, r={r}): recurrence {a} vs "
                                      f"alternating sum {b}")
                        break
            if 1 not in closed:
                if r >= len(table) or n >= len(table[r]):
                    yield fail(1, f"(n={n}, r={r}): rbell_table has no entry B_{{n,r}}")
                elif (total := sum(row)) != table[r][n]:
                    yield fail(1, f"(n={n}, r={r}): row sum {total} vs B = {table[r][n]}")
            if pairs and 2 not in closed:
                below, wider = next(pairs)
                below += (0,)
                for k, lhs in enumerate(row):
                    if lhs != (rhs := wider[k + 1] - (r - 1) * below[k + 1]):
                        yield fail(2, f"(n={n}, k={k}, r={r}): {lhs} vs {rhs}")
                        break
            if 3 not in closed:
                padded = (0, *row, 0)  # {n+r, k}_r at index k - r + 1
                for k in range(max(r, 1), n + r + 1):
                    j = k - r + 1
                    middle, sides = padded[j] ** 2, padded[j + 1] * padded[j - 1]
                    if middle < sides:
                        yield fail(3, f"(n={n}, k={k}, r={r}): {middle} < {sides}")
                        break


def _number_table(nmax: None, rmax: None) -> Iterator[str]:
    if rbell_table(6, 6) != [list(row) for row in REFERENCE_BELL_TABLE]:
        yield "7x7 table differs from the reference values"


def _polynomial_formulas(nmax: None, rmax: int) -> Iterator[str]:
    for r in range(rmax + 1):
        closed_forms = (
            [1],
            [r, 1],
            [r * r, 2 * r + 1, 1],
            [r**3, 3 * r * r + 3 * r + 1, 3 * r + 3, 1],
            [r**4, 4 * r**3 + 6 * r * r + 4 * r + 1, 6 * r * r + 12 * r + 7, 4 * r + 6, 1],
        )
        for n, (got, coeffs) in enumerate(zip(rbell_polys(4, r), closed_forms)):
            want = IntPolynomial(coeffs)
            if got != want:
                yield f"(n={n}, r={r}): {got!r} vs closed form {want!r}"


def _bell_addition(nmax: int, rmax: None) -> Iterator[str]:
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
                    yield f"(n={n}, x={x}, y={y}): {lhs} vs {rhs}"


def _horizontal(nmax: int, rmax: int) -> Iterator[str]:
    for r in range(rmax + 1):
        for n, residual in enumerate(horizontal_checks(nmax, r)):
            if residual:
                yield f"(n={n}, r={r}): residual {residual!r}"


# ---------------------------------------------------------------------------
# recurrences


def _route_agreement(nmax: int, rmax: int) -> Iterator[str]:
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
                    yield f"(n={n}, r={r}): {label} gives {poly!r}, direct {direct!r}"


def _derivative_relation(nmax: int, rmax: int) -> Iterator[str]:
    x = IntPolynomial([0, 1])
    for r in range(rmax + 1):
        for n, (p, after) in enumerate(pairwise(rbell_polys(nmax + 1, r))):
            lhs = x * p.derivative()
            rhs = after - r * p - x * p
            if lhs != rhs:
                yield f"(n={n}, r={r}): {lhs!r} vs {rhs!r}"


def _monic_shape(nmax: int, rmax: int) -> Iterator[str]:
    for r in range(rmax + 1):
        for n, p in enumerate(rbell_polys(nmax, r)):
            if p.degree != n or p.leading_coefficient != 1:
                yield f"(n={n}, r={r}): {p!r} not monic of degree n"
            if p.constant_term != r**n:
                yield f"(n={n}, r={r}): constant term {p.constant_term} vs r^n = {r**n}"


def _whitehead(nmax: int, rmax: int) -> Iterator[str]:
    for r in range(rmax + 1):
        pairs = zip(whitehead_steps(nmax, r), rbell_numbers(nmax + 1, r)[1:])
        for n, (stepped, expected) in enumerate(pairs):
            if stepped != expected:
                yield f"(n={n}, r={r}): {stepped} vs {expected}"
    for n, want in enumerate(REFERENCE_ROW_SUMS, start=1):
        got = whitehead_row_sum(n)
        if got != want:
            yield f"row sum at n={n}: {got} vs {want}"


def _bell_shift(nmax: int, rmax: None) -> Iterator[str]:
    pairs = zip(rbell_numbers(nmax, 1), rbell_numbers(nmax + 1, 0)[1:])
    for n, (shifted, bell) in enumerate(pairs):
        if shifted != bell:
            yield f"n={n}"


def _erratum(nmax: None, rmax: None) -> Iterator[tuple[int, str, str]]:
    """The one check that expects a disagreement: it reports KNOWN-ERRATUM
    when the printed form is wrong and the division form is right."""
    printed = cross_r_printed(2, 2)
    corrected = cross_r_steps(2, 2)[-1]
    actual = rbell_poly(2, 2)
    if printed == actual or corrected != actual:
        yield 0, "FAIL", (
            "expected the printed simplified form to disagree and the division "
            f"form to agree; got printed {printed!r}, corrected {corrected!r}, "
            f"actual {actual!r}"
        )
    else:
        yield 0, "KNOWN-ERRATUM", (
            f"the commonly printed simplified recurrence gives {printed(1)} at "
            f"(n=2, r=2, x=1) where the table value is {actual(1)}; the corrected "
            "division form agrees everywhere"
        )


# ---------------------------------------------------------------------------
# carlitz: nmax bounds n + m.


def _carlitz(total: int, rmax: int) -> Iterator[tuple[int, str, str]]:
    """Three checks from one scan, each against one rbell_table built by the
    Bell triangle and Whitehead's step: the library's Carlitz composition and
    inversion sums (checks 0 and 1), which read r-Bell numbers off r-Stirling
    rows, and the roundtrip (check 2), composition fed with the inversions,
    which must give B_{n+m,r}.  Each (r, n) reads one list of each sum, for
    every m.  The points are compared in (r, n, m) order."""
    table = rbell_table(total, rmax + total)  # B_{n,r+m} at [r + m][n]
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
                for i, (got, label, want) in enumerate(compared):
                    if got != want:
                        yield i, "FAIL", f"(n={n}, m={m}, r={r}): {got} vs {label}{want}"


# ---------------------------------------------------------------------------
# transforms and Cigler's determinants


def _transform_roundtrip(nmax: int, rmax: int) -> Iterator[str]:
    for r in range(rmax + 1):
        seq = rbell_numbers(nmax, r)
        if inverse_binomial_transform(binomial_transform(seq)) != seq:
            yield f"r={r}"
        if binomial_transform(inverse_binomial_transform(seq)) != seq:
            yield f"r={r} (reverse order)"


def _poly_transform_relations(nmax: int, rmax: int) -> Iterator[str]:
    upper = rbell_polys(nmax, 0)
    for r in range(rmax + 1):
        lower, upper = upper, rbell_polys(nmax, r + 1)
        if inverse_binomial_transform(lower) != upper:
            yield f"r={r}: inverse transform"
        if binomial_transform(upper) != lower:
            yield f"r={r}: forward transform"


def _layman(nmax: None, rmax: int) -> Iterator[str]:
    """Sizes 1..5 of the Hankel determinants of B_{.,r} and B_{.,r+1}, each
    sequence's from one elimination of its 5 x 5 Hankel matrix.  An
    elimination that meets a zero minor is reported before any size of its
    r, and ends the scan."""

    def minors(s: int) -> list[int]:
        seq = rbell_numbers(10, s)
        return leading_principal_minors([seq[i : i + 5] for i in range(5)])

    for r in range(rmax + 1):
        try:
            base = shifted if r else minors(0)
            shifted = minors(r + 1)
        except InconsistencyError as exc:
            yield f"(r={r}): {exc}"
            return
        for size, (a, b) in enumerate(zip(base, shifted), 1):
            if a != b:
                yield f"(r={r}, size={size}): {a} vs {b}"


def _hankel_products(nmax: None, rmax: int) -> Iterator[str]:
    expected = [math.prod(math.factorial(i) for i in range(m + 1)) for m in range(6)]
    for r in range(rmax + 1):
        got = hankel_transform_rbell(r, 5)
        if got != expected:
            yield f"r={r}: {got} vs {expected}"


def _log_convexity(nmax: int, rmax: int) -> Iterator[str]:
    length = max(nmax, 2)
    for r in range(rmax + 1):
        seq = rbell_numbers(length, r)
        if not log_convexity_check(seq):
            yield f"r={r}"


def _cigler(nmax: int, rmax: int) -> Iterator[str]:
    """Every d(n, k) of one r comes from one elimination per k; the points
    are compared in (r, n, k) order.  An elimination that meets a zero minor
    is reported before any point of its r, and ends the scan."""
    if nmax < 1:
        return
    for r in range(rmax + 1):
        minors = []
        for k in (0, 1):
            try:
                minors.append(cigler_minors(nmax, k, r))
            except InconsistencyError as exc:
                yield f"(k={k}, r={r}): {exc}"
                return
        for n in range(1, nmax + 1):
            for k in (0, 1):
                computed, expected = minors[k][n - 1], cigler_closed_form(n, k, r)
                if computed != expected:
                    yield f"(n={n}, k={k}, r={r}): {computed!r} vs {expected!r}"


# ---------------------------------------------------------------------------
# numeric routes: the dobinski, integral, ogf and kummer suites


def _dobinski(nmax: int, rmax: int) -> Iterator[str]:
    tol = 1e-9
    tn, td = tol.as_integer_ratio()
    for r in range(rmax + 1):
        for n, poly in enumerate(rbell_polys(nmax, r)):
            for x in (Fraction(1, 2), Fraction(1), Fraction(2)):
                approx = dobinski_eval(n, r, x, tol)
                exact = poly(x)
                if not approx.encloses(exact):
                    yield f"(n={n}, r={r}, x={x}): {approx!r} does not enclose {exact}"
                # err > tol * max(1, exact), cross-multiplied in integers
                en, ed = approx.err.as_integer_ratio()
                xn, xd = exact.as_integer_ratio()
                if en * td * xd > tn * ed * max(xd, xn):
                    yield f"(n={n}, r={r}, x={x}): err {approx.err} above tol * max(1, exact)"


def _integral(nmax: tuple[int, int], rmax: int) -> Iterator[tuple[int, str, str]]:
    """Three checks in report order.  cesaro-integral (check 0) and
    compelling-identity (check 2) share one pass that computes each
    quadrature once and keeps nothing past its point: check 0 compares it
    with B_{n,r} from one rbell_numbers walk per r, and check 2 compares e
    times it with the bare Dobinski series sum_k (k+r)^n / k!.  A quadrature
    error is the counterexample of both.  The pass computes nothing more for
    a check once it has a counterexample.  sin-moment (check 1) then runs on
    its own grid, n <= nmax[1], up to its first counterexample.

    Errors surface in the order of separate scans: one met while computing
    for cesaro-integral ends the run at once, one met only for
    compelling-identity closes that check and is raised after sin-moment."""
    closed = set()  # the checks of the pass that need no further point
    deferred = None
    for n, r in _points(nmax[0], rmax, n_from=1):
        where = f"(n={n}, r={r}): "
        if n == 1 and 0 not in closed:  # the first point of r: B_{.,r} from one walk
            exact = rbell_numbers(nmax[0], r)
        if 2 not in closed:
            try:
                raw = dobinski_series_sum(n, r, 1, 1e-9)
            except DomainError as exc:
                deferred = exc
                closed.add(2)
        open_checks = sorted({0, 2} - closed)
        if not open_checks:
            break
        try:
            quad = cesaro_integral(n, r, 1e-8).value
        except DomainError as exc:
            if 0 in open_checks:
                raise
            deferred = exc
            closed.add(2)
            continue
        except (InconsistencyError, ConvergenceError) as exc:
            closed.update(open_checks)
            for i in open_checks:
                yield i, "FAIL", where + str(exc)
            continue
        if 0 in open_checks and not quad.encloses(exact[n]):
            closed.add(0)
            yield 0, "FAIL", f"{where}{quad.value!r} vs exact {exact[n]}"
        if 2 in open_checks:
            lhs = raw.value
            rhs = math.e * quad.value
            allowance = raw.err + math.e * quad.err + 1e-12 * max(1.0, abs(lhs))
            if abs(lhs - rhs) > allowance:
                closed.add(2)
                yield 2, "FAIL", f"{where}|{lhs!r} - {rhs!r}| above {allowance!r}"
    for j, n in product(range(7), range(1, nmax[1] + 1)):
        approx = sin_moment(j, n, 1e-8)
        # j^n / n! as one int quotient, since float(n!) overflows past n = 170;
        # the float target carries a few ulp of rounding of its own
        target = math.pi / 2 * (j**n / math.factorial(n))
        off = abs(approx.value - target) > approx.err + 1e-15 * target
        if off or approx.err > 1e-8 * max(1.0, target):
            yield 1, "FAIL", f"(j={j}, n={n}): {approx.value!r} vs {target!r}"
            break
    if deferred is not None:
        raise deferred


def _ogf(mmax: int, rmax: int) -> Iterator[str]:
    for r in range(rmax + 1):
        for m in range(mmax + 1):
            # z = 1/d with r <= d <= m + r is a pole of the generating function
            for z in (Fraction(1, d) for d in (100, 50, 2 * (m + r + 1)) if not r <= d <= m + r):
                lhs, rhs = ogf_coefficient_pair(m, r, z)
                if lhs != rhs:
                    yield f"(m={m}, r={r}, z={z}): {lhs} vs {rhs}"


def _egf(nmax: int, rmax: int) -> Iterator[str]:
    for r in range(rmax + 1):
        polys = rbell_polys(nmax, r)
        for x in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)):
            for n, c in enumerate(egf_coeffs(nmax, r, x)):
                fact = math.factorial(n)
                expected = polys[n](x)
                if fact * c != expected:
                    yield f"(n={n}, r={r}, x={x}): n!*c = {fact * c} vs {expected}"


def _kummer(nmax: None, rmax: None) -> Iterator[str]:
    tol = 1e-10
    for a in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for b in (Fraction(3, 2), Fraction(2), Fraction(3)):
            for x in (Fraction(-2), Fraction(-1, 2), Fraction(1, 2), Fraction(2)):
                residual = kummer_residual(a, b, x, tol)
                if residual.value > residual.err + tol:
                    yield f"(a={a}, b={b}, x={x}): residual {residual!r}"


# ---------------------------------------------------------------------------
# root structure and the maximizing index


def _real_rootedness(nmax: int, rmax: int) -> Iterator[str]:
    for n, r in _points(nmax, rmax, n_from=1):
        report = real_rootedness_report(n, r)
        if report != ((n, n, False) if r >= 1 else (n, n - 1, True)):
            yield f"(n={n}, r={r}): {report}"


def _maximizing_index(nmax: int, rmax: int) -> Iterator[str]:
    for r in range(rmax + 1):
        for n, report in enumerate(max_indices(nmax, r), start=1):
            ks = report.maximizers
            if ks != tuple(range(ks[0], ks[0] + len(ks))):
                yield f"(n={n}, r={r}): maximizers {ks} not consecutive"
            if not report.bound_holds:
                yield f"(n={n}, r={r}): no maximizer within 1 of {report.ratio_estimate}"


# ---------------------------------------------------------------------------
# oracle


def _oracle(nmax: int, rmax: int) -> Iterator[tuple[int, str, str]]:
    """Two checks from one enumeration: the enumerated counts against the
    library, then B_{n,r} increasing in r over the enumerated totals.  Only
    n + r <= 12 is enumerated, by one walk of the restricted growth strings
    for the whole grid (oracle.enumerate_grid): each point is the subtree
    below the staircase 0, 1, ..., r-1, walked a level at a time with one
    byte per prefix, and the default grid visits each of the 820,987
    nonempty strings of length at most 11 once.  The library side is row
    n + r of one r-Stirling walk per r, stopping at row 12, and its sum.  The
    points are compared in scan order, and the first mismatch of counts
    (check 0) ends the totals that the monotonicity check (check 1) reads."""
    nmax, rmax = min(nmax, 12), min(rmax, 12)
    points = [(n, r) for n, r in _points(nmax, rmax) if n + r <= 12]
    counts = enumerate_grid(points).counts
    rows = (row for r in range(rmax + 1) for row in stirling_rows(2, r, min(nmax + r, 12)))
    totals = {}  # in scan order, r outer
    for (n, r), row in zip(points, rows):
        found = counts[n, r]
        totals[n, r] = found.total
        if found.total != (expected := sum(row)):
            yield 0, "FAIL", f"(n={n}, r={r}): enumerated {found.total} vs {expected}"
            break
        wrong = [(k, count) for k, count in found.by_blocks.items() if count != row[k - r]]
        if wrong:
            k, count = wrong[0]
            yield 0, "FAIL", f"(n={n}, r={r}, k={k}): enumerated {count} vs {row[k - r]}"
            break
    for (n, r), lower in totals.items():
        upper = totals.get((n, r + 1))
        if upper is not None and upper < lower:
            yield 1, "FAIL", f"(n={n}, r={r}): {upper} < {lower}"


# ---------------------------------------------------------------------------
# the check table


class _Check(NamedTuple):
    """One row: its suite, the names of its checks in report order, its scan,
    and its grid.  nmax and rmax are the defaults the user's --nmax/--rmax
    replace, None for an axis the row does not scan; a row that reports
    checks on different n grids has a tuple of nmax defaults, each resolved
    alone.  n_cap bounds the resolved nmax."""

    suite: str
    names: tuple[str, ...]
    scan: Callable
    nmax: int | tuple[int, ...] | None
    rmax: int | None
    n_cap: int | None = None


# Rows are in report order; a suite's rows are contiguous.  Four rows scan
# for several checks at once: definitions, carlitz, integral and oracle.
_CHECKS = (
    _Check("definitions",
           ("explicit-formula", "stirling-row-sums", "cross-r-stirling", "stirling-log-concavity"),
           _definitions, 12, 8),
    _Check("definitions", ("number-table",), _number_table, None, None),
    _Check("definitions", ("polynomial-formulas",), _polynomial_formulas, None, 8),
    _Check("definitions", ("bell-addition",), _bell_addition, 10, None),
    _Check("definitions", ("horizontal-gf",), _horizontal, 12, 8),
    _Check("recurrences", ("route-agreement",), _route_agreement, 12, 8),
    _Check("recurrences", ("derivative-relation",), _derivative_relation, 12, 8),
    _Check("recurrences", ("monic-shape",), _monic_shape, 12, 8),
    _Check("recurrences", ("whitehead-step",), _whitehead, 12, 8),
    _Check("recurrences", ("bell-shift",), _bell_shift, 12, None),
    _Check("recurrences", ("cross-r-printed-form",), _erratum, None, None),
    _Check("carlitz", ("carlitz-compose", "carlitz-inverse", "carlitz-roundtrip"), _carlitz, 10, 6),
    _Check("transforms", ("transform-roundtrip",), _transform_roundtrip, 10, 6),
    _Check("transforms", ("poly-binomial-relations",), _poly_transform_relations, 10, 6),
    _Check("transforms", ("layman-hankel",), _layman, None, 6),
    _Check("transforms", ("hankel-products",), _hankel_products, None, 6),
    _Check("transforms", ("log-convexity",), _log_convexity, 12, 8),
    # Without its cap, cigler at --nmax 14 --rmax 9 takes 0.66-1.08 s instead of
    # 0.015-0.026 s (Python 3.11, 2 vCPUs, cold process).
    _Check("cigler", ("cigler-determinants",), _cigler, 5, 4, n_cap=6),
    _Check("dobinski", ("dobinski-enclosure",), _dobinski, 15, 6),
    _Check("integral", ("cesaro-integral", "sin-moment", "compelling-identity"), _integral, (8, 6), 4),
    _Check("ogf", ("ogf-coefficient-pair",), _ogf, 10, 6),
    _Check("ogf", ("egf-coefficients",), _egf, 12, 6),
    _Check("kummer", ("kummer-transformation",), _kummer, None, None),
    _Check("roots", ("real-rootedness",), _real_rootedness, 15, 8),
    _Check("maxindex", ("maximizing-index",), _maximizing_index, 30, 10),
    _Check("oracle", ("oracle-totals", "oracle-monotonicity"), _oracle, 12, 12),
)


def _axis(default, given: int | None, cap: int | None = None):
    if default is None:
        return None
    if isinstance(default, tuple):
        return tuple(_axis(d, given, cap) for d in default)
    value = default if given is None else given
    return value if cap is None else min(value, cap)


def _run_rows(suite: str, nmax: int | None, rmax: int | None) -> list[CheckResult]:
    """Run every row of one suite, keeping the first counterexample of each
    check: a check with none passes.  A row's scan is closed as soon as each
    of its checks has one."""
    results = []
    for check in _CHECKS:
        if check.suite != suite:
            continue
        first = {}  # check index -> its result
        scan = check.scan(_axis(check.nmax, nmax, check.n_cap), _axis(check.rmax, rmax))
        for found in scan:
            i, status, detail = (0, "FAIL", found) if isinstance(found, str) else found
            first.setdefault(i, CheckResult(check.names[i], status, detail))
            if len(first) == len(check.names):
                scan.close()
        results += [first.get(i, CheckResult(name, "PASS")) for i, name in enumerate(check.names)]
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
