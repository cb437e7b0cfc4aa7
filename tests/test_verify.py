"""Tests for the verification-suite plumbing."""

from fractions import Fraction

import pytest

from rbell import transforms, verify
from rbell.algebra import ApproxReal, IntPolynomial
from rbell.analytic import cesaro_integral, max_index, real_rootedness_report
from rbell.cli import main
from rbell.errors import ConvergenceError, DomainError
from rbell.oracle import enumerate_grid, enumerate_restricted_partitions
from rbell.verify import SUITES, CheckResult, run_suite


def test_check_result_shape():
    res = CheckResult("demo", "PASS")
    assert res.detail == ""
    with pytest.raises(AttributeError):
        res.status = "FAIL"


@pytest.mark.parametrize(
    "record",
    [
        ApproxReal(1.5, 0.25),
        cesaro_integral(2, 2, 1e-8),
        max_index(3, 2),
        real_rootedness_report(3, 2),
        enumerate_restricted_partitions(2, 1),
        enumerate_grid([(2, 1)]),
        CheckResult("demo", "FAIL", "detail"),
    ],
    ids=lambda record: type(record).__name__,
)
def test_result_records_are_immutable_named_tuples(record):
    fields = record._fields
    assert tuple(record) == tuple(getattr(record, name) for name in fields)
    assert record._replace() == record
    assert repr(record) == (
        f"{type(record).__name__}("
        + ", ".join(f"{name}={getattr(record, name)!r}" for name in fields) + ")"
    )
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_registry_names():
    assert set(SUITES) == {
        "definitions",
        "recurrences",
        "carlitz",
        "transforms",
        "cigler",
        "dobinski",
        "integral",
        "ogf",
        "kummer",
        "roots",
        "maxindex",
        "oracle",
    }


def test_unknown_suite():
    with pytest.raises(DomainError):
        run_suite("nonsense")


def test_each_suite_passes_on_small_grids():
    for name in SUITES:
        for check in run_suite(name, nmax=5, rmax=3):
            assert check.status in ("PASS", "KNOWN-ERRATUM"), (name, check)


def test_recurrences_reports_the_erratum():
    results = run_suite("recurrences", nmax=4, rmax=3)
    by_name = {check.name: check for check in results}
    erratum = by_name["cross-r-printed-form"]
    assert erratum.status == "KNOWN-ERRATUM"
    assert "3" in erratum.detail and "10" in erratum.detail
    others = [check for check in results if check.name != "cross-r-printed-form"]
    assert all(check.status == "PASS" for check in others)


def test_all_aggregates_every_suite():
    results = run_suite("all", nmax=4, rmax=2)
    names = {check.name for check in results}
    assert "oracle-totals" in names
    assert "maximizing-index" in names
    assert "dobinski-enclosure" in names
    assert not any(check.status == "FAIL" for check in results)


@pytest.mark.parametrize("suite", [suite for suite in SUITES if suite != "oracle"])
def test_suite_passes_on_a_wide_grid(suite):
    # past every default; the oracle enumerates no point past n + r = 12
    failed = [check for check in run_suite(suite, nmax=30, rmax=16) if check.status == "FAIL"]
    assert failed == []


def test_runs_are_deterministic():
    a = run_suite("definitions", nmax=5, rmax=3)
    b = run_suite("definitions", nmax=5, rmax=3)
    assert a == b


# ---------------------------------------------------------------------------
# FAIL paths: a check fed one wrong library value reports the first
# counterexample of its scan order, and the CLI then exits 1.  The patches
# replace the names rbell.verify reads at call time.


def _at(point, change):
    """Patch maker: call the real function, and where its arguments equal
    point, pass the result through change."""

    def make(original):
        def fake(*args):
            value = original(*args)
            return change(value) if args == point else value

        return fake

    return make


def _raise_once(point, exc):
    """Patch maker: raise exc on the first call with arguments point."""

    def make(original):
        raised = []

        def fake(*args):
            if args == point and not raised:
                raised.append(args)
                raise exc
            return original(*args)

        return fake

    return make


def _counts_at(point, change):
    """Patch maker for the oracle's grid walk: call the real walk and pass
    its counts at point through change."""

    def make(original):
        def fake(points):
            walk = original(points)
            counts = {**walk.counts, point: change(walk.counts[point])}
            return walk._replace(counts=counts)

        return fake

    return make


def _plus(delta):
    return lambda value: value + delta


def _const(value):
    return lambda _: value


def _bump_last(values):
    return values[:-1] + [values[-1] + 1]


def _entry(index, change):
    """Pass entry index of a row tuple or a list through change."""
    return lambda row: type(row)((*row[:index], change(row[index]), *row[index + 1:]))


def _move(src, dst):
    """Move one unit from entry src of a row tuple to entry dst, keeping the
    row's sum."""
    return lambda row: _entry(dst, _plus(1))(_entry(src, _plus(-1))(row))


def _row_at(point, change):
    """Patch maker for stirling_rows: in every walk of (kind, r), row n
    passes through change, point = (kind, n, r)."""

    def make(original):
        def fake(kind, r, n_max, width=None):
            for n, row in enumerate(original(kind, r, n_max, width), start=r):
                yield change(row) if (kind, n, r) == point else row

        return fake

    return make


def _fail(name, detail):
    return CheckResult(name, "FAIL", detail)


def _run_patched(monkeypatch, patches, call):
    with monkeypatch.context() as m:
        for name, make in patches.items():
            m.setattr(verify, name, make(getattr(verify, name)))
        return call()


def _grid_flags(nmax, rmax):
    flags = []
    if nmax is not None:
        flags += ["--nmax", str(nmax)]
    if rmax is not None:
        flags += ["--rmax", str(rmax)]
    return flags


G = (4, 3)
ONE = Fraction(1)

FAIL_CASES = [
    pytest.param(
        "definitions", G, {"stirling2r_explicit": _at((2, 1, 1), _plus(1))},
        _fail("explicit-formula", "(n=2, k=1, r=1): recurrence 3 vs alternating sum 4"),
        id="explicit-formula",
    ),
    pytest.param(
        "definitions", G,
        {"rbell_table": lambda f: lambda n, r: [
            [b + (1 if (i, j) == (1, 3) else 0) for j, b in enumerate(row)]
            for i, row in enumerate(f(n, r))
        ]},
        _fail("stirling-row-sums", "(n=3, r=1): row sum 15 vs B = 16"),
        id="stirling-row-sums",
    ),
    pytest.param(
        "definitions", G, {"stirling_rows": _row_at((2, 4, 2), _entry(1, _plus(1)))},
        _fail("cross-r-stirling", "(n=2, k=1, r=2): 6 vs 5"),
        id="cross-r-stirling",
    ),
    pytest.param(
        "definitions", G, {"stirling_rows": _row_at((2, 3, 0), _entry(2, _const(0)))},
        _fail("stirling-log-concavity", "(n=3, k=2, r=0): 0 < 1"),
        id="stirling-log-concavity",
    ),
    pytest.param(
        "definitions", G, {"rbell_table": lambda f: lambda n, r: f(n, r)[:-1]},
        _fail("number-table", "7x7 table differs from the reference values"),
        id="number-table",
    ),
    pytest.param(
        "definitions", G, {"rbell_table": lambda f: lambda n, r: f(n, r)[:-1]},
        _fail("stirling-row-sums", "(n=0, r=3): rbell_table has no entry B_{n,r}"),
        id="stirling-row-sums-short-table",
    ),
    pytest.param(
        # entry 3 of r = 1's polynomials n <= 4 is B_{3,1}
        "definitions", G, {"rbell_polys": _at((4, 1), _entry(3, _plus(1)))},
        _fail(
            "polynomial-formulas",
            "(n=3, r=1): IntPolynomial([2, 7, 6, 1]) vs closed form IntPolynomial([1, 7, 6, 1])",
        ),
        id="polynomial-formulas",
    ),
    pytest.param(
        "definitions", G, {"binomial": _at((2, 1), _plus(1))},
        _fail("bell-addition", "(n=2, x=1/2, y=1/2): 2 vs 9/4"),
        id="bell-addition",
    ),
    pytest.param(
        "definitions", G,
        {"horizontal_checks": _at((4, 1), _entry(2, _plus(IntPolynomial([0, 1]))))},
        _fail("horizontal-gf", "(n=2, r=1): residual IntPolynomial([0, 1])"),
        id="horizontal-gf",
    ),
    pytest.param(
        "recurrences", G, {"cross_r_steps": _at((4, 1), _entry(2, _plus(1)))},
        _fail(
            "route-agreement",
            "(n=2, r=1): cross-r division gives IntPolynomial([2, 3, 1]), "
            "direct IntPolynomial([1, 3, 1])",
        ),
        id="route-agreement",
    ),
    pytest.param(
        "recurrences", G, {"rbell_polys": _at((5, 2), _entry(3, _plus(1)))},
        _fail(
            "derivative-relation",
            "(n=2, r=2): IntPolynomial([0, 5, 2]) vs IntPolynomial([1, 5, 2])",
        ),
        id="derivative-relation",
    ),
    pytest.param(
        "recurrences", G, {"rbell_polys": _at((4, 1), _entry(2, _plus(IntPolynomial([0, 0, 1]))))},
        _fail("monic-shape", "(n=2, r=1): IntPolynomial([1, 3, 2]) not monic of degree n"),
        id="monic-shape-leading",
    ),
    pytest.param(
        "recurrences", G, {"rbell_polys": _at((4, 3), _entry(2, _plus(1)))},
        _fail("monic-shape", "(n=2, r=3): constant term 10 vs r^n = 9"),
        id="monic-shape-constant",
    ),
    pytest.param(
        "recurrences", G, {"whitehead_steps": _at((4, 1), _entry(1, _plus(1)))},
        _fail("whitehead-step", "(n=1, r=1): 6 vs 5"),
        id="whitehead-step",
    ),
    pytest.param(
        "recurrences", G, {"whitehead_row_sum": _at((3,), _plus(-1))},
        _fail("whitehead-step", "row sum at n=3: 12 vs 13"),
        id="whitehead-step-row-sum",
    ),
    pytest.param(
        "recurrences", G, {"rbell_numbers": _at((4, 1), _entry(4, _plus(1)))},
        _fail("bell-shift", "n=4"),
        id="bell-shift",
    ),
    pytest.param(
        "recurrences", G,
        {"cross_r_printed": lambda f: lambda n, r: verify.rbell_poly(n, r)},
        _fail(
            "cross-r-printed-form",
            "expected the printed simplified form to disagree and the division form to "
            "agree; got printed IntPolynomial([4, 5, 1]), corrected IntPolynomial([4, 5, 1]), "
            "actual IntPolynomial([4, 5, 1])",
        ),
        id="cross-r-printed-form",
    ),
    pytest.param(
        # G's n + m <= 4 gives n = 1 the list m = 0..3; entry 2 is m = 2
        "carlitz", G, {"carlitz_compositions": _at((1, 3, 2), _entry(2, _plus(1)))},
        _fail("carlitz-compose", "(n=1, m=2, r=2): 38 vs B = 37"),
        id="carlitz-compose",
    ),
    pytest.param(
        "carlitz", G, {"carlitz_inversions": _at((2, 2, 1), _entry(1, _plus(1)))},
        _fail("carlitz-inverse", "(n=2, m=1, r=1): 11 vs B = 10"),
        id="carlitz-inverse",
    ),
    pytest.param(
        "carlitz", G, {"stirling_rows": _row_at((2, 3, 1), _entry(2, _plus(1)))},
        _fail("carlitz-roundtrip", "(n=0, m=2, r=1): 6 vs 5"),
        id="carlitz-roundtrip",
    ),
    pytest.param(
        "transforms", G,
        {"binomial_transform": lambda f: lambda s: _bump_last(f(s)) if s[1] == 1 else f(s)},
        _fail("transform-roundtrip", "r=0"),
        id="transform-roundtrip",
    ),
    pytest.param(
        "transforms", G,
        {
            "inverse_binomial_transform":
                lambda f: lambda s: _bump_last(f(s)) if s[1] == 3 else f(s)
        },
        _fail("transform-roundtrip", "r=2 (reverse order)"),
        id="transform-roundtrip-reverse",
    ),
    pytest.param(
        "transforms", G, {"rbell_polys": _at((4, 2), _entry(3, _plus(1)))},
        _fail("poly-binomial-relations", "r=1: inverse transform"),
        id="poly-binomial-relations",
    ),
    pytest.param(
        "transforms", G, {"rbell_numbers": _at((10, 3), _entry(4, _plus(1)))},
        _fail("layman-hankel", "(r=2, size=3): 2 vs 3"),
        id="layman-hankel",
    ),
    pytest.param(
        # 1, 3, 9, 27, ... has a zero 2 x 2 Hankel minor, which ends the
        # elimination of B_{.,2} at r = 1
        "transforms", G, {"rbell_numbers": _at((10, 2), lambda s: [3**i for i in range(len(s))])},
        _fail("layman-hankel", "(r=1): leading 2x2 minor is zero; cannot eliminate"),
        id="layman-hankel-zero-minor",
    ),
    pytest.param(
        "transforms", G, {"hankel_transform_rbell": _at((3, 5), _bump_last)},
        _fail("hankel-products", "r=3: [1, 1, 2, 12, 288, 34561] vs [1, 1, 2, 12, 288, 34560]"),
        id="hankel-products",
    ),
    pytest.param(
        "transforms", G, {"log_convexity_check": lambda f: lambda s: f(s) and s[1] != 3},
        _fail("log-convexity", "r=2"),
        id="log-convexity",
    ),
    pytest.param(
        "cigler", G, {"cigler_minors": _at((4, 1, 1), _entry(1, _plus(1)))},
        _fail(
            "cigler-determinants",
            "(n=2, k=1, r=1): IntPolynomial([1, 2, 2, 1]) vs IntPolynomial([0, 2, 2, 1])",
        ),
        id="cigler-determinants",
    ),
    pytest.param(
        "dobinski", G,
        {"dobinski_eval": _at((2, 1, ONE, 1e-9), lambda a: ApproxReal(a.value + 1, a.err))},
        _fail(
            "dobinski-enclosure",
            "(n=2, r=1, x=1): ApproxReal(value=5.999999999922543, err=1.4404427537291323e-10) "
            "does not enclose 5",
        ),
        id="dobinski-enclosure",
    ),
    pytest.param(
        "dobinski", G,
        {"dobinski_eval": _at((3, 2, Fraction(2), 1e-9), lambda a: ApproxReal(a.value, 1.0))},
        _fail("dobinski-enclosure", "(n=3, r=2, x=2): err 1.0 above tol * max(1, exact)"),
        id="dobinski-enclosure-tol",
    ),
    pytest.param(
        "integral", G,
        {"cesaro_integral": _raise_once((3, 1, 1e-8), ConvergenceError("refinement cap"))},
        _fail("cesaro-integral", "(n=3, r=1): refinement cap"),
        id="cesaro-integral-convergence",
    ),
    pytest.param(
        "integral", G, {"rbell_numbers": _at((4, 3), _entry(2, _plus(1)))},
        _fail("cesaro-integral", "(n=2, r=3): 16.999999999840597 vs exact 18"),
        id="cesaro-integral",
    ),
    pytest.param(
        "integral", G,
        {"sin_moment": _at((3, 2, 1e-8), lambda a: ApproxReal(a.value + 1e-6, a.err))},
        _fail("sin-moment", "(j=3, n=2): 7.068584470533191 vs 7.0685834705770345"),
        id="sin-moment",
    ),
    pytest.param(
        "integral", G,
        {"dobinski_series_sum": _at((2, 1, 1, 1e-9), lambda a: ApproxReal(a.value + 1e-6, a.err))},
        _fail(
            "compelling-identity",
            "(n=2, r=1): |13.591410142084674 - 13.591409142185743| above 3.7003383035584883e-09",
        ),
        id="compelling-identity",
    ),
    pytest.param(
        "ogf", G,
        {"ogf_coefficient_pair": _at((2, 1, Fraction(1, 50)), lambda p: (p[0], p[1] + 1))},
        _fail("ogf-coefficient-pair", "(m=2, r=1, z=1/50): 25/55272 vs 55297/55272"),
        id="ogf-coefficient-pair",
    ),
    pytest.param(
        "ogf", G,
        {"egf_coeffs": _at((4, 1, Fraction(1, 2)), lambda c: c[:3] + [c[3] + 1] + c[4:])},
        _fail("egf-coefficients", "(n=3, r=1, x=1/2): n!*c = 97/8 vs 49/8"),
        id="egf-coefficients",
    ),
    pytest.param(
        "kummer", G,
        {"kummer_residual": _at((ONE, Fraction(2), Fraction(-1, 2), 1e-10),
                                _const(ApproxReal(1.0, 0.0)))},
        _fail(
            "kummer-transformation",
            "(a=1, b=2, x=-1/2): residual ApproxReal(value=1.0, err=0.0)",
        ),
        id="kummer-transformation",
    ),
    pytest.param(
        "roots", G,
        {"real_rootedness_report": _at((3, 2), lambda rep: rep._replace(distinct_neg_roots=2))},
        _fail(
            "real-rootedness",
            "(n=3, r=2): RootednessReport(degree=3, distinct_neg_roots=2, root_at_zero=False)",
        ),
        id="real-rootedness",
    ),
    pytest.param(
        "roots", G,
        {"real_rootedness_report": _at((2, 0), lambda rep: rep._replace(root_at_zero=False))},
        _fail(
            "real-rootedness",
            "(n=2, r=0): RootednessReport(degree=2, distinct_neg_roots=1, root_at_zero=False)",
        ),
        id="real-rootedness-r0",
    ),
    pytest.param(
        "maxindex", G,
        {"max_indices": _at((4, 2), _entry(2, lambda rep: rep._replace(maximizers=(2, 4))))},
        _fail("maximizing-index", "(n=3, r=2): maximizers (2, 4) not consecutive"),
        id="maximizing-index",
    ),
    pytest.param(
        "maxindex", G,
        {"max_indices": _at((4, 1), _entry(3, lambda rep: rep._replace(bound_holds=False)))},
        _fail("maximizing-index", "(n=4, r=1): no maximizer within 1 of 99/52"),
        id="maximizing-index-bound",
    ),
    pytest.param(
        "oracle", G,
        {"enumerate_grid":
            _counts_at((2, 1), lambda c: c._replace(total=c.total + 1))},
        _fail("oracle-totals", "(n=2, r=1): enumerated 6 vs 5"),
        id="oracle-totals",
    ),
    pytest.param(
        # row 4 of r = 1 keeps its sum, so only the block counts disagree
        "oracle", G, {"stirling_rows": _row_at((2, 4, 1), _move(2, 1))},
        _fail("oracle-totals", "(n=3, r=1, k=2): enumerated 7 vs 8"),
        id="oracle-totals-blocks",
    ),
    pytest.param(
        "oracle", G,
        # the enumeration and row 4 of r = 2 agree on B_{2,2} = 1
        {
            "enumerate_grid": _counts_at(
                (2, 2), lambda c: c._replace(by_blocks={2: 1, 3: 0, 4: 0}, total=1)),
            "stirling_rows": _row_at((2, 4, 2), _const((1, 0, 0))),
        },
        _fail("oracle-monotonicity", "(n=2, r=1): 1 < 5"),
        id="oracle-monotonicity",
    ),
    pytest.param(
        # (1, 5) is counted only below the staircase 0, 1, 2, 3, 4
        "oracle", (2, 6),
        {"enumerate_grid": _counts_at((1, 5), lambda c: c._replace(
            by_blocks={**c.by_blocks, 6: c.by_blocks[6] + 1}))},
        _fail("oracle-totals", "(n=1, r=5, k=6): enumerated 2 vs 1"),
        id="oracle-totals-below-staircase",
    ),
]


@pytest.mark.parametrize("suite, grid, patches, expected", FAIL_CASES)
def test_check_reports_its_first_counterexample(
    monkeypatch, capsys, suite, grid, patches, expected
):
    results = _run_patched(monkeypatch, patches, lambda: run_suite(suite, *grid))
    assert [check for check in results if check.name == expected.name] == [expected]

    argv = ["verify", "--suite", suite, *_grid_flags(*grid)]
    code = _run_patched(monkeypatch, patches, lambda: main(argv))
    out = capsys.readouterr().out
    assert code == 1
    assert f"{expected.name}: FAIL ({expected.detail})\n" in out


def test_every_check_has_a_fail_case():
    names = {case.values[3].name for case in FAIL_CASES}
    assert names == {check.name for check in run_suite("all", 2, 1)}


def test_oracle_monotonicity_sees_only_totals_before_the_first_mismatch(monkeypatch):
    # the count mismatch at (3, 1) ends the scan, so the total corrupted at
    # (2, 2), later in scan order, never reaches the monotonicity check
    patches = {
        "stirling_rows": _row_at((2, 4, 1), _move(2, 1)),
        "enumerate_grid": _counts_at((2, 2), lambda c: c._replace(total=1)),
    }
    results = _run_patched(monkeypatch, patches, lambda: run_suite("oracle", *G))
    assert results == [
        _fail("oracle-totals", "(n=3, r=1, k=2): enumerated 7 vs 8"),
        CheckResult("oracle-monotonicity", "PASS"),
    ]


def test_carlitz_scan_builds_one_table_and_each_inverse_once(monkeypatch):
    # the default grid has 7 * 11 pairs (r <= 6, n <= 10), each reading one
    # list of inversions, which serves both the inverse and the roundtrip check
    calls = {"carlitz_inversions": 0, "rbell_table": 0}

    def counting(name):
        def make(original):
            def fake(*args):
                calls[name] += 1
                return original(*args)

            return fake

        return make

    patches = {name: counting(name) for name in calls}
    results = _run_patched(monkeypatch, patches, lambda: run_suite("carlitz"))
    assert all(check.status == "PASS" for check in results)
    assert calls == {"carlitz_inversions": 77, "rbell_table": 1}


def test_carlitz_checks_keep_their_own_first_counterexample(monkeypatch):
    # one scan compares all three checks; a wrong value one check reads does
    # not end the others
    patches = {
        "carlitz_compositions": _at((1, 3, 2), _entry(2, _plus(1))),
        "stirling_rows": _row_at((2, 3, 1), _entry(2, _plus(1))),
    }
    results = _run_patched(monkeypatch, patches, lambda: run_suite("carlitz", *G))
    assert results == [
        _fail("carlitz-compose", "(n=1, m=2, r=2): 38 vs B = 37"),
        CheckResult("carlitz-inverse", "PASS"),
        _fail("carlitz-roundtrip", "(n=0, m=2, r=1): 6 vs 5"),
    ]


def test_definitions_checks_keep_their_own_first_counterexample(monkeypatch):
    # one scan compares all four row checks; a wrong value one check reads
    # does not end the others, and the alternating sum is not computed past
    # explicit-formula's first counterexample: 15 points (n, k) of r = 0 and
    # 5 of r = 1 up to (n=2, k=1, r=1)
    seen = []
    patches = {
        "stirling2r_explicit": _counted(seen, _at((2, 1, 1), _plus(1))),
        "rbell_table": lambda f: lambda n, r: [
            [b + (1 if (i, j) == (0, 3) else 0) for j, b in enumerate(row)]
            for i, row in enumerate(f(n, r))
        ],
    }
    results = _run_patched(monkeypatch, patches, lambda: run_suite("definitions", *G))
    assert results[:4] == [
        _fail("explicit-formula", "(n=2, k=1, r=1): recurrence 3 vs alternating sum 4"),
        _fail("stirling-row-sums", "(n=3, r=0): row sum 5 vs B = 6"),
        CheckResult("cross-r-stirling", "PASS"),
        CheckResult("stirling-log-concavity", "PASS"),
    ]
    assert len(seen) == 20


def _counted(seen, make=None):
    """Patch maker: the patch make builds (or the real function), with each
    call's arguments appended to seen."""

    def wrap(original):
        patched = make(original) if make else original

        def fake(*args):
            seen.append(args)
            return patched(*args)

        return fake

    return wrap


def _origin_reads(value):
    """Patch maker for rbell_table: B_{0,0} reads value."""

    def make(original):
        def fake(*args):
            table = original(*args)
            table[0][0] = value
            return table

        return fake

    return make


@pytest.mark.parametrize(
    "suite, patches, counted, calls, expected",
    [
        # every Carlitz check fails at (n=0, m=0, r=0), so the scan ends at
        # its first (r, n) pair of the 20 at (4, 3)
        pytest.param(
            "carlitz",
            {"rbell_table": _origin_reads(2)},
            "carlitz_compositions",
            1,
            [
                _fail("carlitz-compose", "(n=0, m=0, r=0): 1 vs B = 2"),
                _fail("carlitz-inverse", "(n=0, m=0, r=0): 1 vs B = 2"),
                _fail("carlitz-roundtrip", "(n=0, m=0, r=0): 1 vs 2"),
            ],
            id="carlitz",
        ),
        # 15 points (n, k) of r = 0 and 5 of r = 1 up to (n=2, k=1, r=1)
        pytest.param(
            "definitions",
            {"stirling2r_explicit": _at((2, 1, 1), _plus(1))},
            "stirling2r_explicit",
            20,
            [_fail("explicit-formula", "(n=2, k=1, r=1): recurrence 3 vs alternating sum 4")],
            id="explicit-formula",
        ),
    ],
)
def test_a_scan_ends_once_each_of_its_checks_has_a_counterexample(
    monkeypatch, suite, patches, counted, calls, expected
):
    seen = []
    patches = {**patches, counted: _counted(seen, patches.get(counted))}
    results = _run_patched(monkeypatch, patches, lambda: run_suite(suite, *G))
    assert [check for check in results if check.status == "FAIL"] == expected
    assert len(seen) == calls


@pytest.mark.parametrize("grid", [(0, 0), (1, 0)])
@pytest.mark.parametrize("suite", list(SUITES))
def test_empty_and_tiny_grids_pass_with_every_check(suite, grid):
    # cigler scans no n < 1, and the integral pass no point at all on either
    results = run_suite(suite, *grid)
    assert [check.name for check in results] == [check.name for check in run_suite(suite)]
    assert {check.status for check in results} <= {"PASS", "KNOWN-ERRATUM"}


def test_compelling_identity_reports_a_quadrature_error(monkeypatch, capsys):
    # cesaro_integral raises at (3, 1) on every call: both checks that call it
    # report the error as their counterexample, and the report stays whole
    def make(original):
        def fake(*args):
            if args[:2] == (3, 1):
                raise ConvergenceError("refinement cap")
            return original(*args)

        return fake

    patches = {"cesaro_integral": make}
    expected = [
        _fail("cesaro-integral", "(n=3, r=1): refinement cap"),
        CheckResult("sin-moment", "PASS"),
        _fail("compelling-identity", "(n=3, r=1): refinement cap"),
    ]
    assert _run_patched(monkeypatch, patches, lambda: run_suite("integral", *G)) == expected
    argv = ["verify", "--suite", "integral", *_grid_flags(*G)]
    assert _run_patched(monkeypatch, patches, lambda: main(argv)) == 1
    assert capsys.readouterr().out == (
        "cesaro-integral: FAIL ((n=3, r=1): refinement cap)\n"
        "sin-moment: PASS\n"
        "compelling-identity: FAIL ((n=3, r=1): refinement cap)\n"
        "1 passed, 0 known-errata, 2 failed\n"
    )


@pytest.mark.parametrize("grid, quadratures, moments", [((), 40, 42), ((14, 9), 140, 98)])
def test_integral_scan_computes_each_quadrature_once(monkeypatch, grid, quadratures, moments):
    # cesaro-integral and compelling-identity share one quadrature per point:
    # n = 1..8, r = 0..4 on the default grid; sin-moment scans j <= 6 and
    # n <= 6 by default, or the --nmax given
    calls = {"cesaro_integral": 0, "sin_moment": 0}

    def counting(name):
        def make(original):
            def fake(*args):
                calls[name] += 1
                return original(*args)

            return fake

        return make

    patches = {name: counting(name) for name in calls}
    results = _run_patched(monkeypatch, patches, lambda: run_suite("integral", *grid))
    assert results == [
        CheckResult("cesaro-integral", "PASS"),
        CheckResult("sin-moment", "PASS"),
        CheckResult("compelling-identity", "PASS"),
    ]
    assert calls == {"cesaro_integral": quadratures, "sin_moment": moments}


def _raise_at(point, exc):
    def make(original):
        def fake(*args):
            if args[: len(point)] == point:
                raise exc
            return original(*args)

        return fake

    return make


@pytest.mark.parametrize(
    "patches, message",
    [
        # a float-range error of the Dobinski series, which only
        # compelling-identity reads, waits for the whole cesaro-integral scan
        # and for sin-moment
        (
            {"dobinski_series_sum": _raise_at((2, 1), DomainError("series at (2, 1)")),
             "cesaro_integral": _raise_at((3, 1), DomainError("integral at (3, 1)"))},
            "integral at (3, 1)",
        ),
        (
            {"dobinski_series_sum": _raise_at((2, 1), DomainError("series at (2, 1)")),
             "sin_moment": _raise_at((5, 4), DomainError("moment at (5, 4)"))},
            "moment at (5, 4)",
        ),
        (
            {"dobinski_series_sum": _raise_at((2, 1), DomainError("series at (2, 1)"))},
            "series at (2, 1)",
        ),
        # after cesaro-integral's first counterexample, compelling-identity
        # reads the series before the quadrature
        (
            {"rbell_numbers": _at((4, 0), _entry(1, _plus(1))),
             "dobinski_series_sum": _raise_at((2, 1), DomainError("series at (2, 1)")),
             "cesaro_integral": _raise_at((2, 1), DomainError("integral at (2, 1)"))},
            "series at (2, 1)",
        ),
    ],
)
def test_integral_errors_surface_in_scan_order(monkeypatch, capsys, patches, message):
    argv = ["verify", "--suite", "integral", *_grid_flags(*G)]
    assert _run_patched(monkeypatch, patches, lambda: main(argv)) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "patches, statuses, calls",
    [
        # a quadrature error at (3, 1), the 7th of 16 points, closes both
        # checks of the pass
        (
            {"cesaro_integral": _raise_at((3, 1), ConvergenceError("refinement cap"))},
            ["FAIL", "PASS", "FAIL"],
            (7, 7, 28),
        ),
        # a wrong series at (2, 0), the 2nd point, closes compelling-identity
        (
            {"dobinski_series_sum": _at((2, 0, 1, 1e-9), _const(ApproxReal(0.0, 0.0)))},
            ["PASS", "PASS", "FAIL"],
            (16, 2, 28),
        ),
        # sin-moment stops at its first counterexample, its first point
        (
            {"sin_moment": _at((0, 1, 1e-8), _const(ApproxReal(5.0, 0.0)))},
            ["PASS", "FAIL", "PASS"],
            (16, 16, 1),
        ),
    ],
    ids=["quadrature-error", "series-mismatch", "sin-moment"],
)
def test_integral_computes_nothing_for_a_closed_check(monkeypatch, patches, statuses, calls):
    seen = {name: [] for name in ("cesaro_integral", "dobinski_series_sum", "sin_moment")}
    patches = {name: _counted(seen[name], patches.get(name)) for name in seen}
    results = _run_patched(monkeypatch, patches, lambda: run_suite("integral", *G))
    assert [check.status for check in results] == statuses
    assert tuple(len(seen[name]) for name in seen) == calls


def test_a_range_error_met_for_cesaro_integral_ends_the_run_at_once(monkeypatch, capsys):
    # sin-moment, which would raise later, never runs
    patches = {
        "cesaro_integral": _raise_at((3, 1), DomainError("integral at (3, 1)")),
        "sin_moment": _raise_at((1, 1), DomainError("moment at (1, 1)")),
    }
    argv = ["verify", "--suite", "integral", *_grid_flags(*G)]
    assert _run_patched(monkeypatch, patches, lambda: main(argv)) == 2
    assert capsys.readouterr().err == "error: integral at (3, 1)\n"


def test_cigler_zero_minor_is_a_counterexample(monkeypatch, capsys):
    # B_{0,1} read as 0 makes the k = 0 elimination meet a zero 1x1 minor;
    # at n <= 4 that elimination reads B_{0..6,1}
    zero_at = _at((6, 1), _entry(0, _const(IntPolynomial())))
    monkeypatch.setattr(transforms, "rbell_polys", zero_at(transforms.rbell_polys))
    expected = _fail("cigler-determinants", "(k=0, r=1): leading 1x1 minor is zero; cannot eliminate")
    assert run_suite("cigler", *G) == [expected]
    assert main(["verify", "--suite", "cigler", *_grid_flags(*G)]) == 1
    assert f"cigler-determinants: FAIL ({expected.detail})\n" in capsys.readouterr().out


def test_oracle_grid_past_its_clamp_costs_what_the_clamp_costs():
    # no point with n + r > 12 is enumerated, so none is scanned either
    assert run_suite("oracle", 10**9, 10**9) == run_suite("oracle", 12, 12)


# One check scans less than the grid asks: cigler, n <= 6.  A wrong value
# past its cap goes unseen: the cigler cases corrupt d(n, k) in an
# elimination of the size a scan without the default or the cap would run.  sin-moment and layman-hankel have no cap; their
# cases are named after the caps they once had (n <= 8 and r <= 5) and show
# that a wrong value past them is seen, up to the grid's edge.
CAP_CASES = [
    pytest.param(
        "cigler", (None, None), {"cigler_minors": _at((6, 1, 1), _entry(5, _plus(1)))},
        CheckResult("cigler-determinants", "PASS"),
        id="cigler-default",
    ),
    pytest.param(
        "cigler", (8, 1), {"cigler_minors": _at((8, 1, 1), _entry(6, _plus(1)))},
        CheckResult("cigler-determinants", "PASS"),
        id="cigler-past-cap",
    ),
    pytest.param(
        "cigler", (8, 1), {"cigler_minors": _at((6, 0, 1), _entry(5, _plus(1)))},
        _fail(
            "cigler-determinants",
            "(n=6, k=0, r=1): IntPolynomial([1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 34560]) "
            "vs IntPolynomial([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 34560])",
        ),
        id="cigler-at-cap",
    ),
    pytest.param(
        # B_{4,7} is read as the shifted sequence at r = 6
        "transforms", (4, 7), {"rbell_numbers": _at((10, 7), _entry(4, _plus(1)))},
        _fail("layman-hankel", "(r=6, size=3): 2 vs 3"),
        id="layman-past-cap",
    ),
    pytest.param(
        # B_{4,8} is read only at r = 7, the grid's rmax
        "transforms", (4, 7), {"rbell_numbers": _at((10, 8), _entry(4, _plus(1)))},
        _fail("layman-hankel", "(r=7, size=3): 2 vs 3"),
        id="layman-at-cap",
    ),
    pytest.param(
        "integral", (None, 0),
        {"sin_moment": _at((1, 7, 1e-8), lambda a: ApproxReal(a.value + 1, a.err))},
        CheckResult("sin-moment", "PASS"),
        id="sin-moment-default",
    ),
    pytest.param(
        "integral", (10, 0),
        {"sin_moment": _at((1, 9, 1e-8), lambda a: ApproxReal(a.value + 1, a.err))},
        _fail("sin-moment", "(j=1, n=9): 1.00000432869238 vs 4.328693581335143e-06"),
        id="sin-moment-uncapped",
    ),
    pytest.param(
        "integral", (10, 0),
        {"sin_moment": _at((1, 8, 1e-8), lambda a: ApproxReal(a.value + 1, a.err))},
        _fail("sin-moment", "(j=1, n=8): 1.000038958224214 vs 3.895824223201628e-05"),
        id="sin-moment-at-cap",
    ),
]


@pytest.mark.parametrize("suite, grid, patches, expected", CAP_CASES)
def test_caps_bound_the_scan(monkeypatch, suite, grid, patches, expected):
    results = _run_patched(monkeypatch, patches, lambda: run_suite(suite, *grid))
    assert [check for check in results if check.name == expected.name] == [expected]
