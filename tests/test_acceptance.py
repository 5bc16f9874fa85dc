"""Acceptance gate: ten exact-arithmetic criteria, one test each.

Every criterion runs the relevant verification suites at their
contractual configuration and demands two things: all cases pass,
and the wall time stays inside the stated budget.  Each test prints
a single criterion line (visible under pytest -s) so a log of this
module reads as the acceptance report.
"""

import time

from svpsido.suites import VerifyConfig, run_suites

DEFAULTS = VerifyConfig()

# Budgets only tighten.  The benchmark's run_s medians fell from BENCH_2 to
# BENCH_5 (duality, where theorem61 and poisson-lemma71 run: 42.3 -> 4.8
# reference s; algebra-pooled, where cocycles runs: 22.6 -> 1.9) and on to
# BENCH_31 (duality 0.66, algebra-pooled 0.45 reference s for their three
# and four suites).  Each criterion now takes 0.0 to 0.4 s, and a shared
# host runs pure-Python code up to 80 % slower for seconds at a time, so
# one budget of 5 s keeps a margin of more than ten over the slowest.
BUDGET_S = 5


def check(number, names, cfg=DEFAULTS):
    start = time.monotonic()
    reports = run_suites(list(names), cfg)
    elapsed = time.monotonic() - start
    ok = all(r.ok for r in reports)
    cases = sum(r.cases for r in reports)
    passed = sum(r.passed for r in reports)
    print(
        f"criterion {number}: {'PASS' if ok else 'FAIL'} "
        f"({passed}/{cases} cases, {elapsed:.1f}s of {BUDGET_S}s)"
    )
    assert ok, f"criterion {number}: {cases - passed} failing cases"
    assert elapsed < BUDGET_S, f"criterion {number}: over budget at {elapsed:.1f}s"
    return reports


def test_criterion_01_symbol_algebra_axioms():
    # associativity, Jacobi, trace on brackets, order <= 1 closure; floor -7/2
    check(1, ["psido-axioms"])


def test_criterion_02_transform_suite():
    # homomorphism, both round trips, Euler intertwining, trace pullback,
    # plus the time-shift machinery the transform factors through
    check(2, ["theta", "timeshift"])


def test_criterion_03_embedding_defect_order():
    check(3, ["lemma26"])


def test_criterion_04_invariance_and_expansions():
    check(4, ["lemma33"])


def test_criterion_05_momentum_homomorphism():
    check(5, ["theorem51"])


def test_criterion_06_coadjoint_slice():
    # includes the built-in negative control at the wrong central charge
    reports = check(6, ["theorem61"])
    labels = [f.inputs for f in reports[0].failures]
    assert labels == [], labels


def test_criterion_07_weighted_representations():
    check(7, ["dpi-rep", "dsigma-rep"])


def test_criterion_08_hamiltonian_layer():
    check(8, ["poisson-lemma71"])


def test_criterion_09_central_term_suite():
    check(9, ["cocycles"])


def test_criterion_10_deformation_scan():
    reports = check(10, ["nu-scan"])
    notes = reports[0].notes
    # the table itself is the artifact: a header plus one row per grid point,
    # each row either a fitted weight or an explicit NO-FIT
    assert notes[0] == "nu -> mu"
    assert len(notes) == 6
    assert "  0 -> 0" in notes  # the undeformed fit is exactly zero
