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
# reference s; algebra-pooled, where cocycles runs: 22.6 -> 1.9), and the
# slowest criterion (6) now takes about 3.6 s, so no criterion keeps more
# than 60 s.


def check(number, budget_s, names, cfg=DEFAULTS):
    start = time.monotonic()
    reports = run_suites(list(names), cfg)
    elapsed = time.monotonic() - start
    ok = all(r.ok for r in reports)
    cases = sum(r.cases for r in reports)
    passed = sum(r.passed for r in reports)
    print(
        f"criterion {number}: {'PASS' if ok else 'FAIL'} "
        f"({passed}/{cases} cases, {elapsed:.1f}s of {budget_s}s)"
    )
    assert ok, f"criterion {number}: {cases - passed} failing cases"
    assert elapsed < budget_s, f"criterion {number}: over budget at {elapsed:.1f}s"
    return reports


def test_criterion_01_symbol_algebra_axioms():
    # associativity, Jacobi, trace on brackets, order <= 1 closure; floor -7/2
    check(1, 60, ["psido-axioms"])


def test_criterion_02_transform_suite():
    # homomorphism, both round trips, Euler intertwining, trace pullback,
    # plus the time-shift machinery the transform factors through
    check(2, 60, ["theta", "timeshift"])


def test_criterion_03_embedding_defect_order():
    check(3, 30, ["lemma26"])


def test_criterion_04_invariance_and_expansions():
    check(4, 60, ["lemma33"])


def test_criterion_05_momentum_homomorphism():
    check(5, 60, ["theorem51"])


def test_criterion_06_coadjoint_slice():
    # includes the built-in negative control at the wrong central charge
    reports = check(6, 60, ["theorem61"])
    labels = [f.inputs for f in reports[0].failures]
    assert labels == [], labels


def test_criterion_07_weighted_representations():
    check(7, 60, ["dpi-rep", "dsigma-rep"])


def test_criterion_08_hamiltonian_layer():
    check(8, 60, ["poisson-lemma71"])


def test_criterion_09_central_term_suite():
    check(9, 60, ["cocycles"])


def test_criterion_10_deformation_scan():
    reports = check(10, 60, ["nu-scan"])
    notes = reports[0].notes
    # the table itself is the artifact: a header plus one row per grid point,
    # each row either a fitted weight or an explicit NO-FIT
    assert notes[0] == "nu -> mu"
    assert len(notes) == 6
    assert "  0 -> 0" in notes  # the undeformed fit is exactly zero
