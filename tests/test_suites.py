"""Mechanics of the verification harness itself.

The mathematical content of each suite is covered by the per-module
test files; here the subject is the machinery around them: config
validation, suite selection, failure accounting, report stability,
and the deformation scan table.  Synthetic cases drive the runner
directly so the bookkeeping paths are exercised without burning time
on real algebra.
"""

import multiprocessing
import os
from fractions import Fraction

import pytest

from svpsido.halfint import EXACT, h
from svpsido.ring import GaussRat
from svpsido.suites import (
    SUITE_NAMES,
    VerifyConfig,
    _run_cases,
    _worker_count,
    nu_scan,
    report_json,
    report_text,
    run_suites,
    validate_config,
)

CANONICAL_NAMES = (
    "psido-axioms",
    "theta",
    "timeshift",
    "cocycles",
    "lemma26",
    "lemma33",
    "theorem51",
    "theorem61",
    "dpi-rep",
    "dsigma-rep",
    "poisson-lemma71",
    "nu-scan",
)


def strip_millis(text: str) -> str:
    import re

    return re.sub(r'"millis": \d+', '"millis": 0', text)


class TestConfig:
    def test_suite_names_are_pinned(self):
        # the CLI contract: these tokens, in this order
        assert SUITE_NAMES == CANONICAL_NAMES

    def test_defaults_validate(self):
        validate_config(VerifyConfig())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"floor": EXACT},
            {"floor": h(0)},  # traces above -1 are untrusted
            {"index_range": 0},
            {"index_range": 6},
            {"random_cases": -1},
            {"threads": 0},
        ],
    )
    def test_bad_configs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            validate_config(VerifyConfig(**kwargs))

    def test_unknown_suite_name(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suites(["lemma27"], VerifyConfig())


class TestRunner:
    """Drive _run_cases with synthetic thunks to pin the bookkeeping."""

    def test_failure_listing_is_capped_but_counts_are_not(self):
        cases = [(f"case {k}", lambda k=k: ("left", "right")) for k in range(60)]
        rep = _run_cases("synthetic", cases, VerifyConfig())
        assert rep.cases == 60
        assert rep.passed == 0
        assert len(rep.failures) == 50
        assert not rep.ok

    def test_exceptions_become_failures(self):
        def boom():
            raise ZeroDivisionError("1/0")

        rep = _run_cases("synthetic", [("ok", lambda: None), ("bad", boom)], VerifyConfig())
        assert rep.cases == 2 and rep.passed == 1
        assert rep.failures[0].inputs == "bad"
        assert "ZeroDivisionError" in rep.failures[0].lhs

    def test_failures_keep_case_order(self):
        cases = [
            ("first", lambda: ("a", "b")),
            ("mid", lambda: None),
            ("last", lambda: ("c", "d")),
        ]
        rep = _run_cases("synthetic", cases, VerifyConfig())
        assert [f.inputs for f in rep.failures] == ["first", "last"]

    @staticmethod
    def mixed_cases():
        """107 cases: 36 pass, 57 fail and 14 raise; 107 is not a multiple of 2 or 3."""

        def boom(k):
            raise ValueError(f"case {k} blew up")

        cases = []
        for k in range(107):
            if k % 3 == 0:
                cases.append((f"case {k}", lambda: None))
            elif k % 5 == 0:
                cases.append((f"case {k}", lambda k=k: boom(k)))
            else:
                cases.append((f"case {k}", lambda k=k: (f"lhs {k}", f"rhs {k}")))
        return cases

    def test_sharded_runs_aggregate_like_the_in_process_run(self):
        cases = self.mixed_cases()
        one, two, three = (
            _run_cases("synthetic", cases, VerifyConfig(threads=n), notes=["a note"])
            for n in (1, 2, 3)
        )
        assert (one.cases, one.passed, len(one.failures)) == (107, 36, 50)
        assert one.failures[3].lhs == "raised ValueError: case 5 blew up"
        for rep in (two, three):
            assert (rep.cases, rep.passed, rep.failures, rep.notes) == (
                one.cases, one.passed, one.failures, one.notes
            )

    def test_fewer_cases_than_workers(self):
        one = nu_scan(VerifyConfig(threads=1))
        eight = nu_scan(VerifyConfig(threads=8))
        assert one.cases == 5
        assert (eight.cases, eight.passed, eight.failures, eight.notes) == (
            one.cases, one.passed, one.failures, one.notes
        )

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
    def test_cases_run_in_forked_workers(self):
        cases = [(f"case {k}", lambda: (str(os.getpid()), "")) for k in range(4)]
        rep = _run_cases("synthetic", cases, VerifyConfig(threads=2))
        assert len(rep.failures) == 4
        assert str(os.getpid()) not in {f.lhs for f in rep.failures}

    def test_default_worker_count_follows_the_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("SVPSIDO_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _worker_count(VerifyConfig()) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert _worker_count(VerifyConfig()) == 8
        monkeypatch.setenv("SVPSIDO_THREADS", "3")
        assert _worker_count(VerifyConfig()) == 3
        assert _worker_count(VerifyConfig(threads=5)) == 5

    def test_selection_dedupes_and_keeps_first_appearance_order(self):
        reports = run_suites(["lemma33", "lemma26", "lemma33"], VerifyConfig())
        assert [r.suite for r in reports] == ["lemma33", "lemma26"]
        assert all(r.ok for r in reports)

    def test_random_soak_is_deterministic(self):
        cfg = VerifyConfig(random_cases=3, seed=11)
        one = report_json(run_suites(["psido-axioms"], cfg))
        two = report_json(run_suites(["psido-axioms"], cfg))
        assert strip_millis(one) == strip_millis(two)

    def test_soak_only_extends_the_algebra_suites(self):
        plain = run_suites(["lemma26"], VerifyConfig())[0]
        soaked = run_suites(["lemma26"], VerifyConfig(random_cases=9))[0]
        assert plain.cases == soaked.cases


class TestReports:
    def test_json_schema(self):
        import json

        reports = run_suites(["lemma33"], VerifyConfig())
        parsed = json.loads(report_json(reports))
        assert isinstance(parsed, list) and len(parsed) == 1
        assert set(parsed[0]) == {"suite", "cases", "passed", "failures", "millis"}
        assert parsed[0]["failures"] == []

    def test_text_report_shape(self):
        reports = run_suites(["lemma33"], VerifyConfig())
        text = report_text(reports)
        assert "suite lemma33: 41/41 passed" in text
        assert text.rstrip().endswith("overall: PASS")

    def test_text_report_is_the_same_with_one_or_two_workers(self):
        import re

        names = ["psido-axioms", "dpi-rep"]
        one, two = (
            re.sub(r"\(\d+ ms\)", "(N ms)", report_text(run_suites(names, VerifyConfig(threads=n))))
            for n in (1, 2)
        )
        assert one == two
        assert "suite psido-axioms: 3124/3124 passed (N ms)" in one


class TestNuScan:
    def test_zero_deformation_matches_the_flat_weight(self):
        rep = nu_scan(VerifyConfig(), grid=[GaussRat(0)])
        assert rep.ok and rep.cases == 1
        assert rep.notes == ["nu -> mu", "  0 -> 0"]

    def test_weight_tracks_the_deformation(self):
        # measured law on the half-integer grid: the fitted weight is nu itself
        rep = nu_scan(VerifyConfig())
        assert rep.ok
        rows = rep.notes[1:]
        assert rows == [
            "  -1 -> -1",
            "  -1/2 -> -1/2",
            "  0 -> 0",
            "  1/2 -> 1/2",
            "  1 -> 1",
        ]

    def test_requested_deformation_joins_the_grid(self):
        rep = nu_scan(VerifyConfig(nu=GaussRat(Fraction(3, 2))))
        assert rep.cases == 6
        assert "  3/2 -> 3/2" in rep.notes

    def test_scan_rejects_exact_floor_too(self):
        with pytest.raises(ValueError):
            nu_scan(VerifyConfig(floor=EXACT))
