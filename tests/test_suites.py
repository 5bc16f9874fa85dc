"""Mechanics of the verification harness itself.

The mathematical content of each suite is covered by the per-module
test files; here the subject is the machinery around them: config
validation, suite selection, failure accounting, report stability,
and the deformation scan table.  Synthetic cases drive the runner
directly so the bookkeeping paths are exercised without burning time
on real algebra.
"""

import functools
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

import svpsido
from reference import theta_product_by_pairs
from svpsido import cocycles, kacmoody, poisson, psido, ring, suites, svaction, textio, transforms
from svpsido.halfint import EXACT, h, hmax
from svpsido.psido import R, XI, Symbol
from svpsido.diffop2 import DiffOp2
from svpsido.kacmoody import GDual
from svpsido.poisson import FIELD_V0, LocalFunctional, jet
from svpsido.ring import CoeffFn, GaussRat, M
from svpsido.svalgebra import shift_mode, time_mode
from svpsido.textio import symbol_str
from svpsido.suites import (
    _SUITE_BUILDERS,
    SUITE_NAMES,
    VerifyConfig,
    _call,
    _each,
    _run_cases,
    _worker_count,
    nu_scan,
    report_json,
    report_text,
    run_suites,
    validate_config,
)

SRC = os.path.dirname(os.path.dirname(svpsido.__file__))
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")

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


def _label(case) -> str:
    """The label a report prints for case when it fails."""
    label, _, item = case
    return label(*item)


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

    def test_the_thread_count_has_a_bound(self):
        validate_config(VerifyConfig(threads=suites.MAX_THREADS))
        with pytest.raises(ValueError, match=r"thread count out of bounds \(want 1 <= n <= 64\)"):
            validate_config(VerifyConfig(threads=65))

    def test_unknown_suite_name(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suites(["lemma27"], VerifyConfig())


def _numbered(n: int, check) -> list:
    """n synthetic cases, labeled "case k", that run check(k)."""
    cases = []
    _each(cases, [(k,) for k in range(n)], "case {}".format, check)
    return cases


class TestRunner:
    """Drive _run_cases with synthetic cases to pin the bookkeeping."""

    def test_failure_listing_is_capped_but_counts_are_not(self):
        cases = _numbered(60, lambda k: ("left", "right"))
        rep = _run_cases("synthetic", cases, VerifyConfig())
        assert rep.cases == 60
        assert rep.passed == 0
        assert len(rep.failures) == 50
        assert not rep.ok

    @pytest.mark.parametrize("threads", [1, 2])
    def test_only_the_listed_failures_render_a_label(self, threads):
        rendered = []

        def label(k):
            rendered.append(k)
            return f"case {k}"

        cases = []
        _each(cases, [(k,) for k in range(60)], label, lambda k: ("left", "right"))
        rep = _run_cases("synthetic", cases, VerifyConfig(threads=threads))
        assert rendered == list(range(50))
        assert [f.inputs for f in rep.failures] == [f"case {k}" for k in range(50)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_family_whose_label_raises_still_passes(self, threads):
        def label(k):
            raise AssertionError(f"case {k} passed but rendered its label")

        cases = []
        _each(cases, [(k,) for k in range(5)], label, lambda k: None)
        rep = _run_cases("synthetic", cases, VerifyConfig(threads=threads))
        assert (rep.cases, rep.passed, rep.failures) == (5, 5, [])

    def test_exceptions_become_failures(self):
        def boom(name):
            if name == "bad":
                raise ZeroDivisionError("1/0")

        cases = []
        _each(cases, [("ok",), ("bad",)], lambda name: name, boom)
        rep = _run_cases("synthetic", cases, VerifyConfig())
        assert rep.cases == 2 and rep.passed == 1
        assert rep.failures[0].inputs == "bad"
        assert "ZeroDivisionError" in rep.failures[0].lhs

    def test_failures_keep_case_order(self):
        outcomes = {"first": ("a", "b"), "mid": None, "last": ("c", "d")}
        cases = []
        _each(cases, [(name,) for name in outcomes], lambda name: name, outcomes.get)
        rep = _run_cases("synthetic", cases, VerifyConfig())
        assert [f.inputs for f in rep.failures] == ["first", "last"]

    @staticmethod
    def mixed_cases():
        """107 cases: 36 pass, 57 fail and 14 raise; 107 is not a multiple of 2 or 3."""

        def outcome(k):
            if k % 3 == 0:
                return None
            if k % 5 == 0:
                raise ValueError(f"case {k} blew up")
            return (f"lhs {k}", f"rhs {k}")

        return _numbered(107, outcome)

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

    @needs_fork
    def test_cases_run_in_forked_workers(self):
        # the first shard runs in this process, each other shard in a child
        here = str(os.getpid())
        cases = _numbered(6, lambda k: (str(os.getpid()), ""))
        two = [f.lhs for f in _run_cases("synthetic", cases, VerifyConfig(threads=2)).failures]
        assert [pid == here for pid in two] == [k % 2 == 0 for k in range(6)]
        assert len(set(two[1::2])) == 1
        three = [f.lhs for f in _run_cases("synthetic", cases, VerifyConfig(threads=3)).failures]
        assert len(set(three)) == 3

    @staticmethod
    def verify_with_a_worker_case(case: str):
        """Run `verify --threads 2` in a subprocess on the cases a, b and c,
        where b, which a forked worker runs, is the given expression.

        A timeout bounds it, so that a runner that waits for a dead worker
        fails here instead of hanging the test session.
        """
        script = (
            "import os, sys\n"
            "from svpsido import cli, suites\n"
            "def interrupt():\n"
            "    raise KeyboardInterrupt\n"
            "def build(cfg):\n"
            "    cases = []\n"
            "    suites._each(cases, [('a',), ('b',), ('c',)], str, "
            f"lambda name: {case} if name == 'b' else None)\n"
            "    return cases\n"
            "suites._SUITE_BUILDERS['lemma33'] = build\n"
            "sys.exit(cli.main(['verify', '--suite', 'lemma33', '--threads', '2']))\n"
        )
        return subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=20,
            env=dict(os.environ, PYTHONPATH=SRC),
        )

    @needs_fork
    def test_a_dead_worker_ends_the_run(self):
        done = self.verify_with_a_worker_case("os._exit(3)")
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == (
            "svpsido: verify worker 2 of 2 exited with code 3 before returning its cases\n"
        )

    @needs_fork
    def test_an_interrupted_worker_ends_the_run(self):
        # KeyboardInterrupt is no Exception, so the case cannot catch it; the
        # worker leaves without a traceback and without returning its cases
        done = self.verify_with_a_worker_case("interrupt()")
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == (
            "svpsido: verify worker 2 of 2 exited with code 1 before returning its cases\n"
        )

    @needs_fork
    def test_an_escape_from_the_own_shard_leaves_no_child_behind(self):
        class Escape(BaseException):
            pass

        def escape_or_sleep(k):
            if k == 0:
                raise Escape
            time.sleep(60)

        # the workers' cases sleep, so they are still running when it escapes
        cases = _numbered(3, escape_or_sleep)
        began = time.monotonic()
        with pytest.raises(Escape):
            _run_cases("synthetic", cases, VerifyConfig(threads=3))
        assert time.monotonic() - began < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @needs_fork
    def test_a_failed_fork_leaves_no_child_behind(self, monkeypatch):
        fork, forks = os.fork, []

        def fork_once():
            if forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forks.append(fork())
            return forks[-1]

        monkeypatch.setattr(os, "fork", fork_once)
        cases = _numbered(3, lambda k: time.sleep(60))
        with pytest.raises(RuntimeError, match="could not fork verify worker 3 of 3"):
            _run_cases("synthetic", cases, VerifyConfig(threads=3))
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_pooled_run_leaves_multiprocessing_unloaded(self):
        # only a fresh interpreter shows what a run imports
        script = (
            "import sys\n"
            "from svpsido.suites import VerifyConfig, run_suites\n"
            "(rep,) = run_suites(['lemma33'], VerifyConfig(threads=2))\n"
            "print(rep.ok, 'multiprocessing' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "True False\n"

    @needs_fork
    def test_outcome_lists_larger_than_a_pipe_buffer(self):
        # each worker sends far more than the 64 KiB a pipe holds
        big = "x" * 4096
        cases = _numbered(120, lambda k: (f"{k} {big}", ""))
        one = _run_cases("synthetic", cases, VerifyConfig(threads=1))
        two = _run_cases("synthetic", cases, VerifyConfig(threads=2))
        assert (two.cases, two.passed, two.failures) == (one.cases, one.passed, one.failures)

    def test_default_worker_count_follows_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _worker_count(VerifyConfig()) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert _worker_count(VerifyConfig()) == 8
        assert _worker_count(VerifyConfig(threads=5)) == 5
        # with no fork every run takes one worker
        monkeypatch.delattr(os, "fork")
        assert _worker_count(VerifyConfig(threads=5)) == 1

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


def _wrap_everywhere(mp, owner, attr, wrap):
    """Replace owner.attr by wrap(original) in every svpsido module that
    holds it by name, so calls from inside the package go through it."""
    original = getattr(owner, attr)
    wrapper = wrap(original)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "svpsido":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                mp.setattr(module, key, wrapper)


def _counted(calls, key):
    def wrap(fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    return wrap


# the layers whose calls are counted: (owner, attribute, counter)
_LAYERS = (
    (psido, "sym_mul", "sym_mul"),
    (psido, "sym_bracket", "sym_bracket"),
    (svaction, "d_sigma_tilde", "d_sigma"),
    (svaction, "d_sigma_affine", "d_sigma"),
    (transforms, "theta", "theta"),
)
_TABLED = ("cocycles", "psido-axioms", "dsigma-rep", "theta")


@pytest.fixture(scope="module")
def tabled_runs():
    """Build and run each tabled suite at one worker, counting layer calls
    in the build and in the cases apart, and recording the case label and
    both sides of every eq_trusted comparison."""
    calls = Counter()
    compared = []
    current = [None]  # the label of the running case

    def record(fn):
        def eq(A, B):
            compared.append((current[0], A, B))
            return fn(A, B)

        return eq

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for owner, attr, key in _LAYERS:
            _wrap_everywhere(mp, owner, attr, _counted(calls, key))
        mp.setattr(suites, "eq_trusted", record(suites.eq_trusted))
        for name in _TABLED:
            calls.clear()
            cases = _SUITE_BUILDERS[name](VerifyConfig(threads=1))
            built = Counter(calls)
            calls.clear()
            outcomes = []
            for case in cases:
                current[0] = _label(case)
                outcomes.append(_call(case))
            runs[name] = (built, Counter(calls), outcomes)
    return runs, compared


class TestSharedTables:
    """Sub-results that cases share are computed once, on first use."""

    @pytest.mark.parametrize("name", _TABLED)
    def test_the_build_makes_no_layer_calls(self, tabled_runs, name):
        built, _, outcomes = tabled_runs[0][name]
        assert sum(built.values()) == 0
        assert outcomes and all(out is None for out in outcomes)

    @pytest.mark.parametrize(
        "name, layer, budget",
        [
            # parent counts before the tables: 23,994, 11,904, 11,454, 17,773
            ("cocycles", "sym_bracket", 453),
            ("psido-axioms", "sym_mul", 7512),
            ("dsigma-rep", "d_sigma", 7134),
            ("theta", "theta", 6216),
            # parent count, composing theta(A) o theta(B) for each pair: 11,882
            ("theta", "sym_mul", 7000),
        ],
    )
    def test_cases_stay_within_their_call_budget(self, tabled_runs, name, layer, budget):
        _, ran, _ = tabled_runs[0][name]
        assert 0 < ran[layer] <= budget

    def test_theorem61_cases_stay_within_their_time_deriv_budget(self):
        # count with every transport term and loop product formed even
        # when its loop is zero: 41,715; with psido.time_deriv applied to
        # every W against a zero loop it was 17,220 time_deriv calls
        calls = Counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CoeffFn, "deriv", _counted(calls, "deriv")(CoeffFn.deriv))
            cases = _SUITE_BUILDERS["theorem61"](VerifyConfig(threads=1))
            calls.clear()
            outcomes = [_call(case) for case in cases]
        assert all(out is None for out in outcomes)
        assert 0 < calls["deriv"] <= 12000

    def test_theorem61_cases_compute_few_derivatives(self):
        # each value keeps its derivatives (CoeffFn.deriv), so the cases
        # compute only those of values that no earlier case differentiated:
        # 25 here, against 8,655 when every deriv call computed one
        calls = Counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ring, "_derivative", _counted(calls, "computed")(ring._derivative))
            cases = _SUITE_BUILDERS["theorem61"](VerifyConfig(threads=1))
            calls.clear()
            outcomes = [_call(case) for case in cases]
        assert all(out is None for out in outcomes)
        assert 0 < calls["computed"] <= 100

    def test_a_theorem61_build_renders_no_probe_name(self):
        # a probe's name is rendered only for a listed failure: 196 symbol
        # renders per build when the probe table held the names
        calls = Counter()
        with pytest.MonkeyPatch.context() as mp:
            _wrap_everywhere(mp, textio, "symbol_str", _counted(calls, "symbol_str"))
            _SUITE_BUILDERS["theorem61"](VerifyConfig())
        assert calls["symbol_str"] == 0

    def test_no_caller_changes_a_table_after_wrapping_it(self):
        # a wrapped table is the value's terms and must not change after
        # coeff_from_table, which reduces it in place, or after the raw
        # wrap of psido's views, or a derivative kept on the value goes
        # stale; every module that wraps tables is watched over a small box
        wrapped = []

        def watched(wrap):
            def wrapper(table):
                out = wrap(table)
                wrapped.append((table, dict(table)))
                return out
            return wrapper

        cfg = VerifyConfig(index_range=2, floor=h("-5/2"), threads=1)
        with pytest.MonkeyPatch.context() as mp:
            for module in (cocycles, kacmoody, poisson, svaction, transforms):
                mp.setattr(module, "coeff_from_table", watched(ring.coeff_from_table))
            mp.setattr(psido, "_coeff_raw", watched(ring._coeff_raw))
            outcomes = []
            for name in ("theorem61", "poisson-lemma71", "dsigma-rep", "cocycles", "theorem51"):
                outcomes += [_call(case) for case in _SUITE_BUILDERS[name](cfg)]
        assert all(out is None for out in outcomes)
        assert len(wrapped) > 1000
        assert all(table == before for table, before in wrapped)

    @staticmethod
    def _case_calls(name, wrap_in):
        """Build a suite at one worker, then run its cases with a counter
        put in by wrap_in(mp, counter); the count covers the cases only."""
        calls = Counter()
        with pytest.MonkeyPatch.context() as mp:
            wrap_in(mp, calls)
            cases = _SUITE_BUILDERS[name](VerifyConfig(threads=1))
            calls.clear()
            outcomes = [_call(case) for case in cases]
        assert all(out is None for out in outcomes)
        return sum(calls.values())

    def test_poisson_brackets_take_each_functionals_derivatives_once(self):
        # parent count, with the derivatives retaken at every point: 25,424;
        # only the bracket and the field reach poisson's own global, so the
        # cases that call variational_derivative directly are not counted
        def wrap_in(mp, calls):
            counted = _counted(calls, "vd")(poisson.variational_derivative)
            mp.setattr(poisson, "variational_derivative", counted)

        assert 0 < self._case_calls("poisson-lemma71", wrap_in) <= 200

    @staticmethod
    def _moment_cases(cfg):
        """((lift, point) index pair, case) of each moment pairing case."""
        cases = [case for case in _SUITE_BUILDERS["poisson-lemma71"](cfg)
                 if _label(case).startswith("moment pairing: ")]
        n_points = len(suites._slice_points(cfg.index_range))
        assert len(cases) == len(suites._labeled_basis(cfg.index_range)) * n_points
        return [(divmod(k, n_points), case) for k, case in enumerate(cases)]

    def test_moment_pairings_read_the_one_point_pairing(self, monkeypatch):
        # with a value that matches no pairing in place of the functional,
        # every case fails and prints its pairing-table entry
        from svpsido.kacmoody import embed_I, pairing

        cfg = VerifyConfig(index_range=2, threads=1)
        far = CoeffFn.const(10 ** 9)
        monkeypatch.setattr(suites, "evaluate", lambda functional, mu: far)
        points = suites._slice_points(2)
        lifts = [embed_I(X, cfg.floor) for _, X in suites._labeled_basis(2)]
        for (i, m), case in self._moment_cases(cfg):
            want = suites._fmt_scalar(cfg, pairing(points[m][1], lifts[i]))
            assert _call(case) == (suites._fmt_scalar(cfg, far), want), _label(case)

    def test_a_lift_too_shallow_for_a_point_fails_as_the_one_point_pairing_does(self, monkeypatch):
        # lifts built at floor 0 leave the trace against every point with
        # a V_0 slot undetermined
        from svpsido.kacmoody import embed_I, pairing
        from svpsido.poisson import evaluate, lemma71_functional

        monkeypatch.setattr(suites, "embed_I", lambda X, F, nu=None: embed_I(X, h(0), nu=nu))
        cfg = VerifyConfig(index_range=2, threads=1)
        scalar = functools.partial(suites._fmt_scalar, cfg)
        points = suites._slice_points(2)
        basis = suites._labeled_basis(2)
        raised = 0
        for (i, m), case in self._moment_cases(cfg):
            mu = points[m][1]
            try:
                value = pairing(mu, embed_I(basis[i][1], h(0)))
            except ValueError as exc:
                want = (f"raised ValueError: {exc}", "a finished check")
                raised += 1
            else:
                value_at = evaluate(lemma71_functional(basis[i][1]), mu)
                want = None if value_at == value else (scalar(value_at), scalar(value))
            assert _call(case) == want, _label(case)
        # lifts whose W stays exact pair every point
        assert 0 < raised < len(basis) * len(points)
        (rep,) = run_suites(["poisson-lemma71"], cfg)
        first = rep.failures[0]
        assert first.inputs.startswith("moment pairing: ")
        assert first.lhs == "raised ValueError: trace not determined at this truncation"
        assert first.rhs == "a finished check"

    def test_poisson_product_count_does_not_follow_the_hash_seed(self):
        # field names are strings: a walk over a set of jets sums in an
        # order that follows PYTHONHASHSEED, and the count moves with it
        # (29,766 under seed 0 and 29,773 under seed 2 before the fix);
        # the count is taken with this module's own helpers, in a fresh
        # interpreter per seed
        script = (
            f"import sys; sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
            "from test_suites import TestSharedTables, _counted, _wrap_everywhere\n"
            "from svpsido import ring\n"
            "print(TestSharedTables._case_calls('poisson-lemma71', lambda mp, calls: "
            "_wrap_everywhere(mp, ring, 'mul_into', _counted(calls, 'mul_into'))))\n"
        )
        counts = []
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
            )
            assert done.returncode == 0, done.stderr
            counts.append(int(done.stdout))
        assert counts[0] > 0 and counts[0] == counts[1]

    def test_theorem61_cases_stay_within_their_product_loop_budget(self):
        # parent count, with zero operands multiplied and every bracket taken
        # as two products and a difference: 141,801
        def wrap_in(mp, calls):
            _wrap_everywhere(mp, ring, "mul_into", _counted(calls, "mul_into"))

        assert 0 < self._case_calls("theorem61", wrap_in) <= 40000

    # the kernels that form a product, by the positions of their operands
    _PRODUCT_KERNELS = {"mul_into": (1, 2), "triple_into": (1, 2, 3),
                        "residue_into": (1, 2), "pair_terms_into": (1, 2)}

    @staticmethod
    def _empty_operand_calls(names, config=VerifyConfig(threads=1)) -> dict:
        """Run the suites at config (the default, at one worker), with
        each product kernel wrapped in every module that holds it; the
        number of calls, per kernel, that find an operand empty on entry."""
        calls = Counter()

        def empty_counted(key, operands):
            def wrap(fn):
                def counted(*args):
                    calls[key] += not all(args[k] for k in operands)
                    return fn(*args)

                return counted

            return wrap

        with pytest.MonkeyPatch.context() as mp:
            for key, operands in TestSharedTables._PRODUCT_KERNELS.items():
                _wrap_everywhere(mp, ring, key, empty_counted(key, operands))
            reports = run_suites(names, config)
        assert all(rep.passed == rep.cases > 0 for rep in reports)
        return {key: calls[key] for key in TestSharedTables._PRODUCT_KERNELS}

    def test_duality_suites_form_no_product_with_an_empty_factor(self):
        # every suite, not only the duality ones: the slice points fill one
        # slot each, an element's loop factors are often zero, and a
        # floored theta_t meets orders whose images lie wholly below its
        # floor.  Taken in a fresh interpreter, since the duality tables,
        # the kept loop factors and the image caches of a warm process
        # would leave work out of the count
        script = (
            f"import sys; sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
            "from test_suites import TestSharedTables\n"
            "from svpsido.suites import SUITE_NAMES\n"
            "import json\n"
            "print(json.dumps(TestSharedTables._empty_operand_calls(list(SUITE_NAMES))))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert done.returncode == 0, done.stderr
        counts = json.loads(done.stdout)
        ceilings = {"mul_into": 0, "triple_into": 0, "residue_into": 0, "pair_terms_into": 0}
        assert all(counts[key] <= ceiling for key, ceiling in ceilings.items()), counts
        assert ring.coeff_from_table({}) is CoeffFn.zero()

    def test_kept_derivatives_are_invisible(self):
        mu = GDual.of_slots(v=CoeffFn.t_pow(1), vm2=CoeffFn.mono(1, -1),
                            v0=CoeffFn.t_pow(-1), a=CoeffFn.t_pow(2))
        c = GaussRat(Fraction(1, 3))
        X, Y = time_mode(2), shift_mode(h("1/2"))
        used, fresh = poisson.lemma71_functional(X), poisson.lemma71_functional(X)
        G = poisson.lemma71_functional(Y)
        before = poisson.poisson_bracket(used, G, mu, c)
        assert hasattr(used, "_kept") and not hasattr(fresh, "_kept")
        assert used == fresh and str(used) == str(fresh)
        assert poisson.poisson_bracket(fresh, G, mu, c) == before
        assert poisson.poisson_bracket(used, G, mu, c) == before
        assert poisson.hamiltonian_vector(used, mu, c) == poisson.hamiltonian_vector(fresh, mu, c)

    def test_every_floored_image_comparison_sees_an_order_of_lhs(self, tabled_runs):
        # image cases compare with eq_trusted only where theta(A) o theta(B) is a series
        windows = [(A, B) for label, A, B in tabled_runs[1] if label.startswith("image of")]
        assert len(windows) == 234
        for lhs, rhs in windows:
            floor = hmax(lhs.floor, rhs.floor)
            assert any(floor is EXACT or k >= floor for k in lhs.terms), (str(lhs), str(rhs))
            # an order of lhs below the compared window would go unchecked
            assert floor is EXACT or all(k >= floor for k in lhs.terms), (str(lhs), str(rhs))

    def test_theta_images_come_from_the_one_forward_cache(self, monkeypatch):
        built = []
        init = transforms.ThetaImageCache.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(transforms.ThetaImageCache, "__init__", counted)
        monkeypatch.setattr(transforms, "_theta_images", transforms.ThetaImageCache(transforms._theta_build))
        cache = transforms._theta_images
        # the deformed images too are sums of the one cache's entries
        for nu in (GaussRat(0), GaussRat(Fraction(1, 2))):
            cfg = VerifyConfig(index_range=1, threads=1, nu=nu)
            rep = _run_cases("theta", _SUITE_BUILDERS["theta"](cfg), cfg)
            assert rep.cases > 0 and rep.ok
        assert built == [cache] and cache._memo

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_raising_entry_fails_every_case_that_reads_it(self, monkeypatch, threads):
        # the index-range-1 box starts x^-1 d_r^-1, d_r^-1, x d_r^-1, ...
        first = Symbol(R, {h(-1): CoeffFn.x_pow(-1)})
        second = Symbol(R, {h(-1): CoeffFn.one()})
        bracket = cocycles.sym_bracket

        def failing(A, B, floor=None):
            if A == first and B == second:
                raise RuntimeError("bracket refused")
            return bracket(A, B, floor)

        monkeypatch.setattr(cocycles, "sym_bracket", failing)
        cfg = VerifyConfig(index_range=1, threads=threads)
        cases = _SUITE_BUILDERS["cocycles"](cfg)
        rep = _run_cases("cocycles", cases, cfg)
        pair = f"A = {symbol_str(first)}, B = {symbol_str(second)}, C = "
        readers = [label for label in map(_label, cases) if " identity on " in label and pair in label]
        # C runs over the 7 later box elements, for each of the 6 cocycles
        assert len(readers) == 42
        assert [f.inputs for f in rep.failures] == readers
        assert all(f.lhs == "raised RuntimeError: bracket refused" for f in rep.failures)
        assert rep.passed == rep.cases - 42

    @pytest.mark.parametrize("floor, n, exact", [("-7/2", 3, 5590), ("-9/2", 4, 15385)])
    def test_shared_theta_products_are_the_per_pair_products(self, monkeypatch, floor, n, exact):
        # an exact image case compares theta(A o B) with theta(A) o theta(xi^p)
        # moved by B's order; that right side must be theta(A) o theta(B),
        # and the comparison read in place must be the plain one
        current, rights = [None], {}
        equal_moved = suites._equal_moved

        def recorded(show, lhs, rhs, dt):
            moved = rights[current[0]] = suites._moved(rhs, dt)
            got = equal_moved(show, lhs, rhs, dt)
            assert got == suites._equal(show, lhs, moved)
            return got

        monkeypatch.setattr(suites, "_equal_moved", recorded)
        cfg = VerifyConfig(floor=h(floor), index_range=n, threads=1)
        box = [Symbol(XI, {k: CoeffFn.x_pow(p)})
               for k in suites._half_orders(n) for p in suites._degrees(n)]
        names = [symbol_str(A) for A in box]
        pairs = {f"image of {names[a]} o {names[b]}": (box[a], box[b])
                 for a in range(len(box)) for b in range(len(box))}
        for case in _SUITE_BUILDERS["theta"](cfg):
            label = _label(case)
            if label.startswith("image of "):
                current[0] = label
                _, check, item = case
                assert check(*item) is None, label
                A, B = pairs[label]
                if label in rights:
                    assert rights[label] == theta_product_by_pairs(A, B), label
                else:  # a series, which the case composes pair by pair to a floor
                    with pytest.raises(ValueError):
                        theta_product_by_pairs(A, B)
        assert len(rights) == exact

    def test_a_moved_comparison_reads_and_prints_as_the_plain_one(self):
        rhs = Symbol(R, {1: CoeffFn.x_pow(2), -1: CoeffFn.mono(1, -1, GaussRat(3, 1))})
        moved = suites._moved(rhs, 4)
        off = dict(moved.flat)
        off[(6, 0, 2, 0)] = (2, 0, 1)
        for lhs in (moved, Symbol._raw(R, off, EXACT), Symbol._raw(R, {(6, 0, 2, 0): (1, 0, 1)}, EXACT),
                    Symbol._raw(R, dict(moved.flat), -10), Symbol._raw(XI, dict(moved.flat), EXACT),
                    rhs):
            assert suites._equal_moved(str, lhs, rhs, 4) == suites._equal(str, lhs, moved)
        assert suites._equal_moved(str, moved, rhs, 4) is None

    @pytest.mark.parametrize("threads", [1, 2])
    def test_an_image_off_its_moved_power_fails_every_product_that_reads_it(self, monkeypatch,
                                                                           threads):
        # theta(xi d_xi^(1/2)) is theta(xi) o d_r; doubled, it is not, and
        # every product case with it on the right must fail, not only those
        # whose left side theta(A o B) reads the doubled image
        mixed = Symbol(XI, {h("1/2"): CoeffFn.x_pow(1)})
        theta = transforms.theta

        def doubled(D, *args, **kwargs):
            image = theta(D, *args, **kwargs)
            return image + image if D == mixed else image

        monkeypatch.setattr(transforms, "theta", doubled)
        cfg = VerifyConfig(index_range=1, threads=threads)
        cases = _SUITE_BUILDERS["theta"](cfg)
        rep = _run_cases("theta", cases, cfg)
        assert rep.cases - rep.passed == len(rep.failures)  # none past the cap
        failed = {f.inputs: f.lhs for f in rep.failures}
        readers = [label for label in map(_label, cases)
                   if label.startswith("image of ") and label.endswith(f" o {symbol_str(mixed)}")]
        assert len(readers) == 15
        for label in readers:
            assert failed.get(label, "").startswith("raised ArithmeticError: theta("), label


# (cases, failing cases, digest) of every suite's (label, outcome) list at
# two configs; the second renders failures with the mass normalised
_PIN_CONFIGS = {
    "default": (
        VerifyConfig(threads=1),
        {
            "psido-axioms": (3124, 0, "691147cc50d35cdf"),
            "theta": (6125, 0, "74aafeb232147f92"),
            "timeshift": (91, 0, "6b0e1a42ef02b318"),
            "cocycles": (9384, 0, "7363717daf581100"),
            "lemma26": (190, 0, "8cd05f4961877535"),
            "lemma33": (41, 0, "ea6d9a6ca63f8d5f"),
            "theorem51": (190, 0, "8cd05f4961877535"),
            "theorem61": (11411, 0, "b4d14ed4302394fa"),
            "dpi-rep": (570, 0, "a9c5e85271fd3772"),
            "dsigma-rep": (1149, 0, "68498ee4b26b50fe"),
            "poisson-lemma71": (3094, 0, "0e038cb4496aa7f5"),
            "nu-scan": (5, 0, "417f041d94aae8a0"),
        },
    ),
    "range 2, c 1/3, normalised mass, 2 random cases, seed 3, mu 1/3, nu 1/2": (
        VerifyConfig(
            index_range=2, c=GaussRat(Fraction(1, 3)), normalize_mass=True, random_cases=2,
            seed=3, mu=Fraction(1, 3), nu=GaussRat(Fraction(1, 2)), threads=1,
        ),
        {
            "psido-axioms": (2250, 0, "936bc9c2792be39e"),
            "theta": (1637, 0, "473905227792aa75"),
            "timeshift": (89, 0, "e947c670d8664b76"),
            "cocycles": (3470, 0, "04353a88e3144b73"),
            "lemma26": (91, 0, "0190f720089f395f"),
            "lemma33": (35, 0, "bb7e80653eed5995"),
            "theorem51": (91, 0, "0190f720089f395f"),
            "theorem61": (4311, 45, "e5acc4d5c53e2d59"),
            "dpi-rep": (364, 0, "9b0af1cf8ab48b0d"),
            "dsigma-rep": (735, 0, "ce6b964b412ecb4f"),
            "poisson-lemma71": (1315, 0, "f20dc9c861fbe844"),
            "nu-scan": (5, 1, "00a3565788071a52"),
        },
    ),
}


class TestCasePins:
    """Every case's label and outcome, pinned by digest.

    A passing report prints no labels, so only this pins them: a change
    to how cases are declared must keep each label, its place in the
    case order and its outcome text."""

    @staticmethod
    def _pins(cfg):
        import hashlib

        pins = {}
        for name, build in _SUITE_BUILDERS.items():
            if build is None:
                # nu-scan's labels stay inside nu_scan; its notes carry the table
                rep = nu_scan(cfg)
                rows = [(f.inputs, (f.lhs, f.rhs)) for f in rep.failures] + [(n, None) for n in rep.notes[1:]]
                cases, failing = rep.cases, rep.cases - rep.passed
            else:
                rows = [(_label(case), _call(case)) for case in build(cfg)]
                cases, failing = len(rows), sum(out is not None for _, out in rows)
            digest = hashlib.sha256("".join(f"{row!r}\n" for row in rows).encode())
            pins[name] = (cases, failing, digest.hexdigest()[:16])
        return pins

    @pytest.mark.parametrize("config", list(_PIN_CONFIGS))
    def test_every_case_label_and_outcome_is_pinned(self, config):
        cfg, want = _PIN_CONFIGS[config]
        assert self._pins(cfg) == want


class TestReports:
    def test_json_schema(self):
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


def _plus_mass(d_pi):
    """d_pi with M t added to every operator."""
    return lambda mu, X: d_pi(mu, X) + DiffOp2.function(M * CoeffFn.t_pow(1))


# a family (the prefix of its failure inputs), its suite, and a patch of a
# name in suites that makes some of the family's cases fail on values
# that carry M
_MASS_FAILURES = {
    "time bridge": ("lemma33", "d_pi", _plus_mass),
    "shift bridge": ("lemma33", "d_pi", _plus_mass),
    "phase bridge": ("lemma33", "d_pi", _plus_mass),
    "weight 0": ("dpi-rep", "d_pi", _plus_mass),
    "slice stability": ("theorem61", "in_invariant_slice", lambda _: lambda mu: "M" not in str(mu)),
    "generated flow": ("poisson-lemma71", "hamiltonian_vector", lambda _: lambda F, mu, c: GDual(v=M)),
    "variational derivative kills": ("poisson-lemma71", "variational_derivative",
                                     lambda _: lambda F, field: LocalFunctional.monomial(M, jet(FIELD_V0))),
    # the time family is the one on which the two actions differ
    "variants agree": ("dsigma-rep", "phase_mode", lambda _: lambda p: time_mode(1)),
}


@pytest.mark.parametrize("family", list(_MASS_FAILURES))
def test_normalize_mass_renders_the_listed_failures_without_m(monkeypatch, family):
    suite, name, patch = _MASS_FAILURES[family]
    monkeypatch.setattr(suites, name, patch(getattr(suites, name)))

    def listed(normalize: bool) -> list:
        cfg = VerifyConfig(index_range=1, normalize_mass=normalize, threads=1)
        (rep,) = run_suites([suite], cfg)
        return [side for f in rep.failures if f.inputs.startswith(family) for side in (f.lhs, f.rhs)]

    assert any("M" in side for side in listed(False))
    normalized = listed(True)
    assert normalized and not any("M" in side for side in normalized)


_DUALITY = ["theorem61", "poisson-lemma71"]
# the tables that both duality suites read, built once per process
_DUALITY_TABLES = (suites._labeled_basis, suites._slice_points, suites._coadjoint_rows)


def _cold_tables() -> None:
    """Empty the shared duality tables, as in a fresh process."""
    for table in _DUALITY_TABLES:
        table.cache_clear()


def _per_suite(reports) -> list:
    """The text report of each suite, with its time masked."""
    return [report_text([rep._replace(millis=0)]) for rep in reports]


@needs_fork
@pytest.mark.parametrize("threads", [1, 2])
def test_duality_suites_alone_and_together_print_the_same_reports(threads):
    # each suite alone with cold tables, both in one run, and charge 1/3
    # cold and after a default-charge run whose rows are still kept
    cfg = VerifyConfig(index_range=2, threads=threads)
    third = cfg._replace(c=GaussRat(Fraction(1, 3)))
    alone = []
    for name in _DUALITY:
        _cold_tables()
        alone += _per_suite(run_suites([name], cfg))
    _cold_tables()
    assert _per_suite(run_suites(_DUALITY, cfg)) == alone
    _cold_tables()
    cold_third = _per_suite(run_suites(_DUALITY, third))
    _cold_tables()
    run_suites(_DUALITY, cfg)
    assert _per_suite(run_suites(_DUALITY, third)) == cold_third
    # the charge reaches the kept rows: theorem61's free family match
    # holds at charge 2 only
    assert "FAIL free family match" not in alone[0]
    assert "FAIL free family match" in cold_third[0]


class TestNuScan:
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
