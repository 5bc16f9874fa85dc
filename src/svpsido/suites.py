"""Exhaustive property suites behind the command-line verifier.

Each suite enumerates a fixed monomial box, checks one family of
identities case by case, and reports the first divergences verbatim.
All arithmetic is exact and the case order is fixed, so two runs with
the same configuration produce identical reports apart from the wall
clock field.  Cases are pure functions of prebuilt immutable inputs, so
forked worker processes may each run a strided share of them; the parent
puts the outcomes back in case order before aggregating.

A sub-result that several cases share (a bracket of two box elements, an
inner product, an action on a basis element, a transform image) comes
from a lazy table keyed by box indices: it is computed by the first case
that asks for it, never by the build, so each forked worker fills its own
copy and nothing is pickled.  A failed entry is not stored, so every case
that reads it fails the same way.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import transforms as tr
from .cocycles import (
    CocycleId,
    cocycle_identity_defect,
    cyclic_defect,
    eval_cocycle,
    quotient_bracket,
)
from .diffop2 import DiffOp2, d_pi, dop_bracket, dop_from_r_symbol, dop_mul, free_evolution_op
from .halfint import EXACT, HalfInt, h, hmax, hmin
from .kacmoody import (
    DualFamily,
    GDual,
    GElement,
    coadjoint,
    embed_I,
    embed_momentum_symbol,
    g_bracket,
    in_invariant_slice,
    pair_value,
    pairing,
)
from .poisson import (
    FIELD_A,
    FIELD_V,
    FIELD_V0,
    FIELD_VM2,
    LocalFunctional,
    evaluate,
    hamiltonian_vector,
    jet,
    lemma71_functional,
    n_preservation_check,
    poisson_bracket,
    total_derivative,
    variational_derivative,
)
from .psido import (
    R,
    XI,
    Symbol,
    adler_trace,
    differential_part,
    eq_trusted,
    max_trusted_order,
    sym_add,
    sym_bracket,
    sym_mul,
    sym_sub,
)
from .ring import CoeffFn, GaussRat, I_M, M, MINUS_2I_M, TWO_I_M
from .svaction import SchrodPoint, d_sigma_affine, d_sigma_tilde
from .svalgebra import SvElement, phase_mode, shift_mode, sv_basis, sv_bracket, time_mode
from .textio import coeff_str, gauss_str, scalar_str, symbol_str

__all__ = [
    "CaseFailure",
    "SuiteReport",
    "SUITE_NAMES",
    "VerifyConfig",
    "check_floor_depth",
    "nu_scan",
    "report_json",
    "report_text",
    "run_suites",
]


# ----------------------------------------------------------------- plumbing

def _default_floor() -> HalfInt:
    return h("-7/2")


# Leibniz tails grow factorially with depth and transform images cost more
# than linearly in it, so the front door refuses floors below the depth at
# which the calculator references are checked.
DEEPEST_FLOOR = h(-16)


def check_floor_depth(floor: HalfInt) -> None:
    """Refuse a floor below DEEPEST_FLOOR with a ValueError."""
    if floor < DEEPEST_FLOOR:
        raise ValueError(f"the floor must sit at or above {DEEPEST_FLOOR}")


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs shared by every suite; the defaults match the shipped boxes."""

    floor: HalfInt = field(default_factory=_default_floor)
    index_range: int = 3
    c: GaussRat = field(default_factory=lambda: GaussRat(2))
    nu: GaussRat = field(default_factory=lambda: GaussRat(0))
    mu: Fraction | None = None
    normalize_mass: bool = False
    random_cases: int = 0
    seed: int = 0
    threads: int | None = None


def validate_config(cfg: VerifyConfig) -> None:
    if cfg.floor is EXACT:
        raise ValueError("suites need a finite truncation floor")
    floor = h(cfg.floor)
    if floor > h(-1):
        raise ValueError("the floor must sit at or below -1 so traces stay trusted")
    check_floor_depth(floor)
    if not 1 <= cfg.index_range <= 5:
        raise ValueError("index range out of bounds (want 1 <= n <= 5)")
    if cfg.random_cases < 0:
        raise ValueError("the random case count cannot be negative")
    if cfg.threads is not None and cfg.threads < 1:
        raise ValueError("thread count must be positive")


@dataclass(frozen=True)
class CaseFailure:
    inputs: str
    lhs: str
    rhs: str


@dataclass
class SuiteReport:
    suite: str
    cases: int
    passed: int
    failures: list
    millis: int
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passed == self.cases


_FAILURE_CAP = 50


def _worker_count(cfg: VerifyConfig) -> int:
    if cfg.threads:
        return cfg.threads
    # one process per CPU this process may run on; more only oversubscribe
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(8, cpus or 1)


def _call(case):
    try:
        return case[1]()
    except Exception as exc:  # a crashed case is a failure, not a crashed run
        return (f"raised {type(exc).__name__}: {exc}", "a finished check")


# The case list of the suite being sharded.  Forked workers inherit it, so
# the case closures are never pickled and no worker rebuilds its suite.
_shard_cases: list = []


def _run_shard(k: int, n: int, conn) -> None:
    """Send the outcomes of cases k, k + n, k + 2n, ... of the shared case
    list to the parent."""
    conn.send([_call(case) for case in _shard_cases[k::n]])
    conn.close()


def _run_shards(n: int) -> list:
    """The outcome lists of n shards of the shared case list, each run in
    its own forked process.

    The parent waits on each worker's pipe and its exit at once, so a
    worker that dies without sending its list (killed by a signal, or a
    case calling os._exit) ends the run instead of leaving it waiting.
    """
    from multiprocessing.connection import wait  # only runs that fork pay its import

    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for k in range(n):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_shard, args=(k, n, send), daemon=True)
            proc.start()
            send.close()  # the worker holds the only write end
            procs.append(proc)
            conns.append(recv)
        shards = [None] * n
        waiting = dict(enumerate(conns))
        while waiting:
            ready = wait([*waiting.values(), *(procs[k].sentinel for k in waiting)])
            for k, conn in list(waiting.items()):
                # receive before joining: an outcome list can outgrow the
                # pipe buffer, and its worker cannot exit until it is read.
                # A worker writes its list before it exits, so a sentinel
                # is never ready ahead of the pipe of a list that was sent.
                if conn in ready:
                    try:
                        shards[k] = conn.recv()
                    except EOFError:  # the write end closed with nothing sent
                        pass
                    else:
                        del waiting[k]
                        continue
                elif procs[k].sentinel not in ready:
                    continue
                procs[k].join()
                raise RuntimeError(
                    f"verify worker {k + 1} of {n} exited with code "
                    f"{procs[k].exitcode} before returning its cases"
                )
        return shards
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()


def _run_cases(name: str, cases: list, cfg: VerifyConfig, notes=None) -> SuiteReport:
    start = time.monotonic()
    workers = min(_worker_count(cfg), len(cases))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        _shard_cases[:] = cases
        try:
            shards = _run_shards(workers)
        finally:
            _shard_cases.clear()
        outcomes = [shards[i % workers][i // workers] for i in range(len(cases))]
    else:
        outcomes = [_call(c) for c in cases]

    failures = []
    bad = 0
    for (inputs, _), out in zip(cases, outcomes):
        if out is None:
            continue
        bad += 1
        if len(failures) < _FAILURE_CAP:
            failures.append(CaseFailure(inputs, out[0], out[1]))
    millis = int((time.monotonic() - start) * 1000)
    return SuiteReport(name, len(cases), len(cases) - bad, failures, millis, list(notes or ()))


# ------------------------------------------------------------- value output

_M_NORMALIZED = GaussRat(0, Fraction(1, 2))  # M -> i/2, so -2iM becomes 1


def _fmt_coeff(cfg: VerifyConfig, c: CoeffFn, xname: str = "r") -> str:
    if cfg.normalize_mass:
        c = c.subs_m(_M_NORMALIZED)
    return coeff_str(c, xname)


def _fmt_scalar(cfg: VerifyConfig, s: CoeffFn) -> str:
    if cfg.normalize_mass:
        s = s.subs_m(_M_NORMALIZED)
    return scalar_str(s)


def _fmt_symbol(cfg: VerifyConfig, D: Symbol) -> str:
    if cfg.normalize_mass:
        D = Symbol(D.var, {k: c.subs_m(_M_NORMALIZED) for k, c in D.terms.items()}, D.floor)
    return symbol_str(D)


def _trusted_zero(D: Symbol) -> bool:
    if D.floor is EXACT:
        return D.is_zero()
    return max_trusted_order(D) is None


# ------------------------------------------------------------- shared boxes

def _degrees(n: int):
    return range(-n, n + 1)


def _half_orders(n: int):
    return [HalfInt(k) for k in range(-2 * n, 2 * n + 1)]


def _labeled_basis(n: int):
    return [(f"{kind}[{idx}]", X) for kind, idx, X in sv_basis(n)]


def _random_symbol(rng: random.Random, var: str, n: int) -> Symbol:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        if var == XI:
            k = HalfInt(rng.randint(-2 * n, 2 * n))
        else:
            k = h(rng.randint(-n, n))
        c = CoeffFn.zero()
        for _ in range(rng.randint(1, 2)):
            g = GaussRat(
                Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)),
                Fraction(rng.randint(-2, 2), 1),
            )
            c = c + CoeffFn.mono(rng.randint(-2, 2), rng.randint(-2, 2), g)
        if not c.is_zero():
            terms[k] = c
    return Symbol(var, terms)


def _npoint(v=None, vm2=None, v0=None, a=None) -> GDual:
    terms = {}
    if vm2 is not None:
        terms[h(-2)] = vm2
    if v0 is not None:
        terms[h(0)] = v0
    return GDual(v=v, V=Symbol(R, terms), a=a)


def _slice_points(n: int):
    """Single-slot monomial points of the invariant slice, fixed order."""
    pts = []
    for p in _degrees(n):
        pts.append((f"v = {coeff_str(CoeffFn.t_pow(p), 'r')}", _npoint(v=CoeffFn.t_pow(p))))
    for p in _degrees(n):
        for q in _degrees(n):
            c = CoeffFn.mono(p, q)
            pts.append((f"V[-2] = {coeff_str(c, 'r')}", _npoint(vm2=c)))
    for p in _degrees(n):
        pts.append((f"V[0] = {coeff_str(CoeffFn.t_pow(p), 'r')}", _npoint(v0=CoeffFn.t_pow(p))))
    for p in _degrees(n):
        pts.append((f"a = {coeff_str(CoeffFn.t_pow(p), 'r')}", _npoint(a=CoeffFn.t_pow(p))))
    return pts


# ------------------------------------------------------------ suite: psido

def _suite_psido_axioms(cfg: VerifyConfig) -> list:
    n, F = cfg.index_range, h(cfg.floor)
    deep = F - h(2)
    cases = []

    rbox = [
        (k, Symbol(R, {h(k): CoeffFn.x_pow(p)}))
        for k in range(-n, n + 1)
        for p in _degrees(n)
    ]
    one = h(1)
    for (ka, A), (kb, B) in itertools.combinations(rbox, 2):
        def check(A=A, B=B, ka=ka, kb=kb):
            br = sym_bracket(A, B, F)
            t = adler_trace(br)
            if not t.is_zero():
                return (f"Tr[A,B] = {_fmt_coeff(cfg, t)}", "0")
            if ka <= 1 and kb <= 1:
                top = br.top()
                if top is not None and top > one:
                    return (f"[A,B] has order {top}", "order <= 1")
            return None

        cases.append((f"A = {symbol_str(A)}, B = {symbol_str(B)}", check))

    spot = [
        Symbol(XI, {k: CoeffFn.x_pow(p)})
        for k in (h("-3/2"), h(-1), h(0), h(2))
        for p in (-2, 0, 1)
    ]
    spot_names = [symbol_str(D) for D in spot]

    @functools.cache
    def product(i: int, j: int) -> Symbol:
        return sym_mul(spot[i], spot[j], deep)

    @functools.cache
    def bracket(i: int, j: int) -> Symbol:
        return sym_bracket(spot[i], spot[j], deep)

    for (i, A), (j, B), (k, C) in itertools.product(enumerate(spot), repeat=3):
        def check(A=A, C=C, i=i, j=j, k=k):
            lhs = sym_mul(product(i, j), C, F)
            rhs = sym_mul(A, product(j, k), F)
            if eq_trusted(lhs, rhs):
                return None
            return (_fmt_symbol(cfg, lhs), _fmt_symbol(cfg, rhs))

        label = f"assoc A = {spot_names[i]}, B = {spot_names[j]}, C = {spot_names[k]}"
        cases.append((label, check))

    for (i, A), (j, B), (k, C) in itertools.combinations(enumerate(spot), 3):
        def check(A=A, B=B, C=C, i=i, j=j, k=k):
            total = sym_add(
                sym_add(
                    sym_bracket(A, bracket(j, k), F),
                    sym_bracket(B, bracket(k, i), F),
                ),
                sym_bracket(C, bracket(i, j), F),
            )
            if _trusted_zero(total):
                return None
            return (_fmt_symbol(cfg, total), "0")

        label = f"jacobi A = {spot_names[i]}, B = {spot_names[j]}, C = {spot_names[k]}"
        cases.append((label, check))

    if cfg.random_cases:
        rng = random.Random(f"psido:{cfg.seed}")
        for i in range(cfg.random_cases):
            A = _random_symbol(rng, XI, n)
            B = _random_symbol(rng, XI, n)
            C = _random_symbol(rng, XI, n)

            def check(A=A, B=B, C=C):
                lhs = sym_mul(sym_mul(A, B, deep), C, F)
                rhs = sym_mul(A, sym_mul(B, C, deep), F)
                if not eq_trusted(lhs, rhs):
                    return (_fmt_symbol(cfg, lhs), _fmt_symbol(cfg, rhs))
                t = adler_trace(sym_bracket(A, B, F))
                if not t.is_zero():
                    return (f"Tr[A,B] = {_fmt_coeff(cfg, t)}", "0")
                return None

            cases.append((f"soak #{i}: A = {symbol_str(A)}, B = {symbol_str(B)}, C = {symbol_str(C)}", check))
    return cases


# ------------------------------------------------------------ suite: theta

def _suite_theta(cfg: VerifyConfig) -> list:
    n, F = cfg.index_range, h(cfg.floor)
    cases = []
    nu = cfg.nu
    floor_arg = None if nu.is_zero() else F

    xi_box = [
        (k, p, Symbol(XI, {k: CoeffFn.x_pow(p)}))
        for k in _half_orders(n)
        for p in _degrees(n)
    ]
    names = {id(A): symbol_str(A) for _, _, A in xi_box}

    @functools.cache
    def image(i: int) -> Symbol:
        return tr.theta(xi_box[i][2])

    for i, (k, p, A) in enumerate(xi_box):
        def check(A=A, i=i):
            back = tr.theta_inv(image(i), F)
            if eq_trusted(back, A):
                return None
            return (_fmt_symbol(cfg, back), _fmt_symbol(cfg, A))

        cases.append((f"round trip of {names[id(A)]}", check))

    for q in range(0, n + 1):
        for m in _degrees(n):
            B = Symbol(R, {h(m): CoeffFn.x_pow(q)})

            def check(B=B):
                back = tr.theta(tr.theta_inv(B))
                if back == B:
                    return None
                return (_fmt_symbol(cfg, back), _fmt_symbol(cfg, B))

            cases.append((f"round trip of {symbol_str(B)}", check))

    zero_h = h(0)
    double_floor = h(F.twice)  # image orders double, so the window does too
    for a, (ka, pa, A) in enumerate(xi_box):
        left_poly = ka.is_integer and ka >= zero_h
        for b, (kb, pb, B) in enumerate(xi_box):
            if not (left_poly or pb >= 0):
                continue  # the composition would not terminate exactly

            def check(A=A, B=B, a=a, b=b):
                lhs = tr.theta(sym_mul(A, B))
                tA, tB = image(a), image(b)
                try:
                    rhs = sym_mul(tA, tB)
                    ok = lhs == rhs
                except ValueError:
                    # a series: compare down to the doubled floor, or deeper
                    # when every order of lhs sits below it
                    rhs = sym_mul(tA, tB, hmin(double_floor, lhs.top()))
                    ok = eq_trusted(lhs, rhs)
                if ok:
                    return None
                return (_fmt_symbol(cfg, lhs), _fmt_symbol(cfg, rhs))

            cases.append((f"image of {names[id(A)]} o {names[id(B)]}", check))

    for k, p, A in xi_box:
        def check(A=A, k=k, p=p):
            img = tr.theta(A, floor_arg, nu=nu)
            want = 2 * (Fraction(p) - k.as_fraction())
            for kk, c in img.terms.items():
                for (_, jx, _) in c.terms:
                    got = Fraction(jx) - kk.as_fraction()
                    if got != want:
                        return (
                            f"a term of space weight {got} inside {_fmt_symbol(cfg, img)}",
                            f"homogeneous of weight {want}",
                        )
            return None

        cases.append((f"grading of {names[id(A)]}", check))

    two = CoeffFn.const(2)
    minus_one = h(-1)
    for i, (k, p, A) in enumerate(xi_box):
        def check(i=i, k=k, p=p):
            got = adler_trace(image(i))
            want = two if (k == minus_one and p == -1) else CoeffFn.zero()
            if got == want:
                return None
            return (_fmt_coeff(cfg, got), _fmt_coeff(cfg, want))

        cases.append((f"trace pullback of {names[id(A)]}", check))

    if cfg.random_cases:
        rng = random.Random(f"theta:{cfg.seed}")
        for i in range(cfg.random_cases):
            A = _random_symbol(rng, XI, n)

            def check(A=A):
                back = tr.theta_inv(tr.theta(A), F)
                if eq_trusted(back, A):
                    return None
                return (_fmt_symbol(cfg, back), _fmt_symbol(cfg, A))

            cases.append((f"soak #{i}: round trip of {symbol_str(A)}", check))
    return cases


# -------------------------------------------------------- suite: timeshift

def _suite_timeshift(cfg: VerifyConfig) -> list:
    n, F = cfg.index_range, h(cfg.floor)
    depth = abs(F.twice) + 4
    cases = []

    for q in _degrees(n):
        f = CoeffFn.x_pow(q, Fraction(7, 2))

        def check(f=f):
            back = tr.time_shift_inverse(tr.time_shift(f, depth))
            if back == f:
                return None
            return (_fmt_coeff(cfg, back, "xi"), _fmt_coeff(cfg, f, "xi"))

        cases.append((f"shift then unshift {coeff_str(f, 'xi')}", check))

    one = CoeffFn.one()
    for q in (1, 2):
        def check(q=q):
            prod = tr.time_shift(CoeffFn.x_pow(-q), depth) * tr.time_shift(CoeffFn.x_pow(q), depth)
            got = prod.drop_x_from(depth)
            if got == one:
                return None
            return (_fmt_coeff(cfg, got, "xi"), "1")

        cases.append((f"inverse pair at power {q} multiplies to 1 below the cut", check))

    D = Symbol(XI, {h("1/2"): CoeffFn.x_pow(1), h(-1): CoeffFn.x_pow(-1)})

    def check_wrapper(D=D):
        got = tr.time_shift_symbol(D, depth)
        for k, c in D.terms.items():
            if got.coeff(k) != tr.time_shift(c, depth):
                return (_fmt_coeff(cfg, got.coeff(k), "xi"), _fmt_coeff(cfg, tr.time_shift(c, depth), "xi"))
        return None

    cases.append((f"slotwise action on {symbol_str(D)}", check_wrapper))

    poly = [
        Symbol(XI, {k: CoeffFn.x_pow(p)})
        for k in (h(0), h("1/2"), h(2))
        for p in (0, 1, 2)
    ]
    for A, B in itertools.product(poly, repeat=2):
        def check(A=A, B=B):
            lhs = tr.time_shift_symbol(sym_mul(A, B), depth)
            rhs = sym_mul(tr.time_shift_symbol(A, depth), tr.time_shift_symbol(B, depth))
            if lhs == rhs:
                return None
            return (_fmt_symbol(cfg, lhs), _fmt_symbol(cfg, rhs))

        cases.append((f"conjugation respects {symbol_str(A)} o {symbol_str(B)}", check))
    return cases


# --------------------------------------------------------- suite: cocycles

def _suite_cocycles(cfg: VerifyConfig) -> list:
    n = cfg.index_range
    cases = []
    box = [
        Symbol(R, {h(k): CoeffFn.x_pow(p)})
        for k in (-1, 0, 1)
        for p in _degrees(n)
    ]
    names = [symbol_str(D) for D in box]
    ids = list(CocycleId)

    for cid in ids:
        for (i, A), (j, B) in itertools.combinations_with_replacement(enumerate(box), 2):
            def check(cid=cid, A=A, B=B):
                s = eval_cocycle(cid, A, B) + eval_cocycle(cid, B, A)
                if s.is_zero():
                    return None
                return (_fmt_coeff(cfg, s), "0")

            cases.append((f"{cid.name} antisymmetry on A = {names[i]}, B = {names[j]}", check))

    @functools.cache
    def bracket(i: int, j: int) -> Symbol:
        return quotient_bracket(box[i], box[j])

    for cid in ids:
        for (i, A), (j, B), (k, C) in itertools.combinations(enumerate(box), 3):
            def check(cid=cid, A=A, B=B, C=C, i=i, j=j, k=k):
                d = cyclic_defect(cid, A, B, C, bracket(i, j), bracket(j, k), bracket(k, i))
                if d.is_zero():
                    return None
                return (_fmt_coeff(cfg, d), "0")

            label = f"{cid.name} identity on A = {names[i]}, B = {names[j]}, C = {names[k]}"
            cases.append((label, check))

    loop_triples = [
        (
            Symbol(R, {h(1): CoeffFn.mono(2, 1)}),
            Symbol(R, {h(0): CoeffFn.t_pow(-1)}),
            Symbol(R, {h(-1): CoeffFn.mono(1, -1)}),
        ),
        (
            Symbol(R, {h(1): CoeffFn.mono(-1, -2)}),
            Symbol(R, {h(-1): CoeffFn.mono(3, 2)}),
            Symbol(R, {h(0): CoeffFn.mono(0, 1)}),
        ),
        (
            Symbol(R, {h(0): CoeffFn.mono(1, 2), h(1): CoeffFn.t_pow(2)}),
            Symbol(R, {h(-1): CoeffFn.mono(-2, 1)}),
            Symbol(R, {h(1): CoeffFn.mono(0, -1)}),
        ),
    ]
    for t_idx, (A, B, C) in enumerate(loop_triples):
        for cid in ids:
            def check(cid=cid, A=A, B=B, C=C):
                d = cocycle_identity_defect(cid, A, B, C)
                if d.is_zero():
                    return None
                return (_fmt_coeff(cfg, d), "0")

            cases.append((f"{cid.name} identity on loop triple #{t_idx}", check))

    if cfg.random_cases:
        rng = random.Random(f"cocycles:{cfg.seed}")
        for i in range(cfg.random_cases):
            tri = []
            for _ in range(3):
                terms = {}
                for k in (-1, 0, 1):
                    if rng.random() < 0.7:
                        terms[h(k)] = CoeffFn.mono(
                            rng.randint(-2, 2), rng.randint(-n, n), Fraction(rng.randint(-3, 3) or 1)
                        )
                tri.append(Symbol(R, terms or {h(0): CoeffFn.one()}))
            A, B, C = tri

            def check(A=A, B=B, C=C):
                for cid in ids:
                    d = cocycle_identity_defect(cid, A, B, C)
                    if not d.is_zero():
                        return (f"{cid.name} defect {_fmt_coeff(cfg, d)}", "0")
                return None

            cases.append((f"soak #{i}: all identities on random triple", check))
    return cases


# ---------------------------------------------------------- suite: lemma26

def _suite_lemma26(cfg: VerifyConfig) -> list:
    n, F = cfg.index_range, h(cfg.floor)
    basis = _labeled_basis(n)
    images = [tr.j_map(X) for _, X in basis]
    bound = h("-1/2")
    cases = []
    for (i, (la, Xa)), (j, (lb, Xb)) in itertools.combinations(enumerate(basis), 2):
        def check(i=i, j=j, Xa=Xa, Xb=Xb):
            d = sym_sub(sym_bracket(images[i], images[j], F), tr.j_map(sv_bracket(Xa, Xb)))
            m = max_trusted_order(d)
            if m is None or m <= bound:
                return None
            return (f"defect of order {m}: {_fmt_symbol(cfg, d)}", "order <= -1/2")

        cases.append((f"X = {la}, Y = {lb}", check))
    return cases


# ---------------------------------------------------------- suite: lemma33

def _suite_lemma33(cfg: VerifyConfig) -> list:
    n, F = cfg.index_range, h(cfg.floor)
    cases = []

    for k in _degrees(n):
        for jv in (0, "1/2", 1):
            def check(k=k, jv=jv):
                d = tr.schrodinger_invariance_defect(CoeffFn.t_pow(k), jv, F)
                if d.is_zero():
                    return None
                return (_fmt_symbol(cfg, d), "0")

            cases.append((f"f = t^{k}, weight {jv}", check))

    m2h = Fraction(1, 2) * M ** 2
    i6m3 = GaussRat(0, Fraction(1, 6)) * M ** 3
    for k in (0, 1, 2, 3):
        def check(k=k):
            f = CoeffFn.t_pow(k)
            fd = f.deriv("T")
            fdd = fd.deriv("T")
            fddd = fdd.deriv("T")
            expect = Symbol(
                R,
                {
                    h(2): -f,
                    h(1): fd * CoeffFn.x_pow(1) * I_M,
                    h(0): fdd * CoeffFn.x_pow(2) * m2h,
                    h(-1): -(fdd * CoeffFn.x_pow(1) * m2h + fddd * CoeffFn.x_pow(3) * i6m3),
                },
                h(-1),
            )
            got = tr.x_generator(f, 1, F)
            if eq_trusted(got, expect):
                return None
            return (_fmt_symbol(cfg, got), _fmt_symbol(cfg, expect))

        cases.append((f"frozen full-weight expansion at f = t^{k}", check))

    for k in (0, 1, 2):
        def check(k=k):
            g = CoeffFn.t_pow(k)
            gd = g.deriv("T")
            gdd = gd.deriv("T")
            expect = Symbol(
                R,
                {
                    h(1): -g,
                    h(0): gd * CoeffFn.x_pow(1) * I_M,
                    h(-1): gdd * CoeffFn.x_pow(2) * m2h,
                },
                h(-1),
            )
            got = tr.x_generator(g, "1/2", F)
            if eq_trusted(got, expect):
                return None
            return (_fmt_symbol(cfg, got), _fmt_symbol(cfg, expect))

        cases.append((f"frozen half-weight expansion at g = t^{k}", check))

    for k in (0, 1, 2):
        def check(k=k):
            f = CoeffFn.t_pow(k)
            got = tr.x_generator(f, 0, F).coeff(h(0))
            if got == -f:
                return None
            return (_fmt_coeff(cfg, got), _fmt_coeff(cfg, -f))

        cases.append((f"weightless family leading term at h = t^{k}", check))

    mu0 = CoeffFn.zero()
    evo = free_evolution_op()
    for k in (0, 1, 2, 3):
        def check(k=k):
            f = CoeffFn.t_pow(k)
            lhs = d_pi(mu0, SvElement(f=f)).scale(TWO_I_M)
            plus = dop_from_r_symbol(differential_part(tr.x_generator(f, 1, F)))
            rhs = dop_mul(DiffOp2.function(f), evo) - plus
            if lhs == rhs:
                return None
            return (str(lhs), str(rhs))

        cases.append((f"time bridge at f = t^{k}", check))

    for k in (0, 1, 2):
        def check(k=k):
            g = CoeffFn.t_pow(k)
            lhs = d_pi(mu0, SvElement(g=g))
            rhs = dop_from_r_symbol(differential_part(tr.x_generator(g, "1/2", F)))
            if lhs == rhs:
                return None
            return (str(lhs), str(rhs))

        cases.append((f"shift bridge at g = t^{k}", check))

    minus_im = -I_M
    for k in (0, 1, 2):
        def check(k=k):
            hf = CoeffFn.t_pow(k)
            lhs = d_pi(mu0, SvElement(h=hf))
            rhs = dop_from_r_symbol(differential_part(tr.x_generator(hf, 0, F))).scale(minus_im)
            if lhs == rhs:
                return None
            return (str(lhs), str(rhs))

        cases.append((f"phase bridge at h = t^{k}", check))
    return cases


# -------------------------------------------------------- suite: theorem51

def _suite_theorem51(cfg: VerifyConfig) -> list:
    n, F, c = cfg.index_range, h(cfg.floor), cfg.c
    deep = F - h(2)
    basis = _labeled_basis(n)
    images = [tr.j_map(X) for _, X in basis]
    lifted = [embed_momentum_symbol(E, deep) for E in images]
    cases = []
    for (i, (la, _)), (j, (lb, _)) in itertools.combinations(enumerate(basis), 2):
        def check(i=i, j=j):
            lhs = g_bracket(lifted[i], lifted[j], c, F)
            rhs = embed_momentum_symbol(sym_bracket(images[i], images[j], F), F)
            d = lhs.sub(rhs)
            if not d.w.is_zero():
                return (f"d_t component {_fmt_coeff(cfg, d.w)}", "0")
            if not d.alpha.is_zero():
                return (f"central component {_fmt_coeff(cfg, d.alpha)}", "0")
            dW = d.W
            if dW.floor is EXACT:
                ok = dW.is_zero()
            else:
                ok = dW.floor <= F and max_trusted_order(dW) is None
            if ok:
                return None
            return (f"loop component {_fmt_symbol(cfg, dW)}", "0")

        cases.append((f"X = {la}, Y = {lb}", check))
    return cases


# -------------------------------------------------------- suite: theorem61

def _duality_probes(n: int):
    probes = []
    for k in (-2, -1, 0, 1):
        for qt in _degrees(n):
            for qr in _degrees(n):
                W = Symbol(R, {h(k): CoeffFn.mono(qt, qr)})
                probes.append((f"W = {symbol_str(W)}", GElement(W=W)))
    for p in _degrees(n):
        probes.append((f"w = t^{p}", GElement(w=CoeffFn.t_pow(p))))
    for p in _degrees(n):
        probes.append((f"central t^{p}", GElement(alpha=CoeffFn.t_pow(p))))
    return probes


def _suite_theorem61(cfg: VerifyConfig) -> list:
    n, F, c = cfg.index_range, h(cfg.floor), cfg.c
    basis = _labeled_basis(n)
    points = _slice_points(n)
    cases = []

    adstar = [[coadjoint(X, mu, c) for _, mu in points] for _, X in basis]

    for i, (lx, X) in enumerate(basis):
        for m, (lm, _) in enumerate(points):
            def check(i=i, m=m):
                out = adstar[i][m]
                if in_invariant_slice(out):
                    return None
                return (str(out), "a point of the invariant slice")

            cases.append((f"slice stability: X = {lx}, {lm}", check))

    minus_two = h(-2)
    zero_w = Fraction(0)
    for i, (lx, X) in enumerate(basis):
        for m, (lm, mu) in enumerate(points):
            def check(i=i, X=X, mu=mu, m=m):
                out = adstar[i][m]
                act = d_sigma_tilde(zero_w, X, SchrodPoint(a=mu.a, V=mu.V.coeff(minus_two)))
                if out.V.coeff(minus_two) != act.V:
                    return (_fmt_coeff(cfg, out.V.coeff(minus_two)), _fmt_coeff(cfg, act.V))
                if out.a != act.a:
                    return (_fmt_coeff(cfg, out.a), _fmt_coeff(cfg, act.a))
                return None

            cases.append((f"free family match: X = {lx}, {lm}", check))

    # every case pairs one element against all points at once, summing the
    # pairing terms of both sides per point; brackets are computed down to
    # the floor below which no point reads an order
    ptab = DualFamily(mu for _, mu in points)
    atab = [DualFamily(row) for row in adstar]
    labels = [lm for lm, _ in points]
    G = hmax(F, ptab.floor)

    def first_nonzero(sums, undetermined):
        """(label, value) of the first point with a nonzero sum, raising at
        the first undetermined one, as pairing the points one by one would."""
        stop = min(undetermined, default=len(labels))
        for m in sorted(sums):
            if m >= stop:
                break
            row = sums[m]
            if any(not v.is_zero() for v in row.values()):
                return labels[m], pair_value(row)
        if stop < len(labels):
            raise ValueError("trace not determined at this truncation")
        return None

    probes = _duality_probes(n)
    lifts = [embed_I(X, F) for _, X in basis]
    for i, (lx, X) in enumerate(basis):
        for ly, Y in probes:
            def check(i=i, Y=Y):
                B = g_bracket(lifts[i], Y, c, G)
                sums: dict = {}
                atab[i].add_into(Y, sums)
                ptab.add_into(B, sums)
                found = first_nonzero(sums, atab[i].undetermined(Y) + ptab.undetermined(B))
                if found is not None:
                    lm, d = found
                    return (f"defect {_fmt_scalar(cfg, d)} at {lm}", "0")
                return None

            cases.append((f"duality: X = {lx}, probe {ly}", check))

    kappas = (h("-1/2"), h(-1), h("-3/2"))
    for k in _degrees(n):
        f = CoeffFn.t_pow(k)
        for kap in kappas:
            E = Symbol(XI, {kap: f.t_to_x(MINUS_2I_M)})
            lifted = embed_momentum_symbol(E, F)
            for ly, Y in probes:
                def check(lifted=lifted, Y=Y):
                    B = g_bracket(lifted, Y, c, G)
                    sums: dict = {}
                    ptab.add_into(B, sums)
                    found = first_nonzero(sums, ptab.undetermined(B))
                    if found is not None:
                        lm, s = found
                        return (f"pairing {_fmt_scalar(cfg, s)} at {lm}", "0")
                    return None

                cases.append((f"quotient nullity: f = t^{k}, order {kap}, probe {ly}", check))

    def negative_control():
        probe_pts = [
            _npoint(vm2=CoeffFn.mono(1, 1), a=CoeffFn.t_pow(1)),
            _npoint(a=CoeffFn.one()),
        ]
        seen = 0
        for _, X in basis:
            for mu in probe_pts:
                out = coadjoint(X, mu, GaussRat(1))
                act = d_sigma_tilde(zero_w, X, SchrodPoint(a=mu.a, V=mu.V.coeff(minus_two)))
                if out.V.coeff(minus_two) != act.V or out.a != act.a:
                    seen += 1
        if seen > 0:
            return None
        return ("no mismatch anywhere at central charge 1", "at least one mismatch")

    cases.append(("negative control: charge 1 must break the free family match", negative_control))
    return cases


# ---------------------------------------------------------- suite: dpi-rep

def _weights(cfg: VerifyConfig):
    ws = [Fraction(0), Fraction(1, 4), Fraction(1)]
    if cfg.mu is not None and cfg.mu not in ws:
        ws.append(cfg.mu)
    return ws


def _suite_dpi_rep(cfg: VerifyConfig) -> list:
    n = cfg.index_range
    basis = _labeled_basis(n)
    cases = []
    for w in _weights(cfg):
        scal = CoeffFn.const(w)
        ops = [d_pi(scal, X) for _, X in basis]
        for (i, (la, Xa)), (j, (lb, Xb)) in itertools.combinations(enumerate(basis), 2):
            def check(i=i, j=j, Xa=Xa, Xb=Xb, scal=scal, ops=ops):
                lhs = dop_bracket(ops[i], ops[j])
                rhs = d_pi(scal, sv_bracket(Xa, Xb))
                if lhs == rhs:
                    return None
                return (str(lhs), str(rhs))

            cases.append((f"weight {w}: X = {la}, Y = {lb}", check))
    return cases


# ------------------------------------------------------- suite: dsigma-rep

def _suite_dsigma_rep(cfg: VerifyConfig) -> list:
    n = cfg.index_range
    basis = _labeled_basis(n)
    cases = []
    pts = [
        SchrodPoint(a=CoeffFn.one() + CoeffFn.t_pow(2), V=CoeffFn.mono(0, 2) + CoeffFn.mono(1, 1)),
        SchrodPoint(a=CoeffFn.t_pow(-1), V=CoeffFn.mono(-2, 3) + CoeffFn.t_pow(3)),
    ]
    variants = (("shifted", d_sigma_tilde), ("affine", d_sigma_affine))

    @functools.cache
    def acted(act, w: Fraction, i: int, p: int) -> SchrodPoint:
        return act(w, basis[i][1], pts[p])

    for vname, act in variants:
        for w in _weights(cfg):
            for (i, (la, Xa)), (j, (lb, Xb)) in itertools.combinations(enumerate(basis), 2):
                def check(act=act, w=w, Xa=Xa, Xb=Xb, i=i, j=j):
                    for p, P in enumerate(pts):
                        first = act(w, Xa, acted(act, w, j, p))
                        second = act(w, Xb, acted(act, w, i, p))
                        want = act(w, sv_bracket(Xa, Xb), P)
                        if first.a - second.a != want.a:
                            return (_fmt_coeff(cfg, first.a - second.a), _fmt_coeff(cfg, want.a))
                        if first.V - second.V != want.V:
                            return (_fmt_coeff(cfg, first.V - second.V), _fmt_coeff(cfg, want.V))
                    return None

                cases.append((f"{vname} rep at weight {w}: X = {la}, Y = {lb}", check))

    P0 = SchrodPoint(a=CoeffFn.t_pow(1), V=CoeffFn.mono(2, 1))
    for k in _degrees(n):
        def check(k=k):
            f = CoeffFn.t_pow(k)
            fd = f.deriv("T")
            for w in _weights(cfg):
                dt = d_sigma_tilde(w, SvElement(f=f), P0)
                da = d_sigma_affine(w, SvElement(f=f), P0)
                if dt.a - da.a != -(P0.a * fd):
                    return (_fmt_coeff(cfg, dt.a - da.a), _fmt_coeff(cfg, -(P0.a * fd)))
                if dt.V - da.V != -(fd * P0.V):
                    return (_fmt_coeff(cfg, dt.V - da.V), _fmt_coeff(cfg, -(fd * P0.V)))
            return None

        cases.append((f"variant discrepancy at f = t^{k}", check))

    for label, X in (("shift[1/2]", shift_mode(h("1/2"))), ("phase[-1]", phase_mode(-1))):
        def check(X=X):
            for w in _weights(cfg):
                dt = d_sigma_tilde(w, X, P0)
                da = d_sigma_affine(w, X, P0)
                if dt.a != da.a or dt.V != da.V:
                    return (str((coeff_str(dt.a, 'r'), coeff_str(dt.V, 'r'))),
                            str((coeff_str(da.a, 'r'), coeff_str(da.V, 'r'))))
            return None

        cases.append((f"variants agree on {label}", check))
    return cases


# --------------------------------------------------- suite: poisson-lemma71

def _lemma71_defect(X: SvElement, Y: SvElement) -> LocalFunctional:
    """The two measured exceptional terms of the bracket homomorphism."""
    iq = GaussRat(0, Fraction(1, 4)) * M
    m2 = M ** 2
    if not X.f.is_zero() and not Y.g.is_zero():
        fdd = X.f.deriv("T").deriv("T")
        return LocalFunctional.monomial(-(Y.g * fdd * iq), jet(FIELD_V0))
    if not X.g.is_zero() and not Y.f.is_zero():
        return _lemma71_defect(Y, X).neg()
    if not X.g.is_zero() and not Y.h.is_zero():
        return LocalFunctional.monomial(-(Y.h.deriv("T") * X.g * m2), jet(FIELD_V0))
    if not X.h.is_zero() and not Y.g.is_zero():
        return _lemma71_defect(Y, X).neg()
    return LocalFunctional.zero()


def _suite_poisson_lemma71(cfg: VerifyConfig) -> list:
    n, F, c = cfg.index_range, h(cfg.floor), cfg.c
    basis = _labeled_basis(n)
    cases = []

    pair_jets = [jet(f, i, j) for f in (FIELD_VM2, FIELD_V0) for i in (0, 1) for j in (0, 1)]
    loop_jets = {FIELD_V: [jet(FIELD_V, i) for i in (0, 1)],
                 FIELD_A: [jet(FIELD_A, i) for i in (0, 1)]}
    tr_coeff = CoeffFn.mono(1, 1)
    monomials = [(f"{jv}", LocalFunctional.monomial(tr_coeff, jv)) for jv in pair_jets]
    monomials += [
        (f"{ja} {jb}", LocalFunctional.monomial(tr_coeff, ja, jb))
        for ja, jb in itertools.combinations_with_replacement(pair_jets, 2)
    ]
    loop_monomials = []
    for fld, jets in loop_jets.items():
        loop_monomials += [(f"{jv}", LocalFunctional.monomial(CoeffFn.t_pow(2), jv)) for jv in jets]
        loop_monomials += [
            (f"{ja} {jb}", LocalFunctional.monomial(CoeffFn.t_pow(2), ja, jb))
            for ja, jb in itertools.combinations_with_replacement(jets, 2)
        ]
    all_fields = (FIELD_VM2, FIELD_V0, FIELD_V, FIELD_A)
    for label, F0 in monomials:
        for var in ("T", "X"):
            def check(F0=F0, var=var):
                FF = total_derivative(F0, var)
                for fld in all_fields:
                    d = variational_derivative(FF, fld)
                    if not d.is_zero():
                        return (f"derivative along {fld}: {d}", "0")
                return None

            cases.append((f"variational derivative kills D_{var.lower()} of {label}", check))
    for label, F0 in loop_monomials:
        def check(F0=F0):
            FF = total_derivative(F0, "T")
            for fld in all_fields:
                d = variational_derivative(FF, fld)
                if not d.is_zero():
                    return (f"derivative along {fld}: {d}", "0")
            return None

        cases.append((f"variational derivative kills D_t of {label}", check))

    points = _slice_points(n)
    functionals = [lemma71_functional(X) for _, X in basis]
    lifts = [embed_I(X, F) for _, X in basis]

    for i, (lx, X) in enumerate(basis):
        for lm, mu in points:
            def check(i=i, X=X, mu=mu):
                got = hamiltonian_vector(functionals[i], mu, c)
                want = coadjoint(X, mu, c)
                if got == want:
                    return None
                return (str(got), str(want))

            cases.append((f"generated flow: X = {lx}, {lm}", check))

    for i, (lx, X) in enumerate(basis):
        for lm, mu in points:
            def check(i=i, mu=mu):
                got = evaluate(functionals[i], mu)
                want = pairing(mu, lifts[i])
                if got == want:
                    return None
                return (_fmt_scalar(cfg, got), _fmt_scalar(cfg, want))

            cases.append((f"moment pairing: X = {lx}, {lm}", check))

    strict_pts = [
        ("mixed strict #0", _npoint(v=CoeffFn.t_pow(1), vm2=CoeffFn.mono(1, -1),
                                    v0=CoeffFn.t_pow(-1), a=CoeffFn.t_pow(-2))),
        ("mixed strict #1", _npoint(vm2=CoeffFn.mono(-2, 2), v0=CoeffFn.one(), a=CoeffFn.t_pow(1))),
        ("v only", _npoint(v=CoeffFn.t_pow(2))),
        ("free slot only", _npoint(vm2=CoeffFn.mono(2, 1))),
        ("potential only", _npoint(v0=CoeffFn.t_pow(-2))),
        ("a only", _npoint(a=CoeffFn.t_pow(3))),
    ]
    loose_pts = [(f"loose #{p}", _npoint(v0=CoeffFn.mono(p, -1))) for p in range(-4, 2)]
    loose_pts.append(("loose mixed", _npoint(v=CoeffFn.t_pow(1), vm2=CoeffFn.mono(1, -1),
                                             v0=CoeffFn.mono(-2, -1), a=CoeffFn.t_pow(-1))))
    homo_pts = strict_pts + loose_pts

    for (i, (la, Xa)), (j, (lb, Xb)) in itertools.combinations(enumerate(basis), 2):
        def check(i=i, j=j, Xa=Xa, Xb=Xb):
            FB = lemma71_functional(sv_bracket(Xa, Xb))
            D = _lemma71_defect(Xa, Xb)
            for lm, mu in homo_pts:
                got = poisson_bracket(functionals[i], functionals[j], mu, c)
                want = evaluate(FB, mu) + evaluate(D, mu)
                if got != want:
                    return (f"bracket value {_fmt_scalar(cfg, got)} at {lm}",
                            _fmt_scalar(cfg, want))
            return None

        cases.append((f"closure with measured defects: X = {la}, Y = {lb}", check))

    def defect_visibility():
        pairs = [
            (time_mode(1), shift_mode(h("1/2"))),
            (shift_mode(h("1/2")), phase_mode(1)),
        ]
        for Xa, Xb in pairs:
            D = _lemma71_defect(Xa, Xb)
            if all(evaluate(D, mu).is_zero() for _, mu in homo_pts):
                return ("an exceptional defect invisible on the whole point box",
                        "a visibly nonzero defect")
        return None

    cases.append(("the two exceptional defects are visible on the box", defect_visibility))

    curated = [
        ("quadratic tail coefficient", LocalFunctional.monomial(CoeffFn.x_pow(2), jet(FIELD_VM2)), False),
        ("affine coefficient", LocalFunctional.monomial(CoeffFn.one() + CoeffFn.x_pow(1), jet(FIELD_VM2)), True),
        ("squared free slot", LocalFunctional.monomial(CoeffFn.one(), jet(FIELD_VM2), jet(FIELD_VM2)), False),
        ("matched jet weight", LocalFunctional.monomial(CoeffFn.x_pow(2), jet(FIELD_VM2, 0, 1)), True),
        ("overweight jet", LocalFunctional.monomial(CoeffFn.x_pow(3), jet(FIELD_VM2, 0, 1)), False),
    ]
    for label, F0, want in curated:
        def check(F0=F0, want=want):
            got = n_preservation_check(F0)
            if got == want:
                return None
            return (str(got), str(want))

        cases.append((f"slice criterion: {label}", check))
    return cases


# ----------------------------------------------------------- suite: nu-scan

_SCAN_PROBES = (
    ("time[0]", time_mode(0)),
    ("time[1]", time_mode(1)),
    ("time[2]", time_mode(2)),
    ("shift[3/2]", shift_mode(h("3/2"))),
    ("phase[1]", phase_mode(1)),
)


def _scan_read(cfg: VerifyConfig, lifted: GElement, probe: GElement) -> CoeffFn:
    """One coadjoint coefficient at the unit point, read through the pairing."""
    mu = GDual(a=CoeffFn.one())
    return -pairing(mu, g_bracket(lifted, probe, cfg.c, h(cfg.floor)))


def _tx_coeff(c: CoeffFn, p: int, q: int) -> CoeffFn:
    """The coefficient of t^p x^q in c, a value in M alone."""
    return CoeffFn({(0, 0, m): v for (pp, qq, m), v in c.terms.items() if (pp, qq) == (p, q)})


def _scan_at(cfg: VerifyConfig, nu: GaussRat):
    """Solve for the weight matching the deformed coadjoint action, if any."""
    F = h(cfg.floor)
    lifted = {name: embed_I(X, F, nu=nu) for name, X in _SCAN_PROBES}

    def vrow(name, alpha, beta):
        W = Symbol(R, {h(1): CoeffFn.mono(-1 - alpha, -1 - beta)})
        return _scan_read(cfg, lifted[name], GElement(W=W))

    def arow(name, gamma):
        return _scan_read(cfg, lifted[name], GElement(alpha=CoeffFn.t_pow(-1 - gamma)))

    def wrow(name, gamma):
        return _scan_read(cfg, lifted[name], GElement(w=CoeffFn.t_pow(-1 - gamma)))

    # the quadratic family exposes the weight through its constant curvature term
    s = vrow("time[1]", 0, 0)
    extra = {k: v for k, v in s.terms.items() if k != (0, 0, 1)}
    lead = s.terms.get((0, 0, 1))  # the coefficient of M
    if extra or (lead is not None and lead.re != 0):
        return None
    y = lead.im if lead is not None else Fraction(0)
    mu_val = (1 - y) / 4

    aone = CoeffFn.one()
    for name, X in _SCAN_PROBES:
        expect = d_sigma_tilde(mu_val, X, SchrodPoint(a=aone))
        for alpha in range(0, 3):
            for beta in range(0, 3):
                if vrow(name, alpha, beta) != _tx_coeff(expect.V, alpha, beta):
                    return None
            if arow(name, alpha) != _tx_coeff(expect.a, alpha, 0):
                return None
            if not wrow(name, alpha).is_zero():
                return None
    return mu_val


def nu_scan(cfg: VerifyConfig, grid=None) -> SuiteReport:
    """Scan deformations, solving for the matching weight at each one."""
    validate_config(cfg)
    start = time.monotonic()
    if grid is None:
        grid = [GaussRat(Fraction(k, 2)) for k in (-2, -1, 0, 1, 2)]
        if cfg.nu not in grid:
            grid.append(cfg.nu)
            grid.sort(key=lambda g: (g.re, g.im))

    table = [(nu, _scan_at(cfg, nu)) for nu in grid]

    notes = ["nu -> mu"]
    for nu, mu_val in table:
        right = "NO-FIT" if mu_val is None else str(mu_val)
        notes.append(f"  {gauss_str(nu)} -> {right}")

    cases = []
    for nu, mu_val in table:
        def check(nu=nu, mu_val=mu_val):
            if nu.is_zero() and mu_val != 0:
                got = "NO-FIT" if mu_val is None else str(mu_val)
                return (f"weight {got} at deformation 0", "0")
            return None

        right = "NO-FIT" if mu_val is None else f"mu = {mu_val}"
        cases.append((f"nu = {gauss_str(nu)} -> {right}", check))

    report = _run_cases("nu-scan", cases, cfg, notes=notes)
    report.millis = int((time.monotonic() - start) * 1000)
    return report


# ----------------------------------------------------------------- registry

_SUITE_BUILDERS = {
    "psido-axioms": _suite_psido_axioms,
    "theta": _suite_theta,
    "timeshift": _suite_timeshift,
    "cocycles": _suite_cocycles,
    "lemma26": _suite_lemma26,
    "lemma33": _suite_lemma33,
    "theorem51": _suite_theorem51,
    "theorem61": _suite_theorem61,
    "dpi-rep": _suite_dpi_rep,
    "dsigma-rep": _suite_dsigma_rep,
    "poisson-lemma71": _suite_poisson_lemma71,
    "nu-scan": None,
}

SUITE_NAMES = tuple(_SUITE_BUILDERS)


def run_suites(names, cfg: VerifyConfig) -> list:
    """Run the selected suites (all of them when names is empty), in order."""
    validate_config(cfg)
    if not names:
        names = SUITE_NAMES
    seen = []
    for name in names:
        if name not in _SUITE_BUILDERS:
            raise ValueError(f"unknown suite {name!r} (choose from {', '.join(SUITE_NAMES)})")
        if name not in seen:
            seen.append(name)
    reports = []
    for name in seen:
        if name == "nu-scan":
            reports.append(nu_scan(cfg))
        else:
            reports.append(_run_cases(name, _SUITE_BUILDERS[name](cfg), cfg))
    return reports


# ------------------------------------------------------------------ reports

def report_text(reports) -> str:
    lines = []
    for rep in reports:
        lines.append(f"suite {rep.suite}: {rep.passed}/{rep.cases} passed ({rep.millis} ms)")
        shown = len(rep.failures)
        missing = (rep.cases - rep.passed) - shown
        for fail in rep.failures:
            lines.append(f"  FAIL {fail.inputs}")
            lines.append(f"       lhs: {fail.lhs}")
            lines.append(f"       rhs: {fail.rhs}")
        if missing > 0:
            lines.append(f"  ... and {missing} more failures")
        for note in rep.notes:
            lines.append(f"  {note}")
    verdict = "PASS" if all(r.ok for r in reports) else "FAIL"
    lines.append(f"overall: {verdict}")
    return "\n".join(lines)


def report_json(reports) -> str:
    import json

    payload = [
        {
            "suite": rep.suite,
            "cases": rep.cases,
            "passed": rep.passed,
            "failures": [
                {"inputs": f.inputs, "lhs": f.lhs, "rhs": f.rhs} for f in rep.failures
            ],
            "millis": rep.millis,
        }
        for rep in reports
    ]
    return json.dumps(payload, indent=2)
