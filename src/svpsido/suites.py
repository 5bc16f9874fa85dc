"""Exhaustive property suites behind the command-line verifier.

Each suite enumerates a fixed monomial box, checks one group of the
paper's identities case by case, and reports the first divergences
verbatim.  All arithmetic is exact and the case order is fixed, so two
runs with the same configuration produce identical reports apart from the
wall clock field.  Cases are pure functions of prebuilt immutable inputs,
so several processes may each run a strided share of them: the verify
process runs the first share and forked children the others, and the
outcomes are put back in case order before aggregating; with one worker
nothing is forked, and every worker count takes that one path.

A builder adds cases only through _each, one family at a time: a case is
(label, check, item), where the family's label and check are shared by
all its cases and called with the item's fields.  A check returns None
when its case holds and the (lhs, rhs) texts of the report when it does
not; _equal, _zero and _equal_trusted give that outcome for the common
rules, rendered with the mass normalised when the config asks.  A label
is rendered only for a failure that the report lists.

The build runs before the cases and apart from them; perfbench times the
two apart (setup_s and run_s), so moving work across that line shows up
in the benchmark.  The build makes the per-element inputs that many cases
read, before any fork, so every process shares them: the transform images
of lemma26 and theorem51, and the lifts of theorem51, theorem61 and
poisson-lemma71.  The labeled basis, the slice points and the coadjoint
rows that theorem61 and poisson-lemma71 both read are built once per
process for each value of the config fields they read, and shared across
suites and runs.  Only the tables of sub-results keyed by box indices (a
product or bracket of two box elements, an action on a basis element,
theta's images, and theta's products of one left operand's image with
each power's image, held for the current left operand only) are lazy: an
entry is computed by the first case that asks for it, so each process
fills its own copy and nothing is pickled.  A failed entry is not stored,
so every case that reads it fails the same way.

Importing the module loads the calculus it checks and nothing heavier:
the config and report records are NamedTuples, not dataclasses, workers
are forked with os.fork, not multiprocessing, and pickle is imported by
the first run that forks.  The command line imports this module only
when `svpsido verify` runs; the floor bound that `verify` and `eval`
share lives in transforms.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from fractions import Fraction
from typing import NamedTuple

from . import transforms as tr
from .cocycles import (
    CocycleId,
    cocycle_identity_defect,
    cyclic_defect,
    eval_cocycle,
    quotient_bracket,
)
from .diffop2 import DiffOp2, d_pi, dop_bracket, dop_from_r_symbol, dop_mul, free_evolution_op
from .halfint import EXACT, HalfInt, h, order_str
from .kacmoody import (
    DualFamily,
    GDual,
    GElement,
    bracket_tables,
    coadjoint,
    embed_I,
    embed_momentum_symbol,
    g_bracket,
    in_invariant_slice,
)
from .poisson import (
    FIELD_A,
    FIELD_V,
    FIELD_V0,
    FIELD_VM2,
    LocalFunctional,
    bracket_at,
    derivatives_at,
    evaluate,
    hamiltonian_vector,
    jet,
    lemma71_functional,
    n_preservation_check,
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
    map_rows,
    sym_bracket,
    sym_mul,
    symbol_from_flat,
)
from .ring import (
    GR_I,
    CoeffFn,
    CoeffTable,
    GaussRat,
    I_M,
    I_M_QUARTER,
    M2,
    M2_HALF,
    MINUS_2I_M,
    TWO_I_M,
    coeff_from_table,
    gauss_of,
    scale_into,
    sum_is_zero,
    sum_value,
)
from .svaction import SchrodPoint, d_sigma_affine, d_sigma_tilde
from .svalgebra import SvElement, phase_mode, shift_mode, sv_basis, sv_bracket, time_mode
from .textio import coeff_str, gauss_str, scalar_str, symbol_str

__all__ = [
    "CaseFailure",
    "SuiteReport",
    "SUITE_NAMES",
    "VerifyConfig",
    "nu_scan",
    "report_json",
    "report_text",
    "run_suites",
]


# ----------------------------------------------------------------- plumbing

class VerifyConfig(NamedTuple):
    """Knobs shared by every suite; the defaults match the shipped boxes."""

    floor: HalfInt = h("-7/2")
    index_range: int = 3
    c: GaussRat = GaussRat(2)
    nu: GaussRat = GaussRat(0)
    mu: Fraction | None = None
    normalize_mass: bool = False
    random_cases: int = 0
    seed: int = 0
    threads: int | None = None


# the most worker processes a run may fork, well above the default cap of 8
MAX_THREADS = 64


def validate_config(cfg: VerifyConfig) -> None:
    if cfg.floor is EXACT:
        raise ValueError("suites need a finite truncation floor")
    floor = h(cfg.floor)
    if floor > h(-1):
        raise ValueError("the floor must sit at or below -1 so traces stay trusted")
    tr.check_floor_depth(floor)
    if not 1 <= cfg.index_range <= 5:
        raise ValueError("index range out of bounds (want 1 <= n <= 5)")
    if cfg.random_cases < 0:
        raise ValueError("the random case count cannot be negative")
    if cfg.threads is not None and not 1 <= cfg.threads <= MAX_THREADS:
        raise ValueError(f"thread count out of bounds (want 1 <= n <= {MAX_THREADS})")


class CaseFailure(NamedTuple):
    inputs: str
    lhs: str
    rhs: str


class SuiteReport(NamedTuple):
    suite: str
    cases: int
    passed: int
    failures: list
    millis: int
    notes: list = ()  # a NamedTuple default is shared, so an immutable one

    @property
    def ok(self) -> bool:
        return self.passed == self.cases


_FAILURE_CAP = 50


def _worker_count(cfg: VerifyConfig) -> int:
    if not hasattr(os, "fork"):
        return 1
    if cfg.threads:
        return cfg.threads
    # one process per CPU this process may run on; more only oversubscribe
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(8, cpus or 1)


def _call(case):
    _, check, item = case
    try:
        return check(*item)
    except Exception as exc:  # a crashed case is a failure, not a crashed run
        return (f"raised {type(exc).__name__}: {exc}", "a finished check")


def _run_shards(cases: list, n: int) -> list:
    """The outcome lists of n shards of cases: shard k holds cases k, k + n,
    k + 2n, ...

    Shard 0 runs in this process, after it has forked one child for each
    other shard, none when n is 1.  A child inherits the built cases and
    the tables they share, so no case is pickled and no child rebuilds its
    suite; it writes its pickled outcome list to its own pipe and leaves
    through os._exit on every path, so it never returns into the caller.
    After its own shard this process reads each pipe to its end and then
    reaps that child, so a child that dies before it has written its list
    (killed by a signal, or a case calling os._exit) ends the run.
    Whatever raises, every child not yet reaped is killed and reaped on
    the way out.
    """
    if n > 1:  # only runs that fork pay these imports
        import pickle
        from signal import SIGKILL
    pids, pipes = [], []  # the children not yet reaped; the read end of each pipe
    try:
        for k in range(1, n):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(read)
                os.close(write)
                raise RuntimeError(f"could not fork verify worker {k + 1} of {n}: {exc}") from exc
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    with open(write, "wb") as out:
                        pickle.dump([_call(case) for case in cases[k::n]], out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)  # the child holds the only write end
            pids.append(pid)
            pipes.append(open(read, "rb"))
        shards = [[_call(case) for case in cases[::n]]]
        for k, pipe in enumerate(pipes, 1):
            # read to the end before reaping: an outcome list can outgrow
            # the pipe buffer, and its child cannot exit until it is read
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if code or not data:
                raise RuntimeError(
                    f"verify worker {k + 1} of {n} exited with code {code} "
                    "before returning its cases"
                )
            shards.append(pickle.loads(data))
        return shards
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _run_cases(name: str, cases: list, cfg: VerifyConfig, notes=None) -> SuiteReport:
    start = time.monotonic()
    workers = max(1, min(_worker_count(cfg), len(cases)))
    shards = _run_shards(cases, workers)
    failures, bad = [], 0
    for i, (label, _, item) in enumerate(cases):
        out = shards[i % workers][i // workers]
        if out is None:
            continue
        bad += 1
        if len(failures) < _FAILURE_CAP:
            failures.append(CaseFailure(label(*item), out[0], out[1]))
    millis = int((time.monotonic() - start) * 1000)
    return SuiteReport(name, len(cases), len(cases) - bad, failures, millis, list(notes or ()))


# ---------------------------------------------------------- case families

def _each(cases: list, items, label, check) -> None:
    """Append the cases of one family, one per item tuple, in item order."""
    cases.extend((label, check, item) for item in items)


def _equal(show, lhs, rhs):
    """None when lhs == rhs, else both sides as show renders them."""
    return None if lhs == rhs else (show(lhs), show(rhs))


def _zero(show, value):
    """None when value is zero, else value as show renders it against 0."""
    return None if value.is_zero() else (show(value), "0")


def _moved(S: Symbol, dt: int) -> Symbol:
    """S o d_r^(dt/2) for an exact S: every order of S moved by dt
    twice-orders."""
    flat: dict = {}
    scale_into(flat, S.flat.items(), dt, 0, 0, (1, 0, 1))
    return symbol_from_flat(R, flat, EXACT)


def _equal_moved(show, lhs: Symbol, rhs: Symbol, dt: int):
    """_equal(show, lhs, _moved(rhs, dt)), with the terms of rhs read in
    place at their moved orders: the moved copy is built for a failure's
    text only."""
    if lhs.var == R and lhs.low is EXACT and len(lhs.flat) == len(rhs.flat):
        get = lhs.flat.get
        for (o, p, q, m), v in rhs.flat.items():
            if get((o + dt, p, q, m)) != v:
                break
        else:
            return None
    return show(lhs), show(_moved(rhs, dt))


def _equal_trusted(show, lhs, rhs):
    """_equal for two symbols compared on their common trusted window."""
    return None if eq_trusted(lhs, rhs) else (show(lhs), show(rhs))


def _xy(basis, i: int, j: int) -> str:
    return f"X = {basis[i][0]}, Y = {basis[j][0]}"


def _abc(*symbols) -> str:
    return ", ".join(f"{name} = {symbol_str(S)}" for name, S in zip("ABC", symbols))


# ------------------------------------------------------------- value output

_M_NORMALIZED = GaussRat(0, Fraction(1, 2))  # M -> i/2, so -2iM becomes 1


def _normalized(cfg: VerifyConfig, value):
    """value at M = i/2, coefficient by coefficient, when the config
    normalises the mass: a CoeffFn, Symbol, DiffOp2, GDual or
    LocalFunctional."""
    if not cfg.normalize_mass:
        return value
    at = functools.partial(_normalized, cfg)
    if isinstance(value, Symbol):
        return map_rows(value, at)
    if isinstance(value, CoeffTable):
        return value.__class__({k: at(c) for k, c in value.terms.items()})
    if isinstance(value, GDual):
        return GDual(at(value.v), at(value.V), at(value.a))
    return value.subs_m(_M_NORMALIZED)


def _fmt_coeff(cfg: VerifyConfig, c: CoeffFn, xname: str = "r") -> str:
    return coeff_str(_normalized(cfg, c), xname)


def _fmt_scalar(cfg: VerifyConfig, s: CoeffFn) -> str:
    return scalar_str(_normalized(cfg, s))


def _fmt_value(cfg: VerifyConfig, value) -> str:
    """str of a value that _normalized takes, normalised as the config asks."""
    return str(_normalized(cfg, value))


# ------------------------------------------------------------- shared boxes

def _degrees(n: int):
    return range(-n, n + 1)


def _half_orders(n: int):
    return [HalfInt(k) for k in range(-2 * n, 2 * n + 1)]


# The duality tables (_labeled_basis, _slice_points, _coadjoint_rows) are
# built once per process for each value of the config fields they read,
# and shared by every suite and every run that asks again: they are tuples
# of immutable values, and theorem61 and poisson-lemma71 fetch them at
# build, before any fork.

@functools.cache
def _labeled_basis(n: int) -> tuple:
    return tuple((f"{kind}[{idx}]", X) for kind, idx, X in sv_basis(n))


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


@functools.cache
def _slice_points(n: int) -> tuple:
    """Single-slot monomial points of the invariant slice, fixed order."""
    point = GDual.of_slots
    pts = []
    for p in _degrees(n):
        pts.append((f"v = {coeff_str(CoeffFn.t_pow(p), 'r')}", point(v=CoeffFn.t_pow(p))))
    for p in _degrees(n):
        for q in _degrees(n):
            c = CoeffFn.mono(p, q)
            pts.append((f"V[-2] = {coeff_str(c, 'r')}", point(vm2=c)))
    for p in _degrees(n):
        pts.append((f"V[0] = {coeff_str(CoeffFn.t_pow(p), 'r')}", point(v0=CoeffFn.t_pow(p))))
    for p in _degrees(n):
        pts.append((f"a = {coeff_str(CoeffFn.t_pow(p), 'r')}", point(a=CoeffFn.t_pow(p))))
    return tuple(pts)


@functools.cache
def _coadjoint_rows(n: int, c: GaussRat) -> tuple:
    """coadjoint(X, mu, c) for every basis element X (rows) and slice
    point mu (columns) of the range n box."""
    charge = CoeffFn.const(c)
    points = _slice_points(n)
    return tuple(tuple(coadjoint(X, mu, charge) for _, mu in points) for _, X in _labeled_basis(n))


# ------------------------------------------------------------ suite: psido

def _suite_psido_axioms(cfg: VerifyConfig) -> list:
    n, F = cfg.index_range, h(cfg.floor)
    deep = F - h(2)
    sym = functools.partial(_fmt_value, cfg)
    cases = []

    rbox = [
        (k, Symbol(R, {h(k): CoeffFn.x_pow(p)}))
        for k in range(-n, n + 1)
        for p in _degrees(n)
    ]

    def traceless(A, B, low: bool):
        """Tr[A,B] = 0, and when low (A and B of order <= 1) so is [A,B]."""
        br = sym_bracket(A, B, F)
        t = adler_trace(br)
        if not t.is_zero():
            return (f"Tr[A,B] = {_fmt_coeff(cfg, t)}", "0")
        top = max(br.flat)[0] if low and br.flat else None
        if top is not None and top > 2:
            return (f"[A,B] has order {order_str(top)}", "order <= 1")
        return None

    _each(cases, ((A, B, ka <= 1 and kb <= 1) for (ka, A), (kb, B) in itertools.combinations(rbox, 2)),
          lambda A, B, low: _abc(A, B), traceless)

    spot = [
        Symbol(XI, {k: CoeffFn.x_pow(p)})
        for k in (h("-3/2"), h(-1), h(0), h(2))
        for p in (-2, 0, 1)
    ]

    @functools.cache
    def product(i: int, j: int) -> Symbol:
        return sym_mul(spot[i], spot[j], deep)

    @functools.cache
    def bracket(i: int, j: int) -> Symbol:
        return sym_bracket(spot[i], spot[j], deep)

    def associative(i, j, k):
        return _equal_trusted(sym, sym_mul(product(i, j), spot[k], F), sym_mul(spot[i], product(j, k), F))

    def jacobi(i, j, k):
        A, B, C = spot[i], spot[j], spot[k]
        total = (sym_bracket(A, bracket(j, k), F) + sym_bracket(B, bracket(k, i), F)
                 + sym_bracket(C, bracket(i, j), F))
        return None if total.is_zero() else (sym(total), "0")

    idx = range(len(spot))
    _each(cases, itertools.product(idx, repeat=3),
          lambda i, j, k: f"assoc {_abc(spot[i], spot[j], spot[k])}", associative)
    _each(cases, itertools.combinations(idx, 3),
          lambda i, j, k: f"jacobi {_abc(spot[i], spot[j], spot[k])}", jacobi)

    def soak(i, A, B, C):
        lhs = sym_mul(sym_mul(A, B, deep), C, F)
        rhs = sym_mul(A, sym_mul(B, C, deep), F)
        return _equal_trusted(sym, lhs, rhs) or traceless(A, B, False)

    rng = random.Random(f"psido:{cfg.seed}")
    soaked = [(i, *(_random_symbol(rng, XI, n) for _ in range(3))) for i in range(cfg.random_cases)]
    _each(cases, soaked, lambda i, A, B, C: f"soak #{i}: {_abc(A, B, C)}", soak)
    return cases


# ------------------------------------------------------------ suite: theta

def _suite_theta(cfg: VerifyConfig) -> list:
    n, F = cfg.index_range, h(cfg.floor)
    nu = cfg.nu
    floor_arg = None if nu.is_zero() else F
    sym = functools.partial(_fmt_value, cfg)
    coeff = functools.partial(_fmt_coeff, cfg)
    cases = []

    xi_box = [
        (k, p, Symbol(XI, {k: CoeffFn.x_pow(p)}))
        for k in _half_orders(n)
        for p in _degrees(n)
    ]
    box = [(i,) for i in range(len(xi_box))]

    def name(i: int) -> str:
        return symbol_str(xi_box[i][2])

    @functools.cache
    def image(i: int) -> Symbol:
        return tr.theta(xi_box[i][2])

    _each(cases, box, lambda i: f"round trip of {name(i)}",
          lambda i: _equal_trusted(sym, tr.theta_inv(image(i), F), xi_box[i][2]))

    r_box = [(Symbol(R, {h(m): CoeffFn.x_pow(q)}),) for q in range(0, n + 1) for m in _degrees(n)]
    _each(cases, r_box, lambda B: f"round trip of {symbol_str(B)}",
          lambda B: _equal(sym, tr.theta(tr.theta_inv(B)), B))

    zero_h = h(0)
    double_floor = 2 * F.twice  # image orders double, so the window does too
    power = {p: i for i, (k, p, _) in enumerate(xi_box) if k == zero_h}  # p -> index of xi^p

    @functools.cache
    def right_factor(b: int) -> tuple:
        """(index of xi^p, dt) for xi_box[b] = xi^p d_xi^k, with dt = 4k:
        theta(d_xi^k) = d_r^(2k) moves every order of theta(xi^p) by 4k
        twice-orders.  Raises, for every case that reads b, unless image(b)
        is that moved image."""
        k, p, _ = xi_box[b]
        i, dt = power[p], 2 * k.twice
        if image(b) != _moved(image(i), dt):
            raise ArithmeticError(f"theta({name(b)}) is not theta({name(i)}) o d_r^{dt // 2}")
        return i, dt

    # held for the current left operand only: products run a-major in
    # every process, and one left operand meets at most 2n + 1 powers
    @functools.lru_cache(maxsize=2 * n + 1)
    def composed(a: int, i: int):
        """theta(A) o theta(xi^p) for A = xi_box[a] and xi^p = xi_box[i],
        or None where it is a series."""
        tA, tP = image(a), image(i)
        try:
            return sym_mul(tA, tP)
        except ValueError:
            return None

    def image_of_product(a, b):
        # theta(B) is theta(xi^p) moved by dt (right_factor).  The Leibniz
        # weights of a pair read the left order and the right x-power only
        # (ring.leibniz_rows), and the right order only moves the order each
        # term lands at; so with no floor theta(A) o theta(B) is
        # theta(A) o theta(xi^p) moved by dt, term for term, and the one is
        # a series exactly when the other is
        lhs = tr.theta(sym_mul(xi_box[a][2], xi_box[b][2]))
        i, dt = right_factor(b)
        rhs = composed(a, i)
        if rhs is None:
            # a series: compare down to the doubled floor, or deeper when
            # some order of lhs sits below it
            low = min(double_floor, min(lhs.flat)[0]) if lhs.flat else double_floor
            return _equal_trusted(sym, lhs, sym_mul(image(a), image(b), HalfInt(low)))
        return _equal_moved(sym, lhs, rhs, dt)

    # a composition with neither a polynomial left factor nor a polynomial
    # right coefficient would not terminate exactly; the left factor's
    # test is a fact of a alone
    products = []
    for a, (ka, _, _) in enumerate(xi_box):
        polynomial = ka.is_integer and ka >= zero_h
        products += [(a, b) for b, (_, pb, _) in enumerate(xi_box) if polynomial or pb >= 0]
    _each(cases, products, lambda a, b: f"image of {name(a)} o {name(b)}", image_of_product)

    def graded(i):
        k, p, A = xi_box[i]
        img = tr.theta(A, floor_arg, nu=nu)
        want = 2 * (Fraction(p) - k.as_fraction())
        for o, c in img.rows().items():
            for (_, jx, _) in c.terms:
                got = Fraction(2 * jx - o, 2)
                if got != want:
                    return (
                        f"a term of space weight {got} inside {_fmt_value(cfg, img)}",
                        f"homogeneous of weight {want}",
                    )
        return None

    _each(cases, box, lambda i: f"grading of {name(i)}", graded)

    two = CoeffFn.const(2)
    minus_one = h(-1)

    def trace_pullback(i):
        k, p, _ = xi_box[i]
        want = two if (k == minus_one and p == -1) else CoeffFn.zero()
        return _equal(coeff, adler_trace(image(i)), want)

    _each(cases, box, lambda i: f"trace pullback of {name(i)}", trace_pullback)

    rng = random.Random(f"theta:{cfg.seed}")
    soaked = [(i, _random_symbol(rng, XI, n)) for i in range(cfg.random_cases)]
    _each(cases, soaked, lambda i, A: f"soak #{i}: round trip of {symbol_str(A)}",
          lambda i, A: _equal_trusted(sym, tr.theta_inv(tr.theta(A), F), A))
    return cases


# -------------------------------------------------------- suite: timeshift

def _suite_timeshift(cfg: VerifyConfig) -> list:
    n = cfg.index_range
    depth = tr.default_depth(cfg.floor)
    xi = functools.partial(_fmt_coeff, cfg, xname="xi")
    sym = functools.partial(_fmt_value, cfg)
    cases = []

    _each(cases, [(CoeffFn.x_pow(q, Fraction(7, 2)),) for q in _degrees(n)],
          lambda f: f"shift then unshift {coeff_str(f, 'xi')}",
          lambda f: _equal(xi, tr.time_shift_inverse(tr.time_shift(f, depth)), f))

    def inverse_pair(q):
        prod = tr.time_shift(CoeffFn.x_pow(-q), depth) * tr.time_shift(CoeffFn.x_pow(q), depth)
        return _equal(xi, prod.drop_x_from(depth), CoeffFn.one())

    _each(cases, [(1,), (2,)], lambda q: f"inverse pair at power {q} multiplies to 1 below the cut",
          inverse_pair)

    def slotwise(D):
        got = tr.time_shift_symbol(D, depth).rows()
        for o, c in D.rows().items():
            out = _equal(xi, got.get(o, CoeffFn.zero()), tr.time_shift(c, depth))
            if out:
                return out
        return None

    _each(cases, [(Symbol(XI, {h("1/2"): CoeffFn.x_pow(1), h(-1): CoeffFn.x_pow(-1)}),)],
          lambda D: f"slotwise action on {symbol_str(D)}", slotwise)

    poly = [
        Symbol(XI, {k: CoeffFn.x_pow(p)})
        for k in (h(0), h("1/2"), h(2))
        for p in (0, 1, 2)
    ]

    def conjugation(A, B):
        lhs = tr.time_shift_symbol(sym_mul(A, B), depth)
        rhs = sym_mul(tr.time_shift_symbol(A, depth), tr.time_shift_symbol(B, depth))
        return _equal(sym, lhs, rhs)

    _each(cases, itertools.product(poly, repeat=2),
          lambda A, B: f"conjugation respects {symbol_str(A)} o {symbol_str(B)}", conjugation)
    return cases


# --------------------------------------------------------- suite: cocycles

def _suite_cocycles(cfg: VerifyConfig) -> list:
    n = cfg.index_range
    coeff = functools.partial(_fmt_coeff, cfg)
    cases = []
    box = [
        Symbol(R, {h(k): CoeffFn.x_pow(p)})
        for k in (-1, 0, 1)
        for p in _degrees(n)
    ]
    ids = list(CocycleId)
    idx = range(len(box))

    def antisymmetric(cid, i, j):
        return _zero(coeff, eval_cocycle(cid, box[i], box[j]) + eval_cocycle(cid, box[j], box[i]))

    _each(cases, ((cid, i, j) for cid in ids for i, j in itertools.combinations_with_replacement(idx, 2)),
          lambda cid, i, j: f"{cid.name} antisymmetry on {_abc(box[i], box[j])}", antisymmetric)

    @functools.cache
    def bracket(i: int, j: int) -> Symbol:
        return quotient_bracket(box[i], box[j])

    def cocycle_identity(cid, i, j, k):
        d = cyclic_defect(cid, box[i], box[j], box[k], bracket(i, j), bracket(j, k), bracket(k, i))
        return _zero(coeff, d)

    _each(cases, ((cid, i, j, k) for cid in ids for i, j, k in itertools.combinations(idx, 3)),
          lambda cid, i, j, k: f"{cid.name} identity on {_abc(box[i], box[j], box[k])}",
          cocycle_identity)

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
    _each(cases, itertools.product(range(len(loop_triples)), ids),
          lambda t, cid: f"{cid.name} identity on loop triple #{t}",
          lambda t, cid: _zero(coeff, cocycle_identity_defect(cid, *loop_triples[t])))

    def soak(i, A, B, C):
        for cid in ids:
            d = cocycle_identity_defect(cid, A, B, C)
            if not d.is_zero():
                return (f"{cid.name} defect {_fmt_coeff(cfg, d)}", "0")
        return None

    rng = random.Random(f"cocycles:{cfg.seed}")
    soaked = []
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
        soaked.append((i, *tri))
    _each(cases, soaked, lambda i, A, B, C: f"soak #{i}: all identities on random triple", soak)
    return cases


# ---------------------------------------------------------- suite: lemma26

def _suite_lemma26(cfg: VerifyConfig) -> list:
    n, F = cfg.index_range, h(cfg.floor)
    basis = _labeled_basis(n)
    images = [tr.j_map(X) for _, X in basis]
    cases = []

    def homomorphic(i, j):
        d = sym_bracket(images[i], images[j], F) - tr.j_map(sv_bracket(basis[i][1], basis[j][1]))
        m = max(d.flat)[0] if d.flat else None
        if m is None or m <= -1:
            return None
        return (f"defect of order {order_str(m)}: {_fmt_value(cfg, d)}", "order <= -1/2")

    pairs = itertools.combinations(range(len(basis)), 2)
    _each(cases, pairs, functools.partial(_xy, basis), homomorphic)
    return cases


# ---------------------------------------------------------- suite: lemma33

def _suite_lemma33(cfg: VerifyConfig) -> list:
    n, F = cfg.index_range, h(cfg.floor)
    show = functools.partial(_fmt_value, cfg)
    coeff = functools.partial(_fmt_coeff, cfg)
    cases = []

    _each(cases, itertools.product(_degrees(n), (0, "1/2", 1)), lambda k, jv: f"f = t^{k}, weight {jv}",
          lambda k, jv: _zero(show, tr.schrodinger_invariance_defect(CoeffFn.t_pow(k), jv, F)))

    i6m3 = Fraction(1, 6) * I_M * M2

    def frozen(weight, k):
        """x_generator at f = t^k against its expansion down to order -1:
        -f, f' r iM and f'' r^2 M^2/2 from the top order (2 at weight 1,
        1 at weight 1/2) down, then -(f'' r M^2/2 + f''' r^3 iM^3/6) at
        weight 1."""
        top = 2 if weight == 1 else 1
        f = CoeffFn.t_pow(k)
        fd = f.deriv("T")
        fdd = fd.deriv("T")
        terms = {
            h(top): -f,
            h(top - 1): fd * CoeffFn.x_pow(1) * I_M,
            h(top - 2): fdd * CoeffFn.x_pow(2) * M2_HALF,
        }
        if top == 2:
            terms[h(-1)] = -(fdd * CoeffFn.x_pow(1) * M2_HALF + fdd.deriv("T") * CoeffFn.x_pow(3) * i6m3)
        return _equal_trusted(show, tr.x_generator(f, weight, F), Symbol(R, terms, h(-1)))

    def weightless(k):
        f = CoeffFn.t_pow(k)
        got = tr.x_generator(f, 0, F).rows().get(0, CoeffFn.zero())
        return _equal(coeff, got, -f)

    mu0 = CoeffFn.zero()
    evo = free_evolution_op()

    def generated(f, weight) -> DiffOp2:
        """The differential part of the generator of weight `weight` at f."""
        return dop_from_r_symbol(differential_part(tr.x_generator(f, weight, F)))

    def time_bridge(k):
        f = CoeffFn.t_pow(k)
        lhs = d_pi(mu0, SvElement(f=f)).scale(TWO_I_M)
        return _equal(show, lhs, dop_mul(DiffOp2.function(f), evo) - generated(f, 1))

    def shift_bridge(k):
        g = CoeffFn.t_pow(k)
        return _equal(show, d_pi(mu0, SvElement(g=g)), generated(g, "1/2"))

    def phase_bridge(k):
        u = CoeffFn.t_pow(k)
        return _equal(show, d_pi(mu0, SvElement(h=u)), generated(u, 0).scale(-I_M))

    for ks, label, check in (
        ((0, 1, 2, 3), "frozen full-weight expansion at f = t^{}", functools.partial(frozen, 1)),
        ((0, 1, 2), "frozen half-weight expansion at g = t^{}", functools.partial(frozen, "1/2")),
        ((0, 1, 2), "weightless family leading term at h = t^{}", weightless),
        ((0, 1, 2, 3), "time bridge at f = t^{}", time_bridge),
        ((0, 1, 2), "shift bridge at g = t^{}", shift_bridge),
        ((0, 1, 2), "phase bridge at h = t^{}", phase_bridge),
    ):
        _each(cases, [(k,) for k in ks], label.format, check)
    return cases


# -------------------------------------------------------- suite: theorem51

def _suite_theorem51(cfg: VerifyConfig) -> list:
    n, F, c = cfg.index_range, h(cfg.floor), CoeffFn.const(cfg.c)
    deep = F - h(2)
    basis = _labeled_basis(n)
    images = [tr.j_map(X) for _, X in basis]
    lifted = [embed_momentum_symbol(E, deep) for E in images]
    cases = []

    def embedded_bracket(i, j):
        lhs = g_bracket(lifted[i], lifted[j], c, F)
        rhs = embed_momentum_symbol(sym_bracket(images[i], images[j], F), F)
        d = lhs - rhs
        if not d.w.is_zero():
            return (f"d_t component {_fmt_coeff(cfg, d.w)}", "0")
        if not d.alpha.is_zero():
            return (f"central component {_fmt_coeff(cfg, d.alpha)}", "0")
        dW = d.W
        if (dW.low is EXACT or dW.low <= F.twice) and dW.is_zero():
            return None
        return (f"loop component {_fmt_value(cfg, dW)}", "0")

    pairs = itertools.combinations(range(len(basis)), 2)
    _each(cases, pairs, functools.partial(_xy, basis), embedded_bracket)
    return cases


# -------------------------------------------------------- suite: theorem61

def _duality_probes(n: int) -> list:
    """theorem61's probes: monomial symbols W of orders -2 to 1, then
    monomial loops w, then monomial central parts."""
    probes = [GElement(W=Symbol(R, {h(k): CoeffFn.mono(qt, qr)}))
              for k in (-2, -1, 0, 1) for qt in _degrees(n) for qr in _degrees(n)]
    probes += [GElement(w=CoeffFn.t_pow(p)) for p in _degrees(n)]
    probes += [GElement(alpha=CoeffFn.t_pow(p)) for p in _degrees(n)]
    return probes


def _probe_name(Y: GElement) -> str:
    """A duality probe's name in failure reports, read off its one
    nonzero slot."""
    if Y.W.flat:
        return f"W = {symbol_str(Y.W)}"
    if Y.w.terms:
        ((p, _, _),) = Y.w.terms
        return f"w = t^{p}"
    ((p, _, _),) = Y.alpha.terms
    return f"central t^{p}"


def _suite_theorem61(cfg: VerifyConfig) -> list:
    n, F, c = cfg.index_range, h(cfg.floor), CoeffFn.const(cfg.c)
    coeff = functools.partial(_fmt_coeff, cfg)
    basis = _labeled_basis(n)
    points = _slice_points(n)
    cases = []

    adstar = _coadjoint_rows(n, cfg.c)
    at_points = list(itertools.product(range(len(basis)), range(len(points))))

    def in_slice(i, m):
        out = adstar[i][m]
        return None if in_invariant_slice(out) else (_fmt_value(cfg, out), "a point of the invariant slice")

    _each(cases, at_points, lambda i, m: f"slice stability: X = {basis[i][0]}, {points[m][0]}", in_slice)

    zero_w = CoeffFn.zero()

    def free_mismatch(X, mu, out):
        """None when out = ad*_X mu matches the free action of X on mu's
        (a, V_-2) in both slots, else the first mismatch."""
        act = d_sigma_tilde(zero_w, X, SchrodPoint(a=mu.a, V=mu.slots()[0]))
        return _equal(coeff, out.slots()[0], act.V) or _equal(coeff, out.a, act.a)

    def free_family(i, m):
        return free_mismatch(basis[i][1], points[m][1], adstar[i][m])

    _each(cases, at_points, lambda i, m: f"free family match: X = {basis[i][0]}, {points[m][0]}", free_family)

    # every case pairs one element against all points at once, summing the
    # pairing terms of both sides per point; brackets are computed down to
    # the floor below which no point reads an order
    ptab = DualFamily(mu for _, mu in points)
    atab = [DualFamily(row) for row in adstar]
    G = F if ptab.floor is EXACT else max(F, ptab.floor)

    def vanishes(word, lifted, Y, row=None):
        """None when <mu, [lifted, Y]>, plus <ad*_X mu, Y> at the points of
        a coadjoint row, is zero at every point; else the first nonzero
        value, named by word.  An undetermined point before it raises, as
        pairing the points one by one would.  The bracket's slot tables
        are paired as the kernels filled them, never wrapped."""
        w, flat, low, alpha = bracket_tables(lifted, Y, c, G)
        sums: dict = {}
        undetermined = ptab.undetermined_at(low)
        if row is not None:
            row.add_into(Y, sums)
            undetermined += row.undetermined(Y)
        ptab.add_tables_into(sums, w, flat, low, alpha)
        stop = min(undetermined, default=len(points))
        for m in sorted(sums):
            if m >= stop:
                break
            if not sum_is_zero(sums[m]):
                return (f"{word} {_fmt_scalar(cfg, sum_value(sums[m]))} at {points[m][0]}", "0")
        if stop < len(points):
            raise ValueError("trace not determined at this truncation")
        return None

    probes = _duality_probes(n)
    lifts = [embed_I(X, F) for _, X in basis]
    _each(cases, itertools.product(range(len(basis)), range(len(probes))),
          lambda i, p: f"duality: X = {basis[i][0]}, probe {_probe_name(probes[p])}",
          lambda i, p: vanishes("defect", lifts[i], probes[p], atab[i]))

    null = [
        (f"f = t^{k}", kap, embed_momentum_symbol(Symbol(XI, {kap: CoeffFn.t_pow(k).t_to_x(MINUS_2I_M)}), F))
        for k in _degrees(n)
        for kap in (h("-1/2"), h(-1), h("-3/2"))
    ]
    _each(cases, itertools.product(range(len(null)), range(len(probes))),
          lambda e, p: f"quotient nullity: {null[e][0]}, order {null[e][1]}, probe {_probe_name(probes[p])}",
          lambda e, p: vanishes("pairing", null[e][2], probes[p]))

    def negative_control():
        probe_pts = [
            GDual.of_slots(vm2=CoeffFn.mono(1, 1), a=CoeffFn.t_pow(1)),
            GDual.of_slots(a=CoeffFn.one()),
        ]
        if any(free_mismatch(X, mu, coadjoint(X, mu, GaussRat(1)))
               for _, X in basis for mu in probe_pts):
            return None
        return ("no mismatch anywhere at central charge 1", "at least one mismatch")

    _each(cases, [()], lambda: "negative control: charge 1 must break the free family match",
          negative_control)
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
    weights = _weights(cfg)
    scal = [CoeffFn.const(w) for w in weights]
    ops = [[d_pi(mu, X) for _, X in basis] for mu in scal]
    show = functools.partial(_fmt_value, cfg)
    cases = []

    # each bracket is computed by the first case that reads it, at any weight
    @functools.cache
    def bracket(i: int, j: int) -> SvElement:
        return sv_bracket(basis[i][1], basis[j][1])

    def represents(k, i, j):
        lhs = dop_bracket(ops[k][i], ops[k][j])
        return _equal(show, lhs, d_pi(scal[k], bracket(i, j)))

    _each(cases, ((k, i, j) for k in range(len(weights))
                  for i, j in itertools.combinations(range(len(basis)), 2)),
          lambda k, i, j: f"weight {weights[k]}: {_xy(basis, i, j)}", represents)
    return cases


# ------------------------------------------------------- suite: dsigma-rep

def _suite_dsigma_rep(cfg: VerifyConfig) -> list:
    n = cfg.index_range
    basis = _labeled_basis(n)
    coeff = functools.partial(_fmt_coeff, cfg)
    cases = []
    pts = [
        SchrodPoint(a=CoeffFn.one() + CoeffFn.t_pow(2), V=CoeffFn.mono(0, 2) + CoeffFn.mono(1, 1)),
        SchrodPoint(a=CoeffFn.t_pow(-1), V=CoeffFn.mono(-2, 3) + CoeffFn.t_pow(3)),
    ]
    variants = (("shifted", d_sigma_tilde), ("affine", d_sigma_affine))
    weights = _weights(cfg)
    scal = [CoeffFn.const(w) for w in weights]

    # the tables are keyed by indices, so no key hashes a weight
    @functools.cache
    def acted(v: int, k: int, i: int, p: int) -> SchrodPoint:
        return variants[v][1](scal[k], basis[i][1], pts[p])

    @functools.cache
    def bracket(i: int, j: int) -> SvElement:
        return sv_bracket(basis[i][1], basis[j][1])

    def represents(v, k, i, j):
        act, mu, Xa, Xb = variants[v][1], scal[k], basis[i][1], basis[j][1]
        Xab = bracket(i, j)
        for p, P in enumerate(pts):
            first = act(mu, Xa, acted(v, k, j, p))
            second = act(mu, Xb, acted(v, k, i, p))
            want = act(mu, Xab, P)
            out = _equal(coeff, first.a - second.a, want.a) or _equal(coeff, first.V - second.V, want.V)
            if out:
                return out
        return None

    pairs = list(itertools.combinations(range(len(basis)), 2))
    _each(cases, ((v, k, i, j) for v in range(len(variants)) for k in range(len(weights)) for i, j in pairs),
          lambda v, k, i, j: f"{variants[v][0]} rep at weight {weights[k]}: {_xy(basis, i, j)}", represents)

    P0 = SchrodPoint(a=CoeffFn.t_pow(1), V=CoeffFn.mono(2, 1))

    def discrepancy(k):
        X = SvElement(f=CoeffFn.t_pow(k))
        fd = X.f.deriv("T")
        for mu in scal:
            dt = d_sigma_tilde(mu, X, P0)
            da = d_sigma_affine(mu, X, P0)
            out = _equal(coeff, dt.a - da.a, -(P0.a * fd)) or _equal(coeff, dt.V - da.V, -(fd * P0.V))
            if out:
                return out
        return None

    _each(cases, [(k,) for k in _degrees(n)], lambda k: f"variant discrepancy at f = t^{k}", discrepancy)

    def agree(label, X):
        for mu in scal:
            dt = d_sigma_tilde(mu, X, P0)
            da = d_sigma_affine(mu, X, P0)
            if dt.a != da.a or dt.V != da.V:
                return str((coeff(dt.a), coeff(dt.V))), str((coeff(da.a), coeff(da.V)))
        return None

    _each(cases, (("shift[1/2]", shift_mode(h("1/2"))), ("phase[-1]", phase_mode(-1))),
          lambda label, X: f"variants agree on {label}", agree)
    return cases


# --------------------------------------------------- suite: poisson-lemma71

def _lemma71_defect(X: SvElement, Y: SvElement) -> LocalFunctional:
    """The two measured exceptional terms of the bracket homomorphism."""
    if not X.f.is_zero() and not Y.g.is_zero():
        fdd = X.f.deriv("T").deriv("T")
        return LocalFunctional.monomial(-(Y.g * fdd * I_M_QUARTER), jet(FIELD_V0))
    if not X.g.is_zero() and not Y.f.is_zero():
        return -_lemma71_defect(Y, X)
    if not X.g.is_zero() and not Y.h.is_zero():
        return LocalFunctional.monomial(-(Y.h.deriv("T") * X.g * M2), jet(FIELD_V0))
    if not X.h.is_zero() and not Y.g.is_zero():
        return -_lemma71_defect(Y, X)
    return LocalFunctional.zero()


def _suite_poisson_lemma71(cfg: VerifyConfig) -> list:
    n, F, c = cfg.index_range, h(cfg.floor), CoeffFn.const(cfg.c)
    basis = _labeled_basis(n)
    scalar = functools.partial(_fmt_scalar, cfg)
    show = functools.partial(_fmt_value, cfg)
    cases = []

    def monomials(coeff, jets):
        """(label, monomial) of coeff times each jet and each pair of jets."""
        pairs = itertools.combinations_with_replacement(jets, 2)
        return ([(f"{jv}", LocalFunctional.monomial(coeff, jv)) for jv in jets]
                + [(f"{ja} {jb}", LocalFunctional.monomial(coeff, ja, jb)) for ja, jb in pairs])

    pair_jets = [jet(f, i, j) for f in (FIELD_VM2, FIELD_V0) for i in (0, 1) for j in (0, 1)]
    all_fields = (FIELD_VM2, FIELD_V0, FIELD_V, FIELD_A)

    def kills_total_derivative(label, F0, var):
        FF = total_derivative(F0, var)
        for fld in all_fields:
            d = variational_derivative(FF, fld)
            if not d.is_zero():
                return (f"derivative along {fld}: {show(d)}", "0")
        return None

    # the loop classes live under a time integral alone
    derivatives = [(label, F0, var) for label, F0 in monomials(CoeffFn.mono(1, 1), pair_jets) for var in "TX"]
    for fld in (FIELD_V, FIELD_A):
        loop = monomials(CoeffFn.t_pow(2), [jet(fld, 0), jet(fld, 1)])
        derivatives += [(label, F0, "T") for label, F0 in loop]
    _each(cases, derivatives,
          lambda label, F0, var: f"variational derivative kills D_{var.lower()} of {label}",
          kills_total_derivative)

    points = _slice_points(n)
    functionals = [lemma71_functional(X) for _, X in basis]
    lifts = [embed_I(X, F) for _, X in basis]
    at_points = list(itertools.product(range(len(basis)), range(len(points))))

    adstar = _coadjoint_rows(n, cfg.c)

    def generated_flow(i, m):
        return _equal(show, hamiltonian_vector(functionals[i], points[m][1], c), adstar[i][m])

    # each lift is paired against every point at once, on its first case
    family = DualFamily(mu for _, mu in points)

    @functools.cache
    def lift_pairing(i: int) -> list:
        return family.pair(lifts[i])

    def moment_pairing(i, m):
        value = evaluate(functionals[i], points[m][1])
        paired = lift_pairing(i)[m]
        if paired is None:
            raise ValueError("trace not determined at this truncation")
        return _equal(scalar, value, paired)

    _each(cases, at_points, lambda i, m: f"generated flow: X = {basis[i][0]}, {points[m][0]}", generated_flow)
    _each(cases, at_points, lambda i, m: f"moment pairing: X = {basis[i][0]}, {points[m][0]}", moment_pairing)

    strict_pts = [
        ("mixed strict #0", GDual.of_slots(v=CoeffFn.t_pow(1), vm2=CoeffFn.mono(1, -1),
                                           v0=CoeffFn.t_pow(-1), a=CoeffFn.t_pow(-2))),
        ("mixed strict #1", GDual.of_slots(vm2=CoeffFn.mono(-2, 2), v0=CoeffFn.one(),
                                           a=CoeffFn.t_pow(1))),
        ("v only", GDual.of_slots(v=CoeffFn.t_pow(2))),
        ("free slot only", GDual.of_slots(vm2=CoeffFn.mono(2, 1))),
        ("potential only", GDual.of_slots(v0=CoeffFn.t_pow(-2))),
        ("a only", GDual.of_slots(a=CoeffFn.t_pow(3))),
    ]
    loose_pts = [(f"loose #{p}", GDual.of_slots(v0=CoeffFn.mono(p, -1))) for p in range(-4, 2)]
    loose_pts.append(("loose mixed", GDual.of_slots(v=CoeffFn.t_pow(1), vm2=CoeffFn.mono(1, -1),
                                                    v0=CoeffFn.mono(-2, -1), a=CoeffFn.t_pow(-1))))
    homo_pts = strict_pts + loose_pts

    @functools.cache
    def derivs(i: int, m: int) -> tuple:
        return derivatives_at(functionals[i], homo_pts[m][1])

    def closure(i, j):
        Xa, Xb = basis[i][1], basis[j][1]
        FB = lemma71_functional(sv_bracket(Xa, Xb))
        D = _lemma71_defect(Xa, Xb)
        for m, (lm, mu) in enumerate(homo_pts):
            got = bracket_at(derivs(i, m), derivs(j, m), mu, c)
            want = evaluate(FB, mu) + evaluate(D, mu)
            if got != want:
                return (f"bracket value {_fmt_scalar(cfg, got)} at {lm}",
                        _fmt_scalar(cfg, want))
        return None

    _each(cases, itertools.combinations(range(len(basis)), 2),
          lambda i, j: f"closure with measured defects: {_xy(basis, i, j)}", closure)

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

    _each(cases, [()], lambda: "the two exceptional defects are visible on the box", defect_visibility)

    curated = [
        ("quadratic tail coefficient", LocalFunctional.monomial(CoeffFn.x_pow(2), jet(FIELD_VM2)), False),
        ("affine coefficient", LocalFunctional.monomial(CoeffFn.one() + CoeffFn.x_pow(1), jet(FIELD_VM2)), True),
        ("squared free slot", LocalFunctional.monomial(CoeffFn.one(), jet(FIELD_VM2), jet(FIELD_VM2)), False),
        ("matched jet weight", LocalFunctional.monomial(CoeffFn.x_pow(2), jet(FIELD_VM2, 0, 1)), True),
        ("overweight jet", LocalFunctional.monomial(CoeffFn.x_pow(3), jet(FIELD_VM2, 0, 1)), False),
    ]
    _each(cases, curated, lambda label, F0, want: f"slice criterion: {label}",
          lambda label, F0, want: _equal(str, n_preservation_check(F0), want))
    return cases


# ----------------------------------------------------------- suite: nu-scan

_SCAN_PROBES = (
    ("time[0]", time_mode(0)),
    ("time[1]", time_mode(1)),
    ("time[2]", time_mode(2)),
    ("shift[3/2]", shift_mode(h("3/2"))),
    ("phase[1]", phase_mode(1)),
)
# the unit point a = 1, filed once; it has no V, so its trace is
# determined at every floor
_SCAN_FAMILY = DualFamily((GDual(a=CoeffFn.one()),))


def _scan_read(lifted: GElement, probe: GElement, c: CoeffFn, F) -> CoeffFn:
    """One coadjoint coefficient at the unit point: minus its pairing with
    the bracket at charge c and floor F, read off the bracket's slot
    tables as they stand."""
    sums: dict = {}
    _SCAN_FAMILY.add_tables_into(sums, *bracket_tables(lifted, probe, c, F))
    return -sum_value(sums.get(0, {}))


def _tx_coeff(c: CoeffFn, p: int, q: int) -> CoeffFn:
    """The coefficient of t^p x^q in c, a value in M alone."""
    return coeff_from_table({(0, 0, m): v for (pp, qq, m), v in c.terms.items() if (pp, qq) == (p, q)})


def _scan_at(cfg: VerifyConfig, nu: GaussRat):
    """Solve for the weight matching the deformed coadjoint action, if any."""
    F, c = h(cfg.floor), CoeffFn.const(cfg.c)
    lifted = {name: embed_I(X, F, nu=nu) for name, X in _SCAN_PROBES}

    def vrow(name, alpha, beta):
        W = Symbol(R, {h(1): CoeffFn.mono(-1 - alpha, -1 - beta)})
        return _scan_read(lifted[name], GElement(W=W), c, F)

    def arow(name, gamma):
        return _scan_read(lifted[name], GElement(alpha=CoeffFn.t_pow(-1 - gamma)), c, F)

    def wrow(name, gamma):
        return _scan_read(lifted[name], GElement(w=CoeffFn.t_pow(-1 - gamma)), c, F)

    # the quadratic family exposes the weight through its constant
    # curvature term, i(1 - 4 mu) M, so mu = (1 + i lead)/4; a real weight
    # stays a Fraction
    s = vrow("time[1]", 0, 0)
    extra = {k: v for k, v in s.terms.items() if k != (0, 0, 1)}
    if extra:
        return None
    lead = gauss_of(s.terms.get((0, 0, 1), (0, 0, 1)))  # the coefficient of M
    mu_val = (1 + GR_I * lead) / 4
    if mu_val.im == 0:
        mu_val = mu_val.re

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


def nu_scan(cfg: VerifyConfig) -> SuiteReport:
    """Scan deformations, solving for the matching weight at each one."""
    validate_config(cfg)
    start = time.monotonic()
    grid = [GaussRat(Fraction(k, 2)) for k in (-2, -1, 0, 1, 2)]
    if cfg.nu not in grid:
        grid.append(cfg.nu)
        grid.sort(key=lambda g: (g.re, g.im))

    table = [(nu, _scan_at(cfg, nu)) for nu in grid]

    notes = ["nu -> mu"]
    for nu, mu_val in table:
        right = "NO-FIT" if mu_val is None else str(mu_val)
        notes.append(f"  {gauss_str(nu)} -> {right}")

    def flat(nu, mu_val):
        if nu.is_zero() and mu_val != 0:
            got = "NO-FIT" if mu_val is None else str(mu_val)
            return (f"weight {got} at deformation 0", "0")
        return None

    def label(nu, mu_val):
        return f"nu = {gauss_str(nu)} -> " + ("NO-FIT" if mu_val is None else f"mu = {mu_val}")

    cases = []
    _each(cases, table, label, flat)

    report = _run_cases("nu-scan", cases, cfg, notes=notes)
    return report._replace(millis=int((time.monotonic() - start) * 1000))


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
    return [nu_scan(cfg) if name == "nu-scan" else _run_cases(name, _SUITE_BUILDERS[name](cfg), cfg)
            for name in seen]


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
