"""CI's pinned checks, as data, and one runner: `python tests/ci_checks.py`.

Each check runs a command in a fresh interpreter from the repository root,
with PYTHONPATH=src, masks the first "(N ms)" timing on each stdout line,
and compares.  The runner takes no options; it prints each failure with its
check's name, the value expected and the value found, and exits 1 if any
check failed.  pytest does not collect this file; tests/test_ci_checks.py
reads the list.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple


class Check(NamedTuple):
    """One command and what its run must show.

    argv is a demo's path, or "-c" and code, run by python as it is;
    anything else is the arguments of svpsido.  With workers, the command
    runs once per count with "--threads n" appended, and each masked
    stdout must equal the first; every run must exit with exit, and the
    other expectations read the first run.
    """

    name: str
    argv: tuple
    exit: int = 0
    workers: tuple = ()
    sha256: str = ""  # of the masked stdout
    lines: tuple = ()  # stdout lines that must appear, exactly
    stderr: str = ""  # the exact last line of stderr


MOMENTS = """\
from svpsido import suites
from svpsido.halfint import h
from svpsido.kacmoody import DualFamily, embed_I
from svpsido.textio import scalar_str

points = suites._slice_points(3)
family = DualFamily(mu for _, mu in points)
for label, X in suites._labeled_basis(3):
    for (name, _), value in zip(points, family.pair(embed_I(X, h("-7/2")))):
        print(f"{label}, {name}: {scalar_str(value)}")
"""

JMAP = """\
from fractions import Fraction

from svpsido import transforms
from svpsido.psido import map_rows
from svpsido.ring import GaussRat
from svpsido.svalgebra import sv_basis
from svpsido.textio import symbol_str

half_i = GaussRat(0, Fraction(1, 2))
for kind, idx, X in sv_basis(2):
    image = map_rows(transforms.j_map(X), lambda c: c.subs_m(half_i))
    print(f"{kind}[{idx}]: {symbol_str(image)}")
"""

MIXED_SLOTS = """\
from fractions import Fraction
from itertools import product

from svpsido.kacmoody import GDual, coadjoint
from svpsido.poisson import hamiltonian_vector, lemma71_functional, poisson_bracket
from svpsido.psido import R, Symbol
from svpsido.ring import CoeffFn, GaussRat
from svpsido.svalgebra import sv_basis

slots = (CoeffFn.t_pow(-2), CoeffFn.mono(-1, -1, GaussRat(Fraction(1, 2), 1)),
         CoeffFn.t_pow(-2, -3), CoeffFn.t_pow(-2, GaussRat(0, 2)))
basis = [(f"{kind}[{idx}]", X, lemma71_functional(X)) for kind, idx, X in sv_basis(1)]
for c in (GaussRat(2), GaussRat(Fraction(1, 3))):
    for filled in product((False, True), repeat=4):
        v, vm2, v0, a = (s if on else None for s, on in zip(slots, filled))
        V = {o: s for o, s in ((-2, vm2), (0, v0)) if s is not None}
        mu = GDual(v=v, V=Symbol(R, V), a=a)
        for label, X, F in basis:
            print(f"c = {c}, mu = {mu}, ad*_{label}: {coadjoint(X, mu, c)}")
            print(f"c = {c}, mu = {mu}, H_{label}: {hamiltonian_vector(F, mu, c)}")
            for other, _, G in basis:
                print(f"c = {c}, mu = {mu}, {{{label}, {other}}}: {poisson_bracket(F, G, mu, c)}")
"""

THETA_T_CUT = """\
from fractions import Fraction

from svpsido.halfint import h
from svpsido.psido import XI, Symbol
from svpsido.ring import CoeffFn, GaussRat, M
from svpsido.textio import symbol_str
from svpsido.transforms import theta_t

x = CoeffFn.x_pow
inputs = [
    Symbol(XI, {h(1): x(-1)}),
    Symbol(XI, {h("1/2"): x(-2, GaussRat(1, 2)), h(-1): x(3)}),
    Symbol(XI, {h(2): x(2) + x(-3, M), h("-3/2"): x(-1, GaussRat(0, Fraction(1, 3)))}),
    Symbol(XI, {h(1): x(2), h("1/2"): x(1, M), h(0): x(0)}, h(-3)),
    Symbol(XI, {h(3): x(4) + x(1), h(0): x(-1), h("-5/2"): x(-2)}, h("-9/2")),
]
for nu in (GaussRat(0), GaussRat(Fraction(1, 2)), GaussRat(2, -1)):
    for floor in (h(-1), h("-7/2"), h(-16)):
        for k, E in enumerate(inputs):
            print(f"nu = {nu}, floor = {floor}, E{k}: {symbol_str(theta_t(E, floor, nu=nu))}")
"""

TRANSFORM_MAP = """\
from fractions import Fraction

from svpsido import suites
from svpsido.halfint import h
from svpsido.psido import XI, Symbol, sym_mul
from svpsido.ring import CoeffFn, GaussRat
from svpsido.transforms import theta, theta_inv, theta_t

box = [Symbol(XI, {k: CoeffFn.x_pow(p)}) for k in suites._half_orders(2) for p in suites._degrees(2)]
products = []
for A in box:
    for B in box:
        try:
            products.append(sym_mul(A, B))
        except ValueError:
            pass


def show(name, call):
    try:
        S = call()
    except ValueError as exc:
        print(f"{name}: {exc}")
    else:
        print(f"{name}: {S.floor} {list(S.flat.items())}")


for rnd in ("cold", "warm"):
    for nu in (GaussRat(0), GaussRat(Fraction(1, 2))):
        for floor in (None, h("-7/2"), h(-16)):
            for k, P in enumerate(products):
                show(f"{rnd}, nu = {nu}, floor = {floor}, theta P{k}", lambda: theta(P, floor, nu=nu))
                show(f"{rnd}, nu = {nu}, floor = {floor}, theta_t P{k}", lambda: theta_t(P, floor, nu=nu))
    # the images of the products, read once the image memo is warm; the
    # inverse memo is still cold on the first pass
    images = [theta(P) for P in products]
    for floor in (None, h("-7/2"), h(-16)):
        for k, S in enumerate(images):
            show(f"{rnd}, floor = {floor}, theta_inv I{k}", lambda: theta_inv(S, floor))
"""

INVERSE_FLOORS = """\
import sys

from svpsido.halfint import h
from svpsido.psido import R, Symbol
from svpsido.ring import CoeffFn
from svpsido.transforms import theta_inv

for floor in sys.argv[1].split():
    for k in range(1, 7):
        for j in (-1, 0, 2):
            S = theta_inv(Symbol(R, {j: CoeffFn.x_pow(-k)}), h(floor))
            print(f"floor {floor}, r^-{k} d_r^{j}: {S.floor} {list(S.flat.items())}")
"""

EMPTY_PRODUCTS = """\
import sys

sys.path.insert(0, "tests")
from test_suites import TestSharedTables

from svpsido.halfint import h
from svpsido.suites import SUITE_NAMES, VerifyConfig

box = VerifyConfig(floor=h(-16), index_range=5, threads=1)
for key, count in TestSharedTables._empty_operand_calls(SUITE_NAMES, box).items():
    print(f"{key} with an empty operand: {count}")
"""

PRINTER_EDGES = """\
from fractions import Fraction

from svpsido.halfint import h
from svpsido.psido import R, XI, Symbol
from svpsido.ring import CoeffFn, GaussRat
from svpsido.textio import coeff_str, symbol_str

g, half = GaussRat, Fraction(1, 2)


def c(*terms):
    return CoeffFn({(p, q, m): v for p, q, m, v in terms})


one, minus = g(1), g(-1)
symbols = [
    Symbol(XI, {1: c((0, 0, 0, one))}),
    Symbol(R, {1: c((0, 0, 0, minus)), 0: c((0, 0, 0, minus))}),
    Symbol(R, {0: c((0, 0, 0, one))}),
    Symbol(R, {1: c((1, 0, 0, g(2)), (1, 0, 2, one)), 0: c((0, 1, 1, one))}),
    Symbol(XI, {2: c((1, -1, 0, g(2)), (1, -1, 1, minus)), -1: c((-2, 3, 0, g(0, -1)))}),
    Symbol(XI, {h("1/2"): c((0, 1, 0, g(half, Fraction(1, 3))))}),
    Symbol(XI, {1: c((0, 0, 0, g(0, 1))), 0: c((1, 0, 0, g(0, -1)))}),
    Symbol(XI, {h("-1/2"): c((0, 0, 0, one)), h("3/2"): c((0, 2, 0, g(-3, 4)))}),
    Symbol(XI, {}, h(-3)),
    Symbol(R, {}, h("-7/2")),
    Symbol(R, {1: c((1, 1, 0, minus)), -1: c((0, 2, 0, minus))}),
    Symbol(R, {1: c((0, 1, 0, one), (1, 0, 0, one))}, h(-2)),
    Symbol(R, {2: c((0, 0, 1, one)), -2: c((0, 0, 1, minus)), 0: c((0, 0, -1, g(half)))}),
    Symbol(R, {1: c((0, 0, 0, minus), (0, 0, 1, one))}),
    Symbol(XI, {0: c((0, 0, 0, g(0, 2)), (2, 0, 0, g(half, -1)), (0, -1, 3, g(-7, 1)))},
           h("-5/2")),
    Symbol(XI, {h("-5/2"): c((-1, 0, 0, g(Fraction(-3, 4), -half)))}),
    Symbol(R, {3: c((0, 0, 0, g(10**12))), 2: c((0, 0, 0, g(Fraction(1, 10**12))))}),
]
for sym in symbols:
    print(symbol_str(sym))
for fn in (c((0, 0, 0, one), (0, 0, 1, minus), (1, 0, 0, g(0, 1))),
           c((1, 2, 0, minus), (1, 2, 1, g(2))), c((0, 1, 0, g(half)))):
    print(coeff_str(fn), "|", coeff_str(fn, "r"))
"""

TABLE_VALUES = """\
import itertools
from fractions import Fraction

from svpsido import suites
from svpsido.diffop2 import d_pi, dop_bracket
from svpsido.poisson import (FIELD_VM2, FIELD_V0, FIELD_V, FIELD_A, LocalFunctional, jet,
                             lemma71_functional, total_derivative, variational_derivative)
from svpsido.ring import CoeffFn
from svpsido.svalgebra import sv_basis

normalized = suites.VerifyConfig(normalize_mass=True)
shown = []


def show(label, value):
    print(f"{label}: {value} | {list(value.terms)}")
    shown.append((label, value))


for w in (0, Fraction(1, 4), 1, Fraction(3, 7)):
    for kind, idx, X in sv_basis(2):
        show(f"d_pi({w}, {kind}[{idx}])", d_pi(w, X))
basis = [(f"{kind}[{idx}]", X) for kind, idx, X in sv_basis(1)]
for (a, X), (b, Y) in itertools.product(basis, repeat=2):
    show(f"[d_pi(1/4, {a}), d_pi(1/4, {b})]",
         dop_bracket(d_pi(Fraction(1, 4), X), d_pi(Fraction(1, 4), Y)))
fields = (FIELD_VM2, FIELD_V0, FIELD_V, FIELD_A)
for a, X in basis:
    F = lemma71_functional(X)
    show(f"F_{a}", F)
    for field in fields:
        show(f"delta F_{a} / delta {field}", variational_derivative(F, field))
pair_jets = [jet(f, i, j) for f in (FIELD_VM2, FIELD_V0) for i in (0, 1) for j in (0, 1)]
monomials = [(f"{J}", (J,)) for J in pair_jets]
monomials += [(f"{J} {K}", (J, K)) for J, K in itertools.combinations_with_replacement(pair_jets, 2)]
for label, jets in monomials:
    for var in "TX":
        F = total_derivative(LocalFunctional.monomial(CoeffFn.mono(1, 1), *jets), var)
        show(f"D_{var.lower()} {label}", F)
for label, value in shown[::7]:
    print(f"normalized {label}: {suites._normalized(normalized, value)}")
"""

ALGEBRA_VALUES = """\
import itertools
from fractions import Fraction

from svpsido.cocycles import CocycleId, eval_cocycle
from svpsido.diffop2 import d_pi, dop_bracket
from svpsido.halfint import h
from svpsido.psido import R, Symbol
from svpsido.ring import CoeffFn
from svpsido.svaction import SchrodPoint, d_sigma_affine, d_sigma_tilde
from svpsido.svalgebra import sv_basis, sv_bracket

lines = []
basis = [(f"{kind}[{idx}]", X) for kind, idx, X in sv_basis(2)]
# loops with two or three families filled, so a family skip meets a filled one
mixed = [(f"{a} + {b}", X + Y) for (a, X), (b, Y) in zip(basis, basis[5:] + basis[:5])]
mixed += [(f"{a} + {b} + {c}", X + Y + Z)
          for (a, X), (b, Y), (c, Z) in zip(basis, basis[5:] + basis[:5], basis[9:] + basis[:9])]
for (a, X), (b, Y) in itertools.product(basis + mixed, repeat=2):
    lines.append(f"[{a}, {b}] = {sv_bracket(X, Y)}")
weights = (Fraction(0), Fraction(1, 4), Fraction(1))
for w in weights:
    for (a, X), (b, Y) in itertools.combinations(basis, 2):
        lines.append(f"weight {w}: [d_pi {a}, d_pi {b}] = {dop_bracket(d_pi(w, X), d_pi(w, Y))}")
        lines.append(f"weight {w}: d_pi [{a}, {b}] = {d_pi(w, sv_bracket(X, Y))}")
points = [
    SchrodPoint(a=CoeffFn.one() + CoeffFn.t_pow(2), V=CoeffFn.mono(0, 2) + CoeffFn.mono(1, 1)),
    SchrodPoint(a=CoeffFn.t_pow(-1), V=CoeffFn.mono(-2, 3) + CoeffFn.t_pow(3)),
    SchrodPoint(a=CoeffFn.t_pow(1), V=CoeffFn.mono(2, 1)),
    SchrodPoint(V=CoeffFn.mono(1, -1)),
    SchrodPoint(a=CoeffFn.t_pow(2)),
]
for name, act in (("tilde", d_sigma_tilde), ("affine", d_sigma_affine)):
    for w in weights:
        for p, P in enumerate(points):
            for a, X in basis + mixed:
                once = act(w, X, P)
                lines.append(f"{name} {w} P{p} {a}: {once}")
                for b, Y in basis:
                    lines.append(f"{name} {w} P{p} {b} after {a}: {act(w, Y, once)}")
box = [Symbol(R, {h(k): CoeffFn.mono(s, p)}) for k in (-1, 0, 1) for p in range(-2, 3) for s in (0, 1)]
box.append(Symbol(R, {h(1): CoeffFn.mono(2, 1), h(0): CoeffFn.t_pow(-1), h(-1): CoeffFn.mono(1, -1)}))
for cid in CocycleId:
    for (i, A), (j, B) in itertools.product(enumerate(box), repeat=2):
        lines.append(f"{cid.name}(#{i}, #{j}) = {eval_cocycle(cid, A, B)}")
print("\\n".join(sorted(lines)))
"""

T61 = ("verify", "--suite", "theorem61")
SUITE_CHOICES = (
    "'psido-axioms', 'theta', 'timeshift', 'cocycles', 'lemma26', 'lemma33', 'theorem51', "
    "'theorem61', 'dpi-rep', 'dsigma-rep', 'poisson-lemma71', 'nu-scan'")

CHECKS = [
    Check("verify-default", ("verify",), workers=(1, 2, 3)),
    # floor -1 is the shallowest floor at which theorem61 pairs every
    # slice point; its range-2 run must fail the same way at any count
    Check("theorem61-floor-1-workers", (*T61, "--floor", "-1", "--range", "2"), exit=1,
          workers=(1, 2)),
    # sha256 of the masked text report, pinned from before the pairing
    # sums were kept as unreduced int triples: at c = 1/3 the free
    # family match fails, and at floor -1 some traces are not
    # determined; all three runs must exit 1.  The third prints the
    # failing values with the mass normalized, through 210
    # CoeffFn.subs_m calls, pinned from before floors were stored as
    # twice-ints
    Check("theorem61-c-1/3", (*T61, "--c", "1/3"), exit=1,
          sha256="cdf41739e592fb2049fe180f72ba67a3afbc27541d86adeb38a0956893e84761"),
    Check("theorem61-floor-1", (*T61, "--floor", "-1", "--range", "2"), exit=1,
          sha256="3ca80c7d8d14d6ba930f6aa7472a33deb5fd231f01573bf950a150b4f7e14251"),
    Check("theorem61-normalized", (*T61, "--c", "1/3", "--normalize-mass"), exit=1,
          sha256="a372cdcb8fd5f6bb8ec0a4753f5727c9a0c794a662adaf5db61a2ff88e464622"),
    # the pairing of each of poisson-lemma71's default-box lifts against
    # every slice point (DualFamily.pair, printed through scalar_str),
    # pinned from before generators kept their loop factors; the pinned
    # failure reports above print no pairing value
    Check("moment-pairings", ("-c", MOMENTS),
          sha256="141183ff09fe0a0d8d151a479deb4c9af46d95c54078db7b566122e2c55b4641"),
    # coadjoint, the Hamiltonian field of each generator functional and
    # the bracket of each pair, over the range-1 basis, at the 16 points
    # whose slots v, V_-2, V_0 (t-only) and a take every subset of four
    # fixed monomials, at c = 2 and 1/3; pinned from before the formulas
    # skipped the products of a zero slot.  The suites' slice points fill
    # one slot each, and their mixed points reach only the bracket, so a
    # skip that drops a product of a filled slot shows here first
    Check("mixed-slot-points", ("-c", MIXED_SLOTS),
          sha256="7f770896c88cec4fab3d8477ad8bda4ed5bce3a0b49c7d834b37be247d182194"),
    # the j_map images of the range-2 basis with M set to i/2, as
    # --normalize-mass prints values: the time family carries M^-2 and
    # M^-1, a negative M power that no pinned verify report prints
    Check("j-map-normalized-mass", ("-c", JMAP),
          sha256="b2830054f0e9d0adb5209eca1e0a2e8eeae66fe29dd43248423dbb6582fd80af"),
    # theta_t of inverse powers and floored inputs, at nu 0, 1/2 and 2 - i
    # and floors -1, -7/2 and -16, pinned from before a floored result
    # shifted only the terms its floor reads; nu-scan's probes are
    # polynomial, so no verify run here takes that path
    Check("theta-t-cut", ("-c", THETA_T_CUT),
          sha256="c14367488c0cdf0fb56a51057efb33b2794083fcbcca94c77534d9f50a8ba870"),
    # theta, theta_t and theta_inv of the range-2 momentum-box products
    # and of their images, at nu 0 and 1/2 and floors exact, -7/2 and -16,
    # a cold pass and then a warm pass in one process; each result prints
    # its floor and its flat terms in insertion order, which the pinned
    # reports sort away.  Pinned from before the monomial map added its
    # image terms in its own loop
    Check("transform-map", ("-c", TRANSFORM_MAP),
          sha256="75d7543edc5cd6e305fc6dc030f20b6cdea02b7cab34655f31ed30c210f58caf"),
    # theta_inv of r^-k d_r^j for k = 1 to 6 and j = -1, 0 and 2, at floors
    # -16, -7/2 and -1 in one process, deep first and then shallow first:
    # a floored inverse image asks its neighbour half an order deeper, so
    # what the first floor leaves in the memo must not show in the
    # later ones.  Pinned from before both directions shared one memo class
    Check("inverse-floors-deep-first", ("-c", INVERSE_FLOORS, "-16 -7/2 -1"),
          sha256="78bbf641733d40b7f6181a99498e5766fc13d01f4393a545c3d5070fd204dc5d"),
    Check("inverse-floors-shallow-first", ("-c", INVERSE_FLOORS, "-1 -7/2 -16"),
          sha256="f92d8d4eeccd64fb4e0906fca3b2e71451a9f221d5b5c8c7285175f6e6fcb165"),
    # the two coefficient tables, printed with their keys in insertion
    # order: d_pi of the range-2 basis at weights 0, 1/4, 1 and 3/7, the
    # brackets of the range-1 images at 1/4, the lemma71 functionals with
    # their variational derivatives, the total derivatives of
    # poisson-lemma71's pair monomials, and every seventh of these with
    # the mass normalised.  Pinned from before DiffOp2 and LocalFunctional
    # shared one base; a passing report prints no table value
    Check("table-values", ("-c", TABLE_VALUES),
          sha256="e6976df539c2fdbdae7414706e218fa1c77b6614a9b2c38be1944ee7557f477d"),
    # the values the representation suites compare, printed sorted, so a
    # change of term or case order does not show: sv_bracket over the
    # range-2 basis and over loops with two or three families filled,
    # dop_bracket of the d_pi images and d_pi of the brackets at weights
    # 0, 1/4 and 1, both actions of every such loop at five operator
    # points and of each basis element after it, and c0-c5 on a box of
    # capped symbols.  Pinned from before the brackets were tabled once
    # per suite and dop_mul added its terms as int triples; a passing
    # report prints no value
    Check("algebra-values", ("-c", ALGEBRA_VALUES),
          sha256="2321043f29ec98a76bac97f2acfe44db98e9467c6baf8978582c597f2b222cdf"),
    # nu != 0 is the only path where the transform sums series images
    Check("deformed-transform", ("verify", "--nu", "1/2"), workers=(1, 2)),
    # a Gaussian nu drives the binom(nu, j) weights of the deformed images
    # through complex values
    Check("gaussian-deformation", ("verify", "--nu", "2-i", "--suite", "theta", "--suite", "nu-scan"),
          workers=(1, 2)),
    # random symbols drive the coefficient sums through cancellations;
    # the sha256 is pinned from before the coefficient tables of CoeffFn
    # were stored as int triples.  A passing report prints no value, so
    # this check runs no subs_m; theorem61-normalized does
    Check("random-soak", ("verify", "--random", "30", "--seed", "7", "--normalize-mass"),
          workers=(1, 2),
          sha256="531616c06a4de75dc85adcaa7a08940fba7d8b2b3a04f2df3794adc739e9abf5"),
    # the bracket and the Hamiltonian field carry c in three terms, and
    # every other check runs the Poisson suite at the default c = 2 only
    Check("poisson-c-1/3", ("verify", "--suite", "poisson-lemma71", "--c", "1/3"), workers=(1, 2)),
    # the suites whose cases call sym_bracket and g_bracket; theorem61's
    # free-family-match cases fail away from c = 2, so both runs exit 1
    Check("brackets-c-1/3", ("verify", "--suite", "theorem51", "--suite", "theorem61",
                             "--suite", "cocycles", "--c", "1/3"), exit=1, workers=(1, 2)),
    # at floor -11/2 the composition tails in these suites are cut deeper
    # than in the default run
    Check("deeper-leibniz", ("verify", "--floor", "-11/2", "--range", "3", "--suite", "psido-axioms",
                             "--suite", "theta", "--suite", "theorem51"), workers=(1, 2)),
    # at range 4 the cocycle box reaches r-powers -4 and 4, on both sides
    # of the zeros of the falling-factorial weights
    Check("cocycle-residues", ("verify", "--suite", "cocycles", "--suite", "theorem61",
                               "--range", "4", "--floor", "-9/2"), workers=(1, 2)),
    # nu-scan solves mu = (1 + i lead)/4, so a Gaussian nu fits its own
    # weight; the three suites of poisson-layer run g_bracket, coadjoint,
    # the Poisson bracket and the Hamiltonian field through their
    # one-table rows on a deeper window
    Check("nu-scan-i", ("verify", "--nu", "i", "--suite", "nu-scan"), lines=("    i -> i",)),
    Check("nu-scan-2-i", ("verify", "--nu", "2-i", "--suite", "nu-scan"),
          lines=("    (2 - i) -> (2 - i)",)),
    # --mu adds a fourth weight to the representation suites, whose
    # DiffOp2 sums cancel to zero on every passing case, and nu = 3/2
    # fits a weight off the scan's grid; pinned from before DiffOp2 sums
    # left their zero entries to the constructor
    Check("dual-weight-and-off-grid-nu",
          ("verify", "--suite", "dpi-rep", "--suite", "dsigma-rep", "--suite", "nu-scan",
           "--mu", "3/7", "--nu", "3/2", "--floor", "-9/2", "--range", "2"), workers=(1, 2),
          sha256="482af2136d90452d8541409f85abcd4d145f4af47a2a01b968d84f775ec44500",
          lines=("    3/2 -> 3/2",)),
    Check("poisson-layer", ("verify", "--suite", "theorem51", "--suite", "theorem61",
                            "--suite", "poisson-lemma71", "--floor", "-9/2", "--range", "4"),
          workers=(1, 2)),
    # floors and windows deeper than the default, at two worker processes
    Check("wider-window", ("verify", "--floor", "-9/2", "--range", "4", "--threads", "2"),
          sha256="2f6aab4235f4060e638fcea603e057a4b58b837ef03c9917943b909c8a3e5044"),
    # the deepest floor and the widest range that verify accepts, so the
    # composition and transform loops run at depth (140,948 cases)
    Check("admitted-box", ("verify", "--floor", "-16", "--range", "5", "--threads", "2"),
          sha256="c18facb00ef574741eb06316b195af52921bad1dea241fcfa590029f28776781"),
    # every suite passes on the admitted box at one worker, with each
    # product kernel wrapped in every module that holds it, and no call
    # finds an operand empty, so no product with a zero factor is formed
    Check("no-empty-products-box", ("-c", EMPTY_PRODUCTS),
          lines=tuple(f"{key} with an empty operand: 0" for key in
                      ("mul_into", "triple_into", "residue_into", "pair_terms_into"))),
    # symbol_str and coeff_str on the printer's edge cases: unit and sign
    # coefficients, several M-powers on one (t, x) monomial, Gaussian
    # values, half orders, zeros with a floor and a leading negative term;
    # pinned from before symbols printed from their flat terms
    Check("printer-edge-cases", ("-c", PRINTER_EDGES),
          sha256="6ddf2967c722fd2fb7a2ae3300174aded6e0c87b3b66380f616a0293717140a2"),
    # the command line imports the suites only when verify runs, so an
    # import that breaks shows only in a cold process, never in the
    # in-process main() tests; each usage error exits 2 with its exact
    # last stderr line, and each help page exits 0
    Check("eval-floor-too-deep", ("eval", "xi", "--floor", "-33/2"), exit=2,
          stderr="svpsido: the floor must sit at or above -16"),
    # the first factor is refused, before the product of the two
    Check("eval-half-order-in-r", ("eval", "d_r^1/2*d_r^1/2"), exit=2,
          stderr="svpsido: half-integer order in an R-variable symbol"),
    # a zero power keeps its base's algebra
    Check("eval-zero-power-algebra", ("eval", "(2*d_xi)^0 + r"), exit=2,
          stderr="svpsido: expression mixes the r and xi algebras"),
    Check("eval-wrong-arity", ("eval", "theta(xi,xi)"), exit=2,
          stderr="svpsido: theta takes 1 argument, not 2"),
    # xi^q shifts into a power of a sum, bounded as (xi+1)^q is
    Check("eval-tshift-power-bound", ("eval", "tshift(xi^65)"), exit=2,
          stderr="svpsido: tshift takes momentum powers up to 64"),
    Check("verify-floor-too-deep", ("verify", "--floor", "-33/2"), exit=2,
          stderr="svpsido: the floor must sit at or above -16"),
    Check("verify-floor-too-shallow", ("verify", "--floor", "-1/2"), exit=2,
          stderr="svpsido: the floor must sit at or below -1 so traces stay trusted"),
    # refused before any worker is forked
    Check("verify-threads-65", ("verify", "--threads", "65"), exit=2,
          stderr="svpsido: thread count out of bounds (want 1 <= n <= 64)"),
    Check("verify-unknown-suite", ("verify", "--suite", "nope"), exit=2,
          stderr="svpsido verify: error: argument --suite: invalid choice: 'nope' "
                 f"(choose from {SUITE_CHOICES})"),
    Check("help", ("--help",)),
    Check("verify-help", ("verify", "--help")),
    Check("eval-help", ("eval", "--help")),
    # trailing whitespace ends an expression
    Check("eval-trailing-space", ("eval", "xi "), lines=("xi | exact",)),
    # sha256 of the whole eval output, pinned from before symbol terms were
    # stored as int triples: an exact product with large integers, a
    # series at the deepest admitted floor, and a floored product with
    # Gaussian coefficients and denominators; the benchmark's pinned
    # calculator outputs reach floor -6 only
    Check("eval-large-product", ("eval", "mul((xi+d_xi)^32,(xi+d_xi)^32)"),
          sha256="8853589794bbf8e736090351e31ea61a8d663889bcda7348a72b78a9e9c491e0"),
    # a bracket of two large exact sums cut at the deepest admitted floor,
    # pinned from before the bracket skipped its products' leading terms
    Check("eval-large-bracket", ("eval", "bracket((xi+d_xi)^32,(xi+2*d_xi)^32)", "--floor", "-16"),
          sha256="2d6a9546c42a16bb9cd12ced84bbc0076c92bb5a186fa94a13773b43482a8333"),
    Check("eval-deepest-series", ("eval", "theta_inv(r^-3)", "--floor", "-16"),
          sha256="b8540acb1d89228537085dbb76e088515903ec1221ea3e9a3e0bfd07b270fd44"),
    Check("eval-gaussian-product",
          ("eval", "mul((1/2 + i)*xi^-1*d_xi^1/2, (2/3 - i)*xi^-2*d_xi^-1/2 + 1/3*i*t*xi^-3)",
           "--floor", "-16"),
          sha256="4628ea94e4b336f55aa3f88af88a587e367b5a241dd5885791b608cda3980838"),
]

# each demo prints symbols, floors and orders through the public API; the
# sha256 of its masked stdout (demo 07 prints timings) is pinned from
# before the printer read orders as twice-ints; demos 03 and 05 print
# records, and are pinned from since records print named slots
DEMOS = {
    "01_symbol_arithmetic": "ea7b73272628ac4a4bf3b0c47599044fd6921034602ec989f05aa9760e4d8f84",
    "02_nonlocal_transform": "af2c9a3661bdbc8e89a3d4a7f23b7efcd9cddc42583f18669e9c4e9bdd2c0acf",
    "03_schrodinger_symmetries": "2439d219ee5190f8c2a8b1f0107bb251978f9f0e4fe957f7fc4ac3e6a3e75dc4",
    "04_central_terms": "7e47248bd593eb3b34358c396caf9eebc5ce87d1257e92737ad29529b4fba411",
    "05_coadjoint_action": "49972b8244bd077ddcaa0165b9f6ed07720f99190f02252cf96c11ee0f05f9df",
    "06_hamiltonian_flows": "b2694ddffe79910728b564297c877ffed8fecfec34a43c45cc66e3c030cff5d1",
    "07_deformation_scan": "997b44da32428a0cb9fe2394c8bf982c93f096c96599932d94e2ff0294a75309",
}
CHECKS += [Check(f"demo-{name}", (f"demos/{name}.py",), sha256=pin) for name, pin in DEMOS.items()]

# (expression, floor): the body of every printed result, evaluated again,
# prints the same body, and a finite sum is exact; series cuts, Gaussian
# coefficients and half orders; products of a derivative with an
# x-dependent and with x-free factors after it, a power that composes, and
# a power of an x-free monomial past the cap on composed powers
PARSE_BACK = [
    ("theta(xi*d_xi)", "-4"),
    ("mul(d_r^-1, r^-1)", "-3"),
    ("mul(d_xi^-1/2, (1/2 - i)*xi^-1)", "-3"),
    ("theta_inv(theta(1/2*xi^-3*d_xi^5/2 - 2*xi^2*d_xi^-1))", "-3"),
    ("theta((1+i)*t^2*xi^-3 - 3*i*t^2*xi^-1*d_xi^5/2 + -1*t*xi^-2*d_xi^-3/2)", "-2"),
    ("(1/2 + 1/2*i)^3*M^-2*t*xi^-1*d_xi^-3/2", "-4"),
    ("bracket(d_xi^1/2, xi^2)", "-5/2"),
    ("theta_inv(-3/4*M*r*d_r^-3 + 3*i*t*r^2 + 1/2*r^3*d_r^2)", "-4"),
    ("tshift(xi^2*d_xi^3/2 - i*M*xi)", "-4"),
    ("(2 + M^2)*t*d_r + M*r + (2 + M^2)*t", "-4"),
    ("d_xi^1/2*xi^-1", "-4"),
    ("xi^3*d_xi^5/2*t^-1*2", "-4"),
    ("(xi*d_xi)^3", "-4"),
    ("(2*d_xi)^65", "-4"),
    # a printed body that starts with a minus sign is an EXPR, not an option
    ("0 - t*xi", "-4"),
]

# The duality suites at charge 1/3, run in one process after a
# default-charge run; argv[1] is the worker count
RERUN = """\
import sys
from fractions import Fraction

from svpsido.ring import GaussRat
from svpsido.suites import VerifyConfig, report_text, run_suites

names = ["theorem61", "poisson-lemma71"]
cfg = VerifyConfig(threads=int(sys.argv[1]))
run_suites(names, cfg)
print(report_text(run_suites(names, cfg._replace(c=GaussRat(Fraction(1, 3))))))
"""


# ---------------------------------------------------------------- runner

ROOT = Path(__file__).resolve().parent.parent
# sed's s/\([0-9]+ ms\)/(N ms)/: the first timing of each line
TIMING = re.compile(rb"^(.*?)\([0-9]+ ms\)", re.M)


def python_args(argv: tuple) -> tuple:
    """What python runs for argv: a demo or -c code as it is, else svpsido."""
    if argv[0] == "-c" or argv[0].endswith(".py"):
        return argv
    return ("-m", "svpsido.cli", *argv)


def run(argv: tuple) -> tuple:
    """(exit code, masked stdout, stderr) of one fresh run of argv."""
    proc = subprocess.run([sys.executable, *python_args(argv)], cwd=ROOT, capture_output=True,
                          env={**os.environ, "PYTHONPATH": "src"})
    out = TIMING.sub(rb"\1(N ms)", proc.stdout).decode("utf-8", "surrogateescape")
    return proc.returncode, out, proc.stderr.decode("utf-8", "replace")


def digest(out: str) -> str:
    return hashlib.sha256(out.encode("utf-8", "surrogateescape")).hexdigest()


def differs(what: str, want: str, got: str) -> list:
    """One failure at the first line where got and want part, or none."""
    if got == want:
        return []
    a, b = want.splitlines(), got.splitlines()
    k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    line = lambda lines: repr(lines[k]) if k < len(lines) else "no line"
    return [f"{what}, line {k + 1}: expected {line(a)}, got {line(b)}"]


def last_line(err: str) -> str:
    return (err.splitlines() or [""])[-1]


def exited(argv: tuple, want: int, code: int, err: str) -> list:
    if code == want:
        return []
    shown = " ".join(argv).splitlines()[0][:120]
    return [f"{shown}: expected exit {want}, got {code} ({last_line(err)!r})"]


def failures(check: Check) -> list:
    """What the runs of one check show that they should not."""
    found, first = [], None
    for n in check.workers or (None,):
        argv = check.argv if n is None else (*check.argv, "--threads", str(n))
        code, out, err = run(argv)
        found += exited(argv, check.exit, code, err)
        if first:
            found += differs(f"masked stdout at {n} workers against {check.workers[0]}", first[0], out)
        first = first or (out, err)
    out, err = first
    if check.sha256 and digest(out) != check.sha256:
        found.append(f"sha256 of the masked stdout: expected {check.sha256}, got {digest(out)}")
    have = set(out.splitlines())
    found += [f"stdout line: expected {want!r}, got none" for want in check.lines if want not in have]
    if check.stderr and last_line(err) != check.stderr:
        found.append(f"last stderr line: expected {check.stderr!r}, got {last_line(err)!r}")
    return found


def parse_back() -> list:
    """Each PARSE_BACK result's body, evaluated again, prints itself exactly."""
    found = []
    for expr, floor in PARSE_BACK:
        argv = ("eval", expr, "--floor", floor)
        code, first, err = run(argv)
        found += exited(argv, 0, code, err)
        body = first.rstrip("\n").rsplit(" | ", 1)[0]
        code, again, err = run(("eval", body))
        found += exited(("eval", body), 0, code, err)
        found += differs(f"eval {body!r}", f"{body} | exact", again.rstrip("\n"))
    return found


def alone_and_together() -> list:
    """theorem61 and poisson-lemma71 read one basis, one list of slice
    points and one table of coadjoint rows, built once per process for
    each range and charge: each suite alone, both in one run, and both at
    charge 1/3 after a default-charge run in the same process must print
    the same masked per-suite reports, at one and two workers."""
    found = []

    def report(want: int, *argv) -> str:
        code, out, err = run(argv)
        found.extend(exited(argv, want, code, err))
        return "".join(line for line in out.splitlines(True) if not line.startswith("overall: "))

    both, third = {}, {}
    for n in (1, 2):
        threads = ("--threads", str(n))
        alone = report(0, *T61, *threads) + report(0, "verify", "--suite", "poisson-lemma71", *threads)
        both[n] = report(0, *T61, "--suite", "poisson-lemma71", *threads)
        found += differs(f"both suites against each alone, at {n} workers", alone, both[n])
        third[n] = report(1, *T61, "--suite", "poisson-lemma71", "--c", "1/3", *threads)
        after = report(0, "-c", RERUN, str(n))
        found += differs(f"charge 1/3 after charge 2 in one process, at {n} workers",
                         third[n], after)
    found += differs("both suites at 2 workers against 1", both[1], both[2])
    found += differs("both suites at charge 1/3, at 2 workers against 1", third[1], third[2])
    return found


SPECIAL = {"calculator-parses-back": parse_back, "duality-alone-and-together": alone_and_together}


def main() -> int:
    jobs = [(c.name, lambda c=c: failures(c)) for c in CHECKS] + list(SPECIAL.items())
    failed = 0
    for name, job in jobs:
        found = job()
        print(f"{'FAIL' if found else 'ok  '} {name}")
        for line in found:
            print(f"     {name}: {line}")
        failed += bool(found)
        sys.stdout.flush()
    print(f"{len(jobs) - failed} of {len(jobs)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
