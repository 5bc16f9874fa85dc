"""Local functionals on the dual slice and their Poisson structure.

A functional is a finite sum of monomials; every monomial is a Laurent
coefficient in (t, r) times a product of jet variables.  Three classes
are supported, matching the three kinds of displayed brackets:

  * pair class: jets of the two symbol slots, integrated over t and r,
  * loop class: jets of the dt^2 coordinate v, integrated over t only,
  * central class: jets of the central coordinate a, integrated over t.

A single monomial may not mix classes; a functional may sum monomials
of different classes.  A field's jets occur only in monomials of that
field's class, so each variational derivative reads one class and is zero
when the functional has none of it; the bracket and the Hamiltonian field
are written once, bilinear and linear in the four derivatives.  The
derivatives depend on the functional alone, so they are taken once per
functional, on first use, and only substituted at each point.
Integration is the double (or single) residue, so functionals that
differ by a total derivative evaluate identically at every point.

Sign conventions.  The generator functionals are the momentum pairings
F_X(mu) = <mu, embedded X>, and the Hamiltonian field is normalized so
that hamiltonian_vector(F_X) reproduces the coadjoint action rows; the
normalization is frozen against the central generator family.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .halfint import h
from .kacmoody import GDual
from .psido import R, Symbol
from .ring import CoeffFn, GaussRat, M
from .svalgebra import SvElement
from .textio import coeff_str

__all__ = [
    "JetVar",
    "LocalFunctional",
    "jet",
    "total_derivative",
    "variational_derivative",
    "substitute",
    "evaluate",
    "lemma71_functional",
    "poisson_bracket",
    "hamiltonian_vector",
    "n_preservation_check",
]

FIELD_VM2 = "V-2"
FIELD_V0 = "V0"
FIELD_V = "v"
FIELD_A = "a"

_PAIR_FIELDS = (FIELD_VM2, FIELD_V0)
_LOOP_FIELDS = (FIELD_V, FIELD_A)
_ALL_FIELDS = _PAIR_FIELDS + _LOOP_FIELDS


class JetVar(tuple):
    """One derivative coordinate dt^i dr^j of a field: the tuple (field, i, j).

    It equals, hashes and sorts as that plain tuple."""

    __slots__ = ()

    def __new__(cls, field: str, i: int = 0, j: int = 0):
        if field not in _ALL_FIELDS:
            raise ValueError(f"unknown field {field!r}")
        if i < 0 or j < 0:
            raise ValueError("jet orders are nonnegative")
        if j and field in _LOOP_FIELDS:
            raise ValueError(f"{field} is a loop function, it has no r-jets")
        return tuple.__new__(cls, (field, i, j))

    field = property(itemgetter(0))
    i = property(itemgetter(1))
    j = property(itemgetter(2))

    def __str__(self):
        out = self.field
        if self.j:
            out = f"dr^{self.j}({out})" if self.j > 1 else f"dr({out})"
        if self.i:
            out = f"dt^{self.i}({out})" if self.i > 1 else f"dt({out})"
        return out

    __repr__ = __str__


def jet(field: str, i: int = 0, j: int = 0) -> JetVar:
    return JetVar(field, i, j)


def _monomial_class(jets) -> str:
    fields = {J.field for J in jets}
    if fields <= set(_PAIR_FIELDS):
        return "pair"
    if fields == {FIELD_V}:
        return "v"
    if fields == {FIELD_A}:
        return "a"
    raise ValueError("a monomial may not mix the loop coordinates with "
                     "the symbol slots or with each other")


def _as_coeff(c) -> CoeffFn:
    if isinstance(c, CoeffFn):
        return c
    return CoeffFn.const(c)


class LocalFunctional:
    """Finite sum of coefficient-times-jet-product monomials.

    The private slot ``_derivs`` holds the four variational derivatives once
    _derivatives has taken them; it takes no part in equality or printing.
    """

    __slots__ = ("terms", "_derivs")

    def __init__(self, terms=()):
        merged: dict = {}
        if isinstance(terms, dict):
            terms = terms.items()
        for jets, coeff in terms:
            jets = tuple(sorted(jets))
            coeff = _as_coeff(coeff)
            if coeff.is_zero():
                continue
            cls = _monomial_class(jets)
            if cls in ("v", "a") and not coeff.is_t_only():
                raise ValueError("loop-class monomials sit under a single "
                                 "time integral, their coefficient must be "
                                 "space-free")
            acc = merged.get(jets)
            merged[jets] = coeff if acc is None else acc + coeff
        object.__setattr__(self, "terms",
                           {k: v for k, v in merged.items() if not v.is_zero()})
        object.__setattr__(self, "_derivs", None)

    def __setattr__(self, *_):
        raise AttributeError("LocalFunctional is immutable")

    @staticmethod
    def zero() -> "LocalFunctional":
        return LocalFunctional()

    @staticmethod
    def monomial(coeff, *jets) -> "LocalFunctional":
        return LocalFunctional([(jets, coeff)])

    def is_zero(self) -> bool:
        return not self.terms

    def classes(self) -> set:
        return {_monomial_class(jets) for jets in self.terms}

    def add(self, other: "LocalFunctional") -> "LocalFunctional":
        out = list(self.terms.items()) + list(other.terms.items())
        return LocalFunctional(out)

    def neg(self) -> "LocalFunctional":
        return LocalFunctional([(jets, -c) for jets, c in self.terms.items()])

    def sub(self, other: "LocalFunctional") -> "LocalFunctional":
        out = list(self.terms.items())
        out += [(jets, -c) for jets, c in other.terms.items()]
        return LocalFunctional(out)

    def scale(self, s) -> "LocalFunctional":
        return LocalFunctional([(jets, c * s) for jets, c in self.terms.items()])

    def __eq__(self, other):
        if not isinstance(other, LocalFunctional):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for jets in sorted(self.terms):
            coeff = self.terms[jets]
            sign = "int int" if _monomial_class(jets) == "pair" else "int"
            body = " * ".join(str(J) for J in jets)
            piece = f"{sign} ({coeff_str(coeff, 'r')})"
            if body:
                piece += f" * {body}"
            parts.append(piece)
        return "  +  ".join(parts)

    __repr__ = __str__


def total_derivative(F: LocalFunctional, var: str) -> LocalFunctional:
    """Total t- or r-derivative; var is "T" or "X" as in CoeffFn.deriv.

    Jets of the loop coordinates are space-free data, so their total
    r-derivative is zero by definition.
    """
    if var not in ("T", "X"):
        raise ValueError("var must be 'T' or 'X'")
    out = []
    for jets, coeff in F.terms.items():
        out.append((jets, coeff.deriv(var)))
        for k, J in enumerate(jets):
            if var == "X":
                if J.field in _LOOP_FIELDS:
                    continue
                bumped = JetVar(J.field, J.i, J.j + 1)
            else:
                bumped = JetVar(J.field, J.i + 1, J.j)
            out.append((jets[:k] + (bumped,) + jets[k + 1:], coeff))
    return LocalFunctional(out)


def _partial(F: LocalFunctional, J: JetVar) -> LocalFunctional:
    """Plain polynomial derivative with respect to one jet variable."""
    out = []
    for jets, coeff in F.terms.items():
        m = jets.count(J)
        if not m:
            continue
        k = jets.index(J)
        out.append((jets[:k] + jets[k + 1:], coeff * m))
    return LocalFunctional(out)


def variational_derivative(F: LocalFunctional, field: str) -> LocalFunctional:
    """Euler-Lagrange derivative: sum of (-1)^(i+j) D_t^i D_r^j dF/dJet."""
    if field not in _ALL_FIELDS:
        raise ValueError(f"unknown field {field!r}")
    seen = {J for jets in F.terms for J in jets if J.field == field}
    out = []
    for J in seen:
        term = _partial(F, J)
        for _ in range(J.i):
            term = total_derivative(term, "T")
        for _ in range(J.j):
            term = total_derivative(term, "X")
        odd = (J.i + J.j) % 2
        out += [(jets, -c if odd else c) for jets, c in term.terms.items()]
    return LocalFunctional(out)


def _slot_data(mu: GDual, field: str) -> CoeffFn:
    if field == FIELD_VM2:
        return mu.V.coeff(h(-2))
    if field == FIELD_V0:
        return mu.V.coeff(h(0))
    if field == FIELD_V:
        return mu.v
    return mu.a


def _substituted(jets, coeff: CoeffFn, mu: GDual) -> CoeffFn:
    """One monomial with the point's slot data plugged into its jets."""
    value = coeff
    for J in jets:
        data = _slot_data(mu, J.field)
        for _ in range(J.i):
            data = data.deriv("T")
        for _ in range(J.j):
            data = data.deriv("X")
        value = value * data
    return value


def substitute(F: LocalFunctional, mu: GDual) -> CoeffFn:
    """Plug the point's slot data into every jet; no integration."""
    total = CoeffFn.zero()
    for jets, coeff in F.terms.items():
        total = total + _substituted(jets, coeff, mu)
    return total


def _t_residue(c: CoeffFn) -> CoeffFn:
    return c.residue("T").x_slice(0)


def _double_residue(c: CoeffFn) -> CoeffFn:
    return _t_residue(c.residue("X"))


def evaluate(F: LocalFunctional, mu: GDual) -> CoeffFn:
    """Integrate the substituted monomials: double residue for the pair
    class, single time residue for the loop classes.  Jet-free monomials
    count as pair class."""
    total = CoeffFn.zero()
    for jets, coeff in F.terms.items():
        piece = _substituted(jets, coeff, mu)
        if _monomial_class(jets) == "pair":
            total = total + _double_residue(piece)
        else:
            total = total + _t_residue(piece)
    return total


# ------------------------------------------------------------- generators

_I_M_QUARTER = GaussRat(0, Fraction(1, 4)) * M
_M2_TWELFTH = Fraction(1, 12) * M ** 2
_M2_HALF = Fraction(1, 2) * M ** 2
_M2 = M ** 2
_R = CoeffFn.mono(0, 1)
_R3 = CoeffFn.mono(0, 3)


def lemma71_functional(X: SvElement) -> LocalFunctional:
    """Momentum functional of a symmetry generator: F_X = <mu, I(X)>.

    Written out per component (the time family also feeds the loop
    coordinate, the other two live purely on the symbol slots):

      time f:   -int f v  -  1/2 int int r f' V-2
                -  int int (iM/4 r f'' - M^2/12 r^3 f''') V0
      shift g:  -int int g V-2  +  M^2/2 int int g'' r^2 V0
      phase u:   M^2 int int r u' V0
    """
    out = []
    f, g, u = X.f, X.g, X.h
    if not f.is_zero():
        fd = f.deriv("T")
        fdd = fd.deriv("T")
        fddd = fdd.deriv("T")
        out.append(((jet(FIELD_V),), -f))
        out.append(((jet(FIELD_VM2),), -(_R * fd * Fraction(1, 2))))
        out.append(((jet(FIELD_V0),), -(_R * fdd * _I_M_QUARTER - _R3 * fddd * _M2_TWELFTH)))
    if not g.is_zero():
        gdd = g.deriv("T").deriv("T")
        out.append(((jet(FIELD_VM2),), -g))
        out.append(((jet(FIELD_V0),), CoeffFn.mono(0, 2) * gdd * _M2_HALF))
    if not u.is_zero():
        out.append(((jet(FIELD_V0),), _R * u.deriv("T") * _M2))
    return LocalFunctional(out)


# ------------------------------------------------------- bracket and field

def _derivatives(F: LocalFunctional, mu: GDual) -> list:
    """F's variational derivatives along V-2, V0, v and a, substituted at
    mu.  Each reads one class of F and is zero when F has none of it.

    They depend on F alone, so they are taken on first use and kept in F's
    private slot; every later point only substitutes them."""
    derivs = F._derivs
    if derivs is None:
        derivs = tuple(variational_derivative(F, fld) for fld in _ALL_FIELDS)
        object.__setattr__(F, "_derivs", derivs)
    return [substitute(d, mu) for d in derivs]


def poisson_bracket(F: LocalFunctional, G: LocalFunctional,
                    mu: GDual, c) -> CoeffFn:
    """Evaluate the displayed bracket formula at the point mu.

    With P, Q, phi, psi the derivatives along V-2, V0, v, a, the pair
    integrand and its coupling to v sit under the double residue, the v-v
    and v-a terms under the time residue.  The loop classes reach the pair
    class only through v, and the central class couples to v alone.
    """
    vm2 = mu.V.coeff(h(-2))
    v0 = mu.V.coeff(h(0))
    Pf, Qf, phif, psif = _derivatives(F, mu)
    Pg, Qg, phig, psig = _derivatives(G, mu)
    pair = (vm2 * (Pg.deriv("X") * Pf - Pf.deriv("X") * Pg)
            + v0 * (Qg * Pf - Pg * Qf).deriv("X")
            + mu.a * (Qf.deriv("X") * Pg + Pf.deriv("X") * Qg) * c
            + phif * (vm2 * Pg.deriv("T") + v0 * Qg.deriv("T"))
            - phig * (vm2 * Pf.deriv("T") + v0 * Qf.deriv("T")))
    loop = (mu.v * (phif * phig.deriv("T") - phig * phif.deriv("T"))
            + mu.a * (phif * psig.deriv("T") - phig * psif.deriv("T")))
    return _double_residue(pair) + _t_residue(loop)


def hamiltonian_vector(F: LocalFunctional, mu: GDual, c) -> GDual:
    """The point derivative matching the bracket: dG(H_F) = {G, F}."""
    vm2 = mu.V.coeff(h(-2))
    v0 = mu.V.coeff(h(0))
    P, Q, phi, psi = _derivatives(F, mu)
    out_v = ((vm2 * P.deriv("T") + v0 * Q.deriv("T")).residue("X")
             + mu.v * phi.deriv("T") * 2 + mu.v.deriv("T") * phi
             + mu.a * psi.deriv("T"))
    out_vm2 = (vm2 * P.deriv("X") * 2 + vm2.deriv("X") * P
               - mu.a * Q.deriv("X") * c - v0.deriv("X") * Q
               + (vm2 * phi).deriv("T"))
    out_v0 = v0.deriv("X") * P - mu.a * P.deriv("X") * c + (v0 * phi).deriv("T")
    out_a = (mu.a * phi).deriv("T")
    return GDual(v=out_v, V=Symbol(R, {h(-2): out_vm2, h(0): out_v0}), a=out_a)


# ----------------------------------------------------- structural criterion

def n_preservation_check(F: LocalFunctional) -> bool:
    """Does the Hamiltonian field of F stay tangent to the invariant
    slice?  Structural form: affine in the deep-slot jets, coefficient
    space powers bounded by one past the jet's r-order, closed in the
    shallow slot; corroborated by probing that the shallow row of the
    field carries no space dependence at slice points."""
    if not F.classes() <= {"pair"}:
        raise ValueError("the criterion applies to pair-class functionals")
    for jets, coeff in F.terms.items():
        deep = [J for J in jets if J.field == FIELD_VM2]
        if not deep:
            continue
        if len(deep) > 1:
            return False
        J = deep[0]
        for (_, xpow, _) in coeff.terms:
            if xpow < 0 or xpow > J.j + 1:
                return False
        if any(K.field == FIELD_V0 and (K.i or K.j) for K in jets):
            return False

    probes = []
    for vm2 in (CoeffFn.mono(0, 2), CoeffFn.mono(1, 1), CoeffFn.mono(2, 0),
                CoeffFn.mono(0, -1)):
        for v0 in (CoeffFn.one(), CoeffFn.t_pow(1)):
            probes.append(GDual(v=None,
                                V=Symbol(R, {h(-2): vm2, h(0): v0}),
                                a=CoeffFn.one()))
    for mu in probes:
        row = hamiltonian_vector(F, mu, GaussRat(2)).V.coeff(h(0))
        if not row.deriv("X").is_zero():
            return False
    return True
