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
functional, on first use, and only substituted at each point
(derivatives_at); a caller that meets the same functional at the same
point more than once can keep the substituted derivatives and hand them
to bracket_at, of which poisson_bracket is the one-shot form.
Integration is the double (or single) residue, so functionals that
differ by a total derivative evaluate identically at every point.

The bracket is a sum of residues of triple products, each read straight
into one table by ring.triple_into, which visits only the term pairs
that meet a term of the third factor; no product is built.  Each row of
the Hamiltonian field is one table that every product adds into.

Sign conventions.  The generator functionals are the momentum pairings
F_X(mu) = <mu, embedded X>, and the Hamiltonian field is normalized so
that hamiltonian_vector(F_X) reproduces the coadjoint action rows; the
normalization is frozen against the central generator family.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .kacmoody import GDual
from .ring import (
    CoeffFn,
    CoeffTable,
    GaussRat,
    HALF,
    I_M_QUARTER,
    M2,
    M2_HALF,
    coeff_from_table,
    coeff_of,
    mul_into,
    product_into,
    residue_into,
    triple_into,
)
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
    "derivatives_at",
    "bracket_at",
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

    def __getnewargs__(self):
        # copy and pickle call __new__ with these, not with the tuple
        return tuple(self)

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


class LocalFunctional(CoeffTable):
    """Finite sum of coefficient-times-jet-product monomials: a
    ring.CoeffTable from a sorted tuple of jets to a nonzero CoeffFn, whose
    key check refuses a nonzero monomial that mixes classes, or a loop-class
    one whose coefficient depends on r."""

    __slots__ = ()

    @staticmethod
    def _key(jets, coeff):
        jets = tuple(sorted(jets))
        if coeff.terms and _monomial_class(jets) in ("v", "a") and not coeff.is_t_only():
            raise ValueError("loop-class monomials sit under a single "
                             "time integral, their coefficient must be "
                             "space-free")
        return jets

    @staticmethod
    def monomial(coeff, *jets) -> "LocalFunctional":
        return LocalFunctional([(jets, coeff)])

    def classes(self) -> set:
        return {_monomial_class(jets) for jets in self.terms}

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
    # jets in the order the terms first meet them: a set would walk them in
    # an order that follows the string hash seed, and so would the sums
    seen = dict.fromkeys(J for jets in F.terms for J in jets if J.field == field)
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
        return mu.slots()[0]
    if field == FIELD_V0:
        return mu.slots()[1]
    if field == FIELD_V:
        return mu.v
    return mu.a


def _jet_data(mu: GDual, J: JetVar) -> CoeffFn:
    """The point's slot data, differentiated as the jet says."""
    data = _slot_data(mu, J.field)
    for _ in range(J.i):
        data = data.deriv("T")
    for _ in range(J.j):
        data = data.deriv("X")
    return data


def _substituted(jets, coeff: CoeffFn, mu: GDual) -> CoeffFn:
    """One monomial with the point's slot data plugged into its jets."""
    value = coeff
    for J in jets:
        value = value * _jet_data(mu, J)
    return value


def substitute(F: LocalFunctional, mu: GDual) -> CoeffFn:
    """Plug the point's slot data into every jet; no integration."""
    total = CoeffFn.zero()
    for jets, coeff in F.terms.items():
        total = total + _substituted(jets, coeff, mu)
    return total


_ONE_ITEMS = tuple(CoeffFn.one().terms.items())


def evaluate(F: LocalFunctional, mu: GDual) -> CoeffFn:
    """Integrate the substituted monomials: the coefficient of t^-1 x^-1
    (the double residue) for the pair class, of t^-1 x^0 (the time
    residue) for the loop classes.  Jet-free monomials count as pair class.

    Each monomial's residue is read by ring.triple_into from its last two
    factors and the product of the leading ones, so only a monomial with
    more than two jets builds a product, and a monomial with a zero jet
    is skipped before any."""
    acc: dict = {}
    for jets, coeff in F.terms.items():
        data = [_jet_data(mu, J) for J in jets]
        if not all(d.terms for d in data):
            continue
        lead = coeff
        for d in data[:-2]:
            lead = lead * d
        factors = [lead.terms.items()] + [d.terms.items() for d in data[-2:]]
        factors += [_ONE_ITEMS] * (3 - len(factors))
        q = -1 if _monomial_class(jets) == "pair" else 0
        triple_into(acc, *factors, -1, q, 1)
    return coeff_from_table(acc)


# ------------------------------------------------------------- generators

_M2_TWELFTH = Fraction(1, 12) * M2
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
        out.append(((jet(FIELD_VM2),), -(_R * fd * HALF)))
        out.append(((jet(FIELD_V0),), -(_R * fdd * I_M_QUARTER - _R3 * fddd * _M2_TWELFTH)))
    if not g.is_zero():
        gdd = g.deriv("T").deriv("T")
        out.append(((jet(FIELD_VM2),), -g))
        out.append(((jet(FIELD_V0),), CoeffFn.mono(0, 2) * gdd * M2_HALF))
    if not u.is_zero():
        out.append(((jet(FIELD_V0),), _R * u.deriv("T") * M2))
    return LocalFunctional(out)


# ------------------------------------------------------- bracket and field

def derivatives_at(F: LocalFunctional, mu: GDual) -> tuple:
    """F's variational derivatives along V-2, V0, v and a, substituted at
    mu.  Each reads one class of F and is zero when F has none of it.

    They depend on F alone, so they are taken on first use and kept on F
    (Value.kept); every later point only substitutes them."""
    return tuple(substitute(d, mu) for d in F.kept(_derivatives))


def _derivatives(F: LocalFunctional) -> tuple:
    """F's variational derivatives along V-2, V0, v and a."""
    return tuple(variational_derivative(F, fld) for fld in _ALL_FIELDS)


def bracket_at(df, dg, mu: GDual, c) -> CoeffFn:
    """The bracket of two functionals at mu, from their derivatives there
    (derivatives_at); c is the central charge, a constant or a value in M.

    With P, Q, phi, psi the derivatives along V-2, V0, v, a, primes
    r-derivatives and _t t-derivatives, the pair integrand

        V-2 (Pg' Pf - Pf' Pg) + V0 (Qg Pf - Pg Qf)' + c a (Qf' Pg + Pf' Qg)
          + phif (V-2 Pg_t + V0 Qg_t) - phig (V-2 Pf_t + V0 Qf_t)

    sits under the double residue, at t^-1 x^-1, and the loop integrand

        v (phif phig_t - phig phif_t) + a (phif psig_t - phig psif_t)

    under the time residue, at t^-1 x^0.  The loop classes reach the pair
    class only through v, and the central class couples to v alone.

    Every term is a product of three factors, read straight into one table
    by ring.triple_into; no product is built.  The r-derivative of the V0
    term is moved onto V0, since res_x of a total r-derivative vanishes:
    res_x(V0 D') = -res_x(V0' D), two triples instead of four.  The two c
    terms go into a table of their own, which meets c once at the end.
    """
    Pf, Qf, phif, psif = df
    Pg, Qg, phig, psig = dg
    vm2, v0 = mu.slots()
    v0_x = v0.deriv("X")
    pair = [
        (Pg.deriv("X"), Pf, vm2, 1),
        (Pf.deriv("X"), Pg, vm2, -1),
        (Qg, Pf, v0_x, -1),
        (Pg, Qf, v0_x, 1),
    ]
    loop = []
    if phif.terms:
        phig_t = phig.deriv("T")
        pair += [(phif, Pg.deriv("T"), vm2, 1), (phif, Qg.deriv("T"), v0, 1)]
        loop += [(phif, phig_t, mu.v, 1), (phif, psig.deriv("T"), mu.a, 1)]
    if phig.terms:
        phif_t = phif.deriv("T")
        pair += [(phig, Pf.deriv("T"), vm2, -1), (phig, Qf.deriv("T"), v0, -1)]
        loop += [(phig, phif_t, mu.v, -1), (phig, psif.deriv("T"), mu.a, -1)]
    acc: dict = {}
    _triples(acc, -1, -1, pair)
    _triples(acc, -1, 0, loop)
    central: dict = {}
    _triples(central, -1, -1, ((Qf.deriv("X"), Pg, mu.a, 1), (Pf.deriv("X"), Qg, mu.a, 1)))
    if central:
        mul_into(acc, central.items(), coeff_of(c).terms.items())
    return coeff_from_table(acc)


def _triples(acc: dict, p: int, q: int, terms) -> None:
    """Add sign * [t^p x^q](f g h) into acc for every (f, g, h, sign)
    whose three factors are nonzero."""
    for f, g, h3, sign in terms:
        if f.terms and g.terms and h3.terms:
            triple_into(acc, f.terms.items(), g.terms.items(), h3.terms.items(), p, q, sign)


def poisson_bracket(F: LocalFunctional, G: LocalFunctional,
                    mu: GDual, c) -> CoeffFn:
    """Evaluate the displayed bracket formula at the point mu: bracket_at
    on the derivatives of F and G there."""
    return bracket_at(derivatives_at(F, mu), derivatives_at(G, mu), mu, c)


def hamiltonian_vector(F: LocalFunctional, mu: GDual, c) -> GDual:
    """The point derivative matching the bracket: dG(H_F) = {G, F}.

    With P, Q, phi, psi F's derivatives at mu, primes r-derivatives and _t
    t-derivatives, the rows are

        v:    res_x(V-2 P_t + V0 Q_t) + 2 v phi_t + v_t phi + a psi_t
        V-2:  2 V-2 P' + V-2' P - c a Q' - V0' Q + (V-2 phi)_t
        V0:   V0' P - c a P' + (V0 phi)_t
        a:    (a phi)_t

    Each row is one table that every product adds into (ring.product_into),
    with its sign and constant folded into one factor; the residue of the
    v row is read from the term pairs that meet at x^-1 (ring.residue_into).
    The products of each slot of mu (v, V-2, V0, a), and the factors that
    fold in their constants (2 phi_t, -Q, -c a), are formed only when that
    slot is nonzero.
    """
    vm2, v0 = mu.slots()
    v, a = mu.v, mu.a
    P, Q, phi, psi = derivatives_at(F, mu)
    phi_t = phi.deriv("T")
    row_v: dict = {}
    row_vm2: dict = {}
    row_v0: dict = {}
    row_a: dict = {}
    if v.terms:
        product_into(row_v, v, phi_t * 2)
        product_into(row_v, v.deriv("T"), phi)
    if vm2.terms:
        _residue(row_v, vm2, P.deriv("T"))
        product_into(row_vm2, vm2, P.deriv("X") * 2)
        product_into(row_vm2, vm2.deriv("X"), P)
        product_into(row_vm2, vm2.deriv("T"), phi)
        product_into(row_vm2, vm2, phi_t)
    if v0.terms:
        _residue(row_v, v0, Q.deriv("T"))
        v0_x = v0.deriv("X")
        if v0_x.terms:
            product_into(row_vm2, v0_x, -Q)
        product_into(row_v0, v0_x, P)
        product_into(row_v0, v0.deriv("T"), phi)
        product_into(row_v0, v0, phi_t)
    if a.terms:
        minus_ca = a * -coeff_of(c)
        product_into(row_v, a, psi.deriv("T"))
        product_into(row_vm2, minus_ca, Q.deriv("X"))
        product_into(row_v0, minus_ca, P.deriv("X"))
        product_into(row_a, a.deriv("T"), phi)
        product_into(row_a, a, phi_t)
    return GDual.of_slots(coeff_from_table(row_v), coeff_from_table(row_vm2),
                          coeff_from_table(row_v0), coeff_from_table(row_a))


def _residue(acc: dict, f: CoeffFn, g: CoeffFn) -> None:
    """Add res_x(f g) into acc, unless a factor is zero."""
    if f.terms and g.terms:
        residue_into(acc, f.terms.items(), g.terms.items(), 0, 1)


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

    probes = [GDual.of_slots(vm2=vm2, v0=v0, a=CoeffFn.one())
              for vm2 in (CoeffFn.mono(0, 2), CoeffFn.mono(1, 1), CoeffFn.mono(2, 0),
                          CoeffFn.mono(0, -1))
              for v0 in (CoeffFn.one(), CoeffFn.t_pow(1))]
    for mu in probes:
        row = hamiltonian_vector(F, mu, GaussRat(2)).slots()[1]
        if not row.deriv("X").is_zero():
            return False
    return True
