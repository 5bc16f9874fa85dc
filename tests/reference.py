"""Retired implementations, kept as independent references for the fast
paths, and the test-only helpers built on the package.

Each reference here is the straightforward form that a faster one in the
package replaced.  Tests compare the two on random inputs, so the fast path
must keep every result, and every error, of the form it replaced.  The
helpers at the end are forms that only tests call.
"""

import functools
import re
import sys
from fractions import Fraction as F

from svpsido import kacmoody, textio
from svpsido.halfint import EXACT, HalfInt, h
from svpsido.psido import R, XI, Symbol, sym_add, sym_mul, sym_scale
from svpsido.ring import MINUS_2I_M, CoeffFn, GaussRat, M, _gauss, leibniz_rows


def gauss_str(g: GaussRat) -> str:
    """Reference for textio.gauss_str, which prints from the reduced int triple.

    Retired when printing moved off Fractions: this form reads the parts as
    the Fractions g.re and g.im and prints them with str().
    """
    real, imag = g.re, g.im
    try:
        if not imag:
            return str(real)
        if not real:
            if imag == 1:
                return "i"
            if imag == -1:
                return "-i"
            return f"{str(imag)}*i"
        sign = "+" if imag > 0 else "-"
        mag = abs(imag)
        imtxt = "i" if mag == 1 else f"{str(mag)}*i"
        return f"({str(real)} {sign} {imtxt})"
    except ValueError:  # only str() raises, past the int-to-str digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError("a coefficient of the result would print with more than "
                         f"{limit} digits") from None


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^(),]))"
)


def tokenize(src: str) -> list:
    """Reference for textio._tokenize, which validates and splits src in two
    regex passes.

    Retired when the lexer stopped matching one token per Python step: this
    form matches token by token and returns (kind, text) pairs, kind one of
    "num", "name", "op", with ("end", "") last.  Trailing whitespace ends
    the input, as it does for the calculator.
    """
    pos, out = 0, []
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            if src[pos:].isspace():
                break
            raise ValueError(f"bad character in expression at: {src[pos:]!r}")
        if m.group("num"):
            out.append(("num", m.group("num")))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    out.append(("end", ""))
    return out


# ---- the calculator: products and powers --------------------------------------------------

_ATOMS = {
    "i": CoeffFn.const(GaussRat(0, 1)),
    "M": M,
    "t": CoeffFn.t_pow(1),
    "xi": Symbol.function(XI, CoeffFn.x_pow(1)),
    "r": Symbol.function(R, CoeffFn.x_pow(1)),
    "d_xi": Symbol.monomial(XI, h(1), CoeffFn.one()),
    "d_r": Symbol.monomial(R, h(1), CoeffFn.one()),
}


class ComposingParser(textio._Parser):
    """Reference for textio._Parser, which multiplies and raises monomials
    as int tuples.

    Retired when the parser began to keep each monomial as a tuple: this
    form builds every atom and literal as a CoeffFn or a Symbol, composes
    every product with sym_mul, and takes powers through one-term special
    cases beside the repeated product.  The special cases read exact values
    only, as the parser does since a floored base stopped losing its floor.
    The grammar is the parser's own.
    """

    def atom(self):
        tok = self.toks[self.i]
        v = super().atom()
        if v.__class__ is not tuple:
            return v
        if tok in _ATOMS:
            return _ATOMS[tok]
        p, q = textio._ratio(tok)
        return CoeffFn.const(GaussRat(p) if q == 1 else _gauss(p, 0, q))

    def mul(self, a, b):
        a, b = textio._same_algebra(a, b)
        if isinstance(a, CoeffFn):
            return a * b
        try:
            return sym_mul(a, b)
        except ValueError:
            return sym_mul(a, b, self.floor)

    def power(self, v, twice: int):
        k, half = divmod(twice, 2)
        if isinstance(v, CoeffFn):
            if v == CoeffFn.one():
                return v
            if len(v.terms) == 1 and not half:
                textio._check_power_digits(*v.terms.values(), k)
                return v ** k
        elif len(v.terms) == 1 and v.floor is EXACT:
            ((order, c),) = v.terms.items()
            if c == CoeffFn.one():
                newtw = order.twice * twice
                if newtw % 2:
                    raise ValueError("resulting order is not a half-integer")
                return Symbol.monomial(v.var, HalfInt(newtw // 2), CoeffFn.one())
            if order.twice == 0 and len(c.terms) == 1 and not half:
                textio._check_power_digits(*c.terms.values(), k)
                return Symbol.function(v.var, c ** k)
        if not half and k >= 0:
            if k > textio.transforms.MAX_IMAGE_POWER:
                raise ValueError(
                    f"powers of a base that is not a single generator are bounded by "
                    f"{textio.transforms.MAX_IMAGE_POWER}"
                )
            out = CoeffFn.one()
            for _ in range(k):
                out = self.mul(out, v)
            return out
        if half:
            raise ValueError("only a pure derivative takes a half-integer exponent")
        raise ValueError("only a monomial function or a pure derivative takes a negative exponent")


def eval_expr(src: str, floor=None) -> Symbol:
    """Reference for textio.eval_expr: the same grammar, every factor composed."""
    value = ComposingParser(textio._tokenize(src), h(-4) if floor is None else floor).parse()
    return textio._as_symbol(value, R)


# ---- the transform: the monomial map and the deformed images ---------------------------------


def summed_images(D: Symbol, req, var: str, delta_of, image) -> Symbol:
    """Reference for transforms._map_monomials, which adds every scaled
    image into one table per output order.

    Retired when the transform's map began to add its images in place
    into shared per-order tables: this form builds one Symbol per monomial,
    the image shifted by delta_of(k) and scaled by its x-slice, sums them
    with sym_add and cuts the sum back to req when floored.
    """
    total = Symbol.zero(var)
    for k, c in D.terms.items():
        delta = delta_of(k)
        want = req if req is EXACT else req - delta
        for q in dict.fromkeys(key[1] for key in c.terms):
            img = image(q, want)
            floor = img.floor if img.floor is EXACT else img.floor + delta
            shifted = Symbol(var, {o + delta: v for o, v in img.terms.items()}, floor)
            total = sym_add(total, sym_scale(shifted, c.x_slice(q)))
    if req is EXACT or total.floor is EXACT or total.floor >= req:
        return total
    return Symbol(var, {k: v for k, v in total.terms.items() if k >= req}, req)


def series_neg_base(nu: GaussRat, req) -> Symbol:
    """Reference for the deformed image of xi^-1, which
    transforms._conjugated_image sums from undeformed images.

    Retired when deformed images came to be built by conjugation with
    d_xi^nu: this form is the image of xi^-1 under
    xi -> 1/2 r d_r^-1 + nu d_r^-2, the inverse
    2 d_r o (sum over k of (-2 nu r^-1 d_r^-1)^k) o r^-1, its tail summed
    until a term tops out below req - 1, then cut at req.
    """
    d = Symbol.monomial(R, HalfInt.of(1), CoeffFn.const(2))
    r_inv = Symbol.function(R, CoeffFn.x_pow(-1))
    if nu.is_zero():
        return sym_mul(d, r_inv)
    if req is EXACT:
        raise ValueError("deformed inverse image is a series; give a floor")
    rinv_dinv = sym_mul(r_inv, Symbol.monomial(R, HalfInt.of(-1), CoeffFn.one()), req - 1)
    total = power = Symbol.function(R, CoeffFn.one())
    k = 1
    while True:
        power = sym_mul(power, rinv_dinv, req - 1)
        scaled = sym_scale(power, (GaussRat(-2) * nu) ** k)
        if scaled.is_zero() or (scaled.top() is not None and scaled.top() < req - 1):
            break
        total = sym_add(total, scaled)
        k += 1
    return sym_mul(d, sym_mul(total, r_inv, req - 1), req)


@functools.cache
def series_image(nu: GaussRat, k: int, want) -> Symbol:
    """Reference for transforms._conjugated_image, the image of xi^k under
    the deformed transform.

    Retired when deformed images came to be built by conjugation with
    d_xi^nu: this form composes the image trusted down to want one
    deformed generator image at a time from xi^0, a positive power
    exactly, a negative one with series_neg_base, asking its neighbour one
    order deeper so that the order-(+1) base exposes no untrusted order.
    At nu = 0 every image is built exact.
    """
    if nu.is_zero():
        want = EXACT
    if k == 0:
        return Symbol.function(R, CoeffFn.one())
    if k > 0:
        base = Symbol(R, {HalfInt.of(-1): CoeffFn.x_pow(1, F(1, 2)), HalfInt.of(-2): CoeffFn.const(nu)})
        return sym_mul(series_image(nu, k - 1, EXACT), base)
    prev = series_image(nu, k + 1, want if want is EXACT or k == -1 else want - 1)
    # the base's missing tail meets the highest order prev may carry
    hi = prev.top() if prev.terms else prev.floor
    return sym_mul(prev, series_neg_base(nu, want if want is EXACT else want - hi), want)


# ---- test-only helpers ----------------------------------------------------------------------


def leibniz_into(tables: dict, f_terms, g_terms, low) -> bool:
    """leibniz_rows on term items: (2a, items) per left term, (2b, key, value) per right one."""
    f_rows = [(at, [(*key, v._a, v._b, v._d) for key, v in items]) for at, items in f_terms]
    g_rows = [(bt, [(*key, v._a, v._b, v._d)]) for bt, key, v in g_terms]
    return leibniz_rows(tables, f_rows, g_rows, low)


def coadjoint_duality_defect(X, mu, testY, c, req_floor) -> CoeffFn:
    """pairing(ad*_X mu, Y) + pairing(mu, [I(X), Y]), zero when coadjoint is dual to g_bracket."""
    # through the module, so that a test which patches kacmoody.g_bracket reaches it
    lhs = kacmoody.pairing(kacmoody.coadjoint(X, mu, c), testY)
    bracket = kacmoody.g_bracket(kacmoody.embed_I(X, req_floor), testY, c, req_floor)
    rhs = kacmoody.pairing(mu, bracket)
    return lhs + rhs


def quotient_nullity_defect(f: CoeffFn, kappa, mu, testY, req_floor) -> CoeffFn:
    """pairing(mu, [embedded f(-2iM xi) d_xi^kappa, Y]), zero on the invariant slice."""
    # such an element embeds with no d_t part and symbol orders at most 1,
    # and its bracket with any test element pairs to zero on the slice,
    # which lets the action quotient to the symmetry algebra; the top slot
    # of the embedded symbol is empty or spatially constant, so no central
    # term enters and c = 2 serves
    kap = h(kappa)
    if kap > h("-1/2"):
        raise ValueError("quotient directions have order <= -1/2")
    if not f.is_t_only():
        raise ValueError("the datum is a loop function")
    if not kacmoody.in_invariant_slice(mu):
        raise ValueError("the nullity statement lives on the invariant slice")
    floor = h(req_floor)
    lifted = kacmoody.embed_momentum_symbol(Symbol(XI, {kap: f.t_to_x(MINUS_2I_M)}), floor)
    return kacmoody.pairing(mu, kacmoody.g_bracket(lifted, testY, GaussRat(2), floor))
