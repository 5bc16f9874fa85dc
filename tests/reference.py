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
from math import gcd, prod

from svpsido import kacmoody, textio
from svpsido import transforms as tr
from svpsido.cocycles import CocycleId, eval_cocycle
from svpsido.halfint import EXACT, HalfInt, h, hmax
from svpsido.poisson import (
    FIELD_A,
    FIELD_V,
    FIELD_V0,
    FIELD_VM2,
    LocalFunctional,
    substitute,
    variational_derivative,
)
from svpsido.psido import (
    R,
    XI,
    Symbol,
    _check_var,
    sym_bracket,
    sym_mul,
)
from svpsido.ring import (
    I_HALF_OVER_M,
    I_M,
    MINUS_2I_M,
    CoeffFn,
    GaussRat,
    M,
    _gauss,
    _weights,
    leibniz_rows,
)
from svpsido.svaction import SchrodPoint


def gauss(v: tuple) -> GaussRat:
    """The GaussRat (a + i*b)/d of a stored triple, built through Fractions."""
    a, b, d = v
    return GaussRat(F(a, d), F(b, d))


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
    A zero power is the unit of its base's algebra, and the cap on the
    repeated product spares an exact x-free monomial, whose powers the
    parser takes in one step.  The grammar is the parser's own.
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
                textio._check_power_digits(gauss(*v.terms.values()), k)
                return v ** k
        elif len(v.terms) == 1 and v.floor is EXACT:
            ((order, c),) = v.terms.items()
            if c == CoeffFn.one():
                newtw = order.twice * twice
                if newtw % 2:
                    raise ValueError("resulting order is not a half-integer")
                return Symbol.monomial(v.var, HalfInt(newtw // 2), CoeffFn.one())
            if order.twice == 0 and len(c.terms) == 1 and not half:
                textio._check_power_digits(gauss(*c.terms.values()), k)
                return Symbol.function(v.var, c ** k)
        if not half and k >= 0:
            if k > textio.transforms.MAX_IMAGE_POWER and not _x_free_monomial(v):
                raise ValueError(
                    f"powers of a base that is not a single generator are bounded by "
                    f"{textio.transforms.MAX_IMAGE_POWER}"
                )
            # the empty product is the unit of the base's algebra
            out = CoeffFn.one() if isinstance(v, CoeffFn) else Symbol.function(v.var, CoeffFn.one())
            for _ in range(k):
                out = self.mul(out, v)
            return out
        if half:
            raise ValueError("only a pure derivative takes a half-integer exponent")
        if v.is_zero() and (isinstance(v, CoeffFn) or v.floor is EXACT):
            raise ValueError("zero has no negative power")
        raise ValueError("only a monomial function or a pure derivative takes a negative exponent")


def _x_free_monomial(v) -> bool:
    """Whether v is one exact monomial free of x, whose powers never cap."""
    if isinstance(v, CoeffFn):
        return len(v.terms) == 1
    if v.floor is not EXACT or len(v.terms) != 1:
        return False
    (c,) = v.terms.values()
    return len(c.terms) == 1 and c.is_t_only()


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
    with + and cuts the sum back to req when floored.
    """
    total = Symbol.zero(var)
    for k, c in D.terms.items():
        delta = delta_of(k)
        want = req if req is EXACT else req - delta
        for q in dict.fromkeys(key[1] for key in c.terms):
            img = image(q, want)
            floor = img.floor if img.floor is EXACT else img.floor + delta
            shifted = Symbol(var, {o + delta: v for o, v in img.terms.items()}, floor)
            total = total + sym_scale(shifted, c.x_slice(q))
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
        total = total + scaled
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


def theta_product_by_pairs(A: Symbol, B: Symbol) -> Symbol:
    """Reference for the theta suite's exact products, theta(A) o theta(xi^p) moved by B's order."""
    return sym_mul(tr.theta(A), tr.theta(B))


@functools.lru_cache(maxsize=None)
def binom_twice(a_twice: int, j: int) -> GaussRat:
    """Reference for the binomial factor of ring._weights: binom(a, j) for
    a = a_twice / 2, exact and cached.

    Retired from psido when composition came to read its weights from the
    kernel's one cache of reduced int pairs.
    """
    a = F(a_twice, 2)
    num = F(1)
    for i in range(j):
        num *= a - i
    den = 1
    for i in range(2, j + 1):
        den *= i
    return GaussRat(num / den)


# ---- the nested-table composition and transform ---------------------------------------------
#
# Retired when each Symbol came to store its terms in one flat dict keyed
# by (twice the order, t, x, M): these forms keep one (t, x, M) table per
# output order, keyed by twice the order, read each operand as int rows
# grouped by order, and wrap every finished table as a CoeffFn under its
# HalfInt order.  They read symbols only through the public terms view and
# build them only through the public constructor.


def term_rows(X: Symbol) -> list:
    """Reference rows of X: (twice the order, rows (t, x, M, a, b, d)) per order."""
    return [(k.twice, [(p, q, m, *v) for (p, q, m), v in c.terms.items()])
            for k, c in X.terms.items()]


def nested_leibniz_rows(tables: dict, f_rows, g_rows, low, sign: int = 1) -> bool:
    """Reference for ring.leibniz_rows: Leibniz terms of grouped rows into per-order tables."""
    cut = False
    for at, fs in f_rows:
        n_a = at // 2 + 1 if at >= 0 and not at & 1 else None
        for bt, gs in g_rows:
            top = at + bt
            if low is not None and top < low:
                cut = True
                continue
            for p2, q, m2, a2, b2, d2 in gs:
                order = top
                n = n_a if q < 0 or (n_a is not None and n_a <= q) else q + 1
                if low is not None:
                    above = (order - low) // 2 + 1
                    if n is None or above < n:
                        cut = True
                        n = above
                elif n is None:
                    raise ValueError(
                        "exact product requested but the Leibniz tail does not terminate"
                    )
                a2, b2 = a2 * sign, b2 * sign
                for num, den in _weights(at, q, n)[:n]:
                    acc = tables.setdefault(order, {})
                    for p1, q1, m1, a1, b1, d1 in fs:
                        k = (p1 + p2, q1 + q, m1 + m2)
                        term = _gauss(a1 * a2 * num - b1 * b2 * num,
                                      a1 * b2 * num + b1 * a2 * num, d1 * d2 * den)
                        total = acc[k] + term if k in acc else term
                        if total.is_zero():
                            del acc[k]
                        else:
                            acc[k] = total
                    q -= 1
                    order -= 2
    return cut


def _hi(X: Symbol) -> HalfInt:
    """Highest order X may carry: its top term, or its floor when it has none."""
    return X.top() if X.flat else X.floor


def compose_tables(A: Symbol, B: Symbol, products, req_floor):
    """Reference for psido.compose_flat: per-order tables and floor of a sum of signed products."""
    _check_var(A, B)
    if (A.is_zero() and A.floor is EXACT) or (B.is_zero() and B.floor is EXACT):
        return {}, EXACT
    req_floor = h(req_floor) if req_floor is not None else EXACT
    bound = EXACT
    if A.floor is not EXACT:
        bound = hmax(bound, A.floor + _hi(B))
    if B.floor is not EXACT:
        bound = hmax(bound, B.floor + _hi(A))
    floor = hmax(req_floor, bound)
    low = None if floor is EXACT else floor.twice
    tables: dict = {}
    cut = False
    for left, right, sign in products:
        cut |= nested_leibniz_rows(tables, term_rows(left), term_rows(right), low, sign)
    if bound is EXACT and not cut:
        floor = EXACT
    return tables, floor


def symbol_from_tables(var: str, tables: dict, floor) -> Symbol:
    """Reference for psido.symbol_from_flat: per-order tables as a Symbol, cut at the floor."""
    return Symbol(var, {HalfInt(o): CoeffFn(acc) for o, acc in tables.items() if acc}, floor)


def nested_sym_mul(A: Symbol, B: Symbol, req_floor=None) -> Symbol:
    """Reference for psido.sym_mul through per-order tables."""
    return symbol_from_tables(A.var, *compose_tables(A, B, ((A, B, 1),), req_floor))


def nested_sym_bracket(A: Symbol, B: Symbol, req_floor=None) -> Symbol:
    """Reference for psido.sym_bracket through per-order tables."""
    return symbol_from_tables(A.var, *compose_tables(A, B, ((A, B, 1), (B, A, -1)), req_floor))


def x_slice_rows(c: CoeffFn) -> dict:
    """x-power -> int rows (t, M, a, b, d) of c's coefficient of that power."""
    out: dict = {}
    for (p, q, m), v in c.terms.items():
        out.setdefault(q, []).append((p, m, *v))
    return out


def add_scaled_rows(tables: dict, rows, dt: int, scale) -> None:
    """Reference for ring.scale_into: order-grouped rows, shifted by dt and scaled, into tables."""
    for ot, fs in rows:
        acc = tables.setdefault(ot + dt, {})
        for p1, q1, m1, a1, b1, d1 in fs:
            for p2, m2, a2, b2, d2 in scale:
                k = (p1 + p2, q1, m1 + m2)
                term = _gauss(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)
                total = acc[k] + term if k in acc else term
                if total.is_zero():
                    del acc[k]
                else:
                    acc[k] = total


def map_monomials(D: Symbol, req, var: str, delta_of, image) -> Symbol:
    """Reference for transforms._map_monomials: x-slices scale images into per-order tables."""
    floor = EXACT
    tables: dict = {}
    for k, c in D.terms.items():
        delta = delta_of(k)
        want = req if req is EXACT else req - delta
        for q, scale in x_slice_rows(c).items():
            if abs(q) > tr.MAX_IMAGE_POWER:
                raise ValueError(
                    f"generator powers are bounded by {tr.MAX_IMAGE_POWER} in absolute value")
            img = image(q, want)
            if img.floor is not EXACT:
                floor = hmax(floor, img.floor + delta)
            add_scaled_rows(tables, term_rows(img), delta.twice, scale)
    if floor is not EXACT:
        floor = hmax(floor, req)
    return symbol_from_tables(var, tables, floor)


_POS_BASE = Symbol(R, {h(-1): CoeffFn.x_pow(1, F(1, 2))})
_NEG_BASE = Symbol(R, {h(1): CoeffFn.x_pow(-1, 2), h(0): CoeffFn.x_pow(-2, -2)})


@functools.cache
def nested_image(k: int) -> Symbol:
    """Reference for transforms._theta_images: xi^k's image, one nested product per power."""
    if k == 0:
        return Symbol.function(R, CoeffFn.one())
    if k > 0:
        return nested_sym_mul(nested_image(k - 1), _POS_BASE)
    return nested_sym_mul(nested_image(k + 1), _NEG_BASE)


def nested_conjugated_image(nu: GaussRat, q: int, want) -> Symbol:
    """Reference for transforms._conjugated_image: scaled images summed into per-order tables."""
    if q < 0 and want is EXACT:
        raise ValueError("deformed inverse image is a series; give a floor")
    if q < 0 and want < tr.DEEPEST_IMAGE_FLOOR:
        raise ValueError(
            f"generator images are built down to order {tr.DEEPEST_IMAGE_FLOOR} at most")
    tables: dict = {}
    for j, w in enumerate(tr._conjugation_weights(nu, q)):
        if w.is_zero() or (q < 0 and want > -q - j):
            return symbol_from_tables(R, tables, EXACT if q >= 0 else want)
        add_scaled_rows(tables, term_rows(nested_image(q - j)), -4 * j,
                        x_slice_rows(CoeffFn.const(w))[0])


def nested_theta(D: Symbol, req_floor=None, nu: GaussRat = GaussRat(0)) -> Symbol:
    """Reference for transforms.theta through per-order tables and nested images."""
    if D.var != XI:
        raise ValueError("theta expects a momentum symbol")
    if D.floor is not EXACT:
        raise ValueError("theta needs an exact input; truncated tails are unsound here")
    req = h(req_floor) if req_floor is not None else EXACT
    if nu.is_zero():
        def images(q, want):
            return nested_image(q)
    else:
        def images(q, want):
            return nested_conjugated_image(nu, q, want)
    return map_monomials(D, req, R, lambda kappa: kappa + kappa, images)


_HALF = h("1/2")


@functools.cache
def nested_inv_image(n: int, want) -> Symbol:
    """Reference for transforms._inv_images: r^n's inverse image, built afresh per floor."""
    if n == 0:
        return Symbol.function(XI, CoeffFn.one())
    if n > 0:
        return nested_sym_mul(nested_inv_image(n - 1, EXACT),
                              Symbol.monomial(XI, _HALF, CoeffFn.x_pow(1, 2)))
    if want is EXACT:
        raise ValueError("inverse image of r^-1 is a series; give a floor")
    prev = nested_inv_image(n + 1, want - _HALF if n + 1 < 0 else EXACT)
    base = nested_sym_mul(Symbol.monomial(XI, -_HALF, CoeffFn.const(F(1, 2))),
                          Symbol.function(XI, CoeffFn.x_pow(-1)), want - _HALF)
    return nested_sym_mul(prev, base, want)


def nested_theta_inv(D: Symbol, req_floor=None) -> Symbol:
    """Reference for transforms.theta_inv through per-order tables and nested images."""
    if D.var != R:
        raise ValueError("theta_inv expects a space symbol")
    if D.floor is not EXACT:
        raise ValueError("theta_inv needs an exact input")
    req = h(req_floor) if req_floor is not None else EXACT
    return map_monomials(D, req, XI, lambda k: HalfInt(k.as_int()), nested_inv_image)


def nested_theta_t(E: Symbol, req_floor, nu: GaussRat = GaussRat(0)) -> Symbol:
    """Reference for transforms.theta_t: the loop shift order by order, then nested_theta."""
    req = h(req_floor) if req_floor is not None else EXACT
    depth = tr.default_depth(req)
    floor = req
    cut = False
    for kappa, c in E.terms.items():
        if (c.min_x_degree() or 0) < 0:
            cut = True
            floor = hmax(floor, kappa + kappa - depth)
    total = nested_theta(Symbol(XI, tr.time_shift_symbol(E, depth).terms), req, nu=nu)
    if E.floor is not EXACT:
        floor = hmax(floor, E.floor + E.floor)
    if cut or E.floor is not EXACT:
        total = Symbol(R, total.terms, hmax(total.floor, floor))
    return total


def nested_g_bracket(A, B, c, req_floor):
    """Reference for kacmoody.g_bracket: per-order bracket tables take the transport terms."""
    AW, BW = A.W, B.W
    tables, floor = compose_tables(AW, BW, ((AW, BW, 1), (BW, AW, -1)), h(req_floor))
    floor = hmax(hmax(floor, AW.floor), BW.floor)
    for loop, other in ((A.w, BW), (-B.w, AW)):
        for b, g in other.terms.items():
            if floor is EXACT or b >= floor:
                table = tables.setdefault(b.twice, {})
                for k, v in (loop * g.deriv("T")).terms.items():
                    total = table[k] + gauss(v) if k in table else gauss(v)
                    if total.is_zero():
                        del table[k]
                    else:
                        table[k] = total
    w = A.w * B.w.deriv("T") - A.w.deriv("T") * B.w
    central = eval_cocycle(CocycleId.C3, AW, BW)
    alpha = A.w * B.alpha.deriv("T") - B.w * A.alpha.deriv("T") + central * c
    return kacmoody.GElement(w, symbol_from_tables(R, tables, floor), alpha)


# ---- the Leibniz kernel, the loop shift and theta_t, term by term -----------------------------


def leibniz_by_recurrence(out: dict, at: int, f_items, g_terms, low) -> bool:
    """Reference for ring.leibniz_rows: one order's terms, weights by their recurrence."""
    # f_items are (key, triple) pairs of the left order at/2 and g_terms
    # (2b, key, triple) right terms; out is a flat symbol dict of reduced
    # triples, each sum taken in GaussRat, where a monomial that cancels
    # keeps its place as the zero (0, 0, 1).  The weight binom(a, j) (q)_j is
    # updated in ints from one j to the next, each term's order is checked
    # against the floor before it is added, and terms end at the first zero
    # weight, so this loops for ever on a tail that does not terminate when
    # low is None.
    fs = [(p, q, m, *v) for (p, q, m), v in f_items]
    cut = False
    for bt, (p2, q, m2), v2 in g_terms:
        order = at + bt
        a2, b2, d2 = v2
        j = 0
        while True:
            if low is not None and order < low:
                cut = True
                break
            for p1, q1, m1, a1, b1, d1 in fs:
                k = (order, p1 + p2, q1 + q, m1 + m2)
                term = GaussRat(F(a1 * a2 - b1 * b2, d1 * d2), F(a1 * b2 + b1 * a2, d1 * d2))
                old = out.get(k)
                if old is not None:
                    term = GaussRat(F(old[0], old[2]), F(old[1], old[2])) + term
                out[k] = (term._a, term._b, term._d)
            j += 1
            w = (at - 2 * j + 2) * q
            if not w:
                break
            a2 *= w
            b2 *= w
            d2 *= 2 * j
            g = gcd(a2, b2, d2)
            a2, b2, d2 = a2 // g, b2 // g, d2 // g
            q -= 1
            order -= 2
    return cut


_HALF_I = GaussRat(0, F(1, 2))
_MINUS_2I = GaussRat(0, -2)


def gauss_shift_series(q: int, depth: int) -> CoeffFn:
    """Reference for transforms._shift_series, the expansion of
    (xi + (i/2M) t)^q cut after x-degree depth for q < 0.

    Retired when the series came to be written as int triples: this form
    builds each coefficient (i/2)^(q - m) binom(q, m) as two GaussRat
    products, the scale stepping by 2/i = -2i per step in m.
    """
    series = {}
    scale = _HALF_I ** q
    for m in range((q if q >= 0 else depth) + 1):
        cf = binom_twice(2 * q, m)
        if cf.is_zero():
            break
        series[(q - m, m, m - q)] = scale * cf
        scale = scale * _MINUS_2I
    return CoeffFn(series)


def shift_by_terms(f: CoeffFn, depth: int) -> CoeffFn:
    """Reference for transforms.time_shift: one CoeffFn sum per series term."""
    # xi -> xi + (i/2M) t: the binomial series of each x-power, cut after
    # x-degree depth for a negative one, times that power's coefficient
    out = CoeffFn.zero()
    for q in dict.fromkeys(key[1] for key in f.terms):
        series = CoeffFn.zero()
        for m in range((q if q >= 0 else depth) + 1):
            cf = binom_twice(2 * q, m)
            if cf.is_zero():
                break
            series = series + CoeffFn.mono(q - m, m, I_HALF_OVER_M ** (q - m) * cf)
        out = out + series * f.x_slice(q)
    return out


def theta_t_by_orders(E: Symbol, req: HalfInt, nu: GaussRat) -> Symbol:
    """Reference for transforms.theta_t: one theta call per shifted order, summed."""
    # the same floor rules: a cut series or a floored input raises the floor
    depth = tr.default_depth(req)
    floor, cut = req, False
    total = Symbol.zero(R)
    for kappa, c in E.terms.items():
        if (c.min_x_degree() or 0) < 0:
            cut = True
            floor = hmax(floor, kappa + kappa - depth)
        total = total + tr.theta(Symbol(XI, {kappa: shift_by_terms(c, depth)}), req, nu=nu)
    if E.floor is not EXACT:
        floor = hmax(floor, E.floor + E.floor)
    if cut or E.floor is not EXACT:
        total = Symbol(R, total.terms, hmax(total.floor, floor))
    return total


# ---- the central cocycles as whole products -------------------------------------------------


def reference_slots(D: Symbol):
    """Reference for cocycles._slots: the three slots built from the flat table through Fractions."""
    # read past the terms view and gauss_of, which _slots goes through
    if D.var != R:
        raise ValueError("cocycles are defined on space symbols")
    top = D.top()
    if top is not None and top > h(1):
        raise ValueError("cocycles live on symbols of order <= 1")
    if D.floor is not EXACT and D.floor > h(-1):
        raise ValueError("slot at order -1 is untrusted; deepen the floor")
    slots = {2: {}, 0: {}, -2: {}}
    for (o, p, q, m), (a, b, d) in D.flat.items():
        if o in slots:
            slots[o][(p, q, m)] = gauss((a, b, d))
    return CoeffFn(slots[2]), CoeffFn(slots[0]), CoeffFn(slots[-2])


def _dx(c: CoeffFn, n: int = 1) -> CoeffFn:
    for _ in range(n):
        c = c.deriv("X")
    return c


def reference_cocycle(cid: CocycleId, A: Symbol, B: Symbol) -> CoeffFn:
    """Reference for cocycles.eval_cocycle: derivatives and whole products, then res_x."""
    # the formulas of the cocycles module docstring, term for term
    a1, a0, am = reference_slots(A)
    b1, b0, bm = reference_slots(B)
    expr = {
        CocycleId.C0: lambda: _dx(a1, 3) * b1,
        CocycleId.C1: lambda: _dx(a1, 2) * b0 - _dx(b1, 2) * a0,
        CocycleId.C2: lambda: a1 * bm - b1 * am,
        CocycleId.C3: lambda: _dx(a1) * bm - _dx(b1) * am,
        CocycleId.C4: lambda: _dx(b0) * a0 - _dx(a0) * b0,
        CocycleId.C5: lambda: a0 * bm - b0 * am,
    }[cid]()
    return expr.residue("X")


# ---- the extended bracket and the coadjoint action, slot by slot -----------------------------


def reference_g_bracket(A, B, c, req_floor):
    """Reference for kacmoody.g_bracket: each slot from whole symbols and products."""
    # the symbol bracket, then each transport term as a scaled time
    # derivative added to it (or, against a zero loop, the floor of the
    # term it stands for), then the loop terms and the central term
    floor = h(req_floor)
    w = A.w * B.w.deriv("T") - A.w.deriv("T") * B.w
    W = sym_bracket(A.W, B.W, floor)
    if not A.w.is_zero():
        W = W + sym_scale(time_deriv(B.W), A.w)
    elif B.W.floor is not EXACT:
        W = raise_floor(W, B.W.floor)
    if not B.w.is_zero():
        W = W - sym_scale(time_deriv(A.W), B.w)
    elif A.W.floor is not EXACT:
        W = raise_floor(W, A.W.floor)
    alpha = A.w * B.alpha.deriv("T") - B.w * A.alpha.deriv("T")
    alpha = alpha + eval_cocycle(CocycleId.C3, A.W, B.W) * c
    return kacmoody.GElement(w, W, alpha)


def reference_coadjoint(X, mu, c):
    """Reference for kacmoody.coadjoint: the rows as sums of whole products."""
    v, a = mu.v, mu.a
    vm2 = mu.V.coeff(h(-2))
    v0 = mu.V.coeff(h(0))
    r1, r2 = CoeffFn.x_pow(1), CoeffFn.x_pow(2)
    m2 = M ** 2
    half = CoeffFn.const(F(1, 2))
    out_v = out_vm2 = out_v0 = out_a = CoeffFn.zero()
    f = X.f
    if not f.is_zero():
        fd = f.deriv("T")
        fdd = fd.deriv("T")
        fddd = fdd.deriv("T")
        out_v = out_v - fdd * (r1 * vm2).residue("X") * half - (f * v.deriv("T") + fd * v * 2)
        out_vm2 = (out_vm2 - f * vm2.deriv("T") - fd * (r1 * vm2.deriv("X") + vm2 * 4) * half
                   + a * (fdd * I_M * F(1, 4) - fddd * r2 * m2 * F(1, 4)) * c)
        out_v0 = out_v0 - f * v0.deriv("T") - fd * v0 + a * fd * (c * half)
        out_a = out_a - (a * fd + f * a.deriv("T"))
    g = X.g
    if not g.is_zero():
        gd = g.deriv("T")
        out_v = out_v - gd * vm2.residue("X")
        out_vm2 = out_vm2 - g * vm2.deriv("X") - a * gd.deriv("T") * r1 * (c * m2)
    if not X.h.is_zero():
        out_vm2 = out_vm2 - a * X.h.deriv("T") * (c * m2)
    terms = {}
    if not out_vm2.is_zero():
        terms[h(-2)] = out_vm2
    if not out_v0.is_zero():
        terms[h(0)] = out_v0
    return kacmoody.GDual(out_v, Symbol(R, terms), out_a)


# variant -> (factor of the f'V transport term, whether f' drags a)
_ACTION_VARIANTS = {"tilde": (CoeffFn.const(-2), True), "affine": (CoeffFn.const(-1), False)}


def reference_action(mu, X, P, variant):
    """Reference for svaction._action: every loop factor folded from X and mu on each call, none kept on X."""
    minus_v_transport, a_transport = _ACTION_VARIANTS[variant]
    f, g = X.f, X.g
    fd = f.deriv("T")
    fdd = fd.deriv("T")
    of_v = fd * minus_v_transport
    of_vx = fd * CoeffFn.x_pow(1, F(-1, 2)) - g
    of_a = (fdd * (I_M * (F(1, 2) - 2 * mu))
            + fdd.deriv("T") * (F(-1, 2) * M ** 2 * CoeffFn.x_pow(2))
            - g.deriv("T").deriv("T") * (2 * M ** 2 * CoeffFn.x_pow(1))
            - X.h.deriv("T") * (2 * M ** 2))
    a_row = -f * P.a.deriv("T")
    if a_transport:
        a_row = a_row - fd * P.a
    v_row = -f * P.V.deriv("T") + of_v * P.V + of_vx * P.V.deriv("X") + of_a * P.a
    return SchrodPoint(a_row, v_row)


# ---- the dual pairing, one GaussRat per term -------------------------------------------------


def gauss_family_pair(points, A) -> list:
    """Reference for kacmoody.DualFamily.pair: GaussRat index, per-term products and running sums."""
    # each point's slots filed under (t, x) from the CoeffFns of the terms
    # view; every product, weight and running sum is a GaussRat, and a
    # row becomes its value through the CoeffFn constructor, which drops
    # the zeros; a point is undetermined when W.floor + top(V) > -1
    tops = [mu.V.top() for mu in points]
    v_index: dict = {}
    a_index: dict = {}
    orders: dict = {}

    def file(index, n, terms):
        for (p, q, m), c in terms.items():
            index.setdefault((p, q), []).append((n, m, gauss(c)))

    for n, mu in enumerate(points):
        file(v_index, n, mu.v.terms)
        file(a_index, n, mu.a.terms)
        for k, f in mu.V.terms.items():
            file(orders.setdefault(k.twice, {}), n, f.terms)
    sums: dict = {}

    def collect(n, m, c):
        row = sums.setdefault(n, {})
        row[m] = row[m] + c if m in row else c

    for index, g in ((v_index, A.w), (a_index, A.alpha)):
        for (p, q, e), d in g.terms.items():
            for n, m, c in index.get((-1 - p, -q), ()):
                collect(n, m + e, c * gauss(d))
    for b, g in A.W.terms.items():
        bt = b.twice
        for (p, q, e), d in g.terms.items():
            for at, index in orders.items():
                j = (at + bt) // 2 + 1
                if j < 0:
                    continue
                hits = index.get((-1 - p, j - 1 - q))
                if hits is None:
                    continue
                coef = binom_twice(at, j)
                ff = prod(range(q - j + 1, q + 1))
                if coef.is_zero() or not ff:
                    continue
                d_ff = gauss(d) * (coef * ff)
                for n, m, c in hits:
                    collect(n, m + e, c * d_ff)
    out = [CoeffFn.zero()] * len(points)
    for n, row in sums.items():
        out[n] = CoeffFn({(0, 0, m): c for m, c in row.items()})
    floor = A.W.floor
    for n, top in enumerate(tops):
        if floor is not EXACT and top is not None and floor + top > h(-1):
            out[n] = None
    return out


# ---- the Poisson layer, dispatched over class parts ----------------------------------------


def _part(F, cls):
    keep = {"pair": (FIELD_VM2, FIELD_V0), "v": (FIELD_V,), "a": (FIELD_A,)}[cls]
    return LocalFunctional([(js, c) for js, c in F.terms.items()
                            if all(J.field in keep for J in js) and (js or cls == "pair")])


def _pair_data(F, mu):
    return (substitute(variational_derivative(F, FIELD_VM2), mu),
            substitute(variational_derivative(F, FIELD_V0), mu))


def t_residue(c: CoeffFn) -> CoeffFn:
    """res_t of c, as a value free of t and x."""
    return c.residue("T").x_slice(0)


def double_residue(c: CoeffFn) -> CoeffFn:
    """res_t res_x of c."""
    return t_residue(c.residue("X"))


def dispatched_poisson_bracket(F, G, mu, c):
    """Reference for poisson.poisson_bracket: dispatched over the class parts of F, G."""
    vm2 = mu.V.coeff(h(-2))
    v0 = mu.V.coeff(h(0))
    total = CoeffFn.zero()
    Fp, Fv, Fa = _part(F, "pair"), _part(F, "v"), _part(F, "a")
    Gp, Gv, Ga = _part(G, "pair"), _part(G, "v"), _part(G, "a")
    if not Fp.is_zero() and not Gp.is_zero():
        Pf, Qf = _pair_data(Fp, mu)
        Pg, Qg = _pair_data(Gp, mu)
        integrand = (vm2 * (Pg.deriv("X") * Pf - Pf.deriv("X") * Pg)
                     + v0 * (Qg * Pf - Pg * Qf).deriv("X")
                     + mu.a * (Qf.deriv("X") * Pg + Pf.deriv("X") * Qg) * c)
        total = total + double_residue(integrand)
    if not Fv.is_zero() and not Gv.is_zero():
        pf = substitute(variational_derivative(Fv, FIELD_V), mu)
        pg = substitute(variational_derivative(Gv, FIELD_V), mu)
        total = total + t_residue(mu.v * (pf * pg.deriv("T") - pg * pf.deriv("T")))
    for A, B, sign in ((Fv, Gp, 1), (Gv, Fp, -1)):
        if A.is_zero() or B.is_zero():
            continue
        phi = substitute(variational_derivative(A, FIELD_V), mu)
        Pb, Qb = _pair_data(B, mu)
        piece = double_residue(phi * (vm2 * Pb.deriv("T") + v0 * Qb.deriv("T")))
        total = total + (piece if sign > 0 else -piece)
    for A, B, sign in ((Fv, Ga, 1), (Gv, Fa, -1)):
        if A.is_zero() or B.is_zero():
            continue
        phi = substitute(variational_derivative(A, FIELD_V), mu)
        psi = substitute(variational_derivative(B, FIELD_A), mu)
        piece = t_residue(mu.a * phi * psi.deriv("T"))
        total = total + (piece if sign > 0 else -piece)
    return total


def dispatched_hamiltonian_vector(F, mu, c):
    """Reference for poisson.hamiltonian_vector: dispatched over the class parts of F."""
    vm2 = mu.V.coeff(h(-2))
    v0 = mu.V.coeff(h(0))
    out_v, out_vm2, out_v0, out_a = (CoeffFn.zero() for _ in range(4))
    Fp, Fv, Fa = _part(F, "pair"), _part(F, "v"), _part(F, "a")
    if not Fp.is_zero():
        P, Q = _pair_data(Fp, mu)
        out_v = out_v + (vm2 * P.deriv("T") + v0 * Q.deriv("T")).residue("X")
        out_vm2 = out_vm2 + (vm2 * P.deriv("X") * 2 + vm2.deriv("X") * P
                             - mu.a * Q.deriv("X") * c - v0.deriv("X") * Q)
        out_v0 = out_v0 + (v0.deriv("X") * P - mu.a * P.deriv("X") * c)
    if not Fv.is_zero():
        phi = substitute(variational_derivative(Fv, FIELD_V), mu)
        out_v = out_v + mu.v * phi.deriv("T") * 2 + mu.v.deriv("T") * phi
        out_vm2 = out_vm2 + (vm2 * phi).deriv("T")
        out_v0 = out_v0 + (v0 * phi).deriv("T")
        out_a = out_a + (mu.a * phi).deriv("T")
    if not Fa.is_zero():
        psi = substitute(variational_derivative(Fa, FIELD_A), mu)
        out_v = out_v + mu.a * psi.deriv("T")
    terms = {}
    if not out_vm2.is_zero():
        terms[h(-2)] = out_vm2
    if not out_v0.is_zero():
        terms[h(0)] = out_v0
    return kacmoody.GDual(v=out_v, V=Symbol(R, terms), a=out_a)


# ---- the Poisson layer as whole products -----------------------------------------------------


def _whole_derivatives(F, mu):
    return [substitute(variational_derivative(F, fld), mu)
            for fld in (FIELD_VM2, FIELD_V0, FIELD_V, FIELD_A)]


def reference_poisson_bracket(F, G, mu, c):
    """Reference for poisson.poisson_bracket: whole products, then the double and the time residue of the sums."""
    vm2 = mu.V.coeff(h(-2))
    v0 = mu.V.coeff(h(0))
    Pf, Qf, phif, psif = _whole_derivatives(F, mu)
    Pg, Qg, phig, psig = _whole_derivatives(G, mu)
    pair = (vm2 * (Pg.deriv("X") * Pf - Pf.deriv("X") * Pg)
            + v0 * (Qg * Pf - Pg * Qf).deriv("X")
            + mu.a * (Qf.deriv("X") * Pg + Pf.deriv("X") * Qg) * c
            + phif * (vm2 * Pg.deriv("T") + v0 * Qg.deriv("T"))
            - phig * (vm2 * Pf.deriv("T") + v0 * Qf.deriv("T")))
    loop = (mu.v * (phif * phig.deriv("T") - phig * phif.deriv("T"))
            + mu.a * (phif * psig.deriv("T") - phig * psif.deriv("T")))
    return double_residue(pair) + t_residue(loop)


def reference_hamiltonian_vector(F, mu, c):
    """Reference for poisson.hamiltonian_vector: the field's rows as sums of whole products."""
    vm2 = mu.V.coeff(h(-2))
    v0 = mu.V.coeff(h(0))
    P, Q, phi, psi = _whole_derivatives(F, mu)
    out_v = ((vm2 * P.deriv("T") + v0 * Q.deriv("T")).residue("X")
             + mu.v * phi.deriv("T") * 2 + mu.v.deriv("T") * phi
             + mu.a * psi.deriv("T"))
    out_vm2 = (vm2 * P.deriv("X") * 2 + vm2.deriv("X") * P
               - mu.a * Q.deriv("X") * c - v0.deriv("X") * Q
               + (vm2 * phi).deriv("T"))
    out_v0 = v0.deriv("X") * P - mu.a * P.deriv("X") * c + (v0 * phi).deriv("T")
    out_a = (mu.a * phi).deriv("T")
    return kacmoody.GDual(v=out_v, V=Symbol(R, {h(-2): out_vm2, h(0): out_v0}), a=out_a)


# ---- test-only helpers ----------------------------------------------------------------------


def leibniz_into(out: dict, f_terms, g_terms, low) -> bool:
    """leibniz_rows on term items: (2a, items) per left order, (2b, key, triple) per right term.

    The triples go in as the values of a flat symbol dict, and out is such
    a dict, filled unreduced until ring.reduce_flat runs.
    """
    f = {(at, *key): v for at, items in f_terms for key, v in items}
    g = {(bt, *key): v for bt, key, v in g_terms}
    return leibniz_rows(out, f, g, low)


# the dual point (v, V_-2 d^-2 + V_0, a) from its slot values
npoint = kacmoody.GDual.of_slots


def raise_floor(D: Symbol, new_floor) -> Symbol:
    """Forget everything below new_floor."""
    return Symbol(D.var, D.terms, hmax(D.floor, h(new_floor)))


def time_deriv(D: Symbol) -> Symbol:
    """d/dt applied to every coefficient; floor unchanged."""
    return Symbol(D.var, {k: c.deriv("T") for k, c in D.terms.items()}, D.floor)


def sym_scale(A: Symbol, c) -> Symbol:
    """Multiply every coefficient by a constant or a central (x-free) CoeffFn."""
    if not isinstance(c, CoeffFn):
        c = CoeffFn.const(c)
    elif not c.is_t_only():
        raise ValueError("sym_scale multiplier must not depend on x")
    return Symbol(A.var, {k: v * c for k, v in A.terms.items()}, A.floor)


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
