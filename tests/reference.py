"""Retired implementations, kept as independent references for the fast paths.

Each function here is the straightforward form that a faster one in the
package replaced.  Tests compare the two on random inputs, so the fast path
must keep every result, and every error, of the form it replaced.
"""

import functools
import re
import sys
from fractions import Fraction as F

from svpsido.halfint import EXACT, HalfInt
from svpsido.psido import R, Symbol, sym_add, sym_mul, sym_scale
from svpsido.ring import CoeffFn, GaussRat


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
