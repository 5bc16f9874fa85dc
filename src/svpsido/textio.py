"""Canonical text forms and the calculator expression grammar.

Printing rules, fixed so that reports are reproducible byte-for-byte:

* Gaussian rationals: ``3/2``, ``i``, ``-1/2*i``, ``(3/2 + 1/2*i)``.
* Values free of t and x (``scalar_str``): M-powers ascending, e.g.
  ``2 + M^2``.
* Coefficient functions: terms sorted by (t-power, x-power), each term
  ``<scalar>*t^p*<x>^q`` with power-one exponents and unit coefficients
  elided, e.g. ``1/2*r``, ``-t^2*x^-1``.  The M-terms that share a
  (t, x) monomial form its scalar, parenthesized when there are several:
  ``(2 + M^2)*t``.
* Symbols: orders descending, derivative factor ``d_r`` / ``d_xi`` with
  integer or half-integer exponent (``d_xi^1/2``), then the trust marker
  `` | exact`` or `` | floor=-7/2``.

The parser accepts sums/differences/products/powers over the atoms
``i  M  t  xi  r  d_xi  d_r`` and rational literals, plus the function
calls used by the calculator: ``theta  theta_inv  tshift  bracket  mul
trace  dpart``.  Each expression must stay inside a single symbol algebra
(mixing ``r`` and ``xi`` atoms is an error).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import log10

from . import transforms
from .halfint import EXACT, HalfInt, h
from .psido import (
    R,
    XI,
    Symbol,
    adler_trace,
    differential_part,
    sym_add,
    sym_bracket,
    sym_mul,
    sym_neg,
)
from .ring import GR_ONE, CoeffFn, GaussRat, M

_MINUS_ONE = GaussRat(-1)

__all__ = [
    "gauss_str",
    "scalar_str",
    "coeff_str",
    "symbol_str",
    "parse_floor",
    "parse_rational",
    "eval_expr",
]


# ---------------------------------------------------------------- printing


def gauss_str(g: GaussRat) -> str:
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


def _mass_str(terms: list) -> str:
    """A sum of g*M^k, given as (k, g) pairs in ascending k."""
    parts = []
    for k, g in terms:
        gtxt = gauss_str(g)
        if k == 0:
            parts.append(gtxt)
        else:
            mp = "M" if k == 1 else f"M^{k}"
            if g.is_one():
                parts.append(mp)
            elif g == _MINUS_ONE:
                parts.append(f"-{mp}")
            else:
                parts.append(f"{gtxt}*{mp}")
    return " + ".join(parts).replace("+ -", "- ")


def scalar_str(s: CoeffFn) -> str:
    """A value free of t and x, as a sum of M-powers."""
    if any(p or q for p, q, _ in s.terms):
        raise ValueError(f"not a scalar: {s!r}")
    if s.is_zero():
        return "0"
    return _mass_str([(k[2], s.terms[k]) for k in sorted(s.terms)])


def coeff_str(c: CoeffFn, xname: str = "x") -> str:
    if c.is_zero():
        return "0"
    groups: dict = {}  # (t-power, x-power) -> its (M-power, coefficient) pairs
    for p, q, m in sorted(c.terms):
        groups.setdefault((p, q), []).append((m, c.terms[(p, q, m)]))
    parts = []
    for (p, q), terms in groups.items():
        stxt = _mass_str(terms)
        if len(terms) > 1:
            stxt = f"({stxt})"
        factors = []
        if p:
            factors.append("t" if p == 1 else f"t^{p}")
        if q:
            factors.append(xname if q == 1 else f"{xname}^{q}")
        if not factors:
            parts.append(stxt)
            continue
        body = "*".join(factors)
        if terms == [(0, GR_ONE)]:
            parts.append(body)
        elif terms == [(0, _MINUS_ONE)]:
            parts.append(f"-{body}")
        else:
            parts.append(f"{stxt}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


def symbol_str(D) -> str:
    xname = "xi" if D.var == XI else "r"
    dname = "d_xi" if D.var == XI else "d_r"
    if D.is_zero():
        body = "0"
    else:
        parts = []
        for k in sorted(D.terms, key=lambda o: -o.twice):
            c = D.terms[k]
            ctxt = coeff_str(c, xname)
            if k.twice == 0:
                parts.append(ctxt)
                continue
            dp = dname if k.twice == 2 else f"{dname}^{k}"
            if ctxt == "1":
                parts.append(dp)
            elif ctxt == "-1":
                parts.append(f"-{dp}")
            elif len({(p, q) for p, q, _ in c.terms}) > 1:
                parts.append(f"({ctxt})*{dp}")
            else:
                parts.append(f"{ctxt}*{dp}")
        body = " + ".join(parts).replace("+ -", "- ")
    marker = "exact" if D.floor is EXACT else f"floor={D.floor}"
    return f"{body} | {marker}"


# ---------------------------------------------------------------- small parsers


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def parse_floor(text: str):
    """A CLI floor: a half-integer like '-7/2', or 'exact'."""
    s = text.strip().lower()
    if s == "exact":
        return EXACT
    return h(text.strip())


# ---------------------------------------------------------------- expression parser

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^(),]))"
)


def _tokenize(src: str):
    pos, out = 0, []
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == pos:
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


class _Parser:
    """Recursive descent over: expr := term (+|- term)*; term := signed factor
    ('*' signed factor)*; factor := atom ['^' signed-rational].

    A value is a CoeffFn until an r or xi atom gives it an algebra; from
    then on it is a psido.Symbol.  Products whose Leibniz tail does not
    terminate, and the functions that need a window, are cut at floor.
    """

    def __init__(self, tokens, floor):
        self.toks = tokens
        self.i = 0
        self.floor = floor

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ValueError(f"expected {op!r}, got {val!r}")

    def parse(self):
        v = self.expr()
        if self.peek()[0] != "end":
            raise ValueError(f"trailing input at {self.peek()[1]!r}")
        return v

    def expr(self):
        v = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            w = self.term()
            v = _add(v, w if op == "+" else _neg(w))
        return v

    def term(self):
        v = self.signed_factor()
        while self.peek() == ("op", "*"):
            self.take()
            v = self.mul(v, self.signed_factor())
        return v

    def signed_factor(self):
        neg = False
        while self.peek() in (("op", "-"), ("op", "+")):
            if self.take()[1] == "-":
                neg = not neg
        v = self.factor()
        return _neg(v) if neg else v

    def factor(self):
        v = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            sign = 1
            while self.peek() in (("op", "-"), ("op", "+")):
                if self.take()[1] == "-":
                    sign = -sign
            kind, val = self.take()
            if kind != "num":
                raise ValueError("exponent must be a rational literal")
            v = self.power(v, Fraction(val) * sign)
        return v

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return CoeffFn.const(Fraction(val))
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect(")")
            return v
        if kind == "name":
            if self.peek() == ("op", "("):
                self.take()
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.take()
                    args.append(self.expr())
                self.expect(")")
                fn = _FUNCTIONS.get(val)
                if fn is None:
                    raise ValueError(f"unknown function {val!r}")
                return fn(self, *args)
            atom = _ATOMS.get(val)
            if atom is None:
                raise ValueError(f"unknown name {val!r}")
            return atom
        raise ValueError(f"unexpected token {val!r}")

    def mul(self, a, b):
        a, b = _same_algebra(a, b)
        if isinstance(a, CoeffFn):
            return a * b
        try:
            return sym_mul(a, b)
        except ValueError:
            return sym_mul(a, b, self.floor)

    def power(self, v, q: Fraction):
        if q.denominator not in (1, 2):
            raise ValueError("exponents must lie in (1/2)Z")
        if isinstance(v, CoeffFn):
            if v == CoeffFn.one():
                return v
            if len(v.terms) == 1 and q.denominator == 1:
                _check_power_digits(v, q.numerator)
                return v ** q.numerator
        elif len(v.terms) == 1:
            ((k, c),) = v.terms.items()
            if c == CoeffFn.one():
                # pure derivative power: d^k ^ q = d^(k*q), must stay in (1/2)Z
                newtw = k.twice * q.numerator
                if q.denominator == 2:
                    if newtw % 2:
                        raise ValueError("resulting order is not a half-integer")
                    newtw //= 2
                return Symbol.monomial(v.var, HalfInt(newtw), CoeffFn.one())
            if k.twice == 0 and len(c.terms) == 1 and q.denominator == 1:
                # monomial function base with an integer exponent
                _check_power_digits(c, q.numerator)
                return Symbol.function(v.var, c ** q.numerator)
        if q.denominator == 1 and q >= 0:
            # |k| successive products, each larger than the last
            if q > transforms.MAX_IMAGE_POWER:
                raise ValueError(
                    f"powers of a base that is not a single generator are bounded by "
                    f"{transforms.MAX_IMAGE_POWER}"
                )
            out = CoeffFn.one()
            for _ in range(q.numerator):
                out = self.mul(out, v)
            return out
        raise ValueError("this exponent needs a single-generator base")

    # ---- calculator functions; a CoeffFn argument is a multiplication
    # operator, whose bracket and trace vanish

    def fn_theta(self, a):
        return transforms.theta(_as_symbol(a, XI))

    def fn_theta_inv(self, a):
        return transforms.theta_inv(_as_symbol(a, R), self.floor)

    def fn_tshift(self, a):
        sym = _as_symbol(a, XI)
        # xi^-k shifts into an infinite ascending series; the x-degree at
        # which it would be cut is not a symbol order, so no floor could
        # say what the cut lost
        if any((c.min_x_degree() or 0) < 0 for c in sym.terms.values()):
            raise ValueError("tshift needs nonnegative momentum powers: "
                             "an inverse power shifts into an infinite series")
        return transforms.time_shift_symbol(sym, 0)  # the depth cuts nothing here

    def fn_bracket(self, a, b):
        a, b = _same_algebra(a, b)
        if isinstance(a, CoeffFn):
            return CoeffFn.zero()
        return sym_bracket(a, b, self.floor)

    def fn_mul(self, a, b):
        a, b = _same_algebra(a, b)
        if isinstance(a, CoeffFn):
            return a * b
        return sym_mul(a, b, self.floor)

    def fn_trace(self, a):
        if isinstance(a, CoeffFn):
            return CoeffFn.zero()
        return Symbol.function(a.var, adler_trace(a))

    def fn_dpart(self, a):
        return a if isinstance(a, CoeffFn) else differential_part(a)


def _check_power_digits(c: CoeffFn, k: int) -> None:
    """Refuse the k-th power of a monomial whose coefficient would print an
    integer longer than the int-to-str digit limit.

    The test takes a lower bound on log10 of the longest printed integer,
    so no printable power is refused.  With g = (a + i*b)/d reduced, |g^k|
    bounds a numerator from below when it is at least 1, and a denominator
    when it is below 1.  Reducing (a + i*b)^k / d^k cancels at most 2^(k/2)
    from d^k, and the two printed denominators multiply to at least the rest.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    (g,) = c.terms.values()
    if k < 0:
        g, k = g.inv(), -k
    a, b, d, half_log2 = g._a, g._b, g._d, log10(2) / 2
    size = k * abs(log10(a * a + b * b) / 2 - log10(d)) - half_log2
    den = k * (log10(d) - (half_log2 if d % 2 == 0 else 0)) / (2 if b else 1)
    if limit and max(size, den) * (1 - 1e-9) >= limit:  # the factor absorbs rounding
        raise ValueError(f"the coefficient of this power would print with more than {limit} digits")


_FUNCTIONS = {
    "theta": _Parser.fn_theta,
    "theta_inv": _Parser.fn_theta_inv,
    "tshift": _Parser.fn_tshift,
    "bracket": _Parser.fn_bracket,
    "mul": _Parser.fn_mul,
    "trace": _Parser.fn_trace,
    "dpart": _Parser.fn_dpart,
}

_ATOMS = {
    "i": CoeffFn.const(GaussRat(0, 1)),
    "M": M,
    "t": CoeffFn.t_pow(1),
    "xi": Symbol.function(XI, CoeffFn.x_pow(1)),
    "r": Symbol.function(R, CoeffFn.x_pow(1)),
    "d_xi": Symbol.monomial(XI, h(1), CoeffFn.one()),
    "d_r": Symbol.monomial(R, h(1), CoeffFn.one()),
}


def _as_symbol(v, var: str) -> Symbol:
    """v itself if it is a symbol, else the multiplication operator v in var."""
    return v if isinstance(v, Symbol) else Symbol.function(var, v)


def _same_algebra(a, b):
    """a and b as two CoeffFns, or as two symbols of one algebra."""
    if isinstance(a, CoeffFn) and isinstance(b, CoeffFn):
        return a, b
    var = a.var if isinstance(a, Symbol) else b.var
    if isinstance(b, Symbol) and b.var != var:
        raise ValueError("expression mixes the r and xi algebras")
    return _as_symbol(a, var), _as_symbol(b, var)


def _add(a, b):
    a, b = _same_algebra(a, b)
    return a + b if isinstance(a, CoeffFn) else sym_add(a, b)


def _neg(v):
    return -v if isinstance(v, CoeffFn) else sym_neg(v)


def eval_expr(src: str, floor=None) -> Symbol:
    """Evaluate a calculator expression; returns a psido.Symbol."""
    value = _Parser(_tokenize(src), h(-4) if floor is None else floor).parse()
    return _as_symbol(value, R)
