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

Printing reads a GaussRat's reduced int triple (a + i*b)/d: a part whose
partner is zero is already in lowest terms, and each part of a complex
value costs one gcd, so no Fraction is built.  A coefficient is sorted
once and grouped by (t, x) monomial; ``symbol_str`` takes the number of
groups, which decides its parentheses, from the same pass.

The parser accepts sums/differences/products/powers over the atoms
``i  M  t  xi  r  d_xi  d_r`` and rational literals, plus the function
calls used by the calculator: ``theta  theta_inv  tshift  bracket  mul
trace  dpart``.  Each expression must stay inside a single symbol algebra
(mixing ``r`` and ``xi`` atoms is an error).  Whitespace may surround
any token.  The lexer makes two regex passes in C: one match finds the
longest prefix made of tokens, and an error names the text after it; one
``findall`` then splits the expression into token strings.  The parser
compares those strings with operators directly.  A literal ``p`` becomes
a GaussRat from its int, ``p/q`` one reduced by a single gcd, and an
exponent is read as twice its value, an int.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, log10

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
from .ring import CoeffFn, GaussRat, M, _gauss

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
    a, b, d = g._a, g._b, g._d
    try:
        # a triple with one zero part is reduced part by part already
        if not b:
            return _ratio_str(a, d)
        if not a:
            if d == 1 and (b == 1 or b == -1):
                return "i" if b == 1 else "-i"
            return f"{_ratio_str(b, d)}*i"
        gre = gcd(a, d)
        gim = gcd(b, d)
        mag, den = abs(b) // gim, d // gim
        imtxt = "i" if mag == 1 and den == 1 else f"{_ratio_str(mag, den)}*i"
        return f"({_ratio_str(a // gre, d // gre)} {'+' if b > 0 else '-'} {imtxt})"
    except ValueError:  # only int-to-str raises, past its digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError("a coefficient of the result would print with more than "
                         f"{limit} digits") from None


def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms, as Fraction prints it."""
    return str(n) if d == 1 else f"{n}/{d}"


def _mass_str(terms: list) -> str:
    """A sum of g*M^k, given as (k, g) pairs in ascending k."""
    parts = []
    for k, g in terms:
        if k == 0:
            parts.append(gauss_str(g))
            continue
        mp = "M" if k == 1 else f"M^{k}"
        if g.is_one():
            parts.append(mp)
        elif g == _MINUS_ONE:
            parts.append(f"-{mp}")
        else:
            parts.append(f"{gauss_str(g)}*{mp}")
    return " + ".join(parts).replace("+ -", "- ")


def scalar_str(s: CoeffFn) -> str:
    """A value free of t and x, as a sum of M-powers."""
    if any(p or q for p, q, _ in s.terms):
        raise ValueError(f"not a scalar: {s!r}")
    if s.is_zero():
        return "0"
    return _mass_str([(k[2], g) for k, g in sorted(s.terms.items())])


def coeff_str(c: CoeffFn, xname: str = "x") -> str:
    return _coeff_text(c, xname)[0]


def _coeff_text(c: CoeffFn, xname: str) -> tuple:
    """coeff_str's text and its number of (t-power, x-power) monomials."""
    if c.is_zero():
        return "0", 0
    groups: dict = {}  # (t-power, x-power) -> its (M-power, coefficient) pairs
    for (p, q, m), g in sorted(c.terms.items()):
        groups.setdefault((p, q), []).append((m, g))
    parts = []
    for (p, q), terms in groups.items():
        if p:
            body = "t" if p == 1 else f"t^{p}"
            if q:
                body += f"*{xname}" if q == 1 else f"*{xname}^{q}"
        elif q:
            body = xname if q == 1 else f"{xname}^{q}"
        else:
            body = ""
        if body and len(terms) == 1 and terms[0][0] == 0:
            g = terms[0][1]
            if g.is_one():
                parts.append(body)
                continue
            if g == _MINUS_ONE:
                parts.append(f"-{body}")
                continue
        stxt = _mass_str(terms)
        if len(terms) > 1:
            stxt = f"({stxt})"
        parts.append(f"{stxt}*{body}" if body else stxt)
    return " + ".join(parts).replace("+ -", "- "), len(parts)


def symbol_str(D) -> str:
    xname = "xi" if D.var == XI else "r"
    dname = "d_xi" if D.var == XI else "d_r"
    if D.is_zero():
        body = "0"
    else:
        parts = []
        for k, c in sorted(D.terms.items(), key=lambda kc: -kc[0].twice):
            ctxt, monomials = _coeff_text(c, xname)
            if k.twice == 0:
                parts.append(ctxt)
                continue
            dp = dname if k.twice == 2 else f"{dname}^{k}"
            if ctxt == "1":
                parts.append(dp)
            elif ctxt == "-1":
                parts.append(f"-{dp}")
            elif monomials > 1:
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

_TOKEN = r"\d+(?:/\d+)?|[A-Za-z_][A-Za-z_0-9]*|[-+*^(),]"
_TOKENS = re.compile(_TOKEN)
# group 1 ends where the longest run of whitespace-led tokens ends
_LEXABLE = re.compile(rf"((?:\s*(?:{_TOKEN}))*)\s*")


def _tokenize(src: str) -> list:
    """The token strings of src, then "" for the end of input."""
    m = _LEXABLE.match(src)
    if m.end() != len(src):
        raise ValueError(f"bad character in expression at: {src[m.end(1):]!r}")
    tokens = _TOKENS.findall(src)  # src is all tokens and whitespace now
    tokens.append("")
    return tokens


def _ratio(tok: str) -> tuple:
    """A number token 'p' or 'p/q' as ints (p, q), q > 0."""
    p, _, q = tok.partition("/")
    p = int(p)
    if not q:
        return p, 1
    q = int(q)
    if not q:
        raise ZeroDivisionError(f"zero denominator in the literal {tok!r}")
    return p, q


class _Parser:
    """Recursive descent over: expr := term (+|- term)*; term := signed factor
    ('*' signed factor)*; factor := atom ['^' signed-rational].

    Tokens are strings, so the parser tests one by comparing it with an
    operator: no number or name equals one.  A value is a CoeffFn until an
    r or xi atom gives it an algebra; from then on it is a psido.Symbol.
    Products whose Leibniz tail does not terminate, and the functions that
    need a window, are cut at floor.
    """

    def __init__(self, tokens, floor):
        self.toks = tokens
        self.i = 0
        self.floor = floor

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, op):
        tok = self.take()
        if tok != op:
            raise ValueError(f"expected {op!r}, got {tok!r}")

    def parse(self):
        v = self.expr()
        if self.toks[self.i]:
            raise ValueError(f"trailing input at {self.toks[self.i]!r}")
        return v

    def expr(self):
        v = self.term()
        while (op := self.toks[self.i]) == "+" or op == "-":
            self.i += 1
            w = self.term()
            v = _add(v, w if op == "+" else _neg(w))
        return v

    def term(self):
        v = self.signed_factor()
        while self.toks[self.i] == "*":
            self.i += 1
            v = self.mul(v, self.signed_factor())
        return v

    def signs(self) -> bool:
        """Skip a run of unary signs; True when it negates."""
        toks, i, neg = self.toks, self.i, False
        while (tok := toks[i]) == "-" or tok == "+":
            neg ^= tok == "-"
            i += 1
        self.i = i
        return neg

    def signed_factor(self):
        neg = self.signs()
        v = self.factor()
        return _neg(v) if neg else v

    def factor(self):
        v = self.atom()
        if self.toks[self.i] == "^":
            self.i += 1
            neg = self.signs()
            tok = self.take()
            if not tok[:1].isdecimal():
                raise ValueError("exponent must be a rational literal")
            p, q = _ratio(tok)
            twice, rest = divmod(2 * p, q)
            if rest:
                raise ValueError("exponents must lie in (1/2)Z")
            v = self.power(v, -twice if neg else twice)
        return v

    def atom(self):
        tok = self.take()
        head = tok[:1]
        if head.isdecimal():
            p, q = _ratio(tok)
            return CoeffFn.const(GaussRat(p) if q == 1 else _gauss(p, 0, q))
        if tok == "(":
            v = self.expr()
            self.expect(")")
            return v
        if head.isalpha() or head == "_":
            if self.toks[self.i] == "(":
                self.i += 1
                args = [self.expr()]
                while self.toks[self.i] == ",":
                    self.i += 1
                    args.append(self.expr())
                self.expect(")")
                fn = _FUNCTIONS.get(tok)
                if fn is None:
                    raise ValueError(f"unknown function {tok!r}")
                return fn(self, *args)
            atom = _ATOMS.get(tok)
            if atom is None:
                raise ValueError(f"unknown name {tok!r}")
            return atom
        raise ValueError(f"unexpected token {tok!r}")

    def mul(self, a, b):
        a, b = _same_algebra(a, b)
        if isinstance(a, CoeffFn):
            return a * b
        try:
            return sym_mul(a, b)
        except ValueError:
            return sym_mul(a, b, self.floor)

    def power(self, v, twice: int):
        """v to the power twice/2."""
        k, half = divmod(twice, 2)
        if isinstance(v, CoeffFn):
            if v == CoeffFn.one():
                return v
            if len(v.terms) == 1 and not half:
                _check_power_digits(v, k)
                return v ** k
        elif len(v.terms) == 1:
            ((order, c),) = v.terms.items()
            if c == CoeffFn.one():
                # pure derivative power: d^a ^ (twice/2) = d^(a*twice/2),
                # which must stay in (1/2)Z
                newtw = order.twice * twice
                if newtw % 2:
                    raise ValueError("resulting order is not a half-integer")
                return Symbol.monomial(v.var, HalfInt(newtw // 2), CoeffFn.one())
            if order.twice == 0 and len(c.terms) == 1 and not half:
                # monomial function base with an integer exponent
                _check_power_digits(c, k)
                return Symbol.function(v.var, c ** k)
        if not half and k >= 0:
            # k successive products, each larger than the last
            if k > transforms.MAX_IMAGE_POWER:
                raise ValueError(
                    f"powers of a base that is not a single generator are bounded by "
                    f"{transforms.MAX_IMAGE_POWER}"
                )
            out = CoeffFn.one()
            for _ in range(k):
                out = self.mul(out, v)
            return out
        if half:
            raise ValueError("only a pure derivative takes a half-integer exponent")
        raise ValueError("only a monomial function or a pure derivative takes a negative exponent")

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
    (g,) = c.terms.values()
    if g._d == 1 and g._a * g._a + g._b * g._b == 1:
        return  # every power of 1, -1, i or -i is one of them
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
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
