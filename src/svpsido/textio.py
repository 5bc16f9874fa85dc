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

Printing reads the reduced int triple (a + i*b)/d that a CoeffFn holds
for each coefficient, and a GaussRat's own triple: a part whose partner
is zero is already in lowest terms, and each part of a complex value
costs one gcd, so no Fraction is built.  ``coeff_str`` sorts a
coefficient's terms once; ``symbol_str`` sorts the symbol's flat dict
once, which puts each order's terms together, in the order coeff_str
prints them, and walks the orders from the highest down.  One helper
groups either run of terms by (t, x) monomial and formats it, and gives
symbol_str the number of groups, which decides its parentheses.  No
per-order CoeffFn is built and nothing is kept in the symbol's memo.

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
exponent is read as twice its value, an int.  A name, or the literal
``1``, is one table lookup unless a ``(`` after it makes it a call.

Every atom and nonzero literal is one monomial c*t^p*x^q*M^m*d^k, and the
parser keeps such a value as a tuple of its algebra tag, 2k, p, q, m and
the GaussRat c until an operation needs a CoeffFn or a Symbol, where c
becomes its triple.  In the normal-ordered products the calculator reads,
most factors multiply as monomials: when the left factor has order 0 or
the right one is free of x, every Leibniz term past the first vanishes,
so the product is one monomial again and costs one Gaussian product.
Powers of a monomial are taken on the tuple too.  A unit coefficient
costs no arithmetic: the literal 1 and every atom but i hold the one
GR_ONE, a product with a GR_ONE factor takes the other factor's
coefficient, and a power of GR_ONE is GR_ONE, with no digit check.  Sums,
function calls and every other product build their operands and compose
them as symbols.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, log10

from . import transforms
from .halfint import EXACT, h, order_str
from .psido import (
    R,
    XI,
    Symbol,
    adler_trace,
    differential_part,
    sym_bracket,
    sym_mul,
)
from .ring import GR_I, GR_ONE, CoeffFn, GaussRat, _gauss, coeff_from_table, gauss_of, triple_of

_ONE = (1, 0, 1)
_MINUS_ONE = (-1, 0, 1)

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
    return _value_str(triple_of(g))


def _value_str(v: tuple) -> str:
    """The text of a reduced triple (a, b, d), the value (a + i*b)/d."""
    a, b, d = v
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
    """A sum of g*M^k, given as (k, triple of g) pairs in ascending k."""
    parts = []
    for k, g in terms:
        if k == 0:
            parts.append(_value_str(g))
            continue
        mp = "M" if k == 1 else f"M^{k}"
        if g == _ONE:
            parts.append(mp)
        elif g == _MINUS_ONE:
            parts.append(f"-{mp}")
        else:
            parts.append(f"{_value_str(g)}*{mp}")
    return " + ".join(parts).replace("+ -", "- ")


def scalar_str(s: CoeffFn) -> str:
    """A value free of t and x, as a sum of M-powers."""
    if any(p or q for p, q, _ in s.terms):
        raise ValueError(f"not a scalar: {s!r}")
    if s.is_zero():
        return "0"
    return _mass_str([(k[2], g) for k, g in sorted(s.terms.items())])


def coeff_str(c: CoeffFn, xname: str = "x") -> str:
    if c.is_zero():
        return "0"
    return _terms_text(sorted(c.terms.items()), xname, 0)[0]


def _terms_text(items, xname: str, at: int) -> tuple:
    """The text of a sum of g*t^p*x^q*M^m and its number of (t, x)
    monomials, from its (key, triple of g) items sorted by key, nonempty;
    p, q and m are the key's entries from index at on.  The M-terms of one
    (t, x) monomial are adjacent in that order, and form its scalar."""
    parts = []
    p0 = q0 = None
    masses: list = []  # (M-power, triple) pairs of the monomial (p0, q0)
    for k, g in items:
        p, q = k[at], k[at + 1]
        if p != p0 or q != q0:
            if masses:
                parts.append(_monomial_text(p0, q0, masses, xname))
            p0, q0, masses = p, q, []
        masses.append((k[at + 2], g))
    parts.append(_monomial_text(p0, q0, masses, xname))
    return " + ".join(parts).replace("+ -", "- "), len(parts)


def _monomial_text(p: int, q: int, masses: list, xname: str) -> str:
    """The text of (sum of g*M^m)*t^p*x^q, given the (m, triple of g) pairs."""
    if p:
        body = "t" if p == 1 else f"t^{p}"
        if q:
            body += f"*{xname}" if q == 1 else f"*{xname}^{q}"
    elif q:
        body = xname if q == 1 else f"{xname}^{q}"
    else:
        body = ""
    if body and len(masses) == 1 and not masses[0][0]:
        g = masses[0][1]
        if g == _ONE:
            return body
        if g == _MINUS_ONE:
            return f"-{body}"
    stxt = _mass_str(masses)
    if len(masses) > 1:
        stxt = f"({stxt})"
    return f"{stxt}*{body}" if body else stxt


def symbol_str(D) -> str:
    marker = "exact" if D.low is EXACT else f"floor={order_str(D.low)}"
    if not D.flat:
        return f"0 | {marker}"
    xname, dname = ("xi", "d_xi") if D.var == XI else ("r", "d_r")
    # one sort puts each order's terms together, in coeff_str's order
    items = sorted(D.flat.items())
    parts = []
    end = len(items)
    while end:  # from the highest order down
        ot = items[end - 1][0][0]
        start = end - 1
        while start and items[start - 1][0][0] == ot:
            start -= 1
        ctxt, monomials = _terms_text(items[start:end], xname, 1)
        end = start
        if not ot:
            parts.append(ctxt)
            continue
        dp = dname if ot == 2 else f"{dname}^{order_str(ot)}"
        if ctxt == "1":
            parts.append(dp)
        elif ctxt == "-1":
            parts.append(f"-{dp}")
        elif monomials > 1:
            parts.append(f"({ctxt})*{dp}")
        else:
            parts.append(f"{ctxt}*{dp}")
    body = " + ".join(parts).replace("+ -", "- ")
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
    operator: no number or name equals one.  A value is an exact monomial
    c*t^p*x^q*M^m*d^(ot/2), kept as the tuple (var, ot, p, q, m, c) with c
    a nonzero GaussRat, or a built value: a CoeffFn until an r or xi atom
    gives it an algebra, a psido.Symbol from then on.  The tag var is None
    while the monomial has no algebra, and then ot and q are 0.  _built
    turns a tuple into a CoeffFn or a Symbol when an operation needs one.
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
        """Unary signs, then factor := atom ['^' signed-rational]; the
        signs apply to the power.  Signs are rare, so the common factor
        costs one frame here and one in atom."""
        toks, neg, eneg = self.toks, False, False
        if (tok := toks[self.i]) == "-" or tok == "+":
            neg = self.signs()
        v = self.atom()
        if toks[self.i] == "^":
            self.i += 1
            if (tok := toks[self.i]) == "-" or tok == "+":
                eneg = self.signs()
                tok = toks[self.i]
            self.i += 1
            if not tok[:1].isdecimal():
                raise ValueError("exponent must be a rational literal")
            p, q = _ratio(tok)
            twice, rest = divmod(2 * p, q)
            if rest:
                raise ValueError("exponents must lie in (1/2)Z")
            v = self.power(v, -twice if eneg else twice)
        return _neg(v) if neg else v

    def atom(self):
        tok = self.toks[self.i]
        self.i += 1
        atom = _ATOMS.get(tok)
        if atom is not None and self.toks[self.i] != "(":
            return atom
        head = tok[:1]
        if head.isdecimal():
            p, q = _ratio(tok)
            if not p:
                return CoeffFn.zero()
            return None, 0, 0, 0, 0, _gauss(p, 0, q)
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
                count = fn.__code__.co_argcount - 1  # past self
                if len(args) != count:
                    plural = "s" if count > 1 else ""
                    raise ValueError(f"{tok} takes {count} argument{plural}, not {len(args)}")
                return fn(self, *map(_built, args))
            raise ValueError(f"unknown name {tok!r}")
        raise ValueError(f"unexpected token {tok!r}")

    def mul(self, a, b):
        if a.__class__ is tuple and b.__class__ is tuple:
            var, ot, p, q, m, c = a
            var2, ot2, p2, q2, m2, c2 = b
            if var is None:
                var = var2
            elif var2 is not None and var2 != var:
                raise ValueError("expression mixes the r and xi algebras")
            # the Leibniz terms past j = 0 carry binom(a, j), zero for a left
            # order a = 0, and a derivative of the right coefficient, zero
            # when it is free of x
            if not ot or not q2:
                # a unit factor costs no Gaussian product
                c = c2 if c is GR_ONE else c if c2 is GR_ONE else c * c2
                return var, ot + ot2, p + p2, q + q2, m + m2, c
        a, b = _same_algebra(_built(a), _built(b))
        if isinstance(a, CoeffFn):
            return a * b
        try:
            return sym_mul(a, b)
        except ValueError:
            return sym_mul(a, b, self.floor)

    def power(self, v, twice: int):
        """v to the power twice/2.  An exact value of one term is read as a
        monomial first; a floored one stays a symbol, so its floor holds."""
        k, half = divmod(twice, 2)
        mono = v if v.__class__ is tuple else _as_monomial(v)
        if mono is not None:
            var, ot, p, q, m, c = mono
            if not (p or q or m) and c.is_one():
                # pure derivative: d^a ^ (twice/2) = d^(a*twice/2), which
                # must stay in (1/2)Z
                ot *= twice
                if ot % 2:
                    raise ValueError("resulting order is not a half-integer")
                ot //= 2
                if var == R and ot % 2:
                    raise ValueError("half-integer order in an R-variable symbol")
                return var, ot, 0, 0, 0, c
            if not half and (not ot or (not q and k >= 0)):
                # a monomial function with an integer exponent, or a
                # nonnegative power of an x-free monomial, whose products
                # have no Leibniz terms past j = 0
                if c is not GR_ONE:
                    _check_power_digits(c, k)
                    c **= k
                return var, ot * k, p * k, q * k, m * k, c
            v = mono
        if not half and k >= 0:
            # k successive products, each larger than the last
            if k > transforms.MAX_IMAGE_POWER:
                raise ValueError(
                    f"powers of a base that is not a single generator are bounded by "
                    f"{transforms.MAX_IMAGE_POWER}"
                )
            # a zero power keeps the base's algebra
            if v.__class__ is tuple:
                var = v[0]
            else:
                var = v.var if isinstance(v, Symbol) else None
            out = var, 0, 0, 0, 0, GR_ONE
            for _ in range(k):
                out = self.mul(out, v)
            return out
        if half:
            raise ValueError("only a pure derivative takes a half-integer exponent")
        sym = _as_symbol(_built(v), R)
        if sym.is_zero() and sym.low is EXACT:  # a floored zero is unknown below its floor
            raise ValueError("zero has no negative power")
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
        if any(k[2] < 0 for k in sym.flat):
            raise ValueError("tshift needs nonnegative momentum powers: "
                             "an inverse power shifts into an infinite series")
        # xi^q shifts into the power (xi + i t/2M)^q, multiplied out as the
        # parser multiplies out (xi+t)^q, so the same bound holds
        if any(k[2] > transforms.MAX_IMAGE_POWER for k in sym.flat):
            raise ValueError(f"tshift takes momentum powers up to {transforms.MAX_IMAGE_POWER}")
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


def _check_power_digits(g: GaussRat, k: int) -> None:
    """Refuse the k-th power of a monomial with coefficient g if g^k would
    print an integer longer than the int-to-str digit limit.

    The test takes a lower bound on log10 of the longest printed integer,
    so no printable power is refused.  With g = (a + i*b)/d reduced, |g^k|
    bounds a numerator from below when it is at least 1, and a denominator
    when it is below 1.  Reducing (a + i*b)^k / d^k cancels at most 2^(k/2)
    from d^k, and the two printed denominators multiply to at least the rest.
    """
    a, b, d = triple_of(g)
    if d == 1 and a * a + b * b == 1:
        return  # every power of 1, -1, i or -i is one of them
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if k < 0:
        (a, b, d), k = triple_of(g.inv()), -k
    half_log2 = log10(2) / 2
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

# the names, and the literal 1, so that a unit coefficient is GR_ONE
_ATOMS = {
    "1": (None, 0, 0, 0, 0, GR_ONE),
    "i": (None, 0, 0, 0, 0, GR_I),
    "M": (None, 0, 0, 0, 1, GR_ONE),
    "t": (None, 0, 1, 0, 0, GR_ONE),
    "xi": (XI, 0, 0, 1, 0, GR_ONE),
    "r": (R, 0, 0, 1, 0, GR_ONE),
    "d_xi": (XI, 2, 0, 0, 0, GR_ONE),
    "d_r": (R, 2, 0, 0, 0, GR_ONE),
}


def _built(v):
    """v as a CoeffFn or a Symbol: a monomial tuple is built, any other
    value is returned as it is."""
    if v.__class__ is not tuple:
        return v
    var, ot, p, q, m, c = v
    if var is None:
        return coeff_from_table({(p, q, m): triple_of(c)})
    return Symbol._raw(var, {(ot, p, q, m): triple_of(c)}, EXACT)


def _as_monomial(v):
    """A built value as a monomial tuple when it is exact and has one
    term, else None."""
    if v.__class__ is CoeffFn:
        if len(v.terms) != 1:
            return None
        (((p, q, m), g),) = v.terms.items()
        return None, 0, p, q, m, gauss_of(g)
    if v.low is not EXACT or len(v.flat) != 1:
        return None
    (((ot, p, q, m), g),) = v.flat.items()
    return v.var, ot, p, q, m, gauss_of(g)


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
    a, b = _same_algebra(_built(a), _built(b))
    return a + b


def _neg(v):
    if v.__class__ is tuple:
        return (*v[:5], -v[5])
    return -v


def eval_expr(src: str, floor=None) -> Symbol:
    """Evaluate a calculator expression; returns a psido.Symbol."""
    value = _Parser(_tokenize(src), h(-4) if floor is None else floor).parse()
    return _as_symbol(_built(value), R)
