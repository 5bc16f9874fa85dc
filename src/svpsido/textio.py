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
from fractions import Fraction

from .halfint import EXACT, HalfInt, h
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


def _frac_str(q: Fraction) -> str:
    return str(q)


def gauss_str(g: GaussRat) -> str:
    real, imag = g.re, g.im
    if not imag:
        return _frac_str(real)
    if not real:
        if imag == 1:
            return "i"
        if imag == -1:
            return "-i"
        return f"{_frac_str(imag)}*i"
    sign = "+" if imag > 0 else "-"
    mag = abs(imag)
    imtxt = "i" if mag == 1 else f"{_frac_str(mag)}*i"
    return f"({_frac_str(real)} {sign} {imtxt})"


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


def _halfint_pow_str(k: HalfInt) -> str:
    return str(k)


def symbol_str(D) -> str:
    from .psido import XI

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
            dp = dname if k.twice == 2 else f"{dname}^{_halfint_pow_str(k)}"
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
    ('*' signed factor)*; factor := atom ['^' signed-rational]."""

    def __init__(self, tokens, env):
        self.toks = tokens
        self.i = 0
        self.env = env  # maps function names to callables on parsed values

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
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.signed_factor()
        while self.peek() == ("op", "*"):
            self.take()
            v = v * self.signed_factor()
        return v

    def signed_factor(self):
        neg = False
        while self.peek() in (("op", "-"), ("op", "+")):
            if self.take()[1] == "-":
                neg = not neg
        v = self.factor()
        return -v if neg else v

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
            q = Fraction(val) * sign
            v = v.pow_rational(q)
        return v

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return _SymExpr.constant(GaussRat(Fraction(val)))
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
                fn = self.env.get(val)
                if fn is None:
                    raise ValueError(f"unknown function {val!r}")
                return fn(*args)
            return _SymExpr.atom(val)
        raise ValueError(f"unexpected token {val!r}")


class _SymExpr:
    """Calculator value: a symbol in an optional variable (None until an
    r/xi-flavored atom appears)."""

    __slots__ = ("var", "sym")

    def __init__(self, var, sym):
        self.var = var
        self.sym = sym  # a psido.Symbol over var (or over R when var None)

    # Construction uses var R as the carrier for variable-free values; the
    # tag is fixed the first time a true r/xi atom enters a product or sum.

    @staticmethod
    def constant(g: GaussRat):
        from .psido import R, Symbol

        return _SymExpr(None, Symbol.function(R, CoeffFn.const(g)))

    @staticmethod
    def atom(name: str):
        from .psido import R, XI, Symbol

        if name == "i":
            return _SymExpr.constant(GaussRat(0, 1))
        if name == "M":
            return _SymExpr(None, Symbol.function(R, M))
        if name == "t":
            return _SymExpr(None, Symbol.function(R, CoeffFn.t_pow(1)))
        if name == "xi":
            return _SymExpr(XI, Symbol.function(XI, CoeffFn.x_pow(1)))
        if name == "r":
            return _SymExpr(R, Symbol.function(R, CoeffFn.x_pow(1)))
        if name == "d_xi":
            return _SymExpr(XI, Symbol.monomial(XI, h(1), CoeffFn.one()))
        if name == "d_r":
            return _SymExpr(R, Symbol.monomial(R, h(1), CoeffFn.one()))
        raise ValueError(f"unknown name {name!r}")

    def _retag(self, var):
        from .psido import Symbol

        if self.var is not None:
            if var is not None and self.var != var:
                raise ValueError("expression mixes the r and xi algebras")
            return self
        if var is None:
            return self
        return _SymExpr(var, Symbol(var, self.sym.terms, self.sym.floor))

    @staticmethod
    def _merge(a: "_SymExpr", b: "_SymExpr"):
        var = a.var if a.var is not None else b.var
        return a._retag(var), b._retag(var), var

    def __add__(self, other):
        from .psido import sym_add

        a, b, var = _SymExpr._merge(self, other)
        return _SymExpr(var, sym_add(a.sym, b.sym))

    def __sub__(self, other):
        from .psido import sym_sub

        a, b, var = _SymExpr._merge(self, other)
        return _SymExpr(var, sym_sub(a.sym, b.sym))

    def __neg__(self):
        from .psido import sym_neg

        return _SymExpr(self.var, sym_neg(self.sym))

    def __mul__(self, other):
        from .psido import sym_mul

        a, b, var = _SymExpr._merge(self, other)
        floor = _EVAL_FLOOR[0]
        try:
            return _SymExpr(var, sym_mul(a.sym, b.sym))
        except ValueError:
            return _SymExpr(var, sym_mul(a.sym, b.sym, floor))

    def pow_rational(self, q: Fraction):
        from .psido import Symbol

        if q.denominator not in (1, 2):
            raise ValueError("exponents must lie in (1/2)Z")
        terms = self.sym.terms
        if len(terms) == 1:
            ((k, c),) = terms.items()
            if c == CoeffFn.one():
                # pure derivative power: d^k ^ q = d^(k*q), must stay in (1/2)Z
                newtw = k.twice * q.numerator
                if q.denominator == 2:
                    if newtw % 2:
                        raise ValueError("resulting order is not a half-integer")
                    newtw //= 2
                return _SymExpr(
                    self.var,
                    Symbol.monomial(self.sym.var, HalfInt(newtw), CoeffFn.one()),
                )
            if k.twice == 0 and len(c.terms) == 1 and q.denominator == 1:
                # monomial function base with an integer exponent
                return _SymExpr(
                    self.var, Symbol.function(self.sym.var, c ** q.numerator)
                )
        if q.denominator == 1 and q >= 0:
            out = _SymExpr(self.var, Symbol.function(self.sym.var, CoeffFn.one()))
            for _ in range(q.numerator):
                out = out * self
            return out
        raise ValueError("this exponent needs a single-generator base")


_EVAL_FLOOR = [h(-4)]


def eval_expr(src: str, floor=None, nu=None):
    """Evaluate a calculator expression; returns a psido.Symbol."""
    from . import transforms
    from .psido import R, XI, sym_bracket, sym_mul, differential_part

    if floor is None:
        floor = h(-4)
    _EVAL_FLOOR[0] = floor
    if nu is None:
        nu = GaussRat(0)

    def fn_theta(a: _SymExpr):
        sym = a._retag(a.var or XI).sym
        return _SymExpr(R, transforms.theta(sym, nu=nu))

    def fn_theta_inv(a: _SymExpr):
        sym = a._retag(a.var or R).sym
        return _SymExpr(XI, transforms.theta_inv(sym, floor))

    def fn_tshift(a: _SymExpr):
        sym = a._retag(a.var or XI).sym
        # xi^-k shifts into an infinite ascending series; the x-degree at
        # which it would be cut is not a symbol order, so no floor could
        # say what the cut lost
        if any((c.min_x_degree() or 0) < 0 for c in sym.terms.values()):
            raise ValueError("tshift needs nonnegative momentum powers: "
                             "an inverse power shifts into an infinite series")
        return _SymExpr(XI, transforms.time_shift_symbol(sym, 0))  # the depth cuts nothing here

    def fn_bracket(a: _SymExpr, b: _SymExpr):
        x, y, var = _SymExpr._merge(a, b)
        return _SymExpr(var, sym_bracket(x.sym, y.sym, floor))

    def fn_mul(a: _SymExpr, b: _SymExpr):
        x, y, var = _SymExpr._merge(a, b)
        return _SymExpr(var, sym_mul(x.sym, y.sym, floor))

    def fn_trace(a: _SymExpr):
        from .psido import adler_trace, Symbol as Sym

        tr = adler_trace(a.sym)
        return _SymExpr(a.var, Sym.function(a.sym.var, tr))

    def fn_dpart(a: _SymExpr):
        return _SymExpr(a.var, differential_part(a.sym))

    env = {
        "theta": fn_theta,
        "theta_inv": fn_theta_inv,
        "tshift": fn_tshift,
        "bracket": fn_bracket,
        "mul": fn_mul,
        "trace": fn_trace,
        "dpart": fn_dpart,
    }
    value = _Parser(_tokenize(src), env).parse()
    return value.sym
