"""Retired implementations, kept as independent references for the fast paths.

Each function here is the straightforward form that a faster one in the
package replaced.  Tests compare the two on random inputs, so the fast path
must keep every result, and every error, of the form it replaced.
"""

import re
import sys

from svpsido.ring import GaussRat


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
