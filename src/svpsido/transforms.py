"""The non-local transform between momentum symbols and space symbols,
its inverse, the loop-parameter shift, and the generator factory.

Conventions fixed here once:

* Momentum symbols (var XI) may carry half-integer orders; the transform
  doubles orders, so images land on the integer grid of space symbols
  (var R) and vice versa.
* A mixed monomial is kept normal-ordered with all momentum powers to the
  left of derivative powers; the transform maps xi^k and d_xi^kappa
  separately and composes in that fixed order.
* The deformed generator image is xi -> 1/2 r d_r^-1 + nu d_r^-2 with
  d_xi -> d_r^2, that is, theta_0 after conjugation by d_xi^nu:
  xi^q d^k -> sum_j binom(nu, j) (q)_j xi^(q-j) d^(k-j).  Undeformed images
  are finite compositions, hence exact; deformed inverse-power images are
  series and demand a floor.
* The loop shift substitutes xi -> xi + (i/2M) t.  On inverse powers it
  produces the ascending series in xi cut at x-degree `depth` inclusive;
  downstream floors account for the cut via the order-doubling rule
  (a missing xi^m at order kappa could contribute from space order
  2*kappa - m downward, never higher).

The composite theta_t (shift, then transform) therefore accepts floored
inputs: a missing momentum order kappa' only pollutes space orders
<= 2*kappa' - 1, because after the shift all momentum coefficients are
polynomial.  A result with a floor (a floored input or a cut series) has
it fixed before the shift, and the image of xi^q d_xi^kappa lies at space
orders 2*kappa - q and below, so each order is shifted only up to the
x-degree whose image still reaches that floor: a term left out could
land only below it, where the result is cut anyway.  An exact result
shifts and maps every term.

The monomial map works on the flat term dicts of psido.Symbol: each term
of the input, keyed by twice its order, reads the memoised image of its
generator power, and the loop that walks the input's terms adds the
image's terms, shifted in order and scaled by the term's x-free rest,
straight into the output's dict, over a common denominator with no gcd
(_map_monomials, one loop for theta, theta_inv and theta_t);
psido.symbol_from_flat reduces the dict once it is filled.  The term's
value is already the int triple that the map scales by.  A deformed
image sums its undeformed images with ring.scale_into, its conjugation
weights turned into triples once each.  One memo class,
ThetaImageCache, keeps the images of generator powers in two module
instances, xi^k under theta and r^n under theta_inv; each entry is the
image itself, exact under theta and floored for a negative power under
theta_inv.  Orders and floors are twice-ints on this path, as in psido,
image memos included; a public function converts its requested floor
once, where it enters.  The loop shift writes its series as int triples
(_shift_series).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import TYPE_CHECKING

from .halfint import EXACT, floor_of, low_of, max_low
from .psido import R, XI, Symbol, map_rows, sym_mul, symbol_from_flat
from .ring import (
    CoeffFn,
    GR_ZERO,
    GaussRat,
    HALF,
    I_HALF_OVER_M,
    I_M,
    MINUS_2I_M,
    coeff_from_table,
    mul_into,
    scale_into,
)

if TYPE_CHECKING:  # only j_map's annotation names it
    from .svalgebra import SvElement

__all__ = [
    "DEEPEST_FLOOR",
    "DEEPEST_IMAGE_FLOOR",
    "MAX_IMAGE_POWER",
    "ThetaImageCache",
    "theta",
    "theta_inv",
    "time_shift",
    "time_shift_inverse",
    "time_shift_symbol",
    "theta_t",
    "x_generator",
    "schrodinger_invariance_defect",
    "j_map",
    "check_floor_depth",
    "default_depth",
]


def default_depth(req_floor) -> int:
    """Shift-series depth that saturates a truncation floor."""
    low = low_of(req_floor)
    return 8 if low is EXACT else abs(low) + 4


# ---------------------------------------------------------------- image cache

# Bounds on the images that theta and theta_inv are asked for.  The image
# of a power is one composition away from its neighbour's, each
# composition grows with the power, and a floored power asks its
# neighbour for a deeper floor, so the cost climbs steeply with both.  A
# deformed image of xi^q at floor f sums undeformed images down to power
# 2q + f, past the power bound.  The default suites stay above -10.
MAX_IMAGE_POWER = 64
DEEPEST_IMAGE_FLOOR = floor_of(-96)  # order -48

# Leibniz tails grow factorially with depth and transform images cost more
# than linearly in it, so the front door refuses floors below the depth at
# which the calculator references are checked.  `eval` and `verify` share
# this one bound.
DEEPEST_FLOOR = floor_of(-32)  # order -16


def check_floor_depth(floor) -> None:
    """Refuse a floor below DEEPEST_FLOOR with a ValueError."""
    if low_of(floor) < DEEPEST_FLOOR.twice:
        raise ValueError(f"the floor must sit at or above {DEEPEST_FLOOR}")


class ThetaImageCache:
    """Memoized images of the powers of one generator under one direction
    of the transform: xi^k under theta, r^n under theta_inv (k, n in Z).

    build(k, want, prev) gives the image of the k-th power trusted down to
    the twice-int want from prev, the image of its neighbour towards 0.
    Each entry is the image itself, and its floor is its own low.  theta's
    images are finite compositions, hence exact, so a floor asked is
    ignored; theta_inv floors the image of a negative power, whose
    neighbour is asked half an order deeper."""

    def __init__(self, build):
        self._memo: dict = {}
        self._build = build

    def image(self, k: int, want=EXACT) -> Symbol:
        """Image of the k-th power, trusted at least down to want.

        Walks from k towards 0 until an entry covers the floor wanted at
        that power, then builds back out to k one power at a time,
        storing every step."""
        sym = self._memo.get(k)
        if sym is not None and sym.low is EXACT:
            return sym
        chain = []
        while sym is None or sym.low is not EXACT and (want is EXACT or sym.low > want):
            chain.append((k, want))
            if k == 0:
                break
            if k > 0:
                k -= 1
            else:
                k += 1
                if want is not EXACT:
                    want -= 1
            sym = self._memo.get(k)
        for k, want in reversed(chain):
            sym = self._build(k, want, sym)
            self._memo[k] = sym
        return sym


_XI_IMAGE = Symbol(R, {-1: CoeffFn.x_pow(1, Fraction(1, 2))})  # 1/2 r d_r^-1
# xi^-1 -> 2 d_r o r^-1 = 2 r^-1 d_r - 2 r^-2
_XI_INVERSE_IMAGE = Symbol(R, {1: CoeffFn.x_pow(-1, 2), 0: CoeffFn.x_pow(-2, -2)})


def _theta_build(k: int, want, prev: Symbol) -> Symbol:
    if k == 0:
        return Symbol.function(R, CoeffFn.one())
    return sym_mul(prev, _XI_IMAGE if k > 0 else _XI_INVERSE_IMAGE)


_theta_images = ThetaImageCache(_theta_build)


def _conjugation_weights(nu, q: int):
    """binom(nu, j) (q)_j for j = 0, 1, ..., in whatever field holds nu."""
    w, j = nu ** 0, 0
    while True:
        yield w
        w = w * (nu - j) * (q - j) / (j + 1)
        j += 1


def _conjugated_image(nu: GaussRat, q: int, want) -> Symbol:
    """Image of xi^q under theta_nu: the sum over j of binom(nu, j) (q)_j
    theta_0(xi^(q-j)) d_r^(-2j), whose term j tops out at order -q - j.
    It ends at j = q for q >= 0, exact; for q < 0 it stops at the last term
    that reaches twice-int want and is floored there, even where
    binom(nu, j) ends."""
    if q < 0 and want is EXACT:
        raise ValueError("deformed inverse image is a series; give a floor")
    if q < 0 and want < DEEPEST_IMAGE_FLOOR.twice:
        raise ValueError(f"generator images are built down to order {DEEPEST_IMAGE_FLOOR} at most")
    flat: dict = {}
    for j, w in enumerate(_conjugation_weights(nu, q)):
        if w.is_zero() or (q < 0 and want > -2 * (q + j)):
            return symbol_from_flat(R, flat, EXACT if q >= 0 else want)
        (g,) = CoeffFn.const(w).terms.values()  # w's triple, as the kernel scales by it
        scale_into(flat, _theta_images.image(q - j).flat.items(), -4 * j, 0, 0, g)


# ---------------------------------------------------------------- forward map


def _map_monomials(D: Symbol, low, var: str, image) -> Symbol:
    """Sum the images of the monomials of D in the algebra of var.

    A term of D at twice-order kt shifts its image by 2*kt twice-orders
    when var is R (theta doubles orders) and by kt // 2 when var is XI
    (theta_inv halves them); image(q, want) gives the image of the q-th
    generator power trusted down to want, twice the wanted floor as an int
    (EXACT for none), which the undeformed images ignore.  The loop that
    walks D's terms adds each image term, shifted and scaled by the D
    term's x-free rest, straight into one output dict, over a common
    denominator with no gcd, as ring.scale_into adds; symbol_from_flat
    reduces the dict once it is filled.

    Cached images may be deeper than asked; answers must not depend on
    what earlier calls warmed, so a floored result is cut back to low.
    """
    double = var == R
    out = EXACT
    flat: dict = {}
    get = flat.get
    for (kt, p2, q, m2), (a2, b2, d2) in D.flat.items():
        dt = kt + kt if double else kt // 2
        if abs(q) > MAX_IMAGE_POWER:
            raise ValueError(f"generator powers are bounded by {MAX_IMAGE_POWER} in absolute value")
        # the shift moves the image's floor by dt, so ask that much deeper
        img = image(q, low if low is EXACT else low - dt)
        if img.low is not EXACT:
            out = max_low(out, img.low + dt)
        for (o, p1, q1, m1), (a1, b1, d1) in img.flat.items():
            k = (o + dt, p1 + p2, q1, m1 + m2)
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
            d = d1 * d2
            s = get(k)
            if s is None:
                flat[k] = (a, b, d)
                continue
            sa, sb, e = s
            if e == d:
                flat[k] = (a + sa, b + sb, d)
            else:
                flat[k] = (a * e + sa * d, b * e + sb * d, d * e)
    if out is not EXACT:
        out = max_low(out, low)
    return symbol_from_flat(var, flat, out)


def theta(D: Symbol, req_floor=None, nu: GaussRat = GR_ZERO) -> Symbol:
    """Map a momentum symbol to a space symbol, generator by generator.

    The input must be exact: a truncated momentum symbol with unknown
    Laurent tails would map onto unboundedly high space orders (inverse
    momentum powers climb), so no honest output floor would exist.  Use
    theta_t for the shifted pipeline, which restores polynomiality first.
    """
    if D.var != XI:
        raise ValueError("theta expects a momentum symbol")
    if D.low is not EXACT:
        raise ValueError("theta needs an exact input; truncated tails are unsound here")
    images = (_theta_images.image if nu.is_zero()
              else lambda q, want: _conjugated_image(nu, q, want))
    # order doubling, which lands on the integer grid
    return _map_monomials(D, EXACT if req_floor is None else low_of(req_floor), R, images)


# ---------------------------------------------------------------- inverse map

_TWO_XI_HALF = Symbol.monomial(XI, "1/2", CoeffFn.x_pow(1, 2))  # 2 xi d^(1/2)
_HALF_D_MINUS_HALF = Symbol.monomial(XI, "-1/2", HALF)
_XI_INVERSE = Symbol.function(XI, CoeffFn.x_pow(-1))


def _inv_build(n: int, want, prev: Symbol) -> Symbol:
    if n == 0:
        return Symbol.function(XI, CoeffFn.one())
    if n > 0:
        return sym_mul(prev, _TWO_XI_HALF)
    if want is EXACT:
        raise ValueError("inverse image of r^-1 is a series; give a floor")
    if want < DEEPEST_IMAGE_FLOOR.twice:
        raise ValueError(f"generator images are built down to order {DEEPEST_IMAGE_FLOOR} at most")
    step = sym_mul(_HALF_D_MINUS_HALF, _XI_INVERSE, floor_of(want - 1))
    return sym_mul(prev, step, floor_of(want))


_inv_images = ThetaImageCache(_inv_build)


def theta_inv(D: Symbol, req_floor=None) -> Symbol:
    """Inverse transform: d_r -> d_xi^(1/2), r -> 2 xi d_xi^(1/2)."""
    if D.var != R:
        raise ValueError("theta_inv expects a space symbol")
    if D.low is not EXACT:
        raise ValueError("theta_inv needs an exact input")
    # order halving: space orders are integers, so the image orders are in (1/2)Z
    return _map_monomials(D, low_of(req_floor), XI, _inv_images.image)


# ---------------------------------------------------------------- loop shift

# i^e for e mod 4, as the (re, im) parts of a unit
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _shift_series(q: int, depth: int, reach: int | None = None) -> list:
    """The (t, x, M) items of (xi + (i/2M) t)^q as reduced int triples:
    binom(q, m) (i/2)^(q - m) t^(q - m) xi^m M^(m - q) for m = 0 to q, or
    to depth for q < 0, and to reach at most when reach is given.
    binom(q, m) is comb(q, m), or (-1)^m comb(m - q - 1, m) for q < 0,
    and (i/2)^e is i^e over 2^e."""
    top = q if q >= 0 else depth
    if reach is not None and reach < top:
        top = reach
    items = []
    for m in range(top + 1):
        e = q - m
        if e >= 0:
            c, d = comb(q, m), 1 << e
        else:
            c, d = (-1) ** m * comb(m - q - 1, m) << -e, 1
        r = gcd(c, d)
        re, im = _I_POWERS[e % 4]
        items.append(((e, m, -e), (c // r * re, c // r * im, d // r)))
    return items


def _shifted(slices: dict, depth: int, reach: int | None = None) -> CoeffFn:
    """The loop shift of the sum over q of xi^q times slices[q], the term
    items of an x-free value: each inverse-power series cut after x-degree
    depth, and every term above x-degree reach left out."""
    out: dict = {}
    for q, items in slices.items():
        mul_into(out, _shift_series(q, depth, reach), items)
    return coeff_from_table(out)


def time_shift(f: CoeffFn, depth: int) -> CoeffFn:
    """Substitute xi -> xi + (i/2M) t into a momentum-only Laurent value.

    Nonnegative powers expand exactly; xi^-k becomes the ascending series
    cut after x-degree `depth` (inclusive), all added into one table.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not f.is_x_only():
        raise ValueError("the loop shift applies to momentum-only values")
    slices: dict = {}
    for (p, q, m), v in f.terms.items():
        slices.setdefault(q, []).append(((p, 0, m), v))
    return _shifted(slices, depth)


def time_shift_inverse(g: CoeffFn) -> CoeffFn:
    """Left inverse of the loop shift: take the xi^0 slice at t -> -2iM xi."""
    return g.x_slice(0).t_to_x(MINUS_2I_M)


def time_shift_symbol(D: Symbol, depth: int) -> Symbol:
    """Apply the loop shift to every coefficient of a momentum symbol."""
    if D.var != XI:
        raise ValueError("the loop shift applies to momentum symbols")
    return map_rows(D, lambda c: time_shift(c, depth))


# ---------------------------------------------------------------- composite


def theta_t(E: Symbol, req_floor, nu: GaussRat = GR_ZERO) -> Symbol:
    """Loop shift followed by the transform, with honest floor tracking.

    Floored inputs are accepted: after the shift all coefficients are
    polynomial in xi, so a missing order kappa' only reaches space orders
    <= 2*kappa' - 1, and a series cut at the shift depth only orders
    <= 2*kappa - depth - 1.  Such a result is cut at its floor, which is
    known before the shift.  The image of xi^q d_xi^kappa tops out at
    space order 2*kappa - q, so each order is shifted only up to the
    x-degree whose image still reaches the floor, and an order whose xi^0
    image already tops out below it is skipped; a term left out would
    land wholly below the floor.  An exact result shifts and maps every
    term.  One theta call maps the shifted terms.
    """
    depth = default_depth(req_floor)
    if E.var != XI:
        raise ValueError("the loop shift applies to momentum symbols")
    low = low_of(req_floor)
    cut = E.low is not EXACT
    if cut:
        low = max_low(low, 2 * E.low)
    # the checks run on every term, also one that the floor never reads
    top = 0  # the highest x-degree after the shift
    rows: dict = {}
    for (kt, p, q, m), v in E.flat.items():
        if p:
            raise ValueError("the loop shift applies to momentum-only values")
        if q < 0:
            cut = True
            low = max_low(low, 2 * (kt - depth))
        top = max(top, q if q >= 0 else depth)
        rows.setdefault(kt, {}).setdefault(q, []).append(((0, 0, m), v))
    if top > MAX_IMAGE_POWER:
        raise ValueError(f"generator powers are bounded by {MAX_IMAGE_POWER} in absolute value")
    flat: dict = {}
    for kt, slices in rows.items():
        # xi^q at twice-order kt maps to twice-orders 2*kt - 2*q and below
        reach = (2 * kt - low) // 2 if cut else None
        if cut and reach < 0:
            continue
        for (p, q, m), v in _shifted(slices, depth, reach).terms.items():
            flat[(kt, p, q, m)] = v
    total = theta(Symbol._raw(XI, flat, EXACT), req_floor, nu=nu)
    if cut:
        # total is already reduced: cut it without a gcd per term
        low = max_low(total.low, low)
        total = Symbol._raw(R, {k: v for k, v in total.flat.items() if k[0] >= low}, low)
    return total


def x_generator(f: CoeffFn, j, req_floor) -> Symbol:
    """Generator symbol: transform of the shifted -f(-2iM xi) d_xi^j."""
    if not f.is_t_only():
        raise ValueError("the generator datum is a loop function")
    coeff = -f.t_to_x(MINUS_2I_M)
    return theta_t(Symbol(XI, {j: coeff}), req_floor)


def schrodinger_invariance_defect(f: CoeffFn, j, req_floor) -> Symbol:
    """Commutator defect of a shifted generator against the free evolution.

    For S = (shifted f(-2iM xi)) d_xi^j the defect coefficient is
    -2iM * dS/dt - dS/dxi, which vanishes identically on full shift
    images.  When f has inverse powers the series is cut at x-degree
    `depth`; exactly the top retained slot is then incomplete, so degrees
    >= depth are masked out before returning.
    """
    if not f.is_t_only():
        raise ValueError("the generator datum is a loop function")
    depth = default_depth(req_floor)
    g = f.t_to_x(MINUS_2I_M)
    c = time_shift(g, depth)
    defect = c.deriv("T") * MINUS_2I_M - c.deriv("X")
    if (g.min_x_degree() or 0) < 0:
        defect = defect.drop_x_from(depth)
    return Symbol(XI, {j: defect})


# ---------------------------------------------------------------- momentum embed

def j_map(X: SvElement) -> Symbol:
    """Embed a symmetry element as an exact momentum symbol.

    time part f  ->  -(i/2M) f(-2iM xi) d_xi
    shift part g ->  -g(-2iM xi) d_xi^(1/2)
    phase part h ->  iM h(-2iM xi)
    """
    terms: dict = {}
    if not X.f.is_zero():
        terms[1] = -(X.f.t_to_x(MINUS_2I_M) * I_HALF_OVER_M)
    if not X.g.is_zero():
        terms[Fraction(1, 2)] = -X.g.t_to_x(MINUS_2I_M)
    if not X.h.is_zero():
        terms[0] = X.h.t_to_x(MINUS_2I_M) * I_M
    return Symbol(XI, terms)
