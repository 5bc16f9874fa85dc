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
polynomial.

The monomial map works on the flat term dicts of psido.Symbol: each term
of the input, keyed by twice its order, reads the memoised image of its
generator power and adds the image's terms, shifted in order and scaled
by the term's x-free rest, straight into the output's dict
(ring.scale_into), which psido.symbol_from_flat reduces once it is
filled.  The term's value is already the int triple that the kernel
scales by, and a deformed image's conjugation weights are turned into
triples once each.  Orders stay ints on this path; HalfInt appears only
where a floor is compared or an image map reads its wanted floor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .halfint import EXACT, HalfInt, h, hmax
from .psido import R, XI, Symbol, binom_half, sym_mul, symbol_from_flat
from .ring import (
    CoeffFn,
    GR_ZERO,
    GaussRat,
    I_M,
    M,
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
    if req_floor is EXACT or req_floor is None:
        return 8
    return abs(h(req_floor).twice) + 4


# ---------------------------------------------------------------- image cache

# Bounds on the images that theta and theta_inv are asked for.  The image
# of a power is one composition away from its neighbour's, each
# composition grows with the power, and a floored power asks its
# neighbour for a deeper floor, so the cost climbs steeply with both.  A
# deformed image of xi^q at floor f sums undeformed images down to power
# 2q + f, past the power bound.  The default suites stay above -10.
MAX_IMAGE_POWER = 64
DEEPEST_IMAGE_FLOOR = h(-48)

# Leibniz tails grow factorially with depth and transform images cost more
# than linearly in it, so the front door refuses floors below the depth at
# which the calculator references are checked.  `eval` and `verify` share
# this one bound.
DEEPEST_FLOOR = h(-16)


def check_floor_depth(floor: HalfInt) -> None:
    """Refuse a floor below DEEPEST_FLOOR with a ValueError."""
    if floor < DEEPEST_FLOOR:
        raise ValueError(f"the floor must sit at or above {DEEPEST_FLOOR}")


def _fill(memo: dict, k: int, want, deepen, build) -> Symbol:
    """Image of the k-th power, trusted at least down to want.

    Walks from k towards 0 until a memo entry covers the floor wanted at
    that power (a negative power wants its neighbour `deepen` deeper),
    then builds back out to k one power at a time with
    build(power, floor, image of the neighbour), storing every step.
    Images of nonnegative powers are finite compositions and always exact.
    """
    if k >= 0:
        want = EXACT
    chain = []
    sym = None
    while True:
        entry = memo.get(k)
        if entry is not None and (entry[0] is EXACT or (want is not EXACT and entry[0] <= want)):
            sym = entry[1]
            break
        if want is not EXACT and want < DEEPEST_IMAGE_FLOOR:
            raise ValueError(f"generator images are built down to order {DEEPEST_IMAGE_FLOOR} at most")
        chain.append((k, want))
        if k == 0:
            break
        if k > 0:
            k -= 1
        else:
            k += 1
            if want is not EXACT:
                want = want - deepen
    for k, want in reversed(chain):
        sym = build(k, want, sym)
        memo[k] = (sym.floor, sym)
    return sym


class ThetaImageCache:
    """Memoized images of xi^k (k in Z) under the undeformed transform.

    Every entry is a finite composition, hence exact whatever floor was
    asked; deformed images are sums of entries (_conjugated_image)."""

    def __init__(self):
        self._memo: dict = {}
        self._pos_base = Symbol(R, {h(-1): CoeffFn.x_pow(1, Fraction(1, 2))})
        # xi^-1 -> 2 d_r o r^-1 = 2 r^-1 d_r - 2 r^-2
        self._neg_base = Symbol(R, {h(1): CoeffFn.x_pow(-1, 2), h(0): CoeffFn.x_pow(-2, -2)})

    def image(self, k: int, req_floor=EXACT) -> Symbol:
        """Image of xi^k, exact at any req_floor, so no request deepens
        and a memo hit is returned as it is."""
        entry = self._memo.get(k)
        if entry is not None:
            return entry[1]
        return _fill(self._memo, k, EXACT, 0, self._build)

    def _build(self, k: int, want, prev: Symbol) -> Symbol:
        if k == 0:
            return Symbol.function(R, CoeffFn.one())
        return sym_mul(prev, self._pos_base if k > 0 else self._neg_base)


_theta_images = ThetaImageCache()


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
    that reaches want and is floored there, even where binom(nu, j) ends."""
    if q < 0 and want is EXACT:
        raise ValueError("deformed inverse image is a series; give a floor")
    if q < 0 and want < DEEPEST_IMAGE_FLOOR:
        raise ValueError(f"generator images are built down to order {DEEPEST_IMAGE_FLOOR} at most")
    flat: dict = {}
    for j, w in enumerate(_conjugation_weights(nu, q)):
        if w.is_zero() or (q < 0 and want > -q - j):
            return symbol_from_flat(R, flat, EXACT if q >= 0 else want)
        (g,) = CoeffFn.const(w).terms.values()  # w's triple, as the kernel scales by it
        scale_into(flat, _theta_images.image(q - j).flat.items(), -4 * j, 0, 0, g)


# ---------------------------------------------------------------- forward map


def _half(want):
    """The floor of twice-order want, EXACT for EXACT."""
    return want if want is EXACT else HalfInt(want)


def _map_monomials(D: Symbol, req, var: str, shift, image) -> Symbol:
    """Sum the images of the monomials of D in the algebra of var.

    A term of D at twice-order kt shifts its image by shift(kt)
    twice-orders; image(q, want) gives the image of the q-th generator
    power trusted down to want, twice the wanted floor as an int (EXACT
    for none), which the undeformed images ignore.  Each term of D scales
    its image's flat dict by its x-free rest and adds it in place into one
    output dict (ring.scale_into).

    Cached images may be deeper than asked; answers must not depend on
    what earlier calls warmed, so a floored result is cut back to req.
    """
    floor = EXACT
    low = EXACT if req is EXACT else req.twice
    flat: dict = {}
    for (kt, p, q, m), v in D.flat.items():
        dt = shift(kt)
        if abs(q) > MAX_IMAGE_POWER:
            raise ValueError(f"generator powers are bounded by {MAX_IMAGE_POWER} in absolute value")
        # the shift moves the image's floor by dt, so ask that much deeper
        img = image(q, low if low is EXACT else low - dt)
        if img.floor is not EXACT:
            floor = hmax(floor, HalfInt(img.floor.twice + dt))
        scale_into(flat, img.flat.items(), dt, p, m, v)
    if floor is not EXACT:
        floor = hmax(floor, req)
    return symbol_from_flat(var, flat, floor)


def theta(D: Symbol, req_floor=None, nu: GaussRat = GR_ZERO) -> Symbol:
    """Map a momentum symbol to a space symbol, generator by generator.

    The input must be exact: a truncated momentum symbol with unknown
    Laurent tails would map onto unboundedly high space orders (inverse
    momentum powers climb), so no honest output floor would exist.  Use
    theta_t for the shifted pipeline, which restores polynomiality first.
    """
    if D.var != XI:
        raise ValueError("theta expects a momentum symbol")
    if D.floor is not EXACT:
        raise ValueError("theta needs an exact input; truncated tails are unsound here")
    req = h(req_floor) if req_floor is not None else EXACT
    images = (_theta_images.image if nu.is_zero()
              else lambda q, want: _conjugated_image(nu, q, _half(want)))
    # order doubling, which lands on the integer grid
    return _map_monomials(D, req, R, lambda kt: kt + kt, images)


# ---------------------------------------------------------------- inverse map

_inv_memo: dict = {}
_HALF = h("1/2")


def _inv_image(n: int, want) -> Symbol:
    """Image of r^n under the inverse map, trusted down to want."""
    if n < 0 and want is EXACT:
        raise ValueError("inverse image of r^-1 is a series; give a floor")
    return _fill(_inv_memo, n, want, _HALF, _inv_build)


def _inv_build(n: int, want, prev: Symbol) -> Symbol:
    if n == 0:
        return Symbol.function(XI, CoeffFn.one())
    if n > 0:
        return sym_mul(prev, Symbol.monomial(XI, _HALF, CoeffFn.x_pow(1, 2)))  # 2 xi d^(1/2)
    base = sym_mul(
        Symbol.monomial(XI, -_HALF, CoeffFn.const(Fraction(1, 2))),
        Symbol.function(XI, CoeffFn.x_pow(-1)),
        want - _HALF,
    )
    return sym_mul(prev, base, want)


def theta_inv(D: Symbol, req_floor=None) -> Symbol:
    """Inverse transform: d_r -> d_xi^(1/2), r -> 2 xi d_xi^(1/2)."""
    if D.var != R:
        raise ValueError("theta_inv expects a space symbol")
    if D.floor is not EXACT:
        raise ValueError("theta_inv needs an exact input")
    req = h(req_floor) if req_floor is not None else EXACT
    # order halving: space orders are integers, so the image orders are in (1/2)Z
    return _map_monomials(D, req, XI, lambda kt: kt // 2, lambda n, want: _inv_image(n, _half(want)))


# ---------------------------------------------------------------- loop shift

_HALF_I = GaussRat(0, Fraction(1, 2))
_MINUS_2I = GaussRat(0, -2)


def time_shift(f: CoeffFn, depth: int) -> CoeffFn:
    """Substitute xi -> xi + (i/2M) t into a momentum-only Laurent value.

    Nonnegative powers expand exactly; xi^-k becomes the ascending series
    cut after x-degree `depth` (inclusive), all added into one table.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not f.is_x_only():
        raise ValueError("the loop shift applies to momentum-only values")
    out: dict = {}
    for q in dict.fromkeys(k[1] for k in f.terms):
        a = HalfInt.of(q)
        series = {}
        scale = _HALF_I ** q  # (i/2)^(q - m), one factor 2/i = -2i per step in m
        for m in range((q if q >= 0 else depth) + 1):
            cf = binom_half(a, m)
            if cf.is_zero():
                break
            # (i t / 2M)^(q - m) xi^m
            series[(q - m, m, m - q)] = scale * cf
            scale = scale * _MINUS_2I
        mul_into(out, CoeffFn(series).terms.items(), f.x_slice(q).terms.items())
    return coeff_from_table(out)


def time_shift_inverse(g: CoeffFn) -> CoeffFn:
    """Left inverse of the loop shift: take the xi^0 slice at t -> -2iM xi."""
    return g.x_slice(0).t_to_x(MINUS_2I_M)


def time_shift_symbol(D: Symbol, depth: int) -> Symbol:
    """Apply the loop shift to every coefficient of a momentum symbol."""
    if D.var != XI:
        raise ValueError("the loop shift applies to momentum symbols")
    return Symbol(XI, {k: time_shift(c, depth) for k, c in D.terms.items()}, D.floor)


# ---------------------------------------------------------------- composite


def theta_t(E: Symbol, req_floor, nu: GaussRat = GR_ZERO) -> Symbol:
    """Loop shift followed by the transform, with honest floor tracking.

    Every order is shifted, then one theta call maps the exact result.
    Floored inputs are accepted: after the shift all coefficients are
    polynomial in xi, so a missing order kappa' only reaches space orders
    <= 2*kappa' - 1, and a series cut at the shift depth only orders
    <= 2*kappa - depth - 1.
    """
    req = h(req_floor) if req_floor is not None else EXACT
    depth = default_depth(req)
    floor = req
    cut = False
    for kt, _, q, _ in E.flat:
        if q < 0:
            cut = True
            floor = hmax(floor, HalfInt(2 * (kt - depth)))
    shifted = time_shift_symbol(E, depth)
    total = theta(Symbol._raw(XI, shifted.flat, EXACT), req, nu=nu)
    if E.floor is not EXACT:
        floor = hmax(floor, E.floor + E.floor)
    if cut or E.floor is not EXACT:
        # total is already reduced: cut it without a gcd per term
        floor = hmax(total.floor, floor)
        low = floor.twice
        total = Symbol._raw(R, {k: v for k, v in total.flat.items() if k[0] >= low}, floor)
    return total


def x_generator(f: CoeffFn, j, req_floor) -> Symbol:
    """Generator symbol: transform of the shifted -f(-2iM xi) d_xi^j."""
    if not f.is_t_only():
        raise ValueError("the generator datum is a loop function")
    coeff = -f.t_to_x(MINUS_2I_M)
    E = Symbol(XI, {h(j): coeff})
    return theta_t(E, req_floor)


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
    depth = default_depth(h(req_floor) if req_floor is not None else EXACT)
    c = time_shift(f.t_to_x(MINUS_2I_M), depth)
    defect = c.deriv("T") * MINUS_2I_M - c.deriv("X")
    if (f.t_to_x(MINUS_2I_M).min_x_degree() or 0) < 0:
        defect = defect.drop_x_from(depth)
    return Symbol(XI, {h(j): defect})


# ---------------------------------------------------------------- momentum embed

_MINUS_I_HALF_OVER_M = GaussRat(0, Fraction(-1, 2)) * M ** -1


def j_map(X: SvElement) -> Symbol:
    """Embed a symmetry element as an exact momentum symbol.

    time part f  ->  -(i/2M) f(-2iM xi) d_xi
    shift part g ->  -g(-2iM xi) d_xi^(1/2)
    phase part h ->  iM h(-2iM xi)
    """
    terms: dict = {}
    if not X.f.is_zero():
        terms[h(1)] = X.f.t_to_x(MINUS_2I_M) * _MINUS_I_HALF_OVER_M
    if not X.g.is_zero():
        terms[h("1/2")] = -X.g.t_to_x(MINUS_2I_M)
    if not X.h.is_zero():
        terms[h(0)] = X.h.t_to_x(MINUS_2I_M) * I_M
    return Symbol(XI, terms)
