"""
Coadjoint action on Schrodinger operator data
=============================================

The centrally extended loop-type algebra acts on its dual by the usual
rule: pairing the moved point against a test element must cancel the
pairing of the point against the bracket.  On the invariant slice the
dual points are exactly Schrodinger operator data (an evolution
coefficient and a potential), and at central charge 2 the motion of
the potential reproduces the weight-zero module action.  Any other
charge breaks that match, which is what pins the charge down.
"""

from fractions import Fraction

from svpsido.halfint import h
from svpsido.kacmoody import (
    GDual,
    GElement,
    coadjoint,
    embed_I,
    g_bracket,
    in_invariant_slice,
    pairing,
)
from svpsido.psido import R, Symbol
from svpsido.ring import CoeffFn, GaussRat
from svpsido.svaction import SchrodPoint, d_sigma_tilde
from svpsido.svalgebra import time_mode
from svpsido.textio import scalar_str

# A point of the invariant slice: potential t*r^2 in the visible slot,
# unit evolution coefficient.
mu = GDual.of_slots(vm2=CoeffFn.mono(1, 2), a=CoeffFn.one())
X = time_mode(1)
charge = GaussRat(2)

moved = coadjoint(X, mu, charge)
print("mu        =", mu)
print("ad*_X mu  =", moved)
assert in_invariant_slice(moved)
print()

# Free-family match: the potential row of the moved point equals the
# weight-zero action on the operator datum, and so does the a row.
act = d_sigma_tilde(Fraction(0), X, SchrodPoint(a=mu.a, V=mu.V.coeff(h(-2))))
assert moved.V.coeff(h(-2)) == act.V
assert moved.a == act.a
print("potential row matches the weight-zero module action at charge 2")

wrong = coadjoint(X, mu, GaussRat(1))
print("and breaks at charge 1:", wrong.V.coeff(h(-2)) != act.V)
assert wrong.V.coeff(h(-2)) != act.V
print()

# Duality, checked directly: <ad*_X mu, Y> + <mu, [I(X), Y]> = 0
# against a test element with every slot populated.
F = h("-7/2")
Y = GElement(
    w=CoeffFn.t_pow(2),
    W=Symbol(R, {h(1): CoeffFn.mono(1, -1), h(-2): CoeffFn.x_pow(2)}),
    alpha=CoeffFn.t_pow(-1),
)
defect = pairing(moved, Y) + pairing(mu, g_bracket(embed_I(X, F), Y, charge, F))
print("duality defect:", scalar_str(defect))
assert defect.is_zero()
