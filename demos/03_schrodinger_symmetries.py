"""
Symmetries of the free evolution operator
=========================================

The symmetry algebra comes in three families, indexed by Laurent
polynomials in time: time reparametrizations (f), space shifts with
half-odd indices (g), and central phases (h).  Each element embeds as
a half-order symbol whose conjugation action leaves the free evolution
operator invariant, and the whole picture projects onto honest
second-order differential operators.
"""

from fractions import Fraction

from svpsido.diffop2 import DiffOp2, d_pi, dop_bracket, dop_from_r_symbol, dop_mul, free_evolution_op
from svpsido.halfint import h
from svpsido.psido import differential_part
from svpsido.ring import TWO_I_M, CoeffFn
from svpsido.svalgebra import phase_mode, shift_mode, sv_bracket, time_mode
from svpsido.transforms import j_map, schrodinger_invariance_defect
from svpsido.textio import symbol_str

L = time_mode(1)         # f = t^2
Y = shift_mode("1/2")    # g = t
M = phase_mode(0)        # h = 1

# Structure: time modes act on every family, shifts close on phases,
# and the constant phase mode is central.
print("[L, L'] =", sv_bracket(L, time_mode(-1)))
print("[L, Y'] =", sv_bracket(L, shift_mode("-1/2")))
print("[Y, Y'] =", sv_bracket(Y, shift_mode("-1/2")))
print("[L, M]  =", sv_bracket(L, M))
print("[Y, M]  =", sv_bracket(Y, M))
print()

# The embedding into half-order symbols.
for name, X in (("L", L), ("Y", Y), ("M", M)):
    print(f"j({name}) =", symbol_str(j_map(X)))
print()

# Invariance: the generator built from f at weight j conjugates the
# free operator to itself; the defect is identically zero for the
# three displayed weights.
F = h(-4)
for j in (0, "1/2", 1):
    defect = schrodinger_invariance_defect(CoeffFn.t_pow(2), j, F)
    assert defect.is_zero(), symbol_str(defect)
print("invariance defect at weights 0, 1/2, 1: all zero")
print()

# Projecting to second-order operators gives the weighted family d_pi.
# It is a true representation: operator brackets match algebra brackets.
# The weight is any constant, or a value in the mass alone.
mu = Fraction(1, 4)
lhs = dop_bracket(d_pi(mu, L), d_pi(mu, Y))
rhs = d_pi(mu, sv_bracket(L, Y))
assert lhs == rhs
print("d_pi bracket compatibility at weight 1/4:", lhs == rhs)

# Bridge between the pictures: scaling the weightless operator family
# by 2iM matches multiplication by f against the free operator, up to
# the differential part of the embedded time generator.
from svpsido.transforms import x_generator

f = CoeffFn.t_pow(2)
lhs = d_pi(0, time_mode(1)).scale(TWO_I_M)
plus = dop_from_r_symbol(differential_part(x_generator(f, 1, F)))
rhs = dop_mul(DiffOp2.function(f), free_evolution_op()) - plus
assert lhs == rhs
print("operator bridge at f = t^2:", lhs == rhs)
