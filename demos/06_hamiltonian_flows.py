"""
Hamiltonian flows of the generator functionals
==============================================

Local functionals are finite sums of coefficient-times-jet monomials
integrated over the visible slots of a dual point.  The canonical
bracket on them has two faces worth seeing: the Hamiltonian field of a
generator functional reproduces the coadjoint motion, and the bracket
of two generator functionals is the generator of the algebra bracket
up to exactly two exceptional integrals that vanish on the invariant
slice.
"""

from fractions import Fraction

from svpsido.kacmoody import GDual, coadjoint
from svpsido.poisson import (
    FIELD_V0,
    FIELD_VM2,
    LocalFunctional,
    evaluate,
    hamiltonian_vector,
    jet,
    lemma71_functional,
    n_preservation_check,
    poisson_bracket,
    total_derivative,
    variational_derivative,
)
from svpsido.ring import CoeffFn, GaussRat, M
from svpsido.svalgebra import SvElement, sv_bracket
from svpsido.textio import scalar_str

C2 = GaussRat(2)


# Variational calculus: the Euler operator annihilates anything that
# is a total derivative, here checked on d/dr of (V-2)^2 * (V-2)_r.
F = LocalFunctional.monomial(CoeffFn.one(), jet(FIELD_VM2), jet(FIELD_VM2), jet(FIELD_VM2, 0, 1))
assert variational_derivative(total_derivative(F, "X"), FIELD_VM2).terms == {}
print("the variational derivative kills total space derivatives")
print()

# Hamiltonian field = coadjoint motion.  The generator functional of X
# is the momentum pairing against the lift of X, so its Hamiltonian
# vector at mu is exactly ad*_X mu.
X = SvElement(f=CoeffFn.t_pow(2))
mu = GDual.of_slots(v=CoeffFn.t_pow(1), vm2=CoeffFn.mono(1, -1),
                    v0=CoeffFn.t_pow(-1), a=CoeffFn.t_pow(-2))
H = hamiltonian_vector(lemma71_functional(X), mu, C2)
assert H == coadjoint(X, mu, C2)
print("H_{F_X}(mu) == ad*_X mu:", H == coadjoint(X, mu, C2))
print()

# The bracket homomorphism and its two exceptions.  On a point of the
# invariant slice the generator bracket closes on the nose.
Y = SvElement(g=CoeffFn.t_pow(1))
lhs = poisson_bracket(lemma71_functional(X), lemma71_functional(Y), mu, C2)
rhs = evaluate(lemma71_functional(sv_bracket(X, Y)), mu)
assert lhs == rhs
print("on the slice:   {F_X, F_Y} == F_[X,Y]")

# Off the slice (space dependence in the shallow potential slot) the
# (time, shift) pair picks up its exceptional integral of g f'' V0.
loose = GDual.of_slots(v0=CoeffFn.mono(-2, -1))
lhs = poisson_bracket(lemma71_functional(X), lemma71_functional(Y), mu=loose, c=C2)
rhs = evaluate(lemma71_functional(sv_bracket(X, Y)), loose)
iq = GaussRat(0, Fraction(1, 4)) * M
fdd = X.f.deriv("T").deriv("T")
defect = LocalFunctional.monomial(-(Y.g * fdd * iq), jet(FIELD_V0))
print("off the slice:  {F_X, F_Y} - F_[X,Y] =", scalar_str(lhs - rhs))
assert lhs - rhs == evaluate(defect, loose)
assert not (lhs - rhs).is_zero()
print("which is the measured exceptional integral, nonzero here")
print()

# The structural criterion for slice preservation grades pair-class
# functionals by how their coefficient weight compares to the jet
# orders; an affine space weight passes, a quadratic one does not.
good = LocalFunctional.monomial(CoeffFn.one() + CoeffFn.x_pow(1), jet(FIELD_VM2))
bad = LocalFunctional.monomial(CoeffFn.x_pow(2), jet(FIELD_VM2))
print("affine-weight potential integral preserves the slice:", n_preservation_check(good))
print("quadratic-weight one does not:", not n_preservation_check(bad))
