"""The linear protocol: +, binary - and unary - on every value.

ring.Value writes the three once, slot by slot, and rebuilds each result
past the class's constructor checks.  For every class that inherits them
the result must equal what the constructor builds from the slot-wise sums
(so the skipped checks would have passed), and the vector-space laws must
hold.  Symbol writes its own over its flat dict: the floor of a sum is the
larger floor, a zero keeps its floor, and the terms stay in the order of
the left operand's dict with the right operand's new terms after them.
ring.CoeffTable writes them once for the two coefficient tables, DiffOp2
and LocalFunctional, with the same order, and its constructor merges
equal keys in that order too.
"""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import coeff_fns, symbols
from svpsido.diffop2 import DiffOp2
from svpsido.halfint import EXACT, HalfInt, h
from svpsido.kacmoody import GDual, GElement
from svpsido.poisson import FIELD_A, FIELD_V, FIELD_V0, FIELD_VM2, LocalFunctional, jet
from svpsido.psido import R, XI, Symbol
from svpsido.ring import CoeffFn, GaussRat, gauss_of, triple_of
from svpsido.svaction import SchrodPoint
from svpsido.svalgebra import SvElement

gauss = st.builds(GaussRat, st.fractions(-3, 3, max_denominator=3), st.fractions(-3, 3, max_denominator=3))
loops = coeff_fns((-2, 2), (0, 0), (-1, 1), gauss)
space = coeff_fns((-2, 2), (-1, 2), (-1, 1), gauss)
any_symbols = symbols(space)
# GElement's W: order at most 1, floored or exact; GDual's V: exact, orders down to -2
w_symbols = symbols(space, twice_orders=(-6, 2), var=R)
v_symbols = symbols(space, twice_orders=(-4, 4), var=R, exact=True)

VALUES = {
    SvElement: st.builds(SvElement, loops, loops, loops),
    GElement: st.builds(GElement, loops, w_symbols, loops),
    GDual: st.builds(GDual, loops, v_symbols, loops),
    SchrodPoint: st.builds(SchrodPoint, loops, space),
}
CLASSES = list(VALUES)


def triples(cls):
    return st.tuples(VALUES[cls], VALUES[cls], VALUES[cls])


def constructed(cls, op, *values):
    """cls built by its constructor, with its checks, from op of the slots."""
    return cls(*(op(*(getattr(v, n) for v in values)) for n in cls._parts))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sums_equal_the_constructors_values(cls, data):
    a, b, _ = data.draw(triples(cls))
    for got, want in ((a + b, constructed(cls, operator.add, a, b)),
                      (a - b, constructed(cls, operator.sub, a, b)),
                      (-a, constructed(cls, operator.neg, a))):
        assert got.__class__ is cls
        assert got == want


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_vector_space_laws(cls, data):
    a, b, c = data.draw(triples(cls))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - b == a + (-b)
    assert -(-a) == a
    assert (a - a).is_zero()


def test_the_laws_hold_for_floored_symbol_slots():
    W = Symbol(R, {h(1): CoeffFn.x_pow(1), h(-3): CoeffFn.one()}, h(-2))
    A = GElement(w=CoeffFn.t_pow(1), W=W)
    B = GElement(W=Symbol(R, {h(-2): CoeffFn.x_pow(2)}))
    assert (A + B).W == Symbol(R, {h(1): CoeffFn.x_pow(1), h(-2): CoeffFn.x_pow(2)}, h(-2))
    assert (A - A).is_zero() and (A - A).W.floor == h(-2)


@pytest.mark.parametrize("left, right", [
    (SvElement(), SchrodPoint()),
    (GElement(), GDual()),
    (GDual(), SvElement()),
    (SchrodPoint(), GDual()),
    (SvElement(), 1),
    (Symbol.zero(R), CoeffFn.one()),
    (CoeffFn.one(), Symbol.zero(XI)),
    (Symbol.zero(R), SvElement()),
    (LocalFunctional(), SvElement()),
    (LocalFunctional(), DiffOp2({})),
    (DiffOp2.d_r(), CoeffFn.x_pow(1)),
    (DiffOp2.d_r(), 1),
    (DiffOp2.d_r(), LocalFunctional()),
    pytest.param(DiffOp2.d_r(), LocalFunctional.monomial(CoeffFn.x_pow(1), jet(FIELD_V0)),
                 id="DiffOp2-LocalFunctional-monomial"),
    (LocalFunctional.monomial(CoeffFn.x_pow(1), jet(FIELD_V0)), 1),
    pytest.param(LocalFunctional.monomial(CoeffFn.x_pow(1), jet(FIELD_V0)), DiffOp2.d_r(),
                 id="LocalFunctional-monomial-DiffOp2"),
], ids=lambda v: type(v).__name__)
def test_sums_across_classes_raise(left, right):
    with pytest.raises(TypeError):
        left + right
    with pytest.raises(TypeError):
        left - right


@pytest.mark.parametrize("table", [DiffOp2.d_r(), LocalFunctional.monomial(CoeffFn.x_pow(1), jet(FIELD_V0))],
                         ids=lambda v: type(v).__name__)
def test_a_table_difference_with_another_class_names_minus(table):
    # the refusal names the operator written, not + of a negated operand
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -: "):
        table - 1


# ---- Symbol --------------------------------------------------------------------------------


def larger_floor(A: Symbol, B: Symbol):
    floors = [f for f in (A.floor, B.floor) if f is not EXACT]
    return max(floors) if floors else EXACT


def linear_items(A: Symbol, B: Symbol, sign: int) -> list:
    """The items of A + sign * B as the sum's dict holds them: A's keys in
    A's order, then B's new keys in B's order, zeros and the orders below
    the larger floor dropped."""
    acc = {k: gauss_of(v) for k, v in A.flat.items()}
    for k, v in B.flat.items():
        g = gauss_of(v) * sign
        acc[k] = acc[k] + g if k in acc else g
    floor = larger_floor(A, B)
    return [(k, triple_of(g)) for k, g in acc.items()
            if not g.is_zero() and (floor is EXACT or HalfInt(k[0]) >= floor)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((R, XI)).flatmap(lambda var: st.tuples(symbols(space, var=var), symbols(space, var=var))))
def test_symbol_sums_keep_the_floor_and_the_term_order(pair):
    A, B = pair
    for got, sign in ((A + B, 1), (A - B, -1)):
        assert got.floor == larger_floor(A, B)
        assert list(got.flat.items()) == linear_items(A, B, sign)
    neg = -A
    assert neg.floor == A.floor
    assert list(neg.flat.items()) == [(k, (-a, -b, d)) for k, (a, b, d) in A.flat.items()]


@settings(max_examples=40, deadline=None)
@given(any_symbols)
def test_symbol_laws(A):
    B = Symbol(A.var, {h(1): CoeffFn.x_pow(1)})
    assert A + B == B + A
    assert A - B == A + (-B)
    assert -(-A) == A
    assert (A - A).is_zero() and (A - A).floor == A.floor


def test_a_floored_zero_keeps_its_floor():
    Z = Symbol(XI, {}, h("-1/2"))
    A = Symbol(XI, {h(1): CoeffFn.one(), h("-3/2"): CoeffFn.x_pow(1)})
    for S in (Z + A, A + Z, A - Z, Z - A):
        assert S.floor == h("-1/2")
        assert S.terms.keys() == {h(1)}
    assert (-Z).floor == h("-1/2") and (-Z).is_zero()
    assert (Z + Z).floor == h("-1/2") and (Z - Z).is_zero()


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
def test_symbols_of_two_algebras_do_not_mix(op):
    with pytest.raises(ValueError, match="mixed symbol variables R and XI"):
        op(Symbol.function(R, CoeffFn.one()), Symbol.function(XI, CoeffFn.one()))


# ---- LocalFunctional ------------------------------------------------------------------------


def test_local_functional_difference_keeps_the_term_order():
    F = LocalFunctional([((jet(FIELD_V),), CoeffFn.t_pow(1)), ((jet(FIELD_A),), CoeffFn.t_pow(2))])
    G = LocalFunctional([((jet(FIELD_A, 1),), CoeffFn.one()), ((jet(FIELD_V),), CoeffFn.t_pow(1))])
    D = F - G
    assert D == F + (-G)
    assert list(D.terms) == [(jet(FIELD_A),), (jet(FIELD_A, 1),)]
    assert (F - F).is_zero() and -(-F) == F


# ---- the coefficient tables -----------------------------------------------------------------

# small key sets, so that sums meet equal keys; a loop-class monomial takes
# a t-only coefficient, and one pair key is given unsorted
PAIR_KEYS = [(jet(FIELD_VM2),), (jet(FIELD_V0, 1),), (jet(FIELD_V0), jet(FIELD_VM2, 0, 1))]
LOOP_KEYS = [(jet(FIELD_V),), (jet(FIELD_A, 1), jet(FIELD_A))]
TABLES = {
    DiffOp2: st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), space),
                      max_size=4).map(DiffOp2),
    LocalFunctional: st.lists(st.one_of(st.tuples(st.sampled_from(PAIR_KEYS), space),
                                        st.tuples(st.sampled_from(LOOP_KEYS), loops)),
                              max_size=4).map(LocalFunctional),
}


def merged_items(A, B, sign: int) -> list:
    """The items of A + sign * B in the order the sum keeps them: A's keys
    in A's order, then B's new keys in B's order, what cancels dropped."""
    acc = dict(A.terms)
    for k, c in B.terms.items():
        acc[k] = acc[k] + c * sign if k in acc else c * sign
    return [(k, c) for k, c in acc.items() if not c.is_zero()]


@pytest.mark.parametrize("cls", list(TABLES), ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_laws(cls, data):
    a, b, c = (data.draw(TABLES[cls]) for _ in range(3))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - b == a + (-b)
    assert -(-a) == a
    assert (a - a).is_zero() and (a - a).__class__ is cls
    assert a + cls.zero() == a and cls.zero().is_zero() and cls.zero().__class__ is cls


@pytest.mark.parametrize("cls", list(TABLES), ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_sums_keep_the_term_order(cls, data):
    a, b = data.draw(TABLES[cls]), data.draw(TABLES[cls])
    if data.draw(st.booleans()):
        b = b - a  # so that the sum cancels keys of a
    for got, sign in ((a + b, 1), (a - b, -1)):
        assert got.__class__ is cls
        assert list(got.terms.items()) == merged_items(a, b, sign)
        built = cls(list(a.terms.items()) + [(k, c * sign) for k, c in b.terms.items()])
        assert list(got.terms.items()) == list(built.terms.items())
    assert list((-a).terms.items()) == [(k, -c) for k, c in a.terms.items()]


def test_table_constructors_merge_keys_and_keep_their_checks():
    J, K = jet(FIELD_V0), jet(FIELD_VM2, 0, 1)
    F = LocalFunctional([((J, K), 1), ((K, J), CoeffFn.x_pow(1)), ((J,), 2), ((K, J), -1)])
    assert list(F.terms.items()) == [((K, J), CoeffFn.x_pow(1)), ((J,), CoeffFn.const(2))]
    assert F == LocalFunctional({(K, J): CoeffFn.x_pow(1), (J,): 2})
    # a zero monomial is dropped before its class is read
    assert LocalFunctional([((J, jet(FIELD_V)), 0)]).is_zero()
    with pytest.raises(ValueError, match="may not mix the loop coordinates"):
        LocalFunctional([((J, jet(FIELD_V)), 1)])
    with pytest.raises(ValueError, match="coefficient must be space-free"):
        LocalFunctional.monomial(CoeffFn.x_pow(1), jet(FIELD_V))
    D = DiffOp2([((0, 1), 1), ((1, 0), 2), ((0, 1), -1)])
    assert list(D.terms.items()) == [((1, 0), CoeffFn.const(2))]
    with pytest.raises(ValueError, match="derivative powers must be nonnegative"):
        DiffOp2({(-1, 0): 0})
    with pytest.raises(TypeError, match="bad coefficient"):
        DiffOp2({(0, 0): "x"})
