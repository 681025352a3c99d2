import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from germinv import GermInputError, Polynomial, VariableContext
from germinv.exprparse import parse_polynomial


CTX = VariableContext.make(source=("x", "y"), parameter=("s",))
X = Polynomial.variable(CTX, "x")
Y = Polynomial.variable(CTX, "y")
S = Polynomial.variable(CTX, "s")


def rand_poly(rng, ctx=CTX, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(len(ctx)))
        terms[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(ctx, terms)


# -- context ------------------------------------------------------------------

def test_make_orders_roles():
    ctx = VariableContext.make(parameter=("s",), target=("u",), source=("a",))
    assert ctx.names == ("a", "u", "s")
    assert ctx.roles == ("source", "target", "parameter")


def test_context_rejects_duplicates_and_bad_roles():
    with pytest.raises(GermInputError):
        VariableContext.make(source=("x", "x"))
    with pytest.raises(GermInputError):
        VariableContext(("x",), ("nonsense",))
    with pytest.raises(GermInputError):
        VariableContext.make(parameter=("s", "t"))


def test_context_lookup_and_edit():
    assert CTX.index("y") == 1
    with pytest.raises(GermInputError):
        CTX.index("nope")
    assert CTX.parameter_index() == 2
    ext = CTX.extend(("p",), "cotangent")
    assert ext.names == ("x", "y", "s", "p")
    assert ext.drop(["p"]) == CTX
    assert CTX.fresh_name("x") != "x"
    assert CTX.fresh_name("z") == "z"


# -- arithmetic ---------------------------------------------------------------

def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Polynomial.zero(CTX)
        assert a * 0 == Polynomial.zero(CTX)
        assert a * 1 == a


def test_pow_matches_repeated_product():
    p = X + 2 * Y - 1
    q = Polynomial.constant(CTX, 1)
    for k in range(6):
        assert p ** k == q
        q = q * p
    with pytest.raises(GermInputError):
        p ** -1


def test_scalar_mixing_and_zero_cleanup():
    p = 2 * X + 3
    assert p - 3 == 2 * X
    assert (Fraction(1, 2) * p).terms[(1, 0, 0)] == 1
    assert (X - X).is_zero()
    assert not (X * Y).is_zero()


def test_context_mismatch_rejected():
    other = VariableContext.make(source=("x", "y"))
    with pytest.raises(GermInputError):
        X + Polynomial.variable(other, "x")


# -- queries ------------------------------------------------------------------

def test_degrees_and_constant_term():
    p = X ** 2 * Y + S - 5
    assert p.constant_term() == -5
    assert p.weighted_degrees({"x": 1, "y": 2, "s": 4}) == (0, 4)


def test_monomial_validation():
    with pytest.raises(GermInputError):
        Polynomial(CTX, {(1, 0): 1})         # wrong arity
    with pytest.raises(GermInputError):
        Polynomial(CTX, {(-1, 0, 0): 1})     # negative exponent
    assert Polynomial(CTX, {(1, 0, 0): 0}).is_zero()


# -- calculus -----------------------------------------------------------------

def test_partial_known_values():
    p = X ** 3 * Y + 2 * X * S
    assert p.partial("x") == 3 * X ** 2 * Y + 2 * S
    assert p.partial("y") == X ** 3
    assert p.partial("s") == 2 * X


def test_partial_leibniz_randomized():
    rng = random.Random(11)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        for v in CTX.names:
            assert (a * b).partial(v) == a.partial(v) * b + a * b.partial(v)


# -- specialization and transport ----------------------------------------------

def test_specialize_values_and_dropped_context():
    p = X ** 2 + Y * S
    q = p.specialize({"x": 0})
    assert q.ctx == VariableContext.make(source=("y",), parameter=("s",))
    assert q == Polynomial.variable(q.ctx, "y") * Polynomial.variable(q.ctx, "s")
    r = p.specialize({"x": 3, "s": 1})
    assert r.ctx.names == ("y",)
    assert r == Polynomial.variable(r.ctx, "y") + 9
    assert p.specialize({"x": 2, "y": 1, "s": -4}) == 0
    assert p.specialize({"x": 2, "y": 1, "s": -4}).ctx.names == ()


def test_specialize_fractions_and_unknown_names():
    p = X ** 2 + Y * S
    half = p.specialize({"x": Fraction(1, 2), "y": Fraction(-2, 3)})
    assert half == Fraction(1, 4) - Fraction(2, 3) * Polynomial.variable(half.ctx, "s")
    with pytest.raises(GermInputError):
        p.specialize({"z": 1})


def test_specialize_is_a_ring_map_at_rational_points():
    rng = random.Random(13)
    for _ in range(25):
        a, b = rand_poly(rng), rand_poly(rng)
        names = rng.sample(CTX.names, rng.randint(1, len(CTX)))
        v = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for n in names}
        assert (a + b).specialize(v) == a.specialize(v) + b.specialize(v)
        assert (a * b).specialize(v) == a.specialize(v) * b.specialize(v)


def _specialize_term_by_term(p, values):
    # every value raised to every term's exponent, nothing skipped
    fixed = [(p.ctx.index(n), Fraction(v)) for n, v in values.items()]
    keep = [i for i in range(len(p.ctx)) if i not in {i for i, _ in fixed}]
    out = {}
    for exp, c in p.terms.items():
        for i, v in fixed:
            c *= v ** exp[i]
        e = tuple(exp[i] for i in keep)
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


_VALUES = st.one_of(st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-1, 2)]),
                    st.fractions(max_denominator=9).filter(lambda v: abs(v) < 20))


@given(st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3),
                       st.one_of(st.integers(-50, 50), st.fractions(max_denominator=7))
                       .filter(bool), max_size=8),
       st.dictionaries(st.sampled_from(CTX.names), _VALUES, min_size=1))
def test_specialize_matches_the_term_by_term_formula(terms, values):
    # integer and Fraction coefficients, values drawn from 0, 1, -1, +-1/2
    # and random fractions: equal terms, Fraction coefficients, equal str
    p = Polynomial._raw(CTX, terms)
    q = p.specialize(values)
    expected = _specialize_term_by_term(p, values)
    assert q.terms == expected
    assert all(type(c) is Fraction for c in q.terms.values())
    assert str(q) == str(Polynomial._raw(q.ctx, expected))


def test_rename_embeds_upward():
    big = VariableContext.make(source=("x", "y"), target=("u",), parameter=("s",))
    p = X * Y + S
    q = p.rename(big)
    assert q.terms == {(1, 1, 0, 0): 1, (0, 0, 0, 1): 1}
    with pytest.raises(GermInputError):
        q.rename(CTX)   # u has nowhere to go


# -- display ------------------------------------------------------------------

def test_str_canonical_examples():
    assert str(Polynomial.zero(CTX)) == "0"
    assert str(-X + Y) == "-x + y"       # degrevlex order, x before y
    assert str(X * Y - 2 * X ** 2) == "-2*x^2 + x*y"
    assert str(Fraction(1, 3) * S) == "1/3*s"


def test_str_parse_round_trip_randomized():
    rng = random.Random(17)
    for _ in range(80):
        p = rand_poly(rng, max_terms=6, max_deg=4)
        assert parse_polynomial(str(p), CTX) == p


@given(st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3),
                       st.integers(-50, 50).filter(bool), max_size=8),
       st.sampled_from(CTX.names))
def test_partial_of_an_integer_polynomial_matches_its_fraction_twin(terms, name):
    p = Polynomial._raw(CTX, terms)
    twin = Polynomial(CTX, terms)        # the same coefficients as Fractions
    d, dt = p.partial(name), twin.partial(name)
    assert d.terms == dt.terms and str(d) == str(dt)
    assert all(type(c) is int for c in d.terms.values())
