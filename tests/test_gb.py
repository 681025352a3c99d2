import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from germinv import (
    ComputeConfig, EMPTY, GermInputError, INFINITE, Ideal,
    Polynomial, ResourceLimitError, VariableContext, local_colength,
)
from germinv import gb, syzygy
from germinv.exprparse import parse_polynomial
from germinv.gb import monomial_dimension, staircase_count
from germinv.orderings import degrevlex

C2 = VariableContext.make(source=("x", "y"))
C3 = VariableContext.make(source=("x", "y", "z"))
X2, Y2 = (Polynomial.variable(C2, n) for n in ("x", "y"))
X3, Y3, Z3 = (Polynomial.variable(C3, n) for n in ("x", "y", "z"))


def rand_poly(rng, ctx, max_terms=3, max_deg=3, homog_floor=0):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(len(ctx)))
        if sum(exp) < homog_floor:
            continue
        terms[exp] = Fraction(rng.randint(-4, 4) or 1)
    return Polynomial(ctx, terms)


def spoly(f, g, ctx, key):
    """Textbook S-polynomial for monic f, g."""
    lf = max(f.terms, key=key)
    lg = max(g.terms, key=key)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = Polynomial(ctx, {tuple(a - b for a, b in zip(lcm, lf)): 1 / f.terms[lf]})
    mg = Polynomial(ctx, {tuple(a - b for a, b in zip(lcm, lg)): 1 / g.terms[lg]})
    return mf * f - mg * g


# -- Buchberger certificates ---------------------------------------------------

def test_buchberger_certificate_randomized():
    rng = random.Random(23)
    for trial in range(40):
        ctx = C3 if trial % 4 == 0 else C2
        gens = [rand_poly(rng, ctx) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = Ideal(ctx, gens)
        basis = ideal.basis()
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = spoly(basis[i], basis[j], ctx, degrevlex)
                assert ideal.contains(s)
        for g in gens:
            assert ideal.contains(g)


def test_reduced_basis_shape():
    ideal = Ideal(C2, [X2 ** 2 + Y2, X2 * Y2 - 1])
    basis = ideal.basis()
    leads = [max(p.terms, key=degrevlex) for p in basis]
    for p, lead in zip(basis, leads):
        assert p.terms[lead] == 1                     # monic
        for other in leads:
            if other == lead:
                continue
            assert not all(a >= b for a, b in zip(lead, other))   # minimal
            for exp in p.terms:                        # fully reduced tails
                assert not all(a >= b for a, b in zip(exp, other))


def test_basis_deterministic_and_generator_order_free():
    gens = [X2 ** 2 - Y2, X2 * Y2 + X2, Y2 ** 3]
    a = Ideal(C2, gens).basis()
    b = Ideal(C2, list(reversed(gens))).basis()
    assert a == b
    assert a == Ideal(C2, gens).basis()


# -- membership -----------------------------------------------------------------

def test_a_member_among_the_inputs_handles_no_more_pairs(monkeypatch):
    # the inputs are interreduced before pairs are formed, so a member of
    # the ideal that the other inputs reduce to zero never pairs: here the
    # others are a Groebner basis, which reduces every member to zero
    pairs = []
    real = gb._Engine.spoly
    monkeypatch.setattr(gb._Engine, "spoly",
                        lambda self, *a: pairs.append(1) or real(self, *a))
    rng = random.Random(31)
    for _ in range(8):
        basis = Ideal(C3, [rand_poly(rng, C3) for _ in range(3)]).basis()
        member = Polynomial.zero(C3)
        for g in basis:
            member = member + rand_poly(rng, C3, 2, 2) * g
        counts = []
        for gens in (basis, basis + [member]):
            pairs.clear()
            assert Ideal(C3, gens).basis() == basis
            counts.append(len(pairs))
        assert counts[1] <= counts[0]


@given(st.lists(st.tuples(
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-9, 9).filter(bool),
                    min_size=1, max_size=4),
    st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), st.integers(-9, 9).filter(bool),
                    min_size=1, max_size=6)), min_size=1, max_size=6))
def test_a_shared_divisor_memo_gives_the_fresh_remainder(steps):
    # each step appends an element, then reduces a polynomial once with the
    # memo of the earlier steps and once with an empty one
    eng = gb._Engine(degrevlex, ComputeConfig(), 3)
    polys = [gb._intify(p) for step in steps for p in step]
    eng._admit(polys)
    elts, memo = [], {}
    for elt, h in zip(polys[::2], polys[1::2]):
        elts.append(eng.elt({eng.pack(e): c for e, c in elt.items()}))
        packed = {eng.pack(e): c for e, c in h.items()}
        assert eng._reduce(dict(packed), elts, memo) == eng._reduce(packed, elts, {})


def test_membership_explicit_combinations():
    rng = random.Random(31)
    g1, g2 = X2 ** 2 + Y2 ** 3, X2 * Y2 - X2
    ideal = Ideal(C2, [g1, g2])
    for _ in range(20):
        a, b = rand_poly(rng, C2), rand_poly(rng, C2)
        assert ideal.contains(a * g1 + b * g2)
    assert not ideal.contains(X2)
    assert not ideal.contains(Polynomial.constant(C2, 1))


# -- local (Lazard) behavior ------------------------------------------------------
# The local ring is asked for colengths only, so a member is recognized by
# leaving the colength unchanged when it is added.

def test_local_unit_absorption_dimension():
    # x^2 + x^3 = x^2(1 + x) and 1 + x is a unit at the origin, so x^2 is a
    # member of the local ideal
    gens = [X2 ** 2 + X2 ** 3, Y2]
    assert local_colength(C2, gens) == 2
    assert local_colength(C2, gens + [X2 ** 2]) == 2


def test_local_vs_global_membership():
    gens = [X2 - X2 ** 2, Y2]
    # 1 - x is invertible locally, so x is a local member
    assert local_colength(C2, gens) == 1
    assert local_colength(C2, gens + [X2]) == 1
    # but not a member in the polynomial ring: V = {(0,0), (1,0)} loses (1,0)
    glob = Ideal(C2, gens)
    assert not glob.contains(X2)
    assert glob.quotient_dimension() == 2
    assert Ideal(C2, gens + [X2]).quotient_dimension() == 1


def test_local_colength_matches_global_staircase():
    # pure powers of every variable plus a term vanishing at 0: V(I) = {0},
    # so the local quotient is the whole global one, an independent count
    rng = random.Random(37)
    cases = [(C2, [X2, Y2])] * 15 + [(C3, [X3, Y3, Z3])] * 10
    for ctx, variables in cases:
        m = rng.randint(2, 4)
        gens = [v ** m for v in variables]
        extra = rand_poly(rng, ctx, max_terms=3, max_deg=3)
        extra = extra - Polynomial.constant(ctx, extra.constant_term())
        if not extra.is_zero():
            gens.append(extra)
        local = local_colength(ctx, gens)
        assert local == Ideal(ctx, gens).quotient_dimension()
        assert local is not INFINITE


def test_local_unit_ideal_answers_at_once():
    # the second generator does not vanish at the origin; a tight pair
    # budget shows that no basis run is needed to see the unit
    gens = [parse_polynomial(t, C2) for t in (
        "-3*x^2*y^4 + 2*x*y^3 + 2*x^2*y + 4/3*y^2",
        "-x^3*y^4 + 4*x^4*y^2 - x*y^4 + 5",
        "5*x^3*y + 4*x^2*y^2 + x^3 - 2*y^3")]
    assert local_colength(C2, gens, ComputeConfig(max_pairs=100)) == 0


# -- elimination -----------------------------------------------------------------

def test_elimination_implicitizes_cusp():
    ctx = VariableContext.make(source=("t",), target=("x", "y"))
    t, x, y = (Polynomial.variable(ctx, n) for n in ("t", "x", "y"))
    elim = Ideal(ctx, [x - t ** 2, y - t ** 3]).elimination(["t"])
    cusp_ctx = elim.ctx
    assert cusp_ctx.names == ("x", "y")
    xx, yy = (Polynomial.variable(cusp_ctx, n) for n in ("x", "y"))
    assert elim.basis() == [xx ** 3 - yy ** 2]


def test_elimination_is_sound():
    # anything in the eliminated ideal must vanish on the parametrization:
    # p(t^2 + t, t^3) has degree at most 3 deg p in t, so it is zero once it
    # vanishes at 3 deg p + 1 distinct rationals
    ctx = VariableContext.make(source=("t",), target=("x", "y"))
    t = Polynomial.variable(ctx, "t")
    elim = Ideal(ctx, [Polynomial.variable(ctx, "x") - t ** 2 - t,
                       Polynomial.variable(ctx, "y") - t ** 3])
    small = elim.elimination(["t"])
    assert small.basis()
    for p in small.basis():
        for k in range(3 * max(map(sum, p.terms)) + 1):
            t0 = Fraction(k - 2, 3)
            assert p.specialize({"x": t0 ** 2 + t0, "y": t0 ** 3}) == 0


# -- ideal operations -------------------------------------------------------------

def test_elimination_keeps_its_reduced_basis(monkeypatch):
    # on monomials free of the eliminated variables the elimination order is
    # degrevlex on the rest, so the kept elements are the reduced degrevlex
    # basis of the contraction, and reading it runs no engine
    rng = random.Random(5)
    handles = [Ideal(C2, [X2 ** 2 * Y2 ** 3]).saturation(X2),
               Ideal(C2, [Y2 ** 2, Y2 * X2 ** 64]).saturation(X2)]
    for _ in range(12):
        gens = [rand_poly(rng, C3) for _ in range(3)]
        handles.append(Ideal(C3, gens).elimination(["x"]))
    runs = []
    real = gb._Engine.basis
    monkeypatch.setattr(gb._Engine, "basis",
                        lambda self, *a, **k: runs.append(1) or real(self, *a, **k))
    kept = [h.basis() for h in handles]
    # the lead exponents come with the basis, under degrevlex, also after
    # an elimination, whose order is degrevlex on the kept variables
    leads = [h.leading_monomials() for h in handles]
    assert runs == []
    for h, basis, lead in zip(handles, kept, leads):
        assert lead == [max(p.terms, key=degrevlex) for p in basis]
        assert Ideal(h.ctx, h.gens).basis() == basis
    assert len(runs) == len(handles)


def test_saturation_strips_a_variable_factor():
    sat = Ideal(C2, [X2 ** 2 * Y2 ** 3]).saturation(X2)
    assert sat.basis() == [Y2 ** 3]


def test_saturation_needs_no_chain_cap(monkeypatch):
    # (y^2, y*x^64) : x^inf = (y): y*x^64 lies in the ideal, so y lies in
    # the saturation, and every element of the ideal is a multiple of y.
    # Saturation is the colon chain I : x, (I : x) : x, ..., whose k-th
    # link is (y^2, y*x^(64-k)); it reaches (y) at k = 64 and stops at its
    # first repeat, link 65, with no cap on its length.
    calls = []
    real = syzygy.ideal_quotient
    monkeypatch.setattr(syzygy, "ideal_quotient",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    sat = Ideal(C2, [Y2 ** 2, Y2 * X2 ** 64]).saturation(X2)
    assert sat.basis() == [Y2]
    assert len(calls) == 65


def test_saturation_edge_cases():
    ideal = Ideal(C2, [X2 ** 2 * Y2, X2 * Y2 ** 2 - Y2])
    unit = [Polynomial.constant(C2, 1)]
    # a nonzero constant is a unit: I comes back, generated by its basis
    same = ideal.saturation(Polynomial.constant(C2, 3))
    assert same.basis() == same.gens == ideal.basis()
    # f in I gives the unit ideal, which saturates to itself
    full = ideal.saturation(X2 ** 2 * Y2)
    assert full.basis() == full.gens == unit
    assert full.saturation(X2).basis() == unit
    assert Ideal(C2, unit).saturation(X2 + Y2).basis() == unit
    with pytest.raises(GermInputError, match="saturation by zero"):
        ideal.saturation(Polynomial.zero(C2))
    with pytest.raises(GermInputError, match="wrong context"):
        ideal.saturation(X3)


def test_saturation_idempotent():
    ideal = Ideal(C2, [X2 ** 2 * Y2, X2 * Y2 ** 2])
    once = ideal.saturation(X2)
    twice = once.saturation(X2)
    assert all(once.contains(p) for p in twice.basis())
    assert all(twice.contains(p) for p in once.basis())


# -- staircase oracles ------------------------------------------------------------

def test_staircase_counts_and_dimensions():
    assert staircase_count([(2, 0), (0, 3)], 2) == 6
    assert staircase_count([(1, 0)], 2) is INFINITE
    assert staircase_count([(0, 0)], 2) == 0
    assert monomial_dimension([(1, 1)], 2) == 1
    assert monomial_dimension([(1, 0, 0)], 3) == 2
    assert monomial_dimension([(2, 0), (0, 1)], 2) == 0
    assert monomial_dimension([(0, 0)], 2) is EMPTY
    assert monomial_dimension([], 2) == 2


def test_staircase_cap_names_its_limit():
    with pytest.raises(ResourceLimitError, match="8000000 monomials.*2000000") as info:
        staircase_count([(200, 0, 0), (0, 200, 0), (0, 0, 200)], 3)
    assert (info.value.stage, info.value.limit, info.value.value) == \
        ("staircase enumeration", "staircase_cap", 2000000)


def test_quotient_dimension_monomial_and_unit_cases():
    assert Ideal(C2, [X2 ** 2, Y2 ** 3]).quotient_dimension() == 6
    assert local_colength(C2, [X2 ** 2, Y2 ** 3]) == 6
    assert Ideal(C2, [X2]).quotient_dimension() is INFINITE
    assert local_colength(C2, [X2]) is INFINITE
    unit = Ideal(C2, [Polynomial.constant(C2, 1)])
    assert unit.basis() == [1]
    assert unit.quotient_dimension() == 0


def test_krull_dimension_values():
    assert Ideal(C2, [X2 * Y2]).dimension() == 1
    assert Ideal(C3, [X3]).dimension() == 2
    assert Ideal(C2, [X2 ** 2, Y2]).dimension() == 0
    assert Ideal(C2, [Polynomial.constant(C2, 1)]).dimension() is EMPTY
    assert Ideal(C2, []).dimension() == 2


def test_dimension_bound_exact_when_basis_completes():
    ideal = Ideal(C2, [X2 * Y2])
    assert ideal.dimension_bound(2) == 1
    assert ideal.dimension_bound(0) in (0, 1)    # early stop may overshoot


# -- resource limits ---------------------------------------------------------------

def test_pair_budget_raises():
    cfg = ComputeConfig(max_pairs=1)
    gens = [X3 ** 3 - Y3 * Z3, Y3 ** 3 - X3 * Z3, Z3 ** 3 - X3 * Y3]
    with pytest.raises(ResourceLimitError, match="max_pairs=1"):
        Ideal(C3, gens, cfg).basis()


def test_degree_cap_raises():
    # leads x^2 and x*y are not coprime, so the S-pair (lcm degree 3)
    # cannot be discarded by a criterion and must trip the cap
    cfg = ComputeConfig(max_degree=2)
    with pytest.raises(ResourceLimitError, match="max_degree=2"):
        Ideal(C2, [X2 ** 2 + Y2 ** 2, X2 * Y2 + X2], cfg).basis()


def test_coprime_lead_criterion_skips_work():
    # with coprime leads the generators are already a basis; no S-polynomial
    # is formed, so even a tiny degree cap is never touched
    cfg = ComputeConfig(max_degree=2)
    basis = Ideal(C2, [X2 ** 3 + Y2, Y2 ** 3 + X2], cfg).basis()
    assert len(basis) == 2


def test_packing_fits_inputs_beyond_max_degree(monkeypatch):
    # the engine packs each monomial into one int; the field widths follow
    # the inputs where they exceed max_degree
    assert not Ideal(C2, [Y2]).contains(X2 ** 5000)
    assert local_colength(C2, [Y2, X2 ** 5000]) == 5000
    assert not Ideal(C2, [Y2]).contains(X2 ** 3000 + Y2)
    gens = [X2 ** 300 + Y2, Y2 ** 2]
    basis = Ideal(C2, gens, config=ComputeConfig(max_degree=2)).basis()
    assert sorted(map(str, basis)) == sorted(map(str, gens))
    # under the block order of an elimination, the s-polynomial of the two
    # inputs is x^6*y + 2*x^4*y, of degree 7, above both max_degree=6 and
    # the inputs' degree: the new element is refused at once, and under the
    # default bound the one run gives the basis
    ctx = VariableContext.make(source=("t",), target=("x", "y"))
    t, x, y = (Polynomial.variable(ctx, n) for n in ("t", "x", "y"))
    gens = [x ** 5 * y + t * y, -2 * x ** 4 + t * x]
    with pytest.raises(ResourceLimitError) as info:
        Ideal(ctx, gens, config=ComputeConfig(max_degree=6)).elimination(["t"])
    exc = info.value
    assert (exc.stage, exc.limit, exc.value) == ("ideal basis", "max_degree", 6)
    runs = []
    real = gb._Engine.basis
    monkeypatch.setattr(gb._Engine, "basis",
                        lambda self, *a, **k: runs.append(1) or real(self, *a, **k))
    elim = Ideal(ctx, gens, config=ComputeConfig(max_degree=120)).elimination(["t"])
    assert [str(b) for b in elim.basis()] == ["x^6*y + 2*x^4*y"]
    assert len(runs) == 1


def test_membership_of_an_input_above_max_degree():
    # a product in the reducer may reach the inputs' degree where that is
    # above max_degree, so a generator of degree 200 is a member
    g = X2 ** 200 + Y2
    assert Ideal(C2, [g]).contains(g)
    assert not Ideal(C2, [g]).contains(g + X2)
    # past both bounds the guard still stops: under the order eliminating x,
    # x^130 reduces by x - y^3 through the product x^129*y^3 of degree 132
    with pytest.raises(ResourceLimitError) as info:
        Ideal(C2, [X2 - Y2 ** 3, X2 ** 130 - Y2]).elimination(["x"])
    exc = info.value
    assert str(exc) == ("ideal reduction exceeded the degree bound 130, the inputs' "
                        "degree, above max_degree=120")
    assert (exc.stage, exc.limit, exc.value) == ("ideal reduction", "max_degree", 120)


def test_pairs_of_an_input_above_max_degree():
    # an lcm may reach the inputs' degree where that is above max_degree:
    # the leads x^3 and x^2 pair at degree 3 under max_degree=2
    gens = [X2 ** 3 + Y2, X2 ** 2 + 1]
    expected = Ideal(C2, gens).basis()
    assert [str(b) for b in expected] == ["y^2 + 1", "x - y"]
    assert Ideal(C2, gens, config=ComputeConfig(max_degree=2)).basis() == expected
    # past both bounds the guard still stops: the lcm x^200*y has degree 201
    with pytest.raises(ResourceLimitError) as info:
        Ideal(C2, [X2 ** 200 + Y2, X2 ** 2 * Y2]).basis()
    exc = info.value
    assert str(exc) == ("ideal s-polynomial exceeded the degree bound 200, the inputs' "
                        "degree, above max_degree=120")
    assert (exc.stage, exc.limit, exc.value) == ("ideal s-polynomial", "max_degree", 120)


@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.one_of(st.integers(-10 ** 6, 10 ** 6),
                                 st.fractions(max_denominator=10 ** 4)).filter(bool),
                       min_size=1, max_size=8))
def test_intify_clears_denominators_exactly(terms):
    # the integer form of the numerators equals the product form it replaced
    den = lcm(*(c.denominator for c in terms.values() if isinstance(c, Fraction)))
    assert gb._intify(terms) == gb._primitive({e: int(c * den) for e, c in terms.items()})


def test_context_mismatch_rejected():
    with pytest.raises(GermInputError):
        Ideal(C2, [X3])
    # membership of a polynomial over another context is refused, not
    # answered over the coordinates the two contexts happen to share
    ideal = Ideal(C2, [X2])
    with pytest.raises(GermInputError):
        ideal.contains(X3 * Z3)
    UV = VariableContext.make(source=("u", "v"))
    with pytest.raises(GermInputError):
        ideal.contains(Polynomial.variable(UV, "u"))
