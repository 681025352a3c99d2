import random
from fractions import Fraction

import pytest

from germinv import (
    ComputeConfig, EMPTY, GermInputError, INFINITE, Ideal, OrderingSpec,
    Polynomial, ResourceLimitError, VariableContext,
)
from germinv.gb import monomial_dimension, staircase_count
from germinv.orderings import key_function

DRL = OrderingSpec.degrevlex()
LOC = OrderingSpec.local()

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
    mf = Polynomial.monomial(ctx, tuple(a - b for a, b in zip(lcm, lf)),
                             1 / f.terms[lf])
    mg = Polynomial.monomial(ctx, tuple(a - b for a, b in zip(lcm, lg)),
                             1 / g.terms[lg])
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
        ideal = Ideal(ctx, gens, DRL)
        basis = ideal.basis()
        key = key_function(DRL, len(ctx))
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = spoly(basis[i], basis[j], ctx, key)
                assert ideal.normal_form(s).is_zero()
        for g in gens:
            assert ideal.contains(g)


def test_reduced_basis_shape():
    ideal = Ideal(C2, [X2 ** 2 + Y2, X2 * Y2 - 1], DRL)
    basis = ideal.basis()
    key = key_function(DRL, 2)
    leads = [max(p.terms, key=key) for p in basis]
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
    a = Ideal(C2, gens, DRL).basis()
    b = Ideal(C2, list(reversed(gens)), DRL).basis()
    assert a == b
    assert a == Ideal(C2, gens, DRL).basis()


# -- normal forms ---------------------------------------------------------------

def test_normal_form_idempotent_and_linear_global():
    rng = random.Random(29)
    ideal = Ideal(C2, [X2 ** 2 - Y2, Y2 ** 2 - X2], DRL)
    for _ in range(30):
        p, q = rand_poly(rng, C2, 4), rand_poly(rng, C2, 4)
        np_, nq = ideal.normal_form(p), ideal.normal_form(q)
        assert ideal.normal_form(np_) == np_
        assert ideal.normal_form(p + q) == ideal.normal_form(np_ + nq)
        assert ideal.contains(p - np_)


def test_membership_explicit_combinations():
    rng = random.Random(31)
    g1, g2 = X2 ** 2 + Y2 ** 3, X2 * Y2 - X2
    ideal = Ideal(C2, [g1, g2], DRL)
    for _ in range(20):
        a, b = rand_poly(rng, C2), rand_poly(rng, C2)
        assert ideal.contains(a * g1 + b * g2)
    assert not ideal.contains(X2)
    assert not ideal.contains(Polynomial.constant(C2, 1))


# -- local (Mora) behavior -------------------------------------------------------

def test_local_unit_absorption_dimension():
    # x^2 + x^3 = x^2(1 + x) and 1 + x is a unit at the origin
    ideal = Ideal(C2, [X2 ** 2 + X2 ** 3, Y2], LOC)
    assert ideal.quotient_dimension() == 2
    assert ideal.contains(X2 ** 2)


def test_local_vs_global_membership():
    local = Ideal(C2, [X2 - X2 ** 2, Y2], LOC)
    glob = Ideal(C2, [X2 - X2 ** 2, Y2], DRL)
    assert local.contains(X2)        # 1 - x is invertible locally
    assert not glob.contains(X2)     # but not in the polynomial ring
    assert local.quotient_dimension() == 1
    assert glob.quotient_dimension() == 2    # V = {(0,0), (1,0)}


def test_jet_route_matches_mora_staircase():
    rng = random.Random(37)
    cases = [(C2, [X2, Y2])] * 15 + [(C3, [X3, Y3, Z3])] * 10
    for ctx, variables in cases:
        m = rng.randint(2, 4)
        gens = [v ** m for v in variables]
        extra = rand_poly(rng, ctx, max_terms=3, max_deg=3)
        extra = extra - Polynomial.constant(ctx, extra.constant_term())
        if not extra.is_zero():
            gens.append(extra)
        jets = Ideal(ctx, gens, LOC).quotient_dimension()
        mora = Ideal(ctx, gens, LOC)
        leads = [max(p.terms, key=mora._key) for p in mora.basis()]
        assert jets == staircase_count(leads, len(ctx))


# -- elimination -----------------------------------------------------------------

def test_elimination_implicitizes_cusp():
    ctx = VariableContext.make(source=("t",), target=("x", "y"))
    t, x, y = (Polynomial.variable(ctx, n) for n in ("t", "x", "y"))
    elim = Ideal(ctx, [x - t ** 2, y - t ** 3], DRL).elimination(["t"])
    cusp_ctx = elim.ctx
    assert cusp_ctx.names == ("x", "y")
    xx, yy = (Polynomial.variable(cusp_ctx, n) for n in ("x", "y"))
    assert elim.basis() == [xx ** 3 - yy ** 2]


def test_elimination_is_sound():
    # anything in the eliminated ideal must vanish on the parametrization
    ctx = VariableContext.make(source=("t",), target=("x", "y"))
    t = Polynomial.variable(ctx, "t")
    elim = Ideal(ctx, [Polynomial.variable(ctx, "x") - t ** 2 - t,
                       Polynomial.variable(ctx, "y") - t ** 3], DRL)
    small = elim.elimination(["t"])
    sub_ctx = VariableContext.make(source=("t",))
    ts = Polynomial.variable(sub_ctx, "t")
    for p in small.basis():
        assert p.substitute({"x": ts ** 2 + ts, "y": ts ** 3},
                            target=sub_ctx).is_zero()


# -- ideal operations -------------------------------------------------------------

def test_intersection_of_coordinate_ideals():
    meet = Ideal(C2, [X2], DRL).intersect(Ideal(C2, [Y2], DRL))
    assert meet.basis() == [X2 * Y2]


def test_saturation_strips_a_variable_factor():
    sat = Ideal(C2, [X2 ** 2 * Y2 ** 3], DRL).saturation(X2)
    assert sat.basis() == [Y2 ** 3]


def test_saturation_needs_no_chain_cap():
    # (y^2, y*x^64) : x^inf = (y): y*x^64 lies in the ideal, so y lies in
    # the saturation, and every element of the ideal is a multiple of y.
    # The colon chain (I : x^k) only reaches (y) at k = 64.
    sat = Ideal(C2, [Y2 ** 2, Y2 * X2 ** 64], DRL).saturation(X2)
    assert sat.basis() == [Y2]


def test_saturation_idempotent():
    ideal = Ideal(C2, [X2 ** 2 * Y2, X2 * Y2 ** 2], DRL)
    once = ideal.saturation(X2)
    twice = once.saturation(X2)
    assert once.contains_ideal(twice) and twice.contains_ideal(once)


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


def test_quotient_dimension_monomial_and_unit_cases():
    assert Ideal(C2, [X2 ** 2, Y2 ** 3], DRL).quotient_dimension() == 6
    assert Ideal(C2, [X2 ** 2, Y2 ** 3], LOC).quotient_dimension() == 6
    assert Ideal(C2, [X2], DRL).quotient_dimension() is INFINITE
    unit = Ideal(C2, [Polynomial.constant(C2, 1)], DRL)
    assert unit.is_unit()
    assert unit.quotient_dimension() == 0


def test_krull_dimension_values():
    assert Ideal(C2, [X2 * Y2], DRL).dimension() == 1
    assert Ideal(C3, [X3], DRL).dimension() == 2
    assert Ideal(C2, [X2 ** 2, Y2], DRL).dimension() == 0
    assert Ideal(C2, [Polynomial.constant(C2, 1)], DRL).dimension() is EMPTY
    assert Ideal(C2, [], DRL).dimension() == 2


def test_dimension_bound_exact_when_basis_completes():
    ideal = Ideal(C2, [X2 * Y2], DRL)
    assert ideal.dimension_bound(2) == 1
    assert ideal.dimension_bound(0) in (0, 1)    # early stop may overshoot
    with pytest.raises(GermInputError):
        Ideal(C2, [X2], LOC).dimension_bound(1)


# -- resource limits ---------------------------------------------------------------

def test_pair_budget_raises():
    cfg = ComputeConfig(max_pairs=1)
    gens = [X3 ** 3 - Y3 * Z3, Y3 ** 3 - X3 * Z3, Z3 ** 3 - X3 * Y3]
    with pytest.raises(ResourceLimitError, match="max_pairs=1"):
        Ideal(C3, gens, DRL, cfg).basis()


def test_degree_cap_raises():
    # leads x^2 and x*y are not coprime, so the S-pair (lcm degree 3)
    # cannot be discarded by a criterion and must trip the cap
    cfg = ComputeConfig(max_degree=2)
    with pytest.raises(ResourceLimitError, match="max_degree=2"):
        Ideal(C2, [X2 ** 2 + Y2 ** 2, X2 * Y2 + X2], DRL, cfg).basis()


def test_coprime_lead_criterion_skips_work():
    # with coprime leads the generators are already a basis; no S-polynomial
    # is formed, so even a tiny degree cap is never touched
    cfg = ComputeConfig(max_degree=2)
    basis = Ideal(C2, [X2 ** 3 + Y2, Y2 ** 3 + X2], DRL, cfg).basis()
    assert len(basis) == 2


def test_context_mismatch_rejected():
    with pytest.raises(GermInputError):
        Ideal(C2, [X3], DRL)
    ideal = Ideal(C2, [X2], DRL)
    with pytest.raises(GermInputError):
        ideal.normal_form(X3)
