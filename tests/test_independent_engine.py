"""The basis engine against an independent implementation: sympy's.

A reduced Groebner basis is unique for its term order, so the monic reduced
degrevlex basis of every ideal here must equal, element for element,
sympy's `groebner(..., order="grevlex", domain="QQ")` over the same
variable order, and `Ideal.contains` must agree with sympy's reduction. The
inputs are seeded small ideals over (x, y, z) and the FT and Bruce-Roberts
ideals of the corpus germs s1 and crosscap, the handles the invariants read.

`Ideal.elimination` is held to the elements of sympy's lex basis, the
eliminated variables first, that are free of them, on seeded ideals over
(t, x, y) and on the graph ideals of the corpus germs but exam1 (sympy's
lex basis of its graph did not finish in 300 s) and of the seed-1 family
germs of the benchmark.

The one colon primitive, `ideal_quotient`, and the saturation iterated from
it are held to sympy's own eliminations, by a lex basis with an auxiliary
variable t first: I : f is the intersection of I and (f), which is
t*I + (1 - t)*(f) with t eliminated, divided by f; I : f^infinity is
I + (1 - t*f) with t eliminated (Rabinowitsch's trick).

The saturation's two ways to stop are both held to it: seeded
zero-dimensional ideals of eight rational points, saturated by a
polynomial that vanishes at none of them (1 in K + (f) ends the chain at
once) and by one that vanishes at exactly one (a quotient must be
harvested, and the point goes).

`Ideal.quotient_dimension` is held to the number of standard monomials of
sympy's grevlex basis, found by a walk up from 1 rather than by a staircase
box, and `local_colength` to the same number on ideals that hold a pure
power of every variable: their zero set is at most the origin, so the
colength there is the global one. A colength of I + (z) is held to the
colength of I with z = 0, and the slice oracle's integer slice to the
monic slice of g and to sympy's count of its saturated Jacobian ideal.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from germinv import (INFINITE, Ideal, Polynomial, VariableContext, ft_ideal, image_equation,
                     local_colength, slice_milnor_total)
from germinv import gb
from germinv.germfile import parse_germ_file
from germinv.invariants import _br_ideal
from germinv.gb import ideal_quotient

from conftest import load

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import families  # noqa: E402

C3 = VariableContext.make(source=("x", "y", "z"))
TXY = VariableContext.make(source=("t",), target=("x", "y"))


def rand_poly(rng, ctx, max_terms=3, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(len(ctx)))
        terms[exp] = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
    return Polynomial(ctx, terms)


def as_sympy(p: Polynomial):
    gens = sympy.symbols(p.ctx.names)
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
        *gens, domain=sympy.QQ)


def as_terms(p: sympy.Poly):
    return frozenset((e, Fraction(int(c.p), int(c.q))) for e, c in p.as_dict().items())


def same_basis(ideal: Ideal, exprs):
    """The reduced basis of `ideal` is sympy's grevlex basis of `exprs`."""
    gens = sympy.symbols(ideal.ctx.names)
    theirs = sympy.groebner(exprs, *gens, order="grevlex", domain="QQ")
    assert {frozenset(b.terms.items()) for b in ideal.basis()} == \
        {as_terms(p) for p in theirs.polys}


def eliminate_t(ctx: VariableContext, exprs):
    """The t-free elements of sympy's lex basis of `exprs`, t first."""
    t = sympy.Symbol("t_aux")
    lex = sympy.groebner(exprs, t, *sympy.symbols(ctx.names), order="lex", domain="QQ")
    return [p for p in lex.exprs if t not in p.free_symbols]


def sympy_elimination(ideal: Ideal, names):
    """The elements free of `names` of sympy's lex basis, `names` first."""
    front = sympy.symbols(names)
    rest = [sympy.Symbol(n) for n in ideal.ctx.names if n not in names]
    lex = sympy.groebner([as_sympy(g).as_expr() for g in ideal.gens], *front, *rest,
                         order="lex", domain="QQ")
    return [p for p in lex.exprs if not p.free_symbols & set(front)]


def sympy_quotient(gens, f: Polynomial):
    t, ctx = sympy.Symbol("t_aux"), f.ctx
    fp = as_sympy(f)
    meet = eliminate_t(ctx, [t * as_sympy(g).as_expr() for g in gens]
                       + [(1 - t) * fp.as_expr()])
    return [sympy.Poly(p, *sympy.symbols(ctx.names)).exquo(fp).as_expr() for p in meet]


def sympy_saturation(gens, f: Polynomial):
    t = sympy.Symbol("t_aux")
    return eliminate_t(f.ctx, [as_sympy(g).as_expr() for g in gens]
                       + [1 - t * as_sympy(f).as_expr()])


def check(ideal: Ideal, candidates):
    """The basis equals sympy's; membership agrees on every candidate."""
    gens = sympy.symbols(ideal.ctx.names)
    theirs = sympy.groebner([as_sympy(g) for g in ideal.gens], *gens,
                            order="grevlex", domain="QQ")
    ours = ideal.basis()
    assert len(ours) == len(theirs.polys)
    assert {frozenset(b.terms.items()) for b in ours} == {as_terms(p) for p in theirs.polys}
    for p in candidates:
        assert ideal.contains(p) == theirs.contains(as_sympy(p).as_expr()), str(p)


def candidates(rng, ideal: Ideal, count=4):
    """Combinations of the generators, members by construction, and the same
    with a random polynomial added, which sympy decides."""
    out = []
    for _ in range(count):
        member = Polynomial.zero(ideal.ctx)
        for g in ideal.gens:
            member = member + rand_poly(rng, ideal.ctx, 2, 2) * g
        assert ideal.contains(member)
        out += [member, member + rand_poly(rng, ideal.ctx, 2, 2)]
    return out


@pytest.mark.parametrize("seed", range(20))
def test_seeded_ideals_match_sympy(seed):
    rng = random.Random(4000 + seed)
    gens = [rand_poly(rng, C3) for _ in range(rng.randint(2, 3))]
    ideal = Ideal(C3, gens)
    check(ideal, candidates(rng, ideal))


@pytest.mark.parametrize("seed", range(10))
def test_redundant_inputs_give_sympys_basis(seed):
    # the engine drops inputs that the others reduce to zero before it
    # pairs them: a duplicate, a rational multiple and a combination of the
    # others must leave sympy's basis of the plain generators
    rng = random.Random(4100 + seed)
    gens = [rand_poly(rng, C3) for _ in range(rng.randint(2, 3))]
    member = Polynomial.zero(C3)
    for g in gens:
        member = member + rand_poly(rng, C3, 2, 2) * g
    redundant = gens + [gens[0], Fraction(-3, 7) * gens[-1], member]
    rng.shuffle(redundant)
    same_basis(Ideal(C3, redundant), [as_sympy(g) for g in gens])


@pytest.mark.parametrize("name", ["s1", "crosscap"])
def test_ft_and_bruce_roberts_ideals_match_sympy(name, request):
    G = request.getfixturevalue(f"{name}_image")
    rng = random.Random(name)
    for ideal in (ft_ideal(G), _br_ideal(G)):
        s = Polynomial.variable(G.ctx, G.spec.parameter)
        check(ideal, candidates(rng, ideal, 2) + [s, s ** 2, G.g])


@pytest.mark.parametrize("seed", range(10))
def test_quotient_and_saturation_match_sympy(seed):
    # by a variable and by a polynomial that is no monomial
    rng = random.Random(5000 + seed)
    gens = [rand_poly(rng, C3, 3, 2) for _ in range(rng.randint(2, 3))]
    x = Polynomial.variable(C3, "x")
    for f in (x, x + rand_poly(rng, C3, 2, 2)):
        if f.is_zero():
            continue
        same_basis(ideal_quotient(gens, f), sympy_quotient(gens, f))
        same_basis(Ideal(C3, gens).saturation(f), sympy_saturation(gens, f))


@pytest.mark.parametrize("name", ["s1", "crosscap"])
def test_report_saturations_match_sympy(name, request):
    # FT : s^infinity, and the slice oracle's Jac(g_s0) : g_s0^infinity at
    # its baseline s0 = 0 and at a sample value
    G = request.getfixturevalue(f"{name}_image")
    s = Polynomial.variable(G.ctx, G.spec.parameter)
    ft = ft_ideal(G).basis()
    same_basis(Ideal(G.ctx, ft).saturation(s), sympy_saturation(ft, s))
    for s0 in (Fraction(0), Fraction(1, 2)):
        g = G.g.specialize({G.spec.parameter: s0})
        jac = [p for p in (g.partial(n) for n in g.ctx.names) if not p.is_zero()]
        same_basis(Ideal(g.ctx, jac).saturation(g), sympy_saturation(jac, g))


def eight_points(rng):
    """Generators of the ideal of the points {0, a} x {0, b} x {0, c}, a, b
    and c seeded nonzero rationals, mixed by a seeded unimodular change,
    and the point (a, b, c)."""
    a, b, c = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
               for _ in range(3))
    x, y, z = (Polynomial.variable(C3, n) for n in C3.names)
    g = [x * (x - a), y * (y - b), z * (z - c)]
    mixed = [g[0] + rand_poly(rng, C3, 2, 1) * g[1], g[1] + rand_poly(rng, C3, 2, 1) * g[2], g[2]]
    return mixed, (a, b, c)


@pytest.mark.parametrize("seed", range(5))
def test_zero_dimensional_saturations_match_sympy(seed, monkeypatch):
    rng = random.Random(5100 + seed)
    gens, point = eight_points(rng)
    x, y, z = (Polynomial.variable(C3, n) for n in C3.names)
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    nowhere = scale * (x * x + y * y + z * z + 1)
    once = scale * sum(((v - p) ** 2 for v, p in zip((x, y, z), point)), Polynomial.zero(C3))
    calls = []
    real = gb.ideal_quotient
    monkeypatch.setattr(gb, "ideal_quotient",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    for f, count, harvests in ((nowhere, 8, 0), (once, 7, 1)):
        calls.clear()
        sat = Ideal(C3, gens).saturation(f)
        assert len(calls) == harvests
        assert sat.quotient_dimension() == count
        same_basis(sat, sympy_saturation(gens, f))


@pytest.mark.parametrize("seed", range(10))
def test_seeded_eliminations_match_sympy(seed):
    rng = random.Random(6000 + seed)
    gens = [rand_poly(rng, TXY, 3, 2) for _ in range(rng.randint(2, 3))]
    ideal = Ideal(TXY, gens)
    same_basis(ideal.elimination(["t"]), sympy_elimination(ideal, ["t"]))


def graph_ideals(spec):
    """The graph ideal (y - f(x, s)) of each branch."""
    ctx = VariableContext.make(source=spec.source, target=spec.target,
                               parameter=(spec.parameter,))
    for branch in spec.branches:
        yield Ideal(ctx, [Polynomial.variable(ctx, y) - p.rename(ctx)
                          for y, p in zip(spec.target, branch)])


FAMILY = {g.name: g.text for g in families.generate(1)}


@pytest.mark.parametrize("name", ["crosscap", "s1", "twoplane"] + list(FAMILY))
def test_graph_eliminations_match_sympy(name):
    spec = (parse_germ_file(FAMILY[name]) if name in FAMILY else load(name)).spec
    for graph in graph_ideals(spec):
        image = graph.elimination(spec.source)
        assert len(image.basis()) == 1
        same_basis(image, sympy_elimination(graph, spec.source))


def sympy_standard_monomials(ctx: VariableContext, gens):
    """How many monomials no lead of sympy's grevlex basis divides, walking
    up from 1; INFINITE when that basis is neither zero-dimensional nor the
    unit ideal's [1], which sympy does not count as zero-dimensional. The
    generators are Polynomials or sympy expressions."""
    syms = sympy.symbols(ctx.names)
    theirs = sympy.groebner([g if isinstance(g, sympy.Expr) else as_sympy(g).as_expr()
                             for g in gens], *syms, order="grevlex", domain="QQ")
    if not theirs.is_zero_dimensional and theirs.exprs != [1]:
        return INFINITE
    leads = [p.monoms(order="grevlex")[0] for p in theirs.polys]
    seen, todo = set(), [(0,) * len(ctx)]
    while todo:
        mono = todo.pop()
        if mono in seen or any(all(a <= b for a, b in zip(lead, mono)) for lead in leads):
            continue
        seen.add(mono)
        todo += [mono[:i] + (mono[i] + 1,) + mono[i + 1:] for i in range(len(ctx))]
    return len(seen)


def power_plus_lower(rng, ctx, i):
    """x_i^a plus random terms of lower degree: its top-degree part is x_i^a."""
    a = rng.randint(1, 4)
    p = Polynomial.variable(ctx, ctx.names[i]) ** a
    for _ in range(rng.randint(0, 2)):
        exp = [0] * len(ctx)
        for _ in range(rng.randint(0, a - 1)):
            exp[rng.randrange(len(ctx))] += 1
        p = p + Polynomial(ctx, {tuple(exp): Fraction(rng.randint(-4, 4))})
    return p


@pytest.mark.parametrize("seed", range(10))
def test_quotient_dimension_matches_sympy(seed):
    # a random ideal, mostly of positive dimension, and one whose leading
    # forms x^a, y^b, z^c make it zero-dimensional
    rng = random.Random(7000 + seed)
    for gens in ([rand_poly(rng, C3) for _ in range(rng.randint(2, 3))],
                 [power_plus_lower(rng, C3, i) for i in range(3)]
                 + [rand_poly(rng, C3, 2, 2)]):
        assert Ideal(C3, gens).quotient_dimension() == sympy_standard_monomials(C3, gens)


@pytest.mark.parametrize("seed", range(10))
def test_local_colength_matches_the_global_one(seed):
    rng = random.Random(8000 + seed)
    names = C3.names
    gens = [Polynomial.variable(C3, n) ** rng.randint(1, 4) for n in names]
    gens += [rand_poly(rng, C3, 3, 2) for _ in range(rng.randint(1, 3))]
    count = sympy_standard_monomials(C3, gens)
    assert local_colength(C3, gens) == Ideal(C3, gens).quotient_dimension() == count


@pytest.mark.parametrize("seed", range(10))
def test_colength_with_a_variable_is_the_count_at_zero(seed):
    # the germs modulo I + (z) are the germs in x, y modulo I with z = 0;
    # there that ideal holds pure powers of x and y, so sympy's global count
    # is the local one. An ideal inside (z) is INFINITE both ways.
    rng = random.Random(8100 + seed)
    x, y, z = (Polynomial.variable(C3, n) for n in C3.names)
    gens = [x ** rng.randint(1, 4) + z * rand_poly(rng, C3, 2, 2),
            y ** rng.randint(1, 4) + z * rand_poly(rng, C3, 2, 2)]
    gens += [rand_poly(rng, C3, 3, 2) for _ in range(rng.randint(0, 2))]
    xy = C3.drop(["z"])
    at_zero = [g.specialize({"z": 0}) for g in gens]
    count = sympy_standard_monomials(xy, at_zero)
    assert local_colength(C3, gens + [z]) == local_colength(xy, at_zero) == count
    inside = [z * rand_poly(rng, C3, 3, 2) for _ in range(2)]
    assert local_colength(C3, inside + [z]) is INFINITE
    assert local_colength(xy, [g.specialize({"z": 0}) for g in inside]) is INFINITE


@pytest.mark.parametrize("name", ["s1"] + [n for n in FAMILY if n.endswith("skew")])
def test_integer_slice_counts_as_the_monic_one(name):
    # the oracle clears the denominators of g_s0; the monic g_s0, with its
    # Fraction coefficients, and sympy's saturation must count the same
    gf = parse_germ_file(FAMILY[name]) if name in FAMILY else load(name)
    G = image_equation(gf.spec, gf.config())
    s0 = Fraction(25, 49)
    g = G.g.specialize({G.spec.parameter: s0})
    assert any(c.denominator != 1 for c in g.terms.values())
    jac = [p for p in (g.partial(n) for n in g.ctx.names) if not p.is_zero()]
    monic = Ideal(g.ctx, jac).saturation(g).quotient_dimension()
    theirs = sympy_standard_monomials(g.ctx, sympy_saturation(jac, g))
    assert slice_milnor_total(G, s0=s0).raw == monic == theirs
