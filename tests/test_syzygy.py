import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from germinv import (
    ComputeConfig, GermInputError, Ideal, Polynomial, ResourceLimitError, VariableContext,
    ideal_quotient, image_equation, kernel_fields, parameter_part, syzygy_basis,
    tangent_fields,
)
from germinv.config import DEFAULT_CONFIG
from germinv.germfile import load_germ_file, parse_germ_file
from germinv.gb import _encode, _engine

from conftest import corpus_path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import families  # noqa: E402

C2 = VariableContext.make(source=("x", "y"))
X, Y = (Polynomial.variable(C2, n) for n in ("x", "y"))

TCTX = VariableContext.make(target=("y1", "y2", "y3"), parameter=("s",))
Y1, Y2, Y3, S = (Polynomial.variable(TCTX, n) for n in TCTX.names)


def rand_poly(rng, ctx, max_terms=3, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(len(ctx)))
        terms[exp] = Fraction(rng.randint(-3, 3) or 1)
    return Polynomial(ctx, terms)


def dot(vec, polys):
    acc = Polynomial.zero(polys[0].ctx)
    for v, p in zip(vec, polys):
        acc = acc + v * p
    return acc


def module(gens, ctx, rank):
    """Membership in the submodule of R^rank that the vectors `gens`
    generate: the engine's zero-remainder test against a full module basis
    of them, computed once."""
    eng = _engine(ctx, rank, DEFAULT_CONFIG)
    basis = [eng.decoded(e) for e in eng.basis([_encode(v, rank) for v in gens])]
    return lambda vec: eng.reduce([_encode(vec, rank)], basis)


# -- exactness ------------------------------------------------------------------

def test_syzygies_annihilate_randomized():
    rng = random.Random(43)
    for _ in range(120):
        polys = [rand_poly(rng, C2) for _ in range(rng.randint(2, 3))]
        for vec in syzygy_basis(polys):
            assert dot(vec, polys).is_zero()


def test_koszul_relations_are_captured():
    rng = random.Random(47)
    for _ in range(25):
        polys = [rand_poly(rng, C2) for _ in range(3)]
        k = len(polys)
        contains = module(syzygy_basis(polys), C2, k)
        for i in range(k):
            for j in range(i + 1, k):
                vec = [Polynomial.zero(C2)] * k
                vec[i] = polys[j]
                vec[j] = -polys[i]
                assert contains(tuple(vec))


def test_pair_syzygy_known_generator():
    basis = syzygy_basis([X, Y])
    contains = module(basis, C2, 2)
    assert contains((Y, -X))
    assert not contains((Y, X))
    # and the module is exactly that relation: one generator
    assert len(basis) == 1


def test_koszul_of_regular_sequence_is_whole_module():
    # x, y, with x^2: relations of (x, y) extend
    contains = module(syzygy_basis([X ** 2, X * Y]), C2, 2)
    assert contains((Y, -X))
    assert contains((X * Y, -X ** 2))
    assert not contains((X, -X))


def test_zero_entry_yields_unit_syzygy():
    basis = syzygy_basis([X, Polynomial.zero(C2)])
    unit = (Polynomial.zero(C2), Polynomial.constant(C2, 1))
    assert any(v == unit for v in basis)


# -- vector fields of a hypersurface equation ------------------------------------

def test_parameter_free_equation_has_unit_parameter_field():
    g = Y1 ** 2 * Y2 - Y3 ** 2          # no s anywhere
    kern = kernel_fields(g)
    assert all(len(v) == len(TCTX) for v in kern)    # slot i is TCTX.names[i]
    unit = (Polynomial.zero(TCTX),) * 3 + (Polynomial.constant(TCTX, 1),)
    assert any(v == unit for v in kern)
    ft = parameter_part(TCTX, kern)
    assert ft.basis() == [1]


def test_kernel_fields_annihilate():
    g = Y1 ** 4 * Y2 + 2 * Y1 ** 2 * Y2 ** 2 + 2 * Y1 ** 2 * Y2 * S + \
        Y2 ** 3 + 2 * Y2 ** 2 * S + Y2 * S ** 2 - Y3 ** 2
    kern = kernel_fields(g)
    parts = [g.partial(n) for n in TCTX.names]
    for v in kern:
        assert dot(v, parts).is_zero()


def test_tangent_fields_preserve_ideal():
    g = Y1 ** 2 * Y2 - Y3 ** 2
    tang = tangent_fields(g)
    gid_gens = [g]
    from germinv import Ideal
    gid = Ideal(TCTX, gid_gens)
    parts = [g.partial(n) for n in TCTX.names]
    for v in tang:
        assert gid.contains(dot(v, parts))
    # the weighted Euler field (weights 1,2,2) is tangent: it maps g to 4g
    euler = (Y1, 2 * Y2, 2 * Y3, Polynomial.zero(TCTX))
    assert dot(euler, parts) == 4 * g
    assert module(tang, TCTX, len(TCTX))(euler)


def test_kernel_fields_are_tangent_fields():
    g = Y1 ** 2 * Y2 - Y3 ** 2 + S * Y2 ** 2
    contains = module(tangent_fields(g), TCTX, len(TCTX))
    for v in kernel_fields(g):
        assert contains(v)


def test_parameter_part_needs_a_parameter():
    basis = syzygy_basis([X, Y])      # source-only context
    with pytest.raises(GermInputError):
        parameter_part(C2, basis)


def test_syzygies_over_a_unit_multiple():
    # x^2 + x^3 is x^2 times a local unit; localization is flat, so the
    # global generators serve the local ring too
    polys = [X ** 2 + X ** 3, X * Y]
    basis = syzygy_basis(polys)
    for vec in basis:
        assert dot(vec, polys).is_zero()
    contains = module(basis, C2, 2)
    assert contains((-Y, X + X ** 2))           # -y*(x^2+x^3) + (x+x^2)*(x*y) = 0
    assert not contains((-Y, X))


# -- the harvest: a generating set, not a basis ----------------------------------

C3 = VariableContext.make(source=("x", "y", "z"))


def test_module_basis_stops_at_its_degree_bound():
    # the module order puts the slot before the degree, so a new element of
    # this run has a term above max_degree=8: it is refused at once
    f, g = -X ** 4 * Y ** 4 + X ** 3 * Y ** 2 - Y, -2 * X ** 2 * Y ** 4
    with pytest.raises(ResourceLimitError) as info:
        syzygy_basis([f, g], ComputeConfig(max_degree=8))
    assert info.value.stage == "module basis"
    [(a, b)] = syzygy_basis([f, g])
    assert (a * f + b * g).is_zero()


def full_syzygies(polys):
    """The syzygies in a full module basis of the rows (p_i, e_i): every
    pair formed and the result minimalized."""
    ctx = polys[0].ctx
    k, n = len(polys), len(ctx)
    one, zero = Polynomial.constant(ctx, 1), Polynomial.zero(ctx)
    rows = [_encode([p] + [one if j == i else zero for j in range(k)], k + 1)
            for i, p in enumerate(polys)]
    eng = _engine(ctx, k + 1, DEFAULT_CONFIG)
    out = []
    for elt in eng.basis(rows):
        terms = eng.decoded(elt)
        if any(t[n] == 0 for t in terms):
            continue
        split = [{} for _ in range(k)]
        for t, c in terms.items():
            split[t[n] - 1][t[:n]] = Fraction(c)
        out.append(tuple(Polynomial(ctx, d) for d in split))
    return out


def test_harvest_generates_the_whole_module_in_any_input_order():
    # the harvest is no basis, so its elements depend on the input order;
    # the module they generate must not, and must be the one a full basis
    # of the syzygies generates
    rng = random.Random(53)
    for trial in range(64):
        ctx = C2 if trial % 2 else C3
        polys = [rand_poly(rng, ctx) for _ in range(rng.randint(2, 4))]
        perm = list(range(len(polys)))
        rng.shuffle(perm)
        basis = syzygy_basis(polys)
        back = []
        for vec in syzygy_basis([polys[i] for i in perm]):
            out = [None] * len(vec)
            for slot, i in enumerate(perm):
                out[i] = vec[slot]
            back.append(tuple(out))
        full = full_syzygies(polys)
        for gens, others in ((back, basis), (basis, back), (full, basis), (basis, full)):
            contains = module(gens, ctx, len(polys))
            assert all(contains(v) for v in others)


FAMILY = {g.name: g.text for g in families.generate(1)
          if g.name.split("-")[1] in ("S3", "B3", "C3", "A_odd3")}
FIELD_GERMS = ["s1", "crosscap", "twoplane"] + sorted(n for n in FAMILY if "A_odd3" not in n)


def image_of(name):
    gf = parse_germ_file(FAMILY[name]) if name in FAMILY else load_germ_file(corpus_path(name))
    return image_equation(gf.spec, gf.config()).g


def full_parameter_parts(g):
    """The FT and BR ideals from the parameter slots of full module bases
    of the kernel and the tangent syzygies."""
    pidx = g.ctx.parameter_index()
    parts = [g.partial(v) for v in g.ctx.names]
    # the tangent run's cofactor slot is last, after the parameter slot
    return [Ideal(g.ctx, [v[pidx] for v in full_syzygies(polys)])
            for polys in (parts, parts + [g])]


@pytest.mark.parametrize("name", FIELD_GERMS)
def test_harvested_parameter_parts_match_a_full_module_basis(name):
    g = image_of(name)
    fields = (kernel_fields(g), tangent_fields(g))
    for fs, full in zip(fields, full_parameter_parts(g)):
        assert parameter_part(g.ctx, fs).basis() == full.basis()


# -- ideal quotients -------------------------------------------------------------

def test_ideal_quotients_by_hand():
    assert ideal_quotient([X ** 2, X * Y], X).basis() == Ideal(C2, [X, Y]).basis()
    assert ideal_quotient([X * Y], X).basis() == [Y]
    gens = [X ** 3 - Y ** 2, X * Y + Y]
    assert ideal_quotient(gens, Polynomial.constant(C2, 1)).basis() == Ideal(C2, gens).basis()
    assert ideal_quotient(gens, Polynomial.zero(C2)).basis() == [1]
    assert ideal_quotient([], X).basis() == []
    # zero generators are skipped
    zero = Polynomial.zero(C2)
    assert ideal_quotient([zero, X * Y, zero], X).basis() == [Y]
    q = ideal_quotient([X * Y], X)
    assert q.ctx == C2


def test_ideal_quotient_refuses_mixed_contexts():
    C3X = Polynomial.variable(C3, "x")
    with pytest.raises(GermInputError):
        ideal_quotient([X * Y, C3X], X)
    with pytest.raises(GermInputError):
        ideal_quotient([X * Y], C3X)


@pytest.mark.parametrize("name", FIELD_GERMS + sorted(n for n in FAMILY if "A_odd3" in n))
def test_ideal_quotients_match_a_full_module_basis(name):
    # (dg/dy) : dg/ds and (dg/dy, g) : dg/ds are the FT and BR ideals
    g = image_of(name)
    s = g.ctx.names[g.ctx.parameter_index()]
    dy = [g.partial(v) for v in g.ctx.names if v != s]
    ft, br = full_parameter_parts(g)
    assert ideal_quotient(dy, g.partial(s)).basis() == ft.basis()
    assert ideal_quotient(dy + [g], g.partial(s)).basis() == br.basis()
