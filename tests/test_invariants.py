from fractions import Fraction

import pytest

from germinv import (
    DEFAULT_CONFIG, EMPTY, ComputeConfig, GermInputError, INFINITE, Ideal,
    ImageEquation, MapGermSpec, OrderingSpec, Polynomial, ResourceLimitError,
    SamuelResult, VariableContext, ae_codimension, bruce_roberts_number,
    euler_degree, euler_ideal_identity, ft_codim, ft_dimension, full_report,
    image_equation, image_milnor_number, lc_ideal, milnor_number,
    samuel_multiplicity, slice_milnor_total,
)
from germinv.exprparse import parse_polynomial

from conftest import load

SCTX = VariableContext.make(source=("x", "y"), parameter=("s",))
TCTX = VariableContext.make(target=("y1", "y2", "y3"), parameter=("s",))


def poly(text, ctx=SCTX):
    return parse_polynomial(text, ctx)


def spec_of(*branch_texts, **kw):
    branches = tuple(tuple(poly(t) for t in b) for b in branch_texts)
    return MapGermSpec(source=("x", "y"), target=("y1", "y2", "y3"),
                       parameter="s", branches=branches, **kw)


# -- input validation ------------------------------------------------------------

def test_spec_shape_validation():
    with pytest.raises(GermInputError):
        MapGermSpec(source=("x", "y"), target=("y1", "y2"), parameter="s",
                    branches=((poly("x"), poly("y")),))
    with pytest.raises(GermInputError):
        spec_of()                                       # no branches
    with pytest.raises(GermInputError):
        spec_of(("x", "y^2"))                           # branch arity
    with pytest.raises(GermInputError):
        spec_of(("x", "y", "x + 1"))                    # origin not fixed


def test_branch_not_finite_is_rejected():
    spec = spec_of(("x", "x^2", "x^3"))                 # twisted cubic image
    with pytest.raises(GermInputError, match="elimination ideal not principal"):
        image_equation(spec)


def test_multigerm_shared_component_rejected():
    spec = spec_of(("x", "y", "0"), ("x", "y", "0"))
    with pytest.raises(GermInputError, match="share an image component"):
        image_equation(spec)


def test_user_supplied_image_is_checked_against_branches():
    wrong = parse_polynomial("y1 - y2", TCTX)
    spec = spec_of(("x", "y^2", "x*y"), image_g=wrong)
    with pytest.raises(GermInputError, match="vanish on branch"):
        image_equation(spec)


def test_user_supplied_image_matches_eliminated_route():
    g = parse_polynomial("y1^2*y2 - y3^2", TCTX)
    supplied = image_equation(spec_of(("x", "y^2", "x*y"), image_g=g,
                                      is_stabilisation=True))
    assert supplied.provenance == "user-supplied"
    assert image_milnor_number(supplied).multiplicity == 0
    assert bruce_roberts_number(supplied) == 0


# -- stable fixtures ---------------------------------------------------------------

def test_crosscap_everything_vanishes(crosscap_image):
    G = crosscap_image
    assert G.provenance == "eliminated"
    assert str(G.g) == "y1^2*y2 - y3^2"
    assert ft_codim(G) == 0
    assert ft_dimension(G) is EMPTY
    mu = image_milnor_number(G)
    assert mu.multiplicity == 0 and mu.profile == (0, 0, 0)
    assert bruce_roberts_number(G) == 0
    assert ae_codimension(G) == 0
    sl = slice_milnor_total(G)
    assert sl.total == 0 and sl.raw == sl.baseline
    assert G.warnings == ()


def test_twoplane_multigerm_is_stable(twoplane_image):
    G = twoplane_image
    assert len(G.factors) == 2
    assert str(G.g) == "y2*y3"
    assert ft_codim(G) == 0
    assert image_milnor_number(G).multiplicity == 0
    assert bruce_roberts_number(G) == 0
    assert ae_codimension(G) == 0
    assert slice_milnor_total(G).total == 0


# -- the S1 unstable fixture --------------------------------------------------------

def test_s1_invariants(s1_image):
    G = s1_image
    assert ft_codim(G) == 1
    assert ft_dimension(G) == 1
    mu = image_milnor_number(G)
    assert mu.multiplicity == 1
    assert mu.profile == (1, 2, 3)
    assert bruce_roberts_number(G) == 1   # frozen regression value
    assert ae_codimension(G) == 1


def test_s1_slice_oracle_pinned_and_seeded(s1_image):
    pinned = slice_milnor_total(s1_image, s0=Fraction(1, 3))
    assert pinned.total == 1 and pinned.s0 == Fraction(1, 3)
    assert pinned.baseline == 0 and pinned.raw == 1
    for seed in (0, 1, 2):
        assert slice_milnor_total(s1_image, seed=seed).total == 1


def test_s1_quasi_homogeneous_identity(s1_image):
    assert euler_degree(s1_image) == 6
    assert euler_ideal_identity(s1_image)


def test_s1_characteristic_ideal(s1_image):
    lc = lc_ideal(s1_image)
    assert lc.substitution_identity()
    assert lc.certified_dimension() == 5


def test_s1_full_report(s1_image):
    r = full_report(s1_image.spec, s1_image.config, with_lc=True,
                    image=s1_image)
    assert r.mu_image == 1 == r.mu_image_oracle
    assert r.ft_codim == 1 and r.mu_br == 1 and r.ae_codim == 1
    assert r.cm_flag and r.stability == "unstable"
    assert r.ft_dim == 1 and r.lc_dim == 5
    assert not r.route_disagreement
    assert r.warnings == ()


# -- gates -----------------------------------------------------------------------

def test_stabilisation_gate():
    G = image_equation(spec_of(("x", "y^2", "x*y")))    # flag not asserted
    with pytest.raises(GermInputError, match="stabilisation"):
        image_milnor_number(G)


def test_stable_unfolding_gate(s1_image):
    spec = spec_of(("x", "y^2", "y^3 + x^2*y + s*y"), is_stabilisation=True)
    G = image_equation(spec)
    with pytest.raises(GermInputError, match="stable_unfolding"):
        ae_codimension(G)


# -- multiplicity along the parameter ----------------------------------------------

YS = VariableContext.make(source=("y",), parameter=("s",))
XT = VariableContext.make(source=("x",), parameter=("t",))
LOCAL = OrderingSpec.local()


def local_ideal(ctx, *texts):
    return Ideal(ctx, [parse_polynomial(t, ctx) for t in texts], LOCAL)


def test_multiplicity_of_a_non_cohen_macaulay_quotient():
    # A = O/(y^2, y*s^3) over (y, s). Saturating by s gives (y), so e = 1.
    # d_k = dim O/(y^2, y*s^3, s^k) counts 1, s, .., s^(k-1) and
    # y, y*s, .., y*s^(min(k, 3) - 1): 2k for k <= 3, then k + 3.
    # The increments 2, 2, 2, 1 stop at the first one equal to e.
    r = samuel_multiplicity(local_ideal(YS, "y^2", "y*s^3"), "s")
    assert r == SamuelResult(1, (2, 4, 6, 7))


def test_multiplicity_needs_no_power_cap():
    # as above with y*s^14: d_k = 2k for k <= 14, then k + 14; the torsion
    # y, y*s, .., y*s^13 outlasts any small cap on k
    r = samuel_multiplicity(local_ideal(YS, "y^2", "y*s^14"), "s")
    assert r == SamuelResult(1, tuple(range(2, 29, 2)) + (29,))


def test_multiplicity_budget_is_a_resource_limit():
    with pytest.raises(ResourceLimitError, match="max_pairs=1"):
        samuel_multiplicity(local_ideal(XT, "x^3 - t^2 + x^2*t"), "t",
                            ComputeConfig(max_pairs=1))


# -- milnor oracle ------------------------------------------------------------------

C2 = VariableContext.make(source=("x", "y"))


def test_milnor_a_series():
    for k in range(1, 7):
        p = parse_polynomial(f"x^{k + 1} + y^2", C2)
        assert milnor_number(p) == k


def test_milnor_morse_dominates_cubic_terms():
    # the x*y term makes the origin an A_1 point; frozen oracle value
    assert milnor_number(parse_polynomial("x^3 + y^3 + x*y", C2)) == 1


def test_milnor_nonisolated_is_infinite():
    assert milnor_number(parse_polynomial("x^2*y^2", C2)) is INFINITE


def test_milnor_rejects_bad_input():
    with pytest.raises(GermInputError):
        milnor_number(Polynomial.zero(C2))
    with pytest.raises(GermInputError):
        milnor_number(parse_polynomial("x^2 + 1", C2))


# -- slice oracle edge cases ----------------------------------------------------------

def test_slice_rejects_zero_sample(s1_image):
    with pytest.raises(GermInputError):
        slice_milnor_total(s1_image, s0=Fraction(0))


def test_slice_baseline_subtracts_preexisting_critical_points():
    # the x^3*y term plants a critical point far from the origin that exists
    # for every parameter value; the baseline removes it from the count
    spec = spec_of(("x", "y^2", "y^3 + x^2*y + x^3*y + s*y"),
                   is_stabilisation=True)
    G = image_equation(spec)
    sl = slice_milnor_total(G, seed=5)
    assert sl.baseline == 1 and sl.raw == 2 and sl.total == 1
    assert sl.total == image_milnor_number(G).multiplicity


def test_pinned_degenerate_slice_value_is_refused(crosscap_image):
    # at s = 1 exactly, the critical locus of g_s contains the whole plane
    # {y1 = 0} off the image; any other sample is harmless
    g = parse_polynomial("y1^4 - 2*y1^2*s + s^2 + y2 - s*y2", TCTX)
    G = ImageEquation(crosscap_image.spec, g, "user-supplied", (g,), ())
    assert slice_milnor_total(G, seed=3).total == 0
    with pytest.raises(GermInputError, match="degenerate"):
        slice_milnor_total(G, s0=Fraction(1))


def test_nongeneric_sample_is_outvoted(exam1_image):
    # seed 2 first draws s0 = 2/3, where a critical point of the slice falls
    # onto the image and the raw count silently drops by one; the oracle must
    # not accept a count until a second sample reproduces it
    sl = slice_milnor_total(exam1_image, seed=2)
    assert sl.total == 7
    assert Fraction(2, 3) in sl.rejected


def test_slice_degenerate_baseline_is_an_error(crosscap_image):
    # g0 = y1^3 - 3*y1 has critical planes {y1 = ±1} where g0 ≠ 0: the
    # off-slice locus at parameter zero is not isolated, so no baseline
    g = parse_polynomial("y1^3 - 3*y1 + s*y2", TCTX)
    G = ImageEquation(crosscap_image.spec, g, "user-supplied", (g,), ())
    with pytest.raises(GermInputError, match="baseline is degenerate"):
        slice_milnor_total(G)


# -- quasi-homogeneity validation ------------------------------------------------------

def test_euler_degree_requires_weights(crosscap_image):
    with pytest.raises(GermInputError, match="no weights"):
        euler_degree(crosscap_image)


def test_euler_degree_rejects_bad_weights():
    base = spec_of(("x", "y^2", "y^3 + x^2*y + s*y"), is_stabilisation=True)
    wrong = MapGermSpec(source=base.source, target=base.target,
                        parameter=base.parameter, branches=base.branches,
                        is_stabilisation=True,
                        weights={"y1": 1, "y2": 1, "y3": 1, "s": 1})
    with pytest.raises(GermInputError, match="weighted homogeneous"):
        euler_degree(image_equation(wrong))
    incomplete = MapGermSpec(source=base.source, target=base.target,
                             parameter=base.parameter, branches=base.branches,
                             is_stabilisation=True, weights={"y1": 1})
    with pytest.raises(GermInputError, match="missing"):
        euler_degree(image_equation(incomplete))
    negative = MapGermSpec(source=base.source, target=base.target,
                           parameter=base.parameter, branches=base.branches,
                           is_stabilisation=True,
                           weights={"y1": -1, "y2": 2, "y3": 3, "s": 2})
    with pytest.raises(GermInputError, match="positive"):
        euler_degree(image_equation(negative))
