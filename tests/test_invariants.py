import math
import os
import pickle
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from germinv import (
    DEFAULT_CONFIG, EMPTY, ComputeConfig, GermInputError, INFINITE, Ideal,
    ImageEquation, InvariantReport, MapGermSpec, Polynomial, ResourceLimitError,
    SamuelResult, SliceResult, VariableContext, ae_codimension, bruce_roberts_number,
    euler_degree, euler_ideal_identity, ft_codim, ft_dimension, ft_ideal,
    full_report, ideal_quotient, image_equation, image_milnor_number, kernel_fields,
    lc_ideal, milnor_number, samuel_multiplicity, slice_milnor_total,
)
import germinv.cli as cli
import germinv.invariants as inv
from germinv.errors import ParseError
from germinv.exprparse import parse_polynomial
from germinv.germfile import GermFile, parse_germ_file
from germinv.orderings import degrevlex

from conftest import load

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import families  # noqa: E402

FAMILY = {g.name: g.text for g in families.generate(1)}

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


def test_spec_refuses_fields_the_parser_never_gives():
    # a list compares unequal to the parsed spec's tuple, and a flag that is
    # no bool prints as asserted: each is refused with the spec
    parsed = load("s1").spec
    fields = {name: getattr(parsed, name) for name in MapGermSpec.__slots__}
    assert MapGermSpec(**fields) == parsed
    for field, value, match in (
            ("source", list(parsed.source), "must be tuples"),
            ("target", list(parsed.target), "must be tuples"),
            ("branches", list(parsed.branches), "must be tuples"),
            ("branches", (list(parsed.branches[0]),), "must be tuples"),
            ("is_stabilisation", "no", "must be bools"),
            ("is_stable_unfolding", 1, "must be bools")):
        with pytest.raises(GermInputError, match=match):
            MapGermSpec(**{**fields, field: value})


def test_branch_not_finite_is_rejected():
    spec = spec_of(("x", "x^2", "x^3"))                 # twisted cubic image
    with pytest.raises(GermInputError, match="elimination ideal not principal"):
        image_equation(spec)


def test_multigerm_shared_component_rejected():
    spec = spec_of(("x", "y", "0"), ("x", "y", "0"))
    with pytest.raises(GermInputError, match="share an image component"):
        image_equation(spec)


# -- stable fixtures ---------------------------------------------------------------

def test_crosscap_everything_vanishes(crosscap_image):
    G = crosscap_image
    assert str(G.g) == "y1^2*y2 - y3^2"
    assert ft_codim(G) == 0
    assert ft_dimension(G) is EMPTY
    mu = image_milnor_number(G)
    assert mu.multiplicity == 0 and mu.profile == (0, 0, 0)
    assert bruce_roberts_number(G) == 0
    assert ae_codimension(G) == 0
    sl = slice_milnor_total(G)
    assert sl.total == 0 and sl.raw == sl.baseline


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


def seeded(G, seed):
    """G under the config seed `seed`, with a cache of its own."""
    return ImageEquation(G.spec, G.g, G.factors, G.config.with_overrides(seed=seed))


def test_s1_slice_oracle_pinned_and_seeded(s1_image):
    pinned = slice_milnor_total(s1_image, s0=Fraction(1, 3))
    assert pinned.total == 1 and pinned.s0 == Fraction(1, 3)
    assert pinned.baseline == 0 and pinned.raw == 1
    for seed in (0, 1, 2):
        assert slice_milnor_total(seeded(s1_image, seed)).total == 1


def test_s1_quasi_homogeneous_identity(s1_image):
    assert euler_degree(s1_image) == 6
    assert euler_ideal_identity(s1_image)


def test_s1_characteristic_ideal(s1_image):
    lc = lc_ideal(s1_image)
    assert lc.substitution_identity()
    assert lc.certified_dimension() == 5


@pytest.mark.parametrize("name", ["crosscap", "s1", "twoplane"] + list(FAMILY))
def test_rank_strata_certificate_equals_the_basis_route(name):
    gf = parse_germ_file(FAMILY[name]) if name in FAMILY else load(name)
    G = image_equation(gf.spec, gf.config())
    lc = lc_ideal(G)
    expected = len(G.ctx) + 1
    assert inv._rank_strata_bound(G)
    assert lc.certified_dimension() == expected == lc.ideal.dimension_bound(expected)


def test_integer_partials_give_what_the_monic_partials_give():
    # a skewed family germ whose image equation has rational coefficients:
    # every stage that reads the cached integer multiple of g and its
    # partials finds what the monic g's own partials give
    gf = parse_germ_file(FAMILY["00-S3-skew"])
    G = image_equation(gf.spec, gf.config())
    g, dg = inv._dg(G)
    coeffs = list(g.terms.values())
    assert any(c.denominator != 1 for c in G.g.terms.values())
    assert all(type(c) is int for c in coeffs) and math.gcd(*coeffs) == 1
    ratio = {c / G.g.terms[e] for e, c in g.terms.items()}
    assert g.terms.keys() == G.g.terms.keys() and len(ratio) == 1 and ratio.pop() > 0
    assert dg == tuple(g.partial(n) for n in G.ctx.names)

    s = G.spec.parameter
    dy = [G.g.partial(n) for n in G.ctx.names if n != s]
    assert ft_ideal(G).basis() == ideal_quotient(dy, G.g.partial(s)).basis()
    assert inv._br_ideal(G).basis() == ideal_quotient(dy + [G.g], G.g.partial(s)).basis()
    assert inv._kernel(G) == kernel_fields(G.g)
    for s0 in (Fraction(1, 2), Fraction(-3, 7)):
        gsl = G.g.specialize({s: s0})
        jac = [gsl.partial(n) for n in gsl.ctx.names]
        monic = Ideal(gsl.ctx, jac).saturation(gsl).quotient_dimension()
        assert inv._off_slice_count(G, s0) == monic


def test_rank_strata_certificate_refuses_a_large_entry_locus():
    # fields whose entries all lie in (y1, y2): I_1 vanishes on the plane
    # y1 = y2 = 0, two dimensions where one is allowed, so the certificate
    # claims nothing and the basis route answers
    gf = load("s1")
    G = image_equation(gf.spec, gf.config())
    y1, y2 = (Polynomial.variable(G.ctx, n) for n in ("y1", "y2"))
    G._cache["kernel"] = [tuple(y * p for p in v)
                          for v in kernel_fields(G.g) for y in (y1, y2)]
    lc = lc_ideal(G)
    assert not inv._rank_strata_bound(G)
    fallback = Ideal(lc.ideal.ctx, lc.ideal.gens, G.config).dimension_bound(len(G.ctx) + 1)
    assert lc.certified_dimension() == fallback == 6


def test_rank_strata_certificate_refuses_a_large_critical_locus(s1_image):
    # y1^2*y2 is critical along the hyperplane y1 = 0, three dimensions where
    # {rank A <= 1} may have two, so the certificate claims nothing and the
    # basis route finds the graph dimension
    g = parse_polynomial("y1^2*y2", TCTX)
    G = ImageEquation(s1_image.spec, g, (g,))
    assert Ideal(TCTX, [g.partial(n) for n in TCTX.names]).dimension() == 3
    assert not inv._rank_strata_bound(G)
    lc = lc_ideal(G)
    fallback = Ideal(lc.ideal.ctx, lc.ideal.gens, G.config).dimension_bound(5)
    assert lc.certified_dimension() == fallback == 5


def test_s1_full_report(s1_image):
    r = full_report(s1_image, with_lc=True)
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
XYT = VariableContext.make(source=("x", "y"), parameter=("t",))


def local_ideal(ctx, *texts, config=DEFAULT_CONFIG):
    # samuel_multiplicity reads only the generators of its handle
    return Ideal(ctx, [parse_polynomial(t, ctx) for t in texts], config=config)


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
        samuel_multiplicity(local_ideal(XT, "x^3 - t^2 + x^2*t",
                                        config=ComputeConfig(max_pairs=1)), "t")


def test_resource_limit_names_its_stage_limit_and_value():
    # the message is the one the command line prints; a colength's stage
    # prefix keeps the attributes of the engine error under it. The basis
    # of I needs no step (coprime leads, no term divisible by the other
    # lead), but one step cannot interreduce the inputs of the first
    # colength, which counts (x^2 + y^4, x^3 + x^2) at t = 0; s1's branch
    # elimination interreduces its first inputs within three steps but
    # needs more than three pairs for their basis, and names its stage.
    cfg = ComputeConfig(max_pairs=1)
    with pytest.raises(ResourceLimitError) as info:
        samuel_multiplicity(local_ideal(XYT, "x^2 + y^4", "x^3 + x^2 + t*x", config=cfg), "t")
    exc = info.value
    assert str(exc) == ("multiplicity profile step k=1: "
                        "ideal reduction exceeded the pair budget (max_pairs=1 steps)")
    assert (exc.stage, exc.limit, exc.value) == ("ideal reduction", "max_pairs", 1)
    gf = load("s1")
    with pytest.raises(ResourceLimitError) as info:
        full_report(image_equation(gf.spec, gf.config().with_overrides(max_pairs=3)),
                    with_lc=False)
    exc = info.value
    assert str(exc) == "image equation: ideal basis exceeded the pair budget max_pairs=3"
    assert (exc.stage, exc.limit, exc.value) == ("ideal basis", "max_pairs", 3)


def test_saturation_budget_errors_name_their_stage():
    # the basis and the first profile colength fit in six pairs, the
    # saturation's quotient runs do not; the slice oracle's saturation
    # names its sample value
    cfg = ComputeConfig(max_pairs=6)
    with pytest.raises(ResourceLimitError) as info:
        samuel_multiplicity(local_ideal(YS, "y^2 - s^3", "y*s^2", config=cfg), "s")
    exc = info.value
    assert str(exc) == ("multiplicity saturation: "
                        "module basis exceeded the pair budget max_pairs=6")
    assert (exc.stage, exc.limit, exc.value) == ("module basis", "max_pairs", 6)
    gf = load("s1")
    G = image_equation(gf.spec, gf.config())
    tight = ImageEquation(G.spec, G.g, G.factors, ComputeConfig(max_pairs=8))
    with pytest.raises(ResourceLimitError) as info:
        inv._off_slice_count(tight, Fraction(0))
    assert str(info.value) == ("slice saturation at s0=0: "
                               "module basis exceeded the pair budget max_pairs=8")


def test_quotient_budget_errors_name_their_ideal():
    # FT and BR are each one quotient run, and the kernel fields, which the
    # LC ideal pairs with cotangent coordinates, one syzygy run; an
    # exhausted budget says which
    gf = load("s1")
    G = image_equation(gf.spec, gf.config())
    for call, what in ((ft_ideal, "ft ideal"),
                       (bruce_roberts_number, "tangent-field ideal"),
                       (lc_ideal, "kernel fields")):
        tight = ImageEquation(G.spec, G.g, G.factors, ComputeConfig(max_pairs=1))
        with pytest.raises(ResourceLimitError) as info:
            call(tight)
        exc = info.value
        assert str(exc) == (f"{what}: module reduction exceeded the pair budget "
                            "(max_pairs=1 steps)")
        assert (exc.stage, exc.limit, exc.value) == ("module reduction", "max_pairs", 1)


def test_a_replaced_config_starts_from_an_empty_cache():
    # a copy under a tighter config must obey it, not answer from G's cache
    gf = load("s1")
    G = image_equation(gf.spec, gf.config())
    assert ft_ideal(G).basis()
    tight = ImageEquation(G.spec, G.g, G.factors, ComputeConfig(max_pairs=1))
    with pytest.raises(ResourceLimitError, match="max_pairs=1"):
        ft_ideal(tight)


# -- records -------------------------------------------------------------------------

def test_records_survive_a_pickle_round_trip():
    # the report's worker sends its results back through a pickle
    spec = load("s1").spec
    report = InvariantReport(
        mu_image=1, mu_image_oracle=1, ft_codim=1, mu_br=1, cm_flag=True,
        stability="unstable", ae_codim=1, samuel_profile=(1, 2, 3), ft_dim=1,
        lc_dim=5, oracle_s0=Fraction(25, 49), warnings=("a warning",))
    for record in (SliceResult(1, Fraction(25, 49), 3, 2, (Fraction(1, 7),)),
                   SamuelResult(1, (1, 2, 3)), report, spec.source_ctx(), spec,
                   ComputeConfig(max_pairs=8), GermFile(spec, (("seed", 3),))):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record


def test_equal_contexts_are_equal_and_hash_equal():
    a = VariableContext.make(source=("x", "y"), parameter=("s",))
    b = VariableContext(("x", "y", "s"), ("source", "source", "parameter"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != VariableContext.make(source=("y", "x"), parameter=("s",))
    assert a != (a.names, a.roles) and (a.names, a.roles) != a and a != a.names
    assert repr(a) == ("VariableContext(names=('x', 'y', 's'), "
                       "roles=('source', 'source', 'parameter'))")
    # a spec is the same kind of record, but not hashable
    spec = load("s1").spec
    fields = ("source", "target", "parameter", "branches", "is_stabilisation",
              "is_stable_unfolding", "weights")
    values = tuple(getattr(spec, name) for name in fields)
    assert spec == MapGermSpec(*values) and spec != values and values != spec
    assert repr(spec) == "MapGermSpec(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)) + ")"
    with pytest.raises(TypeError):
        hash(spec)


def test_record_fields_cannot_be_assigned():
    spec = load("s1").spec
    for record, field in ((spec.source_ctx(), "names"), (spec, "parameter"),
                          (ComputeConfig(), "max_pairs")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_with_overrides_replaces_only_the_named_fields():
    assert ComputeConfig().with_overrides(max_pairs=8) == ComputeConfig(max_pairs=8)


# -- the report's forked worker ------------------------------------------------------

@pytest.mark.parametrize("exc", [
    ResourceLimitError("ft ideal: budget", "module reduction", "max_pairs", 7),
    ParseError("unexpected ')'", 3, 14),
    GermInputError("plain input error"),
])
def test_errors_survive_a_pickle_round_trip(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_worker_errors_come_out_in_sequential_order(monkeypatch):
    # an oracle error crosses the pipe whole, and an error of the parent's
    # Milnor number, first in a sequential run, wins over it
    gf = load("s1")

    def no_oracle(G, s0=None):
        raise ResourceLimitError("oracle gave up", "slice sampling", "s0_retries", 3)

    monkeypatch.setattr(inv, "slice_milnor_total", no_oracle)
    with pytest.raises(ResourceLimitError) as info:
        full_report(image_equation(gf.spec, gf.config()), with_lc=False)
    exc = info.value
    assert (str(exc), exc.stage, exc.limit, exc.value) == (
        "oracle gave up", "slice sampling", "s0_retries", 3)

    def no_mu(G):
        raise GermInputError("mu gave up")

    monkeypatch.setattr(inv, "image_milnor_number", no_mu)
    with pytest.raises(GermInputError, match="mu gave up"):
        full_report(image_equation(gf.spec, gf.config()), with_lc=False)


@pytest.mark.parametrize("error", [GermInputError, KeyboardInterrupt])
def test_an_error_in_the_parent_kills_and_reaps_the_worker(error):
    r, w = os.pipe()

    def sleeper():
        os.write(w, str(os.getpid()).encode())
        time.sleep(60)

    try:
        with pytest.raises(error):
            with inv._worker(sleeper):
                pid = int(os.read(r, 32))
                raise error("parent stage failed")
    finally:
        os.close(r)
        os.close(w)
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_a_dead_worker_is_a_resource_error():
    with pytest.raises(ResourceLimitError) as info:
        with inv._worker(lambda: os.kill(os.getpid(), signal.SIGKILL)) as join:
            join()
    exc = info.value
    assert str(exc) == "report worker ended without a result (killed by SIGKILL)"
    assert (exc.stage, exc.limit, exc.value) == ("report worker", "signal", 9)


def test_without_fork_the_report_is_the_same(monkeypatch):
    # the worker hands back the Bruce-Roberts handle and colength it
    # cached, which are what one process caches itself
    gf = load("s1")
    F = image_equation(gf.spec, gf.config())
    forked = full_report(F, with_lc=True)
    monkeypatch.delattr(os, "fork")
    G = image_equation(gf.spec, gf.config())
    assert full_report(G, with_lc=True) == forked
    assert "br" in G._cache
    kept, own = F._cache["br"], G._cache["br"]
    assert kept.gens == kept.basis() == own.basis() == own.gens
    assert kept._leads == own._leads == own.leading_monomials()
    assert F._cache["mu_br"] == G._cache["mu_br"] == forked.mu_br


def test_a_report_leaves_its_derived_objects_cached(monkeypatch):
    # after a report with the LC check every count reads what it cached:
    # no quotient or kernel run starts again
    gf = load("s1")
    G = image_equation(gf.spec, gf.config())
    report = full_report(G, with_lc=True)
    runs = []
    for name in ("ideal_quotient", "kernel_fields"):
        real = getattr(inv, name)
        monkeypatch.setattr(inv, name, lambda *a, real=real, name=name, **k:
                            runs.append(name) or real(*a, **k))
    assert ft_codim(G) == report.ft_codim
    assert bruce_roberts_number(G) == report.mu_br
    assert lc_ideal(G).substitution_identity()
    assert runs == []
    # a fresh equation does run them, so the counter sees them
    H = image_equation(gf.spec, gf.config())
    ft_codim(H)
    lc_ideal(H)
    assert runs == ["ideal_quotient", "kernel_fields"]


@pytest.mark.parametrize("name", ["s1", "exam1"])
def test_cached_quotients_hold_their_reduced_basis_only(name, request):
    # the FT and BR handles drop the quotient run's harvested generators
    # (s1's FT harvest has 3 that differ from its basis, exam1's BR harvest
    # 38 against a basis of 20) and keep the leads of their basis
    G = request.getfixturevalue(f"{name}_image")
    for handle in (ft_ideal(G), inv._br_ideal(G)):
        assert handle.gens == handle.basis()
        assert handle.leading_monomials() == [max(p.terms, key=degrevlex)
                                              for p in handle.basis()]


def test_a_curve_stabilisation_is_checked_by_milnors_formula(monkeypatch):
    # E_6 (x^3, x^4 + s*x): g(y, 0) = y1^4 - y2^3 has Milnor number 6 and
    # one branch, so a stabilisation has mu_I = (6 - 1 + 1)/2 = 3, where
    # both routes count 2: the assertion is refuted, by the report and by
    # the mu-image command alike
    text = families.germ_text(families.CURVE, (("x^3", "x^4 + s*x"),), None, False)
    gf = parse_germ_file(text)
    with pytest.raises(GermInputError, match="stabilisation assertion is false: both "
                       "routes give mu_image 2, Milnor's formula 3"):
        full_report(image_equation(gf.spec, gf.config()), with_lc=False)
    with pytest.raises(GermInputError, match="stabilisation assertion is false: the "
                       "multiplicity route gives mu_image 2, Milnor's formula 3"):
        cli._cmd_mu_image(image_equation(gf.spec, gf.config()), None)
    # A_6 (x^2, x^7 + s*x): 6 = 2*3 - 1 + 1 and mu_I = 3 pass; a Milnor
    # number that fits no reduced curve is a route disagreement, which
    # mu-image prints as the report does, with exit code 3
    branches, _, mu, _ = families._curve("A_even", 3)
    gf = parse_germ_file(families.germ_text(families.CURVE, branches, None, False))
    assert full_report(image_equation(gf.spec, gf.config()), with_lc=False).mu_image == mu
    assert cli._cmd_mu_image(image_equation(gf.spec, gf.config()), None)[1:] == ((), 0)
    for mu0 in (INFINITE, 5):
        monkeypatch.setattr(inv, "milnor_number", lambda h, config: mu0)
        r = full_report(image_equation(gf.spec, gf.config()), with_lc=False)
        assert r.route_disagreement and r.mu_image == mu
        assert r.warnings == (f"the curve at s=0 has Milnor number {mu0}, which no "
                              "reduced curve with 1 branches has (Milnor's formula)",)
        rows, warnings, code = cli._cmd_mu_image(image_equation(gf.spec, gf.config()), None)
        assert rows[0] == ("mu_image", mu) and warnings == r.warnings and code == 3


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
    # a cylinder over the A_1 curve: singular along the whole z-axis
    c3 = VariableContext.make(source=("x", "y", "z"))
    assert milnor_number(parse_polynomial("x^2 + y^2", c3)) is INFINITE


def test_milnor_brieskorn_pham_goldens():
    # mu(x^a + y^b) = (a - 1)(b - 1), Milnor's formula for Brieskorn-Pham
    # polynomials; (100, 2) has a staircase 99 monomials tall
    for a, b in ((2, 2), (3, 2), (4, 3), (5, 4), (7, 5), (6, 6), (100, 2)):
        p = parse_polynomial(f"x^{a} + y^{b}", C2)
        assert milnor_number(p) == (a - 1) * (b - 1)


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
    sl = slice_milnor_total(seeded(G, 5))
    assert sl.baseline == 1 and sl.raw == 2 and sl.total == 1
    assert sl.total == image_milnor_number(G).multiplicity


def test_pinned_degenerate_slice_value_is_refused(crosscap_image):
    # at s = 1 exactly, the critical locus of g_s contains the whole plane
    # {y1 = 0} off the image; any other sample is harmless
    g = parse_polynomial("y1^4 - 2*y1^2*s + s^2 + y2 - s*y2", TCTX)
    G = ImageEquation(crosscap_image.spec, g, (g,))
    assert slice_milnor_total(seeded(G, 3)).total == 0
    with pytest.raises(GermInputError, match="degenerate"):
        slice_milnor_total(G, s0=Fraction(1))


def test_nongeneric_sample_is_outvoted(exam1_image):
    # seed 2 first draws s0 = 2/3, where a critical point of the slice falls
    # onto the image and the raw count silently drops by one; the oracle must
    # not accept a count until a second sample reproduces it
    sl = slice_milnor_total(seeded(exam1_image, 2))
    assert sl.total == 7
    assert Fraction(2, 3) in sl.rejected


def test_slice_degenerate_baseline_is_an_error(crosscap_image):
    # g0 = y1^3 - 3*y1 has critical planes {y1 = ±1} where g0 ≠ 0: the
    # off-slice locus at parameter zero is not isolated, so no baseline
    g = parse_polynomial("y1^3 - 3*y1 + s*y2", TCTX)
    G = ImageEquation(crosscap_image.spec, g, (g,))
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
    # weights no germ file can state are refused with the spec, before any
    # image equation is computed: incomplete, nonpositive, not an int (True
    # would print as y1=True), or for an unknown name (the printer drops it)
    good = {"y1": 2, "y2": 2, "y3": 3, "s": 2}
    for weights, match in (({"y1": 1}, r"missing for \['y2', 'y3', 's'\]"),
                           ({**good, "y1": -1}, "positive"),
                           ({**good, "y1": 2.5}, "positive integers"),
                           ({**good, "y1": "2"}, "positive integers"),
                           ({**good, "y1": True}, "positive integers"),
                           ({**good, "z": 1}, "unknown variable 'z'")):
        with pytest.raises(GermInputError, match=match):
            MapGermSpec(source=base.source, target=base.target,
                        parameter=base.parameter, branches=base.branches,
                        is_stabilisation=True, weights=weights)
