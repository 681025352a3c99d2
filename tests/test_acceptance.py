"""End-to-end acceptance checks, one test per contract point.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
check. Everything here goes through public entry points only; golden values
are cross-checked between independent routes rather than against stored
program output.
"""

import random
import shutil
import time
from fractions import Fraction

import pytest

from germinv import (
    EMPTY, Ideal, ImageEquation, MapGermSpec, Polynomial, VariableContext,
    ae_codimension, bruce_roberts_number, euler_degree, euler_ideal_identity,
    ft_codim, ft_dimension, full_report, image_equation, image_milnor_number,
    lc_ideal, local_colength, milnor_number, slice_milnor_total, syzygy_basis,
)
from germinv.cli import console_main
from germinv.exprparse import parse_polynomial
from germinv.orderings import degrevlex

from conftest import corpus_path, load


@pytest.fixture(scope="session")
def exam1_report(exam1_image):
    return full_report(exam1_image, with_lc=False)


@pytest.fixture(scope="session")
def all_fixtures(crosscap_image, twoplane_image, s1_image, exam1_image):
    return {"crosscap": crosscap_image, "twoplane": twoplane_image,
            "s1": s1_image, "exam1": exam1_image}


def _perturbed_cusp_unfoldings(count=3, rng_seed=20260819):
    """S1-type germs with a random degree-4 term planted far from the
    origin; the polynomial representatives carry parasitic critical points
    the slice oracle must subtract out."""
    rng = random.Random(rng_seed)
    coeffs = rng.sample(range(1, 10), count)
    sctx = VariableContext.make(source=("x", "y"), parameter=("s",))
    specs = []
    for c in coeffs:
        branch = tuple(parse_polynomial(t, sctx) for t in
                       ("x", "y^2", f"y^3 + x^2*y + {c}*x^3*y + s*y"))
        specs.append(MapGermSpec(source=("x", "y"), target=("y1", "y2", "y3"),
                                 parameter="s", branches=(branch,),
                                 is_stabilisation=True))
    return specs


def test_benchmark_unfolded_germ_full_report():
    # the 3-branch benchmark germ, computed from scratch under a wall clock
    gf = load("exam1")
    t0 = time.perf_counter()
    G = image_equation(gf.spec, gf.config())
    r = full_report(G, with_lc=False)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"took {elapsed:.0f}s"
    assert r.mu_image == 7
    assert r.mu_br == 8
    assert r.ft_codim == 7
    assert r.cm_flag is True
    assert r.stability == "unstable"
    assert r.samuel_profile == (7, 14, 21)
    assert r.mu_image_oracle == 7
    assert not r.route_disagreement and r.warnings == ()


def test_route_equivalence_multiplicity_vs_slice_counts(all_fixtures):
    for name, G in all_fixtures.items():
        mu = image_milnor_number(G).multiplicity
        for seed in (0, 1, 2):
            sl = slice_milnor_total(
                ImageEquation(G.spec, G.g, G.factors, G.config.with_overrides(seed=seed)))
            assert sl.total == mu, (name, seed, sl)
    saw_parasitic = False
    for spec in _perturbed_cusp_unfoldings():
        G = image_equation(spec)
        mu = image_milnor_number(G).multiplicity
        for seed in (0, 1, 2):
            sl = slice_milnor_total(
                ImageEquation(G.spec, G.g, G.factors, G.config.with_overrides(seed=seed)))
            assert sl.total == mu, (spec.branches, seed, sl)
            saw_parasitic = saw_parasitic or sl.raw > sl.total
    # the random family must actually exercise the baseline subtraction
    assert saw_parasitic


def test_vanishing_multiplicity_matches_stability(all_fixtures, exam1_report):
    for name in ("crosscap", "twoplane"):
        G = all_fixtures[name]
        assert image_milnor_number(G).multiplicity == 0, name
        assert ft_codim(G) == 0 and ft_dimension(G) is EMPTY, name
        assert ae_codimension(G) == 0, name
    assert image_milnor_number(all_fixtures["s1"]).multiplicity >= 1
    assert exam1_report.mu_image >= 1
    assert exam1_report.stability == "unstable"


def test_multiplicity_bounded_by_codimension(all_fixtures, exam1_report):
    for name, G in all_fixtures.items():
        r = (exam1_report if name == "exam1" else
             full_report(G, with_lc=False))
        assert r.mu_image <= r.ft_codim, name
        assert (r.mu_image == r.ft_codim) == r.cm_flag, name
        assert r.cm_flag, name      # every corpus germ has a CM image here
    # equality of the two ideals' invariants is a different statement from
    # equality of the numbers attached to different ideals:
    assert exam1_report.mu_br == 8 > 7 == exam1_report.mu_image


def test_report_ft_codim_is_the_ft_colength(all_fixtures, exam1_report):
    # the report reads ft_codim off the multiplicity profile's d_1
    for name, G in all_fixtures.items():
        r = (exam1_report if name == "exam1" else
             full_report(G, with_lc=False))
        assert r.ft_codim == ft_codim(G), name


def test_weighted_homogeneous_euler_identity(s1_image):
    assert s1_image.spec.weights == {"y1": 1, "y2": 2, "y3": 3, "s": 2}
    assert euler_degree(s1_image) == 6
    assert euler_ideal_identity(s1_image)   # ideal equality, both containments
    assert ae_codimension(s1_image) == 1 == image_milnor_number(s1_image).multiplicity


def test_characteristic_locus_certificates(all_fixtures):
    for name, G in all_fixtures.items():
        assert lc_ideal(G).substitution_identity(), name
    exam1 = all_fixtures["exam1"]
    assert ft_dimension(exam1) == 1
    assert lc_ideal(exam1).certified_dimension() == len(exam1.ctx) + 1 == 5


def test_substrate_engines():
    # division certificates: every S-polynomial of a computed basis reduces to zero
    ctx = VariableContext.make(source=("x", "y"))
    x, y = (Polynomial.variable(ctx, n) for n in ("x", "y"))
    ideal = Ideal(ctx, [x ** 2 + y ** 2, x * y + x])
    basis = ideal.basis()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            f, g = basis[i], basis[j]
            lf = max(f.terms, key=degrevlex)
            lg = max(g.terms, key=degrevlex)
            lcm = tuple(max(a, b) for a, b in zip(lf, lg))
            mf = Polynomial(ctx, {tuple(a - b for a, b in zip(lcm, lf)): 1 / f.terms[lf]})
            mg = Polynomial(ctx, {tuple(a - b for a, b in zip(lcm, lg)): 1 / g.terms[lg]})
            assert ideal.contains(mf * f - mg * g)

    # local (Lazard) route: units in the tail must not inflate the quotient
    assert local_colength(ctx, [x ** 2 + x ** 3, y]) == 2

    # saturation is idempotent
    once = Ideal(ctx, [x ** 2 * y, x * y ** 2]).saturation(x)
    twice = once.saturation(x)
    assert tuple(once.basis()) == tuple(twice.basis())

    # syzygy exactness on a thousand random small tuples
    rng = random.Random(1905)
    for _ in range(1000):
        nv = rng.choice((2, 2, 3))
        rctx = VariableContext.make(source=tuple("xyz"[:nv]))
        def rand_poly():
            p = Polynomial.zero(rctx)
            for _ in range(rng.randint(1, 3)):
                m = Polynomial.constant(rctx, Fraction(rng.randint(-3, 3)))
                for n in rctx.names:
                    m = m * Polynomial.variable(rctx, n) ** rng.randint(0, 2)
                p = p + m
            return p
        polys = [rand_poly() for _ in range(rng.randint(2, 3))]
        for vec in syzygy_basis(polys):
            acc = Polynomial.zero(rctx)
            for c, p in zip(vec, polys):
                acc = acc + c * p
            assert acc.is_zero(), (polys, vec)

    # one-variable singularity ladder against the closed form
    for k in range(1, 7):
        assert milnor_number(parse_polynomial(f"x^{k + 1} + y^2", ctx)) == k


def test_machine_reports_are_deterministic(tmp_path, capsys):
    for name, extra in (("crosscap", ()), ("twoplane", ()), ("s1", ()), ("exam1", ()),
                        ("exam1", ("--with-lc",))):
        path = tmp_path / f"{name}.germ"
        shutil.copy(corpus_path(name), path)
        runs = []
        for _ in range(2):
            code = console_main(["report", str(path), "--seed", "11",
                                 "--format", "machine", *extra])
            out = capsys.readouterr().out
            assert code == 0, (name, out)
            runs.append(out)
        assert runs[0] == runs[1], name
        assert runs[0].startswith("schema=germinv.report.v1\n")
        assert ("\nlc_dim=5\n" in runs[0]) == bool(extra), name
    # a rejected input is just as reproducible
    bad = tmp_path / "nonfinite.germ"
    shutil.copy(corpus_path("nonfinite"), bad)
    errs = []
    for _ in range(2):
        code = console_main(["mu-image", str(bad), "--no-cache"])
        captured = capsys.readouterr()
        assert code == 1
        errs.append(captured.err)
    assert errs[0] == errs[1] and "elimination ideal not principal" in errs[0]
