"""Literature goldens over ranges of Mond's simple germs and of plane curves.

The germs come from the benchmark's generator `bench/families.py`, which
also states where each value comes from:

* S_k, B_k and C_k with the stabilisation `s*y` are quasi-homogeneous with
  mu_I = Ae-codim = k (Mond 1985);
* a curve germ with r branches and delta invariant delta has
  mu_I = delta - r + 1 (Mond), and by Milnor's formula its image at
  parameter zero, a plane curve, has Milnor number 2*delta - r + 1.

Each germ is checked plain, and under a change of the target coordinates
that fixes the parameter, which leaves every invariant alone. These values
are not stored program output: every local colength of a report (ft_codim,
the multiplicity profile, mu_BR, the Ae-codimension, the slice oracle's
Milnor number) is held to a number from the literature.
"""

import random
import sys
from pathlib import Path

import pytest

from germinv import full_report, image_equation, milnor_number
from germinv.germfile import parse_germ_file

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import families  # noqa: E402

MOND = [(f, k) for f, ks in (("S", (1, 2, 3, 4)), ("B", (2, 3, 4)), ("C", (3, 4)))
        for k in ks]
CURVES = [(f, m) for f in ("A_even", "A_odd") for m in (2, 3, 4)]


def report_of(variables, branches, weights, stable_unfolding):
    gf = parse_germ_file(families.germ_text(variables, branches, weights,
                                            stable_unfolding))
    G = image_equation(gf.spec, gf.config())
    r = full_report(G, with_lc=False)
    assert not r.route_disagreement
    assert r.warnings == ()
    return G, r


@pytest.mark.parametrize("family,k", MOND)
def test_mond_germs_have_mu_image_and_ae_codim_k(family, k):
    (branch,), weights, mu, ae = families._mond(family, k)
    assert mu == ae == k
    for branches, w in (((branch,), None), ((branch,), weights),
                        ((families._compose(branch, families.MOND_CHANGE),), None)):
        _, r = report_of(families.SURFACE, branches, w, True)
        assert r.mu_image == r.mu_image_oracle == k
        assert r.ae_codim == k


@pytest.mark.parametrize("family,m", CURVES)
def test_curve_germs_match_delta_and_milnors_formula(family, m):
    branches, weights, mu, _ = families._curve(family, m)
    delta, r = m, len(branches)
    assert mu == delta - r + 1
    change = families.unimodular(random.Random(0), 2)
    for bs, w in ((branches, weights),
                  (tuple(families._compose(b, change) for b in branches), None)):
        G, rep = report_of(families.CURVE, bs, w, False)
        assert rep.mu_image == rep.mu_image_oracle == delta - r + 1
        assert milnor_number(G.g.specialize({"s": 0})) == 2 * delta - r + 1
