"""Seeded germ families whose invariants are known from the literature.

Every generated germ comes as a pair: the plain germ, with its weights
asserted, and a twin composed with an invertible integer linear change of
the target coordinates that fixes the parameter `s` (and, for the curves,
with seeded sign changes of the source coordinates). The changes leave every
invariant alone, so the two reports must agree on every key except the
sampled slice point; the target change also makes the image equation dense.

Golden values:

* Mond's simple germs C^2 -> C^3 with the stabilisation `s*y`
  (Mond, "On the classification of germs of maps from R^2 to R^3", 1985):
  S_k `(x, y^2, y^3 + x^(k+1)*y)`, B_k `(x, y^2, x^2*y + y^(2k+1))` and
  C_k `(x, y^2, x*y^3 + x^k*y)` are quasi-homogeneous with
  mu_I = Ae-codim = k.
* Plane curves C -> C^2 with r branches: mu_I = delta - r + 1 (Mond).
  A_2m `(x^2, x^(2m+1))` has delta = m and r = 1; the multigerm A_(2m-1),
  the branches `(x, x^m)` and `(x, -x^m)`, has delta = m and r = 2.

H_k is left out: its `s*y^2` unfolding gives k - 1, so it is not a verified
stabilisation.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

SURFACE = (("x", "y"), ("y1", "y2", "y3"))
CURVE = (("x",), ("y1", "y2"))

# The Mond germs of a pass, (family, k), all composed with MOND_CHANGE. Drawing
# k and a dense matrix from the seed moved the cost of one pass by half its
# size between seeds, so both are fixed; so are the signs of the coordinates,
# which moved the slowest germ, skewed C_3 or S_3, by about 8%.
MOND_SLOTS: Tuple[Tuple[str, int], ...] = (("S", 3), ("B", 3), ("C", 3))
MOND_CHANGE = ((1, 1, -1), (1, 2, 0), (-1, 0, 3))    # determinant 1
# The curve germs of a pass, (family, m), composed with a target change
# drawn from the seed. m is fixed too: drawn from 2..5, it moved the skewed
# curves from beside the plain germs (about 0.15 s) to twice that, and the
# median germ of a pass sits between the two groups, so germ_s.p50 moved 2x
# between seeds.
CURVE_SLOTS: Tuple[Tuple[str, int], ...] = (("A_even", 3), ("A_odd", 3))
# Off-diagonal entries of the unit triangular factors of a drawn change.
SKEW_ENTRIES = (-2, -1, 1, 2)


@dataclass(frozen=True)
class Germ:
    """One germ file of a generated workload, with what it must report."""

    name: str                        # file stem
    text: str                        # germ file contents
    mu_image: int                    # literature value
    ae_codim: Optional[int]          # literature value, None if not asserted
    twin: Optional[str] = None       # plain germ this one must agree with


def _mond(family: str, k: int):
    """Branch, target-plus-parameter weights and golden values of a Mond germ."""
    if family == "S":
        a, b = 2, k + 1                      # wt x, wt y: 2b = (k+1)a
        third = f"y^3 + x^{k + 1}*y + s*y"
        weights = (a, 2 * b, 3 * b, 2 * b)
    elif family == "B":
        a, b = k, 1                          # a = k b
        third = f"x^2*y + y^{2 * k + 1} + s*y"
        weights = (a, 2 * b, 2 * a + b, 2 * k * b)
    elif family == "C":
        a, b = 2, k - 1                      # 2b = (k-1)a
        third = f"x*y^3 + x^{k}*y + s*y"
        weights = (a, 2 * b, a + 3 * b, a + 2 * b)
    else:
        raise ValueError(f"unknown Mond family {family!r}")
    return ((("x", "y^2", third),), weights, k, k)


def _curve(family: str, m: int):
    """Branches, weights and golden mu_I = delta - r + 1 of a curve germ."""
    if family == "A_even":
        branches = (("x^2", f"x^{2 * m + 1} + s*x"),)
        weights, delta = (2, 2 * m + 1, 2 * m), m
    elif family == "A_odd":
        branches = (("x", f"x^{m}"), ("x", f"-x^{m} + s"))
        weights, delta = (1, m, m), m
    else:
        raise ValueError(f"unknown curve family {family!r}")
    return branches, weights, delta - len(branches) + 1, None


def unimodular(rng: random.Random, n: int) -> List[List[int]]:
    """L*U with unit triangular integer factors: determinant 1, dense."""
    low = [[1 if i == j else rng.choice(SKEW_ENTRIES) if i > j else 0
            for j in range(n)] for i in range(n)]
    up = [[1 if i == j else rng.choice(SKEW_ENTRIES) if i < j else 0
           for j in range(n)] for i in range(n)]
    return [[sum(low[i][t] * up[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def _compose(branch: Sequence[str], matrix: Sequence[Sequence[int]]) -> Tuple[str, ...]:
    return tuple(" + ".join(f"({c})*({p})" for c, p in zip(row, branch) if c)
                 for row in matrix)


def germ_text(variables, branches, weights: Optional[Sequence[int]],
              stable_unfolding: bool) -> str:
    source, target = variables
    lines = ["source " + " ".join(source), "target " + " ".join(target),
             "parameter s"]
    for branch in branches:
        lines.append("branch")
        lines += [f"    {p}" for p in branch]
        lines.append("end")
    lines.append("stabilisation")
    if stable_unfolding:
        lines.append("stable-unfolding")
    if weights is not None:
        names = target + ("s",)
        lines.append("weights " + " ".join(f"{n}={w}" for n, w in zip(names, weights)))
    return "\n".join(lines) + "\n"


def _signs(rng: random.Random, n: int) -> List[int]:
    return [rng.choice((-1, 1)) for _ in range(n)]


def _flip_source(branch: Sequence[str], source: Sequence[str],
                 signs: Sequence[int]) -> Tuple[str, ...]:
    """Substitute -v for each source variable v whose sign is -1."""
    flips = {v for v, e in zip(source, signs) if e < 0}
    def flip(p: str) -> str:
        return re.sub(r"[A-Za-z_]\w*",
                      lambda m: f"(-{m.group()})" if m.group() in flips else m.group(),
                      p)
    return tuple(flip(p) for p in branch)


def generate(seed: int) -> List[Germ]:
    """The germs of one skewed-family workload: each plain germ, then its twin."""
    rng = random.Random(seed)
    slots = [(f, k, SURFACE, _mond, MOND_CHANGE) for f, k in MOND_SLOTS]
    slots += [(f, m, CURVE, _curve, None) for f, m in CURVE_SLOTS]
    out: List[Germ] = []
    for i, (family, k, variables, build, change) in enumerate(slots):
        source, target = variables
        branches, weights, mu, ae = build(family, k)
        if change is None:
            row_signs = _signs(rng, len(target))
            matrix = [[e * c for c in row]
                      for e, row in zip(row_signs, unimodular(rng, len(target)))]
            source_signs = _signs(rng, len(source))
        else:
            matrix, source_signs = change, [1] * len(source)
        stem = f"{i:02d}-{family}{k}"
        stable = ae is not None
        out.append(Germ(f"{stem}-plain", germ_text(variables, branches, weights, stable),
                        mu, ae))
        skewed = tuple(_compose(_flip_source(b, source, source_signs), matrix)
                       for b in branches)
        out.append(Germ(f"{stem}-skew", germ_text(variables, skewed, None, stable),
                        mu, ae, twin=f"{stem}-plain"))
    return out
