"""Syzygy modules and the vector-field modules attached to a hypersurface.

This module builds rows and harvests relations; the standard-basis work runs
on the engine in `gb`, which takes module terms as flat exponent tuples: the
ring exponent followed by (c, r - c) for component c of a free module of
rank r. The syzygy computation is the classical free-module construction:
present each input p_i as a row r_i = (p_i, e_i) in R x R^k, run the engine
under a module order whose first slot dominates, and harvest the rows whose
first slot vanished. The ring order is degrevlex; among the unit-tracking
slots the order is term-over-position (any order works there, and this one
yields markedly smaller syzygies than stratifying by component).

The run pairs only the elements G led in slot 0 and keeps every element Z
led in a tracking slot without pairing it (the engine's `harvest`). Z is a
generating set of the syzygy module, which is all a caller needs; a basis
of it would cost the pairs of two syzygies, most of which reduce to zero
(a special case of Moeller, Mora and Traverso, ISSAC 1992):

- Slot 0 dominates, so reducing a slot-0-led element by G reduces its first
  slot by the first slots of G, and G runs Buchberger's algorithm on
  (p_1..p_k) with cofactors. Only the chain criterion skips pairs there;
  the product criterion never applies to modules. The first slots of G are
  therefore a Groebner basis of (p_1..p_k).
- Every row lies in G or in Z, so a syzygy (0, a) = sum a_i r_i is a
  combination sum b_g g + sum c_z z, and (b_g) is a syzygy of the first
  slots of G.
- By Schreyer's theorem such a syzygy is generated by the lifts of the
  processed G-G pairs (Gebauer and Moeller cover the chain-skipped ones). In
  the module each lift is the result of reducing that pair, which is 0, a
  new G element (whose own lift term cancels it) or a harvested syzygy,
  plus the multiples of Z the reduction subtracted. So sum b_g g, and with
  it (0, a), lies in the span of Z.
- Z is no basis, so no Z element may be dropped for a lead that another Z
  lead divides; the engine's minimalize step keeps each of them.
- The argument holds as well when every reduction stops at its first
  irreducible term (the engine's `top`): a top-reduction still subtracts
  multiples of G and Z with leads at most the lcm, a standard
  representation, and its result is 0, a new G element led in slot 0 or,
  when slot 0 has cancelled, a harvested syzygy; only tails stay
  unreduced. `ideal_quotient` harvests so, since its caller reduces the
  quotient's basis; `syzygy_basis` reduces fully, its syzygies being its
  output.

Nothing above counts the tracking slots or asks that every input have one,
so the argument holds as well when only some inputs are tracked. With the
rows (f, 1) and (p_i, 0), the module they generate meets slot 0 = 0 in the
vectors (0, a) with a*f in (p_1..p_k), and the harvest generates that ideal
quotient (`ideal_quotient`) at the price of one tracking slot instead of k;
it is the one colon routine, which `Ideal.saturation` iterates until a
quotient adds nothing.

Vector fields live here too: a field is its coefficient tuple against the
coordinate partials, slot i multiplying the partial by `ctx.names[i]`, and
the fields annihilating g (respectively tangent to its zero set) are exactly
the syzygies of the partials of g (respectively of the partials extended by
g, cofactor slot discarded). A field basis is a plain list of such tuples.
The ideal of one slot of those fields needs no field basis: it is the
quotient of the other partials (and g) by that slot's partial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .config import ComputeConfig, DEFAULT_CONFIG
from .errors import GermInputError
from .gb import Ideal, _Engine
from .orderings import degrevlex
from .poly import Exponent, Polynomial, VariableContext

Vector = Tuple[Polynomial, ...]


@lru_cache(maxsize=None)
def _module_key(n: int):
    """The first slot dominates, then degrevlex term-over-position with
    lower components first; one key object per n."""
    return lambda t: ((1 if t[n] == 0 else 0),) + degrevlex(t[:n]) + (-t[n],)


def _engine(ctx: VariableContext, rank: int, config: ComputeConfig) -> _Engine:
    """Engine for submodules of R^rank under `_module_key`."""
    return _Engine(_module_key(len(ctx)), config, len(ctx), rank=rank)


def _encode(vec: Sequence[Polynomial], rank: int) -> Dict[Exponent, Fraction]:
    return {e + (comp, rank - comp): c
            for comp, p in enumerate(vec) for e, c in p.terms.items()}


def _harvest(ctx: VariableContext, rows: Sequence[Sequence[Polynomial]],
             config: ComputeConfig, top: bool = False) -> List[Vector]:
    """Tracking slots of the syzygies harvested from `rows`, each row an
    input in slot 0 followed by its tracking slots; `top` top-reduces."""
    n, rank = len(ctx), len(rows[0])
    eng = _engine(ctx, rank, config)
    elements: List[Vector] = []
    for elt in eng.basis([_encode(r, rank) for r in rows], harvest=True, top=top):
        # the first slot dominates the order, so an element has a term there
        # exactly when its lead is there
        if eng.exponent(elt.lm)[n] == 0:
            continue
        split: List[Dict[Exponent, Fraction]] = [{} for _ in range(rank - 1)]
        sign = 1 if elt.lc > 0 else -1
        for t, c in eng.decoded(elt).items():
            split[t[n] - 1][t[:n]] = Fraction(sign * c)
        elements.append(tuple(Polynomial._raw(ctx, d) for d in split))
    return elements


def syzygy_basis(polys: Sequence[Polynomial],
                 config: ComputeConfig = DEFAULT_CONFIG) -> List[Vector]:
    """Generating set of {(a_1..a_k) : sum a_i p_i = 0}, not a basis (see
    the module docstring), as a list of k-tuples.

    Computed over the polynomial ring; a generating set over the local ring
    too, localization being flat. Harvested vectors have primitive integer
    coefficients and a positive leading coefficient.
    """
    polys = list(polys)
    if not polys:
        raise GermInputError("syzygies of an empty tuple")
    ctx = polys[0].ctx
    for p in polys:
        if p.ctx != ctx:
            raise GermInputError("syzygy inputs over mixed contexts")
    k = len(polys)
    one = Polynomial.constant(ctx, 1)
    zero = Polynomial.zero(ctx)
    rows = [[p] + [one if j == i else zero for j in range(k)] for i, p in enumerate(polys)]
    return _harvest(ctx, rows, config)


def ideal_quotient(gens: Sequence[Polynomial], f: Polynomial,
                   config: ComputeConfig = DEFAULT_CONFIG) -> Ideal:
    """The ideal quotient (gens) : f = {a : a*f in (gens)}, as a handle
    whose reduced basis is computed once and cached.

    One harvest that tracks f alone: the rows (f, 1) and (p, 0) for each
    nonzero generator p. A syzygy (0, a) of them is a*f + sum b_p p = 0, so
    the harvested slots generate exactly the quotient (Greuel and Pfister,
    A Singular Introduction to Commutative Algebra, 1.8.8). The harvest
    only top-reduces, which leaves the reduced basis alone. Zero generators
    are skipped; f = 0 gives the unit ideal.
    """
    ctx = f.ctx
    gens = [p for p in gens if not p.is_zero()]
    for p in gens:
        if p.ctx != ctx:
            raise GermInputError("ideal quotient inputs over mixed contexts")
    one, zero = Polynomial.constant(ctx, 1), Polynomial.zero(ctx)
    rows = [[f, one]] + [[p, zero] for p in gens]
    return Ideal(ctx, [v[0] for v in _harvest(ctx, rows, config, top=True)], config)


def kernel_fields(g: Polynomial, config: ComputeConfig = DEFAULT_CONFIG) -> List[Vector]:
    """Vector fields xi with dg(xi) = 0: syzygies of the partials of g."""
    if g.is_zero():
        raise GermInputError("kernel fields of the zero polynomial")
    return syzygy_basis([g.partial(n) for n in g.ctx.names], config)


def tangent_fields(g: Polynomial, config: ComputeConfig = DEFAULT_CONFIG) -> List[Vector]:
    """Vector fields xi with dg(xi) in (g): syzygies of the partials extended
    by g itself, with the cofactor slot dropped.

    Dropping the slot leaves the harvested fields distinct and nonzero. The
    harvested syzygies are distinct and nonzero: the inputs are distinct
    rows, and each syzygy the run finds is nonzero and fully reduced by
    every earlier element, so no earlier lead divides its lead. A
    syzygy (a, c) of (dg, g) with a = 0 has c*g = 0, so c = 0 and it is the
    zero element, which the harvest never holds; two syzygies with equal a
    differ by (0, c1 - c2), so c1 = c2 and they are the same element."""
    if g.is_zero():
        raise GermInputError("tangent fields of the zero polynomial")
    polys = [g.partial(n) for n in g.ctx.names] + [g]
    return [v[:-1] for v in syzygy_basis(polys, config)]


def parameter_part(ctx: VariableContext, fields: Sequence[Vector],
                   config: ComputeConfig = DEFAULT_CONFIG) -> Ideal:
    """Ideal of the parameter slots of fields over `ctx`, as a handle whose
    reduced basis is computed once and cached."""
    idx = ctx.parameter_index()
    return Ideal(ctx, [v[idx] for v in fields], config)
