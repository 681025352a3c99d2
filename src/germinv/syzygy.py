"""Syzygy modules and the vector-field modules attached to a hypersurface.

This module builds rows and harvests relations; the standard-basis work runs
on the engine in `gb`, which takes module terms as flat exponent tuples: the
ring exponent followed by (c, r - c) for component c of a free module of
rank r. The syzygy computation is the classical free-module construction:
present each input g_i as a row (g_i, e_i) in R x R^k, run a basis under a
module order whose first slot dominates, and harvest the rows whose first
slot vanished. The ring order is degrevlex; among the unit-tracking slots
the order is term-over-position (any order works there, and this one yields
markedly smaller syzygies than stratifying by component). The engine never
applies the product criterion to module elements; see its pair loop.

Vector fields live here too: a field is its coefficient tuple against the
coordinate partials, and the fields annihilating g (respectively tangent to
its zero set) are exactly the syzygies of the partials of g (respectively of
the partials extended by g, cofactor slot discarded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .config import ComputeConfig, DEFAULT_CONFIG
from .errors import GermInputError
from .gb import Ideal, _Engine
from .orderings import OrderingSpec, key_function
from .poly import Exponent, Polynomial, VariableContext

Vector = Tuple[Polynomial, ...]


def _engine(ctx: VariableContext, rank: int, config: ComputeConfig) -> _Engine:
    """Engine for submodules of R^rank: the first slot dominates, then
    degrevlex term-over-position with lower components first."""
    n = len(ctx)
    ring_key = key_function(OrderingSpec.degrevlex(), n)

    def key(t: Exponent):
        return ((1 if t[n] == 0 else 0),) + ring_key(t[:n]) + (-t[n],)

    return _Engine(key, config, n, rank=rank)


def _encode(vec: Sequence[Polynomial], rank: int) -> Dict[Exponent, Fraction]:
    return {e + (comp, rank - comp): c
            for comp, p in enumerate(vec) for e, c in p.terms.items()}


@dataclass
class SyzygyBasis:
    """Generators of the relation module of a fixed polynomial tuple.

    components[i] labels the i-th slot; for vector-field uses the label is the
    coordinate whose partial the slot multiplies.
    """

    ctx: VariableContext
    components: Tuple[str, ...]
    original: Tuple[Polynomial, ...]
    elements: List[Vector]
    _basis: Optional[list] = field(default=None, repr=False, compare=False)

    def contains(self, vec: Vector) -> bool:
        """Whether vec lies in the module the elements generate over the
        polynomial ring."""
        rank = len(self.components)
        if len(vec) != rank or any(p.ctx != self.ctx for p in vec):
            raise GermInputError("module element of the wrong rank or context")
        eng = _engine(self.ctx, rank, DEFAULT_CONFIG)
        if self._basis is None:
            self._basis = [eng.decoded(e) for e in
                           eng.basis([_encode(v, rank) for v in self.elements])]
        return not eng.reduce(_encode(vec, rank), self._basis, full=False)[0]


def syzygy_basis(polys: Sequence[Polynomial],
                 labels: Optional[Sequence[str]] = None,
                 config: ComputeConfig = DEFAULT_CONFIG) -> SyzygyBasis:
    """Generating set of {(a_1..a_k) : sum a_i p_i = 0}.

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
    if labels is None:
        labels = tuple(str(i) for i in range(k))
    labels = tuple(labels)
    if len(labels) != k:
        raise GermInputError("syzygy component labels of the wrong length")
    n, rank = len(ctx), k + 1
    one = Polynomial.constant(ctx, 1)
    zero = Polynomial.zero(ctx)
    rows = [_encode([p] + [one if j == i else zero for j in range(k)], rank)
            for i, p in enumerate(polys)]
    elements: List[Vector] = []
    eng = _engine(ctx, rank, config)
    for elt in eng.basis(rows):
        # the first slot dominates the order, so an element has a term there
        # exactly when its lead is there
        if eng.exponent(elt.lm)[n] == 0:
            continue
        split: List[Dict[Exponent, Fraction]] = [{} for _ in range(k)]
        sign = 1 if elt.lc > 0 else -1
        for t, c in eng.decoded(elt).items():
            split[t[n] - 1][t[:n]] = Fraction(sign * c)
        elements.append(tuple(Polynomial._raw(ctx, d) for d in split))
    return SyzygyBasis(ctx, labels, tuple(polys), elements)


def kernel_fields(g: Polynomial, config: ComputeConfig = DEFAULT_CONFIG) -> SyzygyBasis:
    """Vector fields xi with dg(xi) = 0: syzygies of the partials of g."""
    if g.is_zero():
        raise GermInputError("kernel fields of the zero polynomial")
    names = g.ctx.names
    partials = [g.partial(n) for n in names]
    return syzygy_basis(partials, labels=names, config=config)


def tangent_fields(g: Polynomial, config: ComputeConfig = DEFAULT_CONFIG) -> SyzygyBasis:
    """Vector fields xi with dg(xi) in (g): syzygies of the partials extended
    by g itself, with the cofactor slot dropped.

    Dropping the slot leaves the harvested fields distinct and nonzero. A
    syzygy (a, c) of (dg, g) with a = 0 has c*g = 0, so c = 0 and it is the
    zero element, which no basis holds; two syzygies with equal a differ by
    (0, c1 - c2), so c1 = c2 and they are the same element."""
    if g.is_zero():
        raise GermInputError("tangent fields of the zero polynomial")
    names = g.ctx.names
    polys = [g.partial(n) for n in names] + [g]
    full = syzygy_basis(polys, labels=tuple(names) + ("_cofactor",), config=config)
    return SyzygyBasis(g.ctx, tuple(names), tuple(polys[:-1]),
                       [v[:-1] for v in full.elements])


def parameter_part(basis: SyzygyBasis, config: ComputeConfig = DEFAULT_CONFIG) -> Ideal:
    """Ideal of parameter-direction components of a field basis, as a global
    (degrevlex) handle, whose reduced basis is computed once and cached."""
    idx = None
    pidx = basis.ctx.parameter_index()
    pname = basis.ctx.names[pidx]
    for i, label in enumerate(basis.components):
        if label == pname:
            idx = i
            break
    if idx is None:
        raise GermInputError("field basis has no parameter-labeled component")
    gens = [v[idx] for v in basis.elements]
    return Ideal(basis.ctx, gens, OrderingSpec.degrevlex(), config)
