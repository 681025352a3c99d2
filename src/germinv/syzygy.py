"""Vector fields attached to a hypersurface, on the module runs of `gb`.

A field is its coefficient tuple against the coordinate partials, slot i
multiplying the partial by `ctx.names[i]`, and the fields annihilating g
(respectively tangent to its zero set) are exactly the syzygies of the
partials of g (respectively of the partials extended by g, cofactor slot
discarded), which `gb.syzygy_basis` harvests. A field basis is a plain list
of such tuples. The ideal of one slot of those fields needs no field basis:
it is the quotient of the other partials (and g) by that slot's partial,
`gb.ideal_quotient`.
"""

from __future__ import annotations

from typing import List, Sequence

from .config import ComputeConfig, DEFAULT_CONFIG
from .errors import GermInputError
from .gb import Ideal, Vector, syzygy_basis
from .poly import Polynomial, VariableContext


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
