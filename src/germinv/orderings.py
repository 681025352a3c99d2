"""Monomial orders, realized as integer sort keys.

Every supported order is translated into a key function mapping an exponent
tuple to a tuple of ints, so that order comparison is plain tuple comparison
and leading terms come from max(). Local (anti-degree) orders make 1 the
largest monomial; the standard-basis engine, which needs a well-order, runs
them through Lazard's homogenization under `lazard_key`. Module orders are
built on these keys in `syzygy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .errors import GermInputError

DEGREVLEX = "degrevlex"
LOCAL = "local-anti-degree"
BLOCK = "block"


@dataclass(frozen=True)
class OrderingSpec:
    """Declarative order description; see the factory constructors."""

    kind: str
    # for block orders: ((sub_spec, variable_indices), ...) partitioning 0..n-1
    blocks: Optional[Tuple[Tuple["OrderingSpec", Tuple[int, ...]], ...]] = None

    @staticmethod
    def degrevlex() -> "OrderingSpec":
        return OrderingSpec(DEGREVLEX)

    @staticmethod
    def local() -> "OrderingSpec":
        return OrderingSpec(LOCAL)

    @staticmethod
    def block(blocks) -> "OrderingSpec":
        bs = tuple((spec, tuple(idx)) for spec, idx in blocks)
        return OrderingSpec(BLOCK, blocks=bs)

    @staticmethod
    def elimination(front: Tuple[int, ...], n: int,
                    inner: Optional["OrderingSpec"] = None) -> "OrderingSpec":
        """Block order eliminating the `front` variables of an n-variable ring."""
        front = tuple(front)
        rest = tuple(i for i in range(n) if i not in set(front))
        if not front or not rest:
            raise GermInputError("elimination order needs a proper variable split")
        return OrderingSpec.block([(OrderingSpec.degrevlex(), front),
                                   (inner or OrderingSpec.degrevlex(), rest)])

    @property
    def is_global(self) -> bool:
        """True when 1 is the smallest monomial (well-ordering, plain division)."""
        if self.kind == BLOCK:
            return all(spec.is_global for spec, _ in self.blocks)
        return self.kind != LOCAL


def key_function(spec: OrderingSpec, nvars: int) -> Callable[[Tuple[int, ...]], tuple]:
    """Key function on exponent tuples; larger key = larger monomial."""
    if spec.kind == DEGREVLEX:
        return lambda e: (sum(e),) + tuple(-x for x in reversed(e))
    if spec.kind == LOCAL:
        return lambda e: (-sum(e),) + tuple(-x for x in reversed(e))
    if spec.kind == BLOCK:
        if spec.blocks is None:
            raise GermInputError("block order without blocks")
        seen = sorted(i for _, idx in spec.blocks for i in idx)
        if seen != list(range(nvars)):
            raise GermInputError("block order must partition the variables")
        subs = [(key_function(sub, len(idx)), idx) for sub, idx in spec.blocks]

        def key(e, _subs=tuple(subs)):
            out = ()
            for kf, idx in _subs:
                out += kf(tuple(e[i] for i in idx))
            return out

        return key
    raise GermInputError(f"unknown ordering kind {spec.kind!r}")


def lazard_key(spec: OrderingSpec, nvars: int) -> Callable[[Tuple[int, ...]], tuple]:
    """Key on exponents (x_1..x_n, h) of the homogenized ring: total degree
    first, then `spec` on the x-part. A global order for any `spec`; on a
    homogeneous polynomial its lead is the `spec` lead of the x-parts."""
    key = key_function(spec, nvars)
    return lambda e: (sum(e),) + key(e[:nvars])
