"""Monomial orders, realized as integer sort keys.

Every supported order is translated into a key function mapping an exponent
tuple to a tuple of ints, so that order comparison is plain tuple comparison
and leading terms come from max(). Three orders are in use: degrevlex, the
local (anti-degree) order and the order that eliminates a front block of
variables. The local order makes 1 the largest monomial; the standard-basis
engine, which needs a well-order, runs it through Lazard's homogenization
under `lazard_key`. Module orders are built on these keys in `syzygy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from .errors import GermInputError

DEGREVLEX = "degrevlex"
LOCAL = "local-anti-degree"
ELIMINATION = "elimination"


def _degrevlex(e: Tuple[int, ...]) -> tuple:
    return (sum(e),) + tuple(-x for x in reversed(e))


@dataclass(frozen=True)
class OrderingSpec:
    """Declarative order description; see the factory constructors."""

    kind: str
    front: Tuple[int, ...] = ()    # elimination: the eliminated variables

    @staticmethod
    def degrevlex() -> "OrderingSpec":
        return OrderingSpec(DEGREVLEX)

    @staticmethod
    def local() -> "OrderingSpec":
        return OrderingSpec(LOCAL)

    @staticmethod
    def elimination(front: Tuple[int, ...], n: int) -> "OrderingSpec":
        """Degrevlex on the `front` variables of an n-variable ring, ties
        broken by degrevlex on the rest: every monomial with a front
        variable beats every monomial without one."""
        front = tuple(front)
        if not front or not set(front) < set(range(n)):
            raise GermInputError("elimination order needs a proper variable split")
        return OrderingSpec(ELIMINATION, front)


def key_function(spec: OrderingSpec, nvars: int) -> Callable[[Tuple[int, ...]], tuple]:
    """Key function on exponent tuples; larger key = larger monomial."""
    if spec.kind == DEGREVLEX:
        return _degrevlex
    if spec.kind == LOCAL:
        return lambda e: (-sum(e),) + tuple(-x for x in reversed(e))
    if spec.kind == ELIMINATION:
        front = spec.front
        rest = tuple(i for i in range(nvars) if i not in front)
        return lambda e: (_degrevlex(tuple(e[i] for i in front))
                          + _degrevlex(tuple(e[i] for i in rest)))
    raise GermInputError(f"unknown ordering kind {spec.kind!r}")


def lazard_key(spec: OrderingSpec, nvars: int) -> Callable[[Tuple[int, ...]], tuple]:
    """Key on exponents (x_1..x_n, h) of the homogenized ring: total degree
    first, then `spec` on the x-part. A global order for any `spec`; on a
    homogeneous polynomial its lead is the `spec` lead of the x-parts."""
    key = key_function(spec, nvars)
    return lambda e: (sum(e),) + key(e[:nvars])
