"""Monomial orders, realized as integer sort keys.

An order is a key function mapping an exponent tuple to a tuple of ints, so
that order comparison is plain tuple comparison and leading terms come from
max(). Three orders are in use: `degrevlex`, the `local` (anti-degree) order
and the `elimination` order of a front block of variables. The local order
makes 1 the largest monomial; the standard-basis engine, which needs a
well-order, runs it through Lazard's homogenization under `lazard`. Module
orders are built on these keys in `syzygy`. Each key factory returns one
object per shape, which the engine's cached packing layouts are keyed by.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence, Tuple

from .errors import GermInputError

Key = Callable[[Tuple[int, ...]], tuple]


def degrevlex(e: Tuple[int, ...]) -> tuple:
    return (sum(e),) + tuple(-x for x in reversed(e))


def local(e: Tuple[int, ...]) -> tuple:
    return (-sum(e),) + tuple(-x for x in reversed(e))


def elimination(front: Sequence[int], n: int) -> Key:
    """Degrevlex on the `front` variables of an n-variable ring, ties
    broken by degrevlex on the rest: every monomial with a front variable
    beats every monomial without one."""
    front = tuple(front)
    if not front or not set(front) < set(range(n)):
        raise GermInputError("elimination order needs a proper variable split")
    return _block(front, n)


@lru_cache(maxsize=None)
def _block(front: Tuple[int, ...], n: int) -> Key:
    rest = tuple(i for i in range(n) if i not in front)
    return lambda e: (degrevlex(tuple(e[i] for i in front))
                      + degrevlex(tuple(e[i] for i in rest)))


@lru_cache(maxsize=None)
def lazard(key: Key, n: int) -> Key:
    """Key on exponents (x_1..x_n, h) of the homogenized ring: total degree
    first, then `key` on the x-part. A global order for any `key`; on a
    homogeneous polynomial its lead is the `key` lead of the x-parts."""
    return lambda e: (sum(e),) + key(e[:n])
