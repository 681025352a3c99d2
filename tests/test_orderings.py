import itertools
import random

import pytest

from germinv import gb, syzygy
from germinv.config import DEFAULT_CONFIG
from germinv.errors import GermInputError
from germinv.gb import Ideal, _Engine, local_colength
from germinv.orderings import degrevlex, elimination, lazard, local
from germinv.poly import Polynomial, VariableContext
from germinv.syzygy import ideal_quotient


def sample_exponents(rng, n, count, max_deg=5):
    return [tuple(rng.randint(0, max_deg) for _ in range(n)) for _ in range(count)]


def test_degrevlex_classics():
    key = degrevlex
    one, x, y, z = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert key(x) > key(y) > key(z) > key(one)
    # equal degree: the smaller exponent on the *last* distinguishing
    # variable wins, so y^2 beats x*z
    assert key((0, 2, 0)) > key((1, 0, 1))
    assert key((1, 1, 0)) > key((0, 2, 0))


def test_local_reverses_and_keeps_one_on_top():
    key = local
    one, x, x2 = (0, 0), (1, 0), (2, 0)
    assert key(one) > key(x) > key(x2)


def test_elimination_front_block_dominates():
    key = elimination((0,), 2)
    assert key((1, 0)) > key((0, 9))     # any x beats any power of y
    for front in ((), (0, 1), (2,)):
        with pytest.raises(GermInputError, match="proper variable split"):
            elimination(front, 2)


def test_keys_are_total_and_multiplicative():
    # each order against its reference key, and the engine's packing of it
    # against the same key: int order is key order, a product is an
    # addition, and the guard mask tests divisibility. The Lazard key runs
    # over the three variables and the homogenizing one.
    ctx = VariableContext.make(source=("x", "y", "z"))
    engines = [_Engine(key, DEFAULT_CONFIG, 3)
               for key in (degrevlex, local, elimination((0, 1), 3))]
    engines.append(_Engine(lazard(local, 3), DEFAULT_CONFIG, 4))
    engines.append(syzygy._engine(ctx, 3, DEFAULT_CONFIG))
    for eng in engines:
        rng = random.Random(3)
        key, n = eng.key, eng.nvars
        pts = sample_exponents(rng, n, 25)
        if eng.rank:
            comps = [rng.randrange(eng.rank) for _ in pts]
            pts = [e + (c, eng.rank - c) for e, c in zip(pts, comps)]
        for a, b in itertools.combinations(pts, 2):
            if a == b:
                continue
            assert (key(a) > key(b)) != (key(b) > key(a))
            # monomial orders respect multiplication
            c = tuple(rng.randint(0, 3) for _ in range(n))
            ac = tuple(i + j for i, j in zip(a, c)) + a[n:]
            bc = tuple(i + j for i, j in zip(b, c)) + b[n:]
            assert (key(a) > key(b)) == (key(ac) > key(bc))
            za, zb = eng.pack(a), eng.pack(b)
            assert eng.exponent(za) == a
            assert (za > zb) == (key(a) > key(b))
            assert eng.pack(ac) == za + eng.pack(c + a[n:]) - eng.pack((0,) * n + a[n:])
            assert (not (zb - za) & eng.guard) == all(x <= y for x, y in zip(a, b))
            assert not (eng.pack(ac) - za) & eng.guard


def test_packing_rejects_a_key_that_is_not_affine():
    # a refused shape is not cached: the same key raises again
    key = lambda e: (max(e),) + tuple(e)    # noqa: E731
    for _ in range(2):
        with pytest.raises(ValueError, match="not affine"):
            _Engine(key, DEFAULT_CONFIG, 3)


def test_layouts_are_built_once_per_engine_shape():
    # each key factory returns one object per shape, so engines of one shape
    # share their packing layout and a second run adds no cache entry
    assert elimination([0], 2) is elimination((0,), 2)
    assert lazard(local, 3) is lazard(local, 3)
    assert syzygy._module_key(3) is syzygy._module_key(3)
    ctx = VariableContext.make(source=("t",), target=("x", "y"))
    t, x, y = (Polynomial.variable(ctx, n) for n in ("t", "x", "y"))

    def sizes():
        return gb._affine.cache_info().currsize, gb._layout.cache_info().currsize

    def runs(k):
        Ideal(ctx, [x - t ** 2, y - t ** (k + 2)]).elimination(["t"])
        ideal_quotient([x * y ** k, y ** 2], x).basis()
        local_colength(ctx, [x ** 2, y ** k, t ** 3])

    runs(1)
    before = sizes()
    runs(3)
    assert sizes() == before
