import itertools
import random

from germinv.orderings import OrderingSpec, key_function

DRL = OrderingSpec.degrevlex()
LOC = OrderingSpec.local()


def sample_exponents(rng, n, count, max_deg=5):
    return [tuple(rng.randint(0, max_deg) for _ in range(n)) for _ in range(count)]


def test_degrevlex_classics():
    key = key_function(DRL, 3)
    one, x, y, z = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert key(x) > key(y) > key(z) > key(one)
    # equal degree: the smaller exponent on the *last* distinguishing
    # variable wins, so y^2 beats x*z
    assert key((0, 2, 0)) > key((1, 0, 1))
    assert key((1, 1, 0)) > key((0, 2, 0))


def test_local_reverses_and_keeps_one_on_top():
    key = key_function(LOC, 2)
    one, x, x2 = (0, 0), (1, 0), (2, 0)
    assert key(one) > key(x) > key(x2)


def test_elimination_front_block_dominates():
    spec = OrderingSpec.elimination((0,), 2)
    key = key_function(spec, 2)
    assert key((1, 0)) > key((0, 9))     # any x beats any power of y


def test_keys_are_total_and_multiplicative():
    rng = random.Random(3)
    for spec in (DRL, LOC, OrderingSpec.elimination((0, 1), 3)):
        key = key_function(spec, 3)
        pts = sample_exponents(rng, 3, 25)
        for a, b in itertools.combinations(pts, 2):
            if a == b:
                continue
            assert (key(a) > key(b)) != (key(b) > key(a))
            # monomial orders respect multiplication
            c = tuple(rng.randint(0, 3) for _ in range(3))
            ac = tuple(i + j for i, j in zip(a, c))
            bc = tuple(i + j for i, j in zip(b, c))
            assert (key(a) > key(b)) == (key(ac) > key(bc))


def test_is_global_flag():
    assert DRL.is_global
    assert not LOC.is_global
