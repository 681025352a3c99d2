"""Standard bases over Q: one reduction engine for ideals and modules.

The engine is `_Engine`: one element type, one s-polynomial, one reducer and
one pair loop, all under a global term order (1 the smallest monomial). A
run fixes that order and a module rank. Ideal terms are exponent tuples. A
term of a free module of rank r over n variables is the ring exponent
followed by the two position coordinates (c, r - c) of its component c < r,
so componentwise divisibility already requires equal components; degrees
(maximal degree, sugar) count ring variables only.

Tuples are the engine's boundary. Inside a run each monomial is one packed
int, so a product is an addition, the order is int order and divisibility
is one mask; `_Engine` gives the layout for the module rank and the run's
one degree bound: element terms <= bound, packed values <= 2 * bound.
A layout is built once per shape (order key, variables, rank) and bound in
a process (`_layout`), so each key factory returns one object per shape.
Results are decoded once, where they leave the engine: the kept basis of an
`Ideal`, the harvested syzygies and the leads a `lead_stop` predicate sees.

The reducer keys each term once into a heap and pops the largest live term
(Monagan and Pearce, CASC 2007), so no step rescans the polynomial, and
takes the first basis element whose lead divides it. It reduces every
term, so a membership test asks whether the remainder is zero, except in
the harvest of an ideal quotient (`top`): that run stops each reduction at
its first irreducible term, since its module basis is thrown away and the
quotient's reduced basis reduces the tails anyway. A run shares one memo
of each monomial's first divisor among the reductions by its element list:
elements are only appended, so a first divisor never changes.

An ideal run first interreduces its inputs (Becker and Weispfenning,
Groebner Bases, 1993, ch. 5): in ascending lead order each is reduced by
those kept before it, and those that become zero are dropped, so they never
pair. A module run keeps its rows, since a row that reduces into a tracking
slot is a syzygy to harvest. The pair loop selects pairs by sugar and
applies the chain criterion and, for ideals, the product criterion. Ideal
bases are tail-interreduced into the unique reduced basis; module bases keep
their tails (that buys nothing for harvesting syzygies). A syzygy run
(`harvest`) forms pairs only between
elements led in slot 0, the slot of the inputs, and keeps every element led
in a tracking slot: those are the harvested syzygies, a generating set of
the syzygy module but not a basis of it, so minimalization, which only a
basis survives, keeps each of them (the argument is in `syzygy`).

An `Ideal` handle speaks about the polynomial ring. The one question asked
of the ring of germs at the origin, a colength, is `local_colength`, by
Lazard's method (Greuel and Pfister, A Singular Introduction to Commutative
Algebra, 1.7): the generators are homogenized by a new variable h, their
global basis is computed under "total degree, then the local order", and
its leads with h = 1 are the leads of a standard basis for the local order.
Everything downstream (elimination, the dimension counts, local colengths,
and saturation, the quotient of `syzygy` iterated until one reduces to
zero) runs on this engine.
Dimension counting never inspects coefficients: it reads the staircase of
the leading ideal, which is the correct recipe for both the polynomial ring
and the local ring at the origin.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import sub
from typing import Dict, Iterable, List, Optional, Sequence

from .config import ComputeConfig, DEFAULT_CONFIG
from .errors import GermInputError, ResourceLimitError
from . import orderings
from .poly import Exponent, Polynomial, VariableContext


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


INFINITE = _Sentinel("INFINITE")   # quotient has no finite vector-space dimension
EMPTY = _Sentinel("EMPTY")         # Krull dimension of the empty variety (unit ideal)
STAIRCASE_CAP = 2_000_000          # monomials `staircase_count` may enumerate


def _intify(terms) -> Dict[Exponent, int]:
    """Clear denominators and strip content: primitive integer coefficients."""
    if not terms:
        return {}
    den = 1
    for c in terms.values():
        if isinstance(c, Fraction):
            den = den * c.denominator // gcd(den, c.denominator)
    return _primitive({e: c.numerator * (den // c.denominator) for e, c in terms.items()})


def _primitive(h: Dict[Exponent, int]) -> Dict[Exponent, int]:
    """h divided by its content, for a nonzero integer polynomial."""
    g = 0
    for v in h.values():
        g = gcd(g, v)
        if g == 1:
            return h
    return {e: v // g for e, v in h.items()}


def _divides(a: Exponent, b: Exponent) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


@lru_cache(maxsize=None)
def _affine(key, nvars: int, rank: int):
    """The zero exponent of each component (its origin), the key at each
    origin and the key's step per ring variable, once per shape.

    Raises unless the key is affine in the ring exponent with the same steps
    at every origin, checked at the exponent (1, 2, ..., n) over each origin;
    the packing of `_Engine` relies on it.
    """
    # a module term ends in the position pair (c, r - c) of its component c
    origins = tuple((0,) * nvars + ((c, rank - c) if rank else ()) for c in range(max(rank, 1)))
    pos = origins[0][nvars:]
    base = tuple(tuple(key(o)) for o in origins)
    steps = tuple(tuple(map(sub, key(tuple(int(i == j) for j in range(nvars)) + pos), base[0]))
                  for i in range(nvars))
    probe = tuple(range(1, nvars + 1))
    delta = [sum(x * st[f] for x, st in zip(probe, steps)) for f in range(len(base[0]))]
    for o, k in zip(origins, base):
        if tuple(key(probe + o[nvars:])) != tuple(map(sum, zip(k, delta))):
            raise ValueError("monomial order key is not affine in the exponent")
    return origins, base, steps


@lru_cache(maxsize=None)
def _layout(key, nvars: int, rank: int, bound: int):
    """`_Engine`'s packing for terms of ring degree up to `bound`: degree mask,
    coordinate shifts, guard bits, packed steps and packed origins."""
    origins, base, steps = _affine(key, nvars, rank)
    top = 2 * bound
    w = max(top, rank, 1).bit_length()
    width = w + 1
    ncoord = len(origins[0])
    shifts = tuple(width * (i + 1) for i in range(ncoord))
    guard = sum(1 << (s + w) for s in shifts)
    # key entries above the exponents, the first one on top, each offset
    # by its least value over terms of degree at most `top`
    shift = width * (ncoord + 1)
    kshift = [0] * len(base[0])
    offset = 0
    for f in reversed(range(len(base[0]))):
        slopes = [0] + [st[f] for st in steps]
        lo = min(k[f] for k in base) + top * min(slopes)
        hi = max(k[f] for k in base) + top * max(slopes)
        kshift[f] = shift
        offset -= lo << shift
        shift += (hi - lo).bit_length()
    step = tuple((1 << s) + 1 + sum(x << t for x, t in zip(st, kshift))
                 for s, st in zip(shifts, steps))
    zero = tuple(offset + sum(x << t for x, t in zip(k, kshift))
                 + sum(x << s for x, s in zip(o, shifts))
                 for o, k in zip(origins, base))
    return (1 << w) - 1, shifts, guard, step, zero


class _Elt:
    """Basis element with the data the reducer needs on every step.

    `terms` maps packed monomials (see `_Engine`) to primitive integer
    coefficients; operating over Z with explicit content handling keeps the
    hot loops free of per-operation gcd normalization. `lm` is the packed
    leading monomial and `maxdeg` the largest ring degree of a term.
    """

    __slots__ = ("terms", "lm", "lc", "maxdeg", "sugar")

    def __init__(self, terms: Dict[int, int], dmask: int):
        self.terms = terms
        self.lm = max(terms)
        self.lc = terms[self.lm]
        self.maxdeg = max(z & dmask for z in terms)
        self.sugar = self.maxdeg


class _Engine:
    """One standard-basis run: a global order, the limits and a module rank
    (see the module docstring).

    Inside a run every monomial e is one int Z(e). From the top down it
    holds the order key, each entry offset to be nonnegative, then the
    exponent coordinates, each in a field with a guard bit above it, and the
    ring degree in the lowest field. Z is affine in e, so a product is an
    addition (Z(e + m) = Z(e) + Z(m') - Z(0), m' the multiplier put in e's
    component), the order is int order, `lm | e` is `not (Z(e) - Z(lm)) &
    guard`, and the degree is `Z(e) & dmask`. The packing comes from
    evaluating `key` at the zero exponent of each component and at the unit
    exponents (see `_affine`); no second copy of any order exists.

    Each run (`basis`, `reduce`) has one degree bound, set by `_admit`: the
    maximal degree, or the inputs' degree where that is larger. Element terms
    stay <= bound (an lcm, a reducer product or a new element above it raises
    `ResourceLimitError`), so packed values, s-polynomial terms and products
    included, stay <= 2 * bound, the degree the fields hold.
    Tuples appear only at the boundary: inputs are packed by `basis` and
    `reduce`, and callers decode with `exponent` and `decoded`.
    """

    def __init__(self, key, cfg: ComputeConfig, nvars: int, rank: int = 0):
        self.key = key
        self.cfg = cfg
        self.nvars = nvars
        self.rank = rank
        self.stage = "module" if rank else "ideal"
        self.bound = None
        self._admit(())

    def pack(self, e: Exponent) -> int:
        z = self._zero[e[self.nvars]] if self.rank else self._zero[0]
        for x, d in zip(e, self._step):
            z += x * d
        return z

    def exponent(self, z: int) -> Exponent:
        m = self.dmask
        return tuple([(z >> s) & m for s in self._shifts])

    def decoded(self, elt: _Elt) -> Dict[Exponent, int]:
        return {self.exponent(z): c for z, c in elt.terms.items()}

    def elt(self, terms: Dict[int, int]) -> _Elt:
        return _Elt(terms, self.dmask)

    def _admit(self, polys) -> None:
        """Lay the packing out for the run's degree bound: the maximal degree,
        or the inputs' degree where that is larger."""
        bound = max(self.cfg.max_degree, 0, *(sum(e[:self.nvars]) for p in polys for e in p))
        if bound != self.bound:
            self.bound = bound
            self.dmask, self._shifts, self.guard, self._step, self._zero = \
                _layout(self.key, self.nvars, self.rank, bound)

    def _over_bound(self, step: str) -> ResourceLimitError:
        """The error for a term above the run's degree bound at `step`."""
        limit, stage = self.cfg.max_degree, f"{self.stage} {step}"
        above = f"{self.bound}, the inputs' degree, above " if self.bound > limit else ""
        return ResourceLimitError(f"{stage} exceeded the degree bound {above}max_degree={limit}",
                                  stage, "max_degree", limit)

    def reduce(self, fs: Sequence[Dict[Exponent, Fraction]],
               basis: Sequence[Dict[Exponent, Fraction]]) -> bool:
        """Whether every f in `fs` reduces to zero by the Groebner basis
        `basis`, all exponent-keyed: membership in what the basis generates.
        One run: the reductions share one divisor memo, and the first
        nonzero remainder ends it."""
        hs = [h for h in map(_intify, fs) if h]
        if not hs:
            return True
        basis = [_intify(b) for b in basis]
        self._admit(hs + basis)
        pack = self.pack
        elts = [self.elt({pack(e): c for e, c in b.items()}) for b in basis if b]
        memo: Dict[int, int] = {}
        return not any(self._reduce({pack(e): c for e, c in h.items()}, elts, memo)
                       for h in hs)

    def _reduce(self, h: Dict[int, int], elts: Sequence[_Elt],
                memo: Dict[int, int], top: bool = False) -> Dict[int, int]:
        """Fully pseudo-reduce a packed, primitive h, which it consumes, by
        `elts`; with `top`, stop at the first term no lead divides, which
        leaves that lead irreducible and the tail below it unreduced. The
        remainder is primitive, and a positive rational multiple of the one
        over Q.
        `memo` maps a monomial to the index of its first divisor in `elts`,
        or to ~k for none among the first k; calls may share it while
        `elts` only grows by appending.
        """
        if not h:
            return h
        cfg, dmask, guard = self.cfg, self.dmask, self.guard
        push = heapq.heappush
        heap = [-z for z in h]
        heapq.heapify(heap)
        steps = 0
        while heap:
            e = -heapq.heappop(heap)
            c = h.get(e)
            if c is None:
                continue                # stale: the term cancelled after it was keyed
            i = memo.get(e, -1)
            if i < 0:
                for i in range(~i, len(elts)):
                    if not (e - elts[i].lm) & guard:
                        break
                else:
                    memo[e] = ~len(elts)
                    if top:
                        break
                    continue  # settled: coefficient may still change, monomial won't return
                memo[e] = i
            red = elts[i]
            m = e - red.lm
            steps += 1
            if steps > cfg.max_pairs:
                raise ResourceLimitError(
                    f"{self.stage} reduction exceeded the pair budget "
                    f"(max_pairs={cfg.max_pairs} steps)",
                    f"{self.stage} reduction", "max_pairs", cfg.max_pairs)
            if (m & dmask) + red.maxdeg > self.bound:
                raise self._over_bound("reduction")
            g0 = gcd(c, red.lc)
            scale = red.lc // g0
            if scale < 0:
                scale, g0 = -scale, -g0
            if scale != 1:
                h = {k: v * scale for k, v in h.items()}
            # the lead term cancels: c * scale == (c // g0) * red.lc
            factor, get = -(c // g0), h.get
            for gz, gc in red.terms.items():
                tz = gz + m
                prev = get(tz)
                if prev is None:
                    h[tz] = factor * gc
                    push(heap, -tz)
                else:
                    s = prev + factor * gc
                    if s:
                        h[tz] = s
                    else:
                        del h[tz]
            if steps % 64 == 0 and h:
                h = _primitive(h)
        return _primitive(h) if h else h

    def spoly(self, f: _Elt, g: _Elt, lcm: int) -> Dict[int, int]:
        if lcm & self.dmask > self.bound:
            raise self._over_bound("s-polynomial")
        mf = lcm - f.lm
        mg = lcm - g.lm
        g0 = gcd(f.lc, g.lc)
        cf = g.lc // g0
        cg = f.lc // g0
        out = {z + mf: c * cf for z, c in f.terms.items()}
        for z, c in g.terms.items():
            tz = z + mg
            s = out.get(tz, 0) - c * cg
            if s:
                out[tz] = s
            else:
                del out[tz]
        return _primitive(out) if out else out

    def basis(self, gens: Sequence[Dict[Exponent, Fraction]], lead_stop=None,
              harvest: bool = False, top: bool = False) -> Optional[List[_Elt]]:
        """Minimal Groebner basis of the exponent-keyed `gens`, leads in
        descending order, as packed elements.

        Ideal bases come back tail-interreduced (the reduced basis).
        With `lead_stop` set, the predicate sees the accumulated lead
        exponents after every new element; once it returns true the loop
        aborts and None comes back — no partial basis escapes, the caller
        already saw the leads. With `harvest` (a module run whose slot 0
        dominates) only elements led in slot 0 pair, and every element led
        elsewhere is kept: the result is a minimal basis of the slot-0 part
        plus a generating set, not a basis, of the syzygies (see `syzygy`).
        With `top` each s-polynomial is only top-reduced, so new elements
        keep their tails.
        An ideal's inputs are interreduced first, and one divisor memo
        serves every reduction of the run.
        """
        gens = [_intify(g) for g in gens if g]
        self._admit(gens)
        cfg, n, dmask, guard = self.cfg, self.nvars, self.dmask, self.guard
        pack = self.pack
        elts = [self.elt({pack(e): c for e, c in g.items()}) for g in gens]
        memo: Dict[int, int] = {}
        if not self.rank:
            inputs, elts = sorted(elts, key=lambda e: e.lm), []
            for elt in inputs:
                h = self._reduce(elt.terms, elts, memo)
                if h:
                    elts.append(self.elt(h))
        leads = [self.exponent(e.lm) for e in elts]

        heap: List[tuple] = []
        done: set = set()

        def add_pairs(j: int):
            b, bx = elts[j], leads[j]
            if harvest and bx[n]:
                # A harvested syzygy pairs with nothing: pairs of two syzygies
                # only complete a basis of the syzygy module, and a
                # generating set is all a harvest promises.
                return
            db = b.lm & dmask
            for i in range(j):
                a, ax = elts[i], leads[i]
                if ax[n:] != bx[n:]:
                    continue          # leads in different components never pair
                lcm = pack(tuple(map(max, ax, bx)))
                d = lcm & dmask
                sugar = max(a.sugar + d - (a.lm & dmask), b.sugar + d - db)
                # normal strategy by sugar: lowest sugar, then lowest lcm
                heapq.heappush(heap, (sugar, lcm, i, j))

        for j in range(len(elts)):
            add_pairs(j)

        handled = 0
        while heap:
            sugar, lcm, i, j = heapq.heappop(heap)
            done.add((i, j))
            handled += 1
            if handled > cfg.max_pairs:
                raise ResourceLimitError(
                    f"{self.stage} basis exceeded the pair budget max_pairs={cfg.max_pairs}",
                    f"{self.stage} basis", "max_pairs", cfg.max_pairs)
            f, g = elts[i], elts[j]
            # Product criterion: coprime leads leave an s-polynomial that
            # reduces to zero, because lm(g)f - lm(f)g = tail(f)g - tail(g)f.
            # The identity multiplies two elements, which vectors cannot do:
            # the criterion is unsound for modules and never applies there.
            # Leads are coprime exactly when the lcm's degree is the sum of
            # theirs.
            if not self.rank and lcm & dmask == (f.lm & dmask) + (g.lm & dmask):
                continue
            # chain criterion: a third lead dividing the lcm, both its pairs settled
            skip = False
            for k in range(len(elts)):
                if k != i and k != j and not (lcm - elts[k].lm) & guard and \
                        (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done:
                    skip = True
                    break
            if skip:
                continue
            h = self._reduce(self.spoly(f, g, lcm), elts, memo, top)
            if not h:
                continue
            new = self.elt(h)
            if new.maxdeg > self.bound:
                raise self._over_bound("basis")
            new.sugar = max(sugar, new.maxdeg)
            elts.append(new)
            leads.append(self.exponent(new.lm))
            add_pairs(len(elts) - 1)
            if lead_stop is not None and lead_stop(leads):
                return None

        # minimalize: drop elements whose lead is divisible by another lead;
        # a harvest is no basis of the syzygies, so it keeps each of them
        minimal = [e for i, e in enumerate(elts)
                   if (harvest and leads[i][n]) or
                   not any(k != i and not (e.lm - o.lm) & guard and (o.lm != e.lm or k < i)
                           for k, o in enumerate(elts))]
        minimal.sort(key=lambda e: e.lm, reverse=True)
        if not self.rank:
            # tail interreduction gives the unique reduced basis
            for idx in range(len(minimal)):
                others = minimal[:idx] + minimal[idx + 1:]
                minimal[idx] = self.elt(self._reduce(dict(minimal[idx].terms), others, {}))
        return minimal


def staircase_count(leads: Sequence[Exponent], nvars: int):
    """Number of monomials outside the monomial ideal, or INFINITE.

    Finite exactly when every variable shows a pure power among the leads;
    the count then runs over the bounding box of those powers.
    """
    if any(sum(e) == 0 for e in leads):
        return 0
    bounds: List[int] = []
    for i in range(nvars):
        pure = [e[i] for e in leads if sum(e) == e[i]]
        if not pure:
            return INFINITE
        bounds.append(min(pure))
    size = 1
    for b in bounds:
        size *= max(b, 1)
    if size > STAIRCASE_CAP:
        raise ResourceLimitError(
            f"staircase enumeration too large: the bounding box of the pure powers "
            f"holds {size} monomials, above the cap of {STAIRCASE_CAP}",
            "staircase enumeration", "staircase_cap", STAIRCASE_CAP)
    leads = [e for e in leads if all(x < b for x, b in zip(e, bounds))]
    return sum(1 for mono in itertools.product(*(range(b) for b in bounds))
               if not any(_divides(e, mono) for e in leads))


def monomial_dimension(leads: Sequence[Exponent], nvars: int):
    """Krull dimension of R/(monomial ideal): the largest set of variables
    meeting no lead's support. EMPTY for the unit ideal."""
    if any(sum(e) == 0 for e in leads):
        return EMPTY
    supports = [frozenset(i for i, x in enumerate(e) if x) for e in leads]
    for size in range(nvars, -1, -1):
        for subset in itertools.combinations(range(nvars), size):
            sset = set(subset)
            if all(not s <= sset for s in supports):
                return size
    return 0


def _sorted_gens(ctx: VariableContext, gens: Iterable[Polynomial], key) -> List[Polynomial]:
    """The nonzero generators, checked to lie over `ctx`, sorted by their
    terms under the order key, largest first: the pair order of a run, and
    with it every budget message, does not depend on how they were listed."""
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        if g.ctx != ctx:
            raise GermInputError("ideal generator over the wrong context")
    return sorted(gens, reverse=True,
                  key=lambda p: sorted(((key(e), c) for e, c in p.terms.items()),
                                       reverse=True))


def local_colength(ctx: VariableContext, gens: Iterable[Polynomial],
                   config: ComputeConfig = DEFAULT_CONFIG):
    """Colength of the ideal in the ring of germs at the origin, or INFINITE.

    The ideal is the unit ideal there, colength 0, exactly when a generator
    does not vanish at the origin. Otherwise each generator is homogenized
    by a new last variable h, and the global basis of those is computed
    under `orderings.lazard`. Its elements are homogeneous, so each lead is the
    local lead of its terms and survives h = 1; with h = 1 they are a
    standard basis of the local ideal (Greuel and Pfister, 1.7), whose
    staircase is the count. Redundant leads do not change a staircase, so
    nothing is decoded or minimalized. The order compares degrees first:
    `max_degree` bounds the homogenized degree.
    """
    n = len(ctx)
    gens = _sorted_gens(ctx, gens, orderings.local)
    if any(g.constant_term() for g in gens):
        return 0
    homog = []
    for g in gens:
        d = max(sum(e) for e in g.terms)
        homog.append({e + (d - sum(e),): c for e, c in g.terms.items()})
    eng = _Engine(orderings.lazard(orderings.local, n), config, n + 1)
    return staircase_count([eng.exponent(e.lm)[:n] for e in eng.basis(homog)], n)


class Ideal:
    """An ideal of the polynomial ring: generators and a lazily cached
    reduced basis, both under degrevlex.

    A question about the ring of germs at the origin is a colength, asked of
    `local_colength`; the one other order in use serves `elimination`.
    """

    def __init__(self, ctx: VariableContext, gens: Iterable[Polynomial],
                 config: ComputeConfig = DEFAULT_CONFIG):
        self.ctx = ctx
        self.config = config
        self.gens: List[Polynomial] = _sorted_gens(ctx, gens, orderings.degrevlex)
        self._basis_cache: Optional[List[Polynomial]] = None
        self._leads: Optional[List[Exponent]] = None    # of the cached basis

    @classmethod
    def _reduced(cls, ctx: VariableContext, basis: List[Polynomial],
                 config: ComputeConfig, leads: Optional[List[Exponent]] = None) -> "Ideal":
        """Handle whose gens and cached basis are `basis`, reduced, with its
        lead exponents where the caller has them."""
        ideal = cls(ctx, (), config)
        ideal.gens, ideal._basis_cache, ideal._leads = list(basis), list(basis), leads
        return ideal

    # -- basis -----------------------------------------------------------

    def _engine(self) -> _Engine:
        return _Engine(orderings.degrevlex, self.config, len(self.ctx))

    def _keep_basis(self, eng: _Engine, elts: List[_Elt]) -> None:
        self._basis_cache = [Polynomial._raw(self.ctx, {x: Fraction(c, e.lc) for x, c
                                                        in eng.decoded(e).items()})
                             for e in elts]
        self._leads = [eng.exponent(e.lm) for e in elts]

    def basis(self) -> List[Polynomial]:
        """Reduced Groebner basis, leads in descending order."""
        if self._basis_cache is None:
            eng = self._engine()
            self._keep_basis(eng, eng.basis([g.terms for g in self.gens]))
        return self._basis_cache

    def leading_monomials(self) -> List[Exponent]:
        """Lead exponents of the reduced basis, kept with it."""
        if self._leads is None:
            self._leads = [max(p.terms, key=orderings.degrevlex) for p in self.basis()]
        return self._leads

    def contains(self, p: Polynomial) -> bool:
        """Membership in the ideal of the polynomial ring: p reduces to zero
        by the reduced basis. p must lie over this ideal's context. For the
        local ring, compare colengths instead."""
        if p.ctx != self.ctx:
            raise GermInputError("membership argument over the wrong context")
        return self._engine().reduce([p.terms], [b.terms for b in self.basis()])

    # -- constructions ---------------------------------------------------

    def elimination(self, names: Iterable[str]) -> "Ideal":
        """The intersection with the subring omitting `names`.

        One engine run under the order that eliminates `names`, on the
        generators sorted by that order. Under it an element is free of
        `names` exactly when its lead is, and the kept elements are the new
        handle's reduced basis: on monomials without the eliminated
        variables the elimination order is degrevlex on the rest, and a
        reduced basis stays reduced on a subset.
        """
        names = list(names)
        n = len(self.ctx)
        front = [self.ctx.index(v) for v in names]
        key = orderings.elimination(front, n)
        eng = _Engine(key, self.config, n)
        keep = [i for i in range(n) if i not in front]
        new_ctx = self.ctx.drop(names)
        out, leads = [], []
        for elt in eng.basis([g.terms for g in _sorted_gens(self.ctx, self.gens, key)]):
            lead = eng.exponent(elt.lm)
            if not any(lead[i] for i in front):
                out.append(Polynomial._raw(new_ctx, {
                    tuple(e[i] for i in keep): Fraction(c, elt.lc)
                    for e, c in eng.decoded(elt).items()}))
                leads.append(tuple(lead[i] for i in keep))
        return Ideal._reduced(new_ctx, out, self.config, leads)

    def saturation(self, f: Polynomial) -> "Ideal":
        """Stable colon ideal (I : f^infinity): K = I, I : f, (I : f) : f,
        ... by `syzygy.ideal_quotient` on reduced bases, up to the first K
        with K : f = K (Becker and Weispfenning, Groebner Bases, 1993,
        ch. 6). K lies in K : f, so a link is confirmed when every harvested
        generator of K : f reduces to zero by K's basis, in one engine run;
        no basis of K : f is computed. Before that, a zero-dimensional K is
        confirmed by 1 in K + (f): then f vanishes at no point of V(K), and
        K : f = K. Where it fails, f vanishes at a point of V(K), so
        K : f is larger and the harvest goes on.
        """
        from .syzygy import ideal_quotient
        if f.ctx != self.ctx:
            raise GermInputError("saturation argument over the wrong context")
        if f.is_zero():
            raise GermInputError("saturation by zero")
        K = self
        while True:
            basis = K.basis()
            # the bound -1 stops the basis loop at its first constant lead only
            if K.dimension() in (0, EMPTY) and \
                    Ideal(self.ctx, basis + [f], self.config).dimension_bound(-1) is EMPTY:
                break
            colon = ideal_quotient(basis, f, self.config)
            if self._engine().reduce([g.terms for g in colon.gens], [b.terms for b in basis]):
                break
            K = colon
        return Ideal._reduced(self.ctx, basis, self.config, K.leading_monomials())

    # -- dimensions ------------------------------------------------------

    def quotient_dimension(self):
        """Vector-space dimension of the quotient of the polynomial ring
        (`local_colength` counts at the origin).

        Exact: it counts the staircase of the basis leads, and is INFINITE
        when some variable has no pure power among them.
        """
        return staircase_count(self.leading_monomials(), len(self.ctx))

    def dimension(self):
        """Krull dimension of the quotient of the polynomial ring, read off
        the leading ideal; EMPTY for the unit ideal."""
        return monomial_dimension(self.leading_monomials(), len(self.ctx))

    def dimension_bound(self, stop_at: int):
        """Upper bound for dimension(), with early exit at `stop_at`.

        Runs the basis loop watching the dimension cut out by the leads
        found so far. Partial leads generate a subideal of the true leading
        ideal, so that dimension only shrinks as elements accumulate and is
        an upper bound throughout. Once it reaches `stop_at` the loop aborts
        and the bound is returned; if the loop finishes first the result is
        exact (and the basis is kept).
        """
        if self._basis_cache is not None:
            return self.dimension()
        n = len(self.ctx)
        seen = {"bound": n}

        def hit(leads):
            d = monomial_dimension(leads, n)
            if d is EMPTY:
                seen["bound"] = EMPTY
                return True
            seen["bound"] = min(seen["bound"], d)
            return d <= stop_at

        eng = self._engine()
        raw = eng.basis([g.terms for g in self.gens], lead_stop=hit)
        if raw is None:
            return seen["bound"]
        self._keep_basis(eng, raw)
        return self.dimension()
