"""Standard bases over Q: one reduction engine for ideals, modules and jets.

The engine is `_Engine`: one element type, one s-polynomial, one reducer and
one pair loop. A run fixes a term order and three pieces of data:

- whether the order is local (1 the largest monomial) or global;
- an optional truncation order (jets): every term of total degree at or
  above it is dropped, which is reduction by the implicit generators of
  m^bound;
- a module rank. Ideal terms are exponent tuples. A term of a free module
  of rank r over n variables is the ring exponent followed by the two
  position coordinates (c, r - c) of its component c < r, so componentwise
  divisibility already requires equal components; degrees (maximal degree,
  ecart, sugar, truncation) count ring variables only.

Tuples are the engine's boundary. Inside a run each monomial is one packed
int, so a product is an addition, the order is int order and divisibility
is one mask; `_Engine` gives the layout and how its field widths follow
from the maximal degree, the module rank and the degrees of the inputs.
Results are decoded once, where they leave the engine: the kept basis of an
`Ideal`, the harvested syzygies, jet leads, the leads a `lead_stop`
predicate sees and the remainder of `reduce`.

The reducer keys each term once into a heap and pops the largest live term
(Monagan and Pearce, CASC 2007), so no step rescans the polynomial. For a
local order without truncation it picks reducers by Mora's ecart rule and
may enlist intermediate remainders as new reducers, which is what makes it
terminate without a well-order; otherwise it takes the first divisor. It
reduces every term for global bases and normal forms, and stops at the first
irreducible term for membership tests, Mora weak normal forms and jets.

The pair loop selects pairs by sugar under global orders and by lowest lcm
under local ones, and applies the chain criterion and, where sound, the
product criterion. Global ideal bases are tail-interreduced into the unique
reduced basis; local bases and module bases keep their tails (full tail
reduction need not terminate in a local ring, and buys nothing for
harvesting syzygies).

Everything downstream (elimination, saturation, the two dimension
counts) reduces to basis computations here. Dimension
counting never inspects coefficients: it reads the staircase of the leading
ideal, which is the correct recipe for both the polynomial ring and the
local ring at the origin. Local quotient dimensions go through truncated
standard bases (jets), which certify their own exactness.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd
from operator import sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .config import ComputeConfig, DEFAULT_CONFIG
from .errors import GermInputError, ResourceLimitError
from .orderings import OrderingSpec, key_function
from .poly import Exponent, Polynomial, VariableContext


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


INFINITE = _Sentinel("INFINITE")   # quotient has no finite vector-space dimension
EMPTY = _Sentinel("EMPTY")         # Krull dimension of the empty variety (unit ideal)


def _intify(terms) -> Dict[Exponent, int]:
    """Clear denominators and strip content: primitive integer coefficients."""
    if not terms:
        return {}
    den = 1
    for c in terms.values():
        if isinstance(c, Fraction):
            den = den * c.denominator // gcd(den, c.denominator)
    return _primitive({e: int(c * den) for e, c in terms.items()})[0]


def _primitive(h: Dict[Exponent, int]) -> Tuple[Dict[Exponent, int], int]:
    """(h divided by its content, the content) for a nonzero integer polynomial."""
    g = 0
    for v in h.values():
        g = gcd(g, v)
        if g == 1:
            return h, 1
    return {e: v // g for e, v in h.items()}, g


def _divides(a: Exponent, b: Exponent) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _affine(key, origins: Sequence[Exponent], nvars: int):
    """The key at each origin and its step per ring variable.

    Raises unless the key is affine in the ring exponent with the same steps
    at every origin, checked at the exponent (1, 2, ..., n) over each origin;
    the packing of `_Engine` relies on it.
    """
    pos = origins[0][nvars:]
    base = [tuple(key(o)) for o in origins]
    steps = [tuple(map(sub, key(tuple(int(i == j) for j in range(nvars)) + pos), base[0]))
             for i in range(nvars)]
    probe = tuple(range(1, nvars + 1))
    delta = [sum(x * st[f] for x, st in zip(probe, steps)) for f in range(len(base[0]))]
    for o, k in zip(origins, base):
        if tuple(key(probe + o[nvars:])) != tuple(map(sum, zip(k, delta))):
            raise ValueError("monomial order key is not affine in the exponent")
    return base, steps


class _Overflow(Exception):
    """A new element has a term above the run's packing cap; args[0] is its degree."""


class _Elt:
    """Basis element with the data the reducer needs on every step.

    `terms` maps packed monomials (see `_Engine`) to primitive integer
    coefficients; operating over Z with explicit content handling keeps the
    hot loops free of per-operation gcd normalization. `lm` is the packed
    leading monomial, `maxdeg` the largest ring degree of a term and `ecart`
    its excess over the degree of the lead.
    """

    __slots__ = ("terms", "lm", "lc", "maxdeg", "ecart", "sugar")

    def __init__(self, terms: Dict[int, int], dmask: int):
        self.terms = terms
        self.lm = max(terms)
        self.lc = terms[self.lm]
        self.maxdeg = max(z & dmask for z in terms)
        self.ecart = self.maxdeg - (self.lm & dmask)
        self.sugar = self.maxdeg


class _Engine:
    """One standard-basis run: an order, the limits, and the data of the
    module docstring (local order, truncation bound, module rank).

    Inside a run every monomial e is one int Z(e). From the top down it
    holds the order key, each entry offset to be nonnegative, then the
    exponent coordinates, each in a field with a guard bit above it, and the
    ring degree in the lowest field. Z is affine in e, so a product is an
    addition (Z(e + m) = Z(e) + Z(m') - Z(0), m' the multiplier put in e's
    component), the order is int order, `lm | e` is `not (Z(e) - Z(lm)) &
    guard`, and the degree is `Z(e) & dmask`. The packing comes from
    evaluating `key` at the zero exponent of each component and at the unit
    exponents (see `_affine`); no second copy of any order exists.

    Field widths follow from `cap`, the largest ring degree an element term
    may have: the maximal degree, or the inputs' degree where that is larger,
    or the truncation bound. Fields hold degree 2 * cap, which covers lcms,
    s-polynomial terms (their lcm is at most the maximal degree) and
    products (the degree guard, or truncation, bounds them). A new element
    above the cap restarts the run with a larger one. Tuples appear only at
    the boundary: inputs are packed by `basis` and `reduce`, and callers
    decode with `exponent` and `decoded`.
    """

    def __init__(self, key, local: bool, cfg: ComputeConfig, nvars: int,
                 bound: Optional[int] = None, rank: int = 0):
        self.key = key
        self.local = local
        self.cfg = cfg
        self.nvars = nvars
        self.rank = rank
        self.bound = bound
        self.mora = local and bound is None
        self.stage = "jet" if bound is not None else "module" if rank else "ideal"
        # a module term ends in the position pair (c, r - c) of its component c
        self._origins = [(0,) * nvars + ((c, rank - c) if rank else ())
                         for c in range(max(rank, 1))]
        self._key_base, self._key_steps = _affine(key, self._origins, nvars)
        self.cap = -1
        self._fit(bound if bound is not None else max(cfg.max_degree, 0))

    def _fit(self, degree: int) -> None:
        """Lay out the fields for element terms of ring degree up to `degree`."""
        if degree <= self.cap:
            return
        self.cap = degree
        top = 2 * degree
        w = max(top, self.rank, 1).bit_length()
        width = w + 1
        ncoord = len(self._origins[0])
        self.dmask = (1 << w) - 1
        self._shifts = [width * (i + 1) for i in range(ncoord)]
        self.guard = sum(1 << (s + w) for s in self._shifts)
        base, steps = self._key_base, self._key_steps
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
        self._step = [(1 << s) + 1 + sum(x << t for x, t in zip(st, kshift))
                      for s, st in zip(self._shifts, steps)]
        self._zero = [offset + sum(x << t for x, t in zip(k, kshift))
                      + sum(x << s for x, s in zip(o, self._shifts))
                      for o, k in zip(self._origins, base)]

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

    def _degree(self, polys) -> int:
        n = self.nvars
        return max((sum(e[:n]) for p in polys for e in p), default=0)

    def reduce(self, f: Dict[Exponent, Fraction], basis: Sequence[Dict[Exponent, Fraction]],
               full: bool) -> Tuple[Dict[Exponent, int], Fraction]:
        """Pseudo-reduce f by the standard basis `basis`, both exponent-keyed.

        Returns (r, scale): r is exponent-keyed with primitive integer
        coefficients and equals scale times the remainder over Q, scale a
        positive rational; r is zero exactly when that remainder is. With
        `full` (global orders) the remainder is the reduced normal form;
        otherwise reduction stops at the first term no lead divides. Under
        Mora's rule the remainder is a weak normal form, determined only up
        to a unit of the local ring.
        """
        h = _intify(f)
        if not h:
            return h, Fraction(1)
        basis = [_intify(b) for b in basis]
        self._fit(self._degree([h] + basis))
        pack = self.pack
        elts = [self.elt({pack(e): c for e, c in b.items()}) for b in basis if b]
        e0 = next(iter(h))
        r, scale = self._reduce({pack(e): c for e, c in h.items()}, elts, full)
        return ({self.exponent(z): c for z, c in r.items()},
                scale * h[e0] / f[e0])

    def _reduce(self, h: Dict[int, int], elts: Sequence[_Elt],
                full: bool) -> Tuple[Dict[int, int], Fraction]:
        """`reduce` on a packed, primitive h, which it consumes; the scale
        is relative to h."""
        if not h:
            return h, Fraction(1)
        num, den = 1, 1
        cfg, bound, dmask, guard, mora = self.cfg, self.bound, self.dmask, self.guard, self.mora
        pool = list(elts) if mora else elts
        heap = [-z for z in h]
        heapq.heapify(heap)
        steps = 0
        while heap:
            e = -heapq.heappop(heap)
            c = h.get(e)
            if c is None:
                continue                # stale: the term cancelled after it was keyed
            red = None
            if mora:
                for g in pool:
                    if not (e - g.lm) & guard and (red is None or g.ecart < red.ecart):
                        red = g
            else:
                for g in elts:
                    if not (e - g.lm) & guard:
                        red = g
                        break
            if red is None:
                if full:
                    continue  # settled: coefficient may still change, monomial won't return
                break
            if mora and red.ecart and red.ecart > max(z & dmask for z in h) - (e & dmask):
                pool.append(self.elt(_primitive(dict(h))[0]))
            m = e - red.lm
            steps += 1
            # truncation bounds the degrees, and every step lowers the lead
            # within the finite set of monomials below it: only other runs
            # need the guards
            if bound is None:
                if steps > cfg.max_pairs:
                    raise ResourceLimitError(
                        f"{self.stage} reduction exceeded the pair budget "
                        f"(max_pairs={cfg.max_pairs} steps)")
                if (m & dmask) + red.maxdeg > cfg.max_degree:
                    raise ResourceLimitError(
                        f"{self.stage} reduction exceeded the degree bound "
                        f"max_degree={cfg.max_degree}")
            g0 = gcd(c, red.lc)
            scale = red.lc // g0
            if scale < 0:
                scale, g0 = -scale, -g0
            if scale != 1:
                for k in h:
                    h[k] *= scale
                num *= scale
            factor = c // g0
            del h[e]
            lm = red.lm
            for gz, gc in red.terms.items():
                if gz == lm:
                    continue
                tz = gz + m
                if bound is not None and tz & dmask >= bound:
                    continue
                prev = h.get(tz)
                if prev is None:
                    h[tz] = -factor * gc
                    heapq.heappush(heap, -tz)
                else:
                    s = prev - factor * gc
                    if s:
                        h[tz] = s
                    else:
                        del h[tz]
            if steps % 64 == 0 and h:
                h, g = _primitive(h)
                den *= g
                g = gcd(num, den)
                num, den = num // g, den // g
        if h:
            h, g = _primitive(h)
            den *= g
        return h, Fraction(num, den)

    def spoly(self, f: _Elt, g: _Elt, lcm: int) -> Dict[int, int]:
        if lcm & self.dmask > self.cfg.max_degree:
            raise ResourceLimitError(
                f"{self.stage} s-polynomial exceeded the degree bound "
                f"max_degree={self.cfg.max_degree}")
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
        if self.bound is not None:
            dmask, bound = self.dmask, self.bound
            out = {z: c for z, c in out.items() if z & dmask < bound}
        return _primitive(out)[0] if out else out

    def basis(self, gens: Sequence[Dict[Exponent, Fraction]],
              lead_stop=None) -> Optional[List[_Elt]]:
        """Minimal standard basis of the exponent-keyed `gens`, leads in
        descending order, as packed elements.

        Global ideal bases come back tail-interreduced (the reduced basis).
        With `lead_stop` set, the predicate sees the accumulated lead
        exponents after every new element; once it returns true the loop
        aborts and None comes back — no partial basis escapes, the caller
        already saw the leads.
        """
        n, bound = self.nvars, self.bound
        if bound is not None:
            gens = [{e: c for e, c in g.items() if sum(e[:n]) < bound} for g in gens]
        gens = [_intify(g) for g in gens if g]
        if bound is None:
            self._fit(self._degree(gens))
        while True:
            try:
                return self._basis(gens, lead_stop)
            except _Overflow as grown:
                self._fit(max(grown.args[0], 2 * self.cap))

    def _basis(self, gens: Sequence[Dict[Exponent, int]], lead_stop) -> Optional[List[_Elt]]:
        cfg, n, bound, dmask, guard = self.cfg, self.nvars, self.bound, self.dmask, self.guard
        pack = self.pack
        elts = [self.elt({pack(e): c for e, c in g.items()}) for g in gens]
        leads = [self.exponent(e.lm) for e in elts]

        heap: List[tuple] = []
        done: set = set()

        def add_pairs(j: int):
            b, bx = elts[j], leads[j]
            db = b.lm & dmask
            for i in range(j):
                a, ax = elts[i], leads[i]
                if ax[n:] != bx[n:]:
                    continue          # leads in different components never pair
                lcm = pack(tuple(map(max, ax, bx)))
                d = lcm & dmask
                if bound is not None and d >= bound:
                    continue          # the s-polynomial lies in m^bound
                sugar = max(a.sugar + d - (a.lm & dmask), b.sugar + d - db)
                # normal strategy: lowest lcm first, by sugar under a global order
                prio = -lcm if self.local else (sugar, lcm)
                heapq.heappush(heap, (prio, i, j, sugar))

        for j in range(len(elts)):
            add_pairs(j)

        handled = 0
        while heap:
            prio, i, j, sugar = heapq.heappop(heap)
            done.add((i, j))
            handled += 1
            if handled > cfg.max_pairs:
                raise ResourceLimitError(
                    f"{self.stage} basis exceeded the pair budget max_pairs={cfg.max_pairs}")
            f, g = elts[i], elts[j]
            lcm = -prio if self.local else prio[1]
            # Product criterion: coprime leads leave an s-polynomial that
            # reduces to zero, because lm(g)f - lm(f)g = tail(f)g - tail(g)f.
            # Under a local order the two sides can cancel when a lead divides
            # a tail term, so one element must have ecart 0. The identity
            # multiplies two elements, which vectors cannot do: the criterion
            # is unsound for modules and never applies there. Leads are
            # coprime exactly when the lcm's degree is the sum of theirs.
            if not self.rank and (not self.local or not f.ecart or not g.ecart) and \
                    lcm & dmask == (f.lm & dmask) + (g.lm & dmask):
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
            h = self._reduce(self.spoly(f, g, lcm), elts, full=not self.local)[0]
            if not h:
                continue
            new = self.elt(h)
            if new.maxdeg > self.cap:
                raise _Overflow(new.maxdeg)
            new.sugar = max(sugar, new.maxdeg)
            elts.append(new)
            leads.append(self.exponent(new.lm))
            add_pairs(len(elts) - 1)
            if lead_stop is not None and lead_stop(leads):
                return None

        # minimalize: drop elements whose lead is divisible by another lead
        minimal = [e for i, e in enumerate(elts)
                   if not any(k != i and not (e.lm - o.lm) & guard and (o.lm != e.lm or k < i)
                              for k, o in enumerate(elts))]
        minimal.sort(key=lambda e: e.lm, reverse=True)
        if not self.local and not self.rank:
            # tail interreduction gives the unique reduced basis
            for idx in range(len(minimal)):
                others = minimal[:idx] + minimal[idx + 1:]
                minimal[idx] = self.elt(self._reduce(dict(minimal[idx].terms), others,
                                                     full=True)[0])
        return minimal


def _staircase_profile(leads: Sequence[Exponent], nvars: int):
    """(count, largest total degree) over the staircase, or INFINITE.

    Finite exactly when every variable shows a pure power among the leads;
    the count then runs over the bounding box of those powers.
    """
    if any(sum(e) == 0 for e in leads):
        return 0, -1
    bounds: List[int] = []
    for i in range(nvars):
        pure = [e[i] for e in leads if sum(e) == e[i]]
        if not pure:
            return INFINITE
        bounds.append(min(pure))
    size = 1
    for b in bounds:
        size *= max(b, 1)
    if size > 2_000_000:
        raise ResourceLimitError(
            f"staircase enumeration too large: the bounding box of the pure powers "
            f"holds {size} monomials, above the cap of 2000000")
    leads = [e for e in leads if all(x < b for x, b in zip(e, bounds))]
    count = 0
    maxdeg = -1
    for mono in itertools.product(*(range(b) for b in bounds)):
        if not any(_divides(e, mono) for e in leads):
            count += 1
            d = sum(mono)
            if d > maxdeg:
                maxdeg = d
    return count, maxdeg


def staircase_count(leads: Sequence[Exponent], nvars: int):
    """Number of monomials outside the monomial ideal, or INFINITE."""
    profile = _staircase_profile(leads, nvars)
    if profile is INFINITE:
        return INFINITE
    return profile[0]


def _local_quotient_dimension(gens: Sequence[Dict[Exponent, Fraction]], nvars: int,
                              cfg: ComputeConfig):
    """dim of the local quotient at the origin by truncation-order growth.

    A truncated basis at order N determines the true local lead ideal below
    degree N, so once the truncated staircase is finite and tops out strictly
    below N the count is exact — no further growth can change it. Failure to
    certify below the configured jet bound is reported as a resource limit:
    it means the quotient has positive local dimension or a staircase taller
    than the bound, and the two cannot be told apart by truncation.
    """
    if not gens:
        return INFINITE
    key = key_function(OrderingSpec.local(), nvars)
    bound = max(2, min(8, cfg.jet_bound))
    while True:
        # a jet: the standard basis of I + m^bound, m^bound kept implicit
        eng = _Engine(key, True, cfg, nvars, bound=bound)
        profile = _staircase_profile([eng.exponent(e.lm) for e in eng.basis(gens)], nvars)
        if profile is not INFINITE and profile[1] < bound:
            return profile[0]
        if bound >= cfg.jet_bound:
            raise ResourceLimitError(
                f"local quotient dimension did not stabilize below jet_bound={cfg.jet_bound}; "
                "the quotient may have positive local dimension")
        if profile is INFINITE:
            bound = min(bound * 2, cfg.jet_bound)
        else:
            bound = min(max(bound * 2, profile[1] + 2), cfg.jet_bound)


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


class Ideal:
    """An ideal handle: generators, an order, and a lazily cached basis.

    The order decides the meaning of every derived quantity: with a global
    order the handle speaks about the polynomial ring, with a local one about
    the ring of germs at the origin.
    """

    def __init__(self, ctx: VariableContext, gens: Iterable[Polynomial],
                 ordering: Optional[OrderingSpec] = None,
                 config: ComputeConfig = DEFAULT_CONFIG):
        self.ctx = ctx
        self.ordering = ordering or OrderingSpec.degrevlex()
        self.config = config
        self._key = key_function(self.ordering, len(ctx))
        gens = [g for g in gens if not g.is_zero()]
        for g in gens:
            if g.ctx != ctx:
                raise GermInputError("ideal generator over the wrong context")
        self.gens: List[Polynomial] = sorted(gens, key=self._gen_sort_key, reverse=True)
        self._basis_cache: Optional[List[Polynomial]] = None

    def _gen_sort_key(self, p: Polynomial):
        items = sorted(((self._key(e), c) for e, c in p.terms.items()), reverse=True)
        return tuple(items)

    # -- basis -----------------------------------------------------------

    @property
    def is_local(self) -> bool:
        return not self.ordering.is_global

    def _engine(self) -> _Engine:
        return _Engine(self._key, self.is_local, self.config, len(self.ctx))

    def _keep_basis(self, eng: _Engine, elts: List[_Elt]) -> None:
        self._basis_cache = [Polynomial._raw(self.ctx, {eng.exponent(z): Fraction(c, e.lc)
                                                        for z, c in e.terms.items()})
                             for e in elts]

    def basis(self) -> List[Polynomial]:
        """Reduced Groebner basis (global order) or minimal standard basis (local)."""
        if self._basis_cache is None:
            eng = self._engine()
            self._keep_basis(eng, eng.basis([g.terms for g in self.gens]))
        return self._basis_cache

    def leading_monomials(self) -> List[Exponent]:
        return [max(p.terms, key=self._key) for p in self.basis()]

    def is_unit(self) -> bool:
        return any(sum(e) == 0 for e in self.leading_monomials())

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Reduced normal form (global) or Mora weak normal form (local).

        The global form is the canonical linear representative of p modulo
        the ideal. The local form is a weak normal form: zero exactly on
        ideal members, otherwise a primitive-integer representative that is
        only determined up to a unit of the local ring.
        """
        if p.ctx != self.ctx:
            raise GermInputError("normal form argument over the wrong context")
        red, scale = self._reduce(p, full=not self.is_local)
        if self.is_local:
            scale = 1     # a weak normal form is only defined up to a unit anyway
        return Polynomial._raw(self.ctx, {e: Fraction(c) / scale for e, c in red.items()})

    def contains(self, p: Polynomial) -> bool:
        return p.is_zero() or not self._reduce(p, full=False)[0]

    def _reduce(self, p: Polynomial, full: bool):
        return self._engine().reduce(p.terms, [b.terms for b in self.basis()], full)

    # -- constructions ---------------------------------------------------

    def with_ordering(self, ordering: OrderingSpec) -> "Ideal":
        """The same generators under `ordering`; this handle itself, cached
        basis included, when the order is unchanged."""
        if ordering == self.ordering:
            return self
        return Ideal(self.ctx, self.gens, ordering, self.config)

    def elimination(self, names: Iterable[str]) -> "Ideal":
        """Intersect with the subring omitting `names` (block order; global only)."""
        if not self.ordering.is_global:
            raise GermInputError("elimination requires a global order")
        names = list(names)
        front = tuple(self.ctx.index(n) for n in names)
        spec = OrderingSpec.elimination(front, len(self.ctx))
        work = Ideal(self.ctx, self.gens, spec, self.config)
        front_set = set(front)
        keep_idx = [i for i in range(len(self.ctx)) if i not in front_set]
        new_ctx = self.ctx.drop(names)
        out: List[Polynomial] = []
        for p in work.basis():
            if all(all(e[i] == 0 for i in front) for e in p.terms):
                out.append(Polynomial._raw(
                    new_ctx,
                    {tuple(e[i] for i in keep_idx): c for e, c in p.terms.items()}))
        return Ideal(new_ctx, out, OrderingSpec.degrevlex(), self.config)

    def saturation(self, f: Polynomial) -> "Ideal":
        """Stable colon ideal (I : f^infinity), by one elimination: a fresh
        variable z is eliminated from I + (1 - z*f) (Rabinowitsch's trick)."""
        if f.ctx != self.ctx:
            raise GermInputError("saturation argument over the wrong context")
        if f.is_zero():
            raise GermInputError("saturation by zero")
        zname = self.ctx.fresh_name("_z")
        ext = self.ctx.extend([zname], "source")
        gens = [g.rename(ext) for g in self.gens]
        z = Polynomial.variable(ext, zname)
        gens.append(Polynomial.constant(ext, 1) - z * f.rename(ext))
        elim = Ideal(ext, gens, OrderingSpec.degrevlex(), self.config).elimination([zname])
        return Ideal(self.ctx, elim.gens, self.ordering, self.config)

    # -- dimensions ------------------------------------------------------

    def quotient_dimension(self):
        """Vector-space dimension of the quotient over the handle's ring.

        Global order: staircase of the reduced basis, INFINITE when some
        variable has no pure power in the leading ideal. Local order: the
        dimension of the quotient of germs at the origin, computed through
        truncated standard bases (see _local_quotient_dimension) rather than
        through a full Mora basis — the two agree, but truncation keeps large
        inputs affordable. Truncation starts at order 8 and doubles until
        the count is certified or the jet bound is reached.
        """
        if self.ordering.is_global:
            return staircase_count(self.leading_monomials(), len(self.ctx))
        return _local_quotient_dimension([g.terms for g in self.gens],
                                         len(self.ctx), self.config)

    def dimension(self):
        """Krull dimension of the quotient read off the leading ideal; EMPTY
        for the unit ideal."""
        return monomial_dimension(self.leading_monomials(), len(self.ctx))

    def dimension_bound(self, stop_at: int):
        """Upper bound for dimension(), with early exit at `stop_at`.

        Runs the basis loop watching the dimension cut out by the leads
        found so far. Partial leads generate a subideal of the true leading
        ideal, so that dimension only shrinks as elements accumulate and is
        an upper bound throughout. Once it reaches `stop_at` the loop aborts
        and the bound is returned; if the loop finishes first the result is
        exact (and the basis is kept). Requires a global order — local leads
        stabilize too, but nothing certifies when.
        """
        if not self.ordering.is_global:
            raise GermInputError("dimension bound requires a global order")
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
