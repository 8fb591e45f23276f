"""Binomial reduction and reduced Groebner bases under degrevlex.

Everything here is specialized to ideals generated by differences of
monomials with unit coefficients: reducing a monomial by such a basis yields
a single monomial, reducing a difference yields a difference or zero, so no
general polynomial arithmetic is needed.  The one term order is degrevlex
with e_1 the highest variable: a quotient has the Hilbert function of its
initial ideal under every term order, so no other order is needed.
`buchberger` completes arbitrary binomial generators to the reduced basis by
the textbook algorithm, skipping only the S-pairs of coprime leading
monomials (the product criterion), and `initial_ideal` reads off its leading
monomials.  The invariant pipeline needs neither: it takes the initial ideal
from the even-cycle search in `toric`.  Both stay as the oracle the pipeline
is checked against and as the public API for arbitrary binomial ideals.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .toric import Binomial, Monomial


def _key(m: Monomial):
    # degrevlex: higher degree first, then the smaller last differing exponent
    return (sum(m), tuple(-e for e in reversed(m)))


@dataclass(frozen=True)
class ReducedGB:
    nvars: int
    elements: tuple[Binomial, ...]

    @property
    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(b.plus for b in self.elements)


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal carried by its minimal generators (a divisibility
    antichain), sorted by (degree, exponents)."""

    nvars: int
    gens: tuple[Monomial, ...]


def _mask(m: Monomial) -> int:
    b = 0
    for i, e in enumerate(m):
        if e:
            b |= 1 << i
    return b


def _divides(a: Monomial, b: Monomial) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _nf_monomial(m, lms, tails, masks) -> Monomial:
    # leaves m unchanged once no leading monomial divides it; each rewrite
    # strictly decreases m in the order, so this terminates
    q = len(m)
    while True:
        mm = _mask(m)
        for i, lm in enumerate(lms):
            if masks[i] & mm == masks[i] and _divides(lm, m):
                t = tails[i]
                m = tuple(m[k] - lm[k] + t[k] for k in range(q))
                break
        else:
            return m


def normal_form(basis, target):
    """Remainder of target (Binomial or Monomial) modulo the marked basis.

    Basis elements must be oriented for degrevlex (plus = leading monomial).
    A Binomial target reduces to a Binomial or to None (zero); a Monomial
    target reduces to a Monomial.
    """
    for b in basis:
        if _key(b.plus) <= _key(b.minus):
            raise ValueError(f"basis element not oriented for degrevlex: {b}")
    lms = [b.plus for b in basis]
    tails = [b.minus for b in basis]
    masks = [_mask(m) for m in lms]
    if isinstance(target, Binomial):
        a = _nf_monomial(target.plus, lms, tails, masks)
        b = _nf_monomial(target.minus, lms, tails, masks)
        if a == b:
            return None
        if _key(a) > _key(b):
            return Binomial(a, b)
        return Binomial(b, a)
    return _nf_monomial(target, lms, tails, masks)


def _ring_size(gens: list[Binomial], nvars: int | None) -> int:
    if gens:
        q = len(gens[0].plus)
        if any(len(g.plus) != q for g in gens):
            raise ValueError("generators live in different rings")
        if nvars is not None and nvars != q:
            raise ValueError(f"nvars={nvars} but generators have {q} variables")
        return q
    if nvars is None:
        raise ValueError("nvars is required when there are no generators")
    return nvars


def _reduce(q: int, lms: list[Monomial], tails: list[Monomial]) -> ReducedGB:
    """Reduced basis from a marked Groebner basis (leading monomials `lms`,
    tails `tails`) of the ideal."""
    masks = [_mask(m) for m in lms]
    # minimalize: drop elements whose leading monomial another one divides
    order_idx = sorted(range(len(lms)), key=lambda i: _key(lms[i]))
    kept_idx: list[int] = []
    for i in order_idx:
        if not any(masks[j] & masks[i] == masks[j] and _divides(lms[j], lms[i])
                   for j in kept_idx):
            kept_idx.append(i)
    min_lms = [lms[i] for i in kept_idx]
    min_tails = [tails[i] for i in kept_idx]
    min_masks = [masks[i] for i in kept_idx]
    # interreduce tails against the minimal basis (tails cannot be divisible
    # by their own leading monomial: equal degree would force equality)
    elements = []
    for lm, tail in zip(min_lms, min_tails):
        elements.append(Binomial(lm, _nf_monomial(tail, min_lms, min_tails, min_masks)))
    elements.sort(key=lambda b: _key(b.plus))
    return ReducedGB(q, tuple(elements))


def buchberger(gens, nvars: int | None = None) -> ReducedGB:
    """Unique reduced Groebner basis of the ideal generated by `gens`.

    Textbook Buchberger: a pair is skipped only by the product criterion
    (coprime leading monomials), and pairs are taken by the normal strategy
    (smallest lcm degree, ties broken by the lcm itself), so the run is
    deterministic.  The output, the reduced basis, does not depend on the
    generator order at all.
    """
    gens = list(gens)
    q = _ring_size(gens, nvars)

    lms: list[Monomial] = []
    tails: list[Monomial] = []
    masks: list[int] = []
    heap: list = []

    def add(a: Monomial, b: Monomial) -> None:
        if _key(a) < _key(b):
            a, b = b, a
        mask = _mask(a)
        for i, lm in enumerate(lms):
            if masks[i] & mask:  # product criterion
                lc = tuple(x if x > y else y for x, y in zip(lm, a))
                heapq.heappush(heap, (sum(lc), lc, i, len(lms)))
        lms.append(a)
        tails.append(b)
        masks.append(mask)

    seed = [(g.plus, g.minus) if _key(g.plus) > _key(g.minus) else (g.minus, g.plus) for g in gens]
    for a, b in sorted(seed, key=lambda ab: (_key(ab[0]), _key(ab[1]))):
        a = _nf_monomial(a, lms, tails, masks)
        b = _nf_monomial(b, lms, tails, masks)
        if a != b:
            add(a, b)

    while heap:
        _, lc, i, j = heapq.heappop(heap)
        u, v = (_nf_monomial(tuple(c - x + y for c, x, y in zip(lc, lms[t], tails[t])),
                             lms, tails, masks) for t in (i, j))
        if u != v:
            if sum(u) != sum(v):
                raise AssertionError("homogeneity lost in S-pair reduction")
            add(u, v)

    return _reduce(q, lms, tails)


def initial_ideal(gb: ReducedGB) -> MonomialIdeal:
    """Initial ideal of a reduced basis: its leading monomials, which already
    form a divisibility antichain."""
    gens = sorted(gb.leading_monomials, key=lambda m: (sum(m), m))
    masks = [_mask(m) for m in gens]
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if i != j and masks[i] & masks[j] == masks[i] and _divides(a, b):
                raise ValueError("leading monomials of a reduced basis must be an antichain")
    return MonomialIdeal(gb.nvars, tuple(gens))

