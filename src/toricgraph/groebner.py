"""Monomial orders, binomial reduction, and reduced Groebner bases.

Everything here is specialized to ideals generated by differences of
monomials with unit coefficients: reducing a monomial by such a basis yields
a single monomial, reducing a difference yields a difference or zero, so no
general polynomial arithmetic is needed.  `buchberger` completes arbitrary
binomial generators to the reduced basis, pruning S-pairs with the coprime
and Gebauer-Moeller chain criteria, and `initial_ideal` reads off its
leading monomials.  The invariant pipeline needs neither: it takes the
initial ideal from the even-cycle search in `toric`.  Both stay as the
oracle the pipeline is checked against and as the public API for arbitrary
binomial ideals.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .toric import Binomial, Monomial

LT, EQ, GT = -1, 0, 1


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative order on monomials, of one of the kinds
    degrevlex, deglex or lex; e_1 is the highest variable."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("degrevlex", "deglex", "lex"):
            raise ValueError(f"unknown order kind {self.kind!r}")

    def key(self, m: Monomial):
        if self.kind == "lex":
            return m
        if self.kind == "deglex":
            return (sum(m), m)
        return (sum(m), tuple(-e for e in reversed(m)))


DEGREVLEX = MonomialOrder("degrevlex")
DEGLEX = MonomialOrder("deglex")
LEX = MonomialOrder("lex")


def compare(order: MonomialOrder, m1: Monomial, m2: Monomial) -> int:
    """-1/0/1 comparison (constants LT, EQ, GT)."""
    if len(m1) != len(m2):
        raise ValueError(f"variable count mismatch: {len(m1)} vs {len(m2)}")
    k1, k2 = order.key(m1), order.key(m2)
    if k1 < k2:
        return LT
    if k1 > k2:
        return GT
    return EQ


@dataclass(frozen=True)
class ReducedGB:
    order: MonomialOrder
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


def normal_form(order, basis, target):
    """Remainder of target (Binomial or Monomial) modulo the marked basis.

    Basis elements must be oriented for `order` (plus = leading monomial).
    A Binomial target reduces to a Binomial or to None (zero); a Monomial
    target reduces to a Monomial.
    """
    for b in basis:
        if order.key(b.plus) <= order.key(b.minus):
            raise ValueError(f"basis element not oriented for the order: {b}")
    lms = [b.plus for b in basis]
    tails = [b.minus for b in basis]
    masks = [_mask(m) for m in lms]
    if isinstance(target, Binomial):
        a = _nf_monomial(target.plus, lms, tails, masks)
        b = _nf_monomial(target.minus, lms, tails, masks)
        if a == b:
            return None
        if order.key(a) > order.key(b):
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


def _reduce(order: MonomialOrder, q: int, lms: list[Monomial], tails: list[Monomial]) -> ReducedGB:
    """Reduced basis from a marked Groebner basis (leading monomials `lms`,
    tails `tails`) of the ideal."""
    key = order.key
    masks = [_mask(m) for m in lms]
    # minimalize: drop elements whose leading monomial another one divides
    order_idx = sorted(range(len(lms)), key=lambda i: key(lms[i]))
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
    elements.sort(key=lambda b: key(b.plus))
    return ReducedGB(order, q, tuple(elements))


def buchberger(order: MonomialOrder, gens, nvars: int | None = None) -> ReducedGB:
    """Unique reduced Groebner basis of the ideal generated by `gens`.

    Pair selection is the normal strategy (smallest lcm degree, ties broken
    by the lcm itself), so the run is deterministic; the output is the
    reduced basis and hence independent of the generator order entirely.
    """
    gens = list(gens)
    q = _ring_size(gens, nvars)
    key = order.key

    lms: list[Monomial] = []
    tails: list[Monomial] = []
    masks: list[int] = []
    alive: set[tuple[int, int]] = set()
    heap: list = []

    def lcm(a: Monomial, b: Monomial) -> Monomial:
        return tuple(x if x > y else y for x, y in zip(a, b))

    def add(plus: Monomial, minus: Monomial) -> None:
        t = len(lms)
        lmf = plus
        # chain criterion on surviving pairs
        drop = []
        for i, j in alive:
            lij = lcm(lms[i], lms[j])
            if _divides(lmf, lij) and lcm(lms[i], lmf) != lij and lcm(lms[j], lmf) != lij:
                drop.append((i, j))
        for p in drop:
            alive.discard(p)
        # Gebauer-Moeller filtering of the new pairs (i, t)
        by_lcm: dict[Monomial, list[int]] = {}
        for i in range(t):
            by_lcm.setdefault(lcm(lms[i], lmf), []).append(i)
        kept: list[Monomial] = []
        for lc in sorted(by_lcm, key=lambda m: (sum(m), m)):
            if any(_divides(k, lc) for k in kept):
                continue
            kept.append(lc)
            if any(lcm(lms[i], lmf) == tuple(x + y for x, y in zip(lms[i], lmf))
                   for i in by_lcm[lc]):
                continue  # coprime criterion
            i = min(by_lcm[lc])
            alive.add((i, t))
            heapq.heappush(heap, (sum(lc), lc, i, t))
        lms.append(plus)
        tails.append(minus)
        masks.append(_mask(plus))

    def orient(a: Monomial, b: Monomial) -> tuple[Monomial, Monomial]:
        return (a, b) if key(a) > key(b) else (b, a)

    seed = sorted(
        (orient(g.plus, g.minus) for g in gens),
        key=lambda ab: (key(ab[0]), key(ab[1])),
    )
    for a, b in seed:
        a = _nf_monomial(a, lms, tails, masks)
        b = _nf_monomial(b, lms, tails, masks)
        if a != b:
            add(*orient(a, b))

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in alive:
            continue
        alive.discard((i, j))
        lc = lcm(lms[i], lms[j])
        u = tuple(lc[k] - lms[i][k] + tails[i][k] for k in range(q))
        v = tuple(lc[k] - lms[j][k] + tails[j][k] for k in range(q))
        if u == v:
            continue
        u = _nf_monomial(u, lms, tails, masks)
        v = _nf_monomial(v, lms, tails, masks)
        if u == v:
            continue
        assert sum(u) == sum(v), "homogeneity lost in S-pair reduction"
        add(*orient(u, v))

    return _reduce(order, q, lms, tails)


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

