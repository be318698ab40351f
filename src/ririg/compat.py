"""Compatibility of finite functions with every congruence, decided three
ways: directly against the congruence lattice, through products of block
applications, and through iterates of the modal contraction operator.

The block and iterate routes decide the same condition: the symmetric
implication product of the two output tuples must land in the filter
generated by the slotwise star values of the argument pairs.  A filter is
up-closed and product-closed and x*y <= x, y, so Fg(X) = Fg(prod X): each
pair is decided by one bit test in a per-algebra bitmask of the filter
generated by a single element, the product of the pair's slot stars.
Those products are tabled too, once per algebra and arity over all pairs
of argument tuples, so a verdict is a loop over that table and the star
row of each output, and only the first failing pair is decoded into
tuples.  A witness depends only on the pair's slot stars and output star,
so it is searched once per such shape and call.  A finite block-length
bound truncates the closure, and that route still runs pair by pair,
with its truncated filter kept per set of slot stars.  That rule, and the
routes themselves, hold only in an I-modal ririg, so both witness routes
refuse an algebra that fails validate_ririg or validate_modal.  Both
routes' filters, their witness search and every per-algebra table, the
axiom verdict among them, live in filters; this module writes only its
memo of slot-star products per arity into the filter context.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .core import Algebra
from .filters import DEFAULT_CONGRUENCE_CAP, _Context, _block_items, \
    _blocks, _context as filter_context, _lambda_witness, _mask, \
    _shortest_product_below, all_congruences_direct
from .modal import lambda_iter

DEFAULT_SEED = 0x161


@dataclass(frozen=True)
class FiniteFunction:
    """A total k-ary map on indices, stored as a flat row-major table
    (last argument varies fastest).  Only an `int` is an entry; whether
    the entries lie in an algebra is `check_size`'s question."""

    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        table = tuple(self.table)
        types = list(map(type, table))
        if types.count(int) != len(table):
            pos = next(pos for pos, t in enumerate(types) if t is not int)
            raise ValueError(f"function table, entry {pos}: {table[pos]!r} "
                             "is not an integer")
        object.__setattr__(self, "table", table)
        n = round(len(self.table) ** (1 / self.arity))
        for cand in (n - 1, n, n + 1):
            if cand >= 1 and cand ** self.arity == len(self.table):
                object.__setattr__(self, "_size", cand)
                return
        raise ValueError("table length is not a perfect arity power")

    def size(self) -> int:
        return self._size

    def __call__(self, *args: int) -> int:
        idx = 0
        for a in args:
            idx = idx * self._size + a
        return self.table[idx]


def random_function(n: int, arity: int, rng: random.Random) -> FiniteFunction:
    return FiniteFunction(arity, tuple(rng.randrange(n)
                                       for _ in range(n ** arity)))


def all_unary_functions(n: int):
    for table in itertools.product(range(n), repeat=n):
        yield FiniteFunction(1, table)


def slot_function(f: FiniteFunction, anchor: tuple[int, ...], i: int,
                  n: int) -> FiniteFunction:
    """The unary section through `anchor` in slot i."""
    table = []
    for x in range(n):
        args = list(anchor)
        args[i] = x
        table.append(f(*args))
    return FiniteFunction(1, tuple(table))


@dataclass(frozen=True)
class CompatReport:
    """compatible is None when a bounded search could not decide.

    witnesses maps a pair of argument tuples to the factor list certifying
    it (route-specific shape); failing names the first violation found:
    (congruence, tuple pair) for the direct route, a bare tuple pair for
    the witness routes.
    """

    compatible: Optional[bool]
    witnesses: Optional[dict] = None
    failing: Optional[tuple] = None

    @property
    def verdict(self) -> str:
        if self.compatible is None:
            return "undecided"
        return "compatible" if self.compatible else "incompatible"


def check_size(A: Algebra, f: FiniteFunction):
    """Raise ValueError unless f acts on A's elements: its arguments and
    its values range over [0, n), n the size of A."""
    n, table = A.size, f.table
    if f.size() != n:
        raise ValueError(f"function table size {f.size()} does not match "
                         f"the algebra size {n}")
    if min(table) < 0 or max(table) >= n:
        pos, x = next((pos, x) for pos, x in enumerate(table)
                      if not 0 <= x < n)
        raise ValueError(f"function table, entry {pos}: {x} not in [0,{n})")


def is_compatible_direct(A: Algebra, f: FiniteFunction,
                         cap: int = DEFAULT_CONGRUENCE_CAP) -> CompatReport:
    """Quantify over every congruence and every componentwise-related pair
    of argument tuples; report the first violation."""
    check_size(A, f)
    n, k = A.size, f.arity
    for theta in all_congruences_direct(A, cap=cap):
        classes = len(set(theta))
        if classes in (1, n):
            continue  # the bounds of the lattice cannot be violated
        related = [(a, b) for a in range(n) for b in range(n)
                   if theta[a] == theta[b]]
        for pairs in itertools.product(related, repeat=k):
            left = f(*(p[0] for p in pairs))
            right = f(*(p[1] for p in pairs))
            if theta[left] != theta[right]:
                return CompatReport(False, failing=(theta, tuple(pairs)))
    return CompatReport(True)


def check_modal_ririg(A: Algebra) -> None:
    """Raise ValueError naming the first failed axiom unless A is an
    I-modal ririg; the witness routes are only exact on those."""
    _context(A)


def _context(A: Algebra) -> _Context:
    """The per-algebra context of filters, refused, before any use, for
    an algebra that is not an I-modal ririg."""
    ctx = filter_context(A)
    if ctx.axiom_failures:
        name, witness = ctx.axiom_failures[0]
        raise ValueError(f"not an I-modal ririg: axiom {name!r} fails at "
                         f"{list(witness)}")
    return ctx


def _slot_products(A: Algebra, ctx: _Context, k: int):
    """ctx.slot_products[k], the slot-star products of all pairs of
    k-tuples, flat and row-major: entry a*n**k + b is the product of
    star(a_i, b_i) over the slots (tuples indexed as base-n numerals, last
    slot least significant).  Built from the table of arity k - 1 by one
    more slot, multiplied on the right as the slots are read left to right."""
    table = ctx.slot_products.get(k)
    if table is None:
        prev = _slot_products(A, ctx, k - 1)
        width = A.size ** (k - 1)
        out = []
        for i in range(0, len(prev), width):
            row = prev[i:i + width]
            for srow in ctx.star:
                for p in row:
                    out.extend(map(A.prod[p].__getitem__, srow))
        # one byte an entry while the elements fit in one
        table = ctx.slot_products[k] = (bytes(out) if A.size <= 256
                                        else tuple(out))
    return table


def _tuple_at(index: int, n: int, k: int) -> tuple[int, ...]:
    """The k-tuple whose base-n numeral is `index`."""
    digits = []
    for _ in range(k):
        index, d = divmod(index, n)
        digits.append(d)
    return tuple(reversed(digits))


def _first_failure(A: Algebra, ctx: _Context, f: FiniteFunction, masks):
    """The first pair (a, b) of argument tuples, in row-major order, whose
    output star is outside the filter that masks[p] holds for its slot-star
    product p, or None."""
    products = _slot_products(A, ctx, f.arity)
    table = f.table
    width = len(table)
    for i, fa in enumerate(table):
        srow = ctx.star[fa]
        row = products[i * width:(i + 1) * width]
        for j, (p, fb) in enumerate(zip(row, table)):
            if not masks[p] >> srow[fb] & 1:
                return (_tuple_at(i, A.size, f.arity),
                        _tuple_at(j, A.size, f.arity))
    return None


def _star_pairs(A: Algebra, star, f: FiniteFunction):
    """Each pair (a, b) of argument tuples, in row-major order, with its
    slot stars and the output star."""
    tuples = list(itertools.product(range(A.size), repeat=f.arity))
    for a, fa in zip(tuples, f.table):
        srow = star[fa]
        # the slot stars of (a, b) for every b, in the order of `tuples`
        slot_stars = itertools.product(*(star[x] for x in a))
        for b, cs, fb in zip(tuples, slot_stars, f.table):
            yield a, b, cs, srow[fb]


def _witnesses(A: Algebra, ctx: _Context, f: FiniteFunction, search):
    """search(slot stars, output star) for each pair, in row-major order;
    it depends on nothing else, so it runs once per distinct pair shape."""
    memo = {}
    out = {}
    for a, b, cs, target in _star_pairs(A, ctx.star, f):
        key = cs, target
        try:
            out[a, b] = memo[key]
        except KeyError:
            out[a, b] = memo[key] = search(cs, target)
    return out


def _bounded_failure(A: Algebra, ctx: _Context, f: FiniteFunction,
                     bound: int) -> CompatReport | None:
    """The report of the first pair outside the filter that blocks of
    length at most `bound` generate from its slot stars, or None."""
    filters = {}
    for a, b, cs, target in _star_pairs(A, ctx.star, f):
        # a truncated closure is not the generated filter, so it is taken
        # of the slot stars themselves rather than their product
        key = _mask(cs)
        if key not in filters:
            filters[key] = _blocks(ctx, key, bound, None)
        if not filters[key] >> target & 1:
            saturated = all(len(ctx.reach[c]) - 1 <= max(bound, 0)
                            for c in cs)
            return CompatReport(False if saturated else None,
                                failing=((a, b),))
    return None


def compat_witness_kary(A: Algebra, f: FiniteFunction,
                        block_len_bound: int | None = None,
                        with_witnesses: bool = True) -> CompatReport:
    """Decide compatibility by products of block applications in the
    argument slots.

    With block_len_bound=None the reachable-value closure is computed in
    full and the verdict is exact; a finite bound may return an undecided
    report when the closure was truncated and no witness appeared.
    """
    check_size(A, f)
    ctx = _context(A)
    if block_len_bound is None:
        failing = _first_failure(A, ctx, f, ctx.block_masks)
        if failing is not None:
            return CompatReport(False, failing=(failing,))
    else:
        report = _bounded_failure(A, ctx, f, block_len_bound)
        if report is not None:
            return report
    if not with_witnesses:
        return CompatReport(True)

    def search(cs, target):
        items = [(v, (blk, slot)) for slot, c in enumerate(cs)
                 for v, blk in _block_items(A, c, block_len_bound)]
        return _shortest_product_below(A, items, target)
    return CompatReport(True, witnesses=_witnesses(A, ctx, f, search))


def compat_witness_lambda(A: Algebra, f: FiniteFunction,
                          with_witnesses: bool = True) -> CompatReport:
    """Decide compatibility through iterates of the contraction operator;
    exact, since the iteration stabilizes pointwise."""
    check_size(A, f)
    ctx = _context(A)
    failing = _first_failure(A, ctx, f, ctx.lam_masks)
    if failing is not None:
        return CompatReport(False, failing=(failing,))
    if not with_witnesses:
        return CompatReport(True)
    return CompatReport(True, witnesses=_witnesses(
        A, ctx, f, lambda cs, target: _lambda_witness(A, cs, target)))


def _sweep_chunk(job):
    """Worker for agreement_sweep; functions are seeded per index so the
    outcome is independent of how the range is chunked."""
    A, arity, seed, cap, lo, hi = job
    out = []
    for i in range(lo, hi):
        rng = random.Random((seed << 20) ^ i)
        f = random_function(A.size, arity, rng)
        d = is_compatible_direct(A, f, cap=cap).compatible
        b = compat_witness_kary(A, f, with_witnesses=False).compatible
        l = compat_witness_lambda(A, f, with_witnesses=False).compatible
        if not d == b == l:
            out.append((f, d, b, l))
    return out


def agreement_sweep(A: Algebra, arity: int, count: int, seed: int,
                    jobs: int = 1, cap: int = DEFAULT_CONGRUENCE_CAP):
    """Run the three compatibility routes over seeded random functions,
    returning the disagreeing ones (expected: none); `cap` bounds the
    direct route's congruence oracle."""
    if jobs <= 1 or count < 1:
        return _sweep_chunk((A, arity, seed, cap, 0, count))
    from concurrent.futures import ProcessPoolExecutor
    chunk = (count + jobs - 1) // jobs
    spans = [(lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        results = ex.map(_sweep_chunk,
                         [(A, arity, seed, cap, lo, hi) for lo, hi in spans])
    out = []
    for r in results:
        out.extend(r)
    return out


# ---------------------------------------------------------------------------
# local polynomial representation on a finite block of tuples

@dataclass(frozen=True)
class LafRepresentation:
    """Join representation of a compatible f over a finite tuple set B:
    for each x in B, f(x) is the join of the recorded terms, one per
    anchor a in B, each of the form f(a) times a power product of
    lambda-iterates of the slotwise stars a_i * x_i at exponent n_a."""

    points: tuple[tuple[int, ...], ...]
    pair_exponents: dict
    anchor_exponents: dict
    joins: dict
    verified: bool


def laf_representation(A: Algebra, f: FiniteFunction, B) -> LafRepresentation:
    """Build and verify the representation; refuses incompatible functions."""
    check_size(A, f)
    if not B:
        raise ValueError("B must be nonempty")
    points = tuple(sorted(tuple(p) for p in B))
    if any(len(p) != f.arity for p in points):
        raise ValueError("tuples in B must match the arity")
    if not compat_witness_lambda(A, f, with_witnesses=False).compatible:
        raise ValueError("function is not compatible")
    star = _context(A).star
    # the least exponent depends only on the slot stars and output star
    memo = {}

    def least_exponent(a, x):
        key = tuple(star[ai][xi] for ai, xi in zip(a, x)), star[f(*a)][f(*x)]
        if key not in memo:
            wit = _lambda_witness(A, *key)
            assert wit is not None, "no exponent certifies a compatible pair"
            memo[key] = wit[0]
        return memo[key]

    pair_exponents = {(a, x): least_exponent(a, x)
                      for a in points for x in points}
    anchor_exponents = {a: max(pair_exponents[(a, x)] for x in points)
                        for a in points}
    joins = {}
    verified = True
    for x in points:
        terms = []
        for a in points:
            l = anchor_exponents[a]
            cs = [lambda_iter(A, l, star[ai][xi]) for ai, xi in zip(a, x)]
            target = star[f(*a)][f(*x)]
            factors = _shortest_product_below(
                A, [(v, slot) for slot, v in enumerate(cs)], target)
            assert factors is not None
            val = f(*a)
            for slot in factors:
                val = A.prod[val][cs[slot]]
            terms.append(val)
        join = terms[0]
        for t in terms[1:]:
            join = A.join[join][t]
        joins[x] = (tuple(terms), join)
        if join != f(*x):
            verified = False
    return LafRepresentation(points, pair_exponents, anchor_exponents,
                             joins, verified)
