"""Filters of modal ririgs, their generation, and the congruence side.

A filter is a nonempty up-set closed under the product and under every
modal table; filters are kept as frozensets of element indices.  A
congruence is kept as a length-n tuple assigning to each element the least
member of its class, so equal partitions compare equal structurally.

Each generation route has its one implementation here (generate_filter,
generate_filter_blocks, generate_filter_lambda), as has the shortest-product
witness search (_shortest_product_below) that is_simple and compat share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import Algebra
from .modal import Block, lambda_op, reachable_values

Subset = frozenset[int]
Partition = tuple[int, ...]

DEFAULT_CONGRUENCE_CAP = 5
DEFAULT_SUBUNIVERSE_CAP = 6
# algebras kept by each per-algebra cache
ALGEBRA_CACHE_SIZE = 64


class CapError(ValueError):
    """An exhaustive scan refused an algebra larger than its size cap; the
    args are the message and the scan, "congruence" or "subuniverse"."""

    def __str__(self):
        return self.args[0]


def up_set(A: Algebra, xs) -> Subset:
    return frozenset(y for y in range(A.size)
                     if any(A.leq(x, y) for x in xs))


def is_ifilter(A: Algebra, S) -> bool:
    """Nonempty, upward closed, product closed, closed under each modal."""
    S = frozenset(S)
    if not S:
        return False
    for x in S:
        for y in range(A.size):
            if A.leq(x, y) and y not in S:
                return False
        for y in S:
            if A.prod[x][y] not in S:
                return False
        for t in A.modal_tables:
            if t[x] not in S:
                return False
    return True


def generate_filter(A: Algebra, X) -> Subset:
    """Least filter containing X, by closure fixpoint."""
    S = set(X)
    S.add(A.one)
    while True:
        new = set()
        for x in S:
            for y in range(A.size):
                if A.leq(x, y) and y not in S:
                    new.add(y)
            for y in S:
                p = A.prod[x][y]
                if p not in S:
                    new.add(p)
            for t in A.modal_tables:
                if t[x] not in S:
                    new.add(t[x])
        if not new:
            return frozenset(S)
        S |= new


def _products_up_to(A: Algebra, values, count: int | None = None
                    ) -> set[int]:
    """All products of at most `count` factors drawn from `values`
    (with repetition), of any number when count is None; the empty
    product is 1."""
    prod = A.prod
    acc = {A.one}
    frontier = {A.one}
    rounds = 0
    while frontier and (count is None or rounds < count):
        rounds += 1
        frontier = {prod[p][v] for p in frontier for v in values} - acc
        acc |= frontier
    return acc


def generate_filter_blocks(A: Algebra, X, block_len_bound: int | None,
                           product_len_bound: int | None) -> Subset:
    """Bounded generated-filter approximation from below: the up-set of all
    products of at most product_len_bound block applications, each block of
    length at most block_len_bound, None being no bound.  Monotone in both
    bounds; with neither, the generated filter of an I-modal ririg."""
    values = {v for x in X for v in reachable_values(A, x, block_len_bound)}
    return up_set(A, _products_up_to(A, values, product_len_bound))


def generate_filter_blocks_stabilized(A: Algebra, X) -> Subset:
    """Raise both bounds together until two consecutive rounds agree."""
    prev = generate_filter_blocks(A, X, 0, 0)
    t = 1
    while True:
        cur = generate_filter_blocks(A, X, t, t)
        if cur == prev:
            return cur
        prev = cur
        t += 1


def generate_filter_lambda(A: Algebra, X) -> Subset:
    """Generated filter via the single contraction operator: the up-set of
    all products of iterates sharing one exponent, exponents taken up to
    pointwise stabilization."""
    out = set()
    level = list(X)
    while True:
        out |= _products_up_to(A, level)
        nxt = [lambda_op(A, v) for v in level]
        if nxt == level:
            break
        level = nxt
    return up_set(A, out)


def all_ifilters(A: Algebra) -> list[Subset]:
    """Every filter, sorted by (cardinality, sorted members)."""
    n = A.size
    out = []
    for mask in range(1, 1 << n):
        S = frozenset(i for i in range(n) if mask >> i & 1)
        if is_ifilter(A, S):
            out.append(S)
    out.sort(key=lambda S: (len(S), sorted(S)))
    return out


# ---------------------------------------------------------------------------
# congruences

def normalize_partition(class_of) -> Partition:
    """Relabel class ids as the least member of each class."""
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(class_of):
        groups.setdefault(c, []).append(i)
    rep = {c: min(members) for c, members in groups.items()}
    return tuple(rep[c] for c in class_of)


def partitions(n: int):
    """All partitions of range(n) as normalized class tuples, via
    restricted-growth strings."""
    def rec(prefix, maxc):
        if len(prefix) == n:
            yield normalize_partition(prefix)
            return
        for c in range(maxc + 2):
            yield from rec(prefix + [c], max(maxc, c))
    if n == 0:
        yield ()
        return
    yield from rec([0], 0)


def is_congruence(A: Algebra, part: Partition) -> bool:
    """Compatibility with join, prod, imp (both slots) and every modal."""
    n = A.size
    for a in range(n):
        for b in range(a + 1, n):
            if part[a] != part[b]:
                continue
            for t in A.modal_tables:
                if part[t[a]] != part[t[b]]:
                    return False
            for c in range(n):
                if part[A.join[a][c]] != part[A.join[b][c]]:
                    return False
                if part[A.prod[a][c]] != part[A.prod[b][c]]:
                    return False
                if part[A.imp[a][c]] != part[A.imp[b][c]]:
                    return False
                if part[A.imp[c][a]] != part[A.imp[c][b]]:
                    return False
    return True


@lru_cache(maxsize=ALGEBRA_CACHE_SIZE)
def _congruences_cached(A: Algebra) -> tuple[Partition, ...]:
    return tuple(p for p in partitions(A.size) if is_congruence(A, p))


def all_congruences_direct(A: Algebra, cap: int = DEFAULT_CONGRUENCE_CAP
                           ) -> list[Partition]:
    """Brute-force enumeration over all partitions of the universe."""
    if A.size > cap:
        raise CapError(f"size {A.size} exceeds congruence oracle cap {cap}",
                       "congruence")
    return list(_congruences_cached(A))


def _union_find(n: int):
    """find and union over range(n), each element alone at first; union
    keeps the lesser root and says whether the two classes were apart."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[max(ra, rb)] = min(ra, rb)
        return True

    return find, union


def theta_from_filter(A: Algebra, F) -> Partition:
    """Congruence x ~ y iff star(x, y) in F."""
    F = frozenset(F)
    if not is_ifilter(A, F):
        raise ValueError("not a filter")
    n = A.size
    # star-membership is an equivalence for genuine filters; the union-find
    # pass keeps the partition well formed regardless.
    find, union = _union_find(n)
    for x in range(n):
        for y in range(x + 1, n):
            if A.star(x, y) in F:
                union(x, y)
    return normalize_partition(tuple(find(i) for i in range(n)))


def filter_from_theta(A: Algebra, theta) -> Subset:
    """The class of 1."""
    theta = tuple(theta)
    if not is_congruence(A, theta):
        raise ValueError("not a congruence")
    one_class = theta[A.one]
    return frozenset(i for i in range(A.size) if theta[i] == one_class)


def congruence_join(A: Algebra, th1: Partition, th2: Partition) -> Partition:
    """Least congruence above both: transitive closure of the union,
    re-closed under all operations."""
    n = A.size
    find, union = _union_find(n)
    for th in (th1, th2):
        for i in range(n):
            union(i, th[i])
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(a + 1, n):
                if find(a) != find(b):
                    continue
                images = [(A.join[a][c], A.join[b][c]) for c in range(n)]
                images += [(A.prod[a][c], A.prod[b][c]) for c in range(n)]
                images += [(A.imp[a][c], A.imp[b][c]) for c in range(n)]
                images += [(A.imp[c][a], A.imp[c][b]) for c in range(n)]
                images += [(t[a], t[b]) for t in A.modal_tables]
                for u, v in images:
                    if union(u, v):
                        changed = True
    return normalize_partition(tuple(find(i) for i in range(n)))


def principal_congruence(A: Algebra, x: int, y: int) -> Partition:
    """Least congruence identifying x and y, via the generated filter of
    their symmetric implication product."""
    return theta_from_filter(A, generate_filter(A, {A.star(x, y)}))


# ---------------------------------------------------------------------------
# simplicity and subdirect irreducibility

@dataclass(frozen=True)
class SimplicityWitness:
    """For one non-unit element: a shortest product of block applications
    collapsing it to 0, plus the least iteration exponent whose powers do."""
    blocks: tuple[Block, ...]
    lam_exponent: int
    lam_power: int


def _block_items(A: Algebra, c: int, bound: int | None = None):
    """(value, shortest block) for each value a block of length at most
    `bound` takes at c, ordered by block length, then lexicographically."""
    return sorted(reachable_values(A, c, bound).items(),
                  key=lambda kv: (len(kv[1]), kv[1]))


def _shortest_product_below(A: Algebra, items, target):
    """Labels of a shortest product of item values below the target, or
    None.  `items` are (value, label) pairs, tried in order breadth-first,
    so each value keeps its first shortest list; among the shortest hits,
    the least value's list is returned."""
    if A.leq(A.one, target):
        return ()
    best = {}
    for v, label in items:
        best.setdefault(v, (label,))
    frontier = best
    while frontier:
        for p in sorted(frontier):
            if A.leq(p, target):
                return frontier[p]
        nxt = {}
        for p, labels in frontier.items():
            for v, label in items:
                q = A.prod[p][v]
                if q not in best and q not in nxt:
                    nxt[q] = labels + (label,)
        best.update(nxt)
        frontier = nxt
    return None


def _lambda_witness(A: Algebra, cs, target):
    """(least exponent l, slot indices of a shortest product of the l-th
    iterates of cs that lands below the target), or None."""
    l = 0
    level = list(cs)
    while True:
        factors = _shortest_product_below(
            A, [(v, slot) for slot, v in enumerate(level)], target)
        if factors is not None:
            return l, factors
        nxt = [lambda_op(A, v) for v in level]
        if nxt == level:
            return None
        level = nxt
        l += 1


def _least_lambda_zero(A: Algebra, a: int):
    """Least l such that some power of the l-th iterate of a is 0,
    with the least such power; None when no l works."""
    l = 0
    v = a
    while True:
        p, w = 1, v
        seen = set()
        while w not in seen:
            if w == A.zero:
                return l, p
            seen.add(w)
            w = A.prod[w][v]
            p += 1
        nxt = lambda_op(A, v)
        if nxt == v:
            return None
        v = nxt
        l += 1


def is_simple(A: Algebra):
    """(decision, witness map): simple iff the filter generated by any
    non-unit element is everything, i.e. each such element admits a product
    of block values equal to 0."""
    if A.size < 2:
        raise ValueError("simplicity is undefined for the trivial algebra")
    witnesses = {}
    for a in range(A.size):
        if a == A.one:
            continue
        blocks = _shortest_product_below(A, _block_items(A, a), A.zero)
        if blocks is None:
            return False, None
        lam = _least_lambda_zero(A, a)
        assert lam is not None, "block and lambda characterizations diverged"
        witnesses[a] = SimplicityWitness(blocks, lam[0], lam[1])
    return True, witnesses


def is_subdirectly_irreducible(A: Algebra):
    """(decision, witness): true iff some b != 1 lies in the generated
    filter of every non-unit element; returns a maximal such b."""
    if A.size < 2:
        raise ValueError("subdirect irreducibility is undefined for the "
                         "trivial algebra")
    common = frozenset(range(A.size))
    for a in range(A.size):
        if a != A.one:
            common &= generate_filter(A, {a})
    candidates = [b for b in sorted(common) if b != A.one]
    if not candidates:
        return False, None
    maximal = [b for b in candidates
               if not any(c != b and A.leq(b, c) for c in candidates)]
    return True, maximal[0]


# ---------------------------------------------------------------------------
# subuniverses and congruence extension

def subuniverses(A: Algebra, cap: int = DEFAULT_SUBUNIVERSE_CAP
                 ) -> list[Subset]:
    """All subsets containing 0 and 1 closed under every operation."""
    n = A.size
    if n > cap:
        raise CapError(f"size {n} exceeds subuniverse scan cap {cap}",
                       "subuniverse")
    out = []
    for mask in range(1 << n):
        if not (mask >> A.zero & 1 and mask >> A.one & 1):
            continue
        S = [i for i in range(n) if mask >> i & 1]
        inside = lambda x: mask >> x & 1
        ok = all(inside(A.join[x][y]) and inside(A.prod[x][y])
                 and inside(A.imp[x][y])
                 for x in S for y in S)
        ok = ok and all(inside(t[x]) for x in S for t in A.modal_tables)
        if ok:
            out.append(frozenset(S))
    out.sort(key=lambda S: (len(S), sorted(S)))
    return out


def induced_subalgebra(A: Algebra, S) -> tuple[Algebra, list[int]]:
    """Restrict every table to the (closed) subset S, reindexing densely.
    Returns the subalgebra and the sorted list mapping new -> old index."""
    elems = sorted(S)
    idx = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    tab = lambda T: tuple(tuple(idx[T[a][b]] for b in elems) for a in elems)
    modals = tuple(tuple(idx[t[a]] for a in elems) for t in A.modal_tables)
    return Algebra(n, tab(A.join), tab(A.prod), tab(A.imp),
                   idx[A.zero], idx[A.one], A.sig, modals), elems


def restrict_congruence(theta: Partition, elems: list[int]) -> Partition:
    """Restriction of a parent congruence to a subuniverse, in subalgebra
    indices."""
    return normalize_partition(tuple(
        next(i for i, f in enumerate(elems) if theta[f] == theta[e])
        for e in elems))


def cep_check(A: Algebra, cap: int = DEFAULT_SUBUNIVERSE_CAP,
              congruence_cap: int = DEFAULT_CONGRUENCE_CAP):
    """Verify every congruence of every subalgebra extends to the whole
    algebra.  Returns (True, None) or (False, (subuniverse, congruence))
    naming the unextendable pair; a False is a bug certificate."""
    parent_congruences = all_congruences_direct(A, cap=congruence_cap)
    for S in subuniverses(A, cap=cap):
        sub, elems = induced_subalgebra(A, S)
        restrictions = {restrict_congruence(xi, elems)
                        for xi in parent_congruences}
        for theta in all_congruences_direct(sub, cap=congruence_cap):
            if theta not in restrictions:
                return False, (S, theta)
    return True, None
