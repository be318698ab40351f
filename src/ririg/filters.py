"""Filters of modal ririgs, their generation, and the congruence side.

A filter is a nonempty up-set closed under the product and under every
modal table.  Inside this module a subset of the universe is an int
bitmask, bit x standing for element x; the public functions take subsets
as iterables of element indices and return frozensets, decoded once on the
way out.  A congruence is kept as a length-n tuple assigning to each
element the least member of its class, so equal partitions compare equal
structurally.

Each generation route has its one implementation here (generate_filter,
generate_filter_blocks, generate_filter_lambda), as has the shortest-product
witness search (_shortest_product_below) that is_simple and compat share.

One cache, `_context`, holds every per-algebra table, and only this module
builds them: the up-set masks and the coatoms; the verdict of
validate_ririg and validate_modal, by which compat refuses an algebra;
each element's block values with a shortest block each, and their masks
by block length; the block route's product closures; Fg({c}) by each of
the three routes, with the theta_F of the distinct principal filters; the
partition scan once run; and compat's memo of slot-star products per
arity.  In a finite integral algebra a filter F is Fg({p}) for p the
product of its members (p lies in F, and p <= x for each x in F), so the
principal filters are all the filters and their theta_F all the
congruences: congruences_of, the subalgebras of cep_check and
terms.fg_intersection_check read that table.  As c <= d puts Fg({d})
inside Fg({c}), the simplicity and subdirect irreducibility tests read
only the coatoms' entries (_coatom_verdict).  catalog_build's simple and
si flags close the coatoms' Fg({c}) over one base's context with each
expansion's modal image (expansion_verdicts), so no context is built per
expansion.  The block and contraction routes never read the principal
filters; they share only the up-set masks with them.  all_ifilters (every
subset) and all_congruences_direct (every partition) stay exhaustive
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .core import Algebra, validate_ririg
from .modal import Block, lambda_op, reachable_values, validate_modal

Subset = frozenset[int]
Partition = tuple[int, ...]

DEFAULT_CONGRUENCE_CAP = 5
DEFAULT_SUBUNIVERSE_CAP = 6
# algebras kept by the per-algebra cache
ALGEBRA_CACHE_SIZE = 64


class CapError(ValueError):
    """An exhaustive scan refused an algebra larger than its size cap; the
    args are the message and the scan, "congruence" or "subuniverse"."""

    def __str__(self):
        return self.args[0]


# ---------------------------------------------------------------------------
# bitmask subsets and the per-algebra context

def _members(mask: int) -> tuple[int, ...]:
    """The elements of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _mask(xs) -> int:
    mask = 0
    for x in xs:
        mask |= 1 << x
    return mask


def _ordered(masks) -> list[int]:
    """Masks sorted by (cardinality, sorted members), the order of
    all_ifilters."""
    return sorted(masks, key=lambda m: (m.bit_count(), _members(m)))


class _PerMask(dict):
    """mask -> compute(mask), each computed on first use."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, mask):
        value = self[mask] = self.compute(mask)
        return value


class _Context:
    """Per-algebra tables, each built on first use.  `members` and `up_of`
    decode a mask into its elements and its up-set, per mask met;
    `products` is the block route's memo of product closures per (values
    mask, bound); `slot_products` is compat's memo of slot-star products
    per arity, seeded with the empty product of arity 0."""

    def __init__(self, A: Algebra):
        n = A.size
        self.algebra = A
        self.full = (1 << n) - 1
        self.up = up = tuple(_mask(y for y in range(n) if A.join[x][y] == y)
                             for x in range(n))
        self.modal_image = tuple(_mask(t[x] for t in A.modal_tables)
                                 for x in range(n))
        self.members = members = _PerMask(_members)

        def up_of(mask):
            out = 0
            for x in members[mask]:
                out |= up[x]
            return out
        self.up_of = _PerMask(up_of)
        self.products: dict[tuple[int, int | None], int] = {}
        self.slot_products: dict = {0: (A.one,)}

    @cached_property
    def axiom_failures(self) -> tuple:
        """The failures of validate_ririg, then of validate_modal: empty
        iff the algebra is an I-modal ririg."""
        A = self.algebra
        return validate_ririg(A).failures + validate_modal(A).failures

    @cached_property
    def star(self) -> tuple[tuple[int, ...], ...]:
        A = self.algebra
        return tuple(tuple(A.star(a, b) for b in range(A.size))
                     for a in range(A.size))

    @cached_property
    def blocks(self) -> tuple[tuple[tuple[int, Block], ...], ...]:
        """Per element c, (value, shortest block) for each value a block
        takes at c, ordered by block length, then lexicographically."""
        A = self.algebra
        return tuple(tuple(sorted(reachable_values(A, c).items(),
                                  key=lambda kv: (len(kv[1]), kv[1])))
                     for c in range(A.size))

    @cached_property
    def reach(self) -> tuple[tuple[int, ...], ...]:
        """Per element x, the masks of the values blocks of length at most
        t take at x, for t = 0, 1, ... up to the length past which no new
        value appears; the last mask holds every reachable value."""
        out = []
        for items in self.blocks:
            masks = [0]
            for v, block in items:
                if len(block) == len(masks):
                    masks.append(masks[-1])
                masks[-1] |= 1 << v
            out.append(tuple(masks))
        return tuple(out)

    @cached_property
    def lam_step(self) -> tuple[int, ...]:
        A = self.algebra
        return tuple(lambda_op(A, x) for x in range(A.size))

    @cached_property
    def block_masks(self) -> tuple[int, ...]:
        """Fg({c}) for each element c, by the block route."""
        return tuple(_blocks(self, 1 << c, None, None)
                     for c in range(self.algebra.size))

    @cached_property
    def lam_masks(self) -> tuple[int, ...]:
        """Fg({c}) for each element c, by the contraction route."""
        return tuple(_lambda(self, 1 << c) for c in range(self.algebra.size))

    @cached_property
    def principal(self) -> tuple[int, ...]:
        """Fg({c}) for each element c, by the closure route."""
        return tuple(_closure(self, 1 << c)
                     for c in range(self.algebra.size))

    @cached_property
    def coatoms(self) -> tuple[int, ...]:
        """The maximal elements below 1, ascending."""
        one = self.algebra.one
        return tuple(c for c, up in enumerate(self.up)
                     if up == 1 << c | 1 << one and c != one)

    @cached_property
    def congruences(self) -> tuple[Partition, ...]:
        """theta_F of the distinct principal filters, in the order of
        all_ifilters."""
        return _thetas(self, _ordered(set(self.principal)),
                       range(self.algebra.size))

    @cached_property
    def scanned(self) -> tuple[Partition, ...]:
        """The partitions that are congruences, in partition order."""
        A = self.algebra
        return tuple(p for p in partitions(A.size) if is_congruence(A, p))


@lru_cache(maxsize=ALGEBRA_CACHE_SIZE)
def _context(A: Algebra) -> _Context:
    return _Context(A)


class _Expansion:
    """What _closure reads of an expansion of a base by other modal tables:
    the base context's tables, with the expansion's modal image."""

    __slots__ = ("algebra", "up", "members", "modal_image")

    def __init__(self, ctx: _Context, modal_tables):
        self.algebra, self.up, self.members = ctx.algebra, ctx.up, ctx.members
        self.modal_image = image = [0] * ctx.algebra.size
        for t in modal_tables:
            for x, v in enumerate(t):
                image[x] |= 1 << v


def _subset(ctx: _Context, mask: int) -> Subset:
    return frozenset(ctx.members[mask])


def _is_filter(ctx: _Context, S: int) -> bool:
    if not S:
        return False
    prod = ctx.algebra.prod
    xs = ctx.members[S]
    for x in xs:
        if (ctx.up[x] | ctx.modal_image[x]) & ~S:
            return False
    for x in xs:
        row = prod[x]
        for y in xs:
            if not S >> row[y] & 1:
                return False
    return True


def _closure(ctx: _Context | _Expansion, S: int, within: int = -1) -> int:
    """Least filter containing the mask S, by closure fixpoint; with
    `within` the mask of a subuniverse, the least filter of that
    subalgebra.  Each element is closed once, under the up-set, the
    modals and its products with every element closed before it."""
    A = ctx.algebra
    prod, up, image, members = A.prod, ctx.up, ctx.modal_image, ctx.members
    S |= 1 << A.one
    todo = list(members[S])
    done = []
    while todo:
        x = todo.pop()
        row = prod[x]
        new = up[x] & within | image[x] | 1 << row[x]
        for y in done:
            new |= 1 << row[y] | 1 << prod[y][x]
        done.append(x)
        new &= ~S
        if new:
            S |= new
            todo += members[new]
    return S


def _products_up_to(ctx: _Context, values: int, count: int | None = None
                    ) -> int:
    """The mask of all products of at most `count` factors drawn from the
    mask `values` (with repetition), of any number when count is None; the
    empty product is 1."""
    prod, members = ctx.algebra.prod, ctx.members
    vs = members[values]
    acc = frontier = 1 << ctx.algebra.one
    rounds = 0
    while frontier and (count is None or rounds < count):
        rounds += 1
        new = 0
        for p in members[frontier]:
            row = prod[p]
            for v in vs:
                new |= 1 << row[v]
        frontier = new & ~acc
        acc |= frontier
    return acc


def _blocks(ctx: _Context, X: int, block_len_bound: int | None,
            product_len_bound: int | None) -> int:
    """generate_filter_blocks on masks, the product closure memoized in
    the context per (values, bound)."""
    reach = ctx.reach
    values = 0
    if block_len_bound is None:
        for x in ctx.members[X]:
            values |= reach[x][-1]
    else:
        bound = max(block_len_bound, 0)
        for x in ctx.members[X]:
            masks = reach[x]
            values |= masks[bound] if bound < len(masks) else masks[-1]
    key = values, product_len_bound
    products = ctx.products.get(key)
    if products is None:
        products = ctx.products[key] = _products_up_to(
            ctx, values, product_len_bound)
    return ctx.up_of[products]


def _blocks_stabilized(ctx: _Context, X: int) -> int:
    prev = _blocks(ctx, X, 0, 0)
    t = 1
    while True:
        cur = _blocks(ctx, X, t, t)
        if cur == prev:
            return cur
        prev = cur
        t += 1


def _lambda(ctx: _Context, X: int) -> int:
    step = ctx.lam_step
    out = 0
    level = list(ctx.members[X])
    while True:
        out |= _products_up_to(ctx, _mask(level))
        nxt = [step[v] for v in level]
        if nxt == level:
            break
        level = nxt
    return ctx.up_of[out]


# ---------------------------------------------------------------------------
# filters

def up_set(A: Algebra, xs) -> Subset:
    ctx = _context(A)
    return _subset(ctx, ctx.up_of[_mask(xs)])


def is_ifilter(A: Algebra, S) -> bool:
    """Nonempty, upward closed, product closed, closed under each modal."""
    return _is_filter(_context(A), _mask(S))


def generate_filter(A: Algebra, X) -> Subset:
    """Least filter containing X, by closure fixpoint."""
    ctx = _context(A)
    return _subset(ctx, _closure(ctx, _mask(X)))


def generate_filter_blocks(A: Algebra, X, block_len_bound: int | None,
                           product_len_bound: int | None) -> Subset:
    """Bounded generated-filter approximation from below: the up-set of all
    products of at most product_len_bound block applications, each block of
    length at most block_len_bound, None being no bound.  Monotone in both
    bounds; with neither, the generated filter of an I-modal ririg."""
    ctx = _context(A)
    return _subset(ctx, _blocks(ctx, _mask(X), block_len_bound,
                                product_len_bound))


def generate_filter_blocks_stabilized(A: Algebra, X) -> Subset:
    """Raise both bounds together until two consecutive rounds agree."""
    ctx = _context(A)
    return _subset(ctx, _blocks_stabilized(ctx, _mask(X)))


def generate_filter_lambda(A: Algebra, X) -> Subset:
    """Generated filter via the single contraction operator: the up-set of
    all products of iterates sharing one exponent, exponents taken up to
    pointwise stabilization."""
    ctx = _context(A)
    return _subset(ctx, _lambda(ctx, _mask(X)))


def all_ifilters(A: Algebra) -> list[Subset]:
    """Every filter, sorted by (cardinality, sorted members): the
    exhaustive scan over all subsets."""
    ctx = _context(A)
    return [_subset(ctx, S) for S in _ordered(
        S for S in range(1, ctx.full + 1) if _is_filter(ctx, S))]


def congruences_of(A: Algebra) -> list[Partition]:
    """Every congruence of an I-modal ririg: theta_F of each distinct
    principal filter F, in the order of all_ifilters."""
    return list(_context(A).congruences)


# ---------------------------------------------------------------------------
# congruences

def normalize_partition(class_of) -> Partition:
    """Relabel class ids as the least member of each class."""
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(class_of):
        groups.setdefault(c, []).append(i)
    rep = {c: min(members) for c, members in groups.items()}
    return tuple(rep[c] for c in class_of)


@lru_cache(maxsize=8)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of range(n) as normalized class tuples, via
    restricted-growth strings."""
    def rec(prefix, maxc):
        if len(prefix) == n:
            yield normalize_partition(prefix)
            return
        for c in range(maxc + 2):
            yield from rec(prefix + [c], max(maxc, c))
    if n == 0:
        return ((),)
    return tuple(rec([0], 0))


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


def _scanned(ctx: _Context, cap: int) -> tuple[Partition, ...]:
    size = ctx.algebra.size
    if size > cap:
        raise CapError(f"size {size} exceeds congruence oracle cap {cap}",
                       "congruence")
    return ctx.scanned


def all_congruences_direct(A: Algebra, cap: int = DEFAULT_CONGRUENCE_CAP
                           ) -> list[Partition]:
    """Brute-force enumeration over all partitions of the universe."""
    return list(_scanned(_context(A), cap))


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


def _thetas(ctx: _Context, filters, elems) -> tuple[Partition, ...]:
    """theta_F for each filter mask F, on the sorted elements `elems` of a
    subuniverse, in the subalgebra's indices: x ~ y iff star(x, y) in F.
    star-membership is an equivalence for genuine filters; the union-find
    pass keeps each partition well formed regardless, and its roots are
    the least members of their classes, so the partition is normalized."""
    star = ctx.star
    elems = list(elems)
    m = len(elems)
    out = []
    for F in filters:
        find, union = _union_find(m)
        for i, x in enumerate(elems):
            row = star[x]
            for j in range(i + 1, m):
                if F >> row[elems[j]] & 1:
                    union(i, j)
        out.append(tuple(find(i) for i in range(m)))
    return tuple(out)


def theta_from_filter(A: Algebra, F) -> Partition:
    """Congruence x ~ y iff star(x, y) in F."""
    ctx = _context(A)
    F = _mask(F)
    if not _is_filter(ctx, F):
        raise ValueError("not a filter")
    return _thetas(ctx, (F,), range(A.size))[0]


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
    `bound` takes at c, ordered by block length, then lexicographically:
    a prefix of the context's table, a negative bound acting as 0."""
    ctx = _context(A)
    masks = ctx.reach[c]
    if bound is not None:
        masks = masks[:max(bound, 0) + 1]
    return ctx.blocks[c][:masks[-1].bit_count()]


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
        lam = _lambda_witness(A, (a,), A.zero)
        assert lam is not None, "block and lambda characterizations diverged"
        l, factors = lam
        witnesses[a] = SimplicityWitness(blocks, l, len(factors))
    return True, witnesses


def _coatom_verdict(ctx: _Context, filters) -> tuple[bool, int | None]:
    """(simple, a maximal si witness or None) of an algebra of size at
    least 2, from `filters`, Fg({c}) for each of ctx's coatoms c.  If
    c <= d then Fg({d}) is in Fg({c}), and each c != 1 lies below a
    coatom, so the meet of Fg({c}) over every c != 1 is the meet over the
    coatoms: the algebra is simple iff that meet is everything, and
    subdirectly irreducible iff it holds some b != 1."""
    one = ctx.algebra.one
    common = ctx.full
    for F in filters:
        common &= F
    candidates = [b for b in ctx.members[common] if b != one]
    maximal = [b for b in candidates
               if not any(c != b and ctx.up[b] >> c & 1 for c in candidates)]
    return common == ctx.full, maximal[0] if maximal else None


def _principal_verdict(A: Algebra) -> tuple[bool, int | None]:
    """_coatom_verdict of A from its context's principal filters."""
    ctx = _context(A)
    return _coatom_verdict(ctx, [ctx.principal[c] for c in ctx.coatoms])


def expansion_verdicts(A: Algebra):
    """The function giving (simple, si) of A expanded by a tuple of modal
    tables, A of size at least 2: _coatom_verdict with each coatom's
    Fg({c}) closed over A's tables and the expansion's modal image.  The
    context of A is built once, kept out of the cache, and no context is
    built per expansion."""
    ctx = _Context(A)

    def verdicts(modal_tables) -> tuple[bool, bool]:
        expansion = _Expansion(ctx, modal_tables)
        simple, witness = _coatom_verdict(
            ctx, [_closure(expansion, 1 << c) for c in ctx.coatoms])
        return simple, witness is not None
    return verdicts


def simple_from_filters(A: Algebra) -> bool:
    """is_simple's decision without its witnesses, read from the principal
    filters of the coatoms: every element other than 1 generates the
    whole algebra."""
    if A.size < 2:
        raise ValueError("simplicity is undefined for the trivial algebra")
    return _principal_verdict(A)[0]


def is_subdirectly_irreducible(A: Algebra):
    """(decision, witness): true iff some b != 1 lies in the generated
    filter of every non-unit element, read from the principal filters of
    the coatoms; returns a maximal such b."""
    if A.size < 2:
        raise ValueError("subdirect irreducibility is undefined for the "
                         "trivial algebra")
    witness = _principal_verdict(A)[1]
    return witness is not None, witness


# ---------------------------------------------------------------------------
# subuniverses and congruence extension

def _subuniverses(ctx: _Context, cap: int) -> list[int]:
    """Masks of all subsets containing 0 and 1 closed under every
    operation, sorted like all_ifilters."""
    A = ctx.algebra
    n = A.size
    if n > cap:
        raise CapError(f"size {n} exceeds subuniverse scan cap {cap}",
                       "subuniverse")
    # the values of join, prod and imp at (x, y), as one mask
    values = [[1 << A.join[x][y] | 1 << A.prod[x][y] | 1 << A.imp[x][y]
               for y in range(n)] for x in range(n)]
    bounds = 1 << A.zero | 1 << A.one
    out = []
    for mask in range(1 << n):
        if mask & bounds != bounds:
            continue
        outside = ~mask
        S = ctx.members[mask]
        if not any(ctx.modal_image[x] & outside
                   or any(values[x][y] & outside for y in S) for x in S):
            out.append(mask)
    return _ordered(out)


def subuniverses(A: Algebra, cap: int = DEFAULT_SUBUNIVERSE_CAP
                 ) -> list[Subset]:
    """All subsets containing 0 and 1 closed under every operation."""
    ctx = _context(A)
    return [_subset(ctx, S) for S in _subuniverses(ctx, cap)]


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
    naming the unextendable pair; a False is a bug certificate.

    The whole algebra's congruences come from the partition scan, each
    subalgebra's from its principal filters, built by the closure route
    inside the subuniverse."""
    ctx = _context(A)
    parent_congruences = _scanned(ctx, congruence_cap)
    for S in _subuniverses(ctx, cap):
        elems = ctx.members[S]
        restrictions = {restrict_congruence(xi, elems)
                        for xi in parent_congruences}
        filters = _ordered({_closure(ctx, 1 << c, S) for c in elems})
        for theta in _thetas(ctx, filters, elems):
            if theta not in restrictions:
                return False, (_subset(ctx, S), theta)
    return True, None
