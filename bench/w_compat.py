"""compat-sweep: decide compatibility of seeded functions on the size-3
and size-4 algebras of the (4, 0) and (4, 1) catalogs and the size-3
algebras with two modals.

Many functions per algebra, so the per-algebra caches amortize and the
time goes to the per-pair witness search.  Ternary functions take the
uncached k>2 path, which sets the latency tail.  Each function is decided
by all three routes; a seeded quarter also asks for witnesses, and
compatible unary functions get their local join representation.

Random tables are mostly incompatible and exit at the first failing pair;
term functions (random terms in the algebra's operations) are always
compatible and make every route scan every pair.
"""

from __future__ import annotations

import copy
import itertools

from ririg import catalog, compat, terms

import oracles
from common import Op, rng_for

POOL = (((4, 0), (3, 4)), ((4, 1), (3, 4)), ((3, 2), (3,)))
PER_SIZE = 4
UNARY = 27
BINARY_RANDOM, BINARY_TERM = 8, 8
TERNARY_RANDOM, TERNARY_TERM = 4, 4


def _random_term(rng, k, names, depth):
    """A term in variables 0..k-1 over the algebra's operations."""
    if depth == 0 or rng.random() < 0.25:
        return terms.Var(rng.randrange(k)) if rng.random() < 0.85 \
            else terms.Const(rng.randrange(2))
    op = rng.choice(["join", "prod", "imp"] + (["modal"] if names else []))
    if op == "modal":
        return terms.ModalApp(rng.choice(names),
                              _random_term(rng, k, names, depth - 1))
    node = {"join": terms.Join, "prod": terms.Prod, "imp": terms.Imp}[op]
    return node(_random_term(rng, k, names, depth - 1),
                _random_term(rng, k, names, depth - 1))


def _term_table(A, k, rng):
    term = _random_term(rng, k, A.sig.names, 3)
    return tuple(oracles.evaluate(A, term, args)
                 for args in itertools.product(range(A.size), repeat=k))


def _block(A, rng):
    """The functions decided on one algebra, in seeded order, as
    [kind, arity, table, is a term function]."""
    n = A.size
    unary = list(itertools.product(range(n), repeat=n))
    if len(unary) > UNARY:
        unary = rng.sample(unary, UNARY)
    specs = [["unary", 1, t, False] for t in unary]
    for kind, k, randoms, term_count in (
            ("binary", 2, BINARY_RANDOM, BINARY_TERM),
            ("ternary", 3, TERNARY_RANDOM, TERNARY_TERM)):
        specs += [[kind, k, tuple(rng.randrange(n) for _ in range(n ** k)),
                   False] for _ in range(randoms)]
        specs += [[kind, k, _term_table(A, k, rng), True]
                  for _ in range(term_count)]
    rng.shuffle(specs)
    return specs


def _spaced(items, count):
    """`count` items evenly spaced through the list."""
    return [items[int((i + 0.5) * len(items) / count)] for i in range(count)]


def setup(seed):
    strata = {3: [], 4: []}
    for key, sizes in POOL:
        for A in catalog.catalog_build(*key).algebras():
            if A.size in sizes:
                strata[A.size].append(A)
    # a fixed set of algebras, so that seeds vary only the functions;
    # size-3 and size-4 algebras alternate
    algebras = [A for pair in zip(_spaced(strata[3], PER_SIZE),
                                  _spaced(strata[4], PER_SIZE))
                for A in pair]
    blocks = [(A, _block(A, rng_for(seed, "compat-sweep", i // 2, A.size)))
              for i, A in enumerate(algebras)]
    # witnesses for a seeded quarter of each kind of function
    groups = {}
    for A, specs in blocks:
        for spec in specs:
            groups.setdefault((A.size, spec[0], spec[3]), []).append(spec)
    rng = rng_for(seed, "compat-sweep", "witnesses")
    for key in sorted(groups):
        specs = groups[key]
        chosen = {id(s) for s in rng.sample(specs, len(specs) // 4)}
        for spec in specs:
            spec.append(id(spec) in chosen)
    return {"blocks": blocks, "congruences": {}}


def decide(A, f, witnesses):
    direct = compat.is_compatible_direct(A, f)
    blocks = compat.compat_witness_kary(A, f, with_witnesses=witnesses)
    lam = compat.compat_witness_lambda(A, f, with_witnesses=witnesses)
    laf = None
    if f.arity == 1 and lam.compatible:
        laf = compat.laf_representation(A, f, [(x,) for x in range(A.size)])
    return direct, blocks, lam, laf


def check(A, congs, f, term, witnesses, result):
    direct, blocks, lam, laf = result
    verdict = direct.compatible
    table = f.table
    ok = verdict is not None and verdict == blocks.compatible == lam.compatible
    ok &= verdict == oracles.compatible(A, f.arity, table, congs)
    if term:
        ok &= verdict is True
    per_side = A.size ** f.arity
    if verdict and witnesses:
        ok &= len(blocks.witnesses) == len(lam.witnesses) == per_side ** 2
        ok &= all(w is not None and
                  oracles.blocks_witness_replays(A, table, a, b, w)
                  for (a, b), w in blocks.witnesses.items())
        ok &= all(w is not None and
                  oracles.lambda_witness_replays(A, table, a, b, w)
                  for (a, b), w in lam.witnesses.items())
    if verdict is False:
        theta, pairs = direct.failing
        left, right = zip(*pairs)
        ok &= theta in congs and all(theta[x] == theta[y] for x, y in pairs)
        ok &= theta[oracles.apply(A, table, left)] \
            != theta[oracles.apply(A, table, right)]
        # the reported pair's output star lies outside the filter its
        # slot stars generate
        filters_ = oracles.filters_of(A, congs)
        for report in (blocks, lam):
            (a, b), = report.failing
            stars = {oracles.star(A, x, y) for x, y in zip(a, b)}
            ok &= oracles.star(A, oracles.apply(A, table, a),
                               oracles.apply(A, table, b)) \
                not in oracles.least_filter(A, filters_, stars)
    if f.arity == 1 and verdict:
        ok &= laf is not None and laf.verified
        for x, (parts, join) in laf.joins.items():
            acc = parts[0]
            for t in parts[1:]:
                acc = A.join[acc][t]
            ok &= acc == join == oracles.apply(A, table, x)
    return bool(ok)


def ops(state, p):
    """One pass: every function, algebra by algebra, on fresh copies of
    the algebras and functions."""
    cache = state["congruences"]

    def congruences(i, A):
        if i not in cache:
            cache[i] = oracles.congruences(A)
        return cache[i]

    out = []
    for i, (A, specs) in enumerate(state["blocks"]):
        A = copy.deepcopy(A)
        for kind, k, table, term, w in specs:
            f = compat.FiniteFunction(k, table)
            out.append(Op(kind, lambda A=A, f=f, w=w: decide(A, f, w),
                          lambda result, i=i, A=A, f=f, term=term, w=w:
                              check(A, congruences(i, A), f, term, w,
                                    result)))
    return out
