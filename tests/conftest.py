import itertools
import pathlib
from types import SimpleNamespace

import pytest

from ririg.catalog import catalog_build, catalog_load
from ririg.compat import CompatReport, _context
from ririg.filters import _block_items, _lambda_witness, \
    _shortest_product_below, generate_filter_blocks
from ririg.fixtures import b2, b2_pair, b2_pair_with_identity, g3, g3_delta, \
    g3_id, luk3
from ririg.modal import lambda_op, reachable_values
from ririg.terms import Const, Imp, Join, ModalApp, Prod, Var, eval_term, \
    valuations, variables_of

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def _scan_countermodel(A, premises, goal, cap):
    """The oracle of `terms.Program`, valuation by valuation over
    `eval_term`: at each valuation in the order of `valuations`, the
    premises first, then the goal; the first valuation where every premise
    holds and the goal fails, or None."""
    vars_ = set()
    for e in list(premises) + [goal]:
        vars_ |= variables_of(e.lhs) | variables_of(e.rhs)
    for v in valuations(A, vars_, cap):
        if all(eval_term(A, v, e.lhs) == eval_term(A, v, e.rhs)
               for e in premises):
            if eval_term(A, v, goal.lhs) != eval_term(A, v, goal.rhs):
                return v
    return None


def _star_pairs(A, star, f):
    """Each pair (a, b) of argument tuples, in row-major order, with its
    slot stars, their product taken left to right and the output star."""
    prod, one = A.prod, A.one
    tuples = list(itertools.product(range(A.size), repeat=f.arity))
    for a, fa in zip(tuples, f.table):
        for b, fb in zip(tuples, f.table):
            cs = [star[x][y] for x, y in zip(a, b)]
            p = one
            for x in cs:
                p = prod[p][x]
            yield a, b, cs, p, star[fa][fb]


def _pairwise_compat(A, f, route, block_len_bound=None,
                     with_witnesses=True):
    """The oracle of `compat_witness_kary` (route "blocks") and
    `compat_witness_lambda` (route "lambda"): a scan pair by pair in
    row-major order, each pair decided by membership in the filter its
    slot-star product generates (the truncated block filter of the slot
    stars under a bound), each witness searched afresh."""
    ctx = _context(A)
    witnesses = {} if with_witnesses else None
    for a, b, cs, p, target in _star_pairs(A, ctx.star, f):
        if route == "lambda":
            ok = ctx.lam_masks[p] >> target & 1
        elif block_len_bound is None:
            ok = ctx.block_masks[p] >> target & 1
        else:
            ok = target in generate_filter_blocks(A, cs, block_len_bound,
                                                  None)
        if not ok:
            saturated = route == "lambda" or block_len_bound is None or all(
                reachable_values(A, c, block_len_bound)
                == reachable_values(A, c) for c in cs)
            return CompatReport(False if saturated else None,
                                failing=((a, b),))
        if with_witnesses and route == "lambda":
            witnesses[(a, b)] = _lambda_witness(A, cs, target)
        elif with_witnesses:
            items = [(v, (blk, slot)) for slot, c in enumerate(cs)
                     for v, blk in _block_items(A, c, block_len_bound)]
            witnesses[(a, b)] = _shortest_product_below(A, items, target)
    return CompatReport(True, witnesses=witnesses)


# The filter routes on sets of elements, one membership test at a time:
# the oracles of the bitmask routes in ririg.filters.

def _up_set(A, xs):
    return frozenset(y for y in range(A.size)
                     if any(A.leq(x, y) for x in xs))


def _is_ifilter(A, S):
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


def _generate_filter(A, X):
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


def _products_up_to(A, values, count=None):
    prod = A.prod
    acc = {A.one}
    frontier = {A.one}
    rounds = 0
    while frontier and (count is None or rounds < count):
        rounds += 1
        frontier = {prod[p][v] for p in frontier for v in values} - acc
        acc |= frontier
    return acc


def _generate_filter_blocks(A, X, block_len_bound, product_len_bound):
    values = {v for x in X for v in reachable_values(A, x, block_len_bound)}
    return _up_set(A, _products_up_to(A, values, product_len_bound))


def _generate_filter_blocks_stabilized(A, X):
    prev = _generate_filter_blocks(A, X, 0, 0)
    t = 1
    while True:
        cur = _generate_filter_blocks(A, X, t, t)
        if cur == prev:
            return cur
        prev = cur
        t += 1


def _generate_filter_lambda(A, X):
    out = set()
    level = list(X)
    while True:
        out |= _products_up_to(A, level)
        nxt = [lambda_op(A, v) for v in level]
        if nxt == level:
            break
        level = nxt
    return _up_set(A, out)


def _all_ifilters(A):
    n = A.size
    out = []
    for mask in range(1, 1 << n):
        S = frozenset(i for i in range(n) if mask >> i & 1)
        if _is_ifilter(A, S):
            out.append(S)
    out.sort(key=lambda S: (len(S), sorted(S)))
    return out


SET_ROUTES = SimpleNamespace(
    up_set=_up_set, is_ifilter=_is_ifilter, generate_filter=_generate_filter,
    products_up_to=_products_up_to,
    generate_filter_blocks=_generate_filter_blocks,
    generate_filter_blocks_stabilized=_generate_filter_blocks_stabilized,
    generate_filter_lambda=_generate_filter_lambda,
    all_ifilters=_all_ifilters)


def _random_term(rng, depth, nvars, modals=()):
    """A seeded term over v0..v(nvars-1) (constants only when nvars is 0);
    a binary node reuses its left subterm as its right one a fifth of the
    time, so shared subterm objects occur."""
    if depth == 0 or rng.random() < 0.3:
        pick = rng.randrange(nvars + 2)
        return Var(pick) if pick < nvars else Const(pick - nvars)
    kinds = [Join, Prod, Imp] + [ModalApp] * bool(modals)
    kind = rng.choice(kinds)
    if kind is ModalApp:
        return ModalApp(rng.choice(modals),
                        _random_term(rng, depth - 1, nvars, modals))
    lhs = _random_term(rng, depth - 1, nvars, modals)
    if rng.random() < 0.2:
        return kind(lhs, lhs)
    return kind(lhs, _random_term(rng, depth - 1, nvars, modals))


@pytest.fixture(scope="session")
def scan_countermodel():
    return _scan_countermodel


@pytest.fixture(scope="session")
def pairwise_compat():
    return _pairwise_compat


@pytest.fixture(scope="session")
def set_routes():
    """The set-based filter routes, oracles of the bitmask ones."""
    return SET_ROUTES


@pytest.fixture(scope="session")
def random_term():
    return _random_term


@pytest.fixture(scope="session")
def modal_catalogs(catalog4):
    """One-modal catalogs of one signature each: data/cat3_m.cat, the
    one-modal part of `catalog4`, and every 20th algebra of the (5, 1)
    catalog, sizes 1 to 5."""
    return {"cat3_m": catalog_load(DATA / "cat3_m.cat").algebras(),
            "catalog4": [A for A in catalog4 if A.sig.names],
            "5-1 slice": catalog_build(5, 1).algebras()[::20]}


@pytest.fixture(scope="session")
def catalog4():
    """Every algebra of size <= 4 with at most one modal symbol."""
    return catalog_build(4, 0).algebras() + catalog_build(4, 1).algebras()


@pytest.fixture(scope="session")
def catalog3():
    return catalog_build(3, 0).algebras() + catalog_build(3, 1).algebras()


@pytest.fixture(scope="session")
def catalog3_modal():
    """Size <= 3, exactly one modal (shared signature, usable for logic)."""
    return catalog_build(3, 1).algebras()


@pytest.fixture
def B2():
    return b2()


@pytest.fixture
def G3():
    return g3()


@pytest.fixture
def LUK3():
    return luk3()


@pytest.fixture
def G3D():
    return g3_delta()


@pytest.fixture
def G3I():
    return g3_id()


@pytest.fixture
def B2B2():
    return b2_pair()


@pytest.fixture
def B2B2_ID():
    return b2_pair_with_identity()


@pytest.fixture
def MB2():
    return b2()
