import itertools
import random

import pytest
from ririg.catalog import enumerate_ririgs
from ririg.compat import FiniteFunction, agreement_sweep, \
    all_unary_functions, check_size, compat_witness_kary, \
    compat_witness_lambda, \
    is_compatible_direct, laf_representation, random_function, slot_function
from ririg.filters import _lambda_witness, _shortest_product_below, \
    generate_filter
from ririg.fixtures import luk3
from ririg.modal import ModalSignature, apply_block, lambda_iter
from ririg.terms import eval_term
from ririg.parsing import parse_term


F_OK = FiniteFunction(1, (0, 2, 2))        # 0,a,1 -> 0,1,1
F_BAD = FiniteFunction(1, (0, 0, 2))       # 0,a,1 -> 0,0,1


def test_finite_function_call_and_size():
    f = FiniteFunction(2, tuple(range(9)))
    assert f.size() == 3
    assert f(1, 2) == 5
    with pytest.raises(ValueError):
        FiniteFunction(2, (0, 1, 2))


@pytest.mark.parametrize("table,message", [
    ((0, 1.5, 2), r"^function table, entry 1: 1\.5 is not an integer$"),
    ((True, 0), r"^function table, entry 0: True is not an integer$"),
    (("1", 0), r"^function table, entry 0: '1' is not an integer$"),
])
def test_finite_function_refuses_non_integer_entries(table, message):
    with pytest.raises(ValueError, match=message):
        FiniteFunction(1, table)


@pytest.mark.parametrize("table,message", [
    ((0, 7, 2), r"^function table, entry 1: 7 not in \[0,3\)$"),
    ((0, 2, -1), r"^function table, entry 2: -1 not in \[0,3\)$"),
])
def test_entries_outside_the_algebra_are_refused(G3I, table, message):
    # FiniteFunction takes any integers; acting on A needs them in range
    f = FiniteFunction(1, table)
    for decide in (check_size, is_compatible_direct, compat_witness_kary,
                   compat_witness_lambda):
        with pytest.raises(ValueError, match=message):
            decide(G3I, f)


def test_direct_examples(G3I):
    assert is_compatible_direct(G3I, F_OK).compatible
    report = is_compatible_direct(G3I, F_BAD)
    assert not report.compatible
    theta, pairs = report.failing
    assert theta == (0, 1, 1) and pairs == ((1, 2),)
    const = FiniteFunction(1, (1, 1, 1))
    assert is_compatible_direct(G3I, const).compatible


def test_witness_routes_examples(G3I):
    ok = compat_witness_kary(G3I, F_OK)
    assert ok.compatible
    # the off-diagonal pairs are certified by the empty block alone
    assert ok.witnesses[((0,), (1,))] == (((), 0),)
    bad = compat_witness_kary(G3I, F_BAD)
    assert bad.compatible is False
    assert bad.failing == (((1,), (2,)),)
    lam = compat_witness_lambda(G3I, F_OK)
    assert lam.compatible
    assert lam.witnesses[((0,), (1,))] == (0, (0,))


def test_identity_always_compatible(catalog3):
    for A in catalog3:
        ident = FiniteFunction(1, tuple(range(A.size)))
        r = compat_witness_kary(A, ident)
        assert r.compatible
        lam = compat_witness_lambda(A, ident)
        assert all(w[0] == 0 for w in lam.witnesses.values())


def godel4_with_step_down():
    # chain 0 < x < y < 1 with min product; m walks y -> x -> 0
    n = 4
    join = tuple(tuple(max(a, b) for b in range(n)) for a in range(n))
    prod = tuple(tuple(min(a, b) for b in range(n)) for a in range(n))
    imp = tuple(tuple(3 if a <= b else b for b in range(n)) for a in range(n))
    from ririg.core import Algebra
    base = Algebra(n, join, prod, imp, 0, 3)
    return base.with_modals(ModalSignature(("m",)), ((0, 0, 1, 3),))


def test_bounded_mode_can_be_undecided():
    A = godel4_with_step_down()
    from ririg.modal import validate_modal
    assert validate_modal(A).passed
    f = FiniteFunction(1, (0, 0, 0, 3))
    assert compat_witness_kary(A, f).compatible      # full closure decides
    bound1 = compat_witness_kary(A, f, block_len_bound=1)
    assert bound1.compatible is None                 # truncated, not refuted
    assert bound1.verdict == "undecided"
    assert bound1.failing == (((2,), (3,)),)


def test_three_route_agreement_unary(catalog3):
    for A in catalog3:
        for f in all_unary_functions(A.size):
            d = is_compatible_direct(A, f).compatible
            b = compat_witness_kary(A, f, with_witnesses=False).compatible
            lam = compat_witness_lambda(A, f, with_witnesses=False).compatible
            assert d == b == lam


def test_three_route_agreement_needs_products():
    # x*x = 0 and a constant-one modal force genuine power products: the
    # congruence lattice is trivial so everything is compatible, but no
    # single block value of a lands below star(f(a), f(1)) = 0
    A = luk3().with_modals(ModalSignature(("m",)), ((2, 2, 2),))
    f = FiniteFunction(1, (0, 0, 2))
    assert is_compatible_direct(A, f).compatible
    blocks = compat_witness_kary(A, f)
    assert blocks.compatible
    assert len(blocks.witnesses[((1,), (2,))]) == 2   # two factors needed
    lam = compat_witness_lambda(A, f)
    assert lam.compatible
    assert lam.witnesses[((1,), (2,))] == (0, (0, 0))


def _replays(A, f, witnesses, factor_values):
    """Every witness's product of factor values lies below the star of the
    pair's outputs."""
    for (a, b), w in witnesses.items():
        assert w is not None
        stars = [A.star(x, y) for x, y in zip(a, b)]
        p = A.one
        for v in factor_values(stars, w):
            p = A.prod[p][v]
        assert A.leq(p, A.star(f(*a), f(*b)))


def test_three_route_agreement_ternary(catalog3):
    rng = random.Random(0x3A3)
    full_scans = 0
    texts = ["v0 * v1 | v2", "(v0 -> v1) * v2", "m1(v0 * v2) -> v1",
             "v2 -> m1(v1) | v0"]
    for A in [A for A in catalog3 if A.size == 3]:
        functions = [random_function(3, 3, rng) for _ in range(20)]
        for text in texts:
            if "m1" in text and not A.sig.names:
                continue
            t = parse_term(text)
            functions.append(FiniteFunction(3, tuple(
                eval_term(A, dict(enumerate(args)), t)
                for args in itertools.product(range(3), repeat=3))))
        for f in functions:
            d = is_compatible_direct(A, f).compatible
            blocks = compat_witness_kary(A, f)
            lam = compat_witness_lambda(A, f)
            assert d == blocks.compatible == lam.compatible
            if d:
                full_scans += 1
                assert len(blocks.witnesses) == len(lam.witnesses) == 27 ** 2
                _replays(A, f, blocks.witnesses, lambda stars, w: [
                    apply_block(A, blk, stars[slot]) for blk, slot in w])
                _replays(A, f, lam.witnesses, lambda stars, w: [
                    lambda_iter(A, w[0], stars[slot]) for slot in w[1]])
    assert full_scans >= 2 * len(texts)


def test_witness_routes_refuse_invalid_algebra():
    # m fails m(x->y) <= m(x)->m(y), so filter generation by blocks or by
    # contraction iterates need not give the filters of this algebra
    A = enumerate_ririgs(4)[4].with_modals(ModalSignature(("m",)),
                                           ((2, 0, 1, 3),))
    f = FiniteFunction(2, (2, 2, 2, 2, 2, 0, 0, 0, 3, 3, 1, 3, 3, 2, 3, 1))
    for route in (compat_witness_kary, compat_witness_lambda):
        with pytest.raises(ValueError, match="m\\(x->y\\)"):
            route(A, f)


def test_witness_routes_refuse_invalid_algebra_after_a_filter_call():
    # the filter context is built by generate_filter first, and each call
    # of a witness route is refused, not only the first
    A = enumerate_ririgs(4)[4].with_modals(ModalSignature(("m",)),
                                           ((2, 0, 1, 3),))
    assert generate_filter(A, {1}) == frozenset(range(4))
    f = FiniteFunction(1, (0, 1, 2, 3))
    message = ("not an I-modal ririg: axiom 'm: m(x->y) <= m(x)->m(y)' "
               "fails at [0, 1]")
    calls = (lambda: compat_witness_kary(A, f),
             lambda: compat_witness_kary(A, f, block_len_bound=1),
             lambda: compat_witness_lambda(A, f, with_witnesses=False))
    for call in calls + calls:
        with pytest.raises(ValueError) as error:
            call()
        assert str(error.value) == message


def test_agreement_sweep_of_nothing(G3I):
    assert agreement_sweep(G3I, 2, 0, 5, jobs=2) == []


def test_binary_examples(G3I):
    prod_fn = FiniteFunction(2, tuple(G3I.prod[a][b]
                                      for a in range(3) for b in range(3)))
    assert compat_witness_kary(G3I, prod_fn, with_witnesses=False).compatible
    proj = FiniteFunction(2, tuple(a for a in range(3) for _ in range(3)))
    assert compat_witness_kary(G3I, proj, with_witnesses=False).compatible
    # break the section through (a, .) across the {a, 1} congruence
    broken = FiniteFunction(2, tuple(
        F_BAD(a) for a in range(3) for _ in range(3)))
    r = compat_witness_kary(G3I, broken, with_witnesses=False)
    assert r.compatible is False


def test_slot_reduction(catalog3):
    rng = random.Random(7)
    for A in catalog3:
        for _ in range(20):
            f = random_function(A.size, 2, rng)
            whole = is_compatible_direct(A, f).compatible
            sections = all(
                is_compatible_direct(
                    A, slot_function(f, anchor, i, A.size)).compatible
                for anchor in itertools.product(range(A.size), repeat=2)
                for i in range(2))
            assert whole == sections


def test_term_functions_are_compatible(catalog3):
    texts = ["v0", "v0 * v0", "m1(v0) | v0", "(v0 -> v0) * v0",
             "v0 -> m1(v0)"]
    for A in catalog3:
        for text in texts:
            t = parse_term(text)
            if not A.sig.names and "m1" in text:
                continue
            table = tuple(eval_term(A, {0: x}, t) for x in range(A.size))
            f = FiniteFunction(1, table)
            assert is_compatible_direct(A, f).compatible
            assert compat_witness_lambda(A, f,
                                         with_witnesses=False).compatible


def test_transitivity_inequality(catalog4):
    for A in catalog4:
        for a in range(A.size):
            for b in range(A.size):
                for c in range(A.size):
                    lhs = A.prod[A.star(a, b)][A.star(b, c)]
                    assert A.leq(lhs, A.star(a, c))


def test_laf_identity(G3I):
    ident = FiniteFunction(1, (0, 1, 2))
    rep = laf_representation(G3I, ident, [(x,) for x in range(3)])
    assert rep.verified
    # membership of the represented value through the anchor at the point
    for x in range(3):
        terms, join = rep.joins[(x,)]
        assert ident(x) in terms and join == ident(x)


def test_laf_examples(G3I, G3D):
    rep = laf_representation(G3I, F_OK, [(x,) for x in range(3)])
    assert rep.verified
    const1 = FiniteFunction(1, (2, 2, 2))
    rep = laf_representation(G3I, const1, [(x,) for x in range(3)])
    assert rep.verified
    assert all(G3I.one in terms for terms, _ in rep.joins.values())
    rep = laf_representation(G3D, F_OK, [(x,) for x in range(3)])
    assert rep.verified


def test_laf_refuses_incompatible(G3I):
    with pytest.raises(ValueError):
        laf_representation(G3I, F_BAD, [(x,) for x in range(3)])


def test_laf_needs_power_products():
    A = luk3().with_modals(ModalSignature(("m",)), ((2, 2, 2),))
    f = FiniteFunction(1, (2, 0, 0))
    rep = laf_representation(A, f, [(x,) for x in range(3)])
    assert rep.verified


def test_laf_binary(G3I):
    prod_fn = FiniteFunction(2, tuple(G3I.prod[a][b]
                                      for a in range(3) for b in range(3)))
    B = list(itertools.product(range(3), repeat=2))
    rep = laf_representation(G3I, prod_fn, B)
    assert rep.verified


def _laf_per_pair(A, f, points):
    """pair_exponents, joins and verified of `laf_representation`, with the
    least exponent searched afresh for every pair of points."""
    star = [[A.star(a, b) for b in range(A.size)] for a in range(A.size)]
    exponents = {}
    for a in points:
        for x in points:
            cs = [star[ai][xi] for ai, xi in zip(a, x)]
            exponents[a, x] = _lambda_witness(A, cs, star[f(*a)][f(*x)])[0]
    anchor = {a: max(exponents[a, x] for x in points) for a in points}
    joins = {}
    for x in points:
        terms = []
        for a in points:
            cs = [lambda_iter(A, anchor[a], star[ai][xi])
                  for ai, xi in zip(a, x)]
            factors = _shortest_product_below(
                A, [(v, slot) for slot, v in enumerate(cs)],
                star[f(*a)][f(*x)])
            val = f(*a)
            for slot in factors:
                val = A.prod[val][cs[slot]]
            terms.append(val)
        join = terms[0]
        for t in terms[1:]:
            join = A.join[join][t]
        joins[x] = (tuple(terms), join)
    verified = all(join == f(*x) for x, (_, join) in joins.items())
    return exponents, joins, verified


def test_laf_matches_per_pair_search(catalog4):
    """The exponent memo keyed on a pair's slot stars and output star
    changes no field, on every compatible unary function of catalog4."""
    checked = 0
    for A in catalog4:
        points = [(x,) for x in range(A.size)]
        for f in all_unary_functions(A.size):
            if not compat_witness_lambda(A, f,
                                         with_witnesses=False).compatible:
                continue
            rep = laf_representation(A, f, points)
            assert (rep.pair_exponents, rep.joins, rep.verified) \
                == _laf_per_pair(A, f, rep.points), (A, f)
            checked += 1
    assert checked > 10000


def _sampled_functions(A, k, rng, random_term):
    """A seeded random table of arity k, a term function, and a copy of
    the term function with its last entry moved: a term function is
    compatible, so the copy can fail only at the pairs through the last
    tuple, late in row-major order."""
    n = A.size
    points = list(itertools.product(range(n), repeat=k))
    term = random_term(rng, 3, k, A.sig.names)
    table = [eval_term(A, dict(enumerate(x)), term) for x in points]
    moved = table[:-1] + [(table[-1] + 1) % n]
    return [random_function(n, k, rng), FiniteFunction(k, table),
            FiniteFunction(k, moved)]


def test_tabled_routes_match_pairwise_scan(catalog3, catalog4, modal_catalogs,
                                           pairwise_compat, random_term):
    # the pairwise scan is slow on ternary functions, most of all under a
    # block bound, so those run on spaced samples of the algebras
    small = catalog3 + modal_catalogs["cat3_m"]
    size4 = [A for A in catalog4 if A.size == 4]
    every_bound = (None, 0, 1, 2)
    plan = [(small, (1, 2), every_bound), (small, (3,), (None,)),
            (small[::6], (3,), (0, 1, 2)), (size4, (1,), every_bound),
            (size4[::6], (2,), every_bound), (size4[::16], (3,), (None,))]
    rng = random.Random(0x7AB1ED)
    late_failures = 0
    for algebras, arities, bounds in plan:
        for A, k in itertools.product(algebras, arities):
            for f in _sampled_functions(A, k, rng, random_term):
                for bound, wit in itertools.product(bounds, (False, True)):
                    assert compat_witness_kary(A, f, bound, wit) == \
                        pairwise_compat(A, f, "blocks", bound, wit)
                for wit in (False, True):
                    report = compat_witness_lambda(A, f, wit)
                    assert report == pairwise_compat(A, f, "lambda", None,
                                                     wit)
                if report.failing is not None:
                    (a, _), = report.failing
                    late_failures += any(a)
    # most moved copies fail only past the first row of pairs
    assert late_failures > 100
