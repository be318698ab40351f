import itertools
from pathlib import Path

import pytest

from ririg.catalog import catalog_build, catalog_load
from ririg.core import Algebra
from ririg.fixtures import b2, luk3
from ririg.filters import _block_items, _context, all_congruences_direct, \
    all_ifilters, cep_check, congruence_join, congruences_of, \
    filter_from_theta, generate_filter, generate_filter_blocks, \
    generate_filter_blocks_stabilized, generate_filter_lambda, \
    induced_subalgebra, is_ifilter, is_simple, is_subdirectly_irreducible, \
    partitions, principal_congruence, restrict_congruence, \
    simple_from_filters, subuniverses, theta_from_filter, up_set
from ririg.modal import ModalSignature, apply_block, enumerate_blocks, \
    lambda_op, reachable_values
from ririg.terms import fg_intersection_check, in_chain_variety

DATA = Path(__file__).resolve().parent.parent / "data"


def brute_is_filter(A, S):
    """Independent oracle: spell out the three closure conditions."""
    S = set(S)
    if not S:
        return False
    up = all(y in S for x in S for y in range(A.size)
             if A.join[x][y] == y)
    mult = all(A.prod[x][y] in S for x in S for y in S)
    modal = all(t[x] in S for x in S for t in A.modal_tables)
    return up and mult and modal


def test_is_ifilter_examples(G3I, G3D):
    assert is_ifilter(G3I, {2})
    assert not is_ifilter(G3D, {1, 2})     # collapses a to 0, not inside
    assert is_ifilter(G3D, {0, 1, 2})
    assert not is_ifilter(G3I, set())


def test_is_ifilter_matches_brute_oracle(catalog4):
    for A in catalog4:
        for mask in range(1, 1 << A.size):
            S = {i for i in range(A.size) if mask >> i & 1}
            assert is_ifilter(A, S) == brute_is_filter(A, S)


def test_generate_filter_examples(G3D, G3I):
    assert generate_filter(G3D, {1}) == frozenset({0, 1, 2})
    assert generate_filter(G3I, {1}) == frozenset({1, 2})
    assert generate_filter(G3I, set()) == generate_filter(G3I, {G3I.one})
    assert generate_filter(b2(), {0}) == frozenset({0, 1})


def test_generate_filter_blocks_bounded(G3D):
    # with no modal letters allowed only the up-set of {a} appears
    assert generate_filter_blocks(G3D, {1}, 0, 1) == frozenset({1, 2})
    assert generate_filter_blocks(G3D, {1}, 1, 1) == frozenset({0, 1, 2})
    assert generate_filter_blocks(G3D, {2}, 3, 3) == frozenset({2})


def test_block_route_matches_word_oracle(catalog4, set_routes):
    # the up-set of products of at most p values M(x), M any word of
    # length at most b
    for A in catalog4 + catalog_load(DATA / "cat3_m.cat").algebras():
        for mask in range(1 << A.size):
            X = {i for i in range(A.size) if mask >> i & 1}
            for b, p in itertools.product(range(3), repeat=2):
                values = {apply_block(A, M, x)
                          for M in enumerate_blocks(A.sig, b) for x in X}
                assert generate_filter_blocks(A, X, b, p) \
                    == set_routes.up_set(
                        A, set_routes.products_up_to(A, values, p)), \
                    (A, X, b, p)
            assert generate_filter_blocks(A, X, None, None) \
                == generate_filter(A, X)


def test_bitmask_routes_match_set_routes(catalog4, set_routes):
    # each public route, on every subset, against its set-based oracle
    bounds = (0, 1, 2, None)
    for A in catalog4 + catalog_load(DATA / "cat3_m.cat").algebras():
        assert all_ifilters(A) == set_routes.all_ifilters(A), A
        for mask in range(1 << A.size):
            X = {i for i in range(A.size) if mask >> i & 1}
            case = A, X
            assert up_set(A, X) == set_routes.up_set(A, X), case
            assert is_ifilter(A, X) == set_routes.is_ifilter(A, X), case
            assert generate_filter(A, X) \
                == set_routes.generate_filter(A, X), case
            for b, p in itertools.product(bounds, repeat=2):
                assert generate_filter_blocks(A, X, b, p) \
                    == set_routes.generate_filter_blocks(A, X, b, p), \
                    (A, X, b, p)
            assert generate_filter_blocks_stabilized(A, X) \
                == set_routes.generate_filter_blocks_stabilized(A, X), case
            assert generate_filter_lambda(A, X) \
                == set_routes.generate_filter_lambda(A, X), case


def test_principal_filters_give_every_filter_and_congruence(catalog4):
    # every filter of a finite integral algebra is Fg({product of its
    # members}), so the principal filters list them all
    for A in catalog4 + catalog_load(DATA / "cat3_m.cat").algebras():
        filters = all_ifilters(A)
        principal = {frozenset(i for i in range(A.size) if F >> i & 1)
                     for F in _context(A).principal}
        assert sorted(principal, key=lambda F: (len(F), sorted(F))) \
            == filters, A
        assert congruences_of(A) \
            == [theta_from_filter(A, F) for F in filters], A
        assert sorted(congruences_of(A)) \
            == sorted(all_congruences_direct(A)), A


def _scan_filters(A):
    """The filters as the classes of 1 of the scanned congruences."""
    return {frozenset(x for x in range(A.size) if th[x] == th[A.one])
            for th in all_congruences_direct(A)}


def _scan_generated(A, filters, X):
    """The least filter containing X, among the scanned filters."""
    return frozenset(range(A.size)).intersection(
        *(F for F in filters if set(X) <= F))


def _scan_cep(A):
    """cep_check with every congruence, of the algebra and of each
    subalgebra, from the partition scan."""
    parent = all_congruences_direct(A)
    for S in subuniverses(A):
        sub, elems = induced_subalgebra(A, S)
        restrictions = {restrict_congruence(xi, elems) for xi in parent}
        for theta in all_congruences_direct(sub):
            if theta not in restrictions:
                return False, (S, theta)
    return True, None


def _scan_si(A):
    """is_subdirectly_irreducible from the scanned filters: the meet of the
    nontrivial ones, and a maximal element of it other than 1."""
    common = frozenset(range(A.size)).intersection(
        *(F for F in _scan_filters(A) if len(F) > 1))
    candidates = [b for b in sorted(common) if b != A.one]
    if not candidates:
        return False, None
    return True, next(b for b in candidates
                      if not any(c != b and A.leq(b, c) for c in candidates))


def _scan_fg(A):
    """fg_intersection_check with each Fg from the scanned filters."""
    filters = _scan_filters(A)
    fg = [_scan_generated(A, filters, {a}) for a in range(A.size)]
    for a in range(A.size):
        for b in range(A.size):
            if _scan_generated(A, filters, {A.join[a][b]}) != fg[a] & fg[b]:
                return False, (a, b)
    return True, None


def test_table_readers_match_partition_scans(catalog4):
    members = 0
    for A in catalog4 + catalog_load(DATA / "cat3_m.cat").algebras():
        assert cep_check(A) == _scan_cep(A), A
        if A.size > 1:
            assert is_subdirectly_irreducible(A) == _scan_si(A), A
            assert simple_from_filters(A) \
                == (len(all_congruences_direct(A)) == 2), A
        if in_chain_variety(A):
            members += 1
            assert fg_intersection_check(A) == _scan_fg(A), A
    assert members


@pytest.fixture(scope="module")
def block_algebras(catalog4):
    """`catalog4`, data/cat3_m.cat and the (4, 2) catalog: one and two
    modals.  Up to size 4 the shortest blocks of equal length are found
    in lexicographic order, so a five-element Goedel chain is added whose
    blocks at 2 are found as eps, m0, m1, m1.m0, m0.m1."""
    n = 5
    chain = Algebra.from_join_prod(
        n, [[max(x, y) for y in range(n)] for x in range(n)],
        [[min(x, y) for y in range(n)] for x in range(n)], 0, n - 1)
    chain = chain.with_modals(ModalSignature(("m0", "m1")),
                              ((0, 1, 1, 4, 4), (0, 0, 3, 3, 4)))
    return (catalog4 + catalog_load(DATA / "cat3_m.cat").algebras()
            + catalog_build(4, 2).algebras() + [chain])


def test_block_tables_match_every_word(block_algebras):
    """reach[c][t] and _block_items(A, c, t) against the values of every
    block word of length at most t: words shorter than the size reach
    every value, and the masks stop at the length past which none is new."""
    for A in block_algebras:
        reach = _context(A).reach
        for c in range(A.size):
            masks = reach[c]
            shortest = {}
            for t in range(A.size):
                values = {apply_block(A, M, c)
                          for M in enumerate_blocks(A.sig, t)}
                for v in values:
                    shortest.setdefault(v, t)
                assert masks[min(t, len(masks) - 1)] \
                    == sum(1 << v for v in values), (A, c, t)
                items = _block_items(A, c, t)
                assert {v for v, _ in items} == values, (A, c, t)
                assert all(apply_block(A, M, c) == v
                           and len(M) == shortest[v] for v, M in items)
                assert list(items) == sorted(
                    items, key=lambda kv: (len(kv[1]), kv[1]))
            assert all(a != b for a, b in zip(masks, masks[1:])), (A, c)
            assert _block_items(A, c) == _block_items(A, c, A.size - 1)


def test_block_items_match_reachable_values(block_algebras):
    for A in block_algebras:
        for c in range(A.size):
            for bound in (None, -1, 0, 1, 2):
                assert list(_block_items(A, c, bound)) == sorted(
                    reachable_values(A, c, bound).items(),
                    key=lambda kv: (len(kv[1]), kv[1])), (A, c, bound)


def _least_lambda_zero(A, a):
    """Least l such that some power of the l-th iterate of a is 0, with
    the least such power; None when no l works."""
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


def test_simplicity_witnesses_are_shortest():
    simple = [A for A in catalog_load(DATA / "cat4_m.cat").algebras()
              if A.size > 1 and is_simple(A)[0]]
    assert simple
    for A in simple:
        _, witnesses = is_simple(A)
        for a, w in witnesses.items():
            values = [apply_block(A, M, a) for M in w.blocks]
            product = A.one
            for v in values:
                product = A.prod[product][v]
            assert product == A.zero
            # words of length < size reach every value a block takes at a
            reach = {apply_block(A, M, a)
                     for M in enumerate_blocks(A.sig, A.size - 1)}
            assert reach == {v for v, _ in _block_items(A, a)}
            for count in range(len(values)):
                for combo in itertools.product(reach, repeat=count):
                    product = A.one
                    for v in combo:
                        product = A.prod[product][v]
                    assert product != A.zero, (A, a, combo)
            assert _least_lambda_zero(A, a) \
                == (w.lam_exponent, w.lam_power)


def test_generate_filter_is_least(catalog3):
    for A in catalog3:
        for mask in range(1 << A.size):
            X = {i for i in range(A.size) if mask >> i & 1}
            F = generate_filter(A, X)
            assert is_ifilter(A, F) and X <= F
            for G in all_ifilters(A):
                if X <= G:
                    assert F <= G


def test_generation_routes_agree(catalog4):
    for A in catalog4:
        for mask in range(1 << A.size):
            X = {i for i in range(A.size) if mask >> i & 1}
            expected = generate_filter(A, X)
            assert generate_filter_blocks_stabilized(A, X) == expected
            assert generate_filter_lambda(A, X) == expected


def test_pair_generates_the_filter_of_its_product(catalog4):
    # Fg({c, d}) = Fg({c*d}): compatibility decides every arity by the
    # filter generated by the product of the slot stars
    from ririg.catalog import catalog_build
    for A in catalog4 + catalog_build(3, 2).algebras():
        for c in range(A.size):
            for d in range(A.size):
                for generate in (generate_filter_lambda,
                                 generate_filter_blocks_stabilized):
                    assert generate(A, {c, d}) == \
                        generate(A, {A.prod[c][d]})


def test_all_ifilters_examples(G3I, G3D):
    assert all_ifilters(G3I) == [frozenset({2}), frozenset({1, 2}),
                                 frozenset({0, 1, 2})]
    assert all_ifilters(G3D) == [frozenset({2}), frozenset({0, 1, 2})]
    assert all_ifilters(b2()) == [frozenset({1}), frozenset({0, 1})]


def test_theta_from_filter_examples(G3I):
    assert theta_from_filter(G3I, {1, 2}) == (0, 1, 1)
    assert theta_from_filter(G3I, {2}) == (0, 1, 2)
    assert theta_from_filter(G3I, {0, 1, 2}) == (0, 0, 0)
    with pytest.raises(ValueError):
        theta_from_filter(G3I, {0, 2})


def test_filter_from_theta_examples(G3I):
    assert filter_from_theta(G3I, (0, 1, 2)) == frozenset({2})
    assert filter_from_theta(G3I, (0, 0, 0)) == frozenset({0, 1, 2})
    assert filter_from_theta(G3I, (0, 1, 1)) == frozenset({1, 2})
    with pytest.raises(ValueError):
        filter_from_theta(G3I, (0, 0, 2))


def test_roundtrip_isomorphism(catalog4):
    for A in catalog4:
        filters = all_ifilters(A)
        congruences = all_congruences_direct(A)
        assert len(filters) == len(congruences)
        for F in filters:
            assert filter_from_theta(A, theta_from_filter(A, F)) == F
        for th in congruences:
            assert theta_from_filter(A, filter_from_theta(A, th)) == th


def test_order_preservation_both_ways(catalog3):
    for A in catalog3:
        filters = all_ifilters(A)
        for F in filters:
            for G in filters:
                thF, thG = theta_from_filter(A, F), theta_from_filter(A, G)
                finer = all((thF[a] == thF[b]) <= (thG[a] == thG[b])
                            for a in range(A.size) for b in range(A.size))
                assert (F <= G) == finer


def test_partitions_bell_numbers():
    assert len(list(partitions(3))) == 5
    assert len(list(partitions(4))) == 15


def test_all_congruences_direct_examples(G3I, G3D):
    assert len(all_congruences_direct(G3I)) == 3
    assert len(all_congruences_direct(G3D)) == 2
    assert len(all_congruences_direct(b2())) == 2


def test_congruence_cap():
    five = b2()
    with pytest.raises(ValueError):
        all_congruences_direct(five, cap=1)


def test_principal_congruence_examples(G3I, G3D):
    assert principal_congruence(G3I, 1, 2) == (0, 1, 1)
    assert principal_congruence(G3I, 1, 1) == (0, 1, 2)
    assert principal_congruence(G3D, 1, 2) == (0, 0, 0)


def test_principal_congruence_is_least_containing_pair(catalog3):
    for A in catalog3:
        for x in range(A.size):
            for y in range(A.size):
                cg = principal_congruence(A, x, y)
                assert cg[x] == cg[y]
                among = [th for th in all_congruences_direct(A)
                         if th[x] == th[y]]
                for th in among:
                    assert all((cg[a] == cg[b]) <= (th[a] == th[b])
                               for a in range(A.size)
                               for b in range(A.size))


def test_congruence_join_and_generated_filter(catalog3):
    # the filter of a congruence generated by pairs (1, y) is the filter
    # generated by the elements y
    for A in catalog3:
        elements = range(A.size)
        for r in range(A.size + 1):
            for Y in itertools.combinations(elements, r):
                acc = tuple(range(A.size))
                for y in Y:
                    acc = congruence_join(A, acc,
                                          principal_congruence(A, A.one, y))
                assert filter_from_theta(A, acc) == generate_filter(A, set(Y))


def test_is_simple_examples(G3D, G3I):
    simple, witnesses = is_simple(G3D)
    assert simple
    assert witnesses[0].blocks == ((),) and witnesses[0].lam_exponent == 0
    assert witnesses[1].blocks == ((0,),) and witnesses[1].lam_exponent == 1
    assert not is_simple(G3I)[0]
    assert is_simple(b2())[0]


def test_is_simple_rejects_trivial():
    from ririg.core import Algebra
    one = Algebra(1, ((0,),), ((0,),), ((0,),), 0, 0)
    with pytest.raises(ValueError):
        is_simple(one)
    with pytest.raises(ValueError):
        is_subdirectly_irreducible(one)


def test_simple_needs_power_products():
    # x*x = 0 with a constant-one modal: the only nontrivial filters are
    # killed by squaring, yet no single block or iterate ever reaches 0
    A = luk3().with_modals(ModalSignature(("m",)), ((2, 2, 2),))
    assert len(all_congruences_direct(A)) == 2
    simple, witnesses = is_simple(A)
    assert simple
    assert witnesses[1].blocks == ((), ())       # a * a = 0
    assert witnesses[1].lam_exponent == 0 and witnesses[1].lam_power == 2


def test_is_si_examples(G3I, G3D, B2B2):
    assert is_subdirectly_irreducible(G3I) == (True, 1)
    decision, b = is_subdirectly_irreducible(G3D)
    assert decision and b != G3D.one
    assert is_subdirectly_irreducible(B2B2) == (False, None)


def every_element_verdict(A):
    """(simple, (si, a maximal si witness)) from Fg({c}) of every c != 1,
    read from the context's principal filters."""
    principal = _context(A).principal
    common = set(range(A.size))
    for c, F in enumerate(principal):
        if c != A.one:
            common &= {x for x in range(A.size) if F >> x & 1}
    candidates = sorted(common - {A.one})
    maximal = [b for b in candidates
               if not any(c != b and A.leq(b, c) for c in candidates)]
    return len(common) == A.size, \
        (bool(candidates), maximal[0] if candidates else None)


def test_coatom_reduction_matches_every_element(catalog4):
    """simple and si read from the coatoms' principal filters equal the
    verdicts read from every element's."""
    algebras = catalog4 + catalog_build(5, 1).algebras() \
        + catalog_build(4, 2).algebras()
    for A in algebras:
        if A.size < 2:
            continue
        simple, si = every_element_verdict(A)
        assert simple_from_filters(A) == simple
        assert is_subdirectly_irreducible(A) == si


def test_simple_si_match_congruence_lattice(catalog4):
    for A in catalog4:
        if A.size < 2:
            continue
        congruences = all_congruences_direct(A)
        assert is_simple(A)[0] == (len(congruences) == 2)
        nontrivial = [th for th in congruences if len(set(th)) < A.size]
        finer = lambda s, t: all((s[a] == s[b]) <= (t[a] == t[b])
                                 for a in range(A.size)
                                 for b in range(A.size))
        has_monolith = bool(nontrivial) and any(
            all(finer(m, th) for th in nontrivial) for m in nontrivial)
        assert is_subdirectly_irreducible(A)[0] == has_monolith


def test_subuniverses_examples(G3I, G3D):
    assert subuniverses(G3I) == [frozenset({0, 2}), frozenset({0, 1, 2})]
    assert subuniverses(G3D) == [frozenset({0, 2}), frozenset({0, 1, 2})]
    assert subuniverses(b2()) == [frozenset({0, 1})]


def test_induced_subalgebra_and_restriction(G3I):
    sub, elems = induced_subalgebra(G3I, {0, 2})
    assert elems == [0, 2]
    assert sub.size == 2 and sub.one == 1 and sub.zero == 0
    assert restrict_congruence((0, 1, 2), elems) == (0, 1)
    assert restrict_congruence((0, 0, 0), elems) == (0, 0)


def test_cep_examples(G3I, G3D):
    assert cep_check(G3I) == (True, None)
    assert cep_check(G3D) == (True, None)
    assert cep_check(b2()) == (True, None)


def test_cep_whole_catalog(catalog4):
    for A in catalog4:
        ok, counterexample = cep_check(A)
        assert ok, (A, counterexample)
