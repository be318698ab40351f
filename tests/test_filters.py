import itertools

import pytest

from ririg.fixtures import b2, luk3
from ririg.filters import all_congruences_direct, all_ifilters, cep_check, \
    congruence_join, filter_from_theta, generate_filter, \
    generate_filter_blocks, generate_filter_blocks_stabilized, \
    generate_filter_lambda, induced_subalgebra, is_ifilter, \
    is_simple, is_subdirectly_irreducible, partitions, principal_congruence, \
    restrict_congruence, subuniverses, theta_from_filter
from ririg.modal import ModalSignature


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
