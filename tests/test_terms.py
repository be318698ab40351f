import random

import pytest

from ririg.core import EMPTY_SIGNATURE
from ririg.fixtures import g3, g3_delta
from ririg.modal import ModalSignature, enumerate_blocks
from ririg.parsing import parse_equation, parse_term
from ririg.terms import Const, Equation, Imp, Join, ModalApp, Prod, Var, \
    eval_term, fg_intersection_check, holds, in_chain_variety, is_chain, \
    is_contractive, join_splitting_block, satisfies_join_subdistribution, \
    satisfies_prelinearity, verify_join_splitting


def test_eval_term_examples(G3, G3D):
    A = G3
    assert eval_term(A, {0: 1}, parse_term("v0 -> v0")) == 2
    assert eval_term(g3_delta(), {0: 1}, parse_term("m(v0)")) == 0
    assert eval_term(A, {0: 1, 1: 0}, parse_term("v0 * (v1 | v0)")) == 1


def test_eval_term_errors(G3):
    A = G3
    with pytest.raises(KeyError):
        eval_term(A, {}, parse_term("v0"))
    with pytest.raises(KeyError):
        eval_term(A, {0: 1}, parse_term("m(v0)"))


def test_holds_examples(G3, G3D):
    ok, _ = holds(G3, parse_equation("(v0 -> v1) | (v1 -> v0) = 1"))
    assert ok
    ok, counter = holds(G3D, parse_equation("m(v0) = v0"))
    assert not ok and counter == {0: 1}
    assert holds(G3, parse_equation("v0 = v0")) == (True, None)


def test_holds_first_countervaluation_is_lexicographic(G3I):
    ok, counter = holds(G3I, parse_equation("v0 * v1 = v0"))
    assert not ok
    assert counter == {0: 1, 1: 0}     # (a, 0) comes before (1, 0)


def test_holds_valuation_cap(G3):
    eq = parse_equation("v0 | v1 | v2 | v3 | v4 | v5 = 1")
    with pytest.raises(ValueError):
        holds(G3, eq)
    ok, _ = holds(G3, eq, cap=None)
    assert not ok


def _same_answer(got, countermodel):
    """`holds`' answer equals the scan's, valuation keys in order too."""
    assert got == (countermodel is None, countermodel)
    if countermodel is not None:
        assert list(got[1].items()) == list(countermodel.items())


def test_holds_matches_recursive_scan(modal_catalogs, scan_countermodel,
                                      random_term):
    rng = random.Random(20)
    for name, algebras in sorted(modal_catalogs.items()):
        modals = algebras[0].sig.names
        for _ in range(150):
            A = rng.choice(algebras)
            nvars = rng.randint(0, 3)
            eq = Equation(random_term(rng, 3, nvars, modals),
                          random_term(rng, 2, nvars, modals))
            _same_answer(holds(A, eq, cap=None),
                         scan_countermodel(A, [], eq, None))


def test_holds_shared_constant_and_closed_terms(G3D, scan_countermodel):
    P, Q = Var(0), Var(2)
    shared = Join(P, ModalApp("m", P))
    for eq in (Equation(Prod(shared, shared), shared),
               Equation(Imp(shared, Q), Imp(Join(P, ModalApp("m", P)), Q)),
               Equation(Prod(P, Q), Prod(Q, P)),
               Equation(Imp(Q, Q), Const(1)),
               Equation(ModalApp("m", Const(1)), Const(1)),
               Equation(Const(0), Imp(Const(0), Const(0))),
               Equation(Join(Const(0), Const(1)), Const(1)),
               Equation(ModalApp("m", Prod(shared, Q)), shared)):
        _same_answer(holds(G3D, eq), scan_countermodel(G3D, [], eq, 256))
    assert holds(G3D, Equation(Const(0), Const(1))) == (False, {})


def test_is_contractive_examples(G3D, G3I):
    assert is_contractive(G3D)
    assert is_contractive(G3I)
    lifted = g3().with_modals(ModalSignature(("m",)), ((2, 1, 2),))
    assert not is_contractive(lifted)


def test_in_chain_variety_examples(G3D, G3I, B2B2_ID):
    assert in_chain_variety(G3D)
    assert in_chain_variety(G3I)
    # a Boolean square is prelinear even though it is not a chain
    assert in_chain_variety(B2B2_ID)


def test_is_chain_examples(G3, B2B2):
    assert is_chain(G3)
    assert not is_chain(B2B2)
    assert is_chain(g3_delta().with_modals(EMPTY_SIGNATURE, ()))


def test_join_splitting_block_examples():
    sig = ModalSignature(("m",))
    assert join_splitting_block(sig, (0,), (0,)) == (0, 0, 0)
    assert join_splitting_block(sig, (), ()) == ()
    G = g3_delta()
    # directly check the produced inequality at a | 0
    assert verify_join_splitting(G, (0,), (0,))


def test_join_splitting_rejects_foreign_letters():
    sig = ModalSignature(("m",))
    with pytest.raises(ValueError):
        join_splitting_block(sig, (1,), ())


def test_join_splitting_verified_on_chain_variety(catalog4):
    members = [A for A in catalog4 if in_chain_variety(A)]
    assert members
    for A in members:
        blocks = list(enumerate_blocks(A.sig, 2))
        for M in blocks:
            for N in blocks:
                assert verify_join_splitting(A, M, N), (A, M, N)


def test_double_contraction_bound(catalog4):
    # two modal letters applied to a join sit below keeping one side bare;
    # needs join-subdistribution, not just contraction (three contractive
    # diamond expansions without it violate the bound)
    for A in catalog4:
        if not in_chain_variety(A) or not A.sig.names:
            continue
        t = A.modal_tables[0]
        for a in range(A.size):
            for b in range(A.size):
                assert A.leq(t[t[A.join[a][b]]], A.join[a][t[b]])


def test_double_contraction_bound_two_letters():
    # same bound with two distinct letters m, n; chains make contraction
    # enough, and these expansions are all chains
    from ririg.catalog import enumerate_modal_expansions
    for A in enumerate_modal_expansions(g3(), 2, ("contractive",)):
        for m in A.modal_tables:
            for n in A.modal_tables:
                for a in range(A.size):
                    for b in range(A.size):
                        assert A.leq(m[n[A.join[a][b]]], A.join[a][n[b]])


def test_fg_intersection_examples(G3D, G3I):
    assert fg_intersection_check(G3D) == (True, None)
    assert fg_intersection_check(G3I) == (True, None)


def test_fg_intersection_refusal(B2):
    # the constant-one modal is not contractive, so the law is refused
    lifted = B2.with_modals(ModalSignature(("m",)), ((1, 1),))
    assert not in_chain_variety(lifted)
    with pytest.raises(ValueError):
        fg_intersection_check(lifted)


def test_fg_intersection_on_all_members(catalog4):
    for A in catalog4:
        if in_chain_variety(A):
            assert fg_intersection_check(A) == (True, None)


def test_chain_variety_theorem_fragments(catalog4):
    from ririg.filters import is_subdirectly_irreducible
    for A in catalog4:
        if A.size < 2:
            continue
        if in_chain_variety(A) and is_subdirectly_irreducible(A)[0]:
            assert is_chain(A)
        if is_chain(A) and is_contractive(A):
            assert satisfies_prelinearity(A)
            for name in A.sig.names:
                assert satisfies_join_subdistribution(A, name)
