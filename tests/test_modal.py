import pytest
from hypothesis import given, strategies as st

from ririg.fixtures import g3, g3_delta, g3_id
from ririg.modal import EPS, ModalSignature, apply_block, \
    check_product_form, enumerate_blocks, format_block, lambda_iter, \
    lambda_op, parse_block, reachable_values, validate_modal


def with_modal(table):
    return g3().with_modals(ModalSignature(("m",)), (tuple(table),))


def test_validate_modal_fixtures():
    assert validate_modal(g3_delta()).passed
    assert validate_modal(g3_id()).passed


def test_validate_modal_unit_failure():
    report = validate_modal(with_modal((0, 0, 1)))
    assert not report.passed
    assert ("m: m(1)=1", ()) in report.failures


def test_signature_rejects_duplicates_and_reserved():
    with pytest.raises(ValueError):
        ModalSignature(("m", "m"))
    with pytest.raises(ValueError):
        ModalSignature(("v0",))
    with pytest.raises(ValueError):
        ModalSignature(("eps",))


def test_product_form_examples():
    assert check_product_form(g3_delta(), "m")
    assert check_product_form(g3_id(), "m")


def test_swap_table_fails_distribution_but_not_product_form():
    # the 0 <-> a swap is not monotone, so the distribution law fails;
    # the product inequality alone, however, survives an exhaustive scan
    swap = with_modal((1, 0, 2))
    report = validate_modal(swap)
    assert not report.passed
    assert report.failures == ((("m: m(x->y) <= m(x)->m(y)"), (0, 1)),)
    assert check_product_form(swap, "m") is True


def test_product_form_equivalence_on_valid_modals(catalog4):
    # for tables that pass the modal axioms both formulations agree
    for A in catalog4:
        for name in A.sig.names:
            assert check_product_form(A, name)


def test_modal_monotone(catalog4):
    for A in catalog4:
        for t in A.modal_tables:
            for a in range(A.size):
                for b in range(A.size):
                    if A.leq(a, b):
                        assert A.leq(t[a], t[b])


def test_apply_block_examples():
    G = g3_delta()
    assert apply_block(G, EPS, 1) == 1
    assert apply_block(G, (0,), 1) == 0
    assert apply_block(G, (0, 0), 2) == 2


def test_block_orientation_rightmost_first():
    # table g: 0,a,1 -> a,1,1 is modal on g3; word "g m" must apply m first
    g_table = (1, 2, 2)
    A = g3().with_modals(ModalSignature(("m", "g")), ((0, 0, 2), g_table))
    assert validate_modal(A).passed
    # (g m)(a): m(a)=0, then g(0)=a
    assert apply_block(A, (1, 0), 1) == 1
    # (m g)(a): g(a)=1, then m(1)=1
    assert apply_block(A, (0, 1), 1) == 2


def test_block_concatenation_is_composition(catalog4):
    for A in catalog4:
        blocks = list(enumerate_blocks(A.sig, 2))
        for M in blocks:
            for N in blocks:
                for a in range(A.size):
                    assert apply_block(A, M + N, a) == \
                        apply_block(A, M, apply_block(A, N, a))


def test_blocks_are_modal_operators(catalog4):
    for A in catalog4:
        for M in enumerate_blocks(A.sig, 3):
            table = tuple(apply_block(A, M, a) for a in range(A.size))
            expanded = A.with_modals(ModalSignature(("q",)), (table,))
            assert validate_modal(expanded).passed


def test_enumerate_blocks_order():
    sig1 = ModalSignature(("m",))
    assert list(enumerate_blocks(sig1, 2)) == [(), (0,), (0, 0)]
    sig2 = ModalSignature(("m1", "m2"))
    assert list(enumerate_blocks(sig2, 1)) == [(), (0,), (1,)]
    sig0 = ModalSignature(())
    assert list(enumerate_blocks(sig0, 3)) == [()]


def test_lambda_examples():
    assert lambda_op(g3_delta(), 1) == 0
    assert lambda_op(g3_id(), 1) == 1
    assert lambda_op(g3_delta(), 2) == 2
    assert lambda_op(g3_delta(), 0) == 0


def test_lambda_iter_examples():
    assert lambda_iter(g3_delta(), 0, 1) == 1
    assert lambda_iter(g3_delta(), 2, 1) == 0
    assert lambda_iter(g3_id(), 5, 1) == 1


def test_lambda_properties(catalog4):
    for A in catalog4:
        lam = tuple(lambda_op(A, x) for x in range(A.size))
        for x in range(A.size):
            assert A.leq(lam[x], x)                 # contraction
        assert lam[A.zero] == A.zero and lam[A.one] == A.one
        # the operator is itself modal
        expanded = A.with_modals(ModalSignature(("q",)), (lam,))
        assert validate_modal(expanded).passed
        # iterates decrease
        for x in range(A.size):
            for l in range(A.size + 1):
                assert A.leq(lambda_iter(A, l + 1, x),
                             lambda_iter(A, l, x))


def test_lambda_empty_signature_is_identity(MB2):
    for x in range(MB2.size):
        assert lambda_op(MB2, x) == x


def test_reachable_values_shortest_blocks():
    reach = reachable_values(g3_delta(), 1)
    assert reach == {1: (), 0: (0,)}


@given(st.lists(st.sampled_from([0, 1]), max_size=4))
def test_block_literal_roundtrip(word):
    sig = ModalSignature(("m1", "m2"))
    text = format_block(tuple(word), sig)
    assert parse_block(text, sig) == tuple(word)


def test_parse_block_errors():
    sig = ModalSignature(("m1",))
    assert parse_block("eps", sig) == ()
    assert parse_block("m1.m1", sig) == (0, 0)
    with pytest.raises(KeyError):
        parse_block("m2", sig)
    with pytest.raises(ValueError):
        parse_block("", sig)
