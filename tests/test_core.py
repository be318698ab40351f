import pytest

from ririg.core import EMPTY_SIGNATURE, Algebra, ModalSignature, \
    residual_of, synthesize_imp, validate_ririg
from ririg.fixtures import b2, g3, luk3


def altered(A, table_name, i, j, value):
    tables = {"join": [list(r) for r in A.join],
              "prod": [list(r) for r in A.prod],
              "imp": [list(r) for r in A.imp]}
    tables[table_name][i][j] = value
    return Algebra(A.size, tables["join"], tables["prod"],
                   tables["imp"], A.zero, A.one)


def test_b2_is_a_ririg():
    assert validate_ririg(b2()).passed


def test_g3_is_a_ririg():
    assert validate_ririg(g3()).passed


def test_luk3_is_a_ririg():
    assert validate_ririg(luk3()).passed


def test_broken_residual_reports_first_lex_witness():
    # making 1 -> 0 equal 1 breaks only the adjunction, first at (1,1,0)
    bad = altered(b2(), "imp", 1, 0, 1)
    report = validate_ririg(bad)
    assert not report.passed
    assert report.failures == (("residuation", (1, 1, 0)),)


def test_broken_commutativity_named():
    bad = altered(g3(), "prod", 1, 2, 0)
    names = {name for name, _ in validate_ririg(bad).failures}
    assert "prod-commutativity" in names


def test_shape_error_on_out_of_range_entry():
    with pytest.raises(ValueError):
        Algebra(2, ((0, 1), (1, 2)), ((0, 0), (0, 1)),
                ((1, 1), (0, 1)), 0, 1)


def test_leq_examples():
    G = g3()
    assert G.leq(0, 1)            # bottom below a
    assert G.leq(1, 2) and G.imp[1][2] == 2   # a <= 1 and a -> 1 = 1
    assert not G.leq(2, 1)


def test_leq_matches_imp_characterization():
    for A in (b2(), g3(), luk3()):
        for a in range(A.size):
            for b in range(A.size):
                assert A.leq(a, b) == (A.imp[a][b] == A.one)


def test_star_examples():
    G = g3()
    assert G.star(1, 1) == 2      # a * a = 1
    assert G.star(0, 1) == 0      # (0 -> a)(a -> 0) = 1 * 0 = 0
    assert G.star(1, 2) == 1      # (a -> 1)(1 -> a) = 1 * a = a


def test_star_symmetric():
    for A in (g3(), luk3()):
        for a in range(A.size):
            for b in range(A.size):
                assert A.star(a, b) == A.star(b, a)


def test_residual_of_examples():
    G = g3()
    assert residual_of(G, 1, 0) == 0        # max{z : z*a <= 0} = 0
    assert residual_of(b2(), 1, 1) == 1
    for c in range(3):
        assert residual_of(G, 0, c) == 2    # 0 -> anything is 1


def test_residual_reconstructs_imp():
    for A in (b2(), g3(), luk3()):
        rebuilt = synthesize_imp(A.size, A.join, A.prod)
        assert rebuilt == A.imp


def test_residual_reconstructs_imp_on_catalog(catalog4):
    for A in catalog4:
        assert synthesize_imp(A.size, A.join, A.prod) == A.imp


def test_residual_absent_when_not_residuated():
    # diamond order, product engineered so {z : z*1 <= 0} = {0, a, b},
    # which has two incomparable maximal elements and hence no maximum
    join = ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))
    prod = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 3, 0, 0))
    A = Algebra(4, join, prod, join, 0, 3)
    assert residual_of(A, 1, 0) is None
    with pytest.raises(ValueError):
        synthesize_imp(4, join, prod)


def test_from_join_prod_synthesizes_imp():
    for A in (b2(), g3(), luk3()):
        assert Algebra.from_join_prod(A.size, A.join, A.prod,
                                      A.zero, A.one) == A


@pytest.mark.parametrize("tables", [
    (),                          # one table per name required
    ((0, 0, 2), (0, 1, 2)),
    ((0, 2),),                   # wrong length
    ((0, 1, 3),),                # entry out of range
    ((0, -1, 2),),
])
def test_with_modals_rejects_what_the_constructor_rejects(tables):
    G, sig = g3(), ModalSignature(("m",))
    with pytest.raises(ValueError) as built:
        Algebra(G.size, G.join, G.prod, G.imp, G.zero, G.one, sig, tables)
    with pytest.raises(ValueError) as expanded:
        G.with_modals(sig, tables)
    assert str(expanded.value) == str(built.value)


def test_deepcopy_shares_the_tables(catalog4):
    import copy
    for A in catalog4:
        B = copy.deepcopy(A)
        assert B == A and hash(B) == hash(A) and B is not A
        for name in ("join", "prod", "imp", "modal_tables"):
            assert getattr(B, name) is getattr(A, name), name
        assert B.sig == A.sig and B.sig is not A.sig
    # one copy per object within one deep copy, as for any object
    A = catalog4[-1]
    pair = copy.deepcopy([A, A])
    assert pair[0] is pair[1] and pair[0] is not A


def test_expansion_equals_and_hashes_like_one_call_build(catalog4):
    # the per-algebra lru_caches are keyed on whole algebras
    from ririg.compat import _context
    for M in catalog4:
        whole = Algebra(M.size, [list(r) for r in M.join], M.prod, M.imp,
                        M.zero, M.one, M.sig,
                        [list(t) for t in M.modal_tables])
        assert whole == M and hash(whole) == hash(M)
        reduct = M.with_modals(EMPTY_SIGNATURE, ())
        assert reduct == Algebra(M.size, M.join, M.prod, M.imp, M.zero, M.one)
        again = reduct.with_modals(M.sig, M.modal_tables)
        assert again == M and hash(again) == hash(M)
    M = catalog4[-1]
    assert _context(M) is _context(
        Algebra(M.size, M.join, M.prod, M.imp, M.zero, M.one, M.sig,
                M.modal_tables))
