import copy
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from ririg.catalog import catalog_build, catalog_load
from ririg.fixtures import b2, g3
from ririg.logic import Ax, Hyp, JoinElim, MP, Nec, Proof, ProofLine, \
    check_proof, lambda_formula, lddt_witness, match_schema, \
    parse_justification, parse_proof, rho, semantic_entails, \
    soundness_check, tau, tau_set
from ririg.modal import ModalSignature, format_block
from ririg.parsing import format_term, parse_equation, parse_formula
from ririg.terms import BOT, TOP, Const, Equation, Imp, Join, ModalApp, \
    Prod, Var, eval_term, modal_names_of, valuations, variables_of

PROOFS_DIR = pathlib.Path(__file__).resolve().parents[1] / "proofs"
DATA = pathlib.Path(__file__).resolve().parents[1] / "data"

P, Q = Var(0), Var(1)


def test_match_schema_examples():
    assert match_schema(parse_formula("bot -> bot"), "ax1") == {"phi": BOT}
    got = match_schema(parse_formula("m1(v0 -> v1) -> (m1(v0) -> m1(v1))"),
                       "ax12", "m1")
    assert got == {"phi": P, "psi": Q}
    assert match_schema(parse_formula("v0 -> v1"), "ax3") is None


def test_match_schema_modal_unit_both_directions():
    assert match_schema(parse_formula("m1(top) -> top"), "ax11", "m1") == {}
    assert match_schema(parse_formula("top -> m1(top)"), "ax11", "m1") == {}
    assert match_schema(parse_formula("m1(top) -> m1(top)"),
                        "ax11", "m1") is None


def test_match_schema_nonlinear_consistency():
    assert match_schema(parse_formula("v0 -> v1"), "ax1") is None
    assert match_schema(parse_formula("(v0 | v1) -> (v0 | v1)"), "ax1") \
        == {"phi": Join(P, Q)}


def test_top_is_a_theorem():
    proof = Proof((), (ProofLine(Imp(BOT, BOT), Ax("ax1")),))
    assert check_proof(proof).ok


def test_nec_rule():
    proof = Proof((P,), (ProofLine(P, Hyp()),
                         ProofLine(ModalApp("m1", P), Nec("m1", 1))))
    assert check_proof(proof).ok


def test_join_elim_rule():
    lines = (
        ProofLine(Imp(P, Join(P, Q)), Ax("ax7")),
        ProofLine(Imp(Q, Join(P, Q)), Ax("ax8")),
        ProofLine(Imp(Join(P, Q), Join(P, Q)), JoinElim(1, 2)),
    )
    assert check_proof(Proof((), lines)).ok


def test_bad_lines_are_reported():
    bad_hyp = Proof((), (ProofLine(P, Hyp()),))
    r = check_proof(bad_hyp)
    assert (r.ok, r.bad_line) == (False, 1)

    mismatched_mp = Proof(
        (P, Imp(Q, P)),
        (ProofLine(P, Hyp()), ProofLine(Imp(Q, P), Hyp()),
         ProofLine(Q, MP(2, 1))))
    r = check_proof(mismatched_mp)
    assert not r.ok and r.bad_line == 3 and "major premise shape" in r.reason

    forward_citation = Proof((), (ProofLine(P, MP(2, 1)),))
    assert not check_proof(forward_citation).ok

    unknown_modal = Proof((P,), (ProofLine(P, Hyp()),
                                 ProofLine(ModalApp("k9", P), Nec("k9", 1))))
    assert not check_proof(unknown_modal, ModalSignature(("m1",))).ok


def test_substitutions_recorded():
    proof = Proof((), (ProofLine(Imp(BOT, BOT), Ax("ax1")),))
    r = check_proof(proof)
    assert r.substitutions == {1: {"phi": BOT}}


def test_justification_syntax_roundtrip():
    for text in ("hyp", "ax1", "ax10", "ax11:m1", "ax12:m1",
                 "mp 2 1", "nec:m1 3", "vel 1 2"):
        just = parse_justification(text)
        from ririg.logic import format_justification
        assert format_justification(just) == text
    with pytest.raises(ValueError):
        parse_justification("ax13")
    with pytest.raises(ValueError):
        parse_justification("mp 1")


def test_proof_corpus_checks_and_is_sound(catalog3_modal):
    expected = {
        "top.prf": "0 -> 0",
        "nec_example.prf": "m1(v0)",
        "thm_to_top.prf": "v0 -> 0 -> 0",
        "thm_weakening.prf": "v0 -> v1 -> v0",
        "thm_prod_monotone.prf": "(v0 -> v1) -> v0 * v2 -> v1 * v2",
        "thm_prod_assoc.prf": "v0 * v1 * v2 -> v0 * (v1 * v2)",
    }
    for name, conclusion in expected.items():
        proof = parse_proof((PROOFS_DIR / name).read_text())
        result = check_proof(proof)
        assert result.ok, (name, result)
        assert format_term(proof.conclusion()) == conclusion
        assert soundness_check(proof, catalog3_modal)


def test_proof_file_errors():
    with pytest.raises(ValueError):
        parse_proof("2. v0 ; hyp")           # wrong numbering
    with pytest.raises(ValueError):
        parse_proof("1. v0 hyp")             # missing separator
    with pytest.raises(ValueError):
        parse_proof("1. v0 ; hyp\nassume: v1")


def test_tau_rho_examples():
    assert tau(P) == frozenset({Equation(P, Const(1))})
    assert rho(Equation(P, Q)) == frozenset({Imp(P, Q), Imp(Q, P)})
    assert tau(Imp(BOT, BOT)) == frozenset({Equation(TOP, Const(1))})


def test_semantic_entails_modus_ponens(catalog3_modal):
    ok, _ = semantic_entails(
        catalog3_modal,
        [parse_equation("v0 = 1"), parse_equation("(v0 -> v1) = 1")],
        parse_equation("v1 = 1"))
    assert ok


def test_semantic_entails_excluded_middle_fails_on_g3():
    catalog = [g3()]
    ok, cm = semantic_entails(catalog, [],
                              parse_equation("(v0 | (v0 -> bot)) = 1"))
    assert not ok
    A, valuation = cm
    assert A.size == 3 and valuation == {0: 1}


def test_semantic_entails_nec(catalog3_modal):
    ok, _ = semantic_entails(catalog3_modal, [parse_equation("v0 = 1")],
                             parse_equation("m1(v0) = 1"))
    assert ok


def test_semantic_entails_signature_mismatch(catalog3_modal):
    with pytest.raises(ValueError):
        semantic_entails(catalog3_modal, [], parse_equation("k9(v0) = 1"))
    mixed = catalog3_modal + [g3()]
    with pytest.raises(ValueError):
        semantic_entails(mixed, [], parse_equation("v0 = 1"))


def test_soundness_rejects_invalid_sequent():
    # an (imagined) checker accepting p |- q would fail this gate, with the
    # countermodel sitting already in the two-element algebra
    catalog = [b2(), g3()]
    ok, cm = semantic_entails(catalog, list(tau_set([P])),
                              Equation(Q, Const(1)))
    assert not ok
    A, valuation = cm
    assert A.size == 2 and valuation == {0: 1, 1: 0}


def _scan_entails(catalog, premises, goal, cap, scan_countermodel):
    for A in catalog:
        v = scan_countermodel(A, premises, goal, cap)
        if v is not None:
            return False, (A, v)
    return True, None


def test_semantic_entails_matches_recursive_scan(modal_catalogs,
                                                 scan_countermodel,
                                                 random_term):
    rng = random.Random(21)
    for name, algebras in sorted(modal_catalogs.items()):
        modals = algebras[0].sig.names
        for _ in range(40):
            nvars = rng.randint(0, 3)
            premises = [Equation(random_term(rng, 2, nvars, modals),
                                 random_term(rng, 1, nvars, modals))
                        for _ in range(rng.randint(0, 2))]
            goal = Equation(random_term(rng, 3, nvars, modals),
                            random_term(rng, 2, nvars, modals))
            got = semantic_entails(algebras, premises, goal, cap=None)
            want = _scan_entails(algebras, premises, goal, None,
                                 scan_countermodel)
            assert got[0] == want[0], (name, premises, goal)
            if not got[0]:
                assert got[1][0] is want[1][0]
                assert list(got[1][1].items()) == list(want[1][1].items())


def _reduct(A, names):
    return (A.size, A.join, A.prod, A.imp, A.zero, A.one,
            *[A.modal(name) for name in sorted(names)])


def test_semantic_entails_per_reduct_matches_per_algebra_scan(
        catalog4, scan_countermodel, random_term):
    """Catalogs whose reducts repeat, also reversed so that other members
    come first: the answer, the countermodel's algebra object and its
    valuation are those of the scan of every algebra."""
    catalogs = {"catalog4": [A for A in catalog4 if A.sig.names],
                "cat4_m": catalog_load(DATA / "cat4_m.cat").algebras(),
                "3-2": catalog_build(3, 2).algebras()}
    rng = random.Random(7)
    outcomes = set()
    for name, algebras in sorted(catalogs.items()):
        for catalog in (algebras, algebras[::-1]):
            modals = catalog[0].sig.names
            for case in range(32):
                used = (modals[case % len(modals)],) if case % 2 else ()
                nvars = rng.randint(1, 3)
                premises = [Equation(random_term(rng, 2, nvars, used),
                                     random_term(rng, 1, nvars, used))
                            for _ in range(case // 2 % 2)]
                goal = Equation(random_term(rng, 3, nvars, used),
                                random_term(rng, 2, nvars, used))
                got = semantic_entails(catalog, premises, goal, cap=None)
                want = _scan_entails(catalog, premises, goal, None,
                                     scan_countermodel)
                assert got[0] == want[0], (name, premises, goal)
                if got[0]:
                    outcomes.add("holds")
                    continue
                assert got[1][0] is want[1][0], (name, premises, goal)
                assert list(got[1][1].items()) == list(want[1][1].items())
                names = {n for e in premises + [goal]
                         for n in modal_names_of(e.lhs) | modal_names_of(e.rhs)}
                shared = sum(_reduct(A, names) == _reduct(got[1][0], names)
                             for A in catalog)
                outcomes.add("refuted in a shared reduct" if shared > 1
                             else "refuted")
    assert outcomes == {"holds", "refuted", "refuted in a shared reduct"}


def test_semantic_entails_follows_changes_to_the_catalog(catalog3_modal,
                                                         scan_countermodel):
    """The per-catalog index is reused only while the same sequence holds
    the same algebra objects."""
    excluded_middle = parse_equation("(v0 | (v0 -> bot)) = 1")
    boolean = [A for A in catalog3_modal
               if scan_countermodel(A, [], excluded_middle, None) is None]
    other = next(A for A in catalog3_modal if A not in boolean)
    catalog = list(boolean)
    assert semantic_entails(catalog, [], excluded_middle) == (True, None)
    # an algebra whose reduct no earlier call has seen
    catalog[-1] = other
    got = semantic_entails(catalog, [], excluded_middle)
    assert got[0] is False and got[1][0] is other
    assert got == _scan_entails(catalog, [], excluded_middle, None,
                                scan_countermodel)
    # an equal algebra that is another object
    catalog[-1] = copy.deepcopy(other)
    assert semantic_entails(catalog, [], excluded_middle)[1][0] \
        is catalog[-1] is not other
    # an algebra of another signature
    catalog.append(g3())
    for call in (lambda: semantic_entails(catalog, [], excluded_middle),
                 lambda: soundness_check(parse_proof("1. v0 -> v0 ; ax1"),
                                         catalog),
                 lambda: lddt_witness([], [P], P, catalog)):
        with pytest.raises(ValueError, match="do not share one signature"):
            call()


def test_iterators_and_certificates_cover_the_whole_catalog(
        catalog3_modal):
    goal = parse_equation("v0 * v1 = v1 * v0")
    for _ in range(2):
        assert semantic_entails(iter(catalog3_modal), [], goal) \
            == (True, None)
    expected = f"over {len(catalog3_modal)} catalog algebras"
    for catalog in (catalog3_modal, iter(catalog3_modal), catalog3_modal):
        w = lddt_witness([], [P], ModalApp("m1", P), catalog)
        assert expected in w.certificate


def test_semantic_entails_cap_is_reached_lazily(scan_countermodel):
    # b2 refutes the goal with 2^5 valuations; g3 has 3^5 > 64
    goal = parse_equation("v0 | v1 | v2 | v3 | v4 = v0")
    catalog = [b2(), g3()]
    assert semantic_entails(catalog, [], goal, cap=64) \
        == _scan_entails(catalog, [], goal, 64, scan_countermodel) \
        == (False, (catalog[0], {0: 0, 1: 0, 2: 0, 3: 0, 4: 1}))
    valid = parse_equation("v0 | v1 | v2 | v3 | v4 = v4 | v3 | v2 | v1 | v0")
    with pytest.raises(ValueError) as scanned:
        _scan_entails(catalog, [], valid, 64, scan_countermodel)
    with pytest.raises(ValueError) as compiled:
        semantic_entails(catalog, [], valid, cap=64)
    assert str(compiled.value) == str(scanned.value) \
        == "3^5 valuations exceed cap 64; pass cap=None to force the scan"


def test_soundness_check_accepts_an_iterator(catalog3_modal):
    proof = parse_proof((PROOFS_DIR / "thm_weakening.prf").read_text())
    assert soundness_check(proof, iter(catalog3_modal))


def test_soundness_check_requires_checked_proof(catalog3_modal):
    broken = Proof((), (ProofLine(P, Ax("ax1")),))
    with pytest.raises(ValueError):
        soundness_check(broken, catalog3_modal)


def test_lddt_witnesses(catalog3_modal):
    sig = catalog3_modal[0].sig
    w = lddt_witness([], [P], ModalApp("m1", P), catalog3_modal)
    assert [(format_block(M, sig), d) for M, d in w.factors] == [("m1", P)]

    w = lddt_witness([], [P, Q], Prod(P, Q), catalog3_modal)
    assert list(w.factors) == [((), P), ((), Q)]

    w = lddt_witness([Imp(P, Q)], [P], Q, catalog3_modal)
    assert list(w.factors) == [((), P)]


def test_lddt_lambda_mode(catalog3_modal):
    w = lddt_witness([], [P], ModalApp("m1", P), catalog3_modal,
                     lambda_mode=True)
    assert w.lam_exponent == 1
    w = lddt_witness([], [P, Q], Prod(P, Q), catalog3_modal,
                     lambda_mode=True)
    assert w.lam_exponent == 0
    w = lddt_witness([Imp(P, Q)], [P], Q, catalog3_modal, lambda_mode=True)
    assert w.lam_exponent == 0


def test_lddt_attached_proof(catalog3_modal):
    # m1(v0) -> m1(v0) derived as an instance of the identity axiom
    candidate_proof = Proof(
        (), (ProofLine(Imp(ModalApp("m1", P), ModalApp("m1", P)),
                       Ax("ax1")),))
    w = lddt_witness([], [P], ModalApp("m1", P), catalog3_modal,
                     attach_proof=candidate_proof)
    assert w.attached_proof == candidate_proof
    assert "attached derivation checked" in w.certificate
    wrong = Proof((), (ProofLine(Imp(P, P), Ax("ax1")),))
    w = lddt_witness([], [P], ModalApp("m1", P), catalog3_modal,
                     attach_proof=wrong)
    assert w.attached_proof is None
    assert "REJECTED" in w.certificate


def test_lddt_bound_exhaustion_returns_none(catalog3_modal):
    # nothing in delta helps derive plain v1
    w = lddt_witness([], [P], Q, catalog3_modal,
                     block_len_bound=1, product_bound=1)
    assert w is None


def test_lambda_formula_shape(catalog3_modal):
    sig = catalog3_modal[0].sig
    assert lambda_formula(sig, P) == Prod(P, ModalApp("m1", P))


formula_strategy = st.recursive(
    st.one_of(st.integers(0, 2).map(Var),
              st.sampled_from([Const(0), Const(1)])),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: Join(*p)),
        st.tuples(inner, inner).map(lambda p: Prod(*p)),
        st.tuples(inner, inner).map(lambda p: Imp(*p)),
        inner.map(lambda t: ModalApp("m1", t))),
    max_leaves=6)


@given(formula_strategy)
@settings(max_examples=60, deadline=None)
def test_rho_tau_coherence(phi):
    # phi = 1 holds exactly when both implications of rho(phi ~ 1) do
    from ririg.catalog import catalog_build
    for A in catalog_build(3, 1).algebras():
        for v in valuations(A, variables_of(phi), cap=None):
            lhs = eval_term(A, v, phi) == A.one
            both = all(eval_term(A, v, f) == A.one
                       for f in rho(Equation(phi, Const(1))))
            assert lhs == both
