"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  Every check is exact: discrete equalities
against brute-force oracles, no tolerances."""

import itertools
import random
import time
import zlib

from ririg.compat import DEFAULT_SEED, all_unary_functions, \
    compat_witness_kary, compat_witness_lambda, is_compatible_direct, \
    laf_representation, random_function
from ririg.filters import all_congruences_direct, all_ifilters, cep_check, \
    filter_from_theta, generate_filter, generate_filter_blocks_stabilized, \
    generate_filter_lambda, is_simple, is_subdirectly_irreducible, \
    theta_from_filter
from ririg.logic import MODAL_SCHEMAS, SCHEMAS, _modal_schema_patterns, \
    check_proof, instantiate, lddt_witness, parse_proof, soundness_check
from ririg.terms import Const, Equation, Imp, Join, ModalApp, Prod, \
    Program, Var, eval_term, in_chain_variety, is_chain, variables_of
from ririg.catalog import enumerate_ririgs, canonical_form

import pathlib

PROOFS_DIR = pathlib.Path(__file__).resolve().parents[1] / "proofs"


def _finish(num, label, start, violations):
    status = "PASS" if not violations else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{label}]: {status} "
          f"({time.time() - start:.1f}s)")
    assert not violations, violations[:3]


# --- criterion 1: the fourteen residuation laws -----------------------------

def _law_violations(A):
    n, imp, prod, join, one = A.size, A.imp, A.prod, A.join, A.one
    le = lambda x, y: join[x][y] == y
    out = []
    for a in range(n):
        if imp[a][one] != one:
            out.append((A, 1, a))
        if imp[one][a] != a:
            out.append((A, 2, a))
        if imp[a][a] != one:
            out.append((A, 3, a))
        for b in range(n):
            if not le(prod[a][imp[a][b]], b):
                out.append((A, 4, a, b))
            if not le(a, imp[imp[a][b]][b]):
                out.append((A, 6, a, b))
            if not le(a, imp[b][a]):
                out.append((A, 10, a, b))
            if imp[a][b] != imp[imp[imp[a][b]][b]][b]:
                out.append((A, 13, a, b))
            if le(a, b) != (imp[a][b] == one):
                out.append((A, 14, a, b))
            for c in range(n):
                if not le(imp[a][b], imp[prod[a][c]][prod[b][c]]):
                    out.append((A, 5, a, b, c))
                if le(a, b) and not (le(imp[c][a], imp[c][b])
                                     and le(imp[b][c], imp[a][c])):
                    out.append((A, 7, a, b, c))
                if not (imp[a][imp[b][c]] == imp[prod[a][b]][c]
                        == imp[b][imp[a][c]]):
                    out.append((A, 8, a, b, c))
                if le(a, imp[b][c]) != le(b, imp[a][c]):
                    out.append((A, 9, a, b, c))
                if not le(imp[a][b], imp[imp[c][a]][imp[c][b]]):
                    out.append((A, 11, a, b, c))
                if not le(imp[a][b], imp[imp[b][c]][imp[a][c]]):
                    out.append((A, 12, a, b, c))
    return out


def test_criterion_01_ririg_laws(catalog4):
    start = time.time()
    violations = []
    for A in catalog4:
        violations += _law_violations(A)
    _finish(1, "ririg law suite", start, violations)


# --- criterion 2: filter/congruence isomorphism ------------------------------

def test_criterion_02_filter_congruence_isomorphism(catalog4):
    start = time.time()
    violations = []
    for A in catalog4:
        filters = all_ifilters(A)
        congruences = all_congruences_direct(A)
        if len(filters) != len(congruences):
            violations.append(("count", A))
        for F in filters:
            if filter_from_theta(A, theta_from_filter(A, F)) != F:
                violations.append(("filter roundtrip", A, F))
        for th in congruences:
            if theta_from_filter(A, filter_from_theta(A, th)) != th:
                violations.append(("congruence roundtrip", A, th))
    _finish(2, "filter/congruence isomorphism", start, violations)


# --- criterion 3: generation agreement ---------------------------------------

def test_criterion_03_generation_agreement(catalog4):
    start = time.time()
    violations = []
    for A in catalog4:
        for mask in range(1 << A.size):
            X = {i for i in range(A.size) if mask >> i & 1}
            expected = generate_filter(A, X)
            if generate_filter_blocks_stabilized(A, X) != expected:
                violations.append(("blocks", A, X))
            if generate_filter_lambda(A, X) != expected:
                violations.append(("lambda", A, X))
    _finish(3, "generation agreement", start, violations)


# --- criterion 4: simplicity / subdirect irreducibility ----------------------

def test_criterion_04_simple_si_against_oracle(catalog4):
    start = time.time()
    violations = []
    for A in catalog4:
        if A.size < 2:
            continue
        congruences = all_congruences_direct(A)
        if is_simple(A)[0] != (len(congruences) == 2):
            violations.append(("simple", A))
        nontrivial = [th for th in congruences if len(set(th)) < A.size]
        finer = lambda s, t: all((s[a] == s[b]) <= (t[a] == t[b])
                                 for a in range(A.size)
                                 for b in range(A.size))
        has_monolith = bool(nontrivial) and any(
            all(finer(m, th) for th in nontrivial) for m in nontrivial)
        if is_subdirectly_irreducible(A)[0] != has_monolith:
            violations.append(("si", A))
    _finish(4, "simplicity and subdirect irreducibility", start, violations)


# --- criterion 5: the chain-generated subvariety ------------------------------

def test_criterion_05_chain_variety(catalog4):
    start = time.time()
    violations = []
    members = [A for A in catalog4 if in_chain_variety(A)]
    for A in members:
        if A.size >= 2 and is_subdirectly_irreducible(A)[0] \
                and not is_chain(A):
            violations.append(("si member is not a chain", A))
        singles = [generate_filter(A, {a}) for a in range(A.size)]
        for a in range(A.size):
            for b in range(A.size):
                if generate_filter(A, {A.join[a][b]}) != \
                        singles[a] & singles[b]:
                    violations.append(("fg intersection", A, a, b))
    _finish(5, "chain-generated subvariety", start, violations)


# --- criterion 6: compatibility equivalence ----------------------------------

def test_criterion_06_compat_equivalence(catalog4):
    start = time.time()
    violations = []
    size3 = [A for A in catalog4 if A.size == 3]
    for index, A in enumerate(size3):
        for f in all_unary_functions(3):
            d = is_compatible_direct(A, f).compatible
            b = compat_witness_kary(A, f, with_witnesses=False).compatible
            l = compat_witness_lambda(A, f, with_witnesses=False).compatible
            if not d == b == l:
                violations.append((A, f, d, b, l))
        rng = random.Random(DEFAULT_SEED + index)
        for _ in range(10_000):
            f = random_function(3, 2, rng)
            d = is_compatible_direct(A, f).compatible
            b = compat_witness_kary(A, f, with_witnesses=False).compatible
            l = compat_witness_lambda(A, f, with_witnesses=False).compatible
            if not d == b == l:
                violations.append((A, f, d, b, l))
    _finish(6, "compatibility equivalence", start, violations)


# --- criterion 7: local join representation ----------------------------------

def test_criterion_07_local_affine_completeness(catalog4):
    start = time.time()
    violations = []
    size3 = [A for A in catalog4 if A.size == 3]
    for A in size3:
        universe = [(x,) for x in range(3)]
        for f in all_unary_functions(3):
            if not is_compatible_direct(A, f).compatible:
                continue
            rep = laf_representation(A, f, universe)
            if not rep.verified:
                violations.append((A, f))
    _finish(7, "local join representation", start, violations)


# --- criterion 8: proof corpus -----------------------------------------------

def test_criterion_08_proof_corpus(catalog3):
    start = time.time()
    violations = []
    modal_catalog = [A for A in catalog3 if A.sig.names]
    for name in ("top.prf", "nec_example.prf", "thm_to_top.prf",
                 "thm_weakening.prf", "thm_prod_monotone.prf",
                 "thm_prod_assoc.prf"):
        proof = parse_proof((PROOFS_DIR / name).read_text())
        result = check_proof(proof)
        if not result.ok:
            violations.append((name, result))
            continue
        if not soundness_check(proof, modal_catalog):
            violations.append((name, "soundness"))
    _finish(8, "proof corpus", start, violations)


# --- criterion 9: soundness gate ----------------------------------------------

def _random_formula(rng, depth, allow_modal):
    roll = rng.randrange(8 if depth > 0 else 3)
    if roll == 0:
        return Var(rng.randrange(2))
    if roll == 1:
        return Const(rng.randrange(2))
    if roll == 2:
        return Var(rng.randrange(2))
    if roll in (3, 4):
        return Join(_random_formula(rng, depth - 1, allow_modal),
                    _random_formula(rng, depth - 1, allow_modal)) \
            if roll == 3 else \
            Prod(_random_formula(rng, depth - 1, allow_modal),
                 _random_formula(rng, depth - 1, allow_modal))
    if roll == 5:
        return Imp(_random_formula(rng, depth - 1, allow_modal),
                   _random_formula(rng, depth - 1, allow_modal))
    if roll == 6 and allow_modal:
        return ModalApp("m1", _random_formula(rng, depth - 1, allow_modal))
    return Var(rng.randrange(2))


def _schema_patterns():
    for name in SCHEMAS:
        yield name, SCHEMAS[name], False
    for name in MODAL_SCHEMAS:
        yield name, _modal_schema_patterns(name, "m1"), True


def _soundness_cases(catalog4, draws=1000):
    """Per schema: its name, the algebras it is checked on, each pattern
    instantiated with one fresh variable per metavariable, and `draws`
    seeded draws, each (binding, instances, one valuation per algebra)."""
    modal_catalog = [A for A in catalog4 if A.sig.names]
    metavars = ("phi", "psi", "chi")
    for schema_name, patterns, needs_modal in _schema_patterns():
        rng = random.Random(DEFAULT_SEED
                            ^ zlib.crc32(schema_name.encode()) & 0xffff)
        algebras = modal_catalog if needs_modal else catalog4
        fresh = []
        for pattern in patterns:
            names = sorted({m.name for m in _metas_of(pattern)})
            fresh.append(instantiate(
                pattern, {nm: Var(100 + i) for i, nm in enumerate(names)}))
        seeded = []
        for _ in range(draws):
            binding = {nm: _random_formula(rng, 2, needs_modal)
                       for nm in metavars}
            instances = [instantiate(p, binding) for p in patterns]
            variables = set()
            for inst in instances:
                variables |= variables_of(inst)
            valuations = [{v: rng.randrange(A.size) for v in variables}
                          for A in algebras]
            seeded.append((binding, instances, valuations))
        yield schema_name, algebras, fresh, seeded


def _seeded_values(algebras, seeded, with_bindings=False):
    """(algebra index, draw index, term, value) for every instance of
    every seeded draw, and with_bindings every formula of its binding whose
    variables the valuations cover too, at its algebra's valuation, read
    from the columns of one program compiled over all the draws.  The
    columns depend only on the tables the program reads, so algebras that
    agree on those share them."""
    terms = [instances + [f for f in binding.values() if with_bindings
                          and variables_of(f) <= valuations[0].keys()]
             for binding, instances, valuations in seeded]
    program = Program([Equation(t, Const(1)) for ts in terms for t in ts],
                      Equation(Const(1), Const(1)))
    premises = iter(program.premises)
    slots = [[next(premises)[0] for _ in ts] for ts in terms]
    names = sorted(program.modal_names)
    columns = {}
    for k, A in enumerate(algebras):
        key = (A.size, A.join, A.prod, A.imp, A.zero, A.one,
               tuple(A.modal(name) for name in names))
        if key not in columns:
            columns[key] = program._columns(A)
        cols = columns[key]
        for d, (_, _, valuations) in enumerate(seeded):
            # a term does not read a variable its valuation lacks
            index = 0
            for v in program.variables:
                index = index * A.size + valuations[k].get(v, 0)
            for term, slot in zip(terms[d], slots[d]):
                yield k, d, term, cols[slot][index]


def test_criterion_09_soundness_gate(catalog4):
    start = time.time()
    violations = []
    modal_catalog = [A for A in catalog4 if A.sig.names]
    for schema_name, algebras, fresh, seeded in _soundness_cases(catalog4):
        # complete value-level validity once per algebra: every valuation
        # of each fresh instance, through its compiled program
        for formula in fresh:
            program = Program((), Equation(formula, Const(1)))
            for A in algebras:
                countermodel = program.countermodel(A, None)
                if countermodel is not None:
                    violations.append((schema_name, A, countermodel))
        # seeded random instantiations, one valuation per draw per algebra
        for k, d, _, value in _seeded_values(algebras, seeded):
            if value != algebras[k].one:
                violations.append((schema_name, algebras[k], seeded[d][0]))
    # rules preserve the unit, completely and on random draws
    for A in catalog4:
        n, imp, join = A.size, A.imp, A.join
        for x in range(n):
            for y in range(n):
                if x == A.one and imp[x][y] == A.one and y != A.one:
                    violations.append(("mp-values", A, x, y))
                for z in range(n):
                    if imp[x][z] == A.one and imp[y][z] == A.one \
                            and imp[join[x][y]][z] != A.one:
                        violations.append(("vel-values", A, x, y, z))
        for t in A.modal_tables:
            if t[A.one] != A.one:
                violations.append(("nec-values", A))
    rng = random.Random(DEFAULT_SEED)
    for _ in range(1000):
        A = modal_catalog[rng.randrange(len(modal_catalog))]
        phi = _random_formula(rng, 2, True)
        psi = _random_formula(rng, 2, True)
        chi = _random_formula(rng, 2, True)
        variables = variables_of(phi) | variables_of(psi) | variables_of(chi)
        valuation = {v: rng.randrange(A.size) for v in variables}
        ev = lambda t: eval_term(A, valuation, t)
        if ev(Imp(phi, psi)) == A.one and ev(phi) == A.one \
                and ev(psi) != A.one:
            violations.append(("mp", A, valuation))
        if ev(phi) == A.one and ev(ModalApp("m1", phi)) != A.one:
            violations.append(("nec", A, valuation))
        if ev(Imp(phi, chi)) == A.one and ev(Imp(psi, chi)) == A.one \
                and ev(Imp(Join(phi, psi), chi)) != A.one:
            violations.append(("vel", A, valuation))
    _finish(9, "soundness gate", start, violations)


def test_soundness_program_matches_eval_term(catalog4):
    # acceptance 09 reads its values from terms.Program; here the same
    # instances are evaluated by eval_term: the fresh instances on every
    # valuation, and the first 25 seeded draws of each schema, with the
    # formulas of their bindings, whose values, unlike those of the
    # instances, are not all 1
    for _, algebras, fresh, seeded in _soundness_cases(catalog4, draws=25):
        for formula in fresh:
            program = Program((), Equation(formula, Const(1)))
            for A in algebras:
                expected = [eval_term(A, dict(zip(program.variables, combo)),
                                      formula)
                            for combo in itertools.product(
                                range(A.size), repeat=len(program.variables))]
                assert program._columns(A)[program.goal[0]] == expected
        for k, d, term, value in _seeded_values(algebras, seeded,
                                                with_bindings=True):
            assert value == eval_term(algebras[k], seeded[d][2][k], term)


def _metas_of(pattern):
    from ririg.logic import Meta
    match pattern:
        case Meta(_):
            return [pattern]
        case Var(_) | Const(_):
            return []
        case Join(l, r) | Prod(l, r) | Imp(l, r):
            return _metas_of(l) + _metas_of(r)
        case ModalApp(_, a):
            return _metas_of(a)
    raise TypeError


# --- criterion 10: deduction witnesses ----------------------------------------

def test_criterion_10_lddt_witnesses(catalog3):
    start = time.time()
    violations = []
    catalog = [A for A in catalog3 if A.sig.names]
    p, q = Var(0), Var(1)
    cases = [
        ([], [p], ModalApp("m1", p)),
        ([], [p, q], Prod(p, q)),
        ([Imp(p, q)], [p], q),
    ]
    for gamma, delta, goal in cases:
        w = lddt_witness(gamma, delta, goal, catalog,
                         block_len_bound=2, product_bound=2)
        if w is None:
            violations.append(("blocks", goal))
        wl = lddt_witness(gamma, delta, goal, catalog, lambda_mode=True,
                          product_bound=2, max_exponent=1)
        if wl is None or wl.lam_exponent > 1:
            violations.append(("lambda", goal))
    _finish(10, "local deduction witnesses", start, violations)


# --- criterion 11: congruence extension ----------------------------------------

def test_criterion_11_cep(catalog4):
    start = time.time()
    violations = []
    for A in catalog4:
        ok, counterexample = cep_check(A)
        if not ok:
            violations.append((A, counterexample))
    _finish(11, "congruence extension property", start, violations)


# --- criterion 12: enumeration sanity -------------------------------------------

def test_criterion_12_enumeration_sanity():
    start = time.time()
    violations = []
    if len(enumerate_ririgs(1)) != 1:
        violations.append("size 1")
    if len(enumerate_ririgs(2)) != 1:
        violations.append("size 2")
    from test_catalog import naive_enumerate_size3
    naive = set(naive_enumerate_size3())
    pruned = {canonical_form(A) for A in enumerate_ririgs(3)}
    if naive != pruned:
        violations.append("size 3 mismatch with the naive scan")
    _finish(12, "enumeration sanity", start, violations)
