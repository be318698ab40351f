"""entail: a seeded stream of text queries over the (5, 1) catalog, read
through `catalog_load` from the shipped file.

`eval_term` does the work.  A valid query scans every valuation of every
algebra; a refuted one stops at the first countermodel.  The mix keeps
the latency median on refuted queries and the 90th percentile on full
scans, so compiled evaluation shows its cost on the first as well as its
gain on the second.

A pass answers these queries, shuffled by the seed:
- one instance of each axiom schema, its metavariables replaced by seeded
  one-connective formulas in v0 and v1 (valid: every valuation is
  scanned);
- random equations in v0..v2 that fail on some two-element algebra of the
  catalog (refuted within the first algebras);
- the proof corpus, each proof parsed, checked and checked for soundness;
- the deduction-witness cases of the acceptance suite, in block and in
  lambda mode.
"""

from __future__ import annotations

import copy
import pathlib

from ririg import catalog, logic, parsing, terms

import oracles
from common import Op, ROOT, out_dir, rng_for, unpack_catalog

REFUTED = 84

# Axiom schemas with metavariables a, b, c; m1 is the catalog's modal.
SCHEMAS = (
    "{a} -> {a}",
    "({a} -> {b}) -> (({b} -> {c}) -> ({a} -> {c}))",
    "{a} * {b} -> {a}",
    "{a} * {b} -> {b} * {a}",
    "({a} * {b} -> {c}) -> ({b} -> ({a} -> {c}))",
    "({b} -> ({a} -> {c})) -> ({a} * {b} -> {c})",
    "{a} -> {a} | {b}",
    "{b} -> {a} | {b}",
    "{a} * ({b} | {c}) -> {a} * {b} | {a} * {c}",
    "bot -> {a}",
    "m1(top) -> top",
    "m1({a} -> {b}) -> (m1({a}) -> m1({b}))",
)

# (hypotheses, delta, goal), as in the acceptance suite
LDDT_CASES = (
    ((), ("v0",), "m1(v0)"),
    ((), ("v0", "v1"), "v0 * v1"),
    (("v0 -> v1",), ("v0",), "v1"),
)


def _atom(rng):
    """A formula in v0 and v1 with one binary connective, so that every
    instance of a schema has the same size and the same valuations."""
    x, y = rng.choice((("v0", "v1"), ("v1", "v0")))
    return f"({x} {rng.choice(('|', '*', '->'))} {y})"


def _schema_instance(schema, rng):
    return schema.format(a=_atom(rng), b=_atom(rng), c=_atom(rng)) + " = 1"


def _formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(("v0", "v1", "v2", "v0", "v1", "0", "1"))
    op = rng.choice(("|", "*", "->", "m1"))
    if op == "m1":
        return f"m1({_formula(rng, depth - 1)})"
    return f"({_formula(rng, depth - 1)} {op} {_formula(rng, depth - 1)})"


def _refuted_equation(rng, small):
    """A random equation that some two-element algebra refutes."""
    while True:
        text = f"{_formula(rng, 2)} = {_formula(rng, 2)}"
        eq = parsing.parse_equation(text)
        if any(oracles.fails_somewhere(A, eq) for A in small):
            return text


def setup(seed):
    path = unpack_catalog((5, 1), out_dir("entail"))
    algebras = catalog.catalog_load(path).algebras()
    small = [A for A in algebras if A.size == 2]
    corpus = sorted((p.name, p.read_text())
                    for p in pathlib.Path(ROOT, "proofs").glob("*.prf"))
    rng = rng_for(seed, "entail")
    queries = [("valid", _schema_instance(s, rng)) for s in SCHEMAS]
    queries += [("refuted", _refuted_equation(rng, small))
                for _ in range(REFUTED)]
    queries += [("corpus", text) for _, text in corpus]
    queries += [("lddt", (case, mode)) for case in LDDT_CASES
                for mode in ("blocks", "lambda")]
    rng.shuffle(queries)
    return {"algebras": algebras, "queries": queries}


def _entails(algebras, text):
    eq = parsing.parse_equation(text)
    return eq, logic.semantic_entails(algebras, [], eq)


def _corpus(algebras, text):
    proof = logic.parse_proof(text)
    return logic.check_proof(proof).ok, logic.soundness_check(proof, algebras)


def _lddt(algebras, case, mode):
    gamma, delta, goal = case
    gamma = [parsing.parse_formula(t) for t in gamma]
    delta = [parsing.parse_formula(t) for t in delta]
    goal = parsing.parse_formula(goal)
    if mode == "lambda":
        return logic.lddt_witness(gamma, delta, goal, algebras,
                                  lambda_mode=True, product_bound=2,
                                  max_exponent=1)
    return logic.lddt_witness(gamma, delta, goal, algebras,
                              block_len_bound=2, product_bound=2)


def _op(algebras, kind, query):
    if kind == "valid":
        return Op(kind, lambda: _entails(algebras, query),
                  lambda result: result[1][0] is True)
    if kind == "refuted":
        def check(result):
            eq, (holds, countermodel) = result
            if holds or countermodel is None:
                return False
            A, valuation = countermodel
            return (terms.eval_term(A, valuation, eq.lhs)
                    != terms.eval_term(A, valuation, eq.rhs)
                    and oracles.refutes(A, eq, valuation))
        return Op(kind, lambda: _entails(algebras, query), check)
    if kind == "corpus":
        return Op(kind, lambda: _corpus(algebras, query),
                  lambda result: result == (True, True))
    case, mode = query
    return Op(f"lddt-{mode}", lambda: _lddt(algebras, case, mode),
              lambda w: w is not None and (mode == "blocks"
                                           or w.lam_exponent <= 1))


def ops(state, p):
    """One pass: every query, over fresh copies of the algebras."""
    algebras = copy.deepcopy(state["algebras"])
    return [_op(algebras, kind, query) for kind, query in state["queries"]]
