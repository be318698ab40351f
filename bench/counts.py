"""Work counts taken at traced boundaries, from each call's inputs and
result.  The tracer runs these after the measured phase."""

from __future__ import annotations

from oracles import variables


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def entails_valuations(args, kwargs, result):
    """Valuations `semantic_entails` scanned: every valuation of every
    algebra when the entailment holds, else those up to and including the
    countermodel, in catalog order and lexicographic order."""
    catalog = _arg(args, kwargs, 0, "catalog")
    premises = _arg(args, kwargs, 1, "premises")
    goal = _arg(args, kwargs, 2, "goal")
    names = set()
    for eq in list(premises) + [goal]:
        names |= variables(eq.lhs) | variables(eq.rhs)
    k = len(names)
    holds, countermodel = result
    if holds:
        return {"logic.valuations": sum(A.size ** k for A in catalog)}
    found, valuation = countermodel
    total = 0
    for A in catalog:
        if A is found:
            break
        total += A.size ** k
    position = 0
    for var in sorted(names):
        position = position * found.size + valuation[var]
    return {"logic.valuations": total + position + 1}


def kary_tuple_pairs(args, kwargs, result):
    """Tuple pairs `compat_witness_kary` examined, up to and including the
    failing pair its report names (pairs run in row-major order)."""
    A = _arg(args, kwargs, 0, "A")
    f = _arg(args, kwargs, 1, "f")
    per_side = A.size ** f.arity
    if result.compatible is not False:
        return {"compat.tuple_pairs": per_side * per_side}
    (a, b), = result.failing
    index = 0
    for x in a + b:
        index = index * A.size + x
    return {"compat.tuple_pairs": index + 1}


HOOKS = {
    "logic.semantic_entails": entails_valuations,
    "compat.compat_witness_kary": kary_tuple_pairs,
}
