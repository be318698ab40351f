"""Independent answers the benchmark checks the program against.

Everything here is brute force written from the definitions, and shares no
code with the `ririg` package: algebras are read only through their tables
(`size`, `join`, `prod`, `imp`, `zero`, `one`, `modal_tables`, `sig.names`)
and terms only through the fields of the term dataclasses.
"""

from __future__ import annotations

import itertools


def leq(A, a, b):
    return A.join[a][b] == b


def star(A, a, b):
    return A.prod[A.imp[a][b]][A.imp[b][a]]


def apply_block(A, block, x):
    """A block word applies its rightmost letter first."""
    for i in reversed(block):
        x = A.modal_tables[i][x]
    return x


def contraction(A, x):
    """x times each of its modal images."""
    out = x
    for t in A.modal_tables:
        out = A.prod[out][t[x]]
    return out


# ---------------------------------------------------------------------------
# congruences by scanning every partition

def _partitions(n):
    """Restricted-growth strings, relabelled by the least class member."""
    def rec(prefix, top):
        if len(prefix) == n:
            first = {}
            for i, c in enumerate(prefix):
                first.setdefault(c, i)
            yield tuple(first[c] for c in prefix)
            return
        for c in range(top + 2):
            yield from rec(prefix + [c], max(top, c))
    yield from rec([0], 0)


def _preserved(A, part):
    n = A.size
    tables = (A.join, A.prod, A.imp)
    for a in range(n):
        for b in range(a + 1, n):
            if part[a] != part[b]:
                continue
            for t in A.modal_tables:
                if part[t[a]] != part[t[b]]:
                    return False
            for T in tables:
                for c in range(n):
                    if part[T[a][c]] != part[T[b][c]] \
                            or part[T[c][a]] != part[T[c][b]]:
                        return False
    return True


def congruences(A):
    return [p for p in _partitions(A.size) if _preserved(A, p)]


def finer(A, s, t):
    return all(t[a] == t[b] for a in range(A.size) for b in range(A.size)
               if s[a] == s[b])


def filters_of(A, congs):
    """A filter is the class of 1 of a congruence."""
    return {frozenset(x for x in range(A.size) if c[x] == c[A.one])
            for c in congs}


def least_filter(A, filters, X):
    """The least of the given filters that contains X."""
    least = frozenset(range(A.size))
    for F in filters:
        if X <= F:
            least &= F
    return least


def simple_and_si(A, congs):
    """Simple: exactly two congruences.  SI: the non-identity congruences
    have a least member (the monolith)."""
    identity = tuple(range(A.size))
    nontrivial = [c for c in congs if c != identity]
    si = any(all(finer(A, m, c) for c in nontrivial) for m in nontrivial)
    return len(congs) == 2, si


def in_chain_variety(A):
    """Contractive, prelinear, and m(a v b) <= m(a) v m(b) for every m."""
    n, J, I = A.size, A.join, A.imp
    contractive = all(leq(A, t[x], x)
                      for t in A.modal_tables for x in range(n))
    prelinear = all(J[I[a][b]][I[b][a]] == A.one
                    for a in range(n) for b in range(n))
    subdist = all(leq(A, t[J[a][b]], J[t[a]][t[b]])
                  for t in A.modal_tables for a in range(n) for b in range(n))
    return contractive and prelinear and subdist


# ---------------------------------------------------------------------------
# terms

def evaluate(A, t, env):
    kind = type(t).__name__
    if kind == "Var":
        return env[t.index]
    if kind == "Const":
        return A.one if t.which else A.zero
    if kind == "ModalApp":
        table = A.modal_tables[A.sig.names.index(t.name)]
        return table[evaluate(A, t.arg, env)]
    table = {"Join": A.join, "Prod": A.prod, "Imp": A.imp}[kind]
    return table[evaluate(A, t.lhs, env)][evaluate(A, t.rhs, env)]


def variables(t):
    kind = type(t).__name__
    if kind == "Var":
        return {t.index}
    if kind == "Const":
        return set()
    if kind == "ModalApp":
        return variables(t.arg)
    return variables(t.lhs) | variables(t.rhs)


def refutes(A, eq, env):
    return evaluate(A, eq.lhs, env) != evaluate(A, eq.rhs, env)


def fails_somewhere(A, eq):
    """Whether some valuation of A refutes the equation."""
    vs = sorted(variables(eq.lhs) | variables(eq.rhs))
    return any(refutes(A, eq, dict(zip(vs, combo)))
               for combo in itertools.product(range(A.size), repeat=len(vs)))


# ---------------------------------------------------------------------------
# compatible functions

def compatible(A, k, table, congs):
    """Every congruence is preserved by every unary section of f; checking
    sections slot by slot suffices by transitivity of the congruence."""
    n = A.size
    for part in congs:
        for slot in range(k):
            stride = n ** (k - 1 - slot)
            for anchor in range(n ** k):
                if anchor // stride % n:
                    continue  # sections are indexed by slot value 0
                for a in range(n):
                    for b in range(a + 1, n):
                        if part[a] == part[b] and \
                                part[table[anchor + a * stride]] != \
                                part[table[anchor + b * stride]]:
                            return False
    return True


def apply(A, table, args):
    """Value of a function given by its row-major table."""
    index = 0
    for x in args:
        index = index * A.size + x
    return table[index]


def blocks_witness_replays(A, table, a, b, factors):
    """Product of block values of the slot stars lies below the star of
    the outputs."""
    target = star(A, apply(A, table, a), apply(A, table, b))
    value = A.one
    for block, slot in factors:
        factor = apply_block(A, block, star(A, a[slot], b[slot]))
        value = A.prod[value][factor]
    return leq(A, value, target)


def lambda_witness_replays(A, table, a, b, witness):
    """Power product of the exponent-l contraction iterates of the slot
    stars lies below the star of the outputs."""
    exponent, slots = witness
    target = star(A, apply(A, table, a), apply(A, table, b))
    level = [star(A, x, y) for x, y in zip(a, b)]
    for _ in range(exponent):
        level = [contraction(A, v) for v in level]
    value = A.one
    for slot in slots:
        value = A.prod[value][level[slot]]
    return leq(A, value, target)
