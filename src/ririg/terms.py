"""Terms over the algebra signature, equation checking, and the equational
classification used for the chain-generated subvariety."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

from .core import Algebra, ModalSignature
from .modal import Block, apply_block

DEFAULT_VALUATION_CAP = 256


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    which: int  # 0 or 1

    def __post_init__(self):
        if self.which not in (0, 1):
            raise ValueError("constants are 0 and 1")


@dataclass(frozen=True)
class Join:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Prod:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Imp:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class ModalApp:
    name: str
    arg: "Term"


Term = Union[Var, Const, Join, Prod, Imp, ModalApp]

BOT = Const(0)
TOP = Imp(BOT, BOT)  # derived abbreviation, not a distinct constant


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


def variables_of(t: Term) -> set[int]:
    match t:
        case Var(i):
            return {i}
        case Const(_):
            return set()
        case Join(l, r) | Prod(l, r) | Imp(l, r):
            return variables_of(l) | variables_of(r)
        case ModalApp(_, a):
            return variables_of(a)
    raise TypeError(f"not a term: {t!r}")


def modal_names_of(t: Term) -> set[str]:
    match t:
        case Var(_) | Const(_):
            return set()
        case Join(l, r) | Prod(l, r) | Imp(l, r):
            return modal_names_of(l) | modal_names_of(r)
        case ModalApp(name, a):
            return {name} | modal_names_of(a)
    raise TypeError(f"not a term: {t!r}")


def eval_term(A: Algebra, valuation: dict[int, int], t: Term) -> int:
    match t:
        case Var(i):
            try:
                return valuation[i]
            except KeyError:
                raise KeyError(f"unbound variable v{i}") from None
        case Const(w):
            return A.zero if w == 0 else A.one
        case Join(l, r):
            return A.join[eval_term(A, valuation, l)][eval_term(A, valuation, r)]
        case Prod(l, r):
            return A.prod[eval_term(A, valuation, l)][eval_term(A, valuation, r)]
        case Imp(l, r):
            return A.imp[eval_term(A, valuation, l)][eval_term(A, valuation, r)]
        case ModalApp(name, a):
            return A.modal(name)[eval_term(A, valuation, a)]
    raise TypeError(f"not a term: {t!r}")


def valuations(A: Algebra, variables, cap: int | None = DEFAULT_VALUATION_CAP):
    """All assignments for the given variables in lexicographic order."""
    vs = sorted(variables)
    if cap is not None and A.size ** len(vs) > cap:
        raise ValueError(
            f"{A.size}^{len(vs)} valuations exceed cap {cap}; "
            "pass cap=None to force the scan")
    for combo in itertools.product(range(A.size), repeat=len(vs)):
        yield dict(zip(vs, combo))


def holds(A: Algebra, eq: Equation, cap: int | None = DEFAULT_VALUATION_CAP):
    """Exhaustive equation check; returns (True, None) or (False, v) with
    the first failing valuation in lexicographic order."""
    vars_ = variables_of(eq.lhs) | variables_of(eq.rhs)
    for v in valuations(A, vars_, cap):
        if eval_term(A, v, eq.lhs) != eval_term(A, v, eq.rhs):
            return False, v
    return True, None


def is_chain(A: Algebra) -> bool:
    return all(A.leq(a, b) or A.leq(b, a)
               for a in range(A.size) for b in range(A.size))


def is_contractive(A: Algebra) -> bool:
    """Every modal table sits below the identity pointwise.  Independent of
    modal validity, so it also classifies broken tables."""
    return all(A.leq(t[x], x) for t in A.modal_tables for x in range(A.size))


def satisfies_prelinearity(A: Algebra) -> bool:
    """(a -> b) v (b -> a) = 1 for all pairs."""
    return all(A.join[A.imp[a][b]][A.imp[b][a]] == A.one
               for a in range(A.size) for b in range(A.size))


def satisfies_join_subdistribution(A: Algebra, name: str) -> bool:
    """m(a v b) <= m(a) v m(b) for all pairs."""
    t = A.modal(name)
    return all(A.leq(t[A.join[a][b]], A.join[t[a]][t[b]])
               for a in range(A.size) for b in range(A.size))


def in_chain_variety(A: Algebra) -> bool:
    """Membership in the equationally-defined class generated by chains:
    contractive, prelinear, and join-subdistributive for every modal."""
    return (is_contractive(A)
            and satisfies_prelinearity(A)
            and all(satisfies_join_subdistribution(A, name)
                    for name in A.sig.names))


def join_splitting_block(sig: ModalSignature, M: Block, N: Block) -> Block:
    """A block Q with Q(x v y) <= M(x) v N(y) on every contractive,
    prelinear, join-subdistributive algebra over `sig`.

    Purely syntactic: peel letters off M, then off N, down to the one-letter
    base cases (doubling the surviving letter of M against a letter of N).
    """
    for i in M + N:
        if not 0 <= i < len(sig):
            raise ValueError("block letter outside signature")
    if len(M) > 1:
        return (M[0],) + join_splitting_block(sig, M[1:], N)
    if len(N) > 1:
        return (N[0],) + join_splitting_block(sig, M, N[1:])
    if not M and not N:
        return ()
    if not M:  # Q(x v y) <= x v n(y): doubled letter does it
        return (N[0], N[0])
    if not N:
        return (M[0], M[0])
    return (M[0], M[0], N[0])


def verify_join_splitting(A: Algebra, M: Block, N: Block) -> bool:
    """Semantic check of the defining inequality of join_splitting_block."""
    Q = join_splitting_block(A.sig, M, N)
    return all(
        A.leq(apply_block(A, Q, A.join[x][y]),
              A.join[apply_block(A, M, x)][apply_block(A, N, y)])
        for x in range(A.size) for y in range(A.size))


def fg_intersection_check(A: Algebra):
    """Fg(a v b) = Fg(a) & Fg(b) for all pairs; only meaningful inside the
    chain-generated class, hence the refusal."""
    from .filters import generate_filter

    if not in_chain_variety(A):
        raise ValueError("algebra is not contractive/prelinear/"
                         "join-subdistributive; law not applicable")
    singles = [generate_filter(A, {a}) for a in range(A.size)]
    for a in range(A.size):
        for b in range(A.size):
            joined = generate_filter(A, {A.join[a][b]})
            if joined != singles[a] & singles[b]:
                return False, (a, b)
    return True, None
