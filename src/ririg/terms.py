"""Terms over the algebra signature, equation checking, and the equational
classification used for the chain-generated subvariety.

`eval_term` evaluates one term under one valuation.  Exhaustive checks go
through `Program`, which compiles equations once into a straight-line
program and runs it on an algebra over every valuation at once, in the
order of `valuations`, so its first countermodel is the first that a scan
with `eval_term` over `valuations` meets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import eq as _eq, getitem, ne as _ne
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


def _check_cap(size: int, count: int, cap: int | None) -> None:
    """Refuse a scan of size^count valuations above `cap` (None: no cap)."""
    if cap is not None and size ** count > cap:
        raise ValueError(
            f"{size}^{count} valuations exceed cap {cap}; "
            "pass cap=None to force the scan")


def valuations(A: Algebra, variables, cap: int | None = DEFAULT_VALUATION_CAP):
    """All assignments for the given variables in lexicographic order."""
    vs = sorted(variables)
    _check_cap(A.size, len(vs), cap)
    for combo in itertools.product(range(A.size), repeat=len(vs)):
        yield dict(zip(vs, combo))


class Program:
    """Premise equations and a goal equation, compiled once for any algebra.

    Each instruction is one distinct subterm, keyed by its operator and the
    slots of its arguments, so equal subterms share one slot.  Running the
    program on an algebra gives every slot a column: its value under each
    valuation of `variables`, in the order of `valuations`.
    """

    def __init__(self, premises, goal: Equation):
        self._slots: dict[tuple, int] = {}
        self.modal_names: set[str] = set()
        self.premises = [self._equation(e) for e in premises]
        self.goal = self._equation(goal)
        self.variables = tuple(sorted(i for op, i, _ in self._slots
                                      if op == "var"))
        position = {v: p for p, v in enumerate(self.variables)}
        self._code = tuple((op, position[x], y) if op == "var" else (op, x, y)
                           for op, x, y in self._slots)

    def _equation(self, e: Equation) -> tuple[int, int]:
        return self._slot(e.lhs), self._slot(e.rhs)

    def _slot(self, t: Term) -> int:
        match t:
            case Var(i):
                key = ("var", i, None)
            case Const(w):
                key = ("const", w, None)
            case Join(l, r):
                key = ("join", self._slot(l), self._slot(r))
            case Prod(l, r):
                key = ("prod", self._slot(l), self._slot(r))
            case Imp(l, r):
                key = ("imp", self._slot(l), self._slot(r))
            case ModalApp(name, a):
                key = ("modal", name, self._slot(a))
                self.modal_names.add(name)
            case _:
                raise TypeError(f"not a term: {t!r}")
        return self._slots.setdefault(key, len(self._slots))

    def _columns(self, A: Algebra) -> list:
        """Every slot's values in A over all size^k valuations."""
        n = A.size
        by_position = list(map(list, zip(*itertools.product(
            range(n), repeat=len(self.variables)))))
        cols = []
        for op, x, y in self._code:
            if op == "var":
                col = by_position[x]
            elif op == "const":
                col = [A.zero if x == 0 else A.one] * n ** len(self.variables)
            elif op == "modal":
                col = list(map(A.modal(x).__getitem__, cols[y]))
            else:  # "join", "prod" and "imp" name the algebra's tables
                col = list(map(getitem, map(getattr(A, op).__getitem__,
                                            cols[x]), cols[y]))
            cols.append(col)
        return cols

    def countermodel(self, A: Algebra, cap: int | None
                     ) -> dict[int, int] | None:
        """The first valuation in lexicographic order under which every
        premise holds in A and the goal fails, or None."""
        _check_cap(A.size, len(self.variables), cap)
        cols = self._columns(A)
        lhs, rhs = cols[self.goal[0]], cols[self.goal[1]]
        if lhs == rhs:
            return None
        masks = [map(_ne, lhs, rhs)]
        masks += [map(_eq, cols[l], cols[r]) for l, r in self.premises]
        index = next(itertools.compress(itertools.count(),
                                        map(all, zip(*masks))), None)
        if index is None:
            return None
        digits = []
        for _ in self.variables:
            index, digit = divmod(index, A.size)
            digits.append(digit)
        return dict(zip(self.variables, reversed(digits)))


def holds(A: Algebra, eq: Equation, cap: int | None = DEFAULT_VALUATION_CAP):
    """Exhaustive equation check; returns (True, None) or (False, v) with
    the first failing valuation in lexicographic order."""
    v = Program((), eq).countermodel(A, cap)
    return v is None, v


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
    chain-generated class, hence the refusal.  The principal filters come
    from the per-algebra table of filters, built by the closure route."""
    from .filters import _context

    if not in_chain_variety(A):
        raise ValueError("algebra is not contractive/prelinear/"
                         "join-subdistributive; law not applicable")
    principal = _context(A).principal
    for a in range(A.size):
        for b in range(A.size):
            if principal[A.join[a][b]] != principal[a] & principal[b]:
                return False, (a, b)
    return True, None
