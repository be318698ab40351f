"""Finite residuated integral rigs with modal operators: tables, axiom
validation, order utilities.

An algebra lives on the index set 0..n-1.  The two binary tables `join` and
`prod` together with the residual table `imp` and the distinguished indices
`zero`, `one` determine the ririg; `a <= b` means `a v b == b`.  One unary
table per name of the modal signature adds the modal operators; a plain
ririg has the empty signature.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

Table = tuple[tuple[int, ...], ...]

_RESERVED = {"0", "1", "bot", "top", "eps", "v"}


@dataclass(frozen=True)
class ModalSignature:
    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate modal names")
        for name in self.names:
            bad = (not name.isidentifier() or name in _RESERVED
                   or (name[0] == "v" and name[1:].isdigit()))
            if bad:
                raise ValueError(f"bad modal name {name!r}")

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown modal name {name!r}") from None


EMPTY_SIGNATURE = ModalSignature(())


def _freeze_table(rows) -> Table:
    return tuple(tuple(int(x) for x in row) for row in rows)


def _check_table(name: str, table: Table, n: int) -> None:
    if len(table) != n or any(len(row) != n for row in table):
        raise ValueError(f"{name} table must be {n}x{n}")
    for row in table:
        for x in row:
            if not (0 <= x < n):
                raise ValueError(f"{name} table entry {x} out of range [0,{n})")


def _modal_tables(sig: ModalSignature, tables, n: int) -> Table:
    """The modal tables frozen, one per name of `sig`, each of length n
    with entries in range."""
    tables = tuple(tuple(map(int, t)) for t in tables)
    if len(tables) != len(sig):
        raise ValueError("one table per modal name required")
    for t in tables:
        if len(t) != n or min(t) < 0 or max(t) >= n:
            raise ValueError("modal table malformed")
    return tables


@dataclass(frozen=True)
class Algebra:
    """Operation tables of a candidate I-modal residuated integral rig:
    the ririg tables and one unary table per name of `sig`.

    Construction only checks shapes (entries in range); whether the tables
    actually satisfy the axioms is the job of :func:`validate_ririg` and
    ``modal.validate_modal``, so that deliberately broken candidates can be
    represented and reported on.
    """

    size: int
    join: Table
    prod: Table
    imp: Table
    zero: int
    one: int
    sig: ModalSignature = EMPTY_SIGNATURE
    modal_tables: Table = ()

    def __post_init__(self):
        n = self.size
        if n <= 0:
            raise ValueError("size must be positive")
        object.__setattr__(self, "join", _freeze_table(self.join))
        object.__setattr__(self, "prod", _freeze_table(self.prod))
        object.__setattr__(self, "imp", _freeze_table(self.imp))
        for name in ("join", "prod", "imp"):
            _check_table(name, getattr(self, name), n)
        if not (0 <= self.zero < n and 0 <= self.one < n):
            raise ValueError("zero/one out of range")
        object.__setattr__(self, "modal_tables",
                           _modal_tables(self.sig, self.modal_tables, n))

    @classmethod
    def from_join_prod(cls, size, join, prod, zero, one) -> "Algebra":
        """Build a plain algebra synthesizing the residual table from
        join/prod.

        Raises ValueError when some residual does not exist.
        """
        join = _freeze_table(join)
        prod = _freeze_table(prod)
        imp = synthesize_imp(size, join, prod)
        return cls(size, join, prod, imp, zero, one)

    def with_modals(self, sig: ModalSignature, tables) -> "Algebra":
        """This algebra's ririg tables with `tables` as the modal operators
        named by `sig`, in place of its own.

        The ririg tables were checked when this algebra was built and are
        shared, not copied; only the new modal tables are checked, by the
        same rule as in the constructor.  The result equals, and hashes
        like, the algebra built in one call from the same fields.
        """
        return self._copy(sig, _modal_tables(sig, tables, self.size))

    def __deepcopy__(self, memo) -> "Algebra":
        """A new algebra sharing this one's tables, which are tuples of
        ints and so immutable, with a deep copy of its signature: the
        object graph a stock deep copy builds, without walking every
        row."""
        return self._copy(copy.deepcopy(self.sig, memo), self.modal_tables)

    def _copy(self, sig: ModalSignature, modal_tables: Table) -> "Algebra":
        """A new algebra with this one's ririg tables, shared, and the
        given signature and modal tables.  The fields are set one by one in
        declaration order, as the constructor sets them, and read through
        attributes, never through `__dict__`: either keeps attribute reads
        on this algebra and on the result as fast as on a constructed one."""
        given = {"sig": sig, "modal_tables": modal_tables}
        out = object.__new__(type(self))
        for name in self.__dataclass_fields__:
            value = given[name] if name in given else getattr(self, name)
            object.__setattr__(out, name, value)
        return out

    def leq(self, a: int, b: int) -> bool:
        """Order test a <= b, i.e. a v b == b."""
        return self.join[a][b] == b

    def star(self, a: int, b: int) -> int:
        """(a -> b) * (b -> a), the symmetric implication product."""
        return self.prod[self.imp[a][b]][self.imp[b][a]]

    def elements(self):
        return range(self.size)

    def modal(self, name: str) -> tuple[int, ...]:
        return self.modal_tables[self.sig.index(name)]


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a validation run: ``passed`` iff ``failures`` is empty.

    Each failure is a pair (axiom name, witness tuple of element indices),
    the witness being the first failing tuple in lexicographic order.
    """

    passed: bool
    failures: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "failures", tuple(self.failures))
        assert self.passed == (not self.failures)


def residual_of(A: Algebra, b: int, c: int) -> Optional[int]:
    """max { a : a*b <= c } computed from the join/prod tables only.

    Returns None when the set has no maximum, i.e. prod is not residuated
    at (b, c).  The imp table of A, if any, is deliberately ignored.
    """
    return _residual(A.join, A.prod, b, c)


def _residual(join: Table, prod: Table, b: int, c: int) -> Optional[int]:
    candidates = [a for a in range(len(join)) if join[prod[a][b]][c] == c]
    for a in candidates:
        if all(join[x][a] == a for x in candidates):
            return a
    return None


def synthesize_imp(size: int, join: Table, prod: Table) -> Table:
    """Residual table from join/prod; ValueError if a table is not
    size x size with entries in range, or if any residual is absent."""
    _check_table("join", join, size)
    _check_table("prod", prod, size)
    rows = []
    for b in range(size):
        row = []
        for c in range(size):
            r = _residual(join, prod, b, c)
            if r is None:
                raise ValueError(f"not residuated at ({b},{c}): no maximum")
            row.append(r)
        rows.append(tuple(row))
    return tuple(rows)


# Canonical axiom names, in report order.
_AXIOMS = (
    "join-commutativity",
    "join-associativity",
    "join-unit",
    "prod-commutativity",
    "prod-associativity",
    "prod-unit",
    "distribution",
    "annihilation",
    "integrality",
    "residuation",
)


def validate_ririg(A: Algebra) -> AxiomReport:
    """Check every defining axiom, reporting the first lexicographic witness
    per violated axiom."""
    n, j, p, imp = A.size, A.join, A.prod, A.imp
    zero, one = A.zero, A.one
    failures = []

    def first2(pred):
        for a in range(n):
            for b in range(n):
                if not pred(a, b):
                    return (a, b)
        return None

    def first3(pred):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if not pred(a, b, c):
                        return (a, b, c)
        return None

    checks = {
        "join-commutativity": lambda: first2(lambda a, b: j[a][b] == j[b][a]),
        "join-associativity": lambda: first3(
            lambda a, b, c: j[j[a][b]][c] == j[a][j[b][c]]),
        "join-unit": lambda: next(
            (((a,)) for a in range(n) if j[zero][a] != a), None),
        "prod-commutativity": lambda: first2(lambda a, b: p[a][b] == p[b][a]),
        "prod-associativity": lambda: first3(
            lambda a, b, c: p[p[a][b]][c] == p[a][p[b][c]]),
        "prod-unit": lambda: next(
            (((a,)) for a in range(n) if p[one][a] != a), None),
        "distribution": lambda: first3(
            lambda a, b, c: p[a][j[b][c]] == j[p[a][b]][p[a][c]]),
        "annihilation": lambda: next(
            (((a,)) for a in range(n) if p[a][zero] != zero), None),
        "integrality": lambda: next(
            (((a,)) for a in range(n) if j[one][a] != one), None),
        "residuation": lambda: first3(
            lambda a, b, c: A.leq(p[a][b], c) == A.leq(a, imp[b][c])),
    }
    for name in _AXIOMS:
        witness = checks[name]()
        if witness is not None:
            failures.append((name, tuple(witness)))
    return AxiomReport(passed=not failures, failures=tuple(failures))
