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
from itertools import chain
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


def _frozen(name: str, rows, n: int, count: int) -> Table:
    """`rows` as `count` tuples of n ints in [0, n): the one check of the
    entries of a ririg table (count n) or a modal table (count 1).

    Only an `int` is an entry; a bool, float or str is not.  The whole
    table is checked with C-level calls, and only a bad one is searched
    for its first bad entry, whose row-major position the ValueError
    names.
    """
    try:
        table = tuple(map(tuple, rows))
    except TypeError:
        table = ()
    if len(table) != count or list(map(len, table)).count(n) != count:
        raise ValueError(f"{name} table must be {count}x{n}")
    flat = table[0] if count == 1 else list(chain.from_iterable(table))
    if list(map(type, flat)).count(int) != len(flat) \
            or min(flat) < 0 or max(flat) >= n:
        pos, x = next((pos, x) for pos, x in enumerate(flat)
                      if type(x) is not int or not 0 <= x < n)
        raise ValueError(f"{name} table, entry {pos}: {x!r} is not an "
                         f"integer in [0,{n})")
    return table


def _modal_tables(sig: ModalSignature, tables, n: int) -> Table:
    """The modal tables frozen, one per name of `sig`, each named
    ``modals.<name>`` in errors."""
    tables = tuple(tables)
    if len(tables) != len(sig):
        raise ValueError("one table per modal name required")
    return tuple([_frozen("modals." + name, (t,), n, 1)[0]
                  for name, t in zip(sig.names, tables)])


@dataclass(frozen=True)
class Algebra:
    """Operation tables of a candidate I-modal residuated integral rig:
    the ririg tables and one unary table per name of `sig`.

    Construction only checks shapes (every entry an `int` in range);
    whether the tables actually satisfy the axioms is the job of
    :func:`validate_ririg` and ``modal.validate_modal``, so that
    deliberately broken candidates can be represented and reported on.
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
        if type(n) is not int or n <= 0:
            raise ValueError(f"size {n!r} is not a positive integer")
        for name in ("join", "prod", "imp"):
            object.__setattr__(self, name,
                               _frozen(name, getattr(self, name), n, n))
        for name in ("zero", "one"):
            x = getattr(self, name)
            if type(x) is not int or not 0 <= x < n:
                raise ValueError(f"{name} {x!r} is not an integer in "
                                 f"[0,{n})")
        object.__setattr__(self, "modal_tables",
                           _modal_tables(self.sig, self.modal_tables, n))
        self._set_hash()

    def _set_hash(self) -> None:
        """Store the hash once: the per-algebra `lru_cache`s look algebras
        up by it, and hashing every table on each lookup was a measurable
        share of their time.  Every instance sets it last, after the
        fields, so all share one attribute layout.  The signature is left
        out: string hashes differ between processes, and an algebra sent
        to a worker process keeps its stored hash."""
        object.__setattr__(self, "_hash", hash(
            (self.size, self.join, self.prod, self.imp, self.zero, self.one,
             self.modal_tables)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_join_prod(cls, size, join, prod, zero, one) -> "Algebra":
        """Build a plain algebra synthesizing the residual table from
        join/prod.

        Raises ValueError when some residual does not exist.
        """
        return cls(size, join, prod, synthesize_imp(size, join, prod),
                   zero, one)

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
        declaration order, then the hash, as the constructor sets them, and
        read through attributes, never through `__dict__`: either keeps
        attribute reads on this algebra and on the result as fast as on a
        constructed one."""
        given = {"sig": sig, "modal_tables": modal_tables}
        out = object.__new__(type(self))
        for name in self.__dataclass_fields__:
            value = given[name] if name in given else getattr(self, name)
            object.__setattr__(out, name, value)
        out._set_hash()
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
    join = _frozen("join", join, size, size)
    prod = _frozen("prod", prod, size, size)
    rows = []
    for b in range(size):
        row = []
        for c in range(size):
            r = _residual(join, prod, b, c)
            if r is None:
                raise ValueError(f"cannot synthesize imp: not residuated "
                                 f"at ({b},{c}): no maximum")
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
