"""Exhaustive generation of small algebras up to isomorphism, with
constraint filters and a persisted, greppable catalog format.

Enumeration normalizes the bottom to index 0 and the top to index n-1;
nothing downstream relies on that, since deduplication goes through the
permutation-minimal canonical form.  That form starts with the new labels
of zero and one, so only the relabelings sending zero to 0 and one to 1
can give the minimum, and only those (n-2)! are tried.  Each form is
computed once, during deduplication, and stored in the catalog entry.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional

from .core import Algebra, ModalSignature, synthesize_imp, validate_ririg
from .modal import validate_modal
from .terms import in_chain_variety, is_chain, is_contractive, \
    satisfies_join_subdistribution, satisfies_prelinearity

DEFAULT_SIZE_CAP = 5
DEFAULT_MODAL_CAP = 2
CATALOG_FORMAT = "ririg-catalog"
CATALOG_VERSION = 1

KNOWN_CONSTRAINTS = ("contractive", "Cm", "P", "chain")


def canonical_form(A: Algebra) -> bytes:
    """Minimum over all universe relabelings of the concatenated tables,
    with the 0/1 positions and modal tables included.  Two algebras are
    isomorphic exactly when their forms agree.

    The payload starts ``[n, perm[zero], perm[one], ...]``, so a relabeling
    that does not send zero to 0 and one to 1 (zero alone to 0 when
    zero == one) has a larger second or third byte and is never the
    minimum.  Only the orders of the remaining elements are tried, (n-2)!
    instead of n!; the argument holds for any shape-valid tables, not only
    for ririgs.
    """
    n = A.size
    fixed = (A.zero,) if A.zero == A.one else (A.zero, A.one)
    rest = [x for x in range(n) if x not in fixed]
    tables = (A.join, A.prod, A.imp)
    best: Optional[bytes] = None
    for order in itertools.permutations(rest):
        inv = fixed + order             # inv[new label] = old element
        perm = [0] * n
        for p, x in enumerate(inv):
            perm[x] = p
        payload = [n, perm[A.zero], perm[A.one], len(A.sig)]
        for table in tables:
            for a in inv:
                row = table[a]
                payload.extend(perm[row[b]] for b in inv)
        for t in A.modal_tables:
            payload.extend(perm[t[a]] for a in inv)
        enc = bytes(payload)
        if best is None or enc < best:
            best = enc
    return best


def _by_form(algebras) -> list[tuple[bytes, Algebra]]:
    """One (canonical form, algebra) pair per isomorphism class among
    `algebras`, keeping the first algebra met, in form order."""
    seen = {}
    for A in algebras:
        seen.setdefault(canonical_form(A), A)
    return [(form, seen[form]) for form in sorted(seen)]


def _join_tables(n: int):
    """All bounded join-semilattice tables with bottom 0 and top n-1."""
    free = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1)]
    for values in itertools.product(range(n), repeat=len(free)):
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            table[i][i] = i
            table[0][i] = table[i][0] = i
            table[n - 1][i] = table[i][n - 1] = n - 1
        for (i, j), v in zip(free, values):
            table[i][j] = table[j][i] = v
        ok = all(table[table[a][b]][c] == table[a][table[b][c]]
                 for a in range(n) for b in range(n) for c in range(n))
        if ok:
            yield tuple(tuple(row) for row in table)


def _product_tables(n: int, join):
    """Commutative monoid tables with unit n-1 and annihilator 0 that
    distribute over the given join and admit every residual."""
    def below(x):
        return [v for v in range(n) if join[v][x] == x]

    free = [(i, j) for i in range(1, n - 1) for j in range(i, n - 1)]
    # integrality forces x*y below both factors, which prunes hard
    choices = [sorted(set(below(i)) & set(below(j))) for i, j in free]
    for values in itertools.product(*choices):
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            table[n - 1][i] = table[i][n - 1] = i
            table[0][i] = table[i][0] = 0
        for (i, j), v in zip(free, values):
            table[i][j] = table[j][i] = v
        ok = all(table[table[a][b]][c] == table[a][table[b][c]]
                 for a in range(n) for b in range(n) for c in range(n))
        ok = ok and all(
            table[a][join[b][c]] == join[table[a][b]][table[a][c]]
            for a in range(n) for b in range(n) for c in range(n))
        if not ok:
            continue
        try:
            imp = synthesize_imp(n, join, tuple(tuple(r) for r in table))
        except ValueError:
            continue
        yield tuple(tuple(row) for row in table), imp


def enumerate_ririgs(n: int, cap: int = DEFAULT_SIZE_CAP) -> list[Algebra]:
    """All ririgs of size n up to isomorphism, canonical-form order."""
    if n > cap:
        raise ValueError(f"size {n} exceeds enumeration cap {cap}")
    if n < 1:
        raise ValueError("size must be >= 1")
    if n == 1:
        return [Algebra(1, ((0,),), ((0,),), ((0,),), 0, 0)]
    found = []
    for join in _join_tables(n):
        for prod, imp in _product_tables(n, join):
            A = Algebra(n, join, prod, imp, 0, n - 1)
            assert validate_ririg(A).passed
            found.append(A)
    return [A for _, A in _by_form(found)]


def _valid_modal_tables(A: Algebra, constraints=()):
    n = A.size
    sig = ModalSignature(("m1",))
    for table in itertools.product(range(n), repeat=n):
        if table[A.one] != A.one:
            continue
        M = A.with_modals(sig, (table,))
        if not validate_modal(M).passed:
            continue
        if "contractive" in constraints and not is_contractive(M):
            continue
        if "Cm" in constraints and not satisfies_join_subdistribution(M, "m1"):
            continue
        yield table


def enumerate_modal_expansions(A: Algebra, k: int, constraints=(),
                               modal_cap: int = DEFAULT_MODAL_CAP
                               ) -> list[Algebra]:
    """All expansions of A by k modal tables, up to isomorphism of the
    expanded structure.  Constraint names: contractive, Cm."""
    return [M for _, M in _expansions_by_form(A, k, constraints, modal_cap)]


def _expansions_by_form(A: Algebra, k: int, constraints,
                        modal_cap: int) -> list[tuple[bytes, Algebra]]:
    """The expansions of `enumerate_modal_expansions`, each paired with
    its canonical form, in form order."""
    if k > modal_cap:
        raise ValueError(f"{k} modal symbols exceed cap {modal_cap}")
    unknown = set(constraints) - set(KNOWN_CONSTRAINTS)
    if unknown:
        raise ValueError(f"unknown constraints {sorted(unknown)}")
    sig = ModalSignature(tuple(f"m{i + 1}" for i in range(k)))
    singles = list(_valid_modal_tables(A, constraints)) if k else []
    return _by_form(A.with_modals(sig, tables)
                    for tables in itertools.product(singles, repeat=k))


@dataclass(frozen=True)
class CatalogEntry:
    algebra: Algebra
    form: bytes
    trivial: bool
    chain: bool
    contractive: bool
    in_rc: bool
    simple: Optional[bool]   # None for the trivial algebra
    si: Optional[bool]

    @classmethod
    def from_algebra(cls, A: Algebra,
                     form: Optional[bytes] = None) -> "CatalogEntry":
        """Compute the entry's flags; `form`, when given, must be
        `canonical_form(A)` and saves recomputing it."""
        from .filters import is_subdirectly_irreducible, simple_from_filters
        trivial = A.size == 1
        return cls(
            algebra=A,
            form=canonical_form(A) if form is None else form,
            trivial=trivial,
            chain=is_chain(A),
            contractive=is_contractive(A),
            in_rc=in_chain_variety(A),
            simple=None if trivial else simple_from_filters(A),
            si=None if trivial else is_subdirectly_irreducible(A)[0],
        )


@dataclass(frozen=True)
class Catalog:
    max_size: int
    modals: int
    constraints: tuple[str, ...]
    entries: tuple[CatalogEntry, ...]

    def algebras(self) -> list[Algebra]:
        return [e.algebra for e in self.entries]


def catalog_build(max_size: int, modals: int, constraints=(),
                  size_cap: int = DEFAULT_SIZE_CAP,
                  modal_cap: int = DEFAULT_MODAL_CAP) -> Catalog:
    constraints = tuple(constraints)
    entries = []
    for n in range(1, max_size + 1):
        for base in enumerate_ririgs(n, cap=size_cap):
            if "P" in constraints and not satisfies_prelinearity(base):
                continue
            if "chain" in constraints and not is_chain(base):
                continue
            for form, M in _expansions_by_form(base, modals, constraints,
                                               modal_cap):
                entries.append(CatalogEntry.from_algebra(M, form=form))
    entries.sort(key=lambda e: (e.algebra.size, e.form))
    forms = [e.form for e in entries]
    assert len(forms) == len(set(forms))
    return Catalog(max_size, modals, constraints, tuple(entries))


# ---------------------------------------------------------------------------
# persistence: versioned header line, then one JSON record per algebra

def _algebra_to_record(A: Algebra) -> dict:
    return {
        "size": A.size,
        "zero": A.zero,
        "one": A.one,
        "join": [list(r) for r in A.join],
        "prod": [list(r) for r in A.prod],
        "imp": [list(r) for r in A.imp],
        "modals": {name: list(t)
                   for name, t in zip(A.sig.names, A.modal_tables)},
    }


def _algebra_from_record(rec: dict) -> Algebra:
    names = tuple(rec.get("modals", {}))
    tables = tuple(tuple(rec["modals"][name]) for name in names)
    return Algebra(rec["size"], rec["join"], rec["prod"], rec["imp"],
                   rec["zero"], rec["one"], ModalSignature(names), tables)


def catalog_save(catalog: Catalog, path) -> None:
    with open(path, "w") as fh:
        header = {"format": CATALOG_FORMAT, "version": CATALOG_VERSION,
                  "max_size": catalog.max_size, "modals": catalog.modals,
                  "constraints": list(catalog.constraints),
                  "count": len(catalog.entries)}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for e in catalog.entries:
            rec = _algebra_to_record(e.algebra)
            rec["form"] = e.form.hex()
            rec["flags"] = {"trivial": e.trivial, "chain": e.chain,
                            "contractive": e.contractive, "in_rc": e.in_rc,
                            "simple": e.simple, "si": e.si}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def catalog_load(path) -> Catalog:
    with open(path) as fh:
        return catalog_loads(fh.read())


def catalog_loads(text: str) -> Catalog:
    """Parse a catalog file.  A line that is not JSON, lacks a key or holds
    a malformed value, and a header `count` that differs from the number
    of records (a truncated file), raise ValueError naming the line.  The
    records are not re-verified: forms, flags and axioms are read as
    written."""
    lines = [(number, line)
             for number, line in enumerate(text.splitlines(), start=1)
             if line.strip()]
    if not lines:
        raise ValueError("empty catalog file")
    max_size, modals, constraints, count = _read_line(*lines[0],
                                                      _header_fields)
    records = lines[1:]
    if count != len(records):
        raise ValueError(f"header count {count} but {len(records)} "
                         f"records: truncated catalog?")
    entries = tuple(_read_line(number, line, _entry_from_record)
                    for number, line in records)
    return Catalog(max_size, modals, constraints, entries)


def _read_line(number: int, line: str, build):
    """`build` applied to the line's JSON, with its errors reported as a
    ValueError naming the line."""
    try:
        return build(json.loads(line))
    except KeyError as e:
        raise ValueError(f"line {number}: missing key {e}") from None
    except (TypeError, ValueError) as e:
        raise ValueError(f"line {number}: {e}") from None


def _header_fields(header) -> tuple:
    """(max_size, modals, constraints, count) of a checked header."""
    if not isinstance(header, dict) or header.get("format") != CATALOG_FORMAT:
        raise ValueError("not a catalog file")
    if header.get("version") != CATALOG_VERSION:
        raise ValueError(f"catalog version {header.get('version')} "
                         f"unsupported (want {CATALOG_VERSION})")
    for key in ("max_size", "modals", "count"):
        value = header[key]
        if type(value) is not int or value < 0:
            raise ValueError(f"header {key} {value!r} is not a "
                             f"non-negative integer")
    constraints = header["constraints"]
    if not isinstance(constraints, list) \
            or not all(c in KNOWN_CONSTRAINTS for c in constraints):
        raise ValueError(f"header constraints {constraints!r} are not a "
                         f"list of names from {list(KNOWN_CONSTRAINTS)}")
    return (header["max_size"], header["modals"], tuple(constraints),
            header["count"])


def _entry_from_record(rec: dict) -> CatalogEntry:
    flags = rec["flags"]
    return CatalogEntry(
        algebra=_algebra_from_record(rec),
        form=bytes.fromhex(rec["form"]),
        trivial=flags["trivial"], chain=flags["chain"],
        contractive=flags["contractive"], in_rc=flags["in_rc"],
        simple=flags["simple"], si=flags["si"])
