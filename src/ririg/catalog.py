"""Exhaustive generation of small algebras up to isomorphism, with
constraint filters and a persisted, greppable catalog format.

The search is constructive, one isomorphism class at a time:

- Lattices of size n are lattices of size n-1 with an atom added (Heitzig
  and Reinhold, Algebra Universalis 48, 2002), each kept once, in its
  labelling with bottom 0 and top n-1 whose join table is least, with that
  table's automorphisms.
- The product tables on each lattice are filled by backtracking, and of
  each orbit under the lattice's automorphisms the least one is kept.
- The modal tables of a base are filled by backtracking, in lexicographic
  order.
- Expansions are told apart by their canonical forms, computed from the
  base's best relabelings; the first of each form is kept.

So each class keeps the representative that the search over every
labelled table keeps (tests/conftest.py holds that search as the oracle):
for a base, the relabeling fixing 0 and n-1 that minimizes its join
table's strict upper triangle, then its product table's upper triangle
with diagonal; for an expansion, the least tuple of modal tables among its
conjugates under the base's automorphisms.

The canonical form starts with the new labels of zero and one, so only
the relabelings sending zero to 0 and one to 1 can give the minimum, and
only those (n-2)! are tried, once per base class.  An expansion's form
reuses its base's best relabelings.  The forms are stored in the catalog
entries, which are sorted by them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .core import Algebra, ModalSignature, Table, synthesize_imp
from .terms import in_chain_variety, is_chain, is_contractive, \
    satisfies_prelinearity

DEFAULT_SIZE_CAP = 6
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
    return _expansion_forms(A)(A.modal_tables)


def _fixed_and_rest(A: Algebra) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """zero and one (zero alone when they are equal), and the other
    elements."""
    fixed = (A.zero,) if A.zero == A.one else (A.zero, A.one)
    return fixed, tuple(x for x in range(A.size) if x not in fixed)


def _relabelings(first, rest, last=()):
    """Each relabeling that sends `first` to the first labels and `last` to
    the last ones, and orders `rest` between them, as (perm, inv):
    perm[old] = new, inv[new] = old."""
    n = len(first) + len(rest) + len(last)
    for order in itertools.permutations(rest):
        inv = first + order + last
        perm = [0] * n
        for new, old in enumerate(inv):
            perm[old] = new
        yield perm, inv


def _least(relabelings, encode):
    """The least `encode(perm, inv)` over `relabelings`, and the (perm, inv)
    pairs attaining it."""
    best, attaining = None, []
    for perm, inv in relabelings:
        code = encode(perm, inv)
        if best is None or code < best:
            best, attaining = code, [(perm, inv)]
        elif code == best:
            attaining.append((perm, inv))
    return best, attaining


@lru_cache(maxsize=None)
def _lattices(n: int) -> tuple:
    """The lattices of size n >= 2 up to isomorphism, as (join, auts)
    pairs.  `join` is labelled with bottom 0 and top n-1 and, among such
    labellings, has the least strict upper triangle (the oracle's first
    join table of the class); `auts` are its automorphisms, as (perm, inv).

    Every lattice of size n >= 3 is one of size n-1 plus an atom: removing
    an atom a leaves a lattice, as no two other elements join to a."""
    if n == 2:
        return ((((0, 1), (1, 1)), [([0, 1], (0, 1))]),)
    inner = tuple(range(1, n - 1))
    upper = [(i, j) for i in inner for j in inner if i < j]

    def least(join):
        return _least(_relabelings((0,), inner, (n - 1,)),
                      lambda perm, inv: tuple(perm[join[inv[i]][inv[j]]]
                                              for i, j in upper))

    found = {}
    for smaller, _ in _lattices(n - 1):
        for join in _atom_extensions(smaller):
            key, best = least(join)
            if key not in found:
                perm, inv = best[0]
                found[key] = tuple(tuple(perm[join[a][b]] for b in inv)
                                   for a in inv)
    # a least labelling's least relabelings are its automorphisms
    return tuple((join, least(join)[1]) for _, join in sorted(found.items()))


def _atom_extensions(join: Table):
    """The join tables of the lattices made from the lattice `join` (bottom
    0, top m-1) by adding an atom below an up-set of its nonzero elements:
    each such order in which every pair has a least upper bound.  The atom
    is labelled m-1 and the top moves to m."""
    m = len(join)
    top = m - 1
    leq = [[join[x][y] == y for y in range(m)] for x in range(m)]
    for mask in range(1 << (m - 2)):
        up = [x for x in range(1, top) if mask >> (x - 1) & 1] + [top]
        if all(y in up for x in up for y in range(m) if leq[x][y]):
            extended = _atom_added(leq, up)
            if all(None not in row for row in extended):
                yield extended


def _least_of(xs, leq):
    return next((x for x in xs if all(leq[x][y] for y in xs)), None)


def _atom_added(leq, up) -> Table:
    """The join table of the order `leq` with an atom added below `up`,
    with None for a pair that has no least upper bound."""
    m = len(leq)
    old = list(range(m - 1)) + [m]          # new labels of the old elements
    le = [[False] * (m + 1) for _ in range(m + 1)]
    for x in range(m):
        for y in range(m):
            le[old[x]][old[y]] = leq[x][y]
    le[0][m - 1] = le[m - 1][m - 1] = True
    for y in up:
        le[m - 1][old[y]] = True
    return tuple(tuple(_least_of([z for z in range(m + 1)
                                  if le[x][z] and le[y][z]], le)
                       for y in range(m + 1)) for x in range(m + 1))


def _products(join: Table):
    """Every commutative product on the lattice `join` (bottom 0, top n-1)
    with unit n-1 and annihilator 0 that is associative, integral and
    distributes over join, in lexicographic order of its upper triangle
    with diagonal.  Filled by backtracking: each cell ranges over the
    elements below the meet of its indices, and each associativity and
    distribution instance is checked as soon as the cells it reads are
    placed."""
    n = len(join)
    top = n - 1
    p = [[None] * n for _ in range(n)]
    for x in range(n):
        p[0][x] = p[x][0] = 0
        p[top][x] = p[x][top] = x
    joins_to = [[] for _ in range(n)]
    for b in range(n):
        for c in range(n):
            joins_to[join[b][c]].append((b, c))
    cells = [(i, j) for i in range(1, top) for j in range(i, top)]
    choices = [[v for v in range(n) if join[v][i] == i and join[v][j] == j]
               for i, j in cells]
    everything = range(n)

    def consistent(i, j, v):
        """The instances whose last placed cell is {i, j} = v.  By
        commutativity each instance is met as one where {i, j} is a*b, or
        a*e with e = b v c (distribution), or (x*y)*b with x*y = a
        (associativity)."""
        for a, b in ((i, j), (j, i)) if i != j else ((i, j),):
            for c in everything:
                x, y = p[a][join[b][c]], p[a][c]
                if x is not None and y is not None and x != join[v][y]:
                    return False
                x, y = p[v][c], p[b][c]
                if x is not None and y is not None:
                    y = p[a][y]
                    if y is not None and x != y:
                        return False
            for c, d in joins_to[b]:
                x, y = p[a][c], p[a][d]
                if x is not None and y is not None and v != join[x][y]:
                    return False
            for x in everything:
                row = p[x]
                for y in everything:
                    if row[y] == a:
                        z = p[y][b]
                        if z is not None:
                            z = row[z]
                            if z is not None and z != v:
                                return False
        return True

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, p))
            return
        i, j = cells[k]
        for v in choices[k]:
            p[i][j] = p[j][i] = v
            if consistent(i, j, v):
                yield from fill(k + 1)
        p[i][j] = p[j][i] = None

    yield from fill(0)


def enumerate_ririgs(n: int, cap: int = DEFAULT_SIZE_CAP) -> list[Algebra]:
    """All ririgs of size n up to isomorphism, canonical-form order.  Each
    is labelled with bottom 0 and top n-1 by the relabeling that minimizes
    its join table's strict upper triangle, then its product table's upper
    triangle with diagonal."""
    return [A for A, _ in _ririgs_with_forms(n, cap)]


def _ririgs_with_forms(n: int, cap: int) -> list:
    """The ririgs of `enumerate_ririgs`, in its order, each paired with its
    `_expansion_forms`."""
    if n > cap:
        raise ValueError(f"size {n} exceeds enumeration cap {cap}")
    if n < 1:
        raise ValueError("size must be >= 1")
    if n == 1:
        A = Algebra(1, ((0,),), ((0,),), ((0,),), 0, 0)
        return [(A, _expansion_forms(A))]
    cells = [(i, j) for i in range(1, n - 1) for j in range(i, n - 1)]
    found = []
    for join, auts in _lattices(n):
        for prod in _products(join):
            key = [prod[i][j] for i, j in cells]
            # the least product table of each orbit of the lattice's
            # automorphisms represents the class
            if all([perm[prod[inv[i]][inv[j]]] for i, j in cells] >= key
                   for perm, inv in auts):
                found.append(Algebra(n, join, prod,
                                     synthesize_imp(n, join, prod), 0, n - 1))
    with_forms = [(A, _expansion_forms(A)) for A in found]
    return sorted(with_forms, key=lambda pair: pair[1](()))


def _valid_modal_tables(A: Algebra, constraints=()):
    """Every table m with m(1) = 1 and m(x->y) <= m(x)->m(y) that also
    meets the constraints (contractive: m(x) <= x; Cm: m(x v y) <= m(x) v
    m(y)), in lexicographic order.  Filled by backtracking: m(1) = 1
    first, then the cells in index order with values ascending; each
    inequality is checked once the cells it reads are placed."""
    n, join, imp, one = A.size, A.join, A.imp, A.one
    order = [one] + [x for x in range(n) if x != one]
    placed = {x: k for k, x in enumerate(order)}
    # (c, x, y, w) stands for m(c) <= w(m(x), m(y)), checked when the last
    # of c, x, y is placed
    checks = [[] for _ in order]
    for x in range(n):
        for y in range(n):
            c = imp[x][y]
            checks[max(placed[c], placed[x], placed[y])].append((c, x, y, imp))
            if "Cm" in constraints:
                c = join[x][y]
                checks[max(placed[c], placed[x], placed[y])].append(
                    (c, x, y, join))
    values = [[one]] + [
        [v for v in range(n)
         if "contractive" not in constraints or join[v][x] == x]
        for x in order[1:]]
    t = [0] * n

    def fill(k):
        if k == n:
            yield tuple(t)
            return
        x = order[k]
        for v in values[k]:
            t[x] = v
            if all(join[t[c]][w[t[a]][t[b]]] == w[t[a]][t[b]]
                   for c, a, b, w in checks[k]):
                yield from fill(k + 1)

    yield from fill(0)


def _check_constraints(constraints) -> None:
    unknown = set(constraints) - set(KNOWN_CONSTRAINTS)
    if unknown:
        raise ValueError(f"unknown constraints {sorted(unknown)}")


def enumerate_modal_expansions(A: Algebra, k: int, constraints=(),
                               modal_cap: int = DEFAULT_MODAL_CAP
                               ) -> list[Algebra]:
    """All expansions of A by k modal tables, up to isomorphism of the
    expanded structure.  Constraint names: contractive, Cm."""
    return [M for _, M in _expansions_by_form(A, k, constraints, modal_cap,
                                              _expansion_forms(A))]


def _expansions_by_form(A: Algebra, k: int, constraints, modal_cap: int,
                        form_of) -> list[tuple[bytes, Algebra]]:
    """The expansions of `enumerate_modal_expansions`, each paired with
    its canonical form, in form order; `form_of` is A's `_expansion_forms`.
    Each class is represented by its first tuple of tables in
    lexicographic order, the least of its conjugates under A's
    automorphisms."""
    if k > modal_cap:
        raise ValueError(f"{k} modal symbols exceed cap {modal_cap}")
    _check_constraints(constraints)
    sig = ModalSignature(tuple(f"m{i + 1}" for i in range(k)))
    singles = list(_valid_modal_tables(A, constraints)) if k else []
    seen = {}
    for tables in itertools.product(singles, repeat=k):
        seen.setdefault(form_of(tables), tables)
    return [(form, A.with_modals(sig, tables))
            for form, tables in sorted(seen.items())]


def _expansion_forms(A: Algebra):
    """The function giving `canonical_form` of A's lattice and product
    expanded by a tuple of modal tables.  The relabelings that send zero
    to 0 and one to 1 and minimize the join, product and implication
    payload (the best ones) are a coset of A's automorphisms; as that
    payload has a fixed length, the form is the header and that payload
    followed by the least modal payload over the best relabelings."""
    payload, best = _least(
        _relabelings(*_fixed_and_rest(A)),
        lambda perm, inv: bytes(perm[table[a][b]]
                                for table in (A.join, A.prod, A.imp)
                                for a in inv for b in inv))
    perm = best[0][0]
    zero, one = perm[A.zero], perm[A.one]
    return lambda tables: bytes((A.size, zero, one, len(tables))) \
        + payload + min(bytes(perm[t[a]] for t in tables for a in inv)
                        for perm, inv in best)


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
        """The entry of one algebra, its flags computed from A alone;
        `form`, when given, must be `canonical_form(A)` and saves
        recomputing it.  catalog_build computes the same flags once per
        base and modal table (`_base_entries`); this path is their oracle
        in the tests."""
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
    _check_constraints(constraints)
    entries = []
    for n in range(1, max_size + 1):
        for base, form_of in _ririgs_with_forms(n, size_cap):
            if "P" in constraints and not satisfies_prelinearity(base):
                continue
            if "chain" in constraints and not is_chain(base):
                continue
            entries += _base_entries(base, _expansions_by_form(
                base, modals, constraints, modal_cap, form_of))
    entries.sort(key=lambda e: (e.algebra.size, e.form))
    forms = [e.form for e in entries]
    assert len(forms) == len(set(forms))
    return Catalog(max_size, modals, constraints, tuple(entries))


def _base_entries(base: Algebra, expansions) -> list[CatalogEntry]:
    """The entries of `expansions`, (form, algebra) pairs expanding `base`,
    with the flags of CatalogEntry.from_algebra.  chain and prelinearity
    read only the base's tables, so they are decided once; contractive and
    join-subdistribution are conjunctions over the modal tables, each table
    decided once; simple and si come from the coatoms' principal filters
    over the base's tables (filters.expansion_verdicts)."""
    from .filters import expansion_verdicts
    n, join = base.size, base.join
    trivial = n == 1
    chain, prelinear = is_chain(base), satisfies_prelinearity(base)
    verdicts = None if trivial else expansion_verdicts(base)
    pairs = [(a, b, join[a][b]) for a in range(n) for b in range(n)]
    per_table = {}

    def table_flags(t):
        """(contractive, join-subdistributive) of the modal table t:
        m(x) <= x, and m(a v b) <= m(a) v m(b)."""
        if t not in per_table:
            per_table[t] = (
                all(join[v][x] == x for x, v in enumerate(t)),
                all(join[t[c]][join[t[a]][t[b]]] == join[t[a]][t[b]]
                    for a, b, c in pairs))
        return per_table[t]

    entries = []
    for form, M in expansions:
        flags = [table_flags(t) for t in M.modal_tables]
        contractive = all(c for c, _ in flags)
        simple, si = (None, None) if trivial else verdicts(M.modal_tables)
        entries.append(CatalogEntry(
            M, form, trivial, chain, contractive,
            contractive and prelinear and all(j for _, j in flags),
            simple, si))
    return entries


# ---------------------------------------------------------------------------
# persistence: versioned header line, then one JSON record per algebra

_FLAGS = ("trivial", "chain", "contractive", "in_rc", "simple", "si")


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
            rec["flags"] = {key: getattr(e, key) for key in _FLAGS}
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
    """The entry of a record whose flags are booleans, `trivial` exactly
    when the size is 1, and `simple` and `si` null exactly then."""
    flags = rec["flags"]
    trivial, chain, contractive, in_rc, simple, si = values = \
        [flags[key] for key in _FLAGS]
    A = _algebra_from_record(rec)
    for key, value in zip(_FLAGS, values):
        if type(value) is not bool \
                and not (value is None and key in ("simple", "si")):
            raise ValueError(f"flag {key} {value!r} is not a boolean")
    if trivial != (A.size == 1):
        raise ValueError(f"flag trivial {trivial} but size {A.size}")
    if (simple is None) != trivial or (si is None) != trivial:
        raise ValueError(f"flags simple {simple} and si {si} must be null "
                         f"exactly for the trivial algebra")
    return CatalogEntry(A, bytes.fromhex(rec["form"]), trivial, chain,
                        contractive, in_rc, simple, si)
