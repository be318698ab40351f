import itertools
import json
import pathlib
import random

import pytest

from ririg.catalog import KNOWN_CONSTRAINTS, Catalog, CatalogEntry, \
    _expansion_forms, _lattices, _products, _valid_modal_tables, \
    canonical_form, catalog_build, catalog_load, catalog_loads, \
    catalog_save, enumerate_modal_expansions, enumerate_ririgs
from ririg.core import Algebra, synthesize_imp, validate_ririg
from ririg.fixtures import b2, g3, g3_delta, g3_id, luk3
from ririg.modal import ModalSignature, validate_modal
from ririg.terms import in_chain_variety, is_chain, is_contractive


def permuted(A: Algebra, perm) -> Algebra:
    n = A.size
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    tab = lambda T: tuple(tuple(perm[T[inv[a]][inv[b]]] for b in range(n))
                          for a in range(n))
    modals = tuple(tuple(perm[t[inv[a]]] for a in range(n))
                   for t in A.modal_tables)
    return Algebra(n, tab(A.join), tab(A.prod), tab(A.imp),
                   perm[A.zero], perm[A.one], A.sig, modals)


DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def brute_force_form(A: Algebra) -> bytes:
    """Oracle for canonical_form: the minimum over all n! relabelings."""
    n = A.size
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        payload = [n, perm[A.zero], perm[A.one], len(A.sig)]
        for table in (A.join, A.prod, A.imp):
            payload.extend(perm[table[inv[a]][inv[b]]]
                           for a in range(n) for b in range(n))
        for t in A.modal_tables:
            payload.extend(perm[t[inv[a]]] for a in range(n))
        enc = bytes(payload)
        if best is None or enc < best:
            best = enc
    return best


def displacing_relabeling(A: Algebra, rng) -> tuple[int, ...]:
    """A random relabeling that moves zero off 0 and one off n-1."""
    n = A.size
    perm = list(range(n))
    while n > 1 and (perm[A.zero] == 0 or perm[A.one] == n - 1):
        rng.shuffle(perm)
    return tuple(perm)


def test_counts_small():
    # Belohlavek and Vychodil, "Residuated lattices of size <= 12" (2010)
    assert [len(enumerate_ririgs(n, cap=6)) for n in range(1, 7)] \
        == [1, 1, 2, 7, 26, 129]


def test_enumeration_matches_the_oracle(catalog_search):
    """The same labelled algebras in the same order as the search over
    every labelled join and product table."""
    for n in range(1, 6):
        assert enumerate_ririgs(n) == list(catalog_search.ririgs(n)), n


def test_lattice_and_product_search_match_the_oracle(catalog_search):
    """One join table per class of the labelled ones, the least of its
    class, with all its automorphisms; on each, every product table."""
    # OEIS A006966: lattices of sizes 2 to 7
    assert [len(_lattices(n)) for n in range(2, 8)] == [1, 1, 2, 5, 15, 53]
    for n in range(2, 6):
        relabelings = [(0,) + p + (n - 1,)
                       for p in itertools.permutations(range(1, n - 1))]
        classes = {min(permuted(Algebra(n, J, J, J, 0, n - 1), p).join
                       for p in relabelings)
                   for J in catalog_search.join_tables(n)}
        lattices = _lattices(n)
        assert sorted(classes) == sorted(J for J, _ in lattices)
        for J, auts in lattices:
            A = Algebra(n, J, J, J, 0, n - 1)
            assert sorted(tuple(perm) for perm, _ in auts) == sorted(
                p for p in relabelings if permuted(A, p) == A)
            assert list(_products(J)) == [
                prod for prod, _ in catalog_search.product_tables(n, J)]


def bases_and_relabelings(max_size):
    """Every base up to `max_size`, each also relabeled to move zero off 0
    and one off n-1."""
    rng = random.Random(5)
    for n in range(1, max_size + 1):
        for A in enumerate_ririgs(n):
            yield A
            yield permuted(A, displacing_relabeling(A, rng))


@pytest.mark.parametrize("constraints", [(), ("contractive",), ("Cm",),
                                         ("contractive", "Cm")])
def test_modal_search_matches_the_oracle(constraints, catalog_search):
    for A in bases_and_relabelings(5):
        assert list(_valid_modal_tables(A, constraints)) \
            == list(catalog_search.modal_tables(A, constraints))


@pytest.mark.parametrize("max_size, k", [(5, 1), (4, 2)])
def test_expansion_forms_match_the_brute_force_oracle(max_size, k):
    """Every candidate expansion of the (5, 1) and (4, 2) builds, not only
    the kept representatives, against the minimum over all n!
    relabelings."""
    sig = ModalSignature(tuple(f"m{i + 1}" for i in range(k)))
    for A in bases_and_relabelings(max_size):
        form_of = _expansion_forms(A)
        for tables in itertools.product(_valid_modal_tables(A), repeat=k):
            assert form_of(tables) == brute_force_form(A.with_modals(sig,
                                                                     tables))


@pytest.mark.parametrize("args", [(5, 1), (4, 2), (4, 2, ("contractive", "P")),
                                  (4, 1, ("Cm", "chain"))])
def test_catalog_matches_the_oracle(args, catalog_search):
    """Forms, representatives and their order."""
    assert [(e.form, e.algebra) for e in catalog_build(*args).entries] \
        == catalog_search.catalog(*args)


@pytest.mark.extended
def test_size6_enumeration_matches_the_oracle(catalog_search):
    assert enumerate_ririgs(6, cap=6) == list(catalog_search.ririgs(6))


@pytest.mark.extended
def test_size7_count_and_validity():
    """The published count; every base a ririg and every table of the
    modal search a valid modal operator on it."""
    bases = enumerate_ririgs(7, cap=7)
    assert len(bases) == 723
    sig = ModalSignature(("m1",))
    for A in bases:
        assert validate_ririg(A).passed
        for table in _valid_modal_tables(A):
            assert validate_modal(A.with_modals(sig, (table,))).passed


@pytest.mark.extended
def test_size6_catalog_matches_the_oracle(catalog_search):
    assert [(e.form, e.algebra)
            for e in catalog_build(6, 1, size_cap=6).entries] \
        == catalog_search.catalog(6, 1)


def test_size3_is_godel_and_lukasiewicz():
    forms = {canonical_form(A) for A in enumerate_ririgs(3)}
    assert forms == {canonical_form(g3()), canonical_form(luk3())}


def test_enumerated_algebras_validate():
    for n in (1, 2, 3, 4):
        for A in enumerate_ririgs(n):
            assert validate_ririg(A).passed


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_ririgs(7)


def test_b2_expansions():
    expansions = enumerate_modal_expansions(b2(), 1)
    tables = {M.modal_tables[0] for M in expansions}
    assert tables == {(0, 1), (1, 1)}      # identity and constant one


def test_g3_contractive_expansions():
    expansions = enumerate_modal_expansions(g3(), 1, ("contractive",))
    tables = {M.modal_tables[0] for M in expansions}
    assert tables == {(0, 0, 2), (0, 1, 2)}


def test_expansions_zero_modals():
    only = enumerate_modal_expansions(g3(), 0)
    assert len(only) == 1 and only[0].sig.names == ()


def test_expansions_validate(catalog4):
    for A in catalog4:
        assert validate_ririg(A).passed
        assert validate_modal(A).passed


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(3)
    for A in (g3_delta(), g3_id(), luk3()):
        for _ in range(5):
            perm = list(range(A.size))
            rng.shuffle(perm)
            B = permuted(A, tuple(perm))
            assert canonical_form(B) == canonical_form(A)


def test_canonical_form_matches_brute_force_oracle():
    rng = random.Random(11)
    checked = 0
    for n in (1, 2, 3, 4):
        for base in enumerate_ririgs(n):
            for k in (0, 1, 2):
                for M in enumerate_modal_expansions(base, k):
                    form = brute_force_form(M)
                    assert canonical_form(M) == form
                    B = permuted(M, displacing_relabeling(M, rng))
                    assert canonical_form(B) == brute_force_form(B) == form
                    checked += 1
    assert checked == 11 + 100 + 1252


def test_canonical_form_matches_oracle_off_ririgs():
    """The fixed-0/1 argument needs only shape-valid tables: random
    tables, including zero == one, agree with the oracle."""
    rng = random.Random(12)
    for trial in range(40):
        n = rng.choice((2, 3, 4))
        table = lambda: [[rng.randrange(n) for _ in range(n)]
                         for _ in range(n)]
        zero = rng.randrange(n)
        one = zero if trial % 2 else rng.randrange(n)
        base = Algebra(n, table(), table(), table(), zero, one)
        M = base.with_modals(ModalSignature(("m1",)),
                             (tuple(rng.randrange(n) for _ in range(n)),))
        for A in (base, M):
            assert canonical_form(A) == brute_force_form(A)


def test_canonical_form_separates():
    assert canonical_form(g3_delta()) != canonical_form(g3_id())
    assert canonical_form(g3()) != canonical_form(luk3())


def test_canonical_form_b2_frozen():
    assert canonical_form(b2()).hex() == "02000100000101010000000101010001"


def test_catalog_contains_fixtures():
    cat = catalog_build(3, 1)
    forms = {e.form for e in cat.entries}
    assert canonical_form(g3_delta()) in forms
    assert canonical_form(g3_id()) in forms


def test_catalog_entry_count_k0():
    assert len(catalog_build(2, 0).entries) == 2    # sizes 1 and 2


def check_flags(cat, every):
    """Each entry equals the one-algebra path's; every `every`-th
    nontrivial entry's simple flag equals the block route's decision."""
    from ririg.filters import is_simple
    for k, e in enumerate(cat.entries):
        assert e == CatalogEntry.from_algebra(e.algebra, form=e.form)
        if k % every == 0 and not e.trivial:
            assert e.simple == is_simple(e.algebra)[0]


def test_catalog_flags_match_recomputation():
    """The flags computed once per base and modal table equal the ones of
    each algebra alone, on catalogs with one and two modals, with
    constraints, and with plain ririgs."""
    from ririg.filters import is_simple, is_subdirectly_irreducible
    cat = catalog_build(3, 1)
    for e in cat.entries:
        A = e.algebra
        assert e.trivial == (A.size == 1)
        assert e.chain == is_chain(A)
        assert e.contractive == is_contractive(A)
        assert e.in_rc == in_chain_variety(A)
        if not e.trivial:
            assert e.simple == is_simple(A)[0]
            assert e.si == is_subdirectly_irreducible(A)[0]
        else:
            assert e.simple is None and e.si is None
    for args in ((5, 1), (4, 2), (4, 2, ("contractive", "P")),
                 (4, 1, ("Cm", "chain")), (4, 0)):
        check_flags(catalog_build(*args), every=7)


@pytest.mark.extended
def test_size6_catalog_flags_match_recomputation():
    check_flags(catalog_build(6, 1, size_cap=6), every=31)


def test_no_duplicate_forms(catalog4):
    forms = [canonical_form(A) for A in catalog4]
    assert len(forms) == len(set(forms))


def test_catalog_save_load_roundtrip(tmp_path):
    cat = catalog_build(3, 1)
    path = tmp_path / "c.cat"
    catalog_save(cat, path)
    again = catalog_load(path)
    assert again == cat
    # the file is line-oriented: header then one record per algebra
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(cat.entries)


def test_catalog_version_check(tmp_path):
    cat = catalog_build(2, 0)
    path = tmp_path / "c.cat"
    catalog_save(cat, path)
    text = path.read_text().replace('"version": 1', '"version": 99')
    with pytest.raises(ValueError):
        catalog_loads(text)
    with pytest.raises(ValueError):
        catalog_loads("{}")
    with pytest.raises(ValueError):
        catalog_loads("")


def test_constraint_filters():
    contractive = catalog_build(3, 1, ("contractive",))
    assert all(e.contractive for e in contractive.entries)
    chains = catalog_build(4, 0, ("chain",))
    assert all(e.chain for e in chains.entries)
    with pytest.raises(ValueError):
        catalog_build(3, 1, ("frobnicate",))
    # checked before the loop over sizes, which runs no base here
    with pytest.raises(ValueError, match="unknown constraints"):
        catalog_build(0, 1, ("bogus",))


def naive_enumerate_size3():
    """Full-table scan with no pruning: try every join and product table
    over indices 0..2 with bottom 0 and top 2."""
    found = {}
    n = 3
    for join_flat in itertools.product(range(n), repeat=n * n):
        join = tuple(tuple(join_flat[i * n + j] for j in range(n))
                     for i in range(n))
        if any(join[a][b] != join[b][a] for a in range(n) for b in range(n)):
            continue
        if any(join[a][a] != a for a in range(n)):
            continue
        if any(join[join[a][b]][c] != join[a][join[b][c]]
               for a in range(n) for b in range(n) for c in range(n)):
            continue
        if any(join[0][a] != a for a in range(n)):
            continue
        if any(join[2][a] != 2 for a in range(n)):
            continue
        for prod_flat in itertools.product(range(n), repeat=n * n):
            prod = tuple(tuple(prod_flat[i * n + j] for j in range(n))
                         for i in range(n))
            if any(prod[a][b] != prod[b][a]
                   for a in range(n) for b in range(n)):
                continue
            if any(prod[2][a] != a for a in range(n)):
                continue
            if any(prod[0][a] != 0 for a in range(n)):
                continue
            if any(prod[prod[a][b]][c] != prod[a][prod[b][c]]
                   for a in range(n) for b in range(n) for c in range(n)):
                continue
            if any(prod[a][join[b][c]] != join[prod[a][b]][prod[a][c]]
                   for a in range(n) for b in range(n) for c in range(n)):
                continue
            try:
                imp = synthesize_imp(n, join, prod)
            except ValueError:
                continue
            A = Algebra(n, join, prod, imp, 0, 2)
            found[canonical_form(A)] = A
    return found


def test_size3_count_matches_naive_scan():
    naive = naive_enumerate_size3()
    pruned = {canonical_form(A) for A in enumerate_ririgs(3)}
    assert set(naive) == pruned
    assert len(naive) == 2


@pytest.mark.parametrize("name", ["cat2.cat", "cat2_m.cat", "cat3.cat",
                                  "cat3_m.cat", "cat4.cat", "cat4_m.cat"])
def test_shipped_catalogs_rebuild_byte_for_byte(name, tmp_path):
    shipped = DATA / name
    header = json.loads(shipped.read_text().splitlines()[0])
    cat = catalog_build(header["max_size"], header["modals"],
                        header["constraints"])
    catalog_save(cat, tmp_path / name)
    assert (tmp_path / name).read_bytes() == shipped.read_bytes()


@pytest.mark.parametrize("args", [(4, 2), (4, 2, ("contractive", "P"))])
def test_stored_forms_are_canonical(args):
    for e in catalog_build(*args).entries:
        assert e.form == canonical_form(e.algebra)


def test_catalog_loads_rejects_truncated_file():
    lines = (DATA / "cat3_m.cat").read_text().splitlines()
    with pytest.raises(ValueError, match="count 13 but 12 records"):
        catalog_loads("\n".join(lines[:-1]))


def test_catalog_loads_checks_the_header_fields():
    lines = (DATA / "cat3_m.cat").read_text().splitlines()
    header = json.loads(lines[0])
    for key, value, message in (
            ("count", "13", "header count '13' is not a non-negative"),
            ("count", -1, "header count -1 is not a non-negative"),
            ("max_size", "x", "header max_size 'x' is not a non-negative"),
            ("max_size", 3.0, "header max_size 3.0 is not a non-negative"),
            ("modals", True, "header modals True is not a non-negative"),
            ("constraints", "P", "header constraints 'P' are not a list"),
            ("constraints", ["P", "Q"], r"header constraints \['P', 'Q'\]"),
            ("constraints", [["P"]], r"header constraints \[\['P'\]\]")):
        bad = dict(header, **{key: value})
        with pytest.raises(ValueError, match=f"^line 1: {message}"):
            catalog_loads("\n".join([json.dumps(bad)] + lines[1:]))
    good = dict(header, constraints=list(KNOWN_CONSTRAINTS))
    assert catalog_loads("\n".join([json.dumps(good)] + lines[1:])) \
        .constraints == KNOWN_CONSTRAINTS


def test_catalog_loads_checks_the_flags():
    lines = (DATA / "cat2.cat").read_text().splitlines()
    trivial, nontrivial = json.loads(lines[1]), json.loads(lines[2])
    assert trivial["size"] == 1 and nontrivial["size"] == 2
    for rec, key, value, message in (
            (nontrivial, "chain", 7, "flag chain 7 is not a boolean"),
            (nontrivial, "simple", "no", "flag simple 'no' is not a "),
            (nontrivial, "in_rc", None, "flag in_rc None is not a "),
            (nontrivial, "trivial", 0, "flag trivial 0 is not a "),
            (nontrivial, "trivial", True, "flag trivial True but size 2"),
            (trivial, "trivial", False, "flag trivial False but size 1"),
            (nontrivial, "si", None, "flags simple True and si None must "
                                     "be null exactly for the trivial"),
            (trivial, "simple", False, "flags simple False and si None ")):
        bad = dict(rec, flags=dict(rec["flags"], **{key: value}))
        number = 2 if rec is trivial else 3
        text = "\n".join(lines[:number - 1] + [json.dumps(bad)]
                         + lines[number:])
        with pytest.raises(ValueError, match=f"^line {number}: {message}"):
            catalog_loads(text)


def test_catalog_loads_names_the_bad_line():
    lines = (DATA / "cat3_m.cat").read_text().splitlines()
    rec = json.loads(lines[3])
    del rec["flags"]["si"]
    missing = lines[:3] + [json.dumps(rec)] + lines[4:]
    with pytest.raises(ValueError, match="line 4: missing key 'si'"):
        catalog_loads("\n".join(missing))
    broken = lines[:5] + [lines[5][:40]] + lines[6:]
    with pytest.raises(ValueError, match="line 6: "):
        catalog_loads("\n".join(broken))
    with pytest.raises(ValueError, match="line 1: "):
        catalog_loads("\n".join(["{"] + lines[1:]))
    del rec["flags"]
    with pytest.raises(ValueError, match="line 2: missing key 'flags'"):
        catalog_loads("\n".join(lines[:1] + [json.dumps(rec)]
                                + lines[2:]))
