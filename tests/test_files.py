import gzip
import json
import pathlib

import pytest

from ririg.catalog import canonical_form, catalog_build, catalog_load, \
    catalog_loads
from ririg.files import FileFormatError, algebra_from_dict, algebra_to_dict, \
    load_algebra, load_function, save_algebra, save_function
from ririg.fixtures import g3_delta, luk3
from ririg.compat import FiniteFunction, check_size

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "data"


def test_load_fixture_files():
    A, labels = load_algebra(DATA / "g3delta.alg")
    assert labels == ["0", "a", "1"]
    assert canonical_form(A) == canonical_form(g3_delta())


def test_imp_synthesized_when_missing():
    A, _ = load_algebra(DATA / "luk3.alg")
    assert A.imp == luk3().imp


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "x.alg"
    save_algebra(g3_delta(), path, labels=["0", "a", "1"])
    B, labels = load_algebra(path)
    assert B == g3_delta() and labels == ["0", "a", "1"]


def test_flat_tables_accepted():
    doc = algebra_to_dict(luk3())
    doc["join"] = [x for row in doc["join"] for x in row]
    A, _ = algebra_from_dict(doc)
    assert A.join == luk3().join


def bad_doc(**overrides):
    doc = algebra_to_dict(g3_delta())
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("overrides,needle", [
    ({"size": "3"}, "size"),
    ({"zero": 7}, "zero"),
    ({"join": [[0, 1], [1, 1]]}, "join"),
    ({"prod": None}, "prod"),
    ({"modals": {"m": [0, 0, 9]}}, "modals.m"),
    ({"modals": {"v0": [0, 1, 2]}}, "modals"),
    ({"labels": ["x", "x", "y"]}, "labels"),
    ({"labels": ["x"]}, "labels"),
])
def test_malformed_documents_name_the_field(overrides, needle):
    with pytest.raises(FileFormatError) as e:
        algebra_from_dict(bad_doc(**overrides))
    assert needle in str(e.value)


def test_missing_table_entry_position():
    doc = algebra_to_dict(g3_delta())
    doc["join"] = [[0, 1, 2], [1, 1, 2], [2, 2, 5]]
    with pytest.raises(FileFormatError) as e:
        algebra_from_dict(doc)
    assert "entry 8" in str(e.value)


def test_bad_entry_without_imp_is_named():
    # the entries are checked before imp is synthesized from join and prod
    doc = algebra_to_dict(luk3())
    del doc["imp"]
    doc["join"][2][2] = 2.0
    with pytest.raises(FileFormatError, match=r"^join table, entry 8: 2.0 "
                                              r"is not an integer in \[0,3\)$"):
        algebra_from_dict(doc)
    doc = algebra_to_dict(luk3())
    del doc["imp"]
    doc["prod"] = [x for row in doc["prod"] for x in row]
    doc["prod"][5] = "1"
    with pytest.raises(FileFormatError, match=r"^prod table, entry 5: '1' "):
        algebra_from_dict(doc)


def test_shipped_inputs_load():
    """Every algebra, function and catalog file under data/ loads through
    the public loaders, and the benchmark's shipped catalogs equal their
    builds entry for entry: the decoders accept every file we ship."""
    G3, _ = load_algebra(DATA / "g3.alg")
    algebras, functions = sorted(DATA.glob("*.alg")), sorted(DATA.glob("*.fn"))
    catalogs = sorted(DATA.glob("*.cat"))
    assert len(algebras) == 5 and len(functions) == 2 and len(catalogs) == 6
    for path in algebras:
        load_algebra(path)
    for path in functions:      # the function files act on g3
        check_size(G3, load_function(path))
    for path in catalogs:
        catalog_load(path)
    shipped = sorted((ROOT / "bench" / "inputs").glob("catalog-*.cat.gz"))
    assert [p.name for p in shipped] == ["catalog-4-2.cat.gz",
                                         "catalog-5-1.cat.gz"]
    for path in shipped:
        max_size, modals = map(int, path.name[8:-7].split("-"))
        with gzip.open(path, "rt") as fh:
            loaded = catalog_loads(fh.read())
        built = catalog_build(max_size, modals)
        assert (loaded.max_size, loaded.modals, loaded.constraints) \
            == (built.max_size, built.modals, built.constraints)
        assert len(loaded.entries) == len(built.entries)
        for got, want in zip(loaded.entries, built.entries):
            assert got == want


def test_json_error_carries_line(tmp_path):
    path = tmp_path / "broken.alg"
    path.write_text('{\n "size": 3,\n BROKEN\n}\n')
    with pytest.raises(FileFormatError) as e:
        load_algebra(path)
    assert "line 3" in str(e.value)


def test_non_residuated_input_rejected(tmp_path):
    doc = {
        "size": 4, "zero": 0, "one": 3,
        "join": [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
        "prod": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 3, 0, 0]],
    }
    path = tmp_path / "bad.alg"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError) as e:
        load_algebra(path)
    assert "synthesize" in str(e.value)


def test_permuted_element_positions_accepted():
    # zero/one are stored indices: the same algebra with 1 at index 0
    doc = {
        "size": 2, "zero": 1, "one": 0,
        "join": [[0, 0], [0, 1]],
        "prod": [[0, 1], [1, 1]],
    }
    A, _ = algebra_from_dict(doc)
    from ririg.fixtures import b2
    assert canonical_form(A) == canonical_form(b2())


def test_function_files(tmp_path):
    f = FiniteFunction(2, tuple(range(4)))
    path = tmp_path / "f.fn"
    save_function(f, path)
    assert load_function(path) == f
    bad = tmp_path / "bad.fn"
    bad.write_text('{"arity": 2, "table": [0, 1, 2]}')
    with pytest.raises(FileFormatError):
        load_function(bad)
