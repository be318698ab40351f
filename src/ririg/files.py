"""Algebra and function files: JSON documents with exact integer entries.

Algebra fields: size, zero, one, join (n x n), prod (n x n), optional imp
(synthesized from join/prod when missing), optional modals (ordered map
name -> length-n array), optional labels (n strings echoed in reports).
Function fields: arity, table (flat, row-major, last argument fastest).
"""

from __future__ import annotations

import json

from .compat import FiniteFunction
from .core import Algebra, ModalSignature, synthesize_imp


class FileFormatError(ValueError):
    pass


def _load_json(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(
            f"{what}: invalid JSON at line {e.lineno}, column {e.colno}: "
            f"{e.msg}") from None
    if not isinstance(doc, dict):
        raise FileFormatError(f"{what}: top level must be an object")
    return doc


def _int_field(doc: dict, field: str, lo: int, hi: int) -> int:
    if field not in doc:
        raise FileFormatError(f"missing field {field!r}")
    v = doc[field]
    if not isinstance(v, int) or isinstance(v, bool) or not lo <= v < hi:
        raise FileFormatError(
            f"field {field!r}: expected an integer in [{lo},{hi}), got {v!r}")
    return v


def _table_field(doc: dict, field: str, n: int):
    rows = doc[field]
    flat = None
    if isinstance(rows, list) and len(rows) == n * n \
            and all(isinstance(x, int) and not isinstance(x, bool)
                    for x in rows):
        flat = rows
    elif isinstance(rows, list) and len(rows) == n \
            and all(isinstance(r, list) and len(r) == n for r in rows):
        flat = [x for r in rows for x in r]
    if flat is None:
        raise FileFormatError(
            f"field {field!r}: expected an {n}x{n} table "
            f"(nested rows or flat row-major list)")
    for pos, x in enumerate(flat):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
            raise FileFormatError(
                f"field {field!r}, entry {pos}: {x!r} not in [0,{n})")
    return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))


def algebra_from_dict(doc: dict) -> tuple[Algebra, list[str]]:
    n = _int_field(doc, "size", 1, 2 ** 16)
    zero = _int_field(doc, "zero", 0, n)
    one = _int_field(doc, "one", 0, n)
    for field in ("join", "prod"):
        if field not in doc:
            raise FileFormatError(f"missing field {field!r}")
    join = _table_field(doc, "join", n)
    prod = _table_field(doc, "prod", n)
    if "imp" in doc:
        imp = _table_field(doc, "imp", n)
    else:
        try:
            imp = synthesize_imp(n, join, prod)
        except ValueError as e:
            raise FileFormatError(f"cannot synthesize imp: {e}") from None

    modals = doc.get("modals", {})
    if not isinstance(modals, dict):
        raise FileFormatError("field 'modals': expected an object")
    tables = []
    for name, t in modals.items():
        if not (isinstance(t, list) and len(t) == n
                and all(isinstance(x, int) and not isinstance(x, bool)
                        and 0 <= x < n for x in t)):
            raise FileFormatError(
                f"field 'modals.{name}': expected length-{n} array of "
                f"indices")
        tables.append(tuple(t))
    try:
        sig = ModalSignature(tuple(modals))
    except ValueError as e:
        raise FileFormatError(f"field 'modals': {e}") from None

    labels = doc.get("labels", [str(i) for i in range(n)])
    if not (isinstance(labels, list) and len(labels) == n
            and all(isinstance(s, str) for s in labels)):
        raise FileFormatError(f"field 'labels': expected {n} strings")
    if len(set(labels)) != n:
        raise FileFormatError("field 'labels': labels must be distinct")
    return (Algebra(n, join, prod, imp, zero, one, sig, tuple(tables)),
            list(labels))


def load_algebra(path) -> tuple[Algebra, list[str]]:
    with open(path) as fh:
        doc = _load_json(fh.read(), str(path))
    try:
        return algebra_from_dict(doc)
    except FileFormatError as e:
        raise FileFormatError(f"{path}: {e}") from None


def algebra_to_dict(A: Algebra, labels=None) -> dict:
    doc = {
        "size": A.size,
        "zero": A.zero,
        "one": A.one,
        "join": [list(r) for r in A.join],
        "prod": [list(r) for r in A.prod],
        "imp": [list(r) for r in A.imp],
    }
    if A.sig.names:
        doc["modals"] = {name: list(t)
                         for name, t in zip(A.sig.names, A.modal_tables)}
    if labels is not None:
        doc["labels"] = list(labels)
    return doc


def save_algebra(A: Algebra, path, labels=None) -> None:
    with open(path, "w") as fh:
        json.dump(algebra_to_dict(A, labels), fh, indent=1)
        fh.write("\n")


def load_function(path) -> FiniteFunction:
    with open(path) as fh:
        doc = _load_json(fh.read(), str(path))
    arity = _int_field(doc, "arity", 1, 2 ** 8)
    table = doc.get("table")
    if not (isinstance(table, list)
            and all(isinstance(x, int) and not isinstance(x, bool)
                    for x in table)):
        raise FileFormatError(f"{path}: field 'table': expected a flat "
                              "integer list")
    try:
        return FiniteFunction(arity, tuple(table))
    except ValueError as e:
        raise FileFormatError(f"{path}: {e}") from None


def save_function(f: FiniteFunction, path) -> None:
    with open(path, "w") as fh:
        json.dump({"arity": f.arity, "table": list(f.table)}, fh)
        fh.write("\n")
