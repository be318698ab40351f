"""Algebra and function files: JSON documents with exact integer entries.

Algebra fields: size, zero, one, join (n x n), prod (n x n), optional imp
(synthesized from join/prod when missing), optional modals (ordered map
name -> length-n array), optional labels (n strings echoed in reports).
A table is nested rows or one flat row-major list.  This module reads the
layout; the `Algebra` constructor checks every entry, and its errors name
the table and the entry's row-major position.  A catalog record (see
`catalog`) is an algebra document without labels, plus `form` and `flags`.
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


def _rows(rows, n: int):
    """A table as the document gives it: nested rows as they are, a flat
    row-major list of n*n entries split into rows."""
    if isinstance(rows, list) and len(rows) == n * n \
            and not isinstance(rows[0], list):
        return [rows[i:i + n] for i in range(0, n * n, n)]
    return rows


def algebra_from_dict(doc: dict) -> tuple[Algebra, list[str]]:
    """The algebra of a document, and its labels ("0" to "n-1" when it
    gives none).  The `Algebra` constructor checks the entries."""
    n = _int_field(doc, "size", 1, 2 ** 16)
    for field in ("zero", "one", "join", "prod"):
        if field not in doc:
            raise FileFormatError(f"missing field {field!r}")
    modals = doc.get("modals", {})
    if not isinstance(modals, dict):
        raise FileFormatError("field 'modals': expected an object")
    try:
        sig = ModalSignature(tuple(modals))
    except ValueError as e:
        raise FileFormatError(f"field 'modals': {e}") from None
    join, prod = _rows(doc["join"], n), _rows(doc["prod"], n)
    try:
        imp = _rows(doc["imp"], n) if "imp" in doc \
            else synthesize_imp(n, join, prod)
        A = Algebra(n, join, prod, imp, doc["zero"], doc["one"], sig,
                    tuple(modals.values()))
    except ValueError as e:
        raise FileFormatError(str(e)) from None
    if "labels" not in doc:
        return A, [str(i) for i in range(n)]
    labels = doc["labels"]
    if not (isinstance(labels, list) and len(labels) == n
            and all(isinstance(s, str) for s in labels)):
        raise FileFormatError(f"field 'labels': expected {n} strings")
    if len(set(labels)) != n:
        raise FileFormatError("field 'labels': labels must be distinct")
    return A, list(labels)


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
            and list(map(type, table)).count(int) == len(table)):
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
