"""Pieces shared by the workloads: seeding, ops, the output directory, and
the shipped catalogs."""

from __future__ import annotations

import gzip
import hashlib
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(ROOT, ".bench_out")
INPUTS = os.path.join(BENCH, "inputs")

# (max_size, modals) -> (entries, sha256 of the saved records, i.e. every
# line of the catalog file after the header)
CATALOGS = {
    (5, 1): (963, "e51266ae079587f002e5eb7e9ae1ebd1"
                  "d42fbe85c2846b4738c9f93bb0f7dfe7"),
    (4, 2): (1252, "647a97ed06e4ef22ee8db2a37c35e32e"
                   "f8ec014a81df5e89885c468004b1b9a9"),
}


def derive_seed(seed: int, *labels) -> int:
    """A stable 64-bit seed from the run seed and labels.  Never `hash()`:
    string hashes are salted per process."""
    text = "|".join(str(x) for x in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def rng_for(seed: int, *labels) -> random.Random:
    return random.Random(derive_seed(seed, *labels))


def out_dir(*parts) -> str:
    path = os.path.join(OUT_DIR, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def records_digest(data: bytes) -> str:
    """SHA-256 of a catalog file's records: every line after the header."""
    return hashlib.sha256(data.split(b"\n", 1)[1]).hexdigest()


def shipped_catalog_path(key) -> str:
    return os.path.join(INPUTS, f"catalog-{key[0]}-{key[1]}.cat.gz")


def unpack_catalog(key, directory) -> str:
    """Write the shipped catalog `key` under `directory`, after checking
    its records against the reference digest; return the file's path."""
    with gzip.open(shipped_catalog_path(key), "rb") as fh:
        data = fh.read()
    if records_digest(data) != CATALOGS[key][1]:
        raise ValueError(f"shipped catalog {key} differs from the reference")
    path = os.path.join(directory, f"catalog-{key[0]}-{key[1]}.cat")
    with open(path, "wb") as fh:
        fh.write(data)
    return path


@dataclass
class Op:
    """One unit of measured work.

    `run` is the timed call; `check` takes its result and returns True when
    it matches the independent answer, and runs outside the timed span.
    `weight` is how many ops of the workload's unit the call completes
    (catalog algebras, for a catalog build).
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    weight: int = 1
