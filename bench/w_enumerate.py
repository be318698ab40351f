"""enumerate: build the (5, 1) and (4, 2) catalogs and save them.

The only workload where canonicalization and product-table search do most
of the work (`canonical_form` is 89% of `catalog_build(5, 1)` under
cProfile).  There are no inputs to generate, so set-up is loading the
package into a fresh interpreter.  The op unit is one catalog algebra
emitted; a build is one batch, so each of its algebras has the batch's
build-and-save time as latency.
"""

from __future__ import annotations

import os
import subprocess
import sys

from ririg import catalog

from common import CATALOGS, Op, ROOT, out_dir, records_digest, rng_for

# Bělohlávek and Vychodil, "Residuated lattices of size <= 12" (2010):
# commutative integral residuated lattices of sizes 1..5.
PUBLISHED_BASES = (1, 1, 2, 7, 26)


def setup(seed):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-c", "import ririg"], env=env,
                   cwd=ROOT, check=True)
    order = sorted(CATALOGS)
    rng_for(seed, "enumerate").shuffle(order)
    return {"order": order, "dir": out_dir("enumerate")}


def check_catalog(key, path, cat):
    entries, digest = CATALOGS[key]
    max_size = key[0]
    bases = [set() for _ in range(max_size)]
    for e in cat.entries:
        A = e.algebra
        bases[A.size - 1].add((A.join, A.prod))
    return (tuple(len(b) for b in bases) == PUBLISHED_BASES[:max_size]
            and len(cat.entries) == entries
            and _saved_digest(path) == digest)


def _saved_digest(path):
    with open(path, "rb") as fh:
        return records_digest(fh.read())


def _build_op(key, path):
    def run():
        cat = catalog.catalog_build(*key)
        catalog.catalog_save(cat, path)
        return cat
    return Op(f"catalog{key[0]}{key[1]}", run,
              lambda cat: check_catalog(key, path, cat),
              weight=CATALOGS[key][0])


def ops(state, p):
    """One pass: both catalogs, in the seeded order."""
    return [_build_op(key, os.path.join(state["dir"],
                                        f"catalog-{key[0]}-{key[1]}.cat"))
            for key in state["order"]]
