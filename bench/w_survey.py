"""survey: analyse every algebra of the (5, 1) and (4, 2) catalogs, each
read from its own algebra file.

Many distinct algebras and few queries per algebra, so per-algebra set-up
(the partition scan and the cache fills) dominates: the opposite of
compat-sweep.  A change that moves cost into per-algebra set-up shows as a
loss here.  The calls go straight to the layers, not through `cli.main`,
which rebuilds its argument parser on every call.

Set-up reads the shipped catalogs with `catalog_load` and writes each of
their 2215 algebras to its own file with `save_algebra`.  A pass reads
every file with `load_algebra` and analyses it, in seeded order.
"""

from __future__ import annotations

import os

from ririg import catalog, files, filters, modal, terms

import oracles
from common import CATALOGS, Op, out_dir, rng_for, unpack_catalog


def setup(seed):
    directory = out_dir("survey")
    paths = []
    for key in sorted(CATALOGS):
        cat = catalog.catalog_load(unpack_catalog(key, directory))
        for A in cat.algebras():
            path = os.path.join(directory, f"{len(paths):04d}.alg")
            files.save_algebra(A, path)
            paths.append(path)
    rng_for(seed, "survey").shuffle(paths)
    return {"paths": paths}


def analyse(path):
    A, _ = files.load_algebra(path)
    n = A.size
    out = {"algebra": A,
           "modal_valid": modal.validate_modal(A).passed,
           "filters": filters.all_ifilters(A)}
    out["thetas"] = [filters.theta_from_filter(A, F) for F in out["filters"]]
    out["congruences"] = filters.all_congruences_direct(A)
    generated = []
    for X in _subsets(n):
        generated.append((X, filters.generate_filter(A, X),
                          filters.generate_filter_blocks_stabilized(A, X),
                          filters.generate_filter_lambda(A, X)))
    out["generated"] = generated
    if n > 1:
        out["simple"] = filters.is_simple(A)[0]
        out["si"] = filters.is_subdirectly_irreducible(A)[0]
    out["member"] = terms.in_chain_variety(A)
    if out["member"]:
        out["fg"] = terms.fg_intersection_check(A)[0]
    out["cep"] = filters.cep_check(A)[0]
    return out


def oracle(A):
    """The independent answers for one algebra."""
    congs = oracles.congruences(A)
    filters_ = oracles.filters_of(A, congs)
    return {"congruences": congs, "filters": filters_,
            "least": {frozenset(X): oracles.least_filter(A, filters_, X)
                      for X in _subsets(A.size)},
            "simple_si": oracles.simple_and_si(A, congs) if A.size > 1
            else None,
            "member": oracles.in_chain_variety(A)}


def _subsets(n):
    return [{i for i in range(n) if mask >> i & 1} for mask in range(1 << n)]


def check(out, answer):
    A = out["algebra"]
    congs, filters_ = answer["congruences"], answer["filters"]
    ok = out["modal_valid"]
    ok &= set(out["filters"]) == filters_
    ok &= len(out["filters"]) == len(out["congruences"]) == len(congs)
    ok &= set(out["congruences"]) == set(congs)
    ok &= set(out["thetas"]) == set(congs)
    ok &= len(out["generated"]) == len(answer["least"])
    for X, closure, blocks, lam in out["generated"]:
        ok &= closure == blocks == lam == answer["least"][frozenset(X)]
    if A.size > 1:
        ok &= (out["simple"], out["si"]) == answer["simple_si"]
    ok &= out["member"] == answer["member"]
    ok &= out.get("fg", True) is True
    ok &= out["cep"] is True
    return bool(ok)


def ops(state, p):
    """One pass: every algebra file, in the seeded order."""
    return [Op("algebra", lambda path=path: analyse(path),
               lambda out: check(out, oracle(out["algebra"])))
            for path in state["paths"]]
