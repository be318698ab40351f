"""Rebuild the shipped catalogs under bench/inputs/.

    python3 bench/make_inputs.py

Builds the (5, 1) and (4, 2) catalogs with `ririg` from `src/`, saves
them with `catalog_save` and gzips them without a timestamp, so the same
catalogs give the same bytes.  The survey and entail workloads read these
files at set-up instead of building the catalogs, which would take most
of a run; the enumerate workload times the builds.
"""

from __future__ import annotations

import gzip
import os
import sys

from common import CATALOGS, INPUTS, ROOT, out_dir, records_digest, \
    shipped_catalog_path


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ririg import catalog

    os.makedirs(INPUTS, exist_ok=True)
    for key in sorted(CATALOGS):
        path = os.path.join(out_dir("inputs"), f"build-{key[0]}-{key[1]}.cat")
        catalog.catalog_save(catalog.catalog_build(*key), path)
        with open(path, "rb") as fh:
            data = fh.read()
        if records_digest(data) != CATALOGS[key][1]:
            sys.exit(f"catalog {key} differs from the reference digest")
        with open(shipped_catalog_path(key), "wb") as raw, \
                gzip.GzipFile(fileobj=raw, mode="wb", mtime=0,
                              filename="") as fh:
            fh.write(data)
        print(shipped_catalog_path(key))


if __name__ == "__main__":
    main()
