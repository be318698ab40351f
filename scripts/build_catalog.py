#!/usr/bin/env python3
"""Build and save the standard catalogs used by the CLI examples.

For each n from 2 to --max-size (default 4), writes cat{n}.cat, every
algebra of size <= n with no modal, and cat{n}_m.cat, every algebra of
size <= n with one modal, into --out-dir (default data/).
"""

import argparse
import pathlib
import sys

from ririg.catalog import catalog_build, catalog_save

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-size", type=int, default=4)
    ap.add_argument("--out-dir", default=str(DATA))
    args = ap.parse_args(argv)
    out = pathlib.Path(args.out_dir)
    out.mkdir(exist_ok=True)
    for n in range(2, args.max_size + 1):
        for k in (0, 1):
            catalog = catalog_build(n, k)
            path = out / f"cat{n}{'' if k == 0 else '_m'}.cat"
            catalog_save(catalog, path)
            print(f"{path}: {len(catalog.entries)} algebras")
    return 0


if __name__ == "__main__":
    sys.exit(main())
