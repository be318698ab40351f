"""Command-line workbench.

Exit codes: 0 the checked property holds (or the task succeeded), 1 the
property fails and the report carries a replayable witness, 2 usage or
input error, 3 search bound exhausted / undecided.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys

from . import catalog as cat
from . import compat as cp
from . import filters as fl
from . import terms as tm
from .core import validate_ririg
from .files import FileFormatError, load_algebra, load_function
from .logic import CATALOG_CAVEAT, check_proof, lddt_witness, \
    parse_proof, semantic_entails, soundness_check
from .modal import format_block, validate_modal
from .parsing import ParseError, format_term, parse_equation, parse_formula

ENV_CATALOG = "RIRIG_CATALOG"

OK, FAIL, USAGE, UNDECIDED = 0, 1, 2, 3


class CliError(Exception):
    pass


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=1))
        return
    def render(value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            for k, v in value.items():
                if isinstance(v, (dict, list)) and v:
                    print(f"{pad}{k}:")
                    render(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v if v != [] else '[]'}")
        elif isinstance(value, list):
            for v in value:
                if isinstance(v, (dict, list)):
                    render(v, indent)
                    print()
                else:
                    print(f"{pad}- {v}")
        else:
            print(f"{pad}{value}")
    render(report)


def _load(path):
    try:
        return load_algebra(path)
    except (FileFormatError, OSError) as e:
        raise CliError(str(e)) from None


def _load_modal_ririg(path):
    """Load an algebra and refuse it unless it is an I-modal ririg, which
    every answer resting on theta_F or on the filter routes assumes."""
    A, labels = _load(path)
    try:
        cp.check_modal_ririg(A)
    except ValueError as e:
        raise CliError(f"{path}: {e}") from None
    return A, labels


def _subset_text(S, labels):
    return "{" + ",".join(labels[i] for i in sorted(S)) + "}"


def _partition_text(theta, labels):
    classes = {}
    for i, c in enumerate(theta):
        classes.setdefault(c, []).append(i)
    return " | ".join(_subset_text(members, labels)
                      for _, members in sorted(classes.items()))


def _parse_element(part: str, labels) -> int:
    if not isinstance(part, str):
        raise CliError(f"unknown element {part!r}")
    part = part.strip()
    if part in labels:
        return labels.index(part)
    if part.isdecimal() and int(part) < len(labels):
        return int(part)
    raise CliError(f"unknown element {part!r}")


def _parse_elements(spec_text: str, labels) -> list[int]:
    if not spec_text:
        return []
    return [_parse_element(part, labels) for part in spec_text.split(",")]


def _load_catalog(args) -> list:
    """The algebras of the --catalog or $RIRIG_CATALOG file; a missing,
    unreadable or empty catalog is a usage error."""
    path = getattr(args, "catalog", None) or os.environ.get(ENV_CATALOG)
    if not path:
        raise CliError(f"no catalog: pass --catalog or set {ENV_CATALOG}")
    try:
        algebras = cat.catalog_load(path).algebras()
    except (OSError, ValueError) as e:
        raise CliError(f"cannot load catalog: {e}") from None
    if not algebras:
        raise CliError("empty catalog")
    return algebras


def _read_witness(args, labels, **kinds):
    """The --verify-witness fields named by `kinds`, each parsed by its kind,
    or None without the option; a missing or bad field is a usage error."""
    witness = _witness_object(args)
    if witness is None:
        return None
    values = []
    for field, kind in kinds.items():
        if field not in witness:
            raise CliError(f"witness field {field!r} is missing")
        try:
            values.append(_parse_field(kind, witness[field], labels))
        except CliError as e:
            raise CliError(f"witness field {field!r}: {e}") from None
    return values


def _witness_object(args):
    """The --verify-witness JSON object, or None without the option."""
    if args.verify_witness is None:
        return None
    try:
        witness = json.loads(args.verify_witness)
    except json.JSONDecodeError as e:
        raise CliError(f"--verify-witness is not valid JSON: {e}") from None
    if not isinstance(witness, dict):
        raise CliError("--verify-witness must be a JSON object")
    return witness


def _parse_field(kind, value, labels):
    """One witness value; a valuation {"v<i>": x} is returned as {i: x}."""
    match kind:
        case "element":
            return _parse_element(value, labels)
        case "elements" if isinstance(value, list):
            return frozenset(_parse_element(x, labels) for x in value)
        case "pair" if isinstance(value, list) and len(value) == 2:
            return [_parse_element(x, labels) for x in value]
        case ("pairs", count) if isinstance(value, list):
            if len(value) != count:
                raise CliError(f"witness has {len(value)} pairs but the "
                               f"function has arity {count}")
            return [_parse_field("pair", p, labels) for p in value]
        case ("tuples", k) if (
                isinstance(value, list) and len(value) == 2
                and all(isinstance(t, list) and len(t) == k for t in value)):
            return [[_parse_element(x, labels) for x in t] for t in value]
        case "partition" if isinstance(value, str):
            return _partition_from_text(value, labels)
        case "integers" if (isinstance(value, list)
                            and all(type(x) is int for x in value)):
            return value
        case "positive integer" if type(value) is int and value > 0:
            return value
        case "string" if isinstance(value, str):
            return value
        case "valuation" if isinstance(value, dict) and all(
                re.fullmatch(r"v(0|[1-9][0-9]*)", name) and type(x) is int
                for name, x in value.items()):
            return {int(name[1:]): x for name, x in value.items()}
    raise CliError(f"expected {kind if isinstance(kind, str) else kind[0]}, "
                   f"got {value!r}")


def _require_at_least(args, least, *options):
    """Refuse a numeric option set below `least`; an unset one passes."""
    for option in options:
        value = getattr(args, option.replace("-", "_"))
        if value is not None and value < least:
            raise CliError(f"--{option} must be at least {least}")


def _refuse_given(args, reason, *options):
    """Refuse any of the options that was given where it is not read."""
    for option in options:
        if getattr(args, option.replace("-", "_")) is not None:
            raise CliError(f"--{option} {reason}")


def _congruence_cap(args):
    """--congruence-cap, or its default when it was not given."""
    if args.congruence_cap is None:
        return fl.DEFAULT_CONGRUENCE_CAP
    return args.congruence_cap


def _verdict(reproduced, **report):
    """Exit code and report of a witness replay."""
    report["reproduced"] = reproduced
    return (OK if reproduced else FAIL), report


def _load_function(path, A):
    """Load a function file, refusing a table whose size is not A's."""
    try:
        f = load_function(path)
        cp.check_size(A, f)
    except (OSError, ValueError) as e:
        raise CliError(str(e)) from None
    return f


# ---------------------------------------------------------------------------
# commands

def cmd_check(args):
    A, labels = _load(args.algebra)
    base_report = validate_ririg(A)
    modal_report = validate_modal(A)
    failures = [{"axiom": name, "witness": list(w)}
                for name, w in base_report.failures + modal_report.failures]
    witness = _read_witness(args, labels, axiom="string", witness="integers")
    if witness is not None:
        wanted = dict(zip(("axiom", "witness"), witness))
        return _verdict(wanted in failures, witness=wanted)
    report = {
        "ririg": {"passed": base_report.passed},
        "modal": {name: "ok" for name in A.sig.names},
        "failures": failures,
    }
    if not modal_report.passed:
        for name, _ in modal_report.failures:
            report["modal"][name.split(":")[0]] = "failed"
    return (OK if not failures else FAIL), report


def cmd_filters(args):
    A, labels = _load(args.algebra)
    filters = fl.all_ifilters(A)
    return OK, {
        "count": len(filters),
        "filters": [_subset_text(F, labels) for F in filters],
    }


def cmd_congruences(args):
    A, labels = _load_modal_ririg(args.algebra)
    via_filters = fl.congruences_of(A)
    report = {
        "count": len(via_filters),
        "congruences": [_partition_text(t, labels) for t in via_filters],
    }
    if args.direct:
        direct = fl.all_congruences_direct(A, cap=_congruence_cap(args))
        report["direct-count"] = len(direct)
        report["agrees"] = sorted(direct) == sorted(via_filters)
        if not report["agrees"]:
            return FAIL, report
    return OK, report


def cmd_gen_filter(args):
    A, labels = _load_modal_ririg(args.algebra)
    X = set(_parse_elements(args.set, labels))
    fixpoint = fl.generate_filter(A, X)
    blocks = fl.generate_filter_blocks_stabilized(A, X)
    lam = fl.generate_filter_lambda(A, X)
    report = {
        "set": _subset_text(X, labels),
        "filter": _subset_text(fixpoint, labels),
        "block-route": _subset_text(blocks, labels),
        "lambda-route": _subset_text(lam, labels),
        "routes-agree": fixpoint == blocks == lam,
    }
    return (OK if report["routes-agree"] else FAIL), report


def cmd_simple(args):
    A, labels = _load_modal_ririg(args.algebra)
    if A.size < 2:
        raise CliError("the trivial algebra has no simplicity question")
    witness = _read_witness(args, labels, element="element")
    if witness is not None:
        a, = witness
        return _verdict(a != A.one
                        and A.zero not in fl.generate_filter(A, {a}))
    decision, witnesses = fl.is_simple(A)
    if decision:
        return OK, {
            "simple": True,
            "witnesses": {
                labels[a]: {
                    "blocks": [format_block(M, A.sig) for M in w.blocks],
                    "lambda-exponent": w.lam_exponent,
                    "lambda-power": w.lam_power,
                } for a, w in sorted(witnesses.items())},
        }
    bad = next(a for a in range(A.size)
               if a != A.one and A.zero not in fl.generate_filter(A, {a}))
    return FAIL, {
        "simple": False,
        "witness": {
            "element": labels[bad],
            "proper-filter": sorted(labels[i] for i in
                                    fl.generate_filter(A, {bad}))},
    }


def cmd_si(args):
    A, labels = _load_modal_ririg(args.algebra)
    if A.size < 2:
        raise CliError("the trivial algebra has no irreducibility question")
    witness = _read_witness(args, labels, elements="elements")
    if witness is not None:
        elems, = witness
        meet = frozenset(range(A.size)).intersection(
            *(fl.generate_filter(A, {a}) for a in elems))
        return _verdict(A.one not in elems and meet == {A.one})
    decision, b = fl.is_subdirectly_irreducible(A)
    if decision:
        return OK, {"subdirectly-irreducible": True, "witness": labels[b]}
    nontrivial = [F for F in fl.all_ifilters(A) if len(F) > 1]
    return FAIL, {
        "subdirectly-irreducible": False,
        "witness": {
            "elements": [labels[a] for a in range(A.size) if a != A.one],
            "minimal-filters": [_subset_text(F, labels) for F in nontrivial
                                if not any(G < F for G in nontrivial)]},
    }


def cmd_classify(args):
    A, labels = _load_modal_ririg(args.algebra)
    witness = _read_witness(args, labels, pair="pair")
    if witness is not None:
        (a, b), = witness
        joined = fl.generate_filter(A, {A.join[a][b]})
        split = fl.generate_filter(A, {a}) & fl.generate_filter(A, {b})
        return _verdict(tm.in_chain_variety(A) and joined != split)
    report = {
        "chain": tm.is_chain(A),
        "contractive": tm.is_contractive(A),
        "prelinear": tm.satisfies_prelinearity(A),
        "join-subdistribution": {
            name: tm.satisfies_join_subdistribution(A, name)
            for name in A.sig.names},
        "in-chain-variety": tm.in_chain_variety(A),
    }
    if report["in-chain-variety"]:
        ok, cex = tm.fg_intersection_check(A)
        report["fg-intersection-law"] = ok
        if not ok:
            report["witness"] = {"pair": [labels[cex[0]], labels[cex[1]]]}
            return FAIL, report
    return OK, report


def _compat_routes(A, f, args):
    route = "all" if args.route is None else args.route
    witnesses = bool(args.witnesses)
    routes = {}
    if route in ("all", "direct"):
        routes["direct"] = cp.is_compatible_direct(
            A, f, cap=_congruence_cap(args))
    if route in ("all", "blocks"):
        routes["blocks"] = cp.compat_witness_kary(
            A, f, block_len_bound=args.block_bound,
            with_witnesses=witnesses)
    if route in ("all", "lambda"):
        routes["lambda"] = cp.compat_witness_lambda(
            A, f, with_witnesses=witnesses)
    return routes


def _compat_report(A, labels, routes, args):
    report = {"routes": {}}
    for name, r in routes.items():
        entry = {"verdict": r.verdict}
        if r.failing is not None:
            if name == "direct":
                theta, pairs = r.failing
                entry["witness"] = {
                    "congruence": _partition_text(theta, labels),
                    "pairs": [[labels[a], labels[b]] for a, b in pairs]}
            else:
                (a, b), = r.failing
                entry["witness"] = {
                    "tuples": [[labels[i] for i in a],
                               [labels[i] for i in b]]}
        if args.witnesses and r.witnesses:
            entry["pair-witnesses"] = {
                str(([labels[i] for i in a], [labels[i] for i in b])):
                    _format_pair_witness(A, name, w)
                for (a, b), w in sorted(r.witnesses.items())}
        report["routes"][name] = entry
    verdicts = {r.verdict for r in routes.values()}
    report["agree"] = len(verdicts) == 1
    return report, verdicts


def _format_pair_witness(A, route, w):
    if w is None:
        return None
    if route == "blocks":
        return [f"{format_block(M, A.sig)}@{slot}" for M, slot in w]
    l, slots = w
    return {"exponent": l, "slots": list(slots)}


def cmd_compatible(args):
    _require_at_least(args, 0, "block-bound")
    A, labels = _load_modal_ririg(args.algebra)
    if args.fn is None and args.random is None:
        raise CliError("pass --fn FILE or --random N")
    if args.fn is not None:
        _refuse_given(args, "does not apply with --fn",
                      "random", "arity", "jobs", "seed")
        if args.verify_witness is not None:
            _refuse_given(args, "does not apply with --verify-witness",
                          "route", "block-bound", "witnesses",
                          "congruence-cap")
        f = _load_function(args.fn, A)
        if "tuples" in (_witness_object(args) or {}):
            (a, b), = _read_witness(args, labels, tuples=("tuples", f.arity))
            stars = {A.star(x, y) for x, y in zip(a, b)}
            return _verdict(A.star(f(*a), f(*b))
                            not in fl.generate_filter(A, stars))
        witness = _read_witness(args, labels, pairs=("pairs", f.arity),
                                congruence="partition")
        if witness is not None:
            pairs, theta = witness
            if not fl.is_congruence(A, theta):
                return _verdict(False, reason="not a congruence")
            left, right = (f(*side) for side in zip(*pairs))
            related = all(theta[a] == theta[b] for a, b in pairs)
            return _verdict(related and theta[left] != theta[right])
        routes = _compat_routes(A, f, args)
        report, verdicts = _compat_report(A, labels, routes, args)
        if "undecided" in verdicts:
            return UNDECIDED, report
        return (OK if verdicts == {"compatible"} else FAIL), report
    # seeded random agreement sweep
    _refuse_given(args, "does not apply with --random",
                  "route", "block-bound", "witnesses", "verify-witness")
    _require_at_least(args, 1, "random", "arity", "jobs")
    arity = 2 if args.arity is None else args.arity
    jobs = 1 if args.jobs is None else args.jobs
    seed = cp.DEFAULT_SEED if args.seed is None else args.seed
    disagreements = cp.agreement_sweep(A, arity, args.random, seed,
                                       jobs=jobs, cap=_congruence_cap(args))
    report = {"seed": seed, "sampled": args.random, "arity": arity,
              "disagreements": [
                  {"table": list(f.table), "direct": d, "blocks": b,
                   "lambda": l} for f, d, b, l in disagreements]}
    return (OK if not disagreements else FAIL), report


def _partition_from_text(text, labels):
    """The partition written as reports print it, ``{x,y} | {z}``; every
    element must appear exactly once."""
    class_of = [None] * len(labels)
    for block in text.split("|"):
        members = _parse_elements(block.strip().strip("{}"), labels)
        for m in members:
            if class_of[m] is not None:
                raise CliError(f"element {labels[m]!r} appears twice")
            class_of[m] = min(members)
    missing = [labels[i] for i, c in enumerate(class_of) if c is None]
    if missing:
        raise CliError(f"no class holds {', '.join(missing)}")
    return fl.normalize_partition(tuple(class_of))


def cmd_laf(args):
    A, labels = _load_modal_ririg(args.algebra)
    f = _load_function(args.fn, A)
    if args.points:
        B = [tuple(_parse_elements(p, labels)) for p in args.points]
    else:
        B = list(itertools.product(range(A.size), repeat=f.arity))
    try:
        rep = cp.laf_representation(A, f, B)
    except ValueError as e:
        raise CliError(str(e)) from None
    report = {
        "points": [str([labels[i] for i in p]) for p in rep.points],
        "anchor-exponents": {str([labels[i] for i in a]): l
                             for a, l in sorted(rep.anchor_exponents.items())},
        "verified": rep.verified,
        "joins": {str([labels[i] for i in x]):
                  {"terms": [labels[t] for t in terms],
                   "join": labels[j],
                   "expected": labels[f(*x)]}
                  for x, (terms, j) in sorted(rep.joins.items())},
    }
    return (OK if rep.verified else FAIL), report


def cmd_enumerate(args):
    require = tuple(args.require or ())
    try:
        built = cat.catalog_build(args.max_size, args.modals, require,
                                  size_cap=args.size_cap)
    except ValueError as e:
        raise CliError(str(e)) from None
    by_size: dict[int, int] = {}
    for e in built.entries:
        by_size[e.algebra.size] = by_size.get(e.algebra.size, 0) + 1
    report = {
        "max-size": args.max_size,
        "modals": args.modals,
        "require": list(require),
        "count": len(built.entries),
        "by-size": {str(k): v for k, v in sorted(by_size.items())},
        "flags": {
            "chain": sum(e.chain for e in built.entries),
            "contractive": sum(e.contractive for e in built.entries),
            "in_rc": sum(e.in_rc for e in built.entries),
            "simple": sum(bool(e.simple) for e in built.entries),
            "si": sum(bool(e.si) for e in built.entries),
        },
    }
    if args.out:
        cat.catalog_save(built, args.out)
        report["saved"] = args.out
    return OK, report


def cmd_prove(args):
    try:
        with open(args.proof) as fh:
            proof = parse_proof(fh.read())
    except (OSError, ValueError) as e:
        raise CliError(f"cannot read proof: {e}") from None
    result = check_proof(proof)
    witness = _read_witness(args, None, line="positive integer")
    if witness is not None:
        return _verdict(not result.ok and witness == [result.bad_line])
    report = {
        "hypotheses": [format_term(h) for h in proof.hypotheses],
        "lines": len(proof.lines),
        "checked": result.ok,
    }
    if not result.ok:
        report["witness"] = {"line": result.bad_line, "reason": result.reason}
        return FAIL, report
    report["conclusion"] = format_term(proof.conclusion())
    if args.catalog or os.environ.get(ENV_CATALOG):
        algebras = _load_catalog(args)
        try:
            sound = soundness_check(proof, algebras)
        except ValueError as e:
            raise CliError(str(e)) from None
        report["soundness"] = {
            "catalog-size": len(algebras),
            "holds": sound,
            "note": CATALOG_CAVEAT,
        }
        if not sound:
            return FAIL, report
    return OK, report


def cmd_entails(args):
    algebras = _load_catalog(args)
    try:
        premises = [parse_equation(t) for t in (args.assume or [])]
        goal = parse_equation(args.goal)
    except ParseError as e:
        raise CliError(str(e)) from None
    witness = _read_witness(args, None, algebra="string",
                            valuation="valuation")
    if witness is not None:
        form, valuation = witness
        A = next((B for B in algebras
                  if cat.canonical_form(B).hex() == form), None)
        if A is None:
            return _verdict(False, reason="algebra not in catalog")
        equations = premises + [goal]
        terms = [t for e in equations for t in (e.lhs, e.rhs)]
        bad = set().union(*map(tm.modal_names_of, terms)) - set(A.sig.names)
        if bad:
            raise CliError(f"modal names {sorted(bad)} outside the signature")
        if (valuation.keys() != set().union(*map(tm.variables_of, terms))
                or not all(0 <= x < A.size for x in valuation.values())):
            return _verdict(False)
        sat = [tm.eval_term(A, valuation, e.lhs)
               == tm.eval_term(A, valuation, e.rhs) for e in equations]
        return _verdict(all(sat[:-1]) and not sat[-1])
    try:
        holds_, cm = semantic_entails(algebras, premises, goal,
                                      cap=args.valuation_cap)
    except ValueError as e:
        raise CliError(str(e)) from None
    report = {"entailed": holds_, "note": CATALOG_CAVEAT}
    if not holds_:
        A, v = cm
        report["witness"] = {
            "algebra": cat.canonical_form(A).hex(),
            "size": A.size,
            "valuation": {f"v{i}": x for i, x in sorted(v.items())},
        }
        return FAIL, report
    return OK, report


def cmd_lddt(args):
    _require_at_least(args, 0, "block-bound", "product-bound", "max-exponent")
    if args.lambda_mode:
        _refuse_given(args, "does not apply with --lambda-mode", "block-bound")
    else:
        _refuse_given(args, "applies only with --lambda-mode", "max-exponent")
    algebras = _load_catalog(args)
    try:
        gamma = [parse_formula(t) for t in (args.gamma or [])]
        delta = [parse_formula(t) for t in args.delta]
        goal = parse_formula(args.goal)
    except ParseError as e:
        raise CliError(str(e)) from None
    sig = algebras[0].sig
    try:
        w = lddt_witness(gamma, delta, goal, algebras,
                         block_len_bound=(2 if args.block_bound is None
                                          else args.block_bound),
                         product_bound=args.product_bound,
                         lambda_mode=args.lambda_mode,
                         max_exponent=(4 if args.max_exponent is None
                                       else args.max_exponent))
    except ValueError as e:
        raise CliError(str(e)) from None
    if w is None:
        return UNDECIDED, {
            "witness": None,
            "note": "bound exhausted; not a disproof",
        }
    report = {
        "witness": [{"block": format_block(M, sig), "formula": format_term(d)}
                    for M, d in w.factors],
        "candidate": format_term(w.candidate),
        "certificate": w.certificate,
    }
    if w.lam_exponent is not None:
        report["lambda-exponent"] = w.lam_exponent
    return OK, report


def cmd_cep(args):
    A, labels = _load_modal_ririg(args.algebra)
    witness = _read_witness(args, labels, subuniverse="elements",
                            congruence="integers")
    if witness is not None:
        S, theta = witness
        if (S not in fl.subuniverses(A, cap=args.subuniverse_cap)
                or len(theta) != len(S)):
            return _verdict(False)
        sub, elems = fl.induced_subalgebra(A, S)
        theta = fl.normalize_partition(theta)
        restrictions = {
            fl.restrict_congruence(xi, elems)
            for xi in fl.all_congruences_direct(A, cap=_congruence_cap(args))}
        return _verdict(fl.is_congruence(sub, theta)
                        and theta not in restrictions)
    ok, cex = fl.cep_check(A, cap=args.subuniverse_cap,
                           congruence_cap=_congruence_cap(args))
    if ok:
        return OK, {"cep": True,
                    "subuniverses": len(fl.subuniverses(
                        A, cap=args.subuniverse_cap))}
    S, theta = cex
    return FAIL, {
        "cep": False,
        "witness": {"subuniverse": [labels[i] for i in sorted(S)],
                    "congruence": list(theta)},
        "note": "this should be impossible; it certifies an implementation "
                "bug",
    }


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ririg",
        description="workbench for finite modal residuated integral rigs")
    sub = top.add_subparsers(dest="command", required=True)

    witness, ccap, scap = ("--verify-witness", "--congruence-cap",
                           "--subuniverse-cap")
    shared = {witness: dict(metavar="JSON",
                            help="re-check a previously reported witness"),
              ccap: dict(type=int, default=None,
                         help="size cap of the partition scan (default "
                              f"{fl.DEFAULT_CONGRUENCE_CAP})"),
              scap: dict(type=int, default=fl.DEFAULT_SUBUNIVERSE_CAP)}

    def add(name, handler, help, *options):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true",
                       help="machine-readable report")
        for option in options:
            p.add_argument(option, **shared[option])
        return p

    def alg(name, handler, help, *options):
        p = add(name, handler, help, *options)
        p.add_argument("algebra", help="algebra file (JSON)")
        return p

    p = alg("check", cmd_check, "validate the algebra axioms", witness)
    p = alg("filters", cmd_filters, help="list all filters")
    p = alg("congruences", cmd_congruences, "list all congruences", ccap)
    p.add_argument("--direct", action="store_true",
                   help="cross-check with the partition oracle")
    p = alg("gen-filter", cmd_gen_filter,
            help="generated filter by all three routes")
    p.add_argument("--set", default="", help="comma-separated elements")
    p = alg("simple", cmd_simple, "decide simplicity with witnesses", witness)
    p = alg("si", cmd_si, "decide subdirect irreducibility", witness)
    p = alg("classify", cmd_classify,
            "chain/contractive/prelinearity classification", witness)
    p = alg("compatible", cmd_compatible,
            "check a function for congruence compatibility", witness, ccap)
    p.add_argument("--fn", help="function file (JSON)")
    p.add_argument("--route", choices=("all", "direct", "blocks", "lambda"),
                   default=None, help="decision route (default all)")
    p.add_argument("--block-bound", type=int, default=None)
    p.add_argument("--witnesses", action="store_true", default=None,
                   help="include per-pair witnesses in the report")
    p.add_argument("--random", type=int, default=None,
                   help="agreement sweep over N random functions")
    p.add_argument("--arity", type=int, default=None,
                   help="arity of the sampled functions (default 2)")
    p.add_argument("--seed", type=int, default=None,
                   help=f"seed of the sweep (default {cp.DEFAULT_SEED})")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the sweep (default 1)")
    p = alg("laf", cmd_laf, help="local polynomial join representation")
    p.add_argument("--fn", required=True)
    p.add_argument("--points", nargs="*",
                   help="tuples as comma-separated elements")
    p = add("enumerate", cmd_enumerate, "build and save a catalog")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--modals", type=int, default=0)
    p.add_argument("--require", action="append",
                   choices=cat.KNOWN_CONSTRAINTS)
    p.add_argument("--size-cap", type=int, default=cat.DEFAULT_SIZE_CAP)
    p.add_argument("--out", help="write the catalog here")
    p = add("prove", cmd_prove, "check a proof file, then its soundness "
                                "over a catalog", witness)
    p.add_argument("proof")
    p.add_argument("--catalog")
    p = add("entails", cmd_entails, "semantic entailment over a catalog",
            witness)
    p.add_argument("--catalog")
    p.add_argument("--assume", action="append", metavar="EQUATION")
    p.add_argument("--valuation-cap", type=int, default=4096)
    p.add_argument("goal", metavar="EQUATION")
    p = add("lddt", cmd_lddt, "local deduction witness search")
    p.add_argument("--catalog")
    p.add_argument("--gamma", action="append", metavar="FORMULA")
    p.add_argument("--delta", nargs="+", required=True, metavar="FORMULA")
    p.add_argument("--goal", required=True, metavar="FORMULA")
    p.add_argument("--block-bound", type=int, default=None,
                   help="longest block tried (default 2; not with "
                        "--lambda-mode)")
    p.add_argument("--product-bound", type=int, default=2)
    p.add_argument("--lambda-mode", action="store_true")
    p.add_argument("--max-exponent", type=int, default=None,
                   help="largest lambda exponent tried (default 4; only "
                        "with --lambda-mode)")
    p = alg("cep", cmd_cep, "congruence extension check", witness, ccap, scap)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = args.handler(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except fl.CapError as e:
        print(f"error: {e}; raise it with --{e.args[1]}-cap",
              file=sys.stderr)
        return USAGE
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
