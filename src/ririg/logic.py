"""Hilbert-style calculus over the algebra signature: axiom schemas,
proof checking, the translation between formulas and equations, semantic
entailment over finite algebra catalogs, and deduction-witness search.

Entailment here is always relative to a finite catalog of algebras: a
countermodel genuinely refutes, while a positive answer certifies only the
catalog, not the whole variety.  `semantic_entails` compiles a query's
equations once (`terms.Program`) and then compares value columns per
algebra; `soundness_check` and every `lddt_witness` candidate go through
it.  An equation's value columns depend only on the tables it reads, so
each query runs once per distinct reduct of the catalog (size, join, prod,
imp, constants and the tables of the modals it names), on the first
algebra of that reduct.  The reducts and the shared signature live in one
index per catalog, kept while the same sequence holds the same algebra
objects (checked by identity on every call).  A deduction-witness search
tries its candidates in a fixed order, each distinct candidate once, and
stops at the first that holds.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from operator import is_
from typing import Optional, Union

from .core import ModalSignature
from .modal import Block, enumerate_blocks
from .parsing import ParseError, format_term, parse_formula
from .terms import (BOT, TOP, Const, Equation, Imp, Join, ModalApp, Prod,
                    Program, Term, Var, modal_names_of, variables_of)

Formula = Term

CATALOG_CAVEAT = ("entailment judged over a finite catalog: countermodels "
                  "refute, positive answers certify the catalog only")

# the most valuations per algebra that an entailment query scans; an
# algebra with more raises ValueError
ENTAILMENT_VALUATION_CAP = 4096


# ---------------------------------------------------------------------------
# axiom schemas and matching

@dataclass(frozen=True)
class Meta:
    """Schema metavariable; stands for an arbitrary formula."""
    name: str


_PHI, _PSI, _CHI = Meta("phi"), Meta("psi"), Meta("chi")

SCHEMAS: dict[str, tuple] = {
    "ax1": (Imp(_PHI, _PHI),),
    "ax2": (Imp(Imp(_PHI, _PSI), Imp(Imp(_PSI, _CHI), Imp(_PHI, _CHI))),),
    "ax3": (Imp(Prod(_PHI, _PSI), _PHI),),
    "ax4": (Imp(Prod(_PHI, _PSI), Prod(_PSI, _PHI)),),
    "ax5": (Imp(Imp(Prod(_PHI, _PSI), _CHI), Imp(_PSI, Imp(_PHI, _CHI))),),
    "ax6": (Imp(Imp(_PSI, Imp(_PHI, _CHI)), Imp(Prod(_PHI, _PSI), _CHI)),),
    "ax7": (Imp(_PHI, Join(_PHI, _PSI)),),
    "ax8": (Imp(_PSI, Join(_PHI, _PSI)),),
    "ax9": (Imp(Prod(_PHI, Join(_PSI, _CHI)),
                Join(Prod(_PHI, _PSI), Prod(_PHI, _CHI))),),
    "ax10": (Imp(BOT, _PHI),),
}

MODAL_SCHEMAS = ("ax11", "ax12")


def _modal_schema_patterns(schema: str, modal: str) -> tuple:
    if schema == "ax11":
        # the biconditional unit axiom contributes both implications
        return (Imp(ModalApp(modal, TOP), TOP), Imp(TOP, ModalApp(modal, TOP)))
    if schema == "ax12":
        return (Imp(ModalApp(modal, Imp(_PHI, _PSI)),
                    Imp(ModalApp(modal, _PHI), ModalApp(modal, _PSI))),)
    raise ValueError(f"unknown modal schema {schema}")


def _match(pattern, formula, binding: dict) -> bool:
    match pattern:
        case Meta(name):
            if name in binding:
                return binding[name] == formula
            binding[name] = formula
            return True
        case Var(_) | Const(_):
            return pattern == formula
        case Imp(pl, pr) | Join(pl, pr) | Prod(pl, pr):
            return (type(formula) is type(pattern)
                    and _match(pl, formula.lhs, binding)
                    and _match(pr, formula.rhs, binding))
        case ModalApp(name, arg):
            return (isinstance(formula, ModalApp) and formula.name == name
                    and _match(arg, formula.arg, binding))
    raise TypeError(f"bad pattern {pattern!r}")


def match_schema(formula: Formula, schema: str,
                 modal: Optional[str] = None) -> Optional[dict]:
    """Substitution of formulas for metavariables turning the schema into
    the formula, or None.  Modal schemas need the modal name."""
    if schema in SCHEMAS:
        patterns = SCHEMAS[schema]
    elif schema in MODAL_SCHEMAS:
        if modal is None:
            raise ValueError(f"schema {schema} needs a modal name")
        patterns = _modal_schema_patterns(schema, modal)
    else:
        raise ValueError(f"unknown schema {schema!r}")
    for pattern in patterns:
        binding: dict = {}
        if _match(pattern, formula, binding):
            return binding
    return None


def instantiate(pattern, binding: dict) -> Formula:
    match pattern:
        case Meta(name):
            return binding[name]
        case Var(_) | Const(_):
            return pattern
        case Imp(l, r) | Join(l, r) | Prod(l, r):
            return type(pattern)(instantiate(l, binding),
                                 instantiate(r, binding))
        case ModalApp(name, a):
            return ModalApp(name, instantiate(a, binding))
    raise TypeError(f"bad pattern {pattern!r}")


# ---------------------------------------------------------------------------
# proofs

@dataclass(frozen=True)
class Hyp:
    pass


@dataclass(frozen=True)
class Ax:
    schema: str
    modal: Optional[str] = None


@dataclass(frozen=True)
class MP:
    major: int
    minor: int


@dataclass(frozen=True)
class Nec:
    modal: str
    premise: int


@dataclass(frozen=True)
class JoinElim:
    left: int
    right: int


Justification = Union[Hyp, Ax, MP, Nec, JoinElim]


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class Proof:
    hypotheses: tuple[Formula, ...]
    lines: tuple[ProofLine, ...]

    def conclusion(self) -> Formula:
        if not self.lines:
            raise ValueError("empty proof")
        return self.lines[-1].formula


@dataclass(frozen=True)
class ProofCheck:
    ok: bool
    bad_line: Optional[int] = None   # 1-based
    reason: Optional[str] = None
    substitutions: Optional[dict] = None  # line -> metavariable binding


def check_proof(proof: Proof, signature: Optional[ModalSignature] = None
                ) -> ProofCheck:
    """Validate every line; on failure name the first bad line and why."""
    hyps = set(proof.hypotheses)
    substitutions: dict[int, dict] = {}

    def fail(i, reason):
        return ProofCheck(False, bad_line=i, reason=reason)

    def cited(i, j):
        return 1 <= j < i

    for idx, line in enumerate(proof.lines, start=1):
        f, just = line.formula, line.justification
        if signature is not None:
            unknown = modal_names_of(f) - set(signature.names)
            if unknown:
                return fail(idx, f"modal names {sorted(unknown)} outside "
                                 "the signature")
        match just:
            case Hyp():
                if f not in hyps:
                    return fail(idx, "formula is not a hypothesis")
            case Ax(schema, modal):
                if modal is not None and signature is not None \
                        and modal not in signature.names:
                    return fail(idx, f"modal {modal!r} outside the signature")
                try:
                    binding = match_schema(f, schema, modal)
                except ValueError as e:
                    return fail(idx, str(e))
                if binding is None:
                    return fail(idx, f"formula does not instantiate {schema}")
                substitutions[idx] = binding
            case MP(i, j):
                if not (cited(idx, i) and cited(idx, j)):
                    return fail(idx, "cited line out of range")
                major = proof.lines[i - 1].formula
                minor = proof.lines[j - 1].formula
                if not isinstance(major, Imp) or major.lhs != minor \
                        or major.rhs != f:
                    return fail(idx, "major premise shape: line {} must be "
                                     "(line {} -> this)".format(i, j))
            case Nec(modal, i):
                if not cited(idx, i):
                    return fail(idx, "cited line out of range")
                if signature is not None and modal not in signature.names:
                    return fail(idx, f"modal {modal!r} outside the signature")
                if f != ModalApp(modal, proof.lines[i - 1].formula):
                    return fail(idx, "formula is not the modal image of the "
                                     "cited line")
            case JoinElim(i, j):
                if not (cited(idx, i) and cited(idx, j)):
                    return fail(idx, "cited line out of range")
                left = proof.lines[i - 1].formula
                right = proof.lines[j - 1].formula
                good = (isinstance(left, Imp) and isinstance(right, Imp)
                        and left.rhs == right.rhs
                        and f == Imp(Join(left.lhs, right.lhs), left.rhs))
                if not good:
                    return fail(idx, "join elimination shape: need a->c, "
                                     "b->c and (a|b)->c")
            case _:
                return fail(idx, f"unknown justification {just!r}")
    return ProofCheck(True, substitutions=substitutions)


# ---------------------------------------------------------------------------
# proof file format

_LINE = re.compile(r"^(\d+)\.\s*(.*?)\s*;\s*(\S.*?)\s*$")


def parse_justification(text: str) -> Justification:
    parts = text.split()
    head = parts[0]
    if head == "hyp" and len(parts) == 1:
        return Hyp()
    if head == "mp" and len(parts) == 3:
        return MP(int(parts[1]), int(parts[2]))
    if head == "vel" and len(parts) == 3:
        return JoinElim(int(parts[1]), int(parts[2]))
    if head.startswith("nec:") and len(parts) == 2:
        return Nec(head[4:], int(parts[1]))
    if re.fullmatch(r"ax(?:[1-9]|10)", head) and len(parts) == 1:
        return Ax(head)
    m = re.fullmatch(r"(ax1[12]):(\w+)", head)
    if m and len(parts) == 1:
        return Ax(m.group(1), m.group(2))
    raise ValueError(f"bad justification {text!r}")


def parse_proof(text: str) -> Proof:
    """One `assume:` header line per hypothesis, then numbered lines
    `<idx>. <formula> ; <justification>`."""
    hyps = []
    lines = []
    expected = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("assume:"):
            if lines:
                raise ValueError(f"line {lineno}: assume after proof lines")
            hyps.append(parse_formula(stripped[len("assume:"):]))
            continue
        m = _LINE.match(stripped)
        if not m:
            raise ValueError(f"line {lineno}: not a proof line")
        if int(m.group(1)) != expected:
            raise ValueError(f"line {lineno}: expected index {expected}")
        try:
            formula = parse_formula(m.group(2))
            just = parse_justification(m.group(3))
        except (ParseError, ValueError) as e:
            raise ValueError(f"line {lineno}: {e}") from None
        lines.append(ProofLine(formula, just))
        expected += 1
    return Proof(tuple(hyps), tuple(lines))


def format_justification(just: Justification) -> str:
    match just:
        case Hyp():
            return "hyp"
        case Ax(schema, None):
            return schema
        case Ax(schema, modal):
            return f"{schema}:{modal}"
        case MP(i, j):
            return f"mp {i} {j}"
        case Nec(modal, i):
            return f"nec:{modal} {i}"
        case JoinElim(i, j):
            return f"vel {i} {j}"
    raise TypeError(f"bad justification {just!r}")


def format_proof(proof: Proof) -> str:
    out = [f"assume: {format_term(h)}" for h in proof.hypotheses]
    out += [f"{i}. {format_term(line.formula)} ; "
            f"{format_justification(line.justification)}"
            for i, line in enumerate(proof.lines, start=1)]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# transformers and semantic entailment

def tau(formula: Formula) -> frozenset[Equation]:
    return frozenset({Equation(formula, Const(1))})


def tau_set(formulas) -> frozenset[Equation]:
    return frozenset(Equation(f, Const(1)) for f in formulas)


def rho(eq: Equation) -> frozenset[Formula]:
    return frozenset({Imp(eq.lhs, eq.rhs), Imp(eq.rhs, eq.lhs)})


class _CatalogIndex:
    """A catalog's shared signature, checked once, and per set of modal
    names the first algebra of each distinct reduct in catalog order.

    Two algebras with the same size, join, prod, imp, constants and
    tables of the named modals give every query over those modals the
    same value columns, so the first failing representative is the first
    failing algebra of the catalog, with the same first valuation.
    """

    def __init__(self, catalog):
        self.algebras = tuple(catalog)
        # the signature every algebra shares, compared by names
        if len({A.sig.names for A in self.algebras}) != 1:
            raise ValueError("catalog algebras do not share one signature")
        self.sig = self.algebras[0].sig
        self._representatives: dict[frozenset, list] = {}

    def matches(self, catalog) -> bool:
        """Whether `catalog` holds exactly the indexed algebra objects."""
        return (len(catalog) == len(self.algebras)
                and all(map(is_, catalog, self.algebras)))

    def representatives(self, names) -> list:
        """The first algebra of each distinct reduct over the modal
        `names`, in catalog order; grouped on first use."""
        names = frozenset(names)
        reps = self._representatives.get(names)
        if reps is None:
            positions = [self.sig.index(name) for name in sorted(names)]
            first: dict[tuple, object] = {}
            for A in self.algebras:
                key = (A.size, A.join, A.prod, A.imp, A.zero, A.one,
                       *[A.modal_tables[p] for p in positions])
                first.setdefault(key, A)
            reps = self._representatives[names] = list(first.values())
        return reps


CATALOG_CACHE_SIZE = 8


@lru_cache(maxsize=CATALOG_CACHE_SIZE)
def _index_slot(catalog_id: int) -> list:
    """A one-place holder for the index of the catalog with this id."""
    return [None]


def _catalog_index(catalog) -> _CatalogIndex:
    """The index of a catalog sequence, built again unless the one kept for
    this object still holds the same algebra objects: an id alone can be
    reused, and a list can be changed in place."""
    slot = _index_slot(id(catalog))
    index = slot[0]
    if index is None or not index.matches(catalog):
        index = slot[0] = _CatalogIndex(catalog)
    return index


def _sequence(catalog):
    """The catalog itself when it is a list or tuple, so that its index
    is reused; any other iterable is read into a new list."""
    return catalog if isinstance(catalog, (list, tuple)) else list(catalog)


def semantic_entails(catalog, premises, goal: Equation,
                     cap: int | None = ENTAILMENT_VALUATION_CAP):
    """(holds, countermodel): in every catalog algebra, every valuation
    satisfying all premise equations satisfies the goal.  The countermodel
    is (algebra, valuation): the first algebra in catalog order with one,
    and its first valuation in lexicographic order.

    The equations are compiled once into a `terms.Program`, which then
    runs once per distinct reduct that the query reads (size, join, prod,
    imp, constants and the tables of the modals it names), on the first
    catalog algebra of each, in catalog order: the other algebras of a
    reduct give the same columns, so the answer and the countermodel are
    those of a scan of every algebra.  The reducts and the signature check
    are kept per catalog and reused while the same list or tuple holds the
    same algebra objects (compared by identity); any other iterable is
    indexed afresh.  An algebra over the valuation cap raises only when
    the scan reaches it.
    """
    catalog = _sequence(catalog)
    if not catalog:
        raise ValueError("empty catalog")
    index = _catalog_index(catalog)
    program = Program(premises, goal)
    outside = program.modal_names - set(index.sig.names)
    if outside:
        raise ValueError(f"modal names {sorted(outside)} outside the "
                         "catalog signature")
    for A in index.representatives(program.modal_names):
        v = program.countermodel(A, cap)
        if v is not None:
            return False, (A, v)
    return True, None


def soundness_check(proof: Proof, catalog,
                    cap: int | None = ENTAILMENT_VALUATION_CAP) -> bool:
    """A checked proof must be semantically valid over any catalog; False
    is a bug certificate for the checker or the evaluator."""
    catalog = _sequence(catalog)
    result = check_proof(proof, _catalog_index(catalog).sig)
    if not result.ok:
        raise ValueError(f"proof does not check: line {result.bad_line}: "
                         f"{result.reason}")
    holds, _ = semantic_entails(catalog, tau_set(proof.hypotheses),
                                Equation(proof.conclusion(), Const(1)), cap)
    return holds


# ---------------------------------------------------------------------------
# local deduction witnesses

@dataclass(frozen=True)
class LddtWitness:
    factors: tuple[tuple[Block, Formula], ...]
    candidate: Formula
    certificate: str
    lam_exponent: Optional[int] = None


def _product_formula(factors) -> Formula:
    if not factors:
        return Const(1)
    out = factors[0]
    for f in factors[1:]:
        out = Prod(out, f)
    return out


def lambda_formula(sig: ModalSignature, formula: Formula) -> Formula:
    """The term-level contraction: the formula times its modal images."""
    out = formula
    for name in sig.names:
        out = Prod(out, ModalApp(name, formula))
    return out


def lddt_witness(gamma, delta, psi: Formula, catalog,
                 block_len_bound: int = 2, product_bound: int = 2,
                 lambda_mode: bool = False, max_exponent: int = 4,
                 cap: int | None = ENTAILMENT_VALUATION_CAP
                 ) -> Optional[LddtWitness]:
    """Search factor lists making `product -> psi` follow from gamma over
    the catalog.

    Factors are block applications of members of delta (repetition
    allowed); in lambda mode a single shared iteration exponent replaces
    the block choice.  The candidates come in levels: block mode has one,
    every block applied to every member of delta; lambda mode has one per
    exponent l, each member iterated l times.  They are tried in order
    (level, number of factors, `combinations_with_replacement` order),
    each distinct candidate once.  Exhausting the bounds yields None,
    which is not a disproof.
    """
    catalog = _sequence(catalog)
    sig = _catalog_index(catalog).sig
    delta = list(delta)
    premises = tau_set(gamma)
    if lambda_mode:
        levels = [(0, [(((), d), d) for d in delta])]
        for l in range(1, max_exponent + 1):
            levels.append((l, [(factor, lambda_formula(sig, f))
                               for factor, f in levels[-1][1]]))
    else:
        levels = [(None, [((M, d), _apply_block_formula(sig, M, d))
                          for M in enumerate_blocks(sig, block_len_bound)
                          for d in delta])]
    tried = set()
    for lam_exponent, level in levels:
        for count in range(product_bound + 1):
            for combo in itertools.combinations_with_replacement(level,
                                                                 count):
                candidate = Imp(_product_formula([f for _, f in combo]), psi)
                if candidate in tried:
                    continue
                tried.add(candidate)
                if semantic_entails(catalog, premises,
                                    Equation(candidate, Const(1)), cap)[0]:
                    return LddtWitness(
                        tuple(factor for factor, _ in combo), candidate,
                        _certificate(catalog, candidate), lam_exponent)
    return None


def _apply_block_formula(sig: ModalSignature, block: Block,
                         formula: Formula) -> Formula:
    for i in reversed(block):
        formula = ModalApp(sig.names[i], formula)
    return formula


def _certificate(catalog, candidate: Formula) -> str:
    nvars = len(variables_of(candidate))
    sizes: dict[int, int] = {}
    for A in catalog:
        sizes[A.size] = sizes.get(A.size, 0) + 1
    checks = ", ".join(f"{count} of size {size} ({size}^{nvars} valuations "
                       "each)" for size, count in sorted(sizes.items()))
    return (f"checked {format_term(candidate)} = 1 over {len(catalog)} "
            f"catalog algebras [{checks}]; {CATALOG_CAVEAT}")
