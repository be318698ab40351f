"""Workbench for finite residuated integral rigs with modal operators."""

from .core import Algebra, AxiomReport, ModalSignature, residual_of, \
    synthesize_imp, validate_ririg
from .modal import Block, EPS, apply_block, check_product_form, \
    enumerate_blocks, format_block, lambda_iter, lambda_op, parse_block, \
    reachable_values, validate_modal
from .filters import all_congruences_direct, all_ifilters, cep_check, \
    congruence_join, congruences_of, filter_from_theta, generate_filter, \
    generate_filter_blocks, generate_filter_blocks_stabilized, \
    generate_filter_lambda, induced_subalgebra, is_ifilter, is_simple, \
    is_subdirectly_irreducible, principal_congruence, simple_from_filters, \
    subuniverses, theta_from_filter
from .terms import Const, Equation, Imp, Join, ModalApp, Prod, Term, Var, \
    eval_term, fg_intersection_check, holds, in_chain_variety, is_chain, \
    is_contractive, join_splitting_block, satisfies_join_subdistribution, \
    satisfies_prelinearity, verify_join_splitting
from .parsing import ParseError, format_equation, format_term, \
    parse_equation, parse_formula, parse_term
from .compat import CompatReport, FiniteFunction, compat_witness_kary, \
    compat_witness_lambda, is_compatible_direct, \
    laf_representation, random_function, slot_function
from .logic import Ax, Hyp, JoinElim, LddtWitness, MP, Nec, Proof, \
    ProofCheck, ProofLine, check_proof, format_proof, lddt_witness, \
    match_schema, parse_proof, rho, semantic_entails, soundness_check, tau
from .catalog import Catalog, CatalogEntry, canonical_form, catalog_build, \
    catalog_load, catalog_save, enumerate_modal_expansions, enumerate_ririgs
from .files import FileFormatError, load_algebra, load_function, \
    save_algebra, save_function
