"""Equational deduction over context structures, with finite-set semantics
and a bounded universal-model construction."""

from .finord import (
    DeltaFamily, FinFn, StructureMonoid, compose, coproduct, fiber_sizes, fn,
    identity, in_family, monoid, monoid_contains, parse_family,
    similarity_component, verify_structure_category,
)
from .context import (
    BIJECTIVE, CARTESIAN, INJECTIVE, LEFT_SURJECTIVE, RIGHT_SURJECTIVE,
    STRICT_INCREASING, SURJECTIVE, TRIVIAL, ContextStructure, Letter, Word,
    delta_of, holds, parse_structure, terminal_context,
)
from .syntax import (
    App, Equation, Signature, Term, Theory, Var, app, apply_renaming, const,
    equation, is_r_context, is_r_renaming, parse_equation_text, parse_theory,
    signature, tau, term_depth, term_str, term_vars, var,
)
from .deduction import (
    Axiom, Bounds, Proof, Refl, Subst, Sym, Trans, check_proof, proof_lines,
    prove, refute_by_invariant, saturate,
)
from .setmodel import (
    FinSetModel, MultiMap, compose_multi, eval_term, find_model, format_model,
    identity_map, iter_models, satisfies, satisfies_theory, theta_action,
)
from .universal import (
    SigmaSignature, build_sigma, categorization_axioms, enumerate_pure_terms,
    internalize, internalize_term, sigma_interpret, sigma_term_str,
    sigma_theory, universal_hom,
)

__version__ = "0.1.0"
