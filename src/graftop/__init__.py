"""Exact symbolic calculus for weighted rooted trees: graded compositions
with a formal deformation parameter, grafting products, classical
specializations, and the bracket presentation with its evaluation and
rewriting maps.  ``CheckReport``, ``Universe`` and ``run_suite`` load
``graftop.verify`` on first use, so importing the package does not."""

from .algebra import (
    LAMBDA,
    Combination,
    LambdaPoly,
    Rational,
    TreeCombination,
    combo_add,
    combo_scale,
    combo_sub,
    parse_poly,
    poly_eval,
    specialize,
)
from .errors import ParseError, TreeError
from .operad import (
    UNIT,
    GraftMap,
    UnitFamily,
    arrow_lambda,
    butcher_product,
    circ_sum,
    compose_at_label,
    compose_lambda,
    compose_positional,
    compose_unit_left,
    compose_unit_right,
    compose_with_map,
    gamma,
    graft_at,
    iter_graft_maps,
    morphism_i_check,
    morphism_j_check,
    nap_compose,
    nap_compose_classical,
    pre_lie_compose,
    star_lambda,
    unit,
)
from .presentation import (
    BracketCombination,
    BracketExpr,
    Generator,
    Pair,
    bracket_mul,
    corolla_assemble,
    corolla_decomposition,
    parse_bracket,
    phi,
    psi,
    psi_order_independence_check,
    relation_r,
)
from .trees import (
    UNLABELED,
    Edge,
    VertexRef,
    WeightedTree,
    canonicalize,
    enumerate_labeled_trees,
    enumerate_unlabeled_trees,
    height,
    incoming_edges,
    parse_tree,
    potential_energy,
    relabel,
    reweight,
    strip_labels,
    weight,
)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in ("CheckReport", "Universe", "run_suite"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify
    globals()[name] = value = getattr(verify, name)
    return value
