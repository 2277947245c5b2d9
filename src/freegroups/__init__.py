"""Free groups, subgroup graphs, Whitehead moves, and one-edge splittings.

The toolkit covers: free-group word algebra (reduction, conjugacy,
roots, centralizers, abelianization); folded subgroup graphs
(membership, rank and basis, intersections, malnormality); Whitehead
minimization (primitivity and free-factor detection); HNN extensions
with Britton normal forms and amalgams with alternating normal forms;
endomorphisms, bounded fixed subgroups and orbit periods; and the
closure procedures built from them, including a verified family of
splittings of free groups of rank k + 4 in which one element is algebraic
but not definable over a distinguished subgroup.  It exports what the
CLI, the demos and the benchmark read, and no helper only tests call.
"""

from .words import (
    Alphabet,
    Word,
    abelianize,
    centralizer,
    cyclically_reduce,
    extract_root,
    format_word,
    is_conjugate,
    iter_reduced_words,
    parse_word,
)
from .stallings import SubgroupGraph, graph_from_text, intersect, is_malnormal, subgroup_graph
from .whitehead import (
    MinimizationTrace,
    WhiteheadMove,
    is_free_factor,
    is_primitive,
    minimize_tuple,
    whitehead_moves,
)
from .splittings import (
    AmalgamPresentation,
    BrittonForm,
    ClassificationResult,
    HnnPresentation,
    amalgam_equal,
    britton_reduce,
    classify_base_conjugacy,
    dehn_twist,
    hnn_equal,
    hnn_length,
    parse_presentation,
    validate_presentation,
)
from .endos import (
    Endomorphism,
    OrbitReport,
    compose,
    fixed_words,
    is_automorphism_free,
    orbit_bounded,
    order_bounded,
    verify_automorphism_pair,
)
from .closure import (
    AmalgamCertificate,
    CounterexampleReport,
    HnnCertificate,
    build_counterexample,
    compressed_step_check,
    counterexample_solution_set,
    dcl_separation_check,
    verify_counterexample,
)

__version__ = "0.1.0"
