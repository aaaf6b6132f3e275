"""Exact skein-algebra computations over the three-variable Laurent ring:
Hecke algebras in the permutation-braid basis, closures in the annulus,
power-sum operators, torus-knot invariants, and chord-diagram lifts.
"""

__version__ = "0.1.0"

from .scalars import (
    LaurentPoly,
    PoleError,
    Scalar,
    SpecializationError,
    TFraction,
    Z,
    delta,
    h_expand,
    quantum_factorial,
    quantum_int,
    specialize_sln,
)
from .partitions import (
    EMPTY,
    Partition,
    all_partitions_up_to,
    framing_factor,
    hook_content_closed,
    hook_content_product,
    lr_product,
    partitions_of,
    transpose_permutation,
)
from .diagram_ring import CPoly, DiagramVector, d, gen, phi, phi_inverse, psi
from .hecke import (
    BraidWord,
    HeckeElement,
    a_element,
    alpha,
    b_element,
    cable_word,
    e_lambda,
    from_word,
    mul,
    tensor,
)
from .annulus import (
    AnnulusElement,
    Q,
    a_gen,
    closed_idempotent,
    closure,
    closure_word,
    decorated_closure,
    epsilon_plane,
    q_hook,
    theta,
)
from .adams_skein import (
    Inconsistent,
    P,
    PatternSystem,
    Solution,
    a_braid,
    cable_counterexample,
    cycle_closure,
    power_sum_image,
    rosso_jones,
    solve_pattern,
    torus_braid,
    torus_invariant,
)
from .chords import CROSSING, PARALLEL, ChordDiagram, all_diagrams, psi_chords, weight_system
from .verify import run_suite, suite_names

__all__ = [
    "AnnulusElement", "BraidWord", "CPoly", "CROSSING", "ChordDiagram",
    "DiagramVector", "EMPTY", "HeckeElement", "Inconsistent",
    "LaurentPoly", "P", "PARALLEL", "Partition", "PatternSystem", "PoleError",
    "Q", "Scalar", "Solution", "SpecializationError", "TFraction", "Z",
    "a_braid", "a_element", "a_gen", "all_diagrams",
    "all_partitions_up_to", "alpha", "b_element", "cable_counterexample",
    "cable_word", "closed_idempotent", "closure", "closure_word", "cycle_closure", "d",
    "decorated_closure", "delta", "e_lambda", "epsilon_plane", "framing_factor",
    "from_word", "gen",
    "h_expand", "hook_content_closed", "hook_content_product", "lr_product",
    "mul", "partitions_of", "phi", "phi_inverse", "power_sum_image", "psi",
    "psi_chords", "q_hook", "quantum_factorial", "quantum_int", "rosso_jones",
    "run_suite", "solve_pattern", "specialize_sln",
    "suite_names", "tensor", "theta", "torus_braid", "torus_invariant",
    "transpose_permutation", "weight_system",
]
