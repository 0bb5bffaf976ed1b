"""Finite-stage conjugation-built torus diffeomorphisms and slow-entropy
complexity measurements."""

from .params import (
    ParamProfile,
    StageParams,
    advance_stage,
    build_chain,
    idealized_q_sequence,
    validate_chain,
)
from .scaling import ScalingFamily, eval_log, ordering_table
from .diffeo import (
    AbCSystem,
    MapNode,
    SquareTwist,
    build_ue_h,
    build_untwisted_h,
    build_wm_h,
    jacobian_mc,
)
from .words import (
    WordSelection,
    assemble_W,
    sample_selection,
    verify_selection,
)
from .complexity import (
    BowenConfig,
    GridPartition,
    hamming_cover,
    max_separated,
    min_cover,
    sandwich_check,
    slow_entropy_report,
    witness_untwisted,
)
from .normest import dk_distance, triple_norm

__version__ = "0.1.0"
