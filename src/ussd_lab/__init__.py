"""Ancilla-assisted unambiguous discrimination of entangled sub-states,
with tangle-based coherence accounting and a probabilistic-teleportation
application built on top of it.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateOverlap,
    EmbeddingError,
    NumericalError,
    RangeError,
    RegisterClash,
    ShapeError,
    UndefinedPhase,
    UnknownQubit,
    UssdLabError,
)
from .tolerances import DEFAULT as DEFAULT_TOLERANCES
from .tolerances import Tolerances
from .qcore import (
    CNOT,
    HADAMARD,
    PAULI,
    PureState,
    Unitary,
    apply,
    projective_measure,
    reorder,
    tensor,
)
from .coherence import (
    BandScan,
    CoherenceLedger,
    closed_form_coherences,
    coherence_band,
    initial_coherence,
    ledger,
    three_tangle,
    wootters_concurrence,
)
from .ussd import (
    ConservationReport,
    Embedding,
    OutcomeRecord,
    ProtocolResult,
    SeparabilityParams,
    UssdInstance,
    UssdStrategy,
    bargmann_loop,
    bargmann_phase,
    build_chi,
    canonical_embedding,
    check_pair,
    coupled_state,
    coupling_unitary,
    make_instance,
    optimal_strategy,
    p_suc_max,
    run_protocol,
    separability_params,
    separable_strategy,
    success_probability,
    system_ancilla_factor,
    total_coherence_conservation,
)
from .teleport import (
    BranchRecord,
    Fig4Row,
    SampleReport,
    TeleportInstance,
    TeleportRun,
    alice_circuit,
    branch_embedding,
    branch_probability,
    branch_to_ussd,
    channel_state,
    enumerate_runs,
    fig4_sweep,
    run_teleport,
    sample_teleport,
    square_mean_root,
    total_success_probability,
)
from .oracle import (
    ConcurrenceSearchResult,
    ConvergenceTable,
    DecompositionReport,
    GridSpec,
    SuccessSearchResult,
    decomposition_check,
    grid_min_concurrence,
    grid_optimize_success,
    quadrature_refine,
)
from .selftest import SelftestReport, available_checks, run_selftest

__all__ = [
    "__version__",
    # errors
    "UssdLabError", "RegisterClash", "UnknownQubit", "ShapeError",
    "DegenerateOverlap", "UndefinedPhase", "EmbeddingError",
    "RangeError", "NumericalError",
    # tolerances
    "Tolerances", "DEFAULT_TOLERANCES",
    # state/register layer
    "PureState", "Unitary", "PAULI", "HADAMARD", "CNOT",
    "tensor", "reorder", "apply", "projective_measure",
    # coherence accounting
    "wootters_concurrence", "three_tangle",
    "CoherenceLedger", "ledger", "initial_coherence",
    "closed_form_coherences", "BandScan", "coherence_band",
    # discrimination protocol
    "UssdInstance", "make_instance", "Embedding", "canonical_embedding",
    "build_chi", "UssdStrategy", "check_pair", "optimal_strategy",
    "success_probability", "p_suc_max", "coupled_state", "coupling_unitary",
    "OutcomeRecord", "ProtocolResult", "run_protocol", "SeparabilityParams",
    "separability_params", "separable_strategy", "system_ancilla_factor",
    "ConservationReport", "total_coherence_conservation", "bargmann_loop",
    "bargmann_phase",
    # teleportation application
    "TeleportInstance", "channel_state", "alice_circuit", "BranchRecord",
    "branch_probability", "branch_embedding", "branch_to_ussd",
    "total_success_probability", "TeleportRun",
    "run_teleport", "enumerate_runs", "square_mean_root", "Fig4Row",
    "fig4_sweep", "SampleReport", "sample_teleport",
    # oracles
    "GridSpec", "SuccessSearchResult", "grid_optimize_success",
    "ConcurrenceSearchResult", "grid_min_concurrence", "DecompositionReport",
    "decomposition_check", "ConvergenceTable", "quadrature_refine",
    # selftest
    "SelftestReport", "run_selftest", "available_checks",
]
