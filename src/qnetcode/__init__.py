"""Perfect quantum network coding driven by classical linear schemes.

Given a directed acyclic multi-pair instance and a (vector-)linear coding
scheme over a finite ring, this package simulates the node-by-node quantum
protocol that transports arbitrary input states to the targets with fidelity
one, using measurements plus free classical communication, and accounts for
the classical traffic against the k * M * |V| bound.
"""

from .network import (
    CapExceededError,
    CodingScheme,
    InstanceError,
    Network,
    TransferMap,
    parse_network,
    scheme_with_alternate_phi,
    source_edge,
    target_edge,
    transfer_coefficients,
    verify_solution,
)
from .protocol import (
    BranchResult,
    CostReport,
    InvalidSchemeError,
    MessageLog,
    PhaseTable,
    RunResult,
    SchemePlan,
    classical_cost,
    compute_corrections,
    enumerate_branches,
    plan_scheme,
    run_protocol,
)
from .quantum import (
    DimensionCapError,
    MeasurementOutcome,
    SupportState,
    ZeroProbabilityError,
    basis_state,
    fidelity,
    init_state,
    state_from_rows,
)
from .rings import (
    RingError,
    RingSpec,
    coefficient_matrix,
    parse_ring_spec,
)

__version__ = "0.1.0"
