"""evspin: spin-s quantum dynamics as a linear flow on measured probabilities.

A spin-s state is pinned down by the (2s+1)^2 probabilities of finding the
maximal projection along a fixed set of directions.  This package builds
such direction sets (quorums), converts between density matrices and
probability vectors, and propagates the probabilities directly with a
closed linear system dP/dt = M P that is exactly equivalent to the von
Neumann equation -- no wavefunction or density matrix appears in the
evolution law itself.
"""

from .errors import (
    Check,
    ConservationViolationError,
    ConvergenceFailureError,
    DegenerateSpectrumWarning,
    DimensionMismatchError,
    IllConditionedQuorumWarning,
    InvariantViolationError,
    LambdaOutOfRangeError,
    MethodUnsupportedError,
    NonSymmetricCouplingError,
    NotHermitianError,
    SingularQuorumError,
)
from .linalg import hermitian_eigendecomposition, hermiticity_deviation
from .spin import (
    CoherentState,
    Direction,
    Drive,
    Envelope,
    HamiltonianSpec,
    Spin,
    SpinOperators,
    basis_state,
    build_hamiltonian,
    coherent_amplitudes,
    coherent_state,
    evolve_density_matrix,
    maximally_mixed,
    pure_state_density,
    random_density_matrix,
    random_hermitian,
    random_pure_state,
    spin_operators,
    validate_density_matrix,
)
from .quorum import (
    Quorum,
    QuorumConfig,
    build_quorum,
    default_config,
    quorum_from_document,
    quorum_to_document,
)
from .representation import (
    OperatorCoefficients,
    PhysicalityReport,
    PVector,
    convex_mix,
    expand_operator,
    expectation,
    pvec_to_rho,
    rho_to_pvec,
)
from .dynamics import (
    DrivenGenerator,
    Generator,
    Trajectory,
    bohr_spectrum,
    build_driven_generator,
    build_generator,
    fixed_points,
    generator_eigenvalues,
    propagate_exact,
    propagate_grid,
)

__version__ = "0.1.0"
