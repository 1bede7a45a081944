"""Entanglement relative to observable-induced tensor product structures.

The same state can be maximally entangled, partially entangled or
separable depending on which partition of the observables defines the
subsystems.  This package computes entanglement relative to explicit
frames, constructs frames realizing any wanted Schmidt spectrum, carries
the analogous machinery for Gaussian states, and works through the
two-body system: particle versus center-of-mass/relative splits, their
invariances, and entanglement growth in lattice scattering.
"""

from .findim import (
    DensityMatrix,
    Factorization,
    PureState,
    SchmidtData,
    TpsFrame,
    apply_frame,
    bell_state,
    entanglement_entropy,
    negativity,
    operator_schmidt_rank,
    partial_trace,
    purity,
    random_density,
    random_pure,
    random_unitary,
    schmidt_decompose,
    spectrum,
)
from .gaussian import (
    CovarianceMatrix,
    GaussianState,
    InvalidCovarianceError,
    SymplecticMatrix,
    WilliamsonError,
    apply_symplectic,
    gaussian_entropy_across,
    gaussian_purity,
    is_pure,
    log_negativity_two_mode,
    mode_separating_transform,
    random_covariance,
    random_symplectic,
    reduce_modes,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_entropy,
    two_mode_squeezed,
    vacuum_state,
    williamson,
)
from .scattering import (
    LatticeConfig,
    LatticeHamiltonian,
    WavePacket,
    build_hamiltonian,
    build_product_in_state,
    collision_time,
    entanglement_history,
    evolve,
)
from .tailor import (
    SubalgebraBasis,
    TargetSpectrum,
    ZanardiReport,
    check_zanardi,
    conjugate_subalgebra,
    hermitian_basis,
    max_frame,
    min_frame,
    subalgebra_generators,
    tailor_frame,
)
from .twobody import (
    QuadraticHamiltonian,
    TwoBodyParams,
    build_hamiltonian_matrix,
    com_rel_transform,
    coupling_sweep,
    evolve_gaussian,
    galilean_boost,
    ground_state_covariance,
    internal_external_entanglement,
    internal_external_entropy,
    interparticle_entanglement,
    mass_scaling,
    scaled_hamiltonian,
    transform_quadratic_hamiltonian,
)

__version__ = "0.1.0"
