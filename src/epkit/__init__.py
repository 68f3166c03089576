"""epkit: exceptional-point detection, classification, and coalescence
analysis for sublattice-symmetric Bloch Hamiltonians."""

from .analysis import (
    BZCandidate,
    CoalescenceProfile,
    PathScan,
    bz_scan,
    coalescence_profile,
    path_scan,
    quantum_distance,
    scaling_exponent,
)
from .classify import (
    EPClassification,
    EPKind,
    check_ep2n,
    classify_nonzero_energy,
    classify_point,
    classify_zero_energy,
    mixed_limit_family,
)
from .cmatrix import (
    DEFAULT_TOL,
    eig,
    image_basis,
    kernel_basis,
    subspace_equal,
    svd_rank,
)
from .models import (
    MODEL_CATALOG,
    build_model,
    doublet_ep2_model,
    ep3_model,
    ep4_quartic_model,
    ep4_sqrt_model,
    kitaev_bloch,
    kitaev_ep_locations,
    kitaev_model,
    yao_lee_ep3_model,
    yao_lee_ep4_model,
    zero_targets,
)
from .spectral import (
    EigenvalueCluster,
    EPReport,
    JordanStructure,
    cluster_eigenvalues,
    ep_report,
    jordan_chain,
    jordan_structure,
)
from .sublattice import (
    BlockHamiltonian,
    assemble,
    assemble_blocks,
    reduced_spectrum,
    symmetry_residual,
    zero_energy_states,
)

__version__ = "0.1.0"
