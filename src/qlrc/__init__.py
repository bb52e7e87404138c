"""Classical and quantum locally recoverable stabilizer codes.

Exact finite-field machinery for building classical/quantum codes,
computing their dual and weight invariants, certifying (r, delta)-local
recoverability, and checking the Singleton-like bounds, with brute-force
oracles validating every fast criterion.
"""

from .gf import GF, Field
from .matrix import Matrix, kernel, rank, rref, solve, subspace_equal
from .code import (
    IndexSet,
    LinearCode,
    dual_euclidean,
    dual_hermitian,
    generalized_hamming_weights,
    min_distance,
    puncture,
    shorten,
)
from .symp import (
    SymplecticCode,
    css_product,
    dual_symplectic,
    gsw,
    gsw_hierarchy,
    is_self_orthogonal,
    max_isotropic_extension,
    min_symplectic_weight,
    puncture_paired,
    shorten_paired,
    symplectic_form,
    symplectic_weight,
)
from .locality import (
    BoundReport,
    LocalityCertificate,
    Verdict,
    classical_singleton,
    ghw_locality_filter,
    is_rdelta_recovery_set,
    is_recovery_set,
    verify_rdelta_lrc,
)
from .qlocality import (
    QuantumCodeParams,
    bridge_classical_quantum,
    corrects_erasures_at,
    css_distance,
    ij_recoverable,
    ij_recoverable_css,
    ij_recoverable_euclidean,
    ij_recoverable_hermitian,
    impossibility_filter,
    purity_check,
    quantum_r_lrc_bound,
    quantum_singleton,
    stabilizer_distance_symplectic,
    sufficient_filter,
    verify_quantum_rdelta_lrc,
)
from .constructions import (
    DeltaSet,
    GridSpec,
    affine_variety_code,
    css_pair,
    delta_family,
    grs_code,
    hamming_code,
    hermitian_dc_grs_search,
    steane_symplectic,
)
from .oracle import erasure_decode, exhaustive_ij_check, symplectic_erasure_decode

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
