"""Alternative symplectic structures for the 2-D isotropic oscillator and the
inequivalent quantum theories obtained by applying Dirac's rule to each one.

The classical layer enumerates bracket-matrix/Hamiltonian pairs that all
generate the same oscillator flow; the quantum layer builds the four operator
algebras those brackets induce and measures how their Heisenberg-picture
predictions differ on one and the same prepared state.
"""

from ._version import __version__
from .phasespace import (
    COORD_NAMES,
    FormValidation,
    LinearVectorField,
    PhysParams,
    PolynomialObservable,
    SymplecticForm,
    coordinates,
    hamiltonian_vector_field,
    is_constant_of_motion,
    poisson_bracket,
    validate_form,
)
from .pairs import (
    HamiltonianPair,
    InverseFormBasis,
    admissible_inverse_forms,
    bracket_matrices,
    classify_boundedness,
    complete_pair,
    hamiltonian_from_form,
    oscillator_field,
    standard_forms,
    standard_hamiltonians,
    standard_pairs,
    verify_pair,
)
from .flow import (
    ConservationCheck,
    PhaseState,
    SymplecticCheck,
    default_sample_times,
    exact_flow,
    flow_jacobian,
    verify_conserved,
    verify_flow_symplectic,
)
from .operators import (
    GaussianPacket,
    GridSpec,
    Primitive,
    WaveFunction,
)
from .quantum import (
    CANONICAL_PAIRS,
    OBSERVABLES,
    PRIMITIVES,
    QuantizationScheme,
    commutator_table_check,
    conjugation_deviations,
    conjugation_probe,
    ground_packet,
    heisenberg_moments,
    kernel_overlap,
    scheme,
    two_time_commutator,
    uncertainty_bound,
    unitary_evolve,
)
from .lab import (
    CheckResult,
    Report,
    Scenario,
    ScenarioError,
    default_scenario,
    emit_report,
    load_scenario,
    report_to_csv,
    report_to_json,
    run_checks,
    run_scenario,
    scenario_from_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
