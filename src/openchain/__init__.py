"""openchain: excitation transport and clocked computation on disordered chains.

Closed-system propagation is exact (spectral decomposition); open-system
dynamics uses nearest-level thermal jump rates in the energy eigenbasis, with
populations advanced by the matrix exponential of the classical master
equation and coherences by their closed-form decay. Every pipeline runs one
pure-state kernel (``lindblad.relax_energy_density`` and
``lindblad.site_distribution``).
"""

__version__ = "0.1.0"

from .chains import (
    ChainSpec,
    DisorderRealization,
    EigenSystem,
    HamiltonianOperator,
    PotentialProfile,
    assemble_hamiltonian,
    build_chain_hamiltonian,
    build_free_chain,
    build_linear_potential,
    diagonalize,
    free_eigensystem,
    localization_length_bloch,
    localization_length_gaussian,
    participation_ratio,
    sample_disorder,
)
from .config import ConfigError, ExperimentConfig, load_config, validate_config
from .feynman import (
    CircuitLayout,
    PathCoordinateMap,
    PeresBasis,
    bell_fidelity,
    build_cnot_layout,
    coordinate_map,
    peres_basis,
    reduced_chain_hamiltonian,
    register_states,
    run_classical_input,
    run_superposed_input,
    von_neumann_entropy,
)
from .lindblad import (
    BathSpec,
    DegenerateGapError,
    TransitionRates,
    dissipative_transport_run,
    population_generator,
    thermal_fixed_point,
    transition_rates,
)
from .runner import run_scenario, sweep
from .series import ObservableSeries
from .unitary import (
    PureState,
    arrival_peak,
    evolve_pure,
    position_moments,
    site_probability,
    unitary_observable_series,
)

__all__ = [
    "__version__",
    "ChainSpec",
    "DisorderRealization",
    "PotentialProfile",
    "HamiltonianOperator",
    "EigenSystem",
    "build_free_chain",
    "free_eigensystem",
    "sample_disorder",
    "build_linear_potential",
    "assemble_hamiltonian",
    "build_chain_hamiltonian",
    "diagonalize",
    "localization_length_gaussian",
    "localization_length_bloch",
    "participation_ratio",
    "PureState",
    "evolve_pure",
    "position_moments",
    "site_probability",
    "arrival_peak",
    "unitary_observable_series",
    "ObservableSeries",
    "BathSpec",
    "TransitionRates",
    "DegenerateGapError",
    "transition_rates",
    "population_generator",
    "thermal_fixed_point",
    "dissipative_transport_run",
    "CircuitLayout",
    "PathCoordinateMap",
    "PeresBasis",
    "build_cnot_layout",
    "coordinate_map",
    "peres_basis",
    "reduced_chain_hamiltonian",
    "run_classical_input",
    "run_superposed_input",
    "register_states",
    "von_neumann_entropy",
    "bell_fidelity",
    "ExperimentConfig",
    "ConfigError",
    "validate_config",
    "load_config",
    "run_scenario",
    "sweep",
]
