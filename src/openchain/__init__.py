"""openchain: excitation transport and clocked computation on disordered chains.

Closed-system propagation is exact (spectral decomposition); open-system
dynamics uses nearest-level thermal jump rates in the energy eigenbasis, with
populations advanced by the matrix exponential of the classical master
equation and coherences by their closed-form decay. Every pipeline reads one
pure-state kernel block by block (``lindblad.energy_blocks``), on the few rows
of the site distribution it needs (``lindblad.read_out``); the closed chain is
the bath chain without a bath
(``dissipative_transport_run(energies, None, ...)``). Parameters travel as
plain values: a chain is its disorder array (``sample_disorder(s, sigma,
seed)``), tilted by ``build_chain_hamiltonian(disorder, g)``, and a switch is
its entry site ``a`` on that same array (``run_superposed_input(a, disorder,
g, ...)``).

The package namespace carries what the README's Library example uses; the
rest of the API lives in the submodules (``openchain.chains``,
``openchain.lindblad``, ``openchain.feynman``, ``openchain.config``,
``openchain.runner``, ``openchain.cli``).
"""

__version__ = "0.1.0"

from .chains import build_chain_hamiltonian, sample_disorder
from .config import load_config
from .feynman import run_superposed_input
from .lindblad import BathSpec, dissipative_transport_run

__all__ = [
    "__version__",
    "build_chain_hamiltonian",
    "sample_disorder",
    "BathSpec",
    "dissipative_transport_run",
    "run_superposed_input",
    "load_config",
]
