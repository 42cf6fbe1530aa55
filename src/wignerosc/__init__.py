"""Exact energy spectra of harmonic-oscillator chains quantized without the CCRs.

A chain of n oscillators coupled through a real symmetric
positive-definite matrix A = omega^2 I + c M admits, besides canonical
quantization, solutions built from the Lie superalgebras gl(1|n) and
osp(1|2n). This package computes the spectral data of the coupling
matrix, the coupling-strength window where the gl(1|n) solution stays
unitary, and the exact Hamiltonian spectra (energies with integer
multiplicities) in the V(p) representations of both superalgebras, with
the ordinary boson Fock space recovered as the osp(1|2n) p = 1 case.
"""

from .coupling import CriticalCoupling, critical_coupling, gl_weights, weak_coupling_bound
from .errors import (NoCriticalCouplingError, NumericError,
                     PositiveDefinitenessError, ResourceLimitError, UnirrepError,
                     UnitarityError)
from .fock import (CompatibilityReport, FockBasisState, ReconstructedObservables,
                   TruncatedOperatorSet, build_fock_operators, fock_spectrum,
                   gz_to_fock, reconstruct_observables, verify_compatibility)
from .gl_spectrum import GlBasisVector, gl_dimension, gl_spectrum
from .levels import SpectrumLine
from .osp_spectrum import GZPattern, is_unirrep, osp_spectrum
from .spectral import (InteractionModel, ModeFrequencies, SpectralDecomposition,
                       build_constant_matrix, build_krawtchouk_matrix, decompose,
                       load_matrix, mode_frequencies)

__version__ = "0.1.0"

__all__ = [
    "InteractionModel", "SpectralDecomposition", "ModeFrequencies", "build_constant_matrix",
    "build_krawtchouk_matrix", "decompose", "mode_frequencies", "load_matrix",
    "CriticalCoupling", "gl_weights", "weak_coupling_bound", "critical_coupling",
    "SpectrumLine", "GlBasisVector", "gl_dimension", "gl_spectrum",
    "GZPattern", "osp_spectrum", "is_unirrep",
    "FockBasisState", "TruncatedOperatorSet", "CompatibilityReport",
    "ReconstructedObservables", "build_fock_operators", "verify_compatibility",
    "fock_spectrum", "gz_to_fock", "reconstruct_observables",
    "NumericError", "PositiveDefinitenessError", "NoCriticalCouplingError",
    "UnirrepError", "UnitarityError", "ResourceLimitError",
]
