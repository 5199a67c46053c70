"""Signature-chamber integrals of Hermitian pencils and Morse-type
spectral density bounds for CR line bundles.

Each public name is imported from its submodule on first access
(PEP 562), so a program loads only the submodules it uses.  _SOURCES is
the one list of public names: each submodule's __all__ is read from it.
"""

from __future__ import annotations

import importlib

__version__ = "1.0.0"

# public name -> the submodule that defines it
_SOURCES = {
    "Bigness": "morse",
    "BergmanValue": "model",
    "CalibrationError": "errors",
    "Chamber": "pencil",
    "ChamberBoundaryError": "errors",
    "ChamberDecomposition": "pencil",
    "CRMorseError": "errors",
    "DegeneratePencilError": "errors",
    "EtaChamberSet": "model",
    "ExtremalForm": "model",
    "HeisenbergSpec": "oracles",
    "HermitianMatrix": "pencil",
    "IDENTICALLY_ZERO": "pencil",
    "Inertia": "pencil",
    "InputError": "errors",
    "LatticeCalibration": "oracles",
    "ModelData": "model",
    "MorseReport": "morse",
    "PencilField": "morse",
    "PencilPoint": "morse",
    "Positivity": "morse",
    "RealPolynomial": "pencil",
    "TorusBundleSpec": "oracles",
    "XqResult": "morse",
    "ZeroExtremalMassError": "errors",
    "bergman_bruteforce": "model",
    "bergman_diag": "model",
    "bigness_verdict": "morse",
    "build_morse_report": "morse",
    "calibrate": "oracles",
    "calibrate_weight": "oracles",
    "chamber_integral": "pencil",
    "chambers": "pencil",
    "check_Xq": "morse",
    "classify_bundle": "morse",
    "d1_fourier_bruteforce": "oracles",
    "density_q": "morse",
    "eta_chambers": "model",
    "extremal_form": "model",
    "fourier_dimension_sum": "oracles",
    "heisenberg_field": "oracles",
    "inertia": "pencil",
    "levi_flat_field": "oracles",
    "load_calibration": "oracles",
    "m_phi_eta": "model",
    "parse_field": "cli",
    "pencil_char_poly": "pencil",
    "pencil_signed_integral": "pencil",
    "real_roots": "pencil",
    "rrh_total": "morse",
    "run": "cli",
    "save_calibration": "oracles",
    "serialize_field": "cli",
    "signature_set": "pencil",
    "strong_sums": "morse",
    "szego_density": "model",
    "torus_bundle_field": "oracles",
    "torus_mode_dim": "oracles",
    "verify_calibration": "oracles",
    "weak_bound": "morse",
}

__all__ = list(_SOURCES)


def _exports(module: str) -> list:
    """The __all__ of the submodule named ``module``: its names in _SOURCES."""
    return [name for name, home in _SOURCES.items() if "%s.%s" % (__name__, home) == module]


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _SOURCES[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
