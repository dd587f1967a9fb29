"""qwtopo: scattering topology of one-dimensional split-step quantum walks.

Each public name loads its module on first access, not with the package.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "walk": ("H", "V", "CoinField", "SplitStepProtocol", "WalkerState", "evolve"),
    "scattering": ("InvariantPair", "PhaseDiagram", "ReflectionSeries", "ScanResult",
                   "ScatteringSystem", "invariants", "line_pairs", "phase_diagram",
                   "reflection_amplitudes", "scan_line"),
    "disorder": ("DisorderSpec", "EnsembleResult", "NoCrossing", "disorder_curve",
                 "ensemble_r0", "sample_pattern", "transition_locator"),
    "edges": ("LocalizationRecord", "localization_vs_disorder", "run_interface"),
    "apparatus": ("AmbiguousSign", "ApparatusModel", "ChainBroken", "ErrorRanges",
                  "McResult", "MeasurementData", "emulate_measurement", "interfere",
                  "measured_invariants", "monte_carlo_errorbars", "reconstruct_series",
                  "relative_sign"),
    "config": ("ConfigInvalid",),
    "dataio": ("IoFailure", "RunManifest", "UnknownDataKind"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)
