"""qwtopo: scattering topology of one-dimensional split-step quantum walks."""

__version__ = "0.1.0"

from .walk import (
    H,
    V,
    CoinField,
    SplitStepProtocol,
    WalkerState,
    apply_coin_field,
    apply_shift_minus,
    apply_shift_plus,
    apply_shift_symmetric,
    double_step_equivalent,
    evolve,
    split_step,
)
from .scattering import (
    DegenerateGauge,
    InvariantPair,
    PhaseDiagram,
    ReflectionSeries,
    ScanResult,
    ScatteringSystem,
    invariants,
    phase_diagram,
    reflection_amplitudes,
    reflection_matrix_element,
    scan_line,
)
from .disorder import (
    DisorderSpec,
    EnsembleResult,
    NoCrossing,
    disorder_curve,
    ensemble_r0,
    sample_pattern,
    transition_locator,
)
from .edges import (
    InterfaceSystem,
    LocalizationRecord,
    localization_vs_disorder,
    run_interface,
)
from .apparatus import (
    AmbiguousSign,
    ApparatusModel,
    ChainBroken,
    ErrorRanges,
    McResult,
    MeasurementData,
    emulate_measurement,
    interfere,
    measured_invariants,
    measured_series,
    monte_carlo_errorbars,
    reconstruct_series,
    relative_sign,
)
from .config import ConfigInvalid
from .dataio import IoFailure, RunManifest, UnknownDataKind

__all__ = [name for name in dir() if not name.startswith("_")]
