"""Stochastic simulator of volatile resistive-switching (RRAM) cells,
multi-device synapses built from them, and a two-alternative forced-choice
decision network, with a Monte Carlo harness and a calibration pipeline.

The short-term memory of the system lives in the devices themselves: an ON
cell holds a dissolving filament whose expiry time is the hidden state. Pulse
streams integrate onto parallel synapses; the decaying ON counts are the
evidence traces; a sign comparator on the two ON counts, which order the two
synaptic currents, makes the choice at the end of the trial window.
"""

from .calibration import (
    ParamDeck,
    RetentionRecord,
    SwitchingFitDiagnostics,
    SwitchingRecord,
    default_deck,
    fit_retention,
    fit_switching_curve,
    read_deck,
    read_retention_csv,
    read_switching_csv,
    write_deck,
)
from .device import DeviceParams, RetentionDistribution, SwitchingCurve
from .errors import (
    ConfigError,
    DegenerateDataError,
    InsufficientDataError,
)
from .experiment import (
    AccuracyPoint,
    estimate_accuracy,
    run_trace_experiment,
    sweep,
    sweep_cells,
    wilson_interval,
)
from .network import TrialBatch, TwoAfcConfig, decide, run_trials
from .seeding import derive_seed, spawn_rng
from .stream import (
    PulseStream,
    generate_periodic,
    read_stream_csv,
    write_stream_csv,
)
from .synapse import Trace

__version__ = "0.1.0"

__all__ = [
    "AccuracyPoint",
    "ConfigError",
    "DegenerateDataError",
    "DeviceParams",
    "InsufficientDataError",
    "ParamDeck",
    "PulseStream",
    "RetentionDistribution",
    "RetentionRecord",
    "SwitchingCurve",
    "SwitchingFitDiagnostics",
    "SwitchingRecord",
    "Trace",
    "TrialBatch",
    "TwoAfcConfig",
    "decide",
    "default_deck",
    "derive_seed",
    "estimate_accuracy",
    "fit_retention",
    "fit_switching_curve",
    "generate_periodic",
    "read_deck",
    "read_retention_csv",
    "read_stream_csv",
    "read_switching_csv",
    "run_trace_experiment",
    "run_trials",
    "spawn_rng",
    "sweep",
    "sweep_cells",
    "wilson_interval",
    "write_deck",
    "write_stream_csv",
]
