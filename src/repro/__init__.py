"""repro: a reproduction of "Accurate Leakage Speculation for Quantum Error Correction".

The package implements GLADIATOR — graph-model-driven leakage speculation for
QEC — together with every substrate its evaluation needs: QEC code
constructions (surface, colour, hypergraph-product and two-block cyclic
codes), a leakage-aware circuit-level simulator, matching and union-find
decoders, LRC gadget and FPGA cost models, the ERASER and open-loop
baselines, and the experiment harness that regenerates the paper's tables
and figures.

Quick start::

    from repro import ExperimentConfig, Session

    cfg = ExperimentConfig.from_dict({
        "code": {"name": "surface", "distance": 5},
        "policy": {"name": "gladiator+m"},
        "execution": {"shots": 400, "rounds": 50, "seed": 7},
    })
    result = Session.from_config(cfg).run()
    print(result.summary())

The same config drives the other execution paths (``.stream()`` for
windowed realtime decoding, ``.sweep(axes=...)`` for grids) and the
``python -m repro`` CLI; the lower-level objects (``surface_code``,
``make_policy``, ``LeakageSimulator``, ...) remain available for direct
composition.
"""

from .codes import (
    StabilizerCode,
    bpc_code,
    color_code,
    hgp_code_from_checks,
    hypergraph_product_code,
    surface_code,
    two_block_cyclic_code,
)
from .core import (
    POLICY_NAMES,
    CalibrationData,
    EraserMPolicy,
    EraserPolicy,
    GladiatorDMPolicy,
    GladiatorDPolicy,
    GladiatorMPolicy,
    GladiatorPolicy,
    GraphModelConfig,
    LeakagePolicy,
    MobilityEstimator,
    TransitionModel,
    make_policy,
)
from .experiments import (
    MemoryExperiment,
    MemoryResult,
    current_scale,
    make_code,
)
from .noise import NoiseParams, ideal_noise, paper_noise
from .sim import LeakageSimulator, RunResult, SimulatorOptions
from .api import (
    CodeConfig,
    DecoderConfig,
    ExecutionConfig,
    ExperimentConfig,
    NoiseConfig,
    PolicyConfig,
    Session,
    register_code,
    register_decoder,
    register_noise,
    register_policy,
)

__version__ = "1.0.0"

#: Re-exports of the serving and sweep layers, imported on first access
#: (PEP 562) so that ``import repro`` does not load them.
_LAZY = {
    "SweepSpec": "sweeps",
    "SweepExecutor": "sweeps",
    "SweepCache": "sweeps",
    "WorkUnit": "sweeps",
    "SimulatorStream": "realtime",
    "ReplayStream": "realtime",
    "WindowedDecoder": "realtime",
    "DecodeService": "realtime",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

__all__ = [
    "__version__",
    # codes
    "StabilizerCode",
    "surface_code",
    "color_code",
    "hypergraph_product_code",
    "hgp_code_from_checks",
    "bpc_code",
    "two_block_cyclic_code",
    # noise
    "NoiseParams",
    "paper_noise",
    "ideal_noise",
    # policies / core
    "make_policy",
    "POLICY_NAMES",
    "LeakagePolicy",
    "EraserPolicy",
    "EraserMPolicy",
    "GladiatorPolicy",
    "GladiatorMPolicy",
    "GladiatorDPolicy",
    "GladiatorDMPolicy",
    "GraphModelConfig",
    "TransitionModel",
    "CalibrationData",
    "MobilityEstimator",
    # simulation & experiments
    "LeakageSimulator",
    "SimulatorOptions",
    "RunResult",
    "MemoryExperiment",
    "MemoryResult",
    "current_scale",
    "make_code",
    # sweep engine
    "SweepSpec",
    "SweepExecutor",
    "SweepCache",
    "WorkUnit",
    # realtime decoding
    "SimulatorStream",
    "ReplayStream",
    "WindowedDecoder",
    "DecodeService",
    # api facade
    "ExperimentConfig",
    "CodeConfig",
    "NoiseConfig",
    "PolicyConfig",
    "DecoderConfig",
    "ExecutionConfig",
    "Session",
    "register_code",
    "register_decoder",
    "register_policy",
    "register_noise",
]
