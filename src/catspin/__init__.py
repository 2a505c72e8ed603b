"""catspin: exact simulator for cat-state collective-spin interferometers and clocks."""

from catspin.dicke import (
    DimensionError,
    EnsembleDims,
    OperatorSet,
    Pulse,
    SpinState,
    apply_pulse,
    apply_rotation,
    basis_state,
    build_operator_set,
    css_state,
    dark_pulse,
    rotate_pulse,
    squeeze_pulse,
)
from catspin.protocols import (
    Detection,
    ProtocolParams,
    ProtocolSpec,
    builtin,
    oracle_run,
    run,
)

__version__ = "0.1.0"
