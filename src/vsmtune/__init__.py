"""Virtual inertia and damping design for inverter-based virtual synchronous machines.

Builds a Kron-reduced swing-equation model of a power network, minimizes
a regularized H2 norm of the frequency dynamics over per-bus virtual
inertia and damping coefficients with spectral projected gradient, and
verifies designs with a time-domain frequency-response simulator.
"""

from .errors import (
    ConfigurationError,
    ParameterError,
    StabilityError,
    ValidationError,
    VsmtuneError,
)
from .lyapunov import is_hurwitz, solve_lyapunov
from .netfile import (
    NetworkDocument,
    bundled_network_path,
    device_params,
    load_network,
    parse_network,
    serialize_network,
)
from .netmodel import (
    Bus,
    DeviceParams,
    Line,
    NetworkSpec,
    ReducedNetwork,
    StateSpace,
    assemble_state_space,
    build_laplacian,
    kron_reduce,
    reduce_network,
    validate_network,
)
from .objective import (
    ObjectiveConfig,
    ObjectiveEval,
    eval_objective,
    grad_h2,
    gramians,
    h2_norm_sq,
    objective_value,
)
from .optimizer import DescentConfig, OptResult, TerminationReason, optimize, project
from .simulator import Disturbance, SimResult, compare_designs, simulate

__version__ = "0.1.0"

__all__ = [
    "Bus",
    "ConfigurationError",
    "DescentConfig",
    "DeviceParams",
    "Disturbance",
    "Line",
    "NetworkDocument",
    "NetworkSpec",
    "ObjectiveConfig",
    "ObjectiveEval",
    "OptResult",
    "ParameterError",
    "ReducedNetwork",
    "SimResult",
    "StabilityError",
    "StateSpace",
    "TerminationReason",
    "ValidationError",
    "VsmtuneError",
    "assemble_state_space",
    "build_laplacian",
    "bundled_network_path",
    "compare_designs",
    "device_params",
    "eval_objective",
    "grad_h2",
    "gramians",
    "h2_norm_sq",
    "is_hurwitz",
    "kron_reduce",
    "load_network",
    "objective_value",
    "optimize",
    "parse_network",
    "project",
    "reduce_network",
    "serialize_network",
    "simulate",
    "solve_lyapunov",
    "validate_network",
]
