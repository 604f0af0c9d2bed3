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
    reduce_network,
)
from .objective import (
    ObjectiveConfig,
    ObjectiveEval,
    eval_objective,
    grad_h2,
    objective_value,
)
from .optimizer import DescentConfig, OptResult, TerminationReason, optimize
from .simulator import Disturbance, SimResult, compare_designs, simulate

__version__ = "0.1.0"
