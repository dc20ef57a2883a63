"""Mixed quantum t-design measurements and their classical capacity.

Construction of the catalog families (qubit/qutrit SIC and complete MUB,
icosahedron, Hoggar SIC, anti-SICs, depolarized versions), exact design
certification from the characters of the symmetric group S_t, capacity upper
bounds from Hermite interpolation, closed-form capacities, and an
independent column-generation oracle.
"""

from .core import WeightedElementSet, eta, pure_ensemble
from .catalog import (
    AdmissibleInterval,
    DesignSpec,
    FAMILIES,
    admissible_lambda,
    anti_design,
    build,
    depolarize,
    design_strength,
    moments_of_depolarized,
)
from .verify import (
    DesignCertificate,
    MomentVector,
    certify,
    gammas,
    moments,
)
from .bounds import (
    BoundReport,
    InterpolationSpec,
    bound_Ct,
    bound_from_set,
    hermite_interpolate,
)
from .closedform import capacity, hyp2f1_11, optimal_ensemble, uniform_capacity
from .oracle import (
    OracleResult,
    StateGrid,
    default_grid,
    discretized_uniform_povm,
    informational_power,
    kl_maximize,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleInterval", "BoundReport", "DesignCertificate", "DesignSpec",
    "FAMILIES", "InterpolationSpec", "MomentVector", "OracleResult", "StateGrid",
    "WeightedElementSet", "admissible_lambda", "anti_design", "bound_Ct",
    "bound_from_set", "build", "capacity", "certify", "default_grid", "depolarize",
    "design_strength", "discretized_uniform_povm", "eta", "gammas", "hermite_interpolate",
    "hyp2f1_11", "informational_power", "kl_maximize", "moments", "moments_of_depolarized",
    "optimal_ensemble", "pure_ensemble", "uniform_capacity",
]
