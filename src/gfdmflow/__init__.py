"""Meshless generalized-finite-difference simulator for two-phase porous flow.

The package builds difference operators on scattered node clouds by weighted
least squares over local Taylor expansions, assembles fully-implicit
oil/water flow residuals with upwind mobilities, and solves them with Newton
iterations on an exact forward-mode Jacobian.  A vertex-centered upwind
finite-difference solver on the same lattice coordinates serves as the
independent reference, and the CLI drives scenario runs, stencil
diagnostics, and convergence studies.
"""

from .assembly import ImplicitSystem
from .cloud import (
    NodeKind,
    add_virtual_nodes,
    generate_cartesian_cloud,
    generate_irregular_cloud,
    read_cloud_csv,
    write_cloud_csv,
)
from .config import ScenarioConfig, SegmentBC, load_config, parse_config, serialize_config
from .errors import (
    CloudError,
    ConfigError,
    DegenerateStencilError,
    GfdmFlowError,
    LinearSolveError,
    SetupError,
    StencilUnderdeterminedError,
    TimeStepCollapseError,
    UnphysicalValueError,
)
from .fdm import FdmGrid, FdmSystem, relative_error
from .operators import build_operators, stencil_quality, weight
from .physics import (
    ReservoirModel,
    SimState,
    kro,
    krw,
    pair_transmissibility_parts,
    porosity,
    upwind_nodes,
)
from .pipeline import run_fdm_scenario, run_scenario
from .postproc import extract_profile, front_positions, front_width, interpolate_to_lattice
from .solver import TimeControl, advance, newton_step, simulate

__version__ = "0.1.0"
