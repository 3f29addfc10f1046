"""Branched transport networks.

Plan mass between weighted sources and targets (exact or entropic
solvers), then merge parallel flows into tree networks whose shared
trunks exploit the economy of scale of a concave per-edge cost.
Includes weighted clustering for geographic hierarchies, paired
artery/vein builds, and SVG/GeoJSON rendering.
"""

from .core import (
    BotParams,
    BranchFlowError,
    ConvergenceError,
    FlowTree,
    InputError,
    ParameterError,
    StructuralError,
    TransportInstance,
    TransportPlan,
    ValidationReport,
    Violation,
    bot_cost,
    subadditivity_gain,
    validate_tree,
)
from .ot import (
    SinkhornConfig,
    SinkhornResult,
    cost_matrix,
    plan_cost,
    plan_to_assignments,
    solve_exact,
    solve_sinkhorn,
)
from .branching import (
    BuildEvent,
    BuildResult,
    OneToManyProblem,
    branch_point_interp,
    branch_point_power,
    branch_point_shifted,
    build_forest,
    build_one_to_many,
    local_improvement,
    star_cost,
)
from .clustering import (
    KMeansResult,
    WeightedPointSet,
    choose_k,
    weighted_centroid,
    weighted_kmeans,
)
from .pipeline import (
    HierarchicalNetwork,
    NetworkReport,
    NetworkResult,
    dual_network,
    geo_embed,
    geo_project,
    santa_pipeline,
    solve_network,
    to_sphere,
)
from .io import (
    CityLoadReport,
    CityTable,
    NetworkDocument,
    load_cities_csv,
    network_from_json,
    network_to_json,
    plan_to_json,
    sample_cities_path,
)
from .render import render_geojson, render_svg
from .seeding import substream, substream_seed

__version__ = "0.1.0"

# the public names: every class and function imported above, sorted
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_")
                 and getattr(value, "__module__", "").startswith("branchflow."))
