"""Graph manifolds, chargeless certificates, and dual cube complexes.

The library models compact aspherical 3-manifolds as JSJ block graphs,
decides whether the fundamental group is virtually compact special, and
builds Sageev dual cube complexes of finite wallspaces together with a
hyperplane pathology (specialness) checker.
"""

from .charge import (
    AdjacentFiber,
    ChargeVerdict,
    ClassificationVerdict,
    adjacent_fiber_slopes,
    classify_vcs,
    euler_number,
    fill_along_slopes,
    is_chargeless_block,
    is_chargeless_manifold,
    render_charge_report,
)
from .cubecomplex import (
    Cube,
    CubeComplex,
    Hyperplane,
    NPCReport,
    PathologyReport,
    check_npc,
    derived_edges,
    derived_squares,
    dimension,
    hyperplanes,
    specialness_report,
    validate_complex,
)
from .decomposition import (
    Tree,
    helly_intersection,
    interior_blocks,
    is_interior,
    modify_jsj,
)
from .errors import (
    BudgetExceededError,
    InputError,
    M3CubeError,
    ParseError,
)
from .fileformats import (
    parse_complex,
    parse_manifold,
    parse_wallspace,
    serialize_complex,
    serialize_wallspace,
)
from .homology import (
    IntMatrix,
    abelian_invariants,
    presentation_h1,
    smith_normal_form,
)
from .manifold import (
    GEOMETRY_LABELS,
    GluingMatrix,
    HyperbolicBlockData,
    ManifoldGraph,
    SeifertBlockData,
    Slope,
    TorusEdge,
    TorusEnd,
    slope_normalize,
    transport_slope,
    validate,
)
from .wallspace import (
    DualComplex,
    Wall,
    Wallspace,
    dual_cube_complex,
    torus_line_wallspace,
    validate_wallspace,
    walls_cross,
)

__version__ = "0.1.0"
