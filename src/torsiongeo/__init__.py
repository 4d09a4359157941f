"""torsiongeo: verification toolkit for Riemannian geometries whose
torsion is a skew-symmetric 3-form.

Submodules: frame_algebra (exterior algebra on orthonormal-frame
components), invariant_geometry (connections, curvature and residual
verifiers on left-invariant data), decomposition (torsion splitting),
special_structures (complex/hypercomplex/G2/Cayley builders and
reports), fibration_topology (principal-curvature algebra and integer
class arithmetic), dilaton (monotone elliptic iteration), catalog and
cli.
"""

__version__ = "0.1.0"

from .frame_algebra import (
    FrameTensor,
    wedge,
    interior_product,
    form_inner,
    hodge_star,
)
from .invariant_geometry import (
    LieFrameGeometry,
    direct_sum,
    HypothesesNotMet,
    levi_civita,
    with_torsion,
    curvature,
    ricci,
    d_invariant,
    codifferential,
    nabla_invariant,
    bianchi_report,
    bochner_report,
    lee_form,
    soliton_report,
    bochner_term,
)
from .decomposition import (
    DecompositionResult,
    torsion_gram,
    eigen_split,
    decompose,
)
from .special_structures import (
    nijenhuis,
    kt_report,
    hkt_report,
    g2_report,
    structure_reports,
    build_su3,
    build_g2,
    bryant_positivity,
    build_spin7,
    spin7_report,
    parallel_residual,
)
from .fibration_topology import (
    PrincipalCurvature,
    TopologyData,
    sd_asd_split,
    frestrict_residual,
    build_su3_fibration,
    wedge_trace,
    chern_topology,
    enumerate_diophantine,
)
from .dilaton import (
    DiscreteDomain,
    SolverConfig,
    IterationTrace,
    build_flat_torus,
    bounds,
    pick_lambda,
    linear_solve,
    monotone_iterate,
)
from .reporting import StructureReport, ResidualRow
