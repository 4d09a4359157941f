"""torsiongeo: verification toolkit for Riemannian geometries whose
torsion is a skew-symmetric 3-form.

Submodules: frame_algebra (exterior algebra on orthonormal-frame
components), invariant_geometry (connections, curvature and residual
verifiers on left-invariant data), decomposition (torsion splitting),
special_structures (complex/hypercomplex/G2/Cayley builders and
reports), fibration_topology (principal-curvature algebra and integer
class arithmetic), dilaton (monotone elliptic iteration; it imports
scipy, so it and its names here load on first use), catalog and cli.
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
    parallel_residual,
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
from .reporting import StructureReport, ResidualRow

# dilaton needs scipy, which takes longer to import than the rest of the
# package; its names load on first access (PEP 562)
_DILATON_NAMES = frozenset({
    "DiscreteDomain",
    "SolverConfig",
    "IterationTrace",
    "build_flat_torus",
    "bounds",
    "pick_lambda",
    "linear_solve",
    "monotone_iterate",
})


def __getattr__(name):
    if name in _DILATON_NAMES:
        from . import dilaton
        return getattr(dilaton, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
