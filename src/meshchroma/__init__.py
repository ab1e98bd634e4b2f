"""Surface coloring for race-free parallel mesh sweeps.

Partitions the edges or faces of a mesh into the minimum number of
color classes such that no element sees one color twice, so each class
can be accumulated concurrently without write conflicts or per-surface
buffers.  Colors survive 1:4 triangle refinement (palette doubles to
six) and drive an element renumbering that makes sweep memory access
consecutive.
"""

from .amr import (
    RefinedMesh,
    RefinementMap,
    child_color,
    coarsen,
    reconstruct_refinement,
    refine,
)
from .coloring import (
    ColoringReport,
    SurfaceColoring,
    color,
    color_set_size,
    verify_coloring,
)
from .errors import (
    DanglingVertexError,
    ElementFaultError,
    LevelConstraintError,
    MalformedSectionError,
    MeshChromaError,
    MixedKindsError,
    NonManifoldError,
    PartialFamilyError,
    PlanMeshMismatchError,
    RepeatedVertexError,
    RestartsExhaustedError,
    UnrefinableKindError,
    UnsupportedVersionError,
    WriteConflictError,
)
from .generators import (
    FAMILIES,
    GeneratorSpec,
    gen_quad_rect,
    gen_tet_prism,
    gen_tri_rect,
    generate,
    shuffle_elements,
)
from .mesh import (
    Diagnostic,
    ElementKind,
    Mesh,
    vizing_bound,
)
from .meshio import (
    NativeMesh,
    read_msh,
    read_native,
    write_native,
    write_report,
)
from .reorder import (
    CoalescingReport,
    ReorderingPlan,
    apply_plan,
    build_plan,
    coalescing_metric,
)
from .sweeps import (
    AccumulationState,
    MemoryEstimate,
    assert_race_free,
    basis_count,
    default_payload,
    memory_saved,
    surface_buffer,
    sweep_buffered,
    sweep_colored,
    sweep_sequential,
)

__version__ = "0.1.0"

__all__ = [
    "AccumulationState",
    "CoalescingReport",
    "ColoringReport",
    "DanglingVertexError",
    "Diagnostic",
    "ElementFaultError",
    "ElementKind",
    "FAMILIES",
    "GeneratorSpec",
    "LevelConstraintError",
    "MalformedSectionError",
    "MemoryEstimate",
    "Mesh",
    "MeshChromaError",
    "MixedKindsError",
    "NativeMesh",
    "NonManifoldError",
    "PartialFamilyError",
    "PlanMeshMismatchError",
    "RefinedMesh",
    "RefinementMap",
    "ReorderingPlan",
    "RepeatedVertexError",
    "RestartsExhaustedError",
    "SurfaceColoring",
    "UnrefinableKindError",
    "UnsupportedVersionError",
    "WriteConflictError",
    "apply_plan",
    "assert_race_free",
    "basis_count",
    "build_plan",
    "child_color",
    "coalescing_metric",
    "coarsen",
    "color",
    "color_set_size",
    "default_payload",
    "gen_quad_rect",
    "gen_tet_prism",
    "gen_tri_rect",
    "generate",
    "memory_saved",
    "read_msh",
    "read_native",
    "reconstruct_refinement",
    "refine",
    "shuffle_elements",
    "surface_buffer",
    "sweep_buffered",
    "sweep_colored",
    "sweep_sequential",
    "verify_coloring",
    "vizing_bound",
    "write_native",
    "write_report",
]
