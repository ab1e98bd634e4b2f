"""Exception types shared across the package."""


class MeshChromaError(Exception):
    """Base class for every error raised by this package."""


class ElementFaultError(MeshChromaError):
    """Element data that cannot form a mesh.

    ``element_ids`` lists the elements at fault, the one to name first.
    ``assemble`` raises it (or a subclass) for elements that cannot form
    a mesh, so no ``Mesh`` holds such elements.
    """

    def __init__(self, message: str, element_ids=()):
        super().__init__(message)
        self.element_ids = tuple(int(e) for e in element_ids)


class NonManifoldError(ElementFaultError):
    """Three or more elements share a single surface."""


class DanglingVertexError(ElementFaultError):
    """An element references a vertex id outside the vertex table."""


class RepeatedVertexError(ElementFaultError, ValueError):
    """An element lists one vertex id twice."""


class MixedKindsError(ElementFaultError, ValueError):
    """One mesh holds both 2D and 3D element kinds."""


class UnsupportedVersionError(MeshChromaError):
    """Input file declares a format version the reader does not handle."""


class MalformedSectionError(MeshChromaError):
    """A file section is missing, truncated, or holds unparseable data."""


class RestartsExhaustedError(MeshChromaError):
    """No complete coloring: every restart attempt ran out of swap
    budget, or a parity count shows that none exists."""


class LevelConstraintError(MeshChromaError):
    """A refinement request would nest more than one level deep."""


class UnrefinableKindError(MeshChromaError):
    """Refinement was requested for an element kind that cannot be split."""


class PartialFamilyError(MeshChromaError):
    """Coarsening addressed an element that is not a currently refined parent."""


class PlanMeshMismatchError(MeshChromaError):
    """A reordering plan does not match the mesh it is applied to."""


class WriteConflictError(MeshChromaError):
    """Two surfaces of one color class write the same element."""
