"""Surface accumulation, three ways, as numpy kernels with proof hooks.

Each surface k carries an integer payload f(k); processing it adds
+f(k) to its left element's accumulator and -f(k) to its right one
(boundary surfaces have no right).  Payloads are integers so results
compare bit-exactly across strategies, with no reassociation slack:

* sweep_sequential: the reference.  One unbuffered ``np.add.at``
  scatter, which applies every contribution even when many surfaces
  write the same element.
* sweep_colored: one color class at a time, each class a single
  fancy-index update ``totals[elems] += f``.  Such an update keeps only
  one write per repeated index, the way unguarded concurrent
  read-modify-writes that race on an element lose updates.  It is
  therefore exact only when no element appears twice in a class, which
  is what a valid coloring guarantees; that guarantee is what the
  coloring buys.
* sweep_buffered: no coloring needed.  Surface k's two contributions go
  to their own buffer slots 2k and 2k+1, then each element gathers its
  slots.  Trades 2 * n_surfaces extra storage for independence.

assert_race_free checks the static property directly: no element sees
a color on two of its sides, so no color class writes an element twice.
The test is ``verify_coloring``'s conflict test, the same code, so the
two never disagree.

Also here: the memory cost of the buffered strategy's extra buffers
for a hypothetical degree-p solver, which is what the buffered->colored
switch saves.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .coloring import SurfaceColoring, _require_palette, _side_repeats
from .errors import WriteConflictError
from .mesh import Mesh

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


@dataclass
class AccumulationState:
    """Per-element integer accumulators plus the payload that fed them."""

    totals: np.ndarray
    payload: np.ndarray

    def checksum(self) -> int:
        return zlib.crc32(self.totals.astype("<i8").tobytes())


def default_payload(n_surfaces: int, seed: int = 0) -> np.ndarray:
    """Deterministic 20-bit signed payload per surface id (splitmix64)."""
    z = np.arange(1, n_surfaces + 1, dtype=np.uint64)
    z = z * np.uint64(_GOLDEN) + np.uint64((seed * _MIX2) & _MASK)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(44)).astype(np.int64) - (1 << 19)


def _payload_for(mesh: Mesh, payload) -> np.ndarray:
    if payload is None:
        return default_payload(mesh.n_surfaces)
    payload = np.asarray(payload, dtype=np.int64)
    if payload.shape != (mesh.n_surfaces,):
        raise ValueError("payload must provide one integer per surface")
    return payload


def sweep_sequential(mesh: Mesh, payload=None) -> AccumulationState:
    """Reference: every surface's contribution in one unbuffered scatter.

    ``np.add.at`` applies repeated indices one at a time, so this is
    exact whatever the surface order or coloring.
    """
    payload = _payload_for(mesh, payload)
    left = mesh.surf_elems[:, 0]
    right = mesh.surf_elems[:, 1]
    inner = right >= 0
    totals = np.zeros(mesh.n_elements, dtype=np.int64)
    np.add.at(totals, left, payload)
    np.subtract.at(totals, right[inner], payload[inner])
    return AccumulationState(totals, payload)


def assert_race_free(mesh: Mesh, coloring: SurfaceColoring) -> None:
    """Check that no color class writes any element twice.

    An element is written twice by a class when it sees that class's
    color on two of its sides, which is the repeat ``verify_coloring``
    reports as a conflict; colors above the palette count too.  The
    error names the smallest repeated color, the smallest element that
    repeats it and how many of that element's sides carry it, read off
    the flagged rows only.
    """
    gathered, repeats = _side_repeats(mesh, np.asarray(coloring.colors))
    if not repeats.any():
        return
    rows = gathered[repeats]
    counts = (rows[:, :, None] == rows[:, None, :]).sum(axis=2)
    c = int(rows[(counts > 1) & (rows >= 1)].min())
    hits = (rows == c).sum(axis=1)
    k = int(np.argmax(hits > 1))
    raise WriteConflictError(
        f"color {c} writes element {int(np.flatnonzero(repeats)[k])} "
        f"{int(hits[k])} times"
    )


def sweep_colored(mesh: Mesh, coloring: SurfaceColoring,
                  payload=None) -> AccumulationState:
    """Class-by-class accumulation with unguarded writes.

    Each color class is one fancy-index update, which is exact only
    because the race-free check run first guarantees distinct element
    ids within a class; a violation raises WriteConflictError.  A color
    outside 1..n_colors would leave its surfaces out of every class, so
    -1 and colors above the palette raise ``ValueError``.
    """
    if not coloring.is_complete:
        raise ValueError("colored sweep needs a complete coloring")
    _require_palette(coloring, "colored sweep")
    assert_race_free(mesh, coloring)
    payload = _payload_for(mesh, payload)
    left = mesh.surf_elems[:, 0]
    right = mesh.surf_elems[:, 1]
    totals = np.zeros(mesh.n_elements, dtype=np.int64)
    for c in range(1, coloring.n_colors + 1):
        group = np.flatnonzero(coloring.colors == c)
        inner = group[right[group] >= 0]
        totals[left[group]] += payload[group]
        totals[right[inner]] -= payload[inner]
    return AccumulationState(totals, payload)


def surface_buffer(mesh: Mesh, payload=None) -> np.ndarray:
    """Phase one of the buffered strategy: slot 2k takes surface k's
    left contribution, slot 2k+1 the right one (0 on the boundary)."""
    payload = _payload_for(mesh, payload)
    buffer = np.zeros(2 * mesh.n_surfaces, dtype=np.int64)
    buffer[0::2] = payload
    buffer[1::2] = np.where(mesh.surf_elems[:, 1] >= 0, -payload, 0)
    return buffer


def sweep_buffered(mesh: Mesh, payload=None) -> AccumulationState:
    """Two-phase accumulation through a 2 * n_surfaces buffer: fill it,
    then let each element gather its own slots."""
    payload = _payload_for(mesh, payload)
    buffer = surface_buffer(mesh, payload)
    sides = mesh.elem_surfs
    listed = sides >= 0
    sids = np.where(listed, sides, 0)
    elems = np.arange(mesh.n_elements)[:, None]
    slots = 2 * sids + (mesh.surf_elems[sids, 0] != elems)
    totals = np.where(listed, buffer[slots], 0).sum(axis=1)
    return AccumulationState(totals, payload)


def basis_count(p: int, kind: str = "tri") -> int:
    """Nodal basis size for polynomial degree p on one element."""
    if p < 0:
        raise ValueError("degree must be nonnegative")
    if kind == "tri":
        return (p + 1) * (p + 2) // 2
    if kind == "quad":
        return (p + 1) ** 2
    if kind == "tet":
        return (p + 1) * (p + 2) * (p + 3) // 6
    raise ValueError(f"unknown element kind {kind!r}")


@dataclass(frozen=True)
class MemoryEstimate:
    """Bytes the buffered strategy needs for its two surface buffers:
    2 * n_basis * n_equations * n_surfaces doubles."""

    n_basis: int
    n_equations: int
    n_surfaces: int
    n_bytes: int

    def __post_init__(self):
        if min(self.n_basis, self.n_equations,
               self.n_surfaces, self.n_bytes) <= 0:
            raise ValueError("estimate fields must be positive")

    @property
    def gb_truncated(self) -> str:
        """Decimal GB, truncated (not rounded) to two decimals."""
        hundredths = self.n_bytes * 100 // 10**9
        return f"{hundredths // 100}.{hundredths % 100:02d}"


def memory_saved(p: int, n_equations: int, n_surfaces: int,
                 kind: str = "tri") -> MemoryEstimate:
    """Buffer memory a colored sweep avoids, for a degree-p solver."""
    n_basis = basis_count(p, kind)
    if n_equations < 1 or n_surfaces < 1:
        raise ValueError("equation and surface counts must be positive")
    n_bytes = 2 * n_basis * n_equations * n_surfaces * 8
    return MemoryEstimate(n_basis, n_equations, n_surfaces, n_bytes)
