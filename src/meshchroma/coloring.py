"""Surface coloring with a fixed palette and Kempe-chain conflict repair.

The palette has 3 colors for pure triangle meshes and 4 as soon as any
quad or tetrahedron is present.  A first greedy pass assigns each
surface a random color that conflicts with neither incident element and
leaves -1 where no such color exists.  It has no boundary branch: a
boundary surface's right element is a slot of its own past the last
element, which only that surface reads, so it always reads no color.
Two tables indexed by the colors the two elements already use give the
one color left (-1 for none, 0 when there is a choice) and the
choices; the RNG is drawn only for a choice, so a seed gives the same
coloring as a pass that tests for the boundary.

The repair pass then takes each leftover conflict from a queue.  If
its two elements share a free color it gets that color.  Otherwise it
gets one Kempe attempt: with a free at the left element l and b free
at the right element r, the (a, b) chain from r and the (b, a) chain
from l are walked in step, the shorter one has its two colors
exchanged, and the surface takes the color that the exchange freed on
both sides.  On a bipartite element graph that always succeeds; the
generated families are bipartite except for quad grids with an odd
cell count along a periodic axis.

A chain that reaches the other element closes an odd cycle through the
surface; the conflict then goes to the paper's swap walk.  The walk
recolors the surface if a free color appeared, otherwise it swaps the
conflict onto a neighboring surface without increasing the conflict
count.  A chain that revisits a surface is a loop; the loop is broken
by giving the conflict surface a color carried by one surface on each
side and uncoloring those two, which trades one conflict for two but
changes the layout enough for the walk to escape.

Both passes are order-sensitive: a greedy conflict costs repair several
recolorings.  They therefore run on the mesh renumbered in a geometric
sweep order, not in surface-id order (``_sweep``).  The elements are
ranked by their centroids, last axis primary (a row-major sweep in 2D,
plane by plane in 3D); the surfaces are numbered by first encounter
over the ranked elements' sides in local side order; and each surface's
left element is the one of smaller rank.  Neighbors are then visited
back to back, and the generated tri and quad grids leave no greedy
conflicts at all.  The colors are scattered back to mesh surface ids,
and every message names mesh ids.  On a row-major generated quad grid
the sweep order is the identity.

Since the sweep depends only on geometry and on each element's own
vertex order, the coloring does not depend on how the elements are
numbered: shuffling the element ids gives the same color per surface.
The caveat is ties in the centroid sort, such as two elements with the
same centroid; the sort is stable, so those keep their input order.

``color(mesh, seed)`` is the one entry point.  Both passes draw from one
RNG seeded with ``seed``, so identical seeds reproduce identical
colorings.  The repair has a swap budget: ``_SWAPS_PER_SURFACE``
recolorings per mesh surface for one conflict chain, ``_TOTAL_CHAINS``
times that for the whole repair.  An attempt that overruns it is thrown
away and both passes run again from the next seed, at most
``_RESTARTS`` times.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import RestartsExhaustedError
from .mesh import (MAX_SIDES, Diagnostic, ElementKind, Mesh, _dense_rank,
                   _stable_sort, vizing_bound)

# colors per available-mask, for masks over color bits 1..7
_MASK_CHOICES = tuple(
    tuple(c for c in range(1, 8) if (m >> c) & 1) for m in range(1 << 8)
)


def color_set_size(mesh: Mesh) -> int:
    """3 for pure triangle meshes, 4 once quads or tets are present."""
    if mesh.element_kind_profile == frozenset({ElementKind.TRIANGLE}):
        return 3
    return 4


# attempts after the first, each from the next seed
_RESTARTS = 5
# recolorings one conflict chain may spend, per mesh surface; the whole
# repair may spend _TOTAL_CHAINS chains' worth
_SWAPS_PER_SURFACE = 10
_TOTAL_CHAINS = 5


class _SwapBudgetExceeded(Exception):
    """A repair spent its swap budget; ``color`` restarts on it."""


@dataclass(eq=False)
class SurfaceColoring:
    """Color per surface (-1 = uncolored) plus the palette size."""

    colors: np.ndarray  # (ns,) int32
    n_colors: int

    @property
    def is_complete(self) -> bool:
        """Whether every surface has a color.  Whether the colors lie
        within the palette is ``verify_coloring``'s to judge."""
        return bool((self.colors >= 1).all())

    def color_counts(self) -> tuple[int, ...]:
        """Surfaces per color 1..``n_colors``; raises ``ValueError``
        naming the first surface whose color is above the palette."""
        _require_palette(self, "counting colors")
        counts = np.bincount(self.colors[self.colors >= 1],
                             minlength=self.n_colors + 1)
        return tuple(int(c) for c in counts[1:])

    def copy(self) -> "SurfaceColoring":
        return SurfaceColoring(self.colors.copy(), self.n_colors)


def _require_palette(coloring: SurfaceColoring, task: str) -> None:
    """Raise ``ValueError`` naming the first surface whose color is
    above ``n_colors``, which every per-color loop would leave out;
    ``task`` names what needs it."""
    above = np.flatnonzero(coloring.colors > coloring.n_colors)
    if above.size:
        k = int(above[0])
        raise ValueError(
            f"{task} needs colors within the palette: surface {k} has "
            f"color {coloring.colors[k]}, above the palette of "
            f"{coloring.n_colors}")


@dataclass(frozen=True)
class ColoringReport:
    n_elements: int
    n_surfaces: int
    n_colors: int
    vizing_bound: int
    greedy_conflicts: int
    resolutions: int
    swaps: int
    kempe_chains: int
    kempe_closures: int
    loop_breaks: int
    no_swap_breaks: int
    forced_reswaps: int
    restarts: int
    color_counts: tuple[int, ...]
    greedy_seconds: float
    resolve_seconds: float
    total_seconds: float

    def as_dict(self) -> dict[str, object]:
        """Every field by name, in declaration order: ``color_counts``
        becomes ``color_count_1``, ``color_count_2``, ... and the
        ``*_seconds`` fields are rounded to 6 places."""
        d: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "color_counts":
                for i, n in enumerate(value, start=1):
                    d[f"color_count_{i}"] = n
            elif f.name.endswith("_seconds"):
                d[f.name] = round(value, 6)
            else:
                d[f.name] = value
        return d


@dataclass(frozen=True, eq=False)
class _Sweep:
    """A mesh renumbered in its visiting order.

    Sweep element q is mesh element ``elements[q]`` and sweep surface t
    is mesh surface ``surfaces[t]``.  ``left_ids`` and ``right_ids`` are
    the sweep ranks of each sweep surface's elements, the smaller rank
    left and -1 on the boundary.  The greedy pass reads two plain lists,
    built with the sweep: ``left`` and ``slots``, which is ``right_ids``
    with the i-th boundary surface given slot ``n_elements + i``.
    ``right``, the list form of ``right_ids`` that repair reads, is
    built on first use, so a pass without conflicts never builds it.
    """

    mesh: Mesh
    elements: np.ndarray
    surfaces: np.ndarray
    left_ids: np.ndarray
    right_ids: np.ndarray
    left: list
    slots: list

    @cached_property
    def right(self) -> list:
        return self.right_ids.tolist()

    def surface_name(self, t: int) -> str:
        """Sweep surface t as the mesh names it."""
        s = int(self.surfaces[t])
        l, r = self.mesh.surf_elems[s].tolist()
        return f"surface {s} (elements {l} and {r})"

    def to_mesh(self, colors) -> np.ndarray:
        """Per-sweep-surface colors, scattered to mesh surface ids."""
        n = len(self.surfaces)
        out = np.empty(n, dtype=np.int32)
        out[self.surfaces] = np.fromiter(colors, np.int32, n)
        return out


def _sweep(mesh: Mesh) -> _Sweep:
    """Rank the elements by their centroids, last axis primary and equal
    centroids in element order, and number the surfaces by first
    encounter over the ranked elements' sides in local side order.

    A surface's first slot lies in its left (smaller-rank) element and
    its other slot, if any, in its right one.  Partners are found with
    scatters and gathers only: ``some[sides] = pos`` keeps one slot per
    surface, and each slot it did not keep hands its position to the
    one it did.  No surface is sorted.
    """
    slots = np.ascontiguousarray(mesh.elem_verts.T)
    count = np.count_nonzero(slots >= 0, axis=0)
    # a padding slot (-1) reads the appended zero vertex
    padded = np.vstack((mesh.vertices, np.zeros(mesh.dim)))
    centroids = np.take(padded, slots, axis=0).sum(axis=0).T / count
    # one stable sort of the dense ranks of each axis, last axis first
    order = _stable_sort(*zip(*map(_dense_rank, centroids[::-1])))[1]
    del slots, padded, centroids  # freed before the surface arrays
    ranked = np.take(mesh.elem_surfs, order, axis=0).reshape(-1)
    at = np.flatnonzero(ranked >= 0)  # ranked slot of each side
    sides = ranked[at]
    pos = np.arange(len(sides))
    some = np.empty(mesh.n_surfaces, dtype=np.int64)
    some[sides] = pos
    partner = np.take(some, sides)
    dropped = np.flatnonzero(partner != pos)  # integer, not boolean, masks:
    partner[partner[dropped]] = dropped       # several times faster here
    first = np.flatnonzero(pos <= partner)
    other = np.take(partner, first)
    surfaces = np.take(sides, first)
    first, other = np.take(at, first), np.take(at, other)
    left = first // MAX_SIDES
    inner = other != first
    right = np.where(inner, other // MAX_SIDES, -1)
    slots = np.where(inner, right, len(order) - 1 + np.cumsum(~inner))
    return _Sweep(mesh, order, surfaces, left, right,
                  left.tolist(), slots.tolist())


def _greedy_pass(left, slots, n_elements, n_colors, rng):
    """One pass in surface order over the ``_Sweep.left`` and
    ``_Sweep.slots`` lists; returns colors, per-element color bitmasks,
    and the ids left unresolved."""
    full = ((1 << n_colors) - 1) << 1
    # by the mask of colors the two elements use: the free colors, and
    # the one free color, -1 for none or 0 for a choice
    free = [_MASK_CHOICES[full & ~u] for u in range(full + 1)]
    forced = [t[0] if len(t) == 1 else 0 if t else -1 for t in free]
    used = [0] * (n_elements + len(slots))
    colors = []
    conflicts = []
    rand = rng.random
    put = colors.append
    push = conflicts.append
    for l, r in zip(left, slots):
        ul = used[l]
        ur = used[r]
        c = forced[ul | ur]
        if not c:
            t = free[ul | ur]
            c = t[int(rand() * len(t))]
        if c > 0:
            b = 1 << c
            used[l] = ul | b
            used[r] = ur | b
        else:
            push(len(colors))
        put(c)
    del used[n_elements:]
    return colors, used, conflicts


@dataclass
class _RepairStats:
    """The repair counters; ``ColoringReport`` has a field of each name."""

    resolutions: int = 0
    swaps: int = 0
    kempe_chains: int = 0
    kempe_closures: int = 0
    loop_breaks: int = 0
    no_swap_breaks: int = 0
    forced_reswaps: int = 0


def _carrier_table(sweep: _Sweep, colors):
    """``carrier[e << 3 | c]`` is the surface of color c at element e,
    or -1; built with one scatter."""
    col = np.asarray(colors, dtype=np.int64)
    k = np.flatnonzero(col > 0)
    right = sweep.right_ids[k]
    inner = right >= 0
    carrier = np.full(sweep.mesh.n_elements << 3, -1, dtype=np.int64)
    carrier[np.concatenate((sweep.left_ids[k], right[inner])) << 3
            | np.concatenate((col[k], col[k[inner]]))] = (
        np.concatenate((k, k[inner])))
    return carrier.tolist()


def _repair(sweep: _Sweep, colors, used, conflicts, n_colors, rng,
            chain_budget, total_budget, audit=None) -> _RepairStats:
    """Resolve every conflict until the coloring is complete.

    Works in sweep numbering and mutates ``colors`` and ``used`` in
    place.  Raises ``_SwapBudgetExceeded``, naming mesh ids, when the
    recolorings spent on one conflict exceed ``chain_budget`` or the
    whole repair exceeds ``total_budget``.  ``audit``, when given, is
    called with the carrier table after every repair step.
    """
    stats = _RepairStats()
    if not conflicts:
        return stats
    left, right = sweep.left, sweep.right
    full = ((1 << n_colors) - 1) << 1
    choices = _MASK_CHOICES
    rand = rng.random
    carrier = _carrier_table(sweep, colors)
    queue = deque(conflicts)
    total_swaps = 0

    def over_budget(e0, chain_swaps):
        return _SwapBudgetExceeded(
            f"conflict chain from {sweep.surface_name(e0)} reached "
            f"{chain_swaps} swaps ({total_swaps} in total); the budget is "
            f"{chain_budget} per chain and {total_budget} in total"
        )

    while queue:
        e = queue.popleft()
        if colors[e] > 0:
            continue
        l = left[e]
        r = right[e]
        ul = used[l]
        ur = used[r] if r >= 0 else 0
        if r >= 0 and not full & ~(ul | ur):
            # Kempe attempt: a is free at l and taken at r, b the other
            # way round.  Walk the (a, b) chain from r and the (b, a)
            # chain from l in step and flip the first that ends.
            t = choices[full & ~ul]
            n = len(t)
            a = t[0] if n == 1 else t[int(rand() * n)]
            t = choices[full & ~ur]
            n = len(t)
            b = t[0] if n == 1 else t[int(rand() * n)]
            ab = a ^ b
            xr, cr, path_r = r, a, []
            xl, cl, path_l = l, b, []
            while True:
                s = carrier[xr << 3 | cr] if xr >= 0 else -1
                if s < 0:
                    chain, end, f = path_r, xr, a
                    break
                s2 = carrier[xl << 3 | cl] if xl >= 0 else -1
                if s2 < 0:
                    chain, end, f = path_l, xl, b
                    break
                path_r.append(s)
                xr = right[s] if left[s] == xr else left[s]
                path_l.append(s2)
                xl = right[s2] if left[s2] == xl else left[s2]
                if xr == l or xl == r:
                    chain = None
                    break
                cr ^= ab
                cl ^= ab
            if chain is not None:
                n = len(chain)
                total_swaps += n
                if n > chain_budget or total_swaps > total_budget:
                    raise over_budget(e, n)
                for s in chain:
                    c = colors[s]
                    carrier[left[s] << 3 | c] = -1
                    if right[s] >= 0:
                        carrier[right[s] << 3 | c] = -1
                for s in chain:
                    c = colors[s] ^ ab
                    colors[s] = c
                    carrier[left[s] << 3 | c] = s
                    if right[s] >= 0:
                        carrier[right[s] << 3 | c] = s
                bits = (1 << a) | (1 << b)
                used[r if f == a else l] ^= bits
                if end >= 0:
                    used[end] ^= bits
                colors[e] = f
                used[l] |= 1 << f
                used[r] |= 1 << f
                carrier[l << 3 | f] = e
                carrier[r << 3 | f] = e
                stats.swaps += n
                stats.kempe_chains += 1
                stats.resolutions += 1
                if audit:
                    audit(carrier)
                continue
            # the chain closed an odd cycle through e: hand e to the walk
            stats.kempe_closures += 1

        e0 = e
        visited = {e}
        chain_swaps = 0
        while True:
            l = left[e]
            r = right[e]
            ul = used[l]
            ur = used[r] if r >= 0 else 0
            m = full & ~(ul | ur)
            if m:
                t = choices[m]
                n = len(t)
                c = t[0] if n == 1 else t[int(rand() * n)]
                colors[e] = c
                b = 1 << c
                used[l] = ul | b
                carrier[l << 3 | c] = e
                if r >= 0:
                    used[r] = ur | b
                    carrier[r << 3 | c] = e
                stats.resolutions += 1
                if audit:
                    audit(carrier)
                break

            # Every color is taken.  A color carried by exactly one
            # surface across both elements can be swapped onto e; a
            # color carried on both sides by two distinct surfaces is a
            # loop-break option (uncolor both, +1 conflict).  The walk
            # prefers surfaces it has not occupied yet; a loop exists
            # only when every swap target is already visited.
            both = ul & ur
            single = (ul | ur) ^ both
            cand = []
            stale = []
            breaks = []
            if single:
                for c in choices[single]:
                    owner = l if (ul >> c) & 1 else r
                    s = carrier[owner << 3 | c]
                    (stale if s in visited else cand).append((c, s))
            if both:
                for c in choices[both]:
                    ea = carrier[l << 3 | c]
                    eb = carrier[r << 3 | c]
                    if ea == eb:
                        (stale if ea in visited else cand).append((c, ea))
                    else:
                        breaks.append((c, ea, eb))

            if not cand:
                if breaks:
                    n = len(breaks)
                    c, ea, eb = (breaks[0] if n == 1
                                 else breaks[int(rand() * n)])
                    b = 1 << c
                    for s in (ea, eb):
                        colors[s] = -1
                        ls = left[s]
                        used[ls] &= ~b
                        carrier[ls << 3 | c] = -1
                        rs = right[s]
                        if rs >= 0:
                            used[rs] &= ~b
                            carrier[rs << 3 | c] = -1
                    colors[e] = c
                    used[l] |= b
                    carrier[l << 3 | c] = e
                    if r >= 0:
                        used[r] |= b
                        carrier[r << 3 | c] = e
                    queue.append(ea)
                    queue.append(eb)
                    if stale or single:
                        stats.loop_breaks += 1
                    else:
                        stats.no_swap_breaks += 1
                    if audit:
                        audit(carrier)
                    break
                if not stale:
                    # unreachable on conforming meshes; bail to restart
                    raise _SwapBudgetExceeded(
                        f"conflict on {sweep.surface_name(e)} has no "
                        f"admissible move"
                    )
                # nowhere fresh to go and nothing to break: re-enter the
                # visited region and let the RNG reshuffle it
                cand = stale
                stats.forced_reswaps += 1

            n = len(cand)
            c, es = cand[0] if n == 1 else cand[int(rand() * n)]
            b = 1 << c
            colors[es] = -1
            ls = left[es]
            used[ls] &= ~b
            carrier[ls << 3 | c] = -1
            rs = right[es]
            if rs >= 0:
                used[rs] &= ~b
                carrier[rs << 3 | c] = -1
            colors[e] = c
            used[l] |= b
            carrier[l << 3 | c] = e
            if r >= 0:
                used[r] |= b
                carrier[r << 3 | c] = e
            stats.swaps += 1
            chain_swaps += 1
            total_swaps += 1
            if audit:
                audit(carrier)
            if chain_swaps > chain_budget or total_swaps > total_budget:
                raise over_budget(e0, chain_swaps)
            visited.add(es)
            e = es
    return stats


def _parity_obstruction(mesh: Mesh, n_colors: int) -> str | None:
    """Why no complete coloring can exist, if a parity count shows it.

    With no boundary surface and ``n_colors`` sides on every element,
    each element carries every color once, so each color class pairs
    off all elements; an odd element count leaves one unmatched.
    """
    if any(k.n_sides != n_colors for k in mesh.element_kind_profile):
        return None
    if mesh.n_elements % 2 == 0 or (mesh.surf_elems[:, 1] < 0).any():
        return None
    return (
        f"no complete {n_colors}-coloring exists: every element has "
        f"{n_colors} sides and no surface is on the boundary, so each "
        f"color must pair off all {mesh.n_elements} elements, an odd count"
    )


def color(mesh: Mesh, seed: int = 0
          ) -> tuple[SurfaceColoring, ColoringReport]:
    """Produce a complete valid coloring plus a work report.

    Runs the greedy pass and the repair pass with one RNG stream seeded
    with ``seed``.  A repair may spend ``_SWAPS_PER_SURFACE`` recolorings
    per mesh surface on one conflict chain and ``_TOTAL_CHAINS`` times
    that in total; one that runs out starts the whole thing again from
    the next seed, up to ``_RESTARTS`` times, after which
    ``RestartsExhaustedError`` is raised naming the last overrun.  A
    mesh that a parity count shows to have no complete coloring raises
    it at once.
    """
    t_start = time.perf_counter()
    if mesh.n_surfaces == 0:
        raise ValueError("mesh has no surfaces")
    n_colors = color_set_size(mesh)
    reason = _parity_obstruction(mesh, n_colors)
    if reason is not None:
        raise RestartsExhaustedError(reason)
    sweep = _sweep(mesh)
    budget = _SWAPS_PER_SURFACE * mesh.n_surfaces

    for attempt in range(_RESTARTS + 1):
        rng = random.Random(seed + attempt)
        t0 = time.perf_counter()
        colors, used, conflicts = _greedy_pass(
            sweep.left, sweep.slots, mesh.n_elements, n_colors, rng
        )
        t1 = time.perf_counter()
        try:
            stats = _repair(sweep, colors, used, conflicts, n_colors, rng,
                            budget, _TOTAL_CHAINS * budget)
        except _SwapBudgetExceeded as err:
            last_error = err
            continue
        t2 = time.perf_counter()
        coloring = SurfaceColoring(sweep.to_mesh(colors), n_colors)
        report = ColoringReport(
            n_elements=mesh.n_elements,
            n_surfaces=mesh.n_surfaces,
            n_colors=n_colors,
            vizing_bound=vizing_bound(mesh),
            greedy_conflicts=len(conflicts),
            **vars(stats),
            restarts=attempt,
            color_counts=coloring.color_counts(),
            greedy_seconds=t1 - t0,
            resolve_seconds=t2 - t1,
            total_seconds=time.perf_counter() - t_start,
        )
        return coloring, report
    raise RestartsExhaustedError(
        f"no complete coloring after {_RESTARTS + 1} attempts "
        f"(last: {last_error})"
    )


def _side_repeats(mesh: Mesh, colors: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Each element's side colors (-2 on an absent side) and the mask of
    the elements that see a color twice.

    This is the one race-freedom test: an element that sees a color on
    two sides is written twice when that color's class is swept.  It
    compares every pair of an element's at most four side-color columns,
    which is exact and needs no sort: a row repeats a color iff two of
    its colored sides are equal.  A color below 1 is no color and never
    repeats; one above the palette does.  Raises ``ValueError`` when
    ``colors`` does not hold one color per surface.
    """
    if len(colors) != mesh.n_surfaces:
        raise ValueError("coloring does not match the mesh")
    # -1 side slots read the last color and are then masked to -2
    gathered = np.where(mesh.elem_surfs >= 0,
                        np.take(colors, mesh.elem_surfs), -2)
    width = gathered.shape[1]
    repeats = np.zeros(mesh.n_elements, dtype=bool)
    for i in range(width):
        colored = gathered[:, i] >= 1
        for j in range(i + 1, width):
            repeats |= colored & (gathered[:, i] == gathered[:, j])
    return gathered, repeats


def verify_coloring(mesh: Mesh, coloring: SurfaceColoring
                    ) -> list[Diagnostic]:
    """List every element with a repeated color, every uncolored
    surface and every surface whose color is above ``n_colors``.  An
    empty list means complete and valid.

    Repeats are the elements ``_side_repeats`` flags; messages are
    built for those rows only.  Raises ``ValueError`` when the
    coloring's length is not the mesh's surface count.
    """
    colors = np.asarray(coloring.colors)
    gathered, repeats = _side_repeats(mesh, colors)
    diags: list[Diagnostic] = []
    for e in np.flatnonzero(repeats):
        row = [int(v) for v in gathered[e] if v >= 1]
        repeated = sorted({v for v in row if row.count(v) > 1})
        sids = [int(s) for s in mesh.elem_surfs[e]
                if s >= 0 and int(colors[s]) in repeated]
        diags.append(Diagnostic(
            "conflict",
            f"element {e} repeats color(s) {repeated} on surfaces {sids}",
            element_id=int(e),
        ))
    for k in np.flatnonzero(colors < 1):
        diags.append(Diagnostic(
            "uncolored", f"surface {k} has no color", surface_id=int(k),
        ))
    for k in np.flatnonzero(colors > coloring.n_colors):
        diags.append(Diagnostic(
            "palette", f"surface {k} has color {colors[k]}, above the "
            f"palette of {coloring.n_colors}", surface_id=int(k),
        ))
    return diags


def _require_valid(mesh: Mesh, coloring: SurfaceColoring, task: str
                   ) -> None:
    """Raise ``ValueError`` naming the first of ``verify_coloring``'s
    diagnostics unless the coloring is complete and valid; ``task``
    names what needs it."""
    diags = verify_coloring(mesh, coloring)
    if diags:
        raise ValueError(
            f"{task} needs a complete, valid coloring: {diags[0].message}")
