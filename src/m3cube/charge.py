"""Chargeless detection and the resulting group-theoretic classification.

An interior block (Seifert, no manifold boundary, no hyperbolic neighbor)
is chargeless when nonzero integer weights can be assigned to its torus
ends so that the weighted sum of the neighboring fiber classes vanishes in
the block's first homology. A manifold with tori is virtually compact
special exactly when every interior block passes; without tori the verdict
is a table lookup on the geometry label.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .decomposition import interior_blocks, is_interior, modify_jsj
from .errors import (
    FiberFillingError,
    InputError,
    MissingGeometryLabelError,
    NotClosedError,
    NotInteriorError,
    NotSeifertError,
)
from .homology import (
    LatticeBasis,
    all_nonzero_vector,
    class_in_h1,
    kernel_lattice,
    presentation_h1,
    vanishing_coordinate,
)
from .manifold import (
    ManifoldGraph,
    SeifertBlockData,
    Slope,
    fiber_slope,
    transport_slope,
)

log = logging.getLogger(__name__)

GOOD_GEOMETRIES = frozenset({"H3", "E3", "H2xR", "S2xR", "S3", "SFS-with-boundary"})
BAD_GEOMETRIES = frozenset({"Sol", "Nil", "SL2R"})


@dataclass(frozen=True)
class AdjacentFiber:
    """A neighbor's regular fiber seen from one end of the block under test."""

    torus_id: str
    side: str  # which side of the torus the tested block occupies
    boundary_index: int  # the tested block's end
    neighbor: str
    slope: Slope  # neighbor fiber in the tested block's (section, fiber) basis

    def __str__(self):
        return f"{self.torus_id}[{self.side}]@{self.boundary_index}:{self.slope}"


def adjacent_fiber_slopes(m: ManifoldGraph, block_id: str) -> tuple[AdjacentFiber, ...]:
    """One entry per torus end of the block; self-gluings contribute twice."""
    out = []
    for edge, side in m.ends_of(block_id):
        if side == "a":
            here, there = edge.end_a, edge.end_b
            to_here = edge.glue.inverse()
        else:
            here, there = edge.end_b, edge.end_a
            to_here = edge.glue
        neighbor = m.blocks[there.block_id]
        if not isinstance(neighbor, SeifertBlockData):
            raise NotInteriorError(
                f"block {block_id} has hyperbolic neighbor {there.block_id}"
            )
        fiber = fiber_slope(neighbor, there.boundary_index)
        out.append(
            AdjacentFiber(
                edge.torus_id,
                side,
                here.boundary_index,
                there.block_id,
                transport_slope(fiber, to_here),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class ChargeVerdict:
    """Outcome of the chargeless test on one interior block."""

    block_id: str
    chargeless: bool
    witness: tuple[int, ...] | None
    obstruction_index: int | None
    ends: tuple[AdjacentFiber, ...]
    lattice: LatticeBasis
    euler_diagnostic: Fraction | None = None

    def record(self) -> dict:
        return {
            "block": self.block_id,
            "chargeless": self.chargeless,
            "witness": list(self.witness) if self.witness is not None else None,
            "obstruction": self.obstruction_index,
            "ends": [str(e) for e in self.ends],
        }


def is_chargeless_block(m: ManifoldGraph, block_id: str) -> ChargeVerdict:
    """Decide chargelessness of one interior block, with certificate.

    The witness (when present) is verified by substitution: it comes with
    relation coefficients x from the lattice rows, and sum(w_i * z_i) + R*x
    is checked to be 0 by integer multiplication, not by a second solve.
    When no witness exists, ``obstruction_index`` names an end whose weight
    is forced to zero on the whole solution lattice.
    """
    if block_id not in m.blocks:
        raise InputError(f"unknown block {block_id}")
    data = m.blocks[block_id]
    if not isinstance(data, SeifertBlockData):
        raise NotSeifertError(f"block {block_id} is not Seifert fibered")
    if not is_interior(m, block_id):
        raise NotInteriorError(f"block {block_id} is not interior")

    ends = adjacent_fiber_slopes(m, block_id)
    pres = presentation_h1(data)
    classes = [class_in_h1(pres, e.boundary_index, e.slope) for e in ends]
    lattice = kernel_lattice(classes, pres.relations)
    solution = all_nonzero_vector(lattice)
    witness = None if solution is None else solution[: len(ends)]
    obstruction = None if witness is not None else vanishing_coordinate(lattice)

    diagnostic = None
    if witness is not None:
        x = solution[len(ends) :]
        residual = [sum(a * b for a, b in zip(row, x)) for row in pres.relations.rows]
        for w, z in zip(witness, classes):
            residual = [r + w * c for r, c in zip(residual, z)]
        if any(residual):
            raise AssertionError(
                f"witness for {block_id} failed the substitution check"
            )
        diagnostic = _euler_diagnostic(data, ends, witness)

    return ChargeVerdict(
        block_id,
        witness is not None,
        witness,
        obstruction,
        ends,
        lattice,
        diagnostic,
    )


def _euler_diagnostic(
    data: SeifertBlockData,
    ends: Sequence[AdjacentFiber],
    witness: Sequence[int],
) -> Fraction | None:
    """Euler number of the block filled along the transported fibers.

    Only defined when every transported fiber misses the block's own fiber
    direction (p != 0) and every boundary torus carries exactly one end.
    With all-ones weights the value is 0; other weights are informational.
    """
    if any(e.slope.p == 0 for e in ends):
        return None
    by_index = sorted(ends, key=lambda e: e.boundary_index)
    if [e.boundary_index for e in by_index] != list(range(data.num_boundary)):
        return None
    filled = fill_along_slopes(data, [e.slope for e in by_index])
    value = euler_number(filled)
    if value != 0 and any(w != 1 for w in witness):
        log.warning(
            "filled Euler number %s with non-unit weights %s", value, tuple(witness)
        )
    return value


def is_chargeless_manifold(m: ManifoldGraph) -> tuple[ChargeVerdict, ...]:
    """Verdicts for every interior block (vacuously empty when none exist)."""
    return tuple(is_chargeless_block(m, b) for b in interior_blocks(m))


def fill_along_slopes(b: SeifertBlockData, slopes: Sequence[Slope]) -> SeifertBlockData:
    """Dehn fill every boundary torus; slope (p, q) becomes the fiber (p, q).

    Filling along the fiber itself (p = 0) destroys the fibration and is
    refused. The trivial filling (1, 0) adds nothing and is dropped; other
    multiplicity-one fillings (1, q) are kept since they shift the Euler
    number.
    """
    if len(slopes) != b.num_boundary:
        raise InputError(
            f"{b.num_boundary} boundary tori but {len(slopes)} filling slopes"
        )
    extra: list[tuple[int, int]] = []
    for k, s in enumerate(slopes):
        if s.p == 0:
            raise FiberFillingError(f"slope {s} at boundary {k} is the fiber")
        if (s.p, s.q) != (1, 0):
            extra.append((s.p, s.q))
    return SeifertBlockData(
        genus=b.genus,
        num_boundary=0,
        exceptional=b.exceptional + tuple(extra),
        section_obstruction=0,
        is_thin=False,
    )


def euler_number(b: SeifertBlockData) -> Fraction:
    """e = -(section obstruction + sum of b_j / a_j), exact."""
    if b.num_boundary != 0:
        raise NotClosedError("Euler number needs a closed Seifert block")
    total = Fraction(b.section_obstruction)
    for a, bb in b.exceptional:
        total += Fraction(bb, a)
    return -total


@dataclass(frozen=True)
class ClassificationVerdict:
    """Is the fundamental group virtually compact special, and why."""

    vcs: bool
    reason: str  # geometric-good | geometric-bad | nongeometric-chargeless |
    #              nongeometric-charged
    geometry_label: str | None = None
    block_verdicts: tuple[ChargeVerdict, ...] = ()

    @property
    def failing_blocks(self) -> tuple[str, ...]:
        return tuple(v.block_id for v in self.block_verdicts if not v.chargeless)

    def record(self) -> dict:
        return {
            "vcs": self.vcs,
            "reason": self.reason,
            "geometry": self.geometry_label,
            "failing_blocks": list(self.failing_blocks),
        }


def classify_vcs(m: ManifoldGraph) -> ClassificationVerdict:
    """Classify a valid manifold graph.

    No tori: the geometry label decides (the five closed good geometries and
    Seifert pieces with boundary are virtually compact special; Sol, Nil and
    the twisted line bundles over H2 are not). With tori: run the thin-block
    modification and test every interior block.
    """
    if not m.jsj_tori:
        label = m.geometry_label
        if label is None:
            raise MissingGeometryLabelError(
                "manifold has no JSJ tori and no geometry label"
            )
        if label in GOOD_GEOMETRIES:
            return ClassificationVerdict(True, "geometric-good", label)
        if label in BAD_GEOMETRIES:
            return ClassificationVerdict(False, "geometric-bad", label)
        raise InputError(f"unknown geometry label {label!r}")

    modified = modify_jsj(m)
    verdicts = is_chargeless_manifold(modified)
    ok = all(v.chargeless for v in verdicts)
    reason = "nongeometric-chargeless" if ok else "nongeometric-charged"
    return ClassificationVerdict(ok, reason, None, verdicts)


def render_charge_report(verdicts: Sequence[ChargeVerdict]) -> str:
    """Deterministic plain-text report, one line per block."""
    if not verdicts:
        return "no interior blocks; chargeless vacuously\n"
    lines = []
    for v in verdicts:
        if v.chargeless:
            detail = "witness " + "(" + ",".join(str(x) for x in v.witness) + ")"
            if v.euler_diagnostic is not None:
                detail += f" filled-euler {v.euler_diagnostic}"
            lines.append(f"block {v.block_id}: chargeless, {detail}")
        else:
            end = v.ends[v.obstruction_index]
            lines.append(
                f"block {v.block_id}: charged, forced zero weight on end"
                f" {end.torus_id}[{end.side}]"
            )
    return "\n".join(lines) + "\n"
