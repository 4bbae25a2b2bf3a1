"""Chargeless detection and the resulting group-theoretic classification.

An interior block (Seifert, no manifold boundary, no hyperbolic neighbor)
is chargeless when nonzero integer weights w_i can be put on its torus ends
so that the weighted sum of the neighboring fiber classes vanishes in the
block's first homology: Z*w + R*x = 0 for some integer relation
coefficients x. A manifold with tori is virtually compact special exactly
when every interior block passes; without tori the verdict is a table
lookup on the geometry label.

Matching coefficients generator by generator decides the question in
closed form. End i, on its own boundary index k, sees the transported
neighbor fiber (p_i, q_i), whose class is p_i*d_k + q_i*h. Exceptional
fiber (a_j, b_j) gives the relation a_j*q_j + b_j*h, and the section gives
sum(q_j) + sum(d_k) - b*h, with coefficients x_j and s. Generator q_j reads
a_j*x_j + s = 0, generator d_k reads p_i*w_i + s = 0, and h reads
sum(q_i*w_i) + sum(b_j*x_j) - b*s = 0; the surface generators are in no
relation and no class. Hence, for n ends (a closed block has n = 0 and no
weight to make nonzero, so it passes either way):

- every p_i != 0: the solutions are the multiples of w_i = L/p_i,
  x_j = L/a_j, s = -L with L = lcm(a_j, p_i), and they exist exactly when
  the relative Euler number b + sum(b_j/a_j) + sum(q_i/p_i) is 0;
- some p_i = 0 (the fibers match; the slope is then (0,1)): s = 0 forces
  every x_j and every weight with p_i != 0 to 0, and h leaves the sum of
  the p = 0 weights equal to 0, so all-nonzero weights exist exactly when
  all n >= 2 ends have p = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .decomposition import interior_blocks, is_interior
from .errors import InputError
from .homology import LatticeBasis, presentation_h1
from .manifold import (
    BAD_GEOMETRIES,
    GOOD_GEOMETRIES,
    ManifoldGraph,
    SeifertBlockData,
    Slope,
    fiber_slope,
    transport_slope,
)

@dataclass(frozen=True)
class AdjacentFiber:
    """A neighbor's regular fiber seen from one end of the block under test."""

    torus_id: str
    side: str  # which side of the torus the tested block occupies
    boundary_index: int  # the tested block's end
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
            raise InputError(f"block {block_id} has hyperbolic neighbor {there.block_id}")
        fiber = fiber_slope(neighbor, there.boundary_index)
        out.append(
            AdjacentFiber(
                edge.torus_id,
                side,
                here.boundary_index,
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

    The solution lattice comes from the closed form in the module
    docstring, in rows (w, x): one row (L/p_i, ..., L/a_j, ..., -L) when
    every p_i != 0 and the relative Euler number is 0, none when it is not,
    and rows e_i - e_last over the p = 0 ends (x = 0) when some p_i = 0.
    The witness is the sum of the rows, and sum(w_i * z_i) + R*x is checked
    to be 0 by integer multiplication against the block's presentation;
    each z_i = p_i*d_k + q_i*h adds into two entries of R*x. A closed block
    is the case n = 0: its witness is (), and its row, when e = 0, is
    checked like any other. When no witness exists, ``obstruction_index``
    is the first end whose weight is zero on every row.
    ``euler_diagnostic`` is the negated relative Euler number when no p_i
    is 0, which for a closed block is its Euler number, and None otherwise.
    """
    if block_id not in m.blocks:
        raise InputError(f"unknown block {block_id}")
    data = m.blocks[block_id]
    if not isinstance(data, SeifertBlockData):
        raise InputError(f"block {block_id} is not Seifert fibered")
    if not is_interior(m, block_id):
        raise InputError(f"block {block_id} is not interior")

    ends = adjacent_fiber_slopes(m, block_id)
    if sorted(e.boundary_index for e in ends) != list(range(data.num_boundary)):
        raise InputError(f"block {block_id} does not glue each boundary index once")
    n = len(ends)
    fibers = data.exceptional
    matched = [i for i, e in enumerate(ends) if e.slope.p == 0]
    rows: tuple[tuple[int, ...], ...] = ()
    diagnostic = None
    if matched:
        zeros = (0,) * (len(fibers) + 1)
        rows = tuple(
            tuple(int(j == i) - int(j == matched[-1]) for j in range(n)) + zeros
            for i in matched[:-1]
        )
    else:
        total, lcm = _euler_sum(data, [e.slope for e in ends])
        diagnostic = Fraction(-total, lcm)
        if total == 0:
            rows = (
                tuple(lcm // e.slope.p for e in ends)
                + tuple(lcm // a for a, _ in fibers)
                + (-lcm,),
            )
    lattice = LatticeBasis(n, rows)

    obstruction = next(
        (i for i in range(n) if not any(r[i] for r in lattice.rows)), None
    )
    witness = None
    if obstruction is None:
        solution = [sum(column) for column in zip(*lattice.rows)]
        witness, x = tuple(solution[:n]), solution[n:]
        pres = presentation_h1(data)
        residual = [sum(a * b for a, b in zip(row, x)) for row in pres.relations.rows]
        for w, e in zip(witness, ends):
            residual[pres.boundary_index(e.boundary_index)] += w * e.slope.p
            residual[pres.fiber_index] += w * e.slope.q
        if any(residual) or 0 in witness:
            raise AssertionError(
                f"witness for {block_id} failed the substitution check"
            )

    return ChargeVerdict(
        block_id,
        witness is not None,
        witness,
        obstruction,
        ends,
        lattice,
        diagnostic,
    )


def is_chargeless_manifold(m: ManifoldGraph) -> tuple[ChargeVerdict, ...]:
    """Verdicts for every interior block (vacuously empty when none exist)."""
    return tuple(is_chargeless_block(m, b) for b in interior_blocks(m))


def fill_along_slopes(b: SeifertBlockData, slopes: Sequence[Slope]) -> SeifertBlockData:
    """Dehn fill every boundary torus; slope (p, q) becomes the fiber (p, q).

    Filling along the fiber itself (p = 0) destroys the fibration and is
    refused. The trivial filling (1, 0) adds nothing and is dropped; other
    multiplicity-one fillings (1, q) are kept since they shift the Euler
    number, and so is the section obstruction b.
    """
    if len(slopes) != b.num_boundary:
        raise InputError(f"{b.num_boundary} boundary tori but {len(slopes)} filling slopes")
    extra: list[tuple[int, int]] = []
    for k, s in enumerate(slopes):
        if s.p == 0:
            raise InputError(f"slope {s} at boundary {k} is the fiber")
        if (s.p, s.q) != (1, 0):
            extra.append((s.p, s.q))
    return SeifertBlockData(
        genus=b.genus,
        num_boundary=0,
        exceptional=b.exceptional + tuple(extra),
        section_obstruction=b.section_obstruction,
    )


def _euler_sum(b: SeifertBlockData, ends: Sequence[Slope] = ()) -> tuple[int, int]:
    """(N, L) with b + sum(b_j/a_j) + sum(q_i/p_i) = N/L over the given end
    slopes (p_i, q_i), all p_i != 0, and L = lcm(a_j, p_i): each term is an
    integer multiple of 1/L, so the sum is exact in integers."""
    lcm = math.lcm(*(a for a, _ in b.exceptional), *(s.p for s in ends))
    total = (
        b.section_obstruction * lcm
        + sum(bb * (lcm // a) for a, bb in b.exceptional)
        + sum(s.q * (lcm // s.p) for s in ends)
    )
    return total, lcm


def euler_number(b: SeifertBlockData) -> Fraction:
    """e = -(section obstruction + sum of b_j / a_j), exact."""
    if b.num_boundary != 0:
        raise InputError("Euler number needs a closed Seifert block")
    total, lcm = _euler_sum(b)
    return Fraction(-total, lcm)


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
    the twisted line bundles over H2 are not). With tori: test every
    interior block. The thin-block modification would change no verdict: a
    thin block has a hyperbolic neighbor or a boundary torus, so it is never
    interior, and it leaves every Seifert block's ends as they are.
    """
    if not m.jsj_tori:
        label = m.geometry_label
        if label is None:
            raise InputError("manifold has no JSJ tori and no geometry label")
        if label in GOOD_GEOMETRIES:
            return ClassificationVerdict(True, "geometric-good", label)
        if label in BAD_GEOMETRIES:
            return ClassificationVerdict(False, "geometric-bad", label)
        raise InputError(f"unknown geometry label {label!r}")

    verdicts = is_chargeless_manifold(m)
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
