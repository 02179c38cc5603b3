"""Norm lower bounds by iterated subspace growth.

From the trivial dual subspace V, each step enlarges V by the span of a
qualifying spectral level of the residual f_V = chi_A - chi_A * mu_V.
Its spectrum is hat(chi_A) off V and zero on V; ||f_V||_1 and ||f_V||_2^2
come from A's coset counts, checked against the spectrum by Parseval.
The mass L(V) = sum_{g in V} |hat(chi_A)(g)| grows by at least
(1/6)(4/3)^s per step and never exceeds the Wiener norm, so the final L
is a certified lower bound.  The loop runs while |V| <= max_order.  The
density profile {alpha 2^d}(1 - {alpha 2^d}) is the CLI's profile command.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .chang import (STRATEGIES, SpectrumRanking, chang_cardinality_bound,
                    gain_floor, level_sets, rank_spectrum, select_level)
from .dyadic import DyadicScalar, ZERO
from .groups import HARD_DIM_CAP, DualSubspace, subspace_extend
from .setfuncs import PointSet

__all__ = [
    "ZeroResidual",
    "Termination",
    "StepResult",
    "step_ceiling",
    "StepState",
    "IterationTrace",
    "iterate_step",
    "run_iteration",
]


# No subspace outgrows the largest group; lowerbound and check-cert share it.
MAX_ORDER = 1 << HARD_DIM_CAP


class ZeroResidual(Exception):
    """The set is already a union of annihilator cosets of V."""


class Termination(str, enum.Enum):
    ORDER_CAP = "OrderCapReached"
    RESIDUAL_ZERO = "ResidualZero"


def step_ceiling(s: int, l1: DyadicScalar) -> float:
    """Chang's cap on the dimensions a step at level s adds (eps = 2^-(s+1)),
    from l1 = ||f_V||_1 and ||f_V||_2^2 = l1 / 2."""
    return chang_cardinality_bound(l1, l1.mul_pow2(-1),
                                   Fraction(1, 2 ** (s + 1)))


@dataclass(frozen=True)
class StepResult:
    """One growth step: level, grown subspace, exact mass gain, ||f_V||_1."""

    s: int
    v_new: DualSubspace
    gain: DyadicScalar
    dim_before: int
    dim_after: int
    l1: DyadicScalar


# V's new elements are read this many at a time, so their magnitudes
# never take a table of V's size.
_CHUNK = 1 << 16


class StepState:
    """What a run carries from one step to the next for the current V.

    points lists A's points (ascending, int32) and labels[i] is the coset
    label of points[i] under a basis of V (int64, which np.bincount takes
    without a copy).  elems lists V's elements (int32, as n <= 30), and
    mass and square are the exact sums of |hat(chi_A)| and of
    hat(chi_A)^2 over them, in the ranking's numerator units.  iterate_step
    moves the state on to the grown subspace, adding only the new cosets'
    label bits and mass.  Once V is the whole group no coset is counted and
    no level is cut, so labels and elems are None.
    """

    __slots__ = ("points", "labels", "elems", "mass", "square")

    def __init__(self, a: PointSet, v: DualSubspace,
                 ranking: SpectrumRanking):
        self.points = np.flatnonzero(a.bool_mask()).astype(np.int32)
        self.labels = np.zeros(self.points.size, dtype=np.int64)
        self.elems = np.zeros(1, dtype=np.int32)
        self.mass = int(ranking.magnitudes(self.elems)[0])
        self.square = self.mass * self.mass
        self.grow(v, 0, ranking, a)

    def grow(self, w: DualSubspace, dim: int, ranking: SpectrumRanking,
             a: PointSet) -> None:
        """Add w's rows, independent of the current V of dimension dim:
        label bits dim, dim + 1, ..., V's new elements, and their mass."""
        # Every magnitude is at most |A| <= 2^n, so a mass over at most 2^n
        # characters stays below 2^60 for n <= 30, and so do the squares:
        # all 2^n of them sum to |A| * 2^n, by Parseval.  So int64
        # accumulators are exact.
        if dim + w.dim == a.dim.n:
            # V is now every character: its mass is the whole ranking's.
            mags = ranking.neg_mags
            self.labels = self.elems = None
            self.mass = int(ranking.prefix[-1])
            self.square = int(np.einsum("i,i->", mags, mags, dtype=np.int64))
            return
        # Bit dim + i of a label is <r_i, x>, a row at a time, so the
        # scratch is one int32 bit per point.
        for i, r in enumerate(w.basis):
            bit = np.bitwise_count(self.points & r)
            bit &= 1
            bit = bit.astype(np.int32)
            bit <<= dim + i
            self.labels |= bit
            del bit
        old = self.elems.size
        elems = np.empty(old << w.dim, dtype=np.int32)
        elems[:old] = self.elems
        self.elems = elems
        size = old
        for r in w.basis:
            np.bitwise_xor(elems[:size], r, out=elems[size:2 * size])
            size *= 2
        for lo in range(old, elems.size, _CHUNK):
            mags = ranking.magnitudes(elems[lo:lo + _CHUNK])
            self.mass += int(mags.sum(dtype=np.int64))
            self.square += int(np.einsum("i,i->", mags, mags,
                                         dtype=np.int64))


def iterate_step(a: PointSet, v: DualSubspace, strategy: str,
                 ranking: SpectrumRanking, state: StepState) -> StepResult:
    """Grow v by one qualifying level of the residual spectrum.

    ranking is hat(chi_A) ranked by rank_spectrum, and state is v's
    StepState; on return it is the grown subspace's.  Raises ZeroResidual,
    with state unchanged, when chi_A is constant on every annihilator coset
    of v (then L(v) already equals the full Wiener norm).
    """
    if v.dim < a.dim.n:
        # ||f_V||_1 = 2(m |A| - sum c^2) / 2^(2n - d) over A's coset counts
        # c, m = 2^(n - d); both terms are at most 2^(2n - d) <= 2^60.
        c = np.bincount(state.labels)
        base = DyadicScalar(2 * ((state.points.size << (a.dim.n - v.dim))
                                 - int(np.dot(c, c))), 2 * a.dim.n - v.dim)
        l2sq = base.mul_pow2(-1)
    else:
        # V is the whole dual group: every annihilator coset is one point,
        # so f_V = 0, with no table of 2^n counts.
        base = l2sq = ZERO
    # Parseval: ||f_V||_2^2 is |A| / 2^n less the square mass on v.
    on_v_sq = DyadicScalar(state.square, 2 * ranking.exp)
    if l2sq != a.density() - on_v_sq:
        raise ArithmeticError(f"coset counts contradict Parseval at {v!r}")
    if base.num == 0:
        raise ZeroResidual(f"residual of {a!r} against dim {v.dim} is zero")
    level = select_level(level_sets(ranking, state.elems, base), strategy)
    v_new = subspace_extend(v, level.members)
    s = level.s
    del level  # its members, before the state grows
    mass_before = state.mass
    state.grow(_complement(v, v_new), v.dim, ranking, a)
    return StepResult(
        s=s,
        v_new=v_new,
        gain=DyadicScalar(state.mass - mass_before, ranking.exp),
        dim_before=v.dim,
        dim_after=v_new.dim,
        l1=base,
    )


def _complement(v: DualSubspace, v_new: DualSubspace) -> DualSubspace:
    """A complement of v in v_new: the rows of v_new at new pivots.

    v's pivots are the lowest bits of its nonzero elements, so they are
    pivots of v_new too; a nonzero sum of rows at other pivots has no bit
    at any of them, so it is not in v.  Rows of an RREF basis stay RREF.
    """
    pivots = {r & -r for r in v.basis}
    return DualSubspace._unchecked(
        tuple(r for r in v_new.basis if r & -r not in pivots))


@dataclass(frozen=True)
class IterationTrace:
    """Full record of a run: steps, certified bound, norm."""

    steps: Tuple[StepResult, ...]
    final_bound: DyadicScalar
    termination: Termination
    a_norm: DyadicScalar

    def gain_floor(self) -> Fraction:
        """Guaranteed total gain sum_l (1/6)(4/3)^s_l for the taken steps."""
        return sum((gain_floor(st.s) for st in self.steps), Fraction(0))


def run_iteration(a: PointSet, max_order: int,
                  strategy: str = STRATEGIES[0]) -> IterationTrace:
    """Iterate growth steps from the trivial subspace while |V| <= max_order.

    final_bound is a partial sum of |hat(chi_A)|, so final_bound <= a_norm
    holds exactly, with equality when the run ends in ResidualZero.  Each
    step adds a dimension, so at most n steps run.
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must lie in [1, 2^{HARD_DIM_CAP}]")
    ranking = rank_spectrum(a)
    norm = ranking.total()
    v = DualSubspace.trivial()
    state = StepState(a, v, ranking)
    steps: List[StepResult] = []
    termination = Termination.ORDER_CAP
    while v.order <= max_order:
        try:
            step = iterate_step(a, v, strategy, ranking, state)
        except ZeroResidual:
            termination = Termination.RESIDUAL_ZERO
            break
        steps.append(step)
        v = step.v_new
    final = DyadicScalar(state.mass, ranking.exp)
    if final > norm:
        raise ArithmeticError(f"bound {final} exceeds the norm {norm}")
    if termination is Termination.RESIDUAL_ZERO and final != norm:
        raise ArithmeticError(
            f"zero residual must certify the exact norm: {final} != {norm}")
    return IterationTrace(tuple(steps), final, termination, norm)

