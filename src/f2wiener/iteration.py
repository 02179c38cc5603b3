"""Norm lower bounds by iterated subspace growth.

From the trivial dual subspace V, each step enlarges V by the span of a
qualifying spectral level of the residual f_V = chi_A - chi_A * mu_V.
Its spectrum is hat(chi_A) off V and zero on V; ||f_V||_1 and ||f_V||_2^2
come from A's coset counts, checked against the spectrum by Parseval.
The mass L(V) = sum_{g in V} |hat(chi_A)(g)| grows by at least
(1/6)(4/3)^s per step and never exceeds the Wiener norm, so the final L
is a certified lower bound.  The loop runs while |V| <= max_order.
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
from .fourier import exact_sum, fwht
from .groups import (HARD_DIM_CAP, DualSubspace, coset_index_table,
                     subspace_extend)
from .setfuncs import PointSet, frac_product, residual_norms

__all__ = [
    "ZeroResidual",
    "Termination",
    "StepResult",
    "IterationTrace",
    "iterate_step",
    "run_iteration",
    "HypothesisRow",
    "HypothesisReport",
    "hypothesis_check",
]


# No subspace is larger than the largest group, so a bigger max_order would
# only lengthen the hypothesis report; lowerbound and check-cert share this.
MAX_ORDER = 1 << HARD_DIM_CAP


class ZeroResidual(Exception):
    """The set is already a union of annihilator cosets of V."""


class Termination(str, enum.Enum):
    ORDER_CAP = "OrderCapReached"
    RESIDUAL_ZERO = "ResidualZero"


@dataclass(frozen=True)
class StepResult:
    """One growth step: chosen level, enlarged subspace, exact mass gain."""

    s: int
    v_new: DualSubspace
    gain: DyadicScalar
    dim_before: int
    dim_after: int
    chang_ceiling: float
    l_after: DyadicScalar


def iterate_step(a: PointSet, v: DualSubspace, strategy: str,
                 ranking: SpectrumRanking, labels: np.ndarray) -> StepResult:
    """Grow v by one qualifying level of the residual spectrum.

    ranking is hat(chi_A) ranked by rank_spectrum, and labels holds the
    coset label of each of A's points (ascending) under some basis of v.
    Raises ZeroResidual when chi_A is constant on every annihilator coset
    of v (then L(v) already equals the full Wiener norm).
    """
    base, l2sq = residual_norms(np.bincount(labels, minlength=v.order),
                                a.dim.n)
    elems = v.element_array()
    on_v = ranking.magnitudes(elems)
    # Parseval: ||f_V||_2^2 is |A| / 2^n less the square mass on v.  The
    # squares of all 2^n numerators sum to |A| * 2^(2 exp - n) <= |A| * 2^n,
    # as exp <= n, which is at most 2^60 for n <= 30.
    on_v_sq = DyadicScalar(exact_sum(on_v, on_v, bound=a.size << a.dim.n),
                           2 * ranking.exp)
    if l2sq != a.density() - on_v_sq:
        raise ArithmeticError(f"coset counts contradict Parseval at {v!r}")
    if base.num == 0:
        raise ZeroResidual(f"residual of {a!r} against dim {v.dim} is zero")
    levels = level_sets(ranking, elems, base)
    level = select_level(levels, strategy)
    v_new = subspace_extend(v, level.members)
    # Masses sum at most |V| numerators of at most |A| <= 2^n each.
    l_old = DyadicScalar(exact_sum(on_v), ranking.exp)
    l_new = _mass_over(ranking, v_new)
    # Chang at eps = 2^-(s+1) caps how many dimensions the step can add.
    ceiling = chang_cardinality_bound(base, l2sq,
                                      Fraction(1, 2 ** (level.s + 1)))
    return StepResult(
        s=level.s,
        v_new=v_new,
        gain=l_new - l_old,
        dim_before=v.dim,
        dim_after=v_new.dim,
        chang_ceiling=ceiling,
        l_after=l_new,
    )


def _mass_over(ranking: SpectrumRanking, v: DualSubspace) -> DyadicScalar:
    return DyadicScalar(exact_sum(ranking.magnitudes(v.element_array())),
                        ranking.exp)


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
    """Full record of a run: steps, mass trajectory, certified bound."""

    steps: Tuple[StepResult, ...]
    l_sequence: Tuple[DyadicScalar, ...]
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
    ranking = rank_spectrum(fwht(a.indicator()))
    points = np.flatnonzero(a.bool_mask())
    norm = ranking.total()
    v = DualSubspace.trivial()
    labels = np.zeros(points.size, dtype=np.int64)
    l_seq = [_mass_over(ranking, v)]
    steps: List[StepResult] = []
    termination = Termination.ORDER_CAP
    while v.order <= max_order:
        try:
            step = iterate_step(a, v, strategy, ranking, labels)
        except ZeroResidual:
            termination = Termination.RESIDUAL_ZERO
            break
        steps.append(step)
        l_seq.append(step.l_after)
        # One label bit per added dimension; the old bits stay valid.
        labels |= coset_index_table(_complement(v, step.v_new), a.dim.n,
                                    points) << v.dim
        v = step.v_new
    final = l_seq[-1]
    if final > norm:
        raise ArithmeticError(f"bound {final} exceeds the norm {norm}")
    if termination is Termination.RESIDUAL_ZERO and final != norm:
        raise ArithmeticError(
            f"zero residual must certify the exact norm: {final} != {norm}")
    return IterationTrace(tuple(steps), tuple(l_seq), final, termination,
                          norm)


@dataclass(frozen=True)
class HypothesisRow:
    """Row d: frac = {alpha 2^d} and product = frac (1 - frac)."""

    d: int
    frac: DyadicScalar
    product: DyadicScalar

    @property
    def scaled(self) -> DyadicScalar:
        return self.product.mul_pow2(self.d)


@dataclass(frozen=True)
class HypothesisReport:
    """Exact {alpha 2^d}(1 - {alpha 2^d}) data for all orders up to M."""

    alpha: DyadicScalar
    max_order: int
    rows: Tuple[HypothesisRow, ...]
    c_plain: DyadicScalar
    c_scaled: DyadicScalar


def hypothesis_check(alpha: DyadicScalar, max_order: int) -> HypothesisReport:
    """Evaluate the fractional-part products for every 2^d <= max_order.

    c_plain = min_d {alpha 2^d}(1 - {alpha 2^d}) and c_scaled is the same
    minimum after multiplying row d by 2^d; both exact.
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must lie in [1, 2^{HARD_DIM_CAP}]")
    rows = [HypothesisRow(d, *frac_product(alpha, d))
            for d in range(max_order.bit_length())]
    c_plain = min((r.product for r in rows), default=ZERO)
    c_scaled = min((r.scaled for r in rows), default=ZERO)
    return HypothesisReport(alpha, max_order, tuple(rows), c_plain, c_scaled)
