"""Norm lower bounds by iterated subspace growth.

Starting from the trivial dual subspace, each step forms the residual of
A against the current subspace V, picks a qualifying spectral level of
the residual, and enlarges V by that level's span.  The tracked mass
L(V) = sum_{g in V} |hat(chi_A)(g)| grows by at least (1/6)(4/3)^s per
step and never exceeds the Wiener norm, so the final L is a certified
lower bound.  The loop runs while |V| <= max_order.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .chang import _chang_bound_from_norms, level_sets, select_level
from .dyadic import DyadicScalar, ZERO
from .fourier import Spectrum, a_norm, exact_sum, fwht, l2_norm_sq
from .groups import HARD_DIM_CAP, DualSubspace, subspace_extend
from .setfuncs import PointSet, frac_product, residual, residual_l1

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
    STEP_CAP = "StepCap"


def _mass_over(chi_hat: Spectrum, v: DualSubspace) -> DyadicScalar:
    return DyadicScalar(
        exact_sum(chi_hat.nums[v.element_array()], absolute=True),
        chi_hat.exp)


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


def iterate_step(a: PointSet, v: DualSubspace,
                 strategy: str = "smallest-s",
                 chi_hat: Optional[Spectrum] = None) -> StepResult:
    """Grow v by one qualifying level of the residual spectrum.

    Raises ZeroResidual when chi_A is constant on every annihilator coset
    of v (then L(v) already equals the full Wiener norm).
    """
    fv = residual(a, v)
    base = residual_l1(fv)
    if base.num == 0:
        raise ZeroResidual(f"residual of {a!r} against dim {v.dim} is zero")
    fv_hat = fwht(fv.table)
    # The physical-space residual must vanish on v in frequency; this
    # cross-checks the coset counting against the transform.
    elems = v.element_array()
    bad = np.flatnonzero(fv_hat.nums[elems])
    if bad.size:
        raise ArithmeticError(
            f"residual spectrum nonzero on v at {int(elems[bad[0]])}")
    if chi_hat is None:
        chi_hat = fwht(a.indicator())
    levels = level_sets(fv_hat, chi_hat, base)
    level = select_level(levels, strategy)
    v_new = subspace_extend(v, level.members)
    l_old = _mass_over(chi_hat, v)
    l_new = _mass_over(chi_hat, v_new)
    # Chang at eps = 2^-(s+1) caps how many dimensions the step can add.
    ceiling = _chang_bound_from_norms(base, l2_norm_sq(fv.table),
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
        return sum((Fraction(4 ** st.s, 6 * 3 ** st.s) for st in self.steps),
                   Fraction(0))


def run_iteration(a: PointSet, max_order: int,
                  strategy: str = "smallest-s",
                  step_cap: int = 64) -> IterationTrace:
    """Iterate growth steps from the trivial subspace while |V| <= max_order.

    The certified final_bound is sound unconditionally: it is a partial
    sum of |hat(chi_A)|, so final_bound <= a_norm holds exactly, with
    equality whenever the run ends in ResidualZero.
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must lie in [1, 2^{HARD_DIM_CAP}]")
    if step_cap < 0:
        raise ValueError("step_cap must be >= 0")
    chi_hat = fwht(a.indicator())
    norm = a_norm(chi_hat)
    v = DualSubspace.trivial()
    l_seq = [_mass_over(chi_hat, v)]
    steps: List[StepResult] = []
    termination = Termination.STEP_CAP
    while True:
        if v.order > max_order:
            termination = Termination.ORDER_CAP
            break
        if len(steps) >= step_cap:
            termination = Termination.STEP_CAP
            break
        try:
            step = iterate_step(a, v, strategy, chi_hat)
        except ZeroResidual:
            termination = Termination.RESIDUAL_ZERO
            break
        steps.append(step)
        l_seq.append(step.l_after)
        v = step.v_new
    final = l_seq[-1]
    if final > norm:
        raise ArithmeticError(f"bound {final} exceeds the norm {norm}")
    if termination is Termination.RESIDUAL_ZERO and final != norm:
        raise ArithmeticError(
            "zero residual must certify the exact norm: "
            f"{final} != {norm}"
        )
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
