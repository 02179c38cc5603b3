"""Spectral level sets, Chang's span bound, and Riesz-product tests.

Level s collects the characters with 2^-s base >= |hat(f_V)(g)| >
2^-(s+1) base, where base = ||f_V||_1 (closed above, open below).  The
masses L_s = sum over level s of |hat(chi_A)| satisfy sum_s 2^-s L_s >=
1/2, so some level has L_s >= (1/6)(4/3)^s; all of this is decided by
exact integer cross-multiplication.  Chang's theorem caps the dimension
of the span of a large-spectrum set; the Riesz-product machinery below
exercises the hypercontractive inequality behind its proof.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

import numpy as np

from .dyadic import DyadicScalar, floor_log2_ratio
from .fourier import (FunctionTable, Spectrum, exact_product, exact_sum, fwht,
                      inverse_fwht, l1_norm, l2_norm_sq, lp_norm,
                      spectrum_l2_sq)
from .groups import DualSubspace, as_dim

__all__ = [
    "ZeroMass",
    "NoQualifyingLevel",
    "DependentSet",
    "LevelSet",
    "level_sets",
    "level_qualifies",
    "STRATEGIES",
    "select_level",
    "chang_span",
    "chang_cardinality_bound",
    "RieszProduct",
    "riesz_product",
    "beckner_verify",
]


class ZeroMass(ValueError):
    """Level sets were requested for an identically zero function."""


class NoQualifyingLevel(ArithmeticError):
    """No level meets the guaranteed (1/6)(4/3)^s mass; arithmetic bug."""


class DependentSet(ValueError):
    """A Riesz product needs linearly independent characters."""


@dataclass(frozen=True)
class LevelSet:
    """Characters of one dyadic magnitude band, with their chi_A mass."""

    s: int
    members: Tuple[int, ...]
    mass: DyadicScalar


def level_sets(fv_hat: Spectrum, chi_hat: Spectrum,
               base: DyadicScalar) -> List[LevelSet]:
    """Partition supp(hat(f_V)) into dyadic bands relative to base.

    base must equal ||f_V||_1 for the masses to mean anything; every
    nonzero coefficient satisfies |hat(f_V)(g)| <= base, so s >= 0.
    """
    if fv_hat.dim != chi_hat.dim:
        raise ValueError("spectra live on different groups")
    if base.num <= 0:
        raise ZeroMass("level sets need a positive base norm")
    support = np.flatnonzero(fv_hat.nums)
    mags = np.abs(fv_hat.nums[support])
    # Distinct magnitudes, largest first: the band index only grows along
    # them, so each level is one run of them, decided with one exact
    # floor_log2_ratio per value and selected with one range mask.
    values = np.unique(mags)[::-1].tolist()
    top = DyadicScalar(values[0] if values else 0, fv_hat.exp)
    if top > base:
        raise ArithmeticError(f"coefficient {top} above the l1 base {base}")
    out = []
    for s, run in itertools.groupby(
            values,
            key=lambda v: floor_log2_ratio(base, DyadicScalar(v, fv_hat.exp))):
        run = list(run)
        members = support[(mags >= run[-1]) & (mags <= run[0])]
        mass = exact_sum(chi_hat.nums[members], absolute=True)
        out.append(LevelSet(s, tuple(members.tolist()),
                            DyadicScalar(mass, chi_hat.exp)))
    return out


def level_qualifies(level: LevelSet) -> bool:
    """Exact test of mass >= (1/6)(4/3)^s by integer cross-multiplication."""
    m = level.mass
    s = level.s
    return 6 * (3 ** s) * m.num >= (4 ** s) * (1 << m.exp)


STRATEGIES = ("smallest-s", "best-ratio")


def select_level(levels: Sequence[LevelSet],
                 strategy: str = "smallest-s") -> LevelSet:
    """Pick a qualifying level.

    smallest-s takes the first band meeting the mass floor; best-ratio
    takes the qualifier maximizing mass / 4^s (ties to the smaller s).
    The averaging identity guarantees a qualifier exists, so an empty
    result is an arithmetic bug, not a data condition.
    """
    qualifying = [lv for lv in levels if level_qualifies(lv)]
    if not qualifying:
        raise NoQualifyingLevel(
            "no level reaches (1/6)(4/3)^s; the mass bookkeeping is broken"
        )
    if strategy == "smallest-s":
        return min(qualifying, key=lambda lv: lv.s)
    if strategy == "best-ratio":
        best = qualifying[0]
        for lv in qualifying[1:]:
            # lv.mass / 4^lv.s > best.mass / 4^best.s, cross-multiplied.
            lhs = lv.mass.num * (4 ** best.s) << best.mass.exp
            rhs = best.mass.num * (4 ** lv.s) << lv.mass.exp
            if lhs > rhs:
                best = lv
        return best
    raise ValueError(f"unknown strategy {strategy!r}")


def _ln_fraction(q: Fraction) -> float:
    # log of a ratio of big integers without overflowing float.
    return math.log(q.numerator) - math.log(q.denominator)


def _chang_bound_from_norms(l1: DyadicScalar, l2sq: DyadicScalar,
                            eps: Fraction) -> float:
    ratio = l2sq.as_fraction() / (l1.as_fraction() ** 2)
    return math.e * float(1 / eps ** 2) * max(_ln_fraction(ratio), 1.0)


def chang_cardinality_bound(f: FunctionTable, eps: float) -> float:
    """e * eps^-2 * max(ln(||f||_2^2 / ||f||_1^2), 1).

    Chang's theorem: the characters with |hat(f)| >= eps ||f||_1 span at
    most this many dimensions.  The log ratio form comes from the proof;
    its argument is >= 1 by Cauchy-Schwarz, so the bound is always
    positive.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    l1 = l1_norm(f)
    if l1.num == 0:
        raise ZeroMass("Chang bound needs a nonzero function")
    return _chang_bound_from_norms(l1, l2_norm_sq(f), Fraction(eps))


def chang_span(spec: Spectrum, threshold: DyadicScalar,
               ) -> Tuple[DualSubspace, float]:
    """Span of {g : |hat(f)(g)| >= threshold} and its Chang dimension cap.

    The cap is evaluated at eps = threshold / ||f||_1.  For the zero
    function the span is trivial and the cap is reported as 0.
    """
    if threshold.num <= 0:
        raise ValueError("threshold must be positive")
    f = inverse_fwht(spec)
    l1 = l1_norm(f)
    # |num| / 2^spec.exp >= threshold  <=>  |num| >= cut, for integer num.
    cut = -((-threshold.num << spec.exp) >> threshold.exp)
    # numpy >= 2 compares int64 with an out-of-range Python int exactly.
    w = DualSubspace.span(np.flatnonzero(np.abs(spec.nums) >= cut))
    if l1.num == 0:
        return w, 0.0
    eps = threshold.as_fraction() / l1.as_fraction()
    if eps > 1:
        # Nothing clears a threshold above the l1 norm; the span is trivial.
        return w, 0.0
    return w, _chang_bound_from_norms(l1, l2_norm_sq(f), eps)


@dataclass(frozen=True)
class RieszProduct:
    """prod_i (1 + eta lambda_i) for independent characters lambda_i."""

    table: FunctionTable
    lambdas: Tuple[int, ...]
    eta: DyadicScalar


def riesz_product(dim, lambdas: Sequence[int],
                  eta: Union[DyadicScalar, Fraction, float, int],
                  ) -> RieszProduct:
    """Exact Riesz product; non-negative, mean one, |hat(p)| = eta^|S|.

    The spectrum is supported exactly on subset sums of the lambdas, which
    is why independence is required (DependentSet otherwise).
    """
    d = as_dim(dim)
    if isinstance(eta, DyadicScalar):
        e = eta
    elif isinstance(eta, Fraction):
        e = DyadicScalar.from_fraction(eta)
    elif isinstance(eta, float):
        e = DyadicScalar.from_float(eta)
    else:
        e = DyadicScalar(int(eta))
    if abs(e) > DyadicScalar(1):
        raise ValueError("|eta| must be at most 1")
    lambdas = tuple(int(x) for x in lambdas)
    if any(not 0 < x < d.order for x in lambdas):
        raise ValueError("characters must be nonzero masks in the group")
    if DualSubspace.span(lambdas).dim != len(lambdas):
        raise DependentSet("characters are linearly dependent")
    pts = np.arange(d.order, dtype=np.int64)
    k = len(lambdas)
    # Factor numerators are 2^exp +- num <= 2^(exp+1); k factors need
    # k * (exp + 1) bits, so fall back to objects when int64 is too small.
    big = k * (e.exp + 1) >= 63
    out = np.ones(d.order, dtype=object if big else np.int64)
    for lam in lambdas:
        par = (np.bitwise_count(pts & np.int64(lam)) & 1).astype(np.int64)
        factor = np.where(par == 0, (1 << e.exp) + e.num, (1 << e.exp) - e.num)
        out = out * (factor.astype(object) if big else factor)
    table = FunctionTable(d, out, k * e.exp)
    return RieszProduct(table, lambdas, e)


def beckner_verify(f: FunctionTable, lambdas: Sequence[int],
                   eta: float) -> Tuple[float, float]:
    """(||f * p_eta||_2, ||f||_{1+eta^2}) for the Riesz smoothing p_eta.

    Hypercontractivity makes the left side at most the right; the left
    side is computed exactly via Parseval and only rounded at the end.
    """
    e = DyadicScalar.from_float(eta)
    p = riesz_product(f.dim, lambdas, e)
    sf = fwht(f)
    sp = fwht(p.table)
    prod = exact_product(sf.nums, sp.nums)
    conv_sq = spectrum_l2_sq(Spectrum(f.dim, prod, sf.exp + sp.exp))
    lhs = math.sqrt(float(conv_sq.as_fraction()))
    rhs = lp_norm(f, 1.0 + eta * eta)
    return lhs, rhs
