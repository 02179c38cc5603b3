"""The Walsh-Hadamard transform of a set, and float L^p norms of tables.

Every spectrum the paper bounds is that of an indicator chi_A on F2^n.
fwht returns it unnormalized, as the int64 array S(g) = sum_{x in A}
(-1)^<g,x>, so hat(chi_A) = S / 2^n.  Every |S(g)| is at most S(0) = |A|
<= 2^30, so a sum of |S| or of S^2 over the 2^n characters is at most
|A| * 2^n <= 2^60 and stays exact in int64.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from . import _kernels

if TYPE_CHECKING:
    from .setfuncs import PointSet

__all__ = [
    "fwht",
    "lp_norm",
]

_I64_MAX = (1 << 63) - 1
# |v| * 2^-exp stays a normal float64 for 1 <= |v| <= 2^63 up to this exp.
_LP_MAX_EXP = 1000


def _int_minmax(nums: np.ndarray) -> int:
    """Largest absolute numerator, as a Python int."""
    if nums.size == 0:
        return 0
    return max(int(nums.max()), -int(nums.min()))


def _check_bound(bound: int, what: str, *arrays: np.ndarray) -> None:
    """Refuse arrays that are not int64 (TypeError) and a bound on the
    magnitudes an int64 step reaches above 2^63 - 1 (OverflowError)."""
    if any(a.dtype != np.int64 for a in arrays):
        raise TypeError(f"{what} takes int64 arrays")
    if bound > _I64_MAX:
        raise OverflowError(f"{what} bound {bound} is above 2^63 - 1")


def fwht(a: PointSet) -> np.ndarray:
    """The unnormalized transform S of a's indicator, as a fresh int64
    array of 2^n entries: hat(chi_A) = S / 2^n.

    The indicator is written into the output straight from the set's
    bitmap, so no int64 table of it stands beside the output.
    """
    out = np.empty(a.dim.order, dtype=np.int64)
    out[...] = a.bool_mask()
    _kernels.wht_rows(out.reshape(1, -1), min(a.size, 1))
    return out


def lp_norm(nums: np.ndarray, exps, p: float) -> List[float]:
    """Float L^p mean norm of each row nums[t] / 2^exps[t] of an int64
    (T, N) stack, for exponents up to _LP_MAX_EXP (ValueError above)."""
    if p < 1:
        raise ValueError("lp_norm requires p >= 1")
    exps = np.asarray(exps, dtype=np.int64)
    if exps.size and exps.max() > _LP_MAX_EXP:
        raise ValueError(f"lp_norm takes exponents up to {_LP_MAX_EXP}")
    vals = np.abs(nums.astype(np.float64))
    # Rounding v to float64 and then scaling by the normal power of two
    # 2^-exp is exact, so each entry equals float(Fraction(v, 2^exp)).
    vals *= np.ldexp(1.0, -exps)[:, None]
    # Each row's mean is reduced alone, as np.mean reduces a single row.
    return [float(m ** (1.0 / p)) for m in np.mean(vals ** p, axis=1)]
