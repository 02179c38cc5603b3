"""Independent brute-force oracles over Fractions.

Everything here is written the slow, obvious way (double loops, explicit
set scans) so the fast implementations have something honest to be
checked against.  No code is shared with the package's numeric paths.
The search oracles use numpy only to keep whole-spectrum recomputation
affordable: one candidate or one proposal at a time.  witness_problems
rechecks a witness file from its JSON alone, as a reader without the
package would.

The last section is different: it keeps code the package has dropped,
built on the package's own types.  A table there is a (nums, exp) pair,
the values nums / 2^exp on F2^n, with nums an int64 array of 2^n entries;
table_l1, table_l2_sq and table_fwht give its norms, in Python ints, and
its transform.  reference_ranking is rank_spectrum's ranking by a stable
argsort, for hand-made spectra and as the packed sort's reference.
reference_iterate_step is the growth step by the physical route
(residual table, its transform, norms of the table), which the spectral
step must reproduce exactly; the set maps and table helpers there serve
only the tests, as do fresh_step (iterate_step with its ranking and step
state built from scratch), the small accessors the package dropped
(span_of, subspace_elements, full_subspace, set_points, full_set,
table_fractions, dyadic_from_fraction), profile_report (the profile
command's rows and minima, read back from its stdout), parity_labels
(per-character parity labels of many points under many character
lists at once), coset_index_table (its one-subspace form, which
label_table must match), fraction_chang_cap (Chang's cap by Fraction
arithmetic, which the integer ratio must reproduce bit for bit) and
build_equality_case, the set attaining Lemma 1's floor.
reference_level_sets is the banding by a sort
of the residual spectrum's distinct magnitudes, one floor_log2_ratio per
magnitude, which the ranked banding must reproduce.  reference_all_subspaces and
reference_annihilator_basis are the one-subspace-at-a-time enumeration and
bit loop that the batched enumeration must reproduce, order included.
reference_inverse_fwht is the exact inverse transform the package dropped.
reference_residual is the residual table f_V itself, the whole group
labelled under V's basis at once: the package builds no such table,
and its norms from coset counts must equal the table's, and
reference_beckner is the Beckner check that built its own Riesz product
from (lambdas, eta), which the one-product check must reproduce bit for
bit.

The verify section is the per-trial verify code that the package
replaced by stacked evaluation: one table's residual l1, Lemma 1's floor,
one Riesz product, one Beckner check, the table L^p norm, the technical
lemma's two sides for one list of deltas (by the Python-int sum over their
common denominator that the package keeps only for rows past int64), the
span of one table's large spectrum, and the tA, lem1, techlem, beckner and
chang trials built from them.  A batched suite must give the violations
these trials give, also when a test patches one of the per-trial
functions here as it patches the batched one in verify.  Each trial (seed,
i) draws from TrialStream(seed, i), the last section: the verify stream
in plain Python ints, one word at a time, and each suite's draws read from
it in order, apart from the package's arrays.
"""
from __future__ import annotations

import contextlib
import io
import math
import re
from fractions import Fraction
from itertools import combinations, groupby, product
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from f2wiener import _kernels, cli
from f2wiener.chang import (DependentSet, LevelSet, SpectrumRanking,
                            ZeroMass, chang_cardinality_bound, rank_spectrum,
                            select_level)
from f2wiener.dyadic import ONE, ZERO, DyadicScalar
from f2wiener.fourier import _LP_MAX_EXP, _check_bound, fwht
from f2wiener.groups import DualSubspace, GroupDim, subspace_extend
from f2wiener.iteration import (StepResult, StepState, ZeroResidual,
                                iterate_step)
from f2wiener.setfuncs import (PointSet, physical_lower_bound as row_floors,
                               residual_l1 as row_l1)


def parity(a: int, b: int) -> int:
    return bin(a & b).count("1") & 1


def sign(gamma: int, x: int) -> int:
    return -1 if parity(gamma, x) else 1


def brute_fwht(values: Sequence[Fraction], n: int) -> List[Fraction]:
    order = 1 << n
    assert len(values) == order
    return [
        sum((Fraction(values[x]) * sign(g, x) for x in range(order)),
            Fraction(0)) / order
        for g in range(order)
    ]


def brute_inverse(coeffs: Sequence[Fraction], n: int) -> List[Fraction]:
    order = 1 << n
    return [
        sum((Fraction(coeffs[g]) * sign(g, x) for g in range(order)),
            Fraction(0))
        for x in range(order)
    ]


def brute_wht_rows(mat) -> List[List[int]]:
    """Unnormalized WHT of each row, sum_x mat[r, x] (-1)^<g, x>, by
    butterfly stages on Python ints (an object array, so nothing wraps)."""
    rows = np.array([[int(v) for v in row] for row in np.asarray(mat)],
                    dtype=object).reshape(np.shape(mat))
    order = rows.shape[1]
    h = 1
    while h < order:
        pairs = rows.reshape(rows.shape[0], order // (2 * h), 2, h)
        a = pairs[:, :, 0].copy()
        b = pairs[:, :, 1]
        pairs[:, :, 0] += b
        b[...] = a - b
        h *= 2
    return rows.tolist()


def brute_a_norm(values: Sequence[Fraction], n: int) -> Fraction:
    return sum((abs(c) for c in brute_fwht(values, n)), Fraction(0))


def brute_set_a_norm(points: Sequence[int], n: int) -> Fraction:
    vals = [Fraction(0)] * (1 << n)
    for p in points:
        vals[p] = Fraction(1)
    return brute_a_norm(vals, n)


def annihilator_points(basis: Sequence[int], n: int) -> List[int]:
    return [x for x in range(1 << n)
            if all(parity(b, x) == 0 for b in basis)]


def brute_coset_average(points: Sequence[int], basis: Sequence[int],
                        n: int) -> List[Fraction]:
    members = set(points)
    ann = annihilator_points(basis, n)
    out = []
    for x in range(1 << n):
        coset = {x ^ w for w in ann}
        out.append(Fraction(len(coset & members), len(coset)))
    return out


def witness_problems(wit: dict, set_bits: int) -> List[str]:
    """Recheck a version 2 witness file, from its JSON alone.

    Part i is rebuilt by brute force as every x with <lam, x> =
    <lam, x_1 ^ ... ^ x_i> for each row lam of Lambda_i; the parts must be
    disjoint, part i must have 2^(n - d_i) points, and their union must be
    the set file's bitmap set_bits.  alpha, exponents and part_count must
    agree with each other and with the set.
    """
    keys = ["version", "kind", "n", "exponents", "alpha", "lambdas",
            "gammas", "offsets", "a_norm", "part_count", "tool_commit"]
    if list(wit) != keys or wit["version"] != 2:
        return [f"not a version 2 witness: {list(wit)}"]
    n, exps = wit["n"], wit["exponents"]
    problems = []
    k = len(exps)
    if wit["part_count"] != k:
        problems.append(f"part_count {wit['part_count']} != {k} exponents")
    if any(b <= a for a, b in zip(exps, exps[1:])) or exps[0] < 1:
        problems.append(f"exponents {exps} not strictly increasing from 1")
    if (len(wit["lambdas"]), len(wit["gammas"]), len(wit["offsets"])) != (
            k, k, k - 1):
        return problems + ["generator counts do not match the exponents"]
    alpha = sum((Fraction(1, 1 << d) for d in exps), Fraction(0))
    if Fraction(wit["alpha"]["num"], 1 << wit["alpha"]["exp"]) != alpha:
        problems.append(f"alpha {wit['alpha']} != sum 2^-d_i = {alpha}")
    if Fraction(bin(set_bits).count("1"), 1 << n) != alpha:
        problems.append(f"the set's density is not alpha = {alpha}")
    union, shift = 0, 0
    for i, (d, rows) in enumerate(zip(exps, wit["lambdas"])):
        if i:
            shift ^= wit["offsets"][i - 1]
        part = [x for x in range(1 << n)
                if all(parity(lam, x) == parity(lam, shift) for lam in rows)]
        if len(part) != 1 << (n - d):
            problems.append(f"part {i} has {len(part)} points, not "
                            f"2^(n - {d})")
        bits = sum(1 << x for x in part)
        if union & bits:
            problems.append(f"part {i} meets an earlier part")
        union |= bits
    if union != set_bits:
        problems.append("the parts' union is not the set file")
    return problems


def brute_min_norm(n: int, size: int) -> Tuple[Fraction, List[Tuple[int, ...]]]:
    """Exact minimum over every size-subset, no symmetry pruning."""
    best = None
    witnesses: List[Tuple[int, ...]] = []
    for pts in combinations(range(1 << n), size):
        norm = brute_set_a_norm(pts, n)
        if best is None or norm < best:
            best = norm
            witnesses = [pts]
        elif norm == best:
            witnesses.append(pts)
    return best, witnesses


def brute_exhaustive_scan(n: int, size: int) -> List[Tuple[List[int], int]]:
    """(points, unnormalized l1 spectrum sum) of every candidate the
    exhaustive search scans, in its order: the sets holding 0 (and 1 from
    size 2 on), completed in combinations order, one transform each."""
    order = 1 << n
    fixed = [0] if size == 1 else [0, 1]
    hadamard = np.array([[sign(g, x) for x in range(order)]
                         for g in range(order)], dtype=np.int64)
    rest = [x for x in range(order) if x not in fixed]
    out = []
    for extra in combinations(rest, size - len(fixed)):
        pts = fixed + list(extra)
        ind = np.zeros(order, dtype=np.int64)
        ind[pts] = 1
        out.append((pts, int(np.abs(hadamard @ ind).sum())))
    return out


def _parity_fold(v: np.ndarray) -> np.ndarray:
    # XOR-fold parity of non-negative int64 values.
    for shift in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


def brute_anneal_sweep(wht, members, nonmembers, pick_out, pick_in, accept,
                       t0, cooling, scale, best_members) -> int:
    """Single-swap annealing that prices every proposal by building the
    whole candidate spectrum and summing it, O(m) per proposal.

    Same arguments, acceptance rule, side effects and result as
    _kernels.anneal_sweep.
    """
    m = wht.shape[0]
    gammas = np.arange(m, dtype=np.int64)
    cur = int(np.abs(wht).sum())
    best = cur
    best_members[:] = members
    temp = t0
    for t in range(pick_out.shape[0]):
        io = int(pick_out[t])
        ii = int(pick_in[t])
        x_out = int(members[io])
        x_in = int(nonmembers[ii])
        sign_in = 1 - 2 * _parity_fold(gammas & x_in)
        sign_out = 1 - 2 * _parity_fold(gammas & x_out)
        cand = wht + sign_in - sign_out
        new = int(np.abs(cand).sum())
        delta = new - cur
        # At temperature 0.0 only downhill and level moves are accepted.
        if delta <= 0 or (temp > 0.0
                          and accept[t] < math.exp(-(delta / scale) / temp)):
            wht[:] = cand
            members[io] = x_in
            nonmembers[ii] = x_out
            cur = new
            if cur < best:
                best = cur
                best_members[:] = members
        temp *= cooling
    return best


def brute_level_sets(coeffs: Sequence[Fraction], chi: Sequence[Fraction],
                     base: Fraction) -> List[Tuple[int, Tuple[int, ...],
                                                   Fraction]]:
    """(s, members, mass) per band, by one scan over the coefficients.

    Band s holds the g with base / 2^(s+1) < |coeffs[g]| <= base / 2^s;
    members ascend and mass sums |chi[g]| over them.  A coefficient above
    base raises ArithmeticError.
    """
    buckets = {}
    for g, c in enumerate(coeffs):
        c = abs(Fraction(c))
        if c == 0:
            continue
        if c > base:
            raise ArithmeticError(f"coefficient {c} above the base {base}")
        s = 0
        while c <= base / (1 << (s + 1)):
            s += 1
        members, mass = buckets.get(s, ((), Fraction(0)))
        buckets[s] = (members + (g,), mass + abs(Fraction(chi[g])))
    return [(s, members, mass)
            for s, (members, mass) in sorted(buckets.items())]


def brute_riesz_product(lambdas: Sequence[int], eta: Fraction,
                        n: int) -> List[Fraction]:
    """prod_i (1 + eta (-1)^<lambda_i, x>) at every point x, factor by
    factor."""
    out = []
    for x in range(1 << n):
        p = Fraction(1)
        for lam in lambdas:
            p *= 1 + eta * sign(lam, x)
        out.append(p)
    return out


def brute_indicator_bits(arr: Sequence[int]) -> int:
    """Bitmap with bit i set for every truthy arr[i], one bit at a time."""
    bits = 0
    for i, v in enumerate(arr):
        if v:
            bits |= 1 << i
    return bits


def brute_frac_quadratic_gap(deltas) -> Tuple[Fraction, Fraction]:
    """(sum(d - d^2), g(1 - g)), g = frac(sum d), in Fraction arithmetic."""
    ds = [Fraction(d) for d in deltas]
    for d in ds:
        if not 0 <= d <= 1:
            raise ValueError(f"delta {d} outside [0, 1]")
    total = sum(ds, Fraction(0))
    g = total - (total.numerator // total.denominator)
    lhs = sum((d - d * d for d in ds), Fraction(0))
    return lhs, g * (1 - g)



def brute_abs_floats(nums: Sequence[int], exp: int) -> List[float]:
    """|v| / 2^exp for each numerator, each rounded once through Fraction."""
    return [abs(float(Fraction(int(v), 1 << exp))) for v in nums]


def _rref_insert(basis: List[int], gamma: int) -> List[int]:
    """Insert gamma into a basis kept sorted by lowest set bit, with each
    row's lowest bit cleared from every other row."""
    for r in basis:
        low = r & -r
        if gamma & low:
            gamma ^= r
    if not gamma:
        return basis
    low = gamma & -gamma
    rows = [r ^ gamma if r & low else r for r in basis] + [gamma]
    return sorted(rows, key=lambda r: r & -r)


def brute_chang_span(coeffs: Sequence[Fraction], threshold: Fraction,
                     n: int) -> Tuple[Tuple[int, ...], float]:
    """(RREF basis of the span of {g : |coeffs[g]| >= threshold}, cap).

    One scan over every coefficient; the cap is the Chang bound
    e * eps^-2 * max(ln(||f||_2^2 / ||f||_1^2), 1) at eps = threshold /
    ||f||_1 with f the inverse transform, 0 when f is zero or eps > 1.
    """
    basis: List[int] = []
    for g, c in enumerate(coeffs):
        if c != 0 and abs(Fraction(c)) >= threshold:
            basis = _rref_insert(basis, g)
    f = brute_inverse(coeffs, n)
    l1 = sum((abs(v) for v in f), Fraction(0)) / (1 << n)
    if l1 == 0:
        return tuple(basis), 0.0
    eps = threshold / l1
    if eps > 1:
        return tuple(basis), 0.0
    ratio = (sum((v * v for v in f), Fraction(0)) / (1 << n)) / l1 ** 2
    log_ratio = math.log(ratio.numerator) - math.log(ratio.denominator)
    return tuple(basis), math.e * float(1 / eps ** 2) * max(log_ratio, 1.0)


# Dropped package code, kept as a reference for the tests.


def span_of(masks: Sequence[int]) -> DualSubspace:
    """The subspace spanned by masks."""
    return subspace_extend(DualSubspace.trivial(), masks)


def subspace_elements(v: DualSubspace) -> np.ndarray:
    """All 2^dim members of v as an int64 array, by doubling over the
    basis: the members that are sums of the first i rows come first."""
    elems = np.zeros(1, dtype=np.int64)
    for r in v.basis:
        elems = np.concatenate((elems, elems ^ np.int64(r)))
    return elems


_PROFILE_ROW = re.compile(
    r"d=(\d+)  order=(\d+)  frac=(\S+)  product=(\S+)  scaled=(\S+)$")


def profile_report(alpha: DyadicScalar, max_dim: int):
    """(rows, c_plain, c_scaled) as the profile command prints them for
    alpha and max_dim: rows[d] is (frac, product, scaled) for d = 0..max_dim,
    every value a DyadicScalar read back from the printed fraction."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["profile", "--alpha", str(alpha),
                       "--max-dim", str(max_dim)])
    if rc != 0:
        raise ValueError(f"profile exited {rc}")
    lines = out.getvalue().splitlines()
    rows = []
    for d, line in enumerate(lines[2:-2]):
        m = _PROFILE_ROW.match(line)
        assert m and int(m[1]) == d and int(m[2]) == 1 << d, line
        rows.append(tuple(dyadic_from_fraction(Fraction(m[i]))
                          for i in (3, 4, 5)))
    assert lines[-2].startswith("c_plain = ")
    assert lines[-1].startswith("c_scaled = ")
    c_plain, c_scaled = (dyadic_from_fraction(Fraction(line.split()[-1]))
                         for line in lines[-2:])
    return rows, c_plain, c_scaled


def full_subspace(n: int) -> DualSubspace:
    return DualSubspace(tuple(1 << i for i in range(n)))


def set_points(a: PointSet) -> List[int]:
    """Members in ascending order."""
    return np.flatnonzero(a.bool_mask()).tolist()


def full_set(n: int) -> PointSet:
    return PointSet(n, (1 << (1 << n)) - 1)


def table_fractions(nums, exp: int) -> List[Fraction]:
    """The values nums[x] / 2^exp of a table."""
    den = 1 << exp
    return [Fraction(int(v), den) for v in nums]


def table_l1(nums, exp: int) -> DyadicScalar:
    """Mean of |f| for the table f = nums / 2^exp, in Python ints."""
    n = len(nums).bit_length() - 1
    return DyadicScalar(sum(abs(int(v)) for v in nums), exp + n)


def table_l2_sq(nums, exp: int) -> DyadicScalar:
    """Mean of f^2 for the table f = nums / 2^exp, in Python ints."""
    n = len(nums).bit_length() - 1
    return DyadicScalar(sum(int(v) ** 2 for v in nums), 2 * exp + n)


def table_fwht(nums, exp: int) -> Tuple[np.ndarray, int]:
    """(S, exp + n): hat(f) = S / 2^(exp + n) for the table f = nums /
    2^exp, S being the int64 transform by _kernels.wht_rows."""
    spec = np.array(nums, dtype=np.int64)
    _kernels.wht_rows(spec.reshape(1, -1))
    return spec, exp + spec.size.bit_length() - 1


def reference_ranking(nums, exp: int) -> SpectrumRanking:
    """rank_spectrum's ranking of the spectrum nums / 2^exp by a stable
    argsort of -|nums|, for magnitudes below 2^31."""
    mags = np.abs(np.asarray(nums, dtype=np.int64))
    assert mags.max(initial=0) < 1 << 31
    order = np.argsort(-mags, kind="stable").astype(np.int32)
    rank = np.empty(order.size, dtype=np.int32)
    rank[order] = np.arange(order.size, dtype=np.int32)
    neg = (-mags[order]).astype(np.int32)
    for arr in (order, rank, neg):
        arr.setflags(write=False)
    return SpectrumRanking(exp, order, rank, neg)


def dyadic_from_fraction(q: Fraction) -> DyadicScalar:
    den = q.denominator
    if den & (den - 1):
        raise ValueError(f"denominator {den} is not a power of two")
    return DyadicScalar(q.numerator, den.bit_length() - 1)


def parity_labels(chars: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Label of each point x in pts: bit i is <chars[..., i], x>, the other
    axes of chars broadcasting against pts."""
    labels = np.zeros(np.broadcast_shapes(pts.shape, chars.shape[:-1]),
                      dtype=np.int64)
    for i in range(chars.shape[-1]):
        bits = np.bitwise_count(pts & chars[..., i]).astype(np.int64) & 1
        labels |= bits << i
    return labels


def fraction_chang_cap(l1: DyadicScalar, l2sq: DyadicScalar,
                       eps: Fraction) -> float:
    """Chang's cap e eps^-2 max(ln(l2sq / l1^2), 1) by Fraction arithmetic,
    as chang_cardinality_bound computed it before it reduced the ratio in
    Python ints."""
    ratio = l2sq.as_fraction() / (l1.as_fraction() ** 2)
    log_ratio = math.log(ratio.numerator) - math.log(ratio.denominator)
    return math.e * float(1 / eps ** 2) * max(log_ratio, 1.0)


class ResolutionError(ValueError):
    """A requested density is not resolvable at the given dimension."""


def build_equality_case(alpha: DyadicScalar, v: DualSubspace,
                        n: int) -> PointSet:
    """Set of density alpha attaining the coset-averaging l1 floor for v.

    floor(alpha |V|) full annihilator cosets plus the lexicographically
    smallest points of one further coset.  Requires alpha * 2**n integral.
    """
    if not ZERO <= alpha <= ONE:
        raise ValueError("alpha must lie in [0, 1]")
    if alpha.exp > n:
        raise ResolutionError(
            f"alpha {alpha} is not resolvable at dimension {n}")
    dv = v.dim
    if dv > n:
        raise ValueError("subspace dimension exceeds the group")
    scaled = alpha.mul_pow2(dv)
    full = scaled.num >> scaled.exp
    t = scaled.frac()
    rem_exp = n - dv - t.exp
    if rem_exp < 0:
        raise ResolutionError(
            f"fractional density {t} needs more than {n - dv} free bits")
    partial = t.num << rem_exp
    syn = coset_index_table(v, np.arange(1 << n, dtype=np.int64))
    ind = syn < full
    ind[np.flatnonzero(syn == full)[:partial]] = True
    return PointSet.from_indicator(n, ind)


def floor_log2_ratio(a: DyadicScalar, b: DyadicScalar) -> int:
    """floor(log2(a / b)) for positive a, b, computed with integer shifts:
    the band index of b under the base a."""
    if a.num <= 0 or b.num <= 0:
        raise ValueError("floor_log2_ratio needs positive arguments")
    p = a.num << b.exp
    q = b.num << a.exp
    e = p.bit_length() - q.bit_length()
    if e >= 0:
        return e if (q << e) <= p else e - 1
    return e if q <= (p << -e) else e - 1


def reference_level_sets(fv_hat, chi_hat, base):
    """level_sets as it was before the ranking: band the support of the
    residual spectrum fv_hat by one exact floor_log2_ratio per distinct
    magnitude and sum |chi_hat| over each band; members ascend.  Each
    spectrum is a (nums, exp) pair."""
    if base.num <= 0:
        raise ZeroMass("level sets need a positive base norm")
    fv_nums, fv_exp = fv_hat
    support = np.flatnonzero(fv_nums)
    mags = np.abs(fv_nums[support])
    values = np.unique(mags)[::-1].tolist()
    top = DyadicScalar(values[0] if values else 0, fv_exp)
    if top > base:
        raise ArithmeticError(f"coefficient {top} above the l1 base {base}")
    out = []
    for s, run in groupby(
            values,
            key=lambda v: floor_log2_ratio(base, DyadicScalar(v, fv_exp))):
        run = list(run)
        members = support[(mags >= run[-1]) & (mags <= run[0])]
        out.append(LevelSet(s, tuple(members.tolist()),
                            _mass_over(chi_hat, members)))
    return out


def _mass_over(chi_hat, chars):
    nums, exp = chi_hat
    return DyadicScalar(sum(abs(int(x)) for x in nums[chars]), exp)


def fresh_step(a: PointSet, v: DualSubspace,
               strategy: str = "smallest-s") -> StepResult:
    """iterate_step from scratch: hat(chi_A) ranked, and v's StepState
    (A's points labelled under v's basis, v's elements and their mass)
    built here, as run_iteration hands them over."""
    ranking = rank_spectrum(a)
    return iterate_step(a, v, strategy, ranking, StepState(a, v, ranking))


def reference_iterate_step(a, v, strategy, ranking, state):
    """iterate_step by the physical route: build the residual table f_V,
    take its l1 norm two ways, check ||f_V||_2^2 = l1 / 2 on the table,
    transform it, check the transform vanishes on v, and read the levels
    off it.  Of ranking and state, which iterate_step takes, only the
    state's mass is touched: it is set to the grown subspace's, in the
    ranking's units, since run_iteration reads its final bound there."""
    fv = residual(a, v)
    base = residual_l1(a, v)
    if base.num == 0:
        raise ZeroResidual(f"residual of {a!r} against dim {v.dim} is zero")
    if table_l2_sq(*fv) != base.mul_pow2(-1):
        raise ArithmeticError(f"||f_V||_2^2 != ||f_V||_1 / 2 at {v!r}")
    fv_hat = table_fwht(*fv)
    elems = subspace_elements(v)
    bad = np.flatnonzero(fv_hat[0][elems])
    if bad.size:
        raise ArithmeticError(
            f"residual spectrum nonzero on v at {int(elems[bad[0]])}")
    chi_hat = (fwht(a), a.dim.n)
    levels = reference_level_sets(fv_hat, chi_hat, base)
    level = select_level(levels, strategy)
    v_new = subspace_extend(v, level.members)
    l_old = _mass_over(chi_hat, subspace_elements(v))
    l_new = _mass_over(chi_hat, subspace_elements(v_new))
    state.mass = int(l_new.as_fraction() * (1 << ranking.exp))
    return StepResult(s=level.s, v_new=v_new, gain=l_new - l_old,
                      dim_before=v.dim, dim_after=v_new.dim, l1=base)


def set_complement(a: PointSet) -> PointSet:
    return PointSet(a.dim, a.bits ^ ((1 << a.dim.order) - 1))


def set_translate(a: PointSet, x: int) -> PointSet:
    return PointSet.from_points(a.dim, [p ^ x for p in set_points(a)])


def set_map_linear(a: PointSet, rows: Sequence[int]) -> PointSet:
    """Image under the linear map whose i-th output bit is <rows[i], x>."""
    if len(rows) != a.dim.n:
        raise ValueError("need one row per output bit")
    return PointSet.from_points(
        a.dim, [sum(parity(r, p) << i for i, r in enumerate(rows))
                for p in set_points(a)])


def random_invertible(rng: np.random.Generator, n: int) -> List[int]:
    """Rows of a random invertible n x n matrix over F2 (rejection sampled)."""
    while True:
        rows = [int(rng.integers(1, 1 << n)) for _ in range(n)]
        if span_of(rows).dim == n:
            return rows


def reference_annihilator_basis(v: DualSubspace, n: int) -> List[int]:
    """Annihilator basis by a loop over the bits of every row: one vector
    per non-pivot coordinate b, in increasing b, e_b plus the pivot of
    every row with bit b set."""
    basis = v.basis
    if basis and max(basis) >> n:
        raise ValueError("basis mask exceeds the group dimension")
    cols = [1 << b for b in range(n)]
    for r in basis:
        pivot = r & -r
        rest = r ^ pivot
        while rest:
            bit = rest & -rest
            cols[bit.bit_length() - 1] |= pivot
            rest ^= bit
        cols[pivot.bit_length() - 1] = 0
    return [c for c in cols if c]


def _subsets(mask: int) -> List[int]:
    out = [0]
    s = mask
    while s:
        low = s & -s
        out += [x | low for x in out]
        s ^= low
    return out


def reference_all_subspaces(n: int) -> Iterator[DualSubspace]:
    """Every subspace by RREF: for each pivot set, itertools.product over
    each row's subsets of its free bits (the non-pivots above its pivot)."""
    for d in range(n + 1):
        for pivots in combinations(range(n), d):
            pivot_mask = sum(1 << p for p in pivots)
            choices = []
            for p in pivots:
                free = 0
                for b in range(p + 1, n):
                    if not (pivot_mask >> b) & 1:
                        free |= 1 << b
                choices.append([(1 << p) | s for s in _subsets(free)])
            for rows in product(*choices):
                yield DualSubspace(rows)


def coset_index_table(v: DualSubspace, pts: np.ndarray) -> np.ndarray:
    """Coset label of each point x in pts: bit i is <basis[i], x>, as the
    package labelled one subspace's points before it kept only the
    stacked label_table and the iteration's own row-at-a-time labels."""
    return parity_labels(np.array(v.basis, dtype=np.int64), pts)


def reference_residual(a: PointSet, v: DualSubspace) -> Tuple[np.ndarray,
                                                              int]:
    """The residual table f_V = nums / 2^exp of one set, as (nums, exp),
    with every point of the group labelled under v's basis."""
    n = a.dim.n
    d = v.dim
    syn = coset_index_table(v, np.arange(a.dim.order, dtype=np.int64))
    counts = np.bincount(syn[a.bool_mask()], minlength=1 << d)
    nums = (a.bool_mask().astype(np.int64) << (n - d)) - counts[syn]
    return nums, n - d


residual = reference_residual


def reference_inverse_fwht(nums, exp: int) -> Tuple[np.ndarray, int]:
    """(F, exp): f = F / 2^exp is the table with f(x) = sum_g hat(f)(g)
    (-1)^<g,x> (no 2^-n factor) for hat(f) = nums / 2^exp, exactly."""
    (out,) = brute_wht_rows(np.reshape(nums, (1, -1)))
    return np.array(out, dtype=np.int64), exp


def reference_beckner(f, lambdas: Sequence[int],
                      eta: float) -> Tuple[float, float]:
    """The Beckner check as it was first: it built p_eta from (lambdas,
    eta) itself.  f is a (nums, exp) pair."""
    n = len(f[0]).bit_length() - 1
    p = riesz_product(n, lambdas, dyadic_from_fraction(Fraction(eta)))
    return _smoothed_l2(f, p), lp_norm(f, 1.0 + eta * eta)


# -- per-trial verify ---------------------------------------------------

BECKNER_SLACK = 1e-9
ETAS = tuple(DyadicScalar(k, 2) for k in range(1, 5))


def random_point_set(rng: np.random.Generator, n: int) -> PointSet:
    mask = rng.integers(0, 2, size=1 << n)
    return PointSet.from_indicator(GroupDim(n), mask)


def random_table(rng: np.random.Generator, n: int, span: int = 8,
                 max_exp: int = 3) -> Tuple[np.ndarray, int]:
    """A table f = nums / 2^exp on F2^n, as (nums, exp)."""
    nums = rng.integers(-span, span + 1, size=1 << n, dtype=np.int64)
    return nums, int(rng.integers(0, max_exp + 1))


def random_subspace(rng: np.random.Generator, n: int,
                    max_dim: int | None = None) -> DualSubspace:
    if max_dim is None:
        max_dim = n
    k = int(rng.integers(0, max_dim + 1))
    return span_of(rng.integers(1, 1 << n, size=k).tolist())


def random_independent_chars(rng: np.random.Generator, n: int,
                             count: int) -> List[int]:
    v = DualSubspace.trivial()
    out: List[int] = []
    guard = 0
    while len(out) < count:
        g = int(rng.integers(1, 1 << n))
        w = subspace_extend(v, [g])
        if w.dim > v.dim:
            out.append(g)
            v = w
        guard += 1
        if guard > 64 * count + 64:
            raise RuntimeError("failed to sample independent characters")
    return out


def residual_l1(a: PointSet, v: DualSubspace) -> DyadicScalar:
    """||f_V||_1 of one residual table, directly and as 2 <chi_A, f_V>."""
    nums, exp = residual(a, v)
    direct = table_l1(nums, exp)
    doubled = DyadicScalar(2 * sum(nums[a.bool_mask()].tolist()),
                           exp + a.dim.n)
    if direct != doubled:
        raise ArithmeticError(
            "l1/inner-product identity violated: "
            f"{direct} != {doubled} (n={a.dim.n}, dim V={v.dim})"
        )
    return direct


def physical_lower_bound(alpha: DyadicScalar, order: int) -> DyadicScalar:
    """Exact 2 |V|^-1 {alpha |V|} (1 - {alpha |V|}) for |V| = order."""
    if order < 1 or order & (order - 1):
        raise ValueError("order must be a power of two")
    d = order.bit_length() - 1
    t = alpha.mul_pow2(d).frac()
    return (t * (ONE - t) * 2).mul_pow2(-d)


def riesz_product(dim, lambdas: Sequence[int],
                  eta: DyadicScalar) -> Tuple[np.ndarray, int]:
    """prod_i (1 + eta lambda_i) for independent characters lambda_i, as
    the table (nums, exp), by a fold of its factors."""
    d = GroupDim(dim) if isinstance(dim, int) else dim
    if abs(eta) > DyadicScalar(1):
        raise ValueError("|eta| must be at most 1")
    lambdas = tuple(int(x) for x in lambdas)
    if any(not 0 < x < d.order for x in lambdas):
        raise ValueError("characters must be nonzero masks in the group")
    if span_of(lambdas).dim < len(lambdas):
        raise DependentSet("characters are linearly dependent")
    pts = np.arange(d.order, dtype=np.int64)
    one = 1 << eta.exp
    _check_bound((one + abs(eta.num)) ** len(lambdas),
                 "Riesz product numerator")
    out = np.ones(d.order, dtype=np.int64)
    for lam in lambdas:
        odd = np.bitwise_count(pts & np.int64(lam)) & 1
        out *= np.where(odd, one - eta.num, one + eta.num)
    return out, len(lambdas) * eta.exp


def _smoothed_l2(f, p) -> float:
    """||f * p||_2 for tables f and p, from the exact square sum of the
    product of their spectra (Parseval), in Python ints."""
    (sf, ef), (sp, ep) = table_fwht(*f), table_fwht(*p)
    square = sum((int(a) * int(b)) ** 2 for a, b in zip(sf, sp))
    return math.sqrt(float(DyadicScalar(square, 2 * (ef + ep)).as_fraction()))


def lp_norm(f, p: float) -> float:
    """Float L^p mean norm of one table f = (nums, exp)."""
    if p < 1:
        raise ValueError("lp_norm requires p >= 1")
    nums, exp = f
    if exp <= _LP_MAX_EXP:
        vals = np.abs(nums.astype(np.float64)) * 2.0 ** -exp
    else:
        vals = np.array([abs(float(Fraction(int(v), 1 << exp)))
                         for v in nums.flat], dtype=np.float64)
    return float(np.mean(vals ** p) ** (1.0 / p))


def beckner_verify(f, p, eta: DyadicScalar) -> Tuple[float, float]:
    """(||f * p||_2, ||f||_{1+eta^2}) for one table f and the Riesz product
    p = p_eta, both (nums, exp) pairs."""
    if len(p[0]) != len(f[0]):
        raise ValueError("f and the Riesz product live on different groups")
    x = float(eta)
    return _smoothed_l2(f, p), lp_norm(f, 1.0 + x * x)


def trial_ta(seed: int, i: int):
    n, ind, chars = draw_set(TrialStream(seed, i))
    a = PointSet.from_indicator(GroupDim(n), ind)
    v = span_of(chars)
    got = residual_l1(a, v)
    closed = stacked_l1_and_floor(a, v)[0]
    if got != closed:
        return (f"residual_l1 {got} != coset closed form {closed} "
                f"(n={n}, |A|={a.size}, dimV={v.dim})")
    return None


def trial_lem1(seed: int, i: int):
    n, ind, chars = draw_set(TrialStream(seed, i))
    a = PointSet.from_indicator(GroupDim(n), ind)
    v = span_of(chars)
    got = residual_l1(a, v)
    floor = physical_lower_bound(a.density(), v.order)
    if got < floor:
        return (f"||f_V||_1 = {got} below the floor {floor} "
                f"(n={n}, |A|={a.size}, dimV={v.dim})")
    return None


def trial_beckner(seed: int, i: int):
    n, nums, exp, lambdas, eta_idx = draw_beckner(TrialStream(seed, i))
    f = (np.array(nums, dtype=np.int64), exp)
    eta = ETAS[eta_idx]
    p = riesz_product(n, lambdas, eta)
    mass = table_l1(*p)
    if mass != DyadicScalar(1):
        return f"Riesz product mass {mass} != 1 (n={n}, eta={float(eta)})"
    lhs, rhs = beckner_verify(f, p, eta)
    if lhs > rhs * (1.0 + BECKNER_SLACK):
        return (f"smoothing bound violated: {lhs!r} > {rhs!r} "
                f"(n={n}, eta={float(eta)}, k={len(lambdas)})")
    return None


def frac_quadratic_gap(deltas) -> Tuple[Fraction, Fraction]:
    """(sum(d - d^2), g(1 - g)) for one list of deltas, each read by
    Fraction, over their least common denominator L in Python ints: d_i =
    a_i / L, so sum(d - d^2) = (L sum a - sum a^2) / L^2 and g = (sum a
    mod L) / L."""
    ds = [Fraction(d) for d in deltas]
    for d in ds:
        if not 0 <= d <= 1:
            raise ValueError(f"delta {d} outside [0, 1]")
    lcd = math.lcm(*(d.denominator for d in ds))
    a = [d.numerator * (lcd // d.denominator) for d in ds]
    total = sum(a)
    g = total % lcd
    return (Fraction(lcd * total - sum(x * x for x in a), lcd * lcd),
            Fraction(g * (lcd - g), lcd * lcd))


def trial_techlem(seed: int, i: int):
    deltas = [Fraction(num, den)
              for num, den in zip(*draw_techlem(TrialStream(seed, i)))]
    lhs, rhs = frac_quadratic_gap(deltas)
    if lhs < rhs:
        return f"sum(d - d^2) = {lhs} < {rhs} = g(1-g) for deltas {deltas}"
    return None


def stack_rows(sets: Sequence[PointSet], subspaces: Sequence[DualSubspace]):
    """(ind, chars) for the batched residual: the sets' indicators as a
    (T, 2^n) int8 stack and each subspace's basis as a row of a (T, n)
    int64 array, padded with zeros."""
    n = sets[0].dim.n
    ind = np.stack([a.bool_mask().astype(np.int8) for a in sets])
    chars = np.zeros((len(sets), n), dtype=np.int64)
    for row, v in enumerate(subspaces):
        chars[row, :v.dim] = v.basis
    return ind, chars


def stacked_l1_and_floor(a: PointSet, v: DualSubspace):
    """(||f_V||_1, Lemma 1's floor) of one set and subspace by the
    package's stacked forms."""
    nums, exps, dims = row_l1(*stack_rows([a], [v]))
    assert dims.tolist() == [v.dim]
    floor, floor_exp = row_floors([a.size], a.dim.n, [v.dim])
    return (DyadicScalar(int(nums[0]), int(exps[0])),
            DyadicScalar(int(floor[0]), int(floor_exp[0])))


def chang_span(spec, threshold: DyadicScalar) -> DualSubspace:
    """Span of one spectrum's large spectrum {g : |hat(f)(g)| >=
    threshold}, grown by subspace_extend; spec is a (nums, exp) pair."""
    if threshold.num <= 0:
        raise ValueError("threshold must be positive")
    nums, exp = spec
    # |num| / 2^exp >= threshold  <=>  |num| >= cut, for integer num.
    cut = -((-threshold.num << exp) >> threshold.exp)
    # numpy >= 2 compares int64 with an out-of-range Python int exactly.
    return subspace_extend(DualSubspace.trivial(),
                           np.flatnonzero(np.abs(nums) >= cut))


def trial_chang(seed: int, i: int):
    n, nums, exp, j = draw_chang(TrialStream(seed, i))
    f = (np.array(nums, dtype=np.int64), exp)
    base = table_l1(*f)
    if base.num == 0:
        return None
    eps = DyadicScalar(1, j)
    threshold = base * eps
    w = chang_span(table_fwht(*f), threshold)
    bound = chang_cardinality_bound(base, table_l2_sq(*f), eps.as_fraction())
    if w.dim > bound:
        return (f"span dimension {w.dim} above the Chang bound {bound!r} "
                f"(n={n}, eps={eps})")
    return None


REFERENCE_TRIALS = {"tA": trial_ta, "lem1": trial_lem1,
                    "techlem": trial_techlem, "beckner": trial_beckner,
                    "chang": trial_chang}


# -- the verify stream, in Python ints ------------------------------------

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def stream_mix(z: int) -> int:
    """The SplitMix64 finaliser."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK64
    return z ^ z >> 31


def stream_key(seed: int) -> int:
    """The seed's limb count, then each of its 64-bit limbs, low first,
    folded by stream_mix."""
    limbs = [seed & MASK64]
    while seed >> 64 * len(limbs):
        limbs.append(seed >> 64 * len(limbs) & MASK64)
    key = stream_mix(len(limbs) * GAMMA & MASK64)
    for limb in limbs:
        key = stream_mix(key ^ limb)
    return key


def stream_word(seed: int, i: int, k: int) -> int:
    """Word k of trial i of the seed."""
    base = stream_mix(stream_key(seed) ^ i * GAMMA & MASK64)
    return stream_mix(base + (k + 1) * GAMMA & MASK64)


def mulhi(word: int, r: int) -> int:
    """A draw in [0, r): the high 64 bits of word * r."""
    return word * r >> 64


class TrialStream:
    """Trial i's words, read in order: SplitMix64 stepped from the trial's
    base, each word adding G to the state and mixing it."""

    def __init__(self, seed: int, i: int):
        self.state = stream_mix(stream_key(seed) ^ i * GAMMA & MASK64)

    def word(self) -> int:
        self.state = self.state + GAMMA & MASK64
        return stream_mix(self.state)

    def random_raw(self, count: int) -> List[int]:
        """The next count words."""
        return [self.word() for _ in range(count)]

    def below(self, r: int) -> int:
        return mulhi(self.word(), r)

    def bits(self, size: int) -> List[int]:
        """size bits, 64 a word, low bit first."""
        out: List[int] = []
        while len(out) < size:
            w = self.word()
            out += [w >> b & 1 for b in range(64)]
        return out[:size]


def draw_set(s: TrialStream) -> Tuple[int, List[int], List[int]]:
    """A tA or lem1 trial's (n, A's indicator, V's k characters)."""
    n = 2 + s.below(11)
    k = s.below(n + 1)
    chars = [1 + s.below((1 << n) - 1) for _ in range(n)]
    return n, s.bits(1 << n), chars[:k]


def draw_techlem(s: TrialStream) -> Tuple[List[int], List[int]]:
    """A techlem trial's (nums, dens)."""
    m = 1 + s.below(8)
    nums, dens = [], []
    for _ in range(8):
        den = 1 + s.below(64)
        num = s.below(den + 1)
        if len(dens) < m:
            nums.append(num)
            dens.append(den)
    return nums, dens


def draw_chang(s: TrialStream) -> Tuple[int, List[int], int, int]:
    """A chang trial's (n, numerators, exp, j)."""
    n = 2 + s.below(9)
    exp, j = s.below(4), s.below(5)
    return n, [s.below(17) - 8 for _ in range(1 << n)], exp, j


def draw_beckner(s: TrialStream) -> Tuple[int, List[int], int, List[int],
                                          int]:
    """A beckner trial's (n, numerators, exp, its k characters, eta
    index).  Character j is a nonzero point of the positions that are no
    earlier character's pivot (r's bits, low first), plus the XOR of the
    earlier characters that s picks; its lowest set bit is its pivot."""
    n = 2 + s.below(9)
    exp = s.below(4)
    k = s.below(min(n, 4) + 1)
    eta_idx = s.below(4)
    pivots: List[int] = []
    lambdas: List[int] = []
    for j in range(min(n, 4)):
        r = 1 + s.below((1 << (n - j)) - 1)
        pick = s.below(1 << j)
        free = [b for b in range(n) if b not in pivots]
        c = sum((r >> t & 1) << b for t, b in enumerate(free))
        pivots.append((c & -c).bit_length() - 1)
        for t, lam in enumerate(lambdas):
            if pick >> t & 1:
                c ^= lam
        lambdas.append(c)
    nums = [s.below(17) - 8 for _ in range(1 << n)]
    return n, nums, exp, lambdas[:k], eta_idx
