"""Distance distortion of truncated PCA transforms.

Three facts about the truncated transform are made measurable here: it
collapses distinct points (collision_witness constructs an explicit
pair), it never stretches a pairwise distance, and the amount a pair
shrinks never exceeds the summed reconstruction errors of its two
endpoints. The pair engine below evaluates these quantities for every
sample pair, or for a seeded subsample when the pair count explodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    FullRankInjectiveError,
    InsufficientPairsError,
    TooManyPairsError,
    ZeroVarianceError,
)
from .matrix import as_data_matrix, as_vector
from .pca import check_m, transform

# pairs visited when no count is requested: all pairs while there are at
# most this many (N <= 2000 samples), else a seeded uniform subsample
PAIR_SAMPLE_DEFAULT = 2_000_000

# most pairs one table may hold: ~1 GB of per-pair arrays at 48 B a pair
PAIR_BUDGET = 20_000_000

VIOLATION_TOL = 1e-9

# pairs per engine step (all-pairs steps take whole rows, so a longer row is
# a step of its own); small steps keep the temporaries to a few MB at no
# cost in speed
_CHUNK = 4096


@dataclass(frozen=True)
class ShrinkageSummary:
    """Aggregate shrinkage statistics over the visited pairs;
    ``violating_pairs`` counts each negative or over-bound pair once."""

    m: int
    pair_count: int
    sampled: bool
    mean: float
    median: float
    max: float
    negative_count: int
    bound_violations: int
    violating_pairs: int


@dataclass(frozen=True)
class PairTable:
    """Columnar per-pair results of the pair engine at level m; pair k
    joins samples i[k] < j[k]. ``shrinkage`` is dist_original -
    dist_truncated; ``recon_error``, the sum of the two endpoints' own
    reconstruction distances (exactly 0 at full rank), bounds it above."""

    m: int
    sampled: bool
    i: np.ndarray
    j: np.ndarray
    dist_original: np.ndarray
    dist_truncated: np.ndarray
    shrinkage: np.ndarray
    recon_error: np.ndarray

    def summary(self, violation_tol=VIOLATION_TOL):
        """Aggregate statistics; a pair violates the guarantees when its
        shrinkage is below -violation_tol or above its bound plus
        violation_tol, which at full rank (bound 0) is the isometry check.
        See check_violation_tol for the tolerances refused. The table's
        columns are left as they are."""
        check_violation_tol(violation_tol)
        counts = _violation_counts(self.shrinkage, self.recon_error, violation_tol)
        return _summarize(self.m, self.sampled, self.shrinkage.copy(), counts)


def _violation_counts(d, bound, tol):
    """Negative, over-bound and violating (either, counted once) pairs
    among shrinkages ``d`` with bounds ``bound``: the guarantee rule."""
    negative = d < -tol
    over = d > bound + tol
    return np.array([np.count_nonzero(negative), np.count_nonzero(over),
                     np.count_nonzero(negative | over)])


def _summarize(m, sampled, d, counts):
    """ShrinkageSummary of the shrinkage column ``d`` and its summed
    _violation_counts; the median reorders ``d`` in place."""
    mean, top = float(np.mean(d)), float(np.max(d))
    negative, over, violating = (int(c) for c in counts)
    return ShrinkageSummary(
        m=m,
        pair_count=int(d.size),
        sampled=sampled,
        mean=mean,
        median=float(np.median(d, overwrite_input=True)),
        max=top,
        negative_count=negative,
        bound_violations=over,
        violating_pairs=violating,
    )


def collision_witness(model, x, m):
    """A point distinct from ``x`` with the same truncated image.

    The witness moves ``x`` exactly one unit along the first discarded
    eigenvector, which the truncated transform annihilates. At full rank
    no such direction exists and FullRankInjectiveError is raised.
    """
    m = check_m(model, m)
    if m == model.n_features:
        raise FullRankInjectiveError(
            "the full-rank transform is injective; no collision exists"
        )
    vec = as_vector(x, "x")
    if vec.shape[0] != model.n_features:
        raise DimMismatchError(
            "expected %d features, got %d" % (model.n_features, vec.shape[0])
        )
    return vec + model.components[:, m]


def check_seed(seed):
    """Refuse a negative seed by name; numpy's own refusal names no option."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer, got %d" % seed)


def check_violation_tol(tol):
    """Refuse a NaN or infinite violation tolerance, which would turn the
    guarantee check off (or flag every pair)."""
    if not np.isfinite(tol):
        raise ValueError("violation tolerance must be finite, got %r" % (tol,))


class _Pairs:
    """The pairs one engine call visits, in pair-column order: all pairs
    of ``n_samples`` rows in triu_indices order when ``ij`` is None, else
    the sampled index arrays ``ij = (i, j)`` with i < j."""

    def __init__(self, n_samples, ij):
        self.n_samples = n_samples
        self.ij = ij
        self.sampled = ij is not None
        self.count = ij[0].size if self.sampled else n_samples * (n_samples - 1) // 2

    def indices(self):
        """The index columns (i, j) of a PairTable."""
        if self.sampled:
            return self.ij
        return tuple(v.astype(np.int64, copy=False) for v in np.triu_indices(self.n_samples, k=1))

    def steps(self):
        """The pairs in steps of about _CHUNK, as (lo, hi, ends): pairs
        lo..hi-1 of the pair column join rows a and b of each (a, b) in
        ``ends``, in order. All pairs go in whole rows, row r's pairs
        (r, r+1..N-1) being (r, slice(r + 1, None)), with no index array;
        sampled pairs are gathered by their index slices."""
        if self.sampled:
            i_idx, j_idx = self.ij
            for lo in range(0, i_idx.size, _CHUNK):
                hi = min(lo + _CHUNK, i_idx.size)
                yield lo, hi, [(i_idx[lo:hi], j_idx[lo:hi])]
            return
        n = self.n_samples
        lo = hi = 0
        ends = []
        for r in range(n - 1):
            if ends and hi - lo + n - 1 - r > _CHUNK:
                yield lo, hi, ends
                lo, ends = hi, []
            ends.append((r, slice(r + 1, None)))
            hi += n - 1 - r
        yield lo, hi, ends


def _choose_pairs(n_samples, pair_sample, seed):
    """The _Pairs to visit: all pairs or a seeded subsample.

    A ``pair_sample`` of 0, or of at least the pair count, means all
    pairs. Sampling draws pairs uniformly with replacement and is
    deterministic for a given (seed, n_samples); self-pairs are redrawn.
    A pair count above PAIR_BUDGET raises TooManyPairsError before
    anything is allocated.
    """
    total = n_samples * (n_samples - 1) // 2
    sampled = 0 < pair_sample < total
    count = pair_sample if sampled else total
    if count > PAIR_BUDGET:
        raise TooManyPairsError(
            "%d pairs exceed the budget of %d; request fewer sampled pairs"
            % (count, PAIR_BUDGET)
        )
    if not sampled:
        return _Pairs(n_samples, None)
    rng = np.random.default_rng([int(seed), n_samples, 0x70A1])
    a = rng.integers(0, n_samples, size=pair_sample, dtype=np.int64)
    b = rng.integers(0, n_samples, size=pair_sample, dtype=np.int64)
    clash = a == b
    while clash.any():
        b[clash] = rng.integers(0, n_samples, size=int(np.count_nonzero(clash)), dtype=np.int64)
        clash = a == b
    return _Pairs(n_samples, (np.minimum(a, b), np.maximum(a, b)))


def _pairwise(ufunc, v, ends, out):
    """``ufunc(v[b], v[a])`` for the pairs of one step, written to ``out``."""
    k = 0
    for a, b in ends:
        vb = v[b]
        ufunc(vb, v[a], out=out[k:k + len(vb)])
        k += len(vb)
    return out


def _distances(Z, step):
    """Distances between the rows of ``Z`` that one step's pairs join: the
    pair kernel of every engine path."""
    lo, hi, ends = step
    diff = _pairwise(np.subtract, Z, ends, np.empty((hi - lo, Z.shape[1])))
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _pair_pass(model, data, ms, pair_sample, seed):
    """Check every argument of an engine call and do the work its levels
    share: returns the checked levels, the _Pairs, the full transform and
    the read-only original distances."""
    X = as_data_matrix(data)
    Y = transform(model, X)
    n_samples = X.shape[0]
    if n_samples < 2:
        raise InsufficientPairsError("need at least two samples to form a pair")
    ms = [check_m(model, m) for m in ms]

    if pair_sample is None:
        pair_sample = PAIR_SAMPLE_DEFAULT
    elif pair_sample < 0:
        raise ValueError("pair sample must be 0 (all pairs) or positive, got %d" % pair_sample)
    check_seed(seed)
    pairs = _choose_pairs(n_samples, pair_sample, seed)
    d_orig = np.empty(pairs.count)
    for step in pairs.steps():
        d_orig[step[0]:step[1]] = _distances(X, step)
    d_orig.setflags(write=False)
    return ms, pairs, Y, d_orig


def _point_errors(Y, m):
    """Each point's reconstruction error at level m: the norm of its
    discarded coordinates (the basis is orthonormal)."""
    tail = Y[:, m:]
    return np.sqrt(np.einsum("ij,ij->i", tail, tail))


def shrinkage_tables(model, data, ms, *, pair_sample=None, seed=0):
    """An iterator of one PairTable per retained dimension in ``ms``.

    The call checks every argument and computes the pair list, the
    original distances and the full transform once. Each table is built
    when the iterator reaches it and shares the read-only ``i``, ``j``
    and ``dist_original``; a caller that drops it before taking the next
    holds one level's arrays at a time. ``pair_sample`` caps how many
    pairs are visited: None means PAIR_SAMPLE_DEFAULT, 0 forces all pairs,
    and a positive value requests that many sampled pairs; a request of
    at least the pair count visits all pairs unsampled. A negative count
    or a negative ``seed`` raises ValueError, whether or not pairs are
    sampled. The engine runs in the calling thread.
    """
    ms, pairs, Y, d_orig = _pair_pass(model, data, ms, pair_sample, seed)
    i_idx, j_idx = pairs.indices()
    i_idx.setflags(write=False)
    j_idx.setflags(write=False)

    def level(m):
        point_error = _point_errors(Y, m)
        d_trunc = np.empty(pairs.count)
        recon = np.empty(pairs.count)
        for step in pairs.steps():
            lo, hi, ends = step
            d_trunc[lo:hi] = _distances(Y[:, :m], step)
            _pairwise(np.add, point_error, ends, recon[lo:hi])
        return PairTable(
            m=m,
            sampled=pairs.sampled,
            i=i_idx,
            j=j_idx,
            dist_original=d_orig,
            dist_truncated=d_trunc,
            shrinkage=d_orig - d_trunc,
            recon_error=recon,
        )

    return map(level, ms)


def shrinkage_summaries(model, data, ms, *, pair_sample=None, seed=0):
    """An iterator of one ShrinkageSummary per retained dimension in
    ``ms``, equal to ``shrinkage_tables(...)`` tables' ``summary()`` at
    VIOLATION_TOL, without building the tables.

    Arguments are checked and shared work is done as in
    shrinkage_tables. Each level then holds one pair column besides the
    shared original distances: the truncated distances, turned into
    shrinkages in place a step at a time while each step's pairs are
    counted against their bounds.
    """
    ms, pairs, Y, d_orig = _pair_pass(model, data, ms, pair_sample, seed)

    def level(m):
        point_error = _point_errors(Y, m)
        d = np.empty(pairs.count)
        counts = 0
        for step in pairs.steps():
            lo, hi, ends = step
            block = np.subtract(d_orig[lo:hi], _distances(Y[:, :m], step), out=d[lo:hi])
            bound = _pairwise(np.add, point_error, ends, np.empty(hi - lo))
            counts = counts + _violation_counts(block, bound, VIOLATION_TOL)
        return _summarize(m, pairs.sampled, d, counts)

    return map(level, ms)


def shrinkage_table(model, data, m=None, *, pair_sample=None, seed=0, threads=1):
    """Per-pair distances before and after truncation at level m; see
    shrinkage_tables for the pair-sampling rule. ``threads`` has no
    effect; it stays only because the benchmark's thread baseline
    (perfbench/worker.py) passes threads=1 and threads=2."""
    return next(shrinkage_tables(model, data, [m], pair_sample=pair_sample, seed=seed))


def pearson(xs, ys):
    """Pearson correlation coefficient of two equal-length series.

    Raises ZeroVarianceError when either series is constant (including
    the single-observation case), DimMismatchError when the lengths differ.
    The returned value is clipped to [-1, 1] to absorb roundoff.
    """
    x = as_vector(xs, "xs")
    y = as_vector(ys, "ys")
    if x.shape[0] != y.shape[0]:
        raise DimMismatchError("length mismatch: %d vs %d" % (x.shape[0], y.shape[0]))
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.dot(dx, dx)))
    sy = float(np.sqrt(np.dot(dy, dy)))
    if sx == 0.0 or sy == 0.0:
        raise ZeroVarianceError("correlation is undefined for a constant series")
    r = float(np.dot(dx, dy)) / (sx * sy)
    return min(1.0, max(-1.0, r))


@dataclass(frozen=True)
class CorrelationSummary:
    """Pearson coefficients among sweep series; None marks a coefficient
    that is undefined because one of its series is constant."""

    r_eigsum_shrinkage: float | None
    r_eigsum_accuracy: float | None
    r_shrinkage_accuracy: float | None
    sample_count: int
