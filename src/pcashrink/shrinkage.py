"""Distance distortion of truncated PCA transforms.

Three facts about the truncated transform are made measurable here: it
collapses distinct points (collision_witness constructs an explicit
pair), it never stretches a pairwise distance, and the amount a pair
shrinks never exceeds the summed reconstruction errors of its two
endpoints. The pair engine below evaluates these quantities for every
sample pair, or for a seeded subsample when the pair count explodes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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

# most pairs one engine call may visit: a PairTable of that many would hold
# ~1 GB at 48 B a pair (a summary keeps 8 B a pair, its shrinkage column)
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
    _violation_counts. The median partitions ``d`` in place once, at
    h = size // 2: it is d[h] for an odd size and (max(d[:h]) + d[h]) / 2
    for an even one, the bits of np.median, which partitions at three
    places; like np.median it is NaN when ``d`` holds a NaN."""
    mean, top = float(np.mean(d)), float(np.max(d))
    h = d.size // 2
    d.partition(h)
    median = top if np.isnan(top) else float(d[h] if d.size % 2 else (d[:h].max() + d[h]) / 2)
    negative, over, violating = (int(c) for c in counts)
    return ShrinkageSummary(
        m=m,
        pair_count=int(d.size),
        sampled=sampled,
        mean=mean,
        median=median,
        max=top,
        negative_count=negative,
        bound_violations=over,
        violating_pairs=violating,
    )


def collision_witness(model, x, m):
    """A point distinct from ``x`` with the same truncated image.

    The witness moves ``x`` along the first discarded eigenvector, which
    the truncated transform annihilates, by s = 2^max(0, e - 20) where e
    is the exponent ``frexp`` gives max|x|: exactly one unit while
    max|x| < 2^20, and beyond that a step that rounding against x cannot
    absorb. At full rank no such direction exists and
    FullRankInjectiveError is raised.
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
    return vec + np.ldexp(model.components[:, m], max(0, _max_exponent(vec) - 20))


def _max_exponent(v):
    """The binary exponent e of max|v|, which lies in [2^(e-1), 2^e)."""
    return int(np.frexp(np.max(np.abs(v)))[1])


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
    share: returns the data matrix, the checked levels, the _Pairs and
    the full transform."""
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
    return X, ms, _choose_pairs(n_samples, pair_sample, seed), Y


def _level_operands(Y, m):
    """What a level's pairs read of the full transform ``Y``: the kernel
    operand, the first m coordinates copied once to contiguous rows (the
    kernel's differences land in the same fresh array with the same bits
    as from the strided view, only faster), and each point's
    reconstruction error at level m, the norm of its discarded
    coordinates (the basis is orthonormal)."""
    tail = Y[:, m:]
    return np.ascontiguousarray(Y[:, :m]), np.sqrt(np.einsum("ij,ij->i", tail, tail))


def _steps(pairs, X, Y, m, d_orig=None, indices=False):
    """The step loop of level m, the one place that pair quantities are
    computed: one PairTable block per engine step, in pair-column order.
    A block's original distances come from ``X``, or are its slice of a
    ``d_orig`` column that several levels share. Its index columns are
    built only when ``indices`` is set, and are None otherwise."""
    Z, point_error = _level_operands(Y, m)
    ids = np.arange(pairs.n_samples, dtype=np.int64) if indices else None
    for step in pairs.steps():
        lo, hi, ends = step
        d_o = _distances(X, step) if d_orig is None else d_orig[lo:hi]
        d_t = _distances(Z, step)
        i = j = None
        if indices:
            # every pair joins i < j, so i is the smaller of its two indices
            i = _pairwise(np.minimum, ids, ends, np.empty(hi - lo, dtype=np.int64))
            j = _pairwise(np.maximum, ids, ends, np.empty(hi - lo, dtype=np.int64))
        yield PairTable(m=m, sampled=pairs.sampled, i=i, j=j, dist_original=d_o,
                        dist_truncated=d_t, shrinkage=d_o - d_t,
                        recon_error=_pairwise(np.add, point_error, ends, np.empty(hi - lo)))


class _Summary:
    """Folds a level's blocks, in pair order, into its ShrinkageSummary at
    violation tolerance ``tol``. It keeps one pair column, the shrinkages
    the median needs, and sums the violation counts a block at a time;
    the summary is taken when the last pair is folded in."""

    def __init__(self, m, pairs, tol):
        self.m, self.sampled, self.tol = m, pairs.sampled, tol
        self.d = np.empty(pairs.count)
        self.filled, self.counts, self.result = 0, 0, None

    def add(self, block):
        """Fold ``block`` in and return it."""
        lo, self.filled = self.filled, self.filled + block.shrinkage.size
        self.d[lo:self.filled] = block.shrinkage
        self.counts = self.counts + _violation_counts(block.shrinkage, block.recon_error, self.tol)
        if self.filled == self.d.size:
            self.result = _summarize(self.m, self.sampled, self.d, self.counts)
        return block

    def summary(self):
        if self.result is None:
            raise RuntimeError("%d of %d pairs folded; exhaust the blocks first"
                               % (self.filled, self.d.size))
        return self.result


def shrinkage_summaries(model, data, ms, *, pair_sample=None, seed=0,
                        violation_tol=VIOLATION_TOL):
    """An iterator of one ShrinkageSummary per retained dimension in
    ``ms``, equal to ``shrinkage_table(...).summary(violation_tol)`` at
    each level, without building the tables.

    The call checks every argument (see shrinkage_table and
    check_violation_tol), and computes the pair list and the full
    transform once. With more than one level it also computes the
    original distances once, as a column the levels share. Each level is
    summarized when the iterator reaches it and holds one pair column
    besides, its shrinkages.
    """
    check_violation_tol(violation_tol)
    X, ms, pairs, Y = _pair_pass(model, data, ms, pair_sample, seed)
    d_orig = None
    if len(ms) > 1:
        d_orig = np.empty(pairs.count)
        for step in pairs.steps():
            d_orig[step[0]:step[1]] = _distances(X, step)

    def level(m):
        fold = _Summary(m, pairs, violation_tol)
        for block in _steps(pairs, X, Y, m, d_orig):
            fold.add(block)
        return fold.summary()

    return map(level, ms)


def shrinkage_blocks(model, data, m=None, *, pair_sample=None, seed=0,
                     violation_tol=VIOLATION_TOL):
    """Level m's pairs a block at a time, for a caller that renders each
    pair: returns ``(blocks, summary)``.

    The call checks every argument first, as shrinkage_summaries does.
    ``blocks`` iterates PairTable blocks with index columns, one per
    engine step; together they hold the rows of shrinkage_table, in its
    order. Once ``blocks`` is exhausted, ``summary()`` returns their
    ShrinkageSummary at ``violation_tol``, with the bits of
    shrinkage_summaries. No pair column but the shrinkages is kept.
    """
    check_violation_tol(violation_tol)
    X, (m,), pairs, Y = _pair_pass(model, data, [m], pair_sample, seed)
    fold = _Summary(m, pairs, violation_tol)
    return map(fold.add, _steps(pairs, X, Y, m, indices=True)), fold.summary


def shrinkage_table(model, data, m=None, *, pair_sample=None, seed=0, threads=1):
    """Per-pair distances before and after truncation at level m, as one
    PairTable filled from the engine's blocks.

    ``pair_sample`` caps how many pairs are visited: None means
    PAIR_SAMPLE_DEFAULT, 0 forces all pairs, and a positive value
    requests that many sampled pairs; a request of at least the pair
    count visits all pairs unsampled. A negative count or a negative
    ``seed`` raises ValueError, whether or not pairs are sampled. The
    engine runs in the calling thread. ``threads`` has no effect; it
    stays only because the benchmark's thread baseline
    (perfbench/worker.py) passes threads=1 and threads=2.
    """
    X, (m,), pairs, Y = _pair_pass(model, data, [m], pair_sample, seed)
    columns = {f.name: np.empty(pairs.count, dtype=np.int64 if f.name in ("i", "j") else float)
               for f in fields(PairTable)[2:]}
    lo = 0
    for block in _steps(pairs, X, Y, m, indices=True):
        hi = lo + block.i.size
        for name, column in columns.items():
            column[lo:hi] = getattr(block, name)
        lo = hi
    return PairTable(m=m, sampled=pairs.sampled, **columns)


def pearson(xs, ys):
    """Pearson correlation coefficient of two equal-length series.

    Raises ZeroVarianceError when either series is constant (including
    the single-observation case), DimMismatchError when the lengths differ.
    Each series is first scaled by the exact power of two that brings its
    largest magnitude into [0.5, 1), so the squares neither overflow nor
    underflow at any data scale, and a series scaled by 2^k gives the
    same bits. The returned value is clipped to [-1, 1] to absorb roundoff.
    """
    x, y = (np.ldexp(v, -_max_exponent(v)) for v in (as_vector(xs, "xs"), as_vector(ys, "ys")))
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
