"""Distance distortion of truncated PCA transforms.

Three facts about the truncated transform are made measurable here: it
collapses distinct points (collision_witness constructs an explicit
pair), it never stretches a pairwise distance, and the amount a pair
shrinks never exceeds the summed reconstruction errors of its two
endpoints. The pair engine below evaluates these quantities for every
sample pair, or for a seeded subsample when the pair count explodes;
the seed, pair-count and tolerance checks its callers share sit beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimMismatchError,
    FullRankInjectiveError,
    InsufficientPairsError,
    TooManyPairsError,
)
from .matrix import as_data_matrix, as_vector, max_exponent
from .pca import check_m, transform

# pairs visited when no count is requested: all pairs while there are at
# most this many (N <= 2000 samples), else a seeded uniform subsample
PAIR_SAMPLE_DEFAULT = 2_000_000

# most pairs one engine call may visit: a PairTable of that many would hold
# ~1 GB at 48 B a pair (analyze keeps 8 B a pair, its shrinkages, and a sweep
# 16 B, the original distances and the running squared truncated distances)
PAIR_BUDGET = 20_000_000

# a pair's violation slack, as a fraction of its original distance
VIOLATION_TOL = 1e-9

# pairs per engine step (all-pairs steps take whole rows, so a longer row is
# a step of its own); small steps keep analyze's rendered blocks to a few MB
_CHUNK = 4096

# a sweep renders nothing, so its steps are this many times longer: a
# quarter of the per-step calls, for temporaries of a few MB
_SWEEP_STEPS = 4

# the median's bracket: every _STRIDE-th shrinkage by pair index is sampled,
# and the bracket's ends lie _MARGIN·√s places either side of the median of
# the s sampled values
_STRIDE = 64
_MARGIN = 4.0

# pairs per piece of the median's pass; the shrinkages a sweep re-derives
# for a piece are its only temporaries, so it stays small
_PASS_CHUNK = 1 << 15


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

    def summary(self):
        """Aggregate statistics, the table folded as one block at
        VIOLATION_TOL; the median reads the shrinkage column and leaves
        it as it is."""
        fold = _Summary(self.m, self.sampled, self.shrinkage.size, VIOLATION_TOL,
                        _slicer(self.shrinkage))
        fold.add(self)
        return fold.summary()


def collision_witness(model, x, m):
    """A point distinct from ``x`` with the same truncated image.

    The witness moves ``x`` along the first discarded eigenvector, which
    the truncated transform annihilates, by s = 2^max(0, e - 20) where e
    is ``max_exponent(x)``: exactly one unit while
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
    return vec + np.ldexp(model.components[:, m], max(0, max_exponent(vec) - 20))


def check_seed(seed):
    """Refuse a negative seed by name; numpy's own refusal names no option."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer, got %d" % seed)


def check_pair_sample(pair_sample):
    """Refuse a negative pair count; None (the default) and 0 pass."""
    if pair_sample is not None and pair_sample < 0:
        raise ValueError("pair sample must be 0 (all pairs) or positive, got %d" % pair_sample)


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

    def steps(self, scale=1):
        """The pairs in steps of about scale * _CHUNK, as (lo, hi, ends):
        pairs lo..hi-1 of the pair column join points a and b of each
        (a, b) in ``ends``, in order. All pairs go in whole rows, row r's
        pairs (r, r+1..N-1) being (slice(r, r + 1), slice(r + 1, None)),
        with no index array; sampled pairs are gathered by their index
        slices."""
        chunk = scale * _CHUNK
        if self.sampled:
            i_idx, j_idx = self.ij
            for lo in range(0, i_idx.size, chunk):
                hi = min(lo + chunk, i_idx.size)
                yield lo, hi, [(i_idx[lo:hi], j_idx[lo:hi])]
            return
        n = self.n_samples
        lo = hi = 0
        ends = []
        for r in range(n - 1):
            if ends and hi - lo + n - 1 - r > chunk:
                yield lo, hi, ends
                lo, ends = hi, []
            ends.append((slice(r, r + 1), slice(r + 1, None)))
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
    """``ufunc(v[..., b], v[..., a])`` for the pairs of one step, along the
    last axis of ``v``, written to ``out``."""
    k = 0
    for a, b in ends:
        vb = v[..., b]
        n = vb.shape[-1]
        ufunc(vb, v[..., a], out=out[..., k:k + n])
        k += n
    return out


def _extend(acc, Zt, step):
    """Add to ``acc``, squared distances of one step's pairs, the squared
    differences of each row of ``Zt`` in row order, in place: the pair
    kernel of every engine path. ``Zt`` is feature-major, one row a
    coordinate and one column a point, so a step's differences are laid
    out (coordinates, pairs) and each row is added whole. A distance is
    the square root of its squared coordinate differences added one
    coordinate at a time in column order, from zero: the sum the k-NN's
    running d² makes (experiments._knn_predict), with the same bits. The
    rows are added one by one because np.add.reduce may sum a short axis
    pairwise."""
    lo, hi, ends = step
    diff = _pairwise(np.subtract, Zt, ends, np.empty((Zt.shape[0], hi - lo)))
    np.multiply(diff, diff, out=diff)
    for square in diff:
        acc += square
    return acc


def _pair_pass(model, data, ms, pair_sample, seed):
    """Check every argument of an engine call and do the work its levels
    share: returns the data and the transform's first max(ms) columns,
    both feature-major, the checked levels, the _Pairs and each point's
    reconstruction error at each level, by m."""
    X = as_data_matrix(data)
    Y = transform(model, X)
    n_samples = X.shape[0]
    if n_samples < 2:
        raise InsufficientPairsError("need at least two samples to form a pair")
    ms = [check_m(model, m) for m in ms]

    check_pair_sample(pair_sample)
    check_seed(seed)
    pair_sample = PAIR_SAMPLE_DEFAULT if pair_sample is None else pair_sample
    pairs = _choose_pairs(n_samples, pair_sample, seed)
    # the norm of each point's discarded coordinates (the basis is orthonormal)
    errors = {m: np.sqrt(np.einsum("ij,ij->i", Y[:, m:], Y[:, m:])) for m in ms}

    def feature_major(Z):
        # all pairs read a coordinate's values in runs, fastest from a contiguous
        # copy; sampled pairs gather points, fastest from the rows as they are
        return Z.T if pairs.sampled else np.ascontiguousarray(Z.T)

    return feature_major(X), feature_major(Y[:, :max(ms)]), ms, pairs, errors


def _steps(pairs, Xt, Yt, m, error, *, d_orig=None, run=None, start=0, indices=False,
           scale=1):
    """The step loop of level m, the one place that pair quantities are
    computed: one PairTable block per engine step, in pair-column order.
    A block's original distances come from ``Xt``, or are its slice of a
    ``d_orig`` column that several levels share. Its squared truncated
    distances are the first m rows of ``Yt`` summed from zero, or, with a
    running column ``run`` that holds the sums of the first ``start``
    rows, that column extended in place by rows start..m-1; its bound
    adds the two points' ``error``. Its index columns are built only when
    ``indices`` is set, and are None otherwise. The steps are about
    ``scale`` * _CHUNK pairs long."""
    ids = np.arange(pairs.n_samples, dtype=np.int64) if indices else None
    for step in pairs.steps(scale):
        lo, hi, ends = step
        d_o = np.sqrt(_extend(np.zeros(hi - lo), Xt, step)) if d_orig is None else d_orig[lo:hi]
        acc = np.zeros(hi - lo) if run is None else run[lo:hi]
        d_t = np.sqrt(_extend(acc, Yt[start:m], step))
        i = j = None
        if indices:
            # every pair joins i < j, so i is the smaller of its two indices
            i = _pairwise(np.minimum, ids, ends, np.empty(hi - lo, dtype=np.int64))
            j = _pairwise(np.maximum, ids, ends, np.empty(hi - lo, dtype=np.int64))
        yield PairTable(m=m, sampled=pairs.sampled, i=i, j=j, dist_original=d_o,
                        dist_truncated=d_t, shrinkage=d_o - d_t,
                        recon_error=_pairwise(np.add, error, ends, np.empty(hi - lo)))


class _Summary:
    """Folds ``count`` pairs of level m, block by block in pair order,
    into their ShrinkageSummary at violation tolerance ``tol``: the one
    place that summaries are made. It keeps no pair column. As it goes it
    counts a block's negative, over-bound and violating (either, counted
    once) pairs, the guarantee rule, with a slack of ``tol`` times each
    pair's original distance; it keeps the running max and every
    _STRIDE-th shrinkage by pair index, a sample. When the last pair is
    folded in, one pass over ``source(lo, hi)``, the shrinkages of pairs
    lo..hi-1, takes the mean and the exact median (see _centre)."""

    def __init__(self, m, sampled, count, tol, source):
        self.m, self.sampled, self.count, self.tol, self.source = m, sampled, count, tol, source
        self.sample = np.empty(-(-count // _STRIDE))
        self.filled, self.counts, self.top, self.result = 0, np.zeros(3, np.int64), -np.inf, None

    def add(self, block):
        """Fold ``block`` in and return it."""
        d = block.shrinkage
        lo, self.filled = self.filled, self.filled + d.size
        # the sample holds the shrinkages of pairs 0, _STRIDE, 2 * _STRIDE, ...
        first = -lo % _STRIDE
        self.sample[(lo + first) // _STRIDE:-(-self.filled // _STRIDE)] = d[first::_STRIDE]
        self.top = np.maximum(self.top, d.max())
        slack = self.tol * block.dist_original
        negative = d < -slack
        over = d > block.recon_error + slack
        violating = np.count_nonzero(negative | over)
        if violating:
            self.counts += [np.count_nonzero(negative), np.count_nonzero(over), violating]
        if self.filled < self.count:
            return block
        top = float(self.top)
        # NaN like np.mean and np.median
        mean, median = (top, top) if np.isnan(top) else _centre(self.source, self.count,
                                                                self.sample)
        negative, over, violating = (int(c) for c in self.counts)
        self.result = ShrinkageSummary(
            m=self.m, pair_count=self.count, sampled=self.sampled, mean=mean, median=median,
            max=top, negative_count=negative, bound_violations=over, violating_pairs=violating)
        return block

    def summary(self):
        if self.result is None:
            raise RuntimeError("%d of %d pairs folded; exhaust the blocks first"
                               % (self.filled, self.count))
        return self.result


def _centre(source, count, sample):
    """The mean and the exact median of the ``count`` shrinkages that
    ``source(lo, hi)`` gives, without holding them: returns (mean, median).

    The sample's order statistics _MARGIN·√s places either side of its
    own median (s sampled values) bracket the median. One pass over the
    shrinkages, in pieces of _PASS_CHUNK pairs aligned to the pair index,
    sums each piece and gathers the values inside the bracket; the mean
    is the math.fsum of the piece sums over ``count``, whose bits do not
    depend on how the pairs were blocked. When the values below the
    bracket and those inside it reach past the median's ranks, the
    gathered values hold the median: one single-kth partition at h = count // 2 gives the element at h for an
    odd count and (the largest one below h + it) / 2 for an even one, the
    bits of np.median. Otherwise the pass is redone with the side that
    missed unbounded; only one side can miss, since the bracket's ends
    are values of the column."""
    h = count // 2
    last = sample.size - 1
    width = int(_MARGIN * math.sqrt(sample.size))
    upper = min(last, last // 2 + width)
    lower = max(0, last // 2 - width)
    sample.partition(upper)
    high = sample[upper]
    sample[:upper + 1].partition(lower)
    low = sample[lower]
    below, inside, sums = _gather(source, count, low, high)
    if below > h - 1 + count % 2:
        below, inside, _ = _gather(source, count, -np.inf, high)
    elif below + inside.size <= h:
        below, inside, _ = _gather(source, count, low, np.inf)
    k = h - below
    inside.partition(k)
    median = inside[k] if count % 2 else (inside[:k].max() + inside[k]) / 2
    return math.fsum(sums) / count, float(median)


def _slicer(column):
    """The source of a column's pairs lo..hi-1 for _Summary."""
    return lambda lo, hi: column[lo:hi]


def _gather(source, count, low, high):
    """One pass over the shrinkages: the number below ``low``, the values
    in [low, high] and each piece's sum."""
    below, inside, sums = 0, [], []
    for lo in range(0, count, _PASS_CHUNK):
        d = source(lo, min(lo + _PASS_CHUNK, count))
        sums.append(np.add.reduce(d))
        under = d < low
        below += np.count_nonzero(under)
        inside.append(d[~under & (d <= high)])
    return below, np.concatenate(inside), sums


def shrinkage_summaries(model, data, ms, *, pair_sample=None, seed=0):
    """An iterator of one ShrinkageSummary per retained dimension in
    ``ms``, for the sweep, with the bits of ``shrinkage_table(...).summary()``
    and no table: the call checks every argument (see shrinkage_table),
    and computes the pair list, the full transform and the original
    distances, a column the levels share, once.

    The levels are computed in ascending order, each once, over one
    running column of squared truncated distances that each level extends
    by its new columns of the transform, so that levels 1..M difference M
    columns of the transform a pair, not M(M+1)/2. The first value drawn
    computes every level up to its own; ``ms`` may come in any order and
    repeat, and each value gets the summary of its level. The pair memory
    is two columns, the original distances and the running one (the
    median re-derives each shrinkage from both)."""
    Xt, Yt, ms, pairs, errors = _pair_pass(model, data, ms, pair_sample, seed)
    d_orig = np.empty(pairs.count)
    for step in pairs.steps(_SWEEP_STEPS):
        d_orig[step[0]:step[1]] = np.sqrt(_extend(np.zeros(step[1] - step[0]), Xt, step))
    levels = sorted(set(ms))
    done = {}
    run = None

    def source(lo, hi):
        return d_orig[lo:hi] - np.sqrt(run[lo:hi])

    def level(m):
        nonlocal run
        if run is None:  # taken at the first draw, not beside the caller's work before it
            run = np.zeros(pairs.count)
        while m not in done:
            k = len(done)
            fold = _Summary(levels[k], pairs.sampled, pairs.count, VIOLATION_TOL, source)
            for block in _steps(pairs, Xt, Yt, levels[k], errors[levels[k]], d_orig=d_orig,
                                run=run, start=levels[k - 1] if k else 0, scale=_SWEEP_STEPS):
                fold.add(block)
            done[levels[k]] = fold.summary()
        return done[m]

    return map(level, ms)


def shrinkage_blocks(model, data, m=None, *, pair_sample=None, seed=0,
                     violation_tol=VIOLATION_TOL):
    """Level m's pairs a block at a time: returns ``(blocks, summary)``.
    analyze makes its one pass here for every output, rendering each
    block to the pair CSV or only draining the blocks.

    The call checks every argument first (see shrinkage_table and
    check_violation_tol). ``blocks`` iterates PairTable blocks with index
    columns, one per engine step; together they hold the rows of
    shrinkage_table, in its order, and each is folded as it goes by. Once
    ``blocks`` is exhausted, ``summary()`` returns their ShrinkageSummary,
    the same result at every call: a pair violates the guarantees when
    its shrinkage is below -slack or above its bound plus slack, the
    slack being violation_tol times its original distance; at full rank
    (bound 0) this is the isometry check. No pair column but the
    shrinkages, the median's source, is kept.
    """
    check_violation_tol(violation_tol)
    Xt, Yt, (m,), pairs, errors = _pair_pass(model, data, [m], pair_sample, seed)
    shrinkages = np.empty(pairs.count)
    fold = _Summary(m, pairs.sampled, pairs.count, violation_tol, _slicer(shrinkages))

    def add(block):
        shrinkages[fold.filled:fold.filled + block.shrinkage.size] = block.shrinkage
        return fold.add(block)

    return map(add, _steps(pairs, Xt, Yt, m, errors[m], indices=True)), fold.summary


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
    Xt, Yt, (m,), pairs, errors = _pair_pass(model, data, [m], pair_sample, seed)
    columns = {f.name: np.empty(pairs.count, dtype=np.int64 if f.name in ("i", "j") else float)
               for f in fields(PairTable)[2:]}
    lo = 0
    for block in _steps(pairs, Xt, Yt, m, errors[m], indices=True):
        hi = lo + block.i.size
        for name, column in columns.items():
            column[lo:hi] = getattr(block, name)
        lo = hi
    return PairTable(m=m, sampled=pairs.sampled, **columns)
