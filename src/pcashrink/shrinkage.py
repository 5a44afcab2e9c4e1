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
# the s sampled values; a bracket that misses is redrawn from every
# _STRIDE-th value of the side that it missed
_STRIDE = 64
_MARGIN = 4.0

# pairs per piece of a summary's pass; the shrinkages a sweep re-derives
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
                        self.shrinkage.__getitem__)
        fold.add(self.shrinkage, self.dist_original, self.recon_error)
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
    anything is allocated; _pair_pass calls this before it transforms.
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


def _pairwise(ufunc, v, step):
    """``ufunc(v[..., b], v[..., a])`` for the pairs of one ``step``, a
    (lo, hi, ends) of _Pairs.steps, along the last axis of ``v``: a new
    array of v's dtype, its last axis the step's hi - lo pairs."""
    lo, hi, ends = step
    out = np.empty(v.shape[:-1] + (hi - lo,), v.dtype)
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
    diff = _pairwise(np.subtract, Zt, step)
    np.multiply(diff, diff, out=diff)
    for square in diff:
        acc += square
    return acc


def _pair_pass(model, data, ms, pair_sample, seed):
    """Check every argument of an engine call and do the work its levels
    share: returns the data and the transform's first max(ms) columns,
    both as contiguous feature-major copies, the checked levels, the
    _Pairs and each point's reconstruction error at each level, by m.
    The checks and the choice of pairs come first: a refusal transforms
    nothing."""
    X = as_data_matrix(data)
    n_samples = X.shape[0]
    if n_samples < 2:
        raise InsufficientPairsError("need at least two samples to form a pair")
    ms = [check_m(model, m) for m in ms]
    check_pair_sample(pair_sample)
    check_seed(seed)
    pair_sample = PAIR_SAMPLE_DEFAULT if pair_sample is None else pair_sample
    pairs = _choose_pairs(n_samples, pair_sample, seed)
    Y = transform(model, X)
    # the norm of each point's discarded coordinates (the basis is orthonormal)
    errors = {m: np.sqrt(np.einsum("ij,ij->i", Y[:, m:], Y[:, m:])) for m in ms}
    Xt, Yt = (np.ascontiguousarray(Z.T) for Z in (X, Y[:, :max(ms, default=0)]))
    return Xt, Yt, ms, pairs, errors


def _steps(pairs, Xt, Yt, m, error):
    """The step loop of analyze and the table at level m: one (lo, hi,
    block) per engine step of the default length, in pair-column order,
    ``block`` the PairTable of pairs lo..hi-1 with its index columns.
    Both distances are summed from zero, the original from ``Xt`` and the
    truncated from the first m rows of ``Yt``; the bound adds the two
    points' ``error``."""
    ids = np.arange(pairs.n_samples, dtype=np.int64)
    for step in pairs.steps():
        lo, hi, _ = step
        d_o = np.sqrt(_extend(np.zeros(hi - lo), Xt, step))
        d_t = np.sqrt(_extend(np.zeros(hi - lo), Yt[:m], step))
        # every pair joins i < j, so i is the smaller of its two indices
        yield lo, hi, PairTable(
            m=m, sampled=pairs.sampled, i=_pairwise(np.minimum, ids, step),
            j=_pairwise(np.maximum, ids, step), dist_original=d_o, dist_truncated=d_t,
            shrinkage=d_o - d_t, recon_error=_pairwise(np.add, error, step))


class _Summary:
    """Folds ``count`` pairs of level m, in pair order, into their
    ShrinkageSummary at violation tolerance ``tol``: the one place that
    summaries are made. It keeps no pair column, only how many pairs it
    has folded and three counts: the negative, over-bound and violating
    (either, counted once) pairs, the guarantee rule, with a slack of
    ``tol`` times each pair's original distance. The first ``summary()``
    after the last pair is folded runs _centre's pass over ``source``,
    which maps a slice of the pair column to its shrinkages, for the
    mean, the exact median and the max."""

    def __init__(self, m, sampled, count, tol, source):
        self.m, self.sampled, self.count, self.tol, self.source = m, sampled, count, tol, source
        self.filled, self.counts, self.result = 0, np.zeros(3, np.int64), None

    def add(self, d, d_orig, bound):
        """Count the next pairs: shrinkages ``d``, their original
        distances ``d_orig`` and their bounds ``bound``."""
        self.filled += d.size
        slack = self.tol * d_orig
        negative = d < -slack
        over = d > bound + slack
        violating = np.count_nonzero(negative | over)
        if violating:
            self.counts += [np.count_nonzero(negative), np.count_nonzero(over), violating]

    def summary(self):
        if self.filled < self.count:
            raise RuntimeError("%d of %d pairs folded; exhaust the blocks first"
                               % (self.filled, self.count))
        if self.result is None:
            mean, median, top = _centre(self.source, self.count)
            negative, over, violating = (int(c) for c in self.counts)
            self.result = ShrinkageSummary(
                m=self.m, pair_count=self.count, sampled=self.sampled, mean=mean,
                median=median, max=top, negative_count=negative, bound_violations=over,
                violating_pairs=violating)
        return self.result


def _centre(source, count):
    """The mean, the exact median and the max of the ``count`` shrinkages
    that ``source(slice)`` gives, without holding them: returns (mean,
    median, max), all three NaN when a shrinkage is NaN, like np.mean,
    np.median and np.max.

    Every _STRIDE-th shrinkage by pair index, a sample, is drawn first;
    its order statistics _MARGIN·√s places either side of its own median
    (s sampled values) bracket the median. One pass over the shrinkages,
    in pieces of _PASS_CHUNK pairs aligned to the pair index, takes each
    piece's sum and max and gathers the values inside the bracket; the
    mean is the math.fsum of the piece sums over ``count``, whose bits do
    not depend on how the pairs were blocked. When the values below the
    bracket and those inside it reach past the median's ranks, the
    gathered values hold the median: one single-kth partition at h =
    count // 2 gives the element at h for an odd count and (the largest
    one below h + it) / 2 for an even one, the bits of np.median.
    Otherwise only one side missed, since the bracket's ends are values
    of the column: a pass keeps every _STRIDE-th value of that side, the
    side bounded by the bracket's other end, and a second bracket drawn
    from those values around the median's rank is gathered. Only when
    that one misses too is the side that it missed gathered whole."""
    sample = source(slice(None, None, _STRIDE))
    low, high = _bracket(sample, (sample.size - 1) // 2)
    below, inside, sums, tops = _gather(source, count, low, high)
    top = float(np.max(tops))
    if np.isnan(top):
        return top, top, top
    h = count // 2
    side = _missed(below, inside, count)
    if side:
        ends = (-np.inf, high) if side < 0 else (low, np.inf)
        rank = h if side < 0 else h - below
        low, high = _bracket(_sample_side(source, count, *ends), rank // _STRIDE)
        below, inside, _, _ = _gather(source, count, low, high)
        side = _missed(below, inside, count)
        if side:
            below, inside, _, _ = _gather(source, count, *(
                (-np.inf, high) if side < 0 else (low, np.inf)))
    k = h - below
    inside.partition(k)
    median = inside[k] if count % 2 else (inside[:k].max() + inside[k]) / 2
    return math.fsum(sums) / count, float(median), top


def _bracket(sample, centre):
    """The values of ``sample`` _MARGIN·√s ranks either side of its rank
    ``centre`` (s sampled values), the ends clipped to the sample."""
    width = int(_MARGIN * math.sqrt(sample.size))
    ends = [max(0, centre - width), min(sample.size - 1, centre + width)]
    return np.partition(sample, ends)[ends]


def _missed(below, inside, count):
    """Where the median's ranks lie against a bracket that has ``below``
    of the ``count`` values under it and gathered ``inside``: -1 below
    it, 1 above it, 0 inside it."""
    h = count // 2
    if below > h - 1 + count % 2:
        return -1
    return 1 if below + inside.size <= h else 0


def _gather(source, count, low, high):
    """One pass over the shrinkages: the number below ``low``, the values
    in [low, high], and each piece's sum and max."""
    below, inside, sums, tops = 0, [], [], []
    for lo in range(0, count, _PASS_CHUNK):
        d = source(slice(lo, lo + _PASS_CHUNK))
        sums.append(np.add.reduce(d))
        tops.append(d.max())
        under = d < low
        below += np.count_nonzero(under)
        inside.append(d[~under & (d <= high)])
    return below, np.concatenate(inside), sums, tops


def _sample_side(source, count, low, high):
    """One pass over the shrinkages: every _STRIDE-th of the values in
    [low, high], in pair order."""
    seen, kept = 0, []
    for lo in range(0, count, _PASS_CHUNK):
        d = source(slice(lo, lo + _PASS_CHUNK))
        d = d[(d >= low) & (d <= high)]
        kept.append(d[-seen % _STRIDE::_STRIDE].copy())  # not a view of the piece
        seen += d.size
    return np.concatenate(kept)


def shrinkage_summaries(model, data, ms, *, pair_sample=None, seed=0):
    """An iterator of one ShrinkageSummary per retained dimension in
    ``ms``, for the sweep, with the bits of ``shrinkage_table(...).summary()``
    and no table. The call checks every argument (see shrinkage_table)
    and does all the work: it computes the pair list, the full transform
    and the original distances, a column the levels share, once, then
    every level.

    The levels are computed in ascending order, each once, in the sweep's
    own step loop: a step extends its slice of one running column of
    squared truncated distances by the level's new rows of the transform,
    so that levels 1..M difference M columns of the transform a pair, not
    M(M+1)/2, and folds the step's arrays, with no PairTable. ``ms`` may
    come in any order and repeat, and each value gets the summary of its
    level; an empty ``ms`` computes no distance. The pair memory is two
    columns, the original distances and the running one (the summary
    re-derives each shrinkage from both), and it is freed before the call
    returns."""
    Xt, Yt, ms, pairs, errors = _pair_pass(model, data, ms, pair_sample, seed)
    if not ms:
        return iter([])
    d_orig = np.empty(pairs.count)
    for step in pairs.steps(_SWEEP_STEPS):
        lo, hi, _ = step
        d_orig[lo:hi] = np.sqrt(_extend(np.zeros(hi - lo), Xt, step))
    run = np.zeros(pairs.count)

    def source(sl):
        return d_orig[sl] - np.sqrt(run[sl])

    done = {}
    start = 0
    for m in sorted(set(ms)):
        fold = _Summary(m, pairs.sampled, pairs.count, VIOLATION_TOL, source)
        for step in pairs.steps(_SWEEP_STEPS):
            lo, hi, _ = step
            d_t = np.sqrt(_extend(run[lo:hi], Yt[start:m], step))
            fold.add(d_orig[lo:hi] - d_t, d_orig[lo:hi], _pairwise(np.add, errors[m], step))
        done[m] = fold.summary()
        start = m
    return iter([done[m] for m in ms])


def shrinkage_blocks(model, data, m=None, *, pair_sample=None, seed=0,
                     violation_tol=VIOLATION_TOL):
    """Level m's pairs a block at a time: returns ``(blocks, summary)``.
    analyze makes its one pass here for every output, rendering each
    block to the pair CSV or only draining the blocks.

    The call checks every argument first (see shrinkage_table and
    check_violation_tol), before it transforms. ``blocks`` iterates
    PairTable blocks with index columns, one per engine step; together
    they hold the rows of shrinkage_table, in its order, and each is
    counted and its shrinkages kept, at its step's place, as it goes by.
    Once ``blocks`` is exhausted, the first ``summary()`` takes the mean,
    median and max in one pass and returns their ShrinkageSummary, the
    same object at every later call: a pair violates the guarantees when
    its shrinkage is below -slack or above its bound plus slack, the
    slack being violation_tol times its original distance; at full rank
    (bound 0) this is the isometry check. No pair column but the
    shrinkages, the summary's source, is kept.
    """
    check_violation_tol(violation_tol)
    Xt, Yt, (m,), pairs, errors = _pair_pass(model, data, [m], pair_sample, seed)
    shrinkages = np.empty(pairs.count)
    fold = _Summary(m, pairs.sampled, pairs.count, violation_tol, shrinkages.__getitem__)

    def add(lo, hi, block):
        shrinkages[lo:hi] = block.shrinkage
        fold.add(block.shrinkage, block.dist_original, block.recon_error)
        return block

    return (add(*step) for step in _steps(pairs, Xt, Yt, m, errors[m])), fold.summary


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
    for lo, hi, block in _steps(pairs, Xt, Yt, m, errors[m]):
        for name, column in columns.items():
            column[lo:hi] = getattr(block, name)
    return PairTable(m=m, sampled=pairs.sampled, **columns)
