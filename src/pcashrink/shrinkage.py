"""Distance distortion of truncated PCA transforms.

Three facts about the truncated transform are made measurable here: it
collapses distinct points (collision_witness constructs an explicit
pair), it never stretches a pairwise distance, and the amount a pair
shrinks never exceeds the summed reconstruction errors of its two
endpoints. The pair engine below evaluates these quantities for every
sample pair, or for a seeded subsample when the pair count explodes;
the sample, seed, pair-count and tolerance checks its callers share sit
beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    FullRankInjectiveError,
    InsufficientPairsError,
    TooManyPairsError,
)
from .matrix import as_data_matrix, as_vector, max_exponent, refuse_overflow
from .pca import check_m, transform

# pairs visited when no count is requested: all pairs while there are at
# most this many (N <= 2000 samples), else a seeded uniform subsample
PAIR_SAMPLE_DEFAULT = 2_000_000

# most pairs one engine call may visit: their columns would hold ~1 GB at
# 48 B a pair, and no engine path keeps one. A sampled pair list costs 2 x
# its index type's bytes a pair (see _choose_pairs): 80 MB at the budget
# for up to 65,536 samples
PAIR_BUDGET = 20_000_000

# sampled pair ends drawn at once in int64 before they are stored compact
_DRAW = 1 << 16

# a pair's violation slack, as a fraction of its original distance
VIOLATION_TOL = 1e-9

# pairs per engine step (all-pairs steps take whole rows, so a longer row is
# a step of its own); small steps keep analyze's rendered blocks to a few MB
_CHUNK = 4096

# a sweep renders nothing, so its steps are this many times longer: a
# quarter of the per-step calls, for temporaries of a few MB
_SWEEP_STEPS = 4

# coordinates differenced at once for a step, so that its temporaries do
# not grow with the number of features
_DIFF_ROWS = 8

# the median's bracket: every _STRIDE-th shrinkage by pair index is sampled,
# and the bracket's ends lie _MARGIN·√s places either side of the median of
# the s sampled values; a bracket that misses has the median read off the
# whole shrinkage column
_STRIDE = 64
_MARGIN = 4.0

# pairs per piece of a summary's pass: the mean is the math.fsum of the
# pieces' sums, so their bounds are fixed by the pair index
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
    """One block of shrinkage_blocks: columnar per-pair results of the
    pair engine at level m; pair k joins samples i[k] < j[k].
    ``shrinkage`` is dist_original - dist_truncated; ``recon_error``, the
    sum of the two endpoints' own reconstruction distances (exactly 0 at
    full rank), bounds it above."""

    m: int
    sampled: bool
    i: np.ndarray
    j: np.ndarray
    dist_original: np.ndarray
    dist_truncated: np.ndarray
    shrinkage: np.ndarray
    recon_error: np.ndarray


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


def check_samples(n_samples):
    """Refuse fewer than two samples, which form no pair."""
    if n_samples < 2:
        raise InsufficientPairsError("need at least two samples to form a pair")


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
    the sampled index arrays ``ij = (i, j)`` with i < j, of any integer
    type: _choose_pairs holds them in the smallest that fits, 2 x its
    bytes a pair."""

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

    def stride(self):
        """The pairs at every _STRIDE-th place of the pair column, the
        median's sample (see _Summary), as sampled _Pairs. Of all pairs, a
        place's row i is the last one whose first pair is at or before it."""
        if self.sampled:
            return _Pairs(self.n_samples, tuple(v[::_STRIDE] for v in self.ij))
        place = np.arange(0, self.count, _STRIDE)
        rows = np.arange(self.n_samples - 1)
        starts = rows * self.n_samples - rows * (rows + 1) // 2
        i = np.searchsorted(starts, place, side="right") - 1
        return _Pairs(self.n_samples, (i, place - starts[i] + i + 1))


def _choose_pairs(n_samples, pair_sample, seed):
    """The _Pairs to visit: all pairs or a seeded subsample.

    A ``pair_sample`` of 0, or of at least the pair count, means all
    pairs. Sampling draws pairs uniformly with replacement and is
    deterministic for a given (seed, n_samples); self-pairs are redrawn.
    A pair count above PAIR_BUDGET raises TooManyPairsError before
    anything is allocated; _pair_pass calls this before it transforms.

    Each array is drawn in int64 a _DRAW-value chunk at a time, straight
    into np.min_scalar_type(n_samples - 1), uint8 up to 256 samples,
    uint16 up to 65,536 and uint32 beyond (successive draws continue one
    stream, so the pairs are those of one whole-array draw): the pair list
    costs 2 x that type's bytes a pair (4 B up to 65,536 samples), and the
    draw peaks at about 1 B a pair more.
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
    chunks = [slice(lo, lo + _DRAW) for lo in range(0, pair_sample, _DRAW)]
    a, b = np.empty((2, pair_sample), dtype=np.min_scalar_type(n_samples - 1))
    for ends in (a, b):
        for s in chunks:
            ends[s] = rng.integers(0, n_samples, size=ends[s].size, dtype=np.int64)
    # only a redrawn place can clash again, so only those are compared; they
    # stay in ascending order, and the redraws take the stream in pair order
    clash = np.flatnonzero(a == b)
    while clash.size:
        b[clash] = rng.integers(0, n_samples, size=clash.size, dtype=np.int64)
        clash = clash[a[clash] == b[clash]]
    for s in chunks:
        low = np.minimum(a[s], b[s])
        np.maximum(a[s], b[s], out=b[s])
        a[s] = low
    return _Pairs(n_samples, (a, b))


def _pairwise(ufunc, v, step, out=None):
    """``ufunc(v[..., b], v[..., a])`` for the pairs of one ``step``, a
    (lo, hi, ends) of _Pairs.steps, along the last axis of ``v``: into
    ``out`` when given, else a new array of v's dtype, its last axis the
    step's hi - lo pairs. Slices are views; index arrays are gathered by
    ``take``, which is faster than fancy indexing for the same bits."""
    lo, hi, ends = step
    if out is None:
        out = np.empty(v.shape[:-1] + (hi - lo,), v.dtype)
    k = 0
    for a, b in ends:
        if isinstance(b, slice):
            va, vb = v[..., a], v[..., b]
        else:
            va, vb = v.take(a, axis=-1), v.take(b, axis=-1)
        n = vb.shape[-1]
        ufunc(vb, va, out=out[..., k:k + n])
        k += n
    return out


@refuse_overflow("pairwise distances overflow")
def _extend(acc, Zt, step):
    """Add to ``acc``, squared distances of one step's pairs, the squared
    differences of each row of ``Zt`` in row order, in place: the pair
    kernel of every engine path. ``Zt`` is feature-major, one row a
    coordinate and one column a point, so a step's differences are laid
    out (coordinates, pairs), _DIFF_ROWS coordinates at a time in one
    buffer, and each row is added whole. A distance is the square root of
    its squared coordinate differences added one coordinate at a time in
    column order, from zero: the sum the k-NN's running d² makes
    (experiments._knn_predict), with the same bits. The rows are added
    one by one because np.add.reduce may sum a short axis pairwise. The
    buffer is made once a call: a new block per chunk of coordinates had
    the allocator give memory back and fault it in again every step. A
    difference, square or sum that overflows raises NonFiniteError."""
    lo, hi, _ = step
    buffer = np.empty((min(_DIFF_ROWS, Zt.shape[0]), hi - lo))
    for start in range(0, Zt.shape[0], _DIFF_ROWS):
        rows = Zt[start:start + _DIFF_ROWS]
        diff = _pairwise(np.subtract, rows, step, buffer[:len(rows)])
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
    check_samples(X.shape[0])
    ms = [check_m(model, m) for m in ms]
    check_pair_sample(pair_sample)
    check_seed(seed)
    pair_sample = PAIR_SAMPLE_DEFAULT if pair_sample is None else pair_sample
    pairs = _choose_pairs(X.shape[0], pair_sample, seed)
    Y = transform(model, X)
    # the norm of each point's discarded coordinates (the basis is orthonormal)
    errors = {m: np.sqrt(np.einsum("ij,ij->i", Y[:, m:], Y[:, m:])) for m in ms}
    Xt, Yt = (np.ascontiguousarray(Z.T) for Z in (X, Y[:, :max(ms, default=0)]))
    return Xt, Yt, ms, pairs, errors


class _Summary:
    """Folds ``count`` pairs of level m, in pair order, into their
    ShrinkageSummary: the one place that summaries are made, with no pair
    column held. ``sample``, every _STRIDE-th shrinkage by pair index,
    draws the median's bracket [low, high] at once. ``add`` counts the
    guarantee rule's negative, over-bound and violating (either, counted
    once) pairs against the limits its caller made, and buffers the
    shrinkages into pieces of _PASS_CHUNK pairs aligned to the pair index.
    Each piece leaves its sum and max, the number of its values below the
    bracket and a copy of those inside it: _centre's first pass. The first
    ``summary()`` after the last pair takes the mean, the exact median and
    the max from _centre, which calls ``column()``, for a new shrinkage
    column of its own, only when the bracket misses the median."""

    def __init__(self, m, sampled, count, sample, column):
        self.m, self.sampled, self.count, self.column = m, sampled, count, column
        self.low, self.high = _bracket(sample, (sample.size - 1) // 2)
        self.below, self.inside, self.sums, self.tops = 0, [], [], []
        self.piece, self.fill = np.empty(min(count, _PASS_CHUNK)), 0
        self.filled, self.counts, self.result = 0, np.zeros(3, np.int64), None

    def add(self, d, low, high):
        """Fold the next pairs: shrinkages ``d``, each of which violates
        the guarantees below ``low`` (-slack) or above ``high`` (its bound
        plus slack), the slack being the violation tolerance times the
        pair's original distance; none of the three arrays is changed."""
        self.filled += d.size
        negative, over = d < low, d > high
        violating = np.count_nonzero(negative | over)
        if violating:
            self.counts += [np.count_nonzero(negative), np.count_nonzero(over), violating]
        done = 0
        while done < d.size:
            n = min(d.size - done, self.piece.size - self.fill)
            self.piece[self.fill:self.fill + n] = d[done:done + n]
            self.fill, done = self.fill + n, done + n
            if self.fill == self.piece.size:
                self._fold(self.piece)
                self.fill = 0

    def _fold(self, d):
        self.sums.append(np.add.reduce(d))
        self.tops.append(d.max())
        self.below += np.count_nonzero(d < self.low)
        self.inside.append(d[(d >= self.low) & (d <= self.high)])

    def summary(self):
        if self.filled < self.count:
            raise RuntimeError("%d of %d pairs folded; exhaust the blocks first"
                               % (self.filled, self.count))
        if self.result is None:
            if self.fill:
                self._fold(self.piece[:self.fill])
            mean, median, top = _centre(self, self.count, self.column)
            negative, over, violating = (int(c) for c in self.counts)
            self.result = ShrinkageSummary(
                m=self.m, pair_count=self.count, sampled=self.sampled, mean=mean,
                median=median, max=top, negative_count=negative, bound_violations=over,
                violating_pairs=violating)
        return self.result


def _centre(first, count, column):
    """The mean, the exact median and the max of the ``count`` shrinkages
    that ``first``, a _Summary, has folded in one pass: returns (mean,
    median, max), all three NaN when a shrinkage is NaN, like np.mean,
    np.median and np.max.

    The mean is the math.fsum of the piece sums over ``count``, whose
    bits do not depend on how the pairs were blocked. When the values
    below the bracket and those inside it reach past the median's ranks,
    the gathered values hold the median; otherwise ``column()`` gives all
    the shrinkages, in an array that is partitioned in place. Either way,
    one single-kth partition at the place of h = count // 2 gives the
    element at h for an odd count and (the largest one below h + it) / 2
    for an even one, the bits of np.median."""
    top = float(np.max(first.tops))
    if np.isnan(top):
        return top, top, top
    h = count // 2
    values, k = np.concatenate(first.inside), h - first.below
    if not 1 - count % 2 <= k < values.size:
        values, k = column(), h
    values.partition(k)
    median = values[k] if count % 2 else (values[:k].max() + values[k]) / 2
    return math.fsum(first.sums) / count, float(median), top


def _bracket(sample, centre):
    """The values of ``sample`` _MARGIN·√s ranks either side of its rank
    ``centre`` (s sampled values), the ends clipped to the sample."""
    width = int(_MARGIN * math.sqrt(sample.size))
    ends = [max(0, centre - width), min(sample.size - 1, centre + width)]
    return np.partition(sample, ends)[ends]


def _distances(Xt, Yt, ms, step):
    """The pair kernel for one step: per level m of the ascending ``ms``,
    the step's original and truncated distances. The n rows of ``Xt`` are
    differenced once and the first max(ms) rows of ``Yt`` once, each level
    adding its new rows to one running column of squared truncated
    distances, which has the bits of a sum from zero."""
    lo, hi, _ = step
    d_orig = np.sqrt(_extend(np.zeros(hi - lo), Xt, step))
    run = np.zeros(hi - lo)
    start = 0
    for m in ms:
        _extend(run, Yt[start:m], step)
        start = m
        yield d_orig, np.sqrt(run)


def _columns(Xt, Yt, ms, pairs):
    """The shrinkage column over ``pairs`` of each level of the ascending
    ``ms``, in that order."""
    columns = [np.empty(pairs.count) for _ in ms]
    for step in pairs.steps(_SWEEP_STEPS):
        lo, hi, _ = step
        for column, (d_orig, d_trunc) in zip(columns, _distances(Xt, Yt, ms, step)):
            np.subtract(d_orig, d_trunc, out=column[lo:hi])
    return columns


def _folds(Xt, Yt, levels, pairs):
    """One _Summary over ``pairs`` per level of the ascending ``levels``:
    the samples of every level are computed first, in one pass over every
    _STRIDE-th pair, and a level's whole column only if its bracket
    misses."""
    samples = _columns(Xt, Yt, levels, pairs.stride())
    return [_Summary(m, pairs.sampled, pairs.count, sample,
                     lambda m=m: _columns(Xt, Yt, [m], pairs)[0])
            for m, sample in zip(levels, samples)]


def shrinkage_summaries(model, data, ms, *, pair_sample=None, seed=0):
    """An iterator of one ShrinkageSummary per retained dimension in
    ``ms``, for the sweep, with the bits of each level's shrinkage_blocks
    summary at VIOLATION_TOL. The call checks every argument (see
    shrinkage_blocks) and does all the work: it computes the pair list and the full
    transform once, then every level in one pass over the pairs.

    The shrinkages of the median's sample, every _STRIDE-th pair, come
    first, at every level, for each level's bracket (see _folds). Then
    each engine step differences the n columns of the data and the
    max(ms) columns of the transform once, and grows a step-local column
    of squared truncated distances level by level, in ascending order, so
    that levels 1..M difference M columns of the transform a pair, not
    M(M+1)/2 (see _distances). Each level folds its guarantee counts and
    the first pass of its median as the step goes by (see _Summary),
    against a slack made once a step for every level. No pair column is
    held: a level's own column is built only if its bracket misses the
    median. ``ms`` may come in any order and repeat, each value getting
    its level's summary; an empty ``ms`` computes no distance."""
    Xt, Yt, ms, pairs, errors = _pair_pass(model, data, ms, pair_sample, seed)
    levels = sorted(set(ms))
    if not levels:
        return iter([])
    folds = _folds(Xt, Yt, levels, pairs)
    for step in pairs.steps(_SWEEP_STEPS):
        for fold, (d_orig, d_trunc) in zip(folds, _distances(Xt, Yt, levels, step)):
            if fold is folds[0]:
                slack = VIOLATION_TOL * d_orig
                low = -slack
            # each level's d_trunc and bound are new arrays of its own
            high = _pairwise(np.add, errors[fold.m], step)
            high += slack
            fold.add(np.subtract(d_orig, d_trunc, out=d_trunc), low, high)
    done = {fold.m: fold.summary() for fold in folds}
    return iter([done[m] for m in ms])


def shrinkage_blocks(model, data, m=None, *, pair_sample=None, seed=0,
                     violation_tol=VIOLATION_TOL):
    """Level m's pairs a block at a time: returns ``(blocks, summary)``,
    the engine's one per-pair entry. analyze makes its one pass here,
    rendering each block to the pair CSV or only draining the blocks; one
    pair of points a, b is the one block of
    ``shrinkage_blocks(model, np.stack([a, b]), m)``.

    ``pair_sample`` caps how many pairs are visited: None means
    PAIR_SAMPLE_DEFAULT, 0 forces all pairs, and a positive value
    requests that many sampled pairs; a request of at least the pair
    count visits all pairs unsampled. A negative count or ``seed``, or a
    non-finite ``violation_tol``, raises ValueError. Every argument is
    checked at the call, before anything is transformed; the engine runs
    in the calling thread. The call then computes the median's sample,
    every _STRIDE-th pair (see _folds).

    ``blocks`` iterates one PairTable per engine step, in pair-column
    order, each bound the sum of the two points' reconstruction errors,
    and folds each into the summary as it goes by. Once it is exhausted,
    the first ``summary()`` returns the ShrinkageSummary, the same object
    at every later call: a pair violates the guarantees when its
    shrinkage is below -slack or above its bound plus slack, the slack
    being violation_tol times its original distance, as in the sweep; at
    full rank (bound 0) this is the isometry check. No pair column is
    kept: a bracket that misses the median has the column built again by
    a second pass of the engine (see _centre).
    """
    check_violation_tol(violation_tol)
    Xt, Yt, (m,), pairs, errors = _pair_pass(model, data, [m], pair_sample, seed)
    fold, = _folds(Xt, Yt, [m], pairs)
    ids = np.arange(pairs.n_samples, dtype=np.int64)

    def blocks():
        for step in pairs.steps():
            (d_o, d_t), = _distances(Xt, Yt, [m], step)
            shrink, slack = d_o - d_t, violation_tol * d_o
            bound = _pairwise(np.add, errors[m], step)
            fold.add(shrink, -slack, bound + slack)
            # every pair joins i < j, so i is the smaller of its two indices
            yield PairTable(m=m, sampled=pairs.sampled, i=_pairwise(np.minimum, ids, step),
                            j=_pairwise(np.maximum, ids, step), dist_original=d_o,
                            dist_truncated=d_t, shrinkage=shrink, recon_error=bound)

    return blocks(), fold.summary
