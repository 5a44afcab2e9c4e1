import dataclasses

import numpy as np
import pytest

from pcashrink import PairTable, cli, fit, shrinkage_blocks
from pcashrink.serialize import f17


def random_dataset(rng, max_features=10, max_samples=50):
    """One random anisotropic dataset: 2..max_features dims, 3..max_samples rows."""
    n = int(rng.integers(2, max_features + 1))
    n_samples = int(rng.integers(3, max_samples + 1))
    scales = rng.uniform(0.1, 4.0, size=n)
    shift = rng.uniform(-5.0, 5.0, size=n)
    return rng.standard_normal((n_samples, n)) * scales + shift


def csv_line(values):
    """One CSV line; floats go through f17, everything else through str:
    the reference the report row formats are checked against."""
    return ",".join(f17(v) if isinstance(v, (float, np.floating)) else str(v) for v in values)


def write_dataset_csv(path, dataset):
    """Write ``dataset`` to ``path`` as headerless CSV, one line per row:
    its features in csv_line's 17-digit form, then its label. Returns
    ``path``."""
    path.write_text("".join(csv_line(tuple(row) + (label,)) + "\n"
                            for row, label in zip(dataset.features, dataset.labels)),
                    encoding="utf-8")
    return path


def drained_table(model, data, m=None, **options):
    """Level m's pairs through shrinkage_blocks, drained: returns the
    blocks joined into one PairTable of whole columns, and the level's
    summary."""
    blocks, summary = shrinkage_blocks(model, data, m, **options)
    blocks = list(blocks)
    columns = {field.name: np.concatenate([getattr(block, field.name) for block in blocks])
               for field in dataclasses.fields(PairTable)[2:]}
    return PairTable(m=blocks[0].m, sampled=blocks[0].sampled, **columns), summary()


@pytest.fixture(scope="session")
def small_corpus():
    """20 fitted datasets for property-style unit tests."""
    rng = np.random.default_rng(1729)
    corpus = []
    for _ in range(20):
        X = random_dataset(rng)
        corpus.append((X, fit(X)))
    return corpus


@pytest.fixture()
def no_input_read(monkeypatch):
    """Make reading --input or --model fail the test."""
    def read(path, *args, **kwargs):
        raise AssertionError("%s read before the options were checked" % path)
    monkeypatch.setattr(cli, "load_csv", read)
    monkeypatch.setattr(cli, "load_model", read)
