"""Golden renderings of json_text for the values no report on the tested
inputs contains: None, empty containers and nesting, and what it refuses;
and float arrays against a render of one value at a time."""

import numpy as np
import pytest

from pcashrink.experiments import SweepResult, SweepRow, correlate
from pcashrink.reports import sweep_report_json
from pcashrink.serialize import f17, json_text, write_text


@pytest.mark.parametrize("obj, text", [
    (None, "null"),
    ([], "[]"),
    ((), "[]"),
    ({}, "{}"),
    ({"a": None, "b": [], "c": {}, "d": [1, None, (0.5, [])],
      "e": {"f": {"g": np.int64(3)}, "h": True}},
     '{\n'
     '  "a": null,\n'
     '  "b": [],\n'
     '  "c": {},\n'
     '  "d": [1, null, [0.5, []]],\n'
     '  "e": {\n'
     '    "f": {\n'
     '      "g": 3\n'
     '    },\n'
     '    "h": true\n'
     '  }\n'
     '}'),
], ids=["none", "empty-list", "empty-tuple", "empty-dict", "nested"])
def test_json_text_golden(obj, text):
    assert json_text(obj) == text + "\n"


def per_value(a):
    """The text of a float array rendered one f17 value at a time."""
    if a.ndim == 1:
        return "[" + ", ".join(f17(v) for v in a) + "]"
    return "[" + ", ".join(per_value(row) for row in a) + "]"


EDGES = [-0.0, 5e-324, 0.1, 1 / 3, 1e16, 1e17]


@pytest.mark.parametrize("a", [
    np.array(EDGES),
    np.array(EDGES).reshape(2, 3),
    np.array(EDGES).reshape(3, 2)[:, ::-1],
    np.array(EDGES, dtype=np.float32),
    np.empty(0),
    np.empty((0, 3)),
    np.empty((2, 0)),
], ids=["1d", "2d", "2d-strided", "float32", "empty", "no-rows", "empty-rows"])
def test_json_text_of_float_arrays_renders_each_value(a):
    assert json_text(a) == per_value(a) + "\n"
    assert json_text({"v": a}) == '{\n  "v": %s\n}\n' % per_value(a)


def test_json_text_refuses_a_set():
    with pytest.raises(TypeError, match="cannot serialize <class 'set'>"):
        json_text({"a": {1, 2}})


def test_constant_accuracy_renders_null_correlations():
    rows = tuple(SweepRow(m=m, eigsum=3.0 - m, mean_shrinkage=1.0 / m, median_shrinkage=1.0 / m,
                          max_shrinkage=2.0 / m, accuracy=0.75) for m in (1, 2, 3))
    result = SweepResult(dataset_name="flat", seed=0, classifier_config="knn k=5 folds=5",
                         rows=rows, pair_count=10, pairs_sampled=False,
                         negative_shrinkage_pairs=0, bound_violation_pairs=0)
    text = sweep_report_json(result, correlate(result))
    for key in ("eigsum_vs_accuracy", "mean_shrinkage_vs_accuracy"):
        assert '    "%s": {\n      "r": null,\n      "strength": null\n    },\n' % key in text
    assert '"eigsum_vs_mean_shrinkage": {\n      "r": 0.' in text
    assert '"accuracy_correlations_weak": false\n}\n' in text


def refusing_chunks():
    yield "a,b\n"
    raise ValueError("refused")


def test_write_text_removes_its_partial_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(ValueError, match="refused"):
        write_text(path, refusing_chunks())
    assert not path.exists()


def test_write_text_keeps_a_symlink_and_its_target(tmp_path):
    """A symlink such as /dev/stdout is written through, never removed."""
    target = tmp_path / "target.csv"
    target.write_text("", encoding="utf-8")
    (tmp_path / "link.csv").symlink_to(target)
    with pytest.raises(ValueError, match="refused"):
        write_text(tmp_path / "link.csv", refusing_chunks())
    assert (tmp_path / "link.csv").is_symlink() and target.read_text(encoding="utf-8") == "a,b\n"
