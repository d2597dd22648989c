import dataclasses
import json

import numpy as np
import pytest

from fedsynth.data_io import (
    Schema,
    SchemaField,
    discretize,
    load_dataset,
    load_partition,
    prepare_dataset,
    save_dataset,
    save_partition,
)
from fedsynth.domain import DiscreteDataset, Domain


def cont_field(bins=32, lo=0.0, hi=32.0, name="x"):
    return SchemaField(name=name, kind="continuous", min=lo, max=hi, bins=bins)


def write_schema(path, schema):
    """A schema file in the format ``Schema.from_json`` reads."""
    path.write_text(json.dumps({"fields": [dataclasses.asdict(f) for f in schema.fields]}))


def test_bin_boundaries():
    schema = Schema([cont_field()])
    data, report = discretize([[0.0, 32.0, 15.5]], schema)
    assert data.rows[:, 0].tolist() == [0, 31, 15]
    assert report.total_clamped() == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_continuous_values_are_refused(bad):
    # a non-finite value has no bin: it must not be encoded silently (nan
    # landed in bin 0 unreported)
    schema = Schema([cont_field(bins=4, lo=0.0, hi=4.0, name="age")])
    with pytest.raises(ValueError, match=r"'age' has 2 non-finite"):
        discretize([[1.0, bad, 2.5, bad]], schema)


def test_out_of_range_clamped_and_counted():
    schema = Schema([cont_field(bins=4, lo=0.0, hi=4.0)])
    data, report = discretize([[-1.0, 5.0, 2.5]], schema)
    assert data.rows[:, 0].tolist() == [0, 3, 2]
    assert report.clamped_low == {"x": 1}
    assert report.clamped_high == {"x": 1}


def test_categorical_first_seen_order():
    schema = Schema([SchemaField(name="c", kind="categorical")])
    data, _ = discretize([["red", "blue", "red", "green"]], schema)
    assert data.rows[:, 0].tolist() == [0, 1, 0, 2]
    assert data.domain.cardinalities == (3,)


def test_declared_categories_reject_unknown():
    schema = Schema([SchemaField(name="c", kind="categorical", categories=["a", "b"])])
    with pytest.raises(ValueError):
        discretize([["a", "z"]], schema)


def test_schema_validation():
    with pytest.raises(ValueError):
        SchemaField(name="x", kind="continuous", min=1.0, max=1.0)
    with pytest.raises(ValueError):
        SchemaField(name="x", kind="wat")


def test_prepare_dataset_roundtrip(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("age,color\n0.5,red\n3.2,blue\n3.9,red\n")
    schema = Schema(
        [cont_field(bins=4, lo=0.0, hi=4.0, name="age"), SchemaField(name="color", kind="categorical")]
    )
    schema_path = tmp_path / "schema.json"
    write_schema(schema_path, schema)
    data, report = prepare_dataset(str(csv_path), str(schema_path))
    assert data.n_records == 3
    assert data.rows.tolist() == [[0, 0], [3, 1], [3, 0]]


def test_prepare_dataset_missing_column(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a\n1\n")
    schema_path = tmp_path / "schema.json"
    write_schema(schema_path, Schema([cont_field(name="b", bins=2, lo=0, hi=1)]))
    with pytest.raises(ValueError, match="missing"):
        prepare_dataset(str(csv_path), str(schema_path))


def test_dataset_npz_roundtrip(tmp_path):
    dom = Domain.make(["a", "b"], [4, 2])
    rows = np.array([[0, 1], [3, 0], [2, 1]])
    path = str(tmp_path / "d.npz")
    save_dataset(path, DiscreteDataset(dom, rows))
    back = load_dataset(path)
    assert back.domain == dom
    np.testing.assert_array_equal(back.rows, rows)


def test_partition_file_roundtrip(tmp_path):
    path = str(tmp_path / "part.txt")
    save_partition(path, [0, 2, 1, 1])
    np.testing.assert_array_equal(load_partition(path), [0, 2, 1, 1])


def test_dataset_npz_refuses_pickled_arrays(tmp_path):
    path = str(tmp_path / "evil.npz")
    np.savez(
        path,
        rows=np.zeros((2, 1), dtype=np.int64),
        attributes=np.array(["a"], dtype=object),
        cardinalities=np.array([2], dtype=np.int64),
    )
    with pytest.raises(ValueError):
        load_dataset(path)


def test_dataset_npz_refuses_float_rows(tmp_path):
    # float rows would be truncated to codes: [[0.9, 1.7]] loaded as [[0, 1]]
    path = str(tmp_path / "float.npz")
    np.savez(
        path,
        rows=np.array([[0.9, 1.7]]),
        attributes=np.array(["a", "b"]),
        cardinalities=np.array([2, 2], dtype=np.int64),
    )
    with pytest.raises(ValueError, match="integer dtype"):
        load_dataset(path)
