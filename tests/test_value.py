"""The shared rule for array-holding values (``sensecluster._value``)."""

import dataclasses
import pickle

import pytest

from sensecluster._value import ArrayValue
from sensecluster.agglom import ClusterResult, Merge
from sensecluster.dissim import DissimilarityMatrix
from sensecluster.em import NaiveBayesParams
from sensecluster.evaluate import ConfusionMatrix
from sensecluster.features import Feature, FeatureMatrix, FeatureSchema

VALUE_CLASSES = {
    "DissimilarityMatrix",
    "FeatureMatrix",
    "ClusterResult",
    "ConfusionMatrix",
    "NaiveBayesParams",
    "ExpectedCounts",
    "EmResult",
    "GeneratedSample",
}


def test_value_classes_are_frozen_dataclasses_that_keep_the_shared_eq_and_hash():
    classes = ArrayValue.__subclasses__()
    assert VALUE_CLASSES <= {cls.__name__ for cls in classes}
    for cls in classes:
        assert dataclasses.is_dataclass(cls), cls.__name__
        assert cls.__dataclass_params__.frozen, cls.__name__
        assert not cls.__dataclass_params__.eq, cls.__name__
        assert "__eq__" not in vars(cls), cls.__name__
        assert "__hash__" not in vars(cls), cls.__name__


SCHEMA = FeatureSchema(
    (Feature("f0", "pos", ("a", "b", "c")), Feature("f1", "pos", ("x", "y")))
)

# each value with the fields it holds as read-only copies
HELD = [
    (ConfusionMatrix(("s0", "s1"), ("c0", "c1"), [[1, 2], [3, 4]]), ("counts",)),
    (ClusterResult([0, 1, 0], (Merge(0, 2, 1.0),), 2, 1), ("assignment",)),
    (FeatureMatrix(SCHEMA, [[0, 1], [2, 0], [1, 1]]), ("values",)),
    (DissimilarityMatrix([[0, 1], [1, 0]]), ("cells",)),
    (NaiveBayesParams([0.5, 0.5], [[0.5, 0], [0, 0.5]], (0, 2)), ("priors", "table")),
]


@pytest.mark.parametrize("value,held", HELD, ids=[type(value).__name__ for value, _ in HELD])
def test_pickled_copy_is_equal_and_read_only(value, held):
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value
    for name in held:
        with pytest.raises(ValueError, match="read-only"):
            getattr(copy, name)[...] = 7
