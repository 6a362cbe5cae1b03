"""Mismatch-count dissimilarity matrix."""

import numpy as np
import pytest

from sensecluster.dissim import (
    DissimilarityMatrix,
    build,
    format_triangle,
    parse_matrix_text,
    row_vectors,
)
from sensecluster.features import Feature, FeatureMatrix, FeatureSchema


def nominal_matrix(rows, cardinality=None):
    """Wrap integer value codes as a FeatureMatrix (codes act as alphabet indices)."""
    rows = np.asarray(rows)
    if cardinality is None:
        cardinality = int(rows.max()) + 1
    alphabet = tuple(f"v{i}" for i in range(cardinality))
    schema = FeatureSchema(
        tuple(Feature(f"f{j}", "pos", alphabet) for j in range(rows.shape[1]))
    )
    return FeatureMatrix(schema, rows)


REFERENCE_VALUES = [[10, 2, 5], [1, 2, 1], [3, 2, 5], [10, 2, 5]]
REFERENCE_MISMATCHES = [[0, 2, 1, 0], [2, 0, 2, 2], [1, 2, 0, 1], [0, 2, 1, 0]]


class TestBuild:
    def test_reference_four_observation_matrix(self):
        d = build(nominal_matrix(REFERENCE_VALUES))
        assert d.cells.tolist() == REFERENCE_MISMATCHES

    def test_single_row(self):
        d = build(nominal_matrix([[3, 1, 4]]))
        assert d.cells.tolist() == [[0]]

    def test_identical_rows_score_zero(self):
        d = build(nominal_matrix([[1, 2], [1, 2]]))
        assert d.cells.tolist() == [[0, 0], [0, 0]]

    def test_matches_double_loop_recount(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rows = rng.integers(0, 4, size=(10, 6))
            d = build(nominal_matrix(rows, cardinality=4))
            for i in range(10):
                for j in range(10):
                    expected = sum(1 for a, b in zip(rows[i], rows[j]) if a != b)
                    assert d.cells[i, j] == expected

    def test_bounds(self):
        rng = np.random.default_rng(6)
        rows = rng.integers(0, 3, size=(12, 5))
        d = build(nominal_matrix(rows, cardinality=3))
        assert d.cells.min() >= 0
        assert d.cells.max() <= 5
        assert (np.diag(d.cells) == 0).all()
        assert (d.cells == d.cells.T).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 4, size=(9, 4))
        perm = rng.permutation(9)
        d = build(nominal_matrix(rows, cardinality=4))
        d_perm = build(nominal_matrix(rows[perm], cardinality=4))
        assert (d_perm.cells == d.cells[np.ix_(perm, perm)]).all()
        # mismatch counts need not satisfy the triangle inequality; no such assert


def build_by_rows(matrix):
    """Mismatch counts one row at a time, the way ``build`` counted them
    before the one-hot product: the oracle for it."""
    vals = matrix.values
    cells = np.zeros((matrix.n, matrix.n), dtype=np.int32)
    for i in range(matrix.n):
        cells[i] = (vals != vals[i]).sum(axis=1)
    return cells


def random_matrix(rng, n, cardinalities):
    schema = FeatureSchema(
        tuple(
            Feature(f"f{j}", "pos", tuple(f"v{v}" for v in range(card)))
            for j, card in enumerate(cardinalities)
        )
    )
    columns = [rng.integers(0, card, size=n) for card in cardinalities]
    values = np.column_stack(columns) if columns else np.zeros((n, 0), dtype=np.int64)
    return FeatureMatrix(schema, values)


class TestBuildAgainstRowLoop:
    def check(self, matrix):
        d = build(matrix)
        assert d.cells.dtype == np.int32
        assert np.array_equal(d.cells, build_by_rows(matrix))

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_schemas(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 40))
        self.check(random_matrix(rng, int(rng.integers(1, 250)), rng.integers(1, 25, size=q)))

    def test_no_features(self):
        self.check(random_matrix(np.random.default_rng(0), 7, []))

    def test_one_instance(self):
        self.check(random_matrix(np.random.default_rng(1), 1, [3, 1, 5]))

    def test_cardinality_one_features(self):
        rng = np.random.default_rng(2)
        self.check(random_matrix(rng, 30, [1, 1, 1]))
        self.check(random_matrix(rng, 30, [1, 4, 1, 2, 1]))

    def test_many_features(self):
        rng = np.random.default_rng(3)
        self.check(random_matrix(rng, 120, rng.integers(1, 4, size=500)))


class TestBuildValidates:
    """``build`` makes its matrix through the checked constructor, like any
    caller's matrix."""

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_validated_constructor(self, seed):
        rng = np.random.default_rng(seed)
        matrix = random_matrix(rng, int(rng.integers(1, 200)), rng.integers(1, 12, size=15))
        d = build(matrix)
        validated = DissimilarityMatrix(d.cells)
        assert d.cells.dtype == validated.cells.dtype == np.int32
        assert np.array_equal(d.cells, validated.cells)
        assert not d.cells.flags.writeable
        assert d.n == validated.n == matrix.n

    def test_runs_the_constructor_checks(self, monkeypatch):
        checked = []
        post_init = DissimilarityMatrix.__post_init__

        def spy(self):
            checked.append(self.cells.shape)
            post_init(self)

        monkeypatch.setattr(DissimilarityMatrix, "__post_init__", spy)
        d = build(nominal_matrix(REFERENCE_VALUES))
        assert checked == [(4, 4)]
        assert d.cells.tolist() == REFERENCE_MISMATCHES


class TestRowVectors:
    def test_reference_first_row(self):
        d = DissimilarityMatrix(np.array(REFERENCE_MISMATCHES))
        vectors = row_vectors(d)
        assert vectors[0].tolist() == [0, 2, 1, 0]
        # the matrix's own rows: int32, read-only, not a copy
        assert vectors.dtype == np.int32
        assert not vectors.flags.writeable
        assert np.shares_memory(vectors, d.cells)

    def test_single_observation(self):
        vectors = row_vectors(DissimilarityMatrix(np.zeros((1, 1), dtype=int)))
        assert vectors.tolist() == [[0]]

    def test_symmetry_restatement(self):
        d = DissimilarityMatrix(np.array(REFERENCE_MISMATCHES))
        vectors = row_vectors(d)
        for i in range(d.n):
            for j in range(d.n):
                assert vectors[i][j] == vectors[j][i]


class TestValidation:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            DissimilarityMatrix(np.array([[1, 0], [0, 0]]))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            DissimilarityMatrix(np.array([[0, 1], [2, 0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            DissimilarityMatrix(np.array([[0, -1], [-1, 0]]))


    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DissimilarityMatrix(np.zeros((2, 3), dtype=int))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 0\n0 0\n", "diagonal"),
            ("0 1\n2 0\n", "symmetric"),
            ("0\n-1 0\n", "non-negative"),
        ],
    )
    def test_parsed_text_is_checked(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_matrix_text(text)

    @pytest.mark.parametrize(
        "cells",
        [
            np.array([[0, 0.5], [0.5, 0]]),
            np.array([[0, 3000000000], [3000000000, 0]]),
            np.array([[0, -3000000000], [-3000000000, 0]]),
            np.array([[0, np.nan], [np.nan, 0]]),
            np.array([[0, np.inf], [np.inf, 0]]),
            np.array([[0, 2**70], [2**70, 0]], dtype=object),
        ],
        ids=["fraction", "past-int32", "below-int32", "nan", "inf", "past-int64"],
    )
    def test_rejects_cells_int32_cannot_hold(self, cells):
        # a plain int32 cast turns 0.5 into 0 and 3000000000 into -1294967296
        with pytest.raises(ValueError, match="whole numbers that fit int32"):
            DissimilarityMatrix(cells)

    def test_accepts_whole_floats_and_the_int32_extremes(self):
        whole = DissimilarityMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert whole.cells.tolist() == [[0, 2], [2, 0]]
        top = np.iinfo(np.int32).max
        assert DissimilarityMatrix(np.array([[0, top], [top, 0]])).cells[0, 1] == top

    @pytest.mark.parametrize(
        "text",
        [
            "0 0.5\n0.5 0\n",
            "0\n0.5 0\n",
            "0 3000000000\n3000000000 0\n",
            "0\n3000000000 0\n",
            "0\n-2147483649 0\n",
            "0\n" + "9" * 30 + " 0\n",
        ],
        ids=["square-fraction", "triangle-fraction", "square-past-int32", "triangle-past-int32",
             "triangle-below-int32", "triangle-past-int64"],
    )
    def test_parsed_text_rejects_cells_int32_cannot_hold(self, text):
        with pytest.raises(ValueError, match="whole numbers that fit int32"):
            parse_matrix_text(text)

    def test_parsed_text_keeps_the_int32_maximum(self):
        top = np.iinfo(np.int32).max
        for text in (f"0 {top}\n{top} 0\n", f"0\n{top} 0\n"):
            assert parse_matrix_text(text).cells[0, 1] == top


class TestValueObject:
    def test_equal_by_value_and_unhashable(self):
        cells = np.array(REFERENCE_MISMATCHES)
        d = DissimilarityMatrix(cells)
        assert d == DissimilarityMatrix(cells.copy())
        assert d == parse_matrix_text(format_triangle(d))
        assert d != DissimilarityMatrix(2 * cells)
        assert d != DissimilarityMatrix(np.zeros((2, 2), dtype=int))
        assert d != "cells"
        with pytest.raises(TypeError, match="unhashable"):
            hash(d)


class TestText:
    def test_triangle_round_trip(self):
        d = DissimilarityMatrix(np.array(REFERENCE_MISMATCHES))
        text = format_triangle(d)
        assert text.splitlines()[0] == "0"
        assert parse_matrix_text(text).cells.tolist() == REFERENCE_MISMATCHES

    def test_parse_square(self):
        text = "0 2 1 0\n2 0 2 2\n1 2 0 1\n0 2 1 0\n"
        assert parse_matrix_text(text).cells.tolist() == REFERENCE_MISMATCHES

    def test_parse_rejects_ragged(self):
        with pytest.raises(ValueError):
            parse_matrix_text("0 1\n1\n")
