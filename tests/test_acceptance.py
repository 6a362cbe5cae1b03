"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import functools
import math
import statistics
import time
from pathlib import Path

import numpy as np

import sensecluster
from sensecluster.agglom import mcquitty, ward
from sensecluster.corpus import save_corpus
from sensecluster.dissim import build as build_dissim
from sensecluster.dissim import row_vectors
from sensecluster.em import e_step, generate, initial_params, m_step
from sensecluster.evaluate import best_mapping, category_rollup, t_test
from sensecluster.features import dimensionality
from sensecluster.runner import ExperimentConfig, run

from conftest import synth_sample
from em_tables import split
from test_agglom import (
    assert_same_trace,
    random_tie_free_matrix,
    random_tie_free_points,
    replay_member_steps,
)
from test_dissim import nominal_matrix
from test_em import make_schema, mapped_accuracy
from test_evaluate import p_value_by_quadrature


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({title}): FAIL")
                raise
            print(f"criterion {number:2d} ({title}): PASS")

        return wrapper

    return deco


@criterion(1, "dissimilarity fixture")
def test_c01_dissimilarity_fixture():
    values = [[10, 2, 5], [1, 2, 1], [3, 2, 5], [10, 2, 5]]
    expected = [[0, 2, 1, 0], [2, 0, 2, 2], [1, 2, 0, 1], [0, 2, 1, 0]]
    matrix = nominal_matrix(values)
    assert build_dissim(matrix).cells.tolist() == expected
    best = min(
        _timed(lambda: build_dissim(matrix))
        for _ in range(5)
    )
    assert best < 1e-3, f"build took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@criterion(2, "dimensionality table")
def test_c02_dimensionality_endpoints():
    assert dimensionality("A", "adjective") == 5_000
    assert dimensionality("A", "verb") == 35_000
    assert dimensionality("B", "adjective") == 194_481
    assert dimensionality("B", "verb") == 1_361_367
    assert dimensionality("C", "adjective") == 275_625
    assert dimensionality("C", "verb") == 1_929_375


@criterion(3, "mapping fixtures")
def test_c03_reference_confusion_captions():
    cases = [
        ([[166, 281], [181, 607]], 773),
        ([[288, 159], [155, 633]], 921),
        ([[384, 63], [132, 656]], 1040),
        ([[53, 6, 302], [58, 187, 255], [108, 4, 1140]], 1380),
        ([[280, 3, 78], [240, 197, 63], [559, 0, 693]], 1170),
        ([[127, 230, 4], [134, 364, 2], [320, 124, 808]], 1299),
        ([[45, 234], [146, 842]], 887),
        ([[88, 191], [354, 634]], 722),
        ([[119, 160], [344, 644]], 763),
    ]
    for counts, expected in cases:
        counts = np.asarray(counts)
        cm = sensecluster.ConfusionMatrix(
            tuple(f"s{i}" for i in range(counts.shape[0])),
            tuple(str(c) for c in range(counts.shape[1])),
            counts,
        )
        _, agreement = best_mapping(cm)
        assert agreement == expected, f"{counts.tolist()} -> {agreement} != {expected}"


@criterion(4, "rollup fixture")
def test_c04_majority_rollups():
    categories = {
        "chief": "adjective", "common": "adjective", "last": "adjective",
        "public": "adjective",
        "bill": "noun", "concern": "noun", "drug": "noun", "interest": "noun",
        "line": "noun",
        "agree": "verb", "close": "verb", "help": "verb", "include": "verb",
    }
    majority = {
        "chief": 0.861, "common": 0.842, "last": 0.940, "public": 0.683,
        "bill": 0.681, "concern": 0.638, "drug": 0.567, "interest": 0.593,
        "line": 0.373,
        "agree": 0.740, "close": 0.771, "help": 0.780, "include": 0.910,
    }
    means, overall = category_rollup(majority, categories)
    assert abs(means["noun"] - 0.570) <= 1e-3
    assert abs(means["adjective"] - 0.832) <= 1e-3
    assert abs(means["verb"] - 0.800) <= 1e-3
    assert abs(overall - 0.734) <= 1e-3


@criterion(5, "clustering oracle equivalence")
def test_c05_merge_traces_match_oracles():
    start = time.perf_counter()
    for case in range(100):
        points, oracle_steps = random_tie_free_points(case, n_max=12, d_max=6)
        result = ward(points, k=1, seed=case)
        assert_same_trace(replay_member_steps(result), oracle_steps)
    for case in range(100):
        cells, oracle_steps = random_tie_free_matrix(case, n_max=12)
        result = mcquitty(sensecluster.DissimilarityMatrix(cells), k=1, seed=case)
        assert_same_trace(replay_member_steps(result), oracle_steps)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


@criterion(6, "EM properties")
def test_c06_em_properties():
    for fixture in range(100):
        rng = np.random.default_rng((6000, fixture))
        q = int(rng.integers(2, 7))
        cards = tuple(int(rng.integers(2, 7)) for _ in range(q))
        n = int(rng.integers(10, 201))
        gen_k = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        separation = float(rng.uniform(0.3, 0.95))
        schema = make_schema(cards)
        data = generate(gen_k, schema, n, separation, seed=int(rng.integers(1 << 31))).matrix

        params = initial_params(data, k, rng)
        params.validate(tol=1e-9)
        prev = -math.inf
        for _ in range(40):
            counts = e_step(params, data)
            assert counts.loglik >= prev - 1e-9
            prev = counts.loglik
            assert np.allclose(counts.posteriors.sum(axis=1), 1.0, atol=1e-9)
            for j, card in enumerate(cards):
                observed = np.bincount(data.values[:, j], minlength=card)
                per_value = split(counts.table, counts.offsets)[j].sum(axis=0)
                assert np.abs(per_value - observed).max() <= 1e-9
            params = m_step(counts, n)
            params.validate(tol=1e-9)


@criterion(7, "synthetic recovery")
def test_c07_synthetic_recovery():
    start = time.perf_counter()
    schema = make_schema((3, 4, 2, 5, 3))
    accuracies = []
    for seed in range(25):
        sample = generate(2, schema, 500, 0.9, seed=seed)
        result = sensecluster.fit(sample.matrix, 2, seed=7000 + seed)
        accuracies.append(mapped_accuracy(sample.labels, result.assignment, 2))
    assert statistics.median(accuracies) >= 0.95, f"median {statistics.median(accuracies)}"

    sample = generate(2, schema, 500, 1.0, seed=123)
    d = build_dissim(sample.matrix)
    for assignment in (
        mcquitty(d, 2, seed=0).assignment,
        ward(row_vectors(d), 2, seed=0).assignment,
        sensecluster.fit(sample.matrix, 2, seed=0).assignment,
    ):
        assert mapped_accuracy(sample.labels, assignment, 2) == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


@criterion(8, "runner determinism")
def test_c08_runner_determinism(tmp_path):
    paths = {}
    for word, category, seed in (("alpha", "noun", 1), ("beta", "verb", 2)):
        sample = synth_sample(word, category, n=20, seed=seed)
        path = tmp_path / f"{word}.jsonl"
        save_corpus(sample, path)
        paths[word] = str(path)

    def run_once(outdir, jobs):
        config = ExperimentConfig(
            corpora=paths,
            feature_sets=("A", "B", "C"),
            algorithms=("mcquitty", "ward", "em"),
            trials=3,
            seed=20_260_808,
            em_max_iter=300,
            output_dir=str(outdir),
        )
        assert run(config, jobs=jobs) == 0
        return (
            (outdir / "results.csv").read_bytes(),
            (outdir / "aggregates.csv").read_bytes(),
        )

    first = run_once(tmp_path / "r1", jobs=1)
    second = run_once(tmp_path / "r2", jobs=1)
    parallel = run_once(tmp_path / "r3", jobs=4)
    assert first == second
    assert first == parallel


@criterion(9, "t-test sanity")
def test_c09_t_test():
    result = t_test([0.4, 0.5, 0.6, 0.7], [0.4, 0.5, 0.6, 0.7])
    assert result.p == 1.0 and result.t == 0.0

    rng = np.random.default_rng(90)
    checked = 0
    while checked < 50:
        na = int(rng.integers(2, 30))
        nb = int(rng.integers(2, 30))
        a = rng.normal(0.6, 0.1, size=na).tolist()
        b = rng.normal(0.55, 0.12, size=nb).tolist()
        result = t_test(a, b)
        if not math.isfinite(result.t):
            continue
        expected = p_value_by_quadrature(result.t, na + nb - 2)
        assert abs(result.p - expected) < 1e-6
        checked += 1


@criterion(10, "unavailable-corpus figures are out of scope")
def test_c10_no_bundled_corpora():
    # The headline per-word accuracy table, the supervised feature-set
    # accuracies and the published confusion matrices as live outputs all
    # require corpora this artifact cannot ship; the mapping and rollup
    # fixtures above verify the evaluation machinery on the published
    # numbers instead. The package must not bundle any stand-in corpus
    # pretending otherwise.
    src = Path(sensecluster.__file__).parent
    bundled = [
        p for p in src.rglob("*")
        if p.suffix in (".jsonl", ".csv", ".txt") and p.name != "py.typed"
    ]
    assert bundled == [], f"unexpected data files in package: {bundled}"
