"""Slow tier: Ward and McQuitty byte-identity at N = 1000 and N = 2000,
and an exact tie oracle at N = 300.

Deselected from the default run; run with ``pytest -m slow``. At
N = 1000 both methods must reproduce ``reference_agglom``'s full-scan
loops exactly. At N = 2000 the reference takes minutes, so the tie
counts and the SHA-256 digests of merge trace and assignment are checked
against those ``bench/stages.py`` records in ``BENCH_stages.json``, for
the same sample, k and seed. At N = 300 every pick of both pick paths is
checked against exact rational criteria.
"""

import json
from pathlib import Path

import pytest

import reference_agglom as reference
from conftest import digest, synth_sample
from sensecluster import agglom
from sensecluster.dissim import build, row_vectors
from sensecluster.features import build_schema, extract
from test_agglom_reference import ExactCriteria, assert_identical

pytestmark = pytest.mark.slow

RECORDED = json.loads((Path(__file__).resolve().parent.parent / "BENCH_stages.json").read_text())


def mismatches(n, seed, set_id):
    sample = synth_sample("drug", "noun", n=n, seed=seed)
    return build(extract(sample, build_schema(sample, set_id)))


@pytest.mark.parametrize(
    "seed, set_id",
    [(1, "A"), (2, "A"), (3, "A"), (1, "B"), (2, "B"), (3, "B"), (1, "C")],
)
def test_matches_reference_at_1000(seed, set_id):
    d = mismatches(1000, seed, set_id)
    assert_identical(agglom.mcquitty(d, 2, seed), reference.mcquitty(d, 2, seed))
    points = row_vectors(d)
    assert_identical(agglom.ward(points, 2, seed), reference.ward(points, 2, seed))


@pytest.mark.parametrize("set_id", ["A", "B", "C"])
def test_matches_recorded_digests_at_2000(set_id):
    assert RECORDED["sample"] == {"word": "drug", "category": "noun", "seed": 1}
    assert (RECORDED["k"], RECORDED["seed"]) == (2, 1)
    recorded = RECORDED["sizes"]["2000"]["sets"][set_id]
    d = mismatches(2000, 1, set_id)
    for method, result in (
        ("ward", agglom.ward(row_vectors(d), 2, 1)),
        ("mcquitty", agglom.mcquitty(d, 2, 1)),
    ):
        expected = recorded[f"{method}_ties_drawn"], recorded[f"{method}_sha256"]
        assert (result.ties_drawn, digest(result, agglom.merge_trace(result))) == expected


@pytest.mark.parametrize("cache_above", [agglom.CACHE_ABOVE, 2], ids=["default", "cache2"])
@pytest.mark.parametrize("set_id", ["A", "B", "C"])
@pytest.mark.parametrize("method", [agglom.ward, agglom.mcquitty], ids=["ward", "mcquitty"])
def test_float_ties_are_the_exact_ties_at_300(method, set_id, cache_above, monkeypatch):
    """At every pick, by the full scan and by the cache, the pairs within
    TIE_TOL of the float minimum are exactly the pairs at the exact
    minimum, among the pairs within 1e-6 of it."""
    d = mismatches(300, 1, set_id)
    drive, scan, cached = agglom._agglomerate, agglom._pick_min_pair, agglom._MinCache.pick
    exact_criteria = ExactCriteria(method, d.cells)
    seen = {"picks": 0}

    def check(block):
        exact = exact_criteria(block, seen["state"])
        low = min(exact.values())
        tied = {pair for pair in exact if block[pair] <= block.min() + agglom.TIE_TOL}
        assert tied == {pair for pair, value in exact.items() if value == low}
        seen["picks"] += 1

    def spy_drive(crit, k, merge, state):
        seen["state"], seen["replayed"] = state, len(state.merges)
        return drive(crit, k, merge, state)

    def spy_scan(crit, rng):
        check(crit)
        return scan(crit, rng)

    def spy_cached(cache, m, rng):
        check(cache.crit[:m, :m])
        return cached(cache, m, rng)

    monkeypatch.setattr(agglom, "CACHE_ABOVE", cache_above)
    monkeypatch.setattr(agglom, "_agglomerate", spy_drive)
    monkeypatch.setattr(agglom, "_pick_min_pair", spy_scan)
    monkeypatch.setattr(agglom._MinCache, "pick", spy_cached)
    result = method(d if method is agglom.mcquitty else row_vectors(d), 2, 1)
    assert seen["picks"] == len(result.merges) - seen["replayed"] > 0
