"""Slow tier: Ward and McQuitty byte-identity at N = 1000 and N = 2000.

Deselected from the default run; run with ``pytest -m slow`` (about a
minute and a half on two cores). At N = 1000 both methods must reproduce
``reference_agglom``'s full-scan loops exactly. At N = 2000 the
reference takes minutes, so the merge trace and assignment are checked
against SHA-256 digests recorded with the row-at-a-time Ward init and
the row-loop mismatch counts that preceded the Gram product and the
one-hot product.
"""

import hashlib

import pytest

import reference_agglom as reference
from conftest import synth_sample
from sensecluster import agglom
from sensecluster.dissim import build, row_vectors
from sensecluster.features import build_schema, extract
from test_agglom_reference import assert_identical

pytestmark = pytest.mark.slow

# (set, method): (ties drawn, sha256 of merge_trace + assignment), for
# synth_sample("drug", "noun", n=2000, seed=1), k = 2, seed 1
DIGESTS_2000 = {
    ("A", "ward"): (1991, "93052d7fb17796649dd9de0096b88dacdb6f979a04a56fcb086073a3ffb5f213"),
    ("A", "mcquitty"): (1995, "b371b72d4c5e1a35eb0917ff28bc16c224920a13e292d0e1ed9ab393eea8b3e0"),
    ("B", "ward"): (1188, "5e65662f8754110239e74eea76d5aa0b762b89fd9be650653955b091a176e6d8"),
    ("B", "mcquitty"): (1862, "911e4a70494185af56fc6161ebce9f7a7d246766b4ad4a496ed0ebeda414d81c"),
}


def mismatches(n, seed, set_id):
    sample = synth_sample("drug", "noun", n=n, seed=seed)
    return build(extract(sample, build_schema(sample, set_id)))


def digest(result):
    assignment = " ".join(map(str, result.assignment.tolist()))
    return hashlib.sha256((agglom.merge_trace(result) + assignment).encode()).hexdigest()


@pytest.mark.parametrize(
    "seed, set_id",
    [(1, "A"), (2, "A"), (3, "A"), (1, "B"), (2, "B"), (3, "B"), (1, "C")],
)
def test_matches_reference_at_1000(seed, set_id):
    d = mismatches(1000, seed, set_id)
    assert_identical(agglom.mcquitty(d, 2, seed), reference.mcquitty(d, 2, seed))
    points = row_vectors(d)
    assert_identical(agglom.ward(points, 2, seed), reference.ward(points, 2, seed))


@pytest.mark.parametrize("set_id", ["A", "B"])
def test_matches_recorded_digests_at_2000(set_id):
    d = mismatches(2000, 1, set_id)
    for method, result in (
        ("ward", agglom.ward(row_vectors(d), 2, 1)),
        ("mcquitty", agglom.mcquitty(d, 2, 1)),
    ):
        assert (result.ties_drawn, digest(result)) == DIGESTS_2000[set_id, method]
