"""Determinism guarantees: the entire stack must be reproducible bit-for-bit.

The paper's methodology depends on determinism at several levels (identical
canvases across sites, stable fingerprints across visits); the reproduction
additionally promises identical *studies* across runs for a fixed seed.
"""

from repro.config import StudyScale
from repro.crawler import run_crawl
from repro.webgen import build_world


def _crawl_digest(world, n=150):
    dataset = run_crawl(world.network, world.all_targets[:n], label="det")
    digest = []
    for obs in dataset.observations:
        digest.append(
            (
                obs.domain,
                obs.success,
                obs.failure_reason,
                tuple(e.canvas_hash for e in obs.extractions),
                tuple((c.method, c.t_ms) for c in obs.calls),
            )
        )
    return digest


class TestDeterminism:
    def test_same_seed_same_world(self):
        scale = StudyScale(fraction=0.01, seed=555)
        a, b = build_world(scale), build_world(scale)
        assert {d: p.failure for d, p in a.plans.items()} == {
            d: p.failure for d, p in b.plans.items()
        }
        for domain in a.plans:
            pa, pb = a.plans[domain], b.plans[domain]
            assert [(d.kind, d.vendor, d.boutique_index, d.serving, d.gating) for d in pa.deployments] == [
                (d.kind, d.vendor, d.boutique_index, d.serving, d.gating) for d in pb.deployments
            ]
            assert pa.benign == pb.benign
        assert a.easylist_text == b.easylist_text
        assert a.disconnect.domains() == b.disconnect.domains()

    def test_same_world_same_crawl(self):
        scale = StudyScale(fraction=0.01, seed=556)
        world = build_world(scale)
        assert _crawl_digest(world) == _crawl_digest(world)

    def test_two_worlds_same_crawl_digest(self):
        scale = StudyScale(fraction=0.01, seed=557)
        a = _crawl_digest(build_world(scale))
        b = _crawl_digest(build_world(scale))
        assert a == b

    def test_different_seed_different_world(self):
        a = build_world(StudyScale(fraction=0.01, seed=1))
        b = build_world(StudyScale(fraction=0.01, seed=2))
        assert set(a.plans) != set(b.plans)


class TestGoldenDigest:
    """The science of a reduced-scale study, pinned to one hash.

    ``perfbench.gate.science_digest`` hashes every ``compare=True`` field of
    :class:`~repro.core.pipeline.StudyResult`, so this test and the
    benchmark's gate check the same thing.  A change that alters any
    dataset, detection, attribution or table at this scale changes the
    digest.
    """

    def test_scale_0_04_study_digest(self):
        from perfbench.gate import science_digest

        world = build_world(StudyScale(fraction=0.04, seed=20250504))
        result = world.run_full_study(
            include_adblock_crawls=True, include_cross_machine=True, jobs=1
        )
        assert (
            science_digest(result)
            == "ad439b6e0a88a2569467adcbfaad9a0d8427e09767c311b474ce7799087da019"
        )
