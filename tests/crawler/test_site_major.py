"""Site-major crawling: one pass under a profile set equals separate crawls.

A profile-set crawl loads each site under every profile back to back.  Each
label's dataset must be byte-identical to a separate single-profile crawl,
in-process, across worker processes and under the supervisor with a poison
site — and a resume from checkpoints that hold a site under some labels but
not others must visit only the missing (site, profile) pairs.

``REPRO_SUPERVISED_JOBS`` scales worker parallelism (default 2; CI runs 4).
"""

import dataclasses
import os

import pytest

from repro import obs
from repro.config import StudyScale
from repro.core.stages import StudyContext
from repro.crawler.shards import (
    ExecutionConfig,
    plan_shards,
    run_sharded_crawl,
    shard_checkpoint_path,
)
from repro.crawler.storage import CheckpointWriter, save_dataset
from repro.crawler.supervisor import (
    QuarantineLedger,
    SupervisorConfig,
    quarantine_ledger_path,
)
from repro.net.faults import FaultConfig, FaultyNetwork
from repro.webgen import build_world

JOBS = int(os.environ.get("REPRO_SUPERVISED_JOBS", "2"))
SITES = 48


@pytest.fixture(scope="module")
def world():
    return build_world(StudyScale(fraction=0.005, seed=2024))


@pytest.fixture(scope="module")
def targets(world):
    return world.all_targets[:SITES]


@pytest.fixture(scope="module")
def profiles(world):
    """The study's three profiles, control first."""
    ctx = StudyContext(
        network=world.network,
        targets=(),
        vendor_knowledge=(),
        easylist_text=world.easylist_text,
        ubo_extra_text=world.ubo_extra_text,
    )
    return (
        ("control", ctx.control_profile()),
        ("abp", ctx.abp_profile()),
        ("ubo", ctx.ubo_profile()),
    )


@pytest.fixture(scope="module")
def reference(world, targets, profiles):
    """Separate in-process crawls, one per profile."""
    return {
        label: run_sharded_crawl(world.network, targets, profile=profile, label=label)
        for label, profile in profiles
    }


class CrashOnce:
    """A network whose first document fetch of ``domain`` kills the process."""

    def __init__(self, inner, domain, marker):
        self.inner = inner
        self.domain = domain
        self.marker = marker

    def fetch(self, request):
        if request.url.host == self.domain and not self.marker.exists():
            self.marker.touch()
            os._exit(137)
        return self.inner.fetch(request)


def supervised():
    return ExecutionConfig(
        jobs=JOBS, supervisor=SupervisorConfig(liveness_deadline_s=30.0, poll_interval_s=0.01)
    )


def dataset_bytes(dataset, directory, name):
    path = directory / f"{name}.jsonl"
    save_dataset(dataset, path)
    return path.read_bytes()


def page_counts(labels):
    return {label: obs.METRICS.counter(f"crawler.pages[{label}]") for label in labels}


def ledger_by_label(directory):
    """Quarantine records per label, without their wall-clock stamps."""
    out = {}
    for record in QuarantineLedger.load(quarantine_ledger_path(directory)).records:
        out.setdefault(record.label, []).append(dataclasses.replace(record, ts=0.0))
    return out


class TestProfileSetEqualsSeparateCrawls:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_datasets_are_byte_identical(self, world, targets, profiles, reference, tmp_path, jobs):
        site_major = run_sharded_crawl(
            world.network, targets, profiles=profiles, execution=ExecutionConfig(jobs=jobs)
        )
        assert list(site_major) == [label for label, _ in profiles]
        for label, _profile in profiles:
            assert site_major[label].label == label
            assert dataset_bytes(site_major[label], tmp_path, f"major-{label}") == dataset_bytes(
                reference[label], tmp_path, f"separate-{label}"
            )

    def test_supervised_poison_quarantines_per_label(self, world, targets, profiles, tmp_path):
        """A worker-crash site gets one quarantine row and one ledger record
        under each label, as the separate crawls give it."""
        poison = targets[5].domain
        network = FaultyNetwork(world.network, FaultConfig(worker_crash_domains=(poison,)))
        separate = {}
        separate_ledgers = {}
        for label, profile in profiles:
            directory = tmp_path / f"separate-{label}"
            separate[label] = run_sharded_crawl(
                network, targets, profile=profile, label=label, shards=2,
                checkpoint_dir=directory, execution=supervised(),
            )
            separate_ledgers.update(ledger_by_label(directory))
        site_major = run_sharded_crawl(
            network, targets, shards=2, checkpoint_dir=tmp_path / "major",
            execution=supervised(), profiles=profiles,
        )
        for label, _profile in profiles:
            assert site_major[label].quarantined_sites() == {poison: "quarantined:exit:137"}
            assert dataset_bytes(site_major[label], tmp_path, f"major-{label}") == dataset_bytes(
                separate[label], tmp_path, f"separate-{label}"
            )
        assert ledger_by_label(tmp_path / "major") == separate_ledgers
        assert sorted(separate_ledgers) == ["abp", "control", "ubo"]

    def test_duplicate_labels_are_rejected(self, world, targets, profiles):
        with pytest.raises(ValueError, match="unique"):
            run_sharded_crawl(world.network, targets[:2], profiles=(profiles[0], profiles[0]))


class TestResumeBetweenProfiles:
    """Checkpoints as a worker killed between two profiles of a site leaves them."""

    def write_rows(self, directory, planned, reference, rows):
        """Persist ``rows[(label, shard)] = [site positions]`` as shard partials."""
        for (label, index), positions in rows.items():
            writer = CheckpointWriter(
                shard_checkpoint_path(directory, label, index, len(planned)), label=label
            )
            by_domain = reference[label].by_domain()
            for position in positions:
                writer.write(by_domain[planned[index][position].domain])
            writer.close()

    def test_resume_loads_only_the_missing_pairs(
        self, world, targets, profiles, reference, tmp_path
    ):
        planned = plan_shards(targets, 2)
        rows = {
            ("control", 0): range(5),
            ("abp", 0): range(4),
            ("ubo", 0): range(3),
            ("control", 1): range(1),
        }
        self.write_rows(tmp_path, planned, reference, rows)
        labels = [label for label, _ in profiles]
        before = page_counts(labels)
        resumed = run_sharded_crawl(
            world.network, targets, shards=2, checkpoint_dir=tmp_path, profiles=profiles
        )
        after = page_counts(labels)
        for label in labels:
            persisted = sum(len(p) for (name, _), p in rows.items() if name == label)
            assert after[label] - before[label] == len(targets) - persisted
            assert dataset_bytes(resumed[label], tmp_path, f"resumed-{label}") == dataset_bytes(
                reference[label], tmp_path, f"reference-{label}"
            )

    def test_bisected_shard_keeps_a_persisted_pair(self, world, targets, profiles, tmp_path):
        """A site persisted under control only, in a shard the supervisor
        bisects: the sub-shard that inherits it crawls only its missing
        profiles, and every pair is counted once."""
        planned = plan_shards(targets, 2)
        poison = planned[0][2].domain
        network = FaultyNetwork(world.network, FaultConfig(worker_crash_domains=(poison,)))
        separate = {
            label: run_sharded_crawl(
                network, targets, profile=profile, label=label, shards=2,
                checkpoint_dir=tmp_path / f"separate-{label}", execution=supervised(),
            )
            for label, profile in profiles
        }
        directory = tmp_path / "major"
        directory.mkdir()
        self.write_rows(directory, planned, separate, {("control", 0): [4]})
        labels = [label for label, _ in profiles]
        before = page_counts(labels)
        site_major = run_sharded_crawl(
            network, targets, shards=2, checkpoint_dir=directory,
            execution=supervised(), profiles=profiles,
        )
        after = page_counts(labels)
        for label in labels:
            assert after[label] - before[label] == len(targets)
            assert dataset_bytes(site_major[label], tmp_path, f"major-{label}") == dataset_bytes(
                separate[label], tmp_path, f"separate-{label}"
            )

    def test_redispatch_resumes_in_a_crawl_started_without_resume(
        self, world, targets, profiles, tmp_path
    ):
        """``resume=False`` ignores an earlier run's files, never this run's:
        a respawned worker still skips the pairs its shard persisted."""
        network = CrashOnce(world.network, targets[6].domain, tmp_path / "crashed")
        labels = [label for label, _ in profiles]
        before = page_counts(labels)
        run_sharded_crawl(
            network, targets, shards=2, checkpoint_dir=tmp_path, resume=False,
            execution=supervised(), profiles=profiles,
        )
        after = page_counts(labels)
        assert all(after[label] - before[label] == len(targets) for label in labels)

