"""Site-major crawling: one pass under a profile set equals separate crawls.

A profile-set crawl loads each site under every profile back to back.  Each
label's dataset must be byte-identical to a separate single-profile crawl,
in-process, across worker processes and under the supervisor with a poison
site — and a resume from checkpoints that hold a site under some labels but
not others must visit only the missing (site, profile) pairs.  A blocker
visit that would cancel nothing replays the control visit instead of
loading the page; one-profile crawls never replay, so they are the oracle.

``REPRO_SUPERVISED_JOBS`` scales worker parallelism (default 2; CI runs 4).
"""

import dataclasses
import os

import pytest

from repro import obs
from repro.browser.browser import Browser
from repro.browser.extensions import Extension
from repro.browser.privacy import CanvasRandomization
from repro.config import StudyScale
from repro.crawler.shards import (
    ExecutionConfig,
    plan_shards,
    run_sharded_crawl,
    shard_checkpoint_path,
)
from repro.browser.profile import BrowserProfile
from repro.crawler.crawl import CrawlTarget
from repro.crawler.resilience import RetryPolicy
from repro.crawler.storage import CheckpointWriter, save_dataset
from repro.crawler.supervisor import (
    QuarantineLedger,
    SupervisorConfig,
    quarantine_ledger_path,
)
from repro.net.faults import FaultConfig, FaultyNetwork
from repro.net.server import Network
from repro.net.url import URL
from repro.webgen import build_world

JOBS = int(os.environ.get("REPRO_SUPERVISED_JOBS", "2"))
SITES = 48

FP_SCRIPT = """
var c = document.createElement('canvas');
c.width = 200; c.height = 40;
var g = c.getContext('2d');
g.fillText('replay probe', 3, 20);
window.__fp = c.toDataURL();
"""
TRACKER = '<html><script src="https://tracker.test/fp.js"></script></html>'


@pytest.fixture(scope="module")
def world():
    return build_world(StudyScale(fraction=0.005, seed=2024))


@pytest.fixture(scope="module")
def targets(world):
    return world.all_targets[:SITES]


@pytest.fixture(scope="module")
def profiles(world):
    """The study's three profiles, control first."""
    config = world.study_config()
    return (
        ("control", config.control_profile()),
        ("abp", config.abp_profile()),
        ("ubo", config.ubo_profile()),
    )


@pytest.fixture(scope="module")
def reference(world, targets, profiles):
    """Separate in-process crawls, one per profile."""
    return {
        label: run_sharded_crawl(world.network, targets, profile=profile, label=label)
        for label, profile in profiles
    }


class BlockHosts(Extension):
    """Cancels every script request to one of ``hosts``."""

    name = "block-hosts"

    def __init__(self, hosts):
        self.hosts = frozenset(hosts)

    def on_request(self, request):
        return request.url.host in self.hosts


@pytest.fixture(scope="module")
def blocking(profiles, reference):
    """Control, Adblock Plus and a blocker of the script hosts other than
    the site itself on the first three sites that load one."""
    hosts = []
    for observation in reference["control"].observations:
        found = {URL.parse(url).host for url in observation.script_sources} - {observation.domain}
        if found and len(hosts) < 3:
            hosts.append(found)
    return profiles[:2] + (("block", profiles[0][1].with_extensions(BlockHosts(set().union(*hosts)))),)


def tracker_sites():
    """Three sites and the tracker script one of them loads on its
    homepage, one on its /login page only, and one nowhere."""
    network = Network()
    network.server_for("tracker.test").add_script("/fp.js", FP_SCRIPT)
    network.server_for("home.test").add_resource("/", TRACKER)
    login = network.server_for("login.test")
    login.add_resource("/", f"<html><script>{FP_SCRIPT}</script></html>")
    login.add_resource("/login", TRACKER)
    network.server_for("clean.test").add_resource("/", f"<html><script>{FP_SCRIPT}</script></html>")
    targets = [
        CrawlTarget(domain, rank, "top")
        for rank, domain in enumerate(("home.test", "login.test", "clean.test"), start=1)
    ]
    return network, targets


def crawl_separately(network, targets, profiles, **kwargs):
    return {
        label: run_sharded_crawl(network, targets, profile=profile, label=label, **kwargs)
        for label, profile in profiles
    }


def cancelling_visits(datasets, labels):
    """Visits that cancel a script, from crawls without faults or retries."""
    return sum(1 for label in labels for o in datasets[label].observations if o.blocked_urls)


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


def replay_counts():
    return tuple(
        obs.METRICS.counter(f"perf.{kind}[crawl.replay]") for kind in ("hits", "misses")
    )


def assert_identical(datasets, expected, tmp_path):
    assert list(datasets) == list(expected)
    for label in expected:
        assert dataset_bytes(datasets[label], tmp_path, f"got-{label}") == dataset_bytes(
            expected[label], tmp_path, f"expected-{label}"
        )


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


def write_rows(directory, planned, reference, rows):
    """Persist ``rows[(label, shard)] = [site positions]`` as shard partials."""
    for (label, index), positions in rows.items():
        writer = CheckpointWriter(
            shard_checkpoint_path(directory, label, index, len(planned)), label=label
        )
        by_domain = reference[label].by_domain()
        for position in positions:
            writer.write(by_domain[planned[index][position].domain])
        writer.close()


class TestResumeBetweenProfiles:
    """Checkpoints as a worker killed between two profiles of a site leaves them."""

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
        write_rows(tmp_path, planned, reference, rows)
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
        write_rows(directory, planned, separate, {("control", 0): [4]})
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



class TestReplay:
    """A blocker visit that would cancel no script request replays the
    control visit of the same site; every other one loads the page."""

    @pytest.mark.parametrize("jobs", [1, JOBS])
    def test_a_blocker_that_cancels_on_some_sites(
        self, world, targets, blocking, tmp_path, jobs
    ):
        separate = crawl_separately(world.network, targets, blocking)
        cancelled = cancelling_visits(separate, ["abp", "block"])
        assert 0 < cancelled < len(targets)
        before = replay_counts()
        site_major = run_sharded_crawl(
            world.network, targets, profiles=blocking, execution=ExecutionConfig(jobs=jobs)
        )
        hits, misses = (a - b for a, b in zip(replay_counts(), before))
        assert_identical(site_major, separate, tmp_path)
        assert (hits, misses) == (2 * len(targets) - cancelled, cancelled)

    @pytest.mark.parametrize("jobs", [1, JOBS])
    def test_faults_retries_and_inner_pages(self, world, targets, blocking, tmp_path, jobs):
        network = FaultyNetwork(world.network, FaultConfig(fault_rate=0.1), seed=7)
        kwargs = dict(retry_policy=RetryPolicy(max_attempts=3), inner_paths=("/login",))
        separate = crawl_separately(network, targets, blocking, **kwargs)
        before = replay_counts()
        site_major = run_sharded_crawl(
            network, targets, profiles=blocking, execution=ExecutionConfig(jobs=jobs), **kwargs
        )
        hits, misses = (a - b for a, b in zip(replay_counts(), before))
        assert_identical(site_major, separate, tmp_path)
        assert hits > 0 and misses > 0 and hits + misses == 2 * len(targets)
        # Some visits retried, and some loaded a /login page.
        assert any(o.recovered for o in separate["abp"].observations)
        assert any(o.success and not o.inner_page_failures for o in separate["abp"].observations)

    @pytest.mark.parametrize(
        "mode, replays",
        [(CanvasRandomization.PER_RENDER, False), (CanvasRandomization.PER_SESSION, True)],
    )
    @pytest.mark.parametrize("jobs", [1, JOBS])
    def test_only_a_mode_without_per_page_state_replays(
        self, world, targets, profiles, tmp_path, mode, replays, jobs
    ):
        modal = tuple(
            (label, dataclasses.replace(profile, privacy_mode=mode))
            for label, profile in profiles
        )
        # PER_RENDER noise depends on the pages each browser saw before, so
        # the separate crawls shard the targets alike.
        execution = ExecutionConfig(jobs=jobs)
        separate = crawl_separately(world.network, targets, modal, execution=execution)
        before = replay_counts()
        site_major = run_sharded_crawl(
            world.network, targets, profiles=modal, execution=execution
        )
        hits, misses = (a - b for a, b in zip(replay_counts(), before))
        assert_identical(site_major, separate, tmp_path)
        assert hits + misses == 2 * len(targets)
        assert (hits > 0) is replays

    @pytest.mark.parametrize("jobs", [1, JOBS])
    @pytest.mark.parametrize(
        "faulted, replayed", [(False, 1), (True, 2)], ids=["unfaulted", "faulted"]
    )
    def test_a_cancel_on_an_inner_page_or_a_retry_loads(self, tmp_path, faulted, replayed, jobs):
        """Every attempt's requests count, inner pages included.  Unfaulted,
        the /login page's tracker is cancelled; faulted, each URL fails its
        first fetch of a visit, so the tracker is first requested by the
        homepage's second attempt, and the /login page never loads."""
        network, targets = tracker_sites()
        if faulted:
            config = FaultConfig(fault_rate=1.0, max_consecutive=1, slow_response_weight=0.0)
            network = FaultyNetwork(network, config, seed=3)
        profiles = (
            ("control", BrowserProfile()),
            ("block", BrowserProfile(extensions=(BlockHosts({"tracker.test"}),))),
        )
        kwargs = dict(retry_policy=RetryPolicy(max_attempts=3), inner_paths=("/login",))
        separate = crawl_separately(network, targets, profiles, **kwargs)
        before = replay_counts()
        site_major = run_sharded_crawl(
            network, targets, profiles=profiles, execution=ExecutionConfig(jobs=jobs), **kwargs
        )
        hits, misses = (a - b for a, b in zip(replay_counts(), before))
        assert_identical(site_major, separate, tmp_path)
        assert (hits, misses) == (replayed, len(targets) - replayed)
        assert all(o.success for o in separate["block"].observations)
        assert separate["block"].by_domain()["home.test"].attempts == 1 + faulted

    def test_loads_and_counters(self, world, targets, blocking, reference, monkeypatch):
        separate = crawl_separately(world.network, targets, blocking)
        cancelled = cancelling_visits(separate, ["abp", "block"])
        loads = []
        load = Browser.load
        monkeypatch.setattr(Browser, "load", lambda self, url: loads.append(url) or load(self, url))
        labels = [label for label, _ in blocking]
        pages, replayed = page_counts(labels), replay_counts()
        site_major = run_sharded_crawl(world.network, targets, profiles=blocking)
        assert len(loads) == len(targets) + cancelled
        # A replayed row shares the control row's records, not its lists.
        for control, abp in zip(site_major["control"].observations, site_major["abp"].observations):
            assert abp.calls is not control.calls and abp.script_sources is not control.script_sources
        assert replay_counts()[0] - replayed[0] == 2 * len(targets) - cancelled
        after = page_counts(labels)
        assert {label: after[label] - pages[label] for label in labels} == dict.fromkeys(
            labels, len(targets)
        )

    def test_resume_with_control_persisted_loads_the_blockers(
        self, world, targets, profiles, reference, tmp_path, monkeypatch
    ):
        """Without the control settle of this pass there is nothing to
        replay: the blocker visits of a persisted control row load."""
        planned = plan_shards(targets, 2)
        rows = {("control", 0): range(5), ("control", 1): range(5)}
        write_rows(tmp_path, planned, reference, rows)
        persisted = {planned[i][p].domain for (_, i), positions in rows.items() for p in positions}
        cancelled = sum(
            1
            for label in ("abp", "ubo")
            for o in reference[label].observations
            if o.blocked_urls and o.domain not in persisted
        )
        loads = []
        load = Browser.load
        monkeypatch.setattr(Browser, "load", lambda self, url: loads.append(url) or load(self, url))
        before = replay_counts()
        resumed = run_sharded_crawl(
            world.network, targets, shards=2, checkpoint_dir=tmp_path, profiles=profiles
        )
        hits, misses = (a - b for a, b in zip(replay_counts(), before))
        assert_identical(resumed, reference, tmp_path)
        assert misses == 2 * len(persisted) + cancelled
        assert hits == 2 * (len(targets) - len(persisted)) - cancelled
        assert len(loads) == len(targets) - len(persisted) + misses
