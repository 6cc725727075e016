"""Pages die by reference count: nothing of a page outlives its visit.

The collector closes every page it loads (``Page.close``), so with the
cyclic collector switched off no page, realm, DOM or canvas object may
survive the ``collect()`` call that created it.  ``run_crawl`` runs its loop
under its own collector thresholds and must restore the caller's however
the loop ends.
"""

import gc
import weakref

import pytest

from repro.browser.bindings import JSCanvasElement, JSContext2D
from repro.browser.browser import Browser, Page
from repro.canvas.context2d import CanvasRenderingContext2D
from repro.canvas.element import HTMLCanvasElement
from repro.canvas.surface import Surface
from repro.config import StudyScale
from repro.crawler import crawl
from repro.crawler.collector import CanvasCollector
from repro.dom.document import Document
from repro.js.interpreter import Interpreter
from repro.webgen import build_world

TRACKED = (
    Page,
    Interpreter,
    Document,
    JSCanvasElement,
    JSContext2D,
    HTMLCanvasElement,
    CanvasRenderingContext2D,
    Surface,
)


@pytest.fixture(scope="module")
def world():
    return build_world(StudyScale(fraction=0.02, seed=4711))


@pytest.fixture
def births(monkeypatch):
    """(class name, weak reference) of every tracked object created from now on."""
    refs = []

    def watch(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            refs.append((cls.__name__, weakref.ref(self)))

        monkeypatch.setattr(cls, "__init__", init)

    for cls in TRACKED:
        watch(cls)
    return refs


def _targets(world):
    """Fingerprinting sites, failing sites, login-page sites and a few others."""
    plans = world.plans
    fingerprinting = set(world.ground_truth_fp_sites("top")) | set(
        world.ground_truth_fp_sites("tail")
    )
    picked = (
        [t for t in world.all_targets if t.domain in fingerprinting][:6]
        + [t for t in world.all_targets if plans[t.domain].failure is not None][:3]
        + [t for t in world.all_targets if plans[t.domain].login_deployments][:3]
        + world.all_targets[:10]
    )
    return list({t.domain: t for t in picked}.values())


def test_no_page_object_outlives_its_collect_call(world, births):
    collector = CanvasCollector(Browser(world.network), inner_paths=("/login",))
    seen, extractions, failures = set(), 0, 0
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for target in _targets(world):
            observation = collector.collect(target.domain, target.rank, target.population)
            extractions += len(observation.extractions)
            failures += not observation.success
            seen.update(name for name, _ref in births)
            alive = sorted({name for name, ref in births if ref() is not None})
            assert not alive, f"{target.domain}: {alive} outlived collect()"
            births.clear()
    finally:
        if was_enabled:
            gc.enable()
    assert extractions and failures
    assert seen == {cls.__name__ for cls in TRACKED}


def test_run_crawl_restores_collector_thresholds(world):
    targets = world.all_targets[:3]
    original = gc.get_threshold()
    gc.set_threshold(701, 11, 12)
    try:
        during = []
        crawl.run_crawl(
            world.network, targets, progress=lambda i, o: during.append(gc.get_threshold())
        )
        assert during == [crawl._CRAWL_GC_THRESHOLD] * len(targets)
        assert gc.get_threshold() == (701, 11, 12)

        def fail(index, observation):
            raise RuntimeError("progress callback failed")

        with pytest.raises(RuntimeError):
            crawl.run_crawl(world.network, targets, progress=fail)
        assert gc.get_threshold() == (701, 11, 12)
    finally:
        gc.set_threshold(*original)
