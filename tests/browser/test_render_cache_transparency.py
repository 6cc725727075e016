"""Property test: render caching is invisible to every fingerprinting vendor.

For each of the thirteen vendor scripts the study deploys, the extractions a
page produces must be byte-identical whether the render caches are disabled,
cold, or warm — otherwise caching would perturb canvas hashes and corrupt
every downstream clustering/attribution result.  A warm re-crawl of the same
page must also actually *hit* the whole-canvas cache (the speedup exists).
"""

import pytest

from repro import obs, perf
from repro.browser import Browser
from repro.net import Network
from repro.obs.metrics import layer_rows
from repro.webgen.vendors import VENDOR_SPECS

CUSTOMER = "customer.example"


@pytest.fixture(autouse=True)
def cache_sandbox():
    saved = perf.config()
    perf.configure(perf.RenderCacheConfig())
    perf.reset_all()
    yield
    perf.configure(saved)
    perf.reset_all()


def load_vendor(spec):
    net = Network()
    site = net.server_for(CUSTOMER)
    site.add_resource("/", "<script src='/fp.js'></script>")
    source = spec.source(CUSTOMER) if spec.per_site else spec.source()
    site.add_script("/fp.js", source)
    page = Browser(net).load(f"https://{CUSTOMER}/")
    return tuple((e.mime, e.data_url) for e in page.instrument.extractions)


@pytest.mark.parametrize("spec", VENDOR_SPECS, ids=[s.name for s in VENDOR_SPECS])
def test_vendor_extractions_cache_transparent(spec):
    perf.configure(perf.RenderCacheConfig(enabled=False))
    disabled = load_vendor(spec)
    assert len(disabled) == spec.extractions

    perf.configure(perf.RenderCacheConfig())
    perf.reset_all()
    cold = load_vendor(spec)
    warm = load_vendor(spec)

    assert disabled == cold, f"{spec.name}: cold cached render diverged"
    assert disabled == warm, f"{spec.name}: warm cached render diverged"
    snap = layer_rows(obs.METRICS.snapshot())
    assert snap.get("render_cache", {}).get("hits", 0) >= 1, (
        f"{spec.name}: warm re-crawl never hit the render cache"
    )


def test_render_twice_vendors_still_consistent():
    """§5.3 consistency checks (same canvas rendered twice in one page)
    compare equal with caching on — and the second render is a cache hit."""
    double = [s for s in VENDOR_SPECS if s.double_render]
    assert double, "expected at least one render-twice vendor"
    for spec in double[:2]:
        perf.reset_all()
        load_vendor(spec)
        assert layer_rows(obs.METRICS.snapshot())["render_cache"]["hits"] >= 1
