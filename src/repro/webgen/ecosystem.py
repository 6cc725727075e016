"""World assembly: ranking + plans + servers + DNS + blocklists + demos.

``build_world`` is the single entry point: it samples every site's
composition, registers every origin server / CDN / vendor host / CNAME on
the synthetic network, installs vendor demo pages, and generates the three
blocklists — a complete, crawlable Internet calibrated to the paper.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.blocklists.disconnect import DisconnectList
from repro.config import BENCH_SCALE, PAPER, PaperTargets, StudyScale
from repro.crawler.crawl import CrawlTarget
from repro.net.server import Network
from repro.webgen import scripts as S
from repro.webgen.blocklist_gen import (
    generate_disconnect,
    generate_easylist,
    generate_easyprivacy,
    generate_ubo_extra,
)
from repro.webgen.boutique import BoutiqueCatalog, BoutiqueScript
from repro.webgen.calibration import CalibrationParams, derive_params
from repro.webgen.sites import Deployment, SitePlan, build_homepage_html, plan_site
from repro.webgen.tranco import TrancoRanking
from repro.webgen.vendors import FPJS_ADTECH_HOSTS, VENDOR_SPECS, VENDORS_BY_NAME, ServingMode

__all__ = ["World", "build_world"]


@dataclass
class World:
    """A fully materialized synthetic web."""

    scale: StudyScale
    params: CalibrationParams
    ranking: TrancoRanking
    catalog: BoutiqueCatalog
    network: Network
    top_targets: List[CrawlTarget] = field(default_factory=list)
    tail_targets: List[CrawlTarget] = field(default_factory=list)
    plans: Dict[str, SitePlan] = field(default_factory=dict)
    easylist_text: str = ""
    easyprivacy_text: str = ""
    ubo_extra_text: str = ""
    disconnect: Optional[DisconnectList] = None
    #: vendor name -> demo page URL (Table 3's "Demo" column).
    demo_pages: Dict[str, str] = field(default_factory=dict)
    #: vendor name -> a few advertised customer domains (Table 3's column 2).
    known_customers: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def all_targets(self) -> List[CrawlTarget]:
        return self.top_targets + self.tail_targets

    def vendor_knowledge(self):
        """The public vendor knowledge (A.3 inputs) for this world."""
        from repro.core.pipeline import VendorKnowledge

        out = []
        for spec in VENDOR_SPECS:
            out.append(
                VendorKnowledge(
                    name=spec.name,
                    security=spec.security,
                    demo_url=self.demo_pages.get(spec.name),
                    known_customers=tuple(self.known_customers.get(spec.name, ())),
                    script_pattern=spec.script_pattern,
                    uses_url_regex=spec.per_site,
                )
            )
        return out

    def study_config(self):
        """What the paper's study of this world measures (a
        :class:`~repro.core.stages.study.StudyConfig`); vary it with
        :func:`dataclasses.replace`."""
        from repro.core.stages.study import StudyConfig

        return StudyConfig(
            network=self.network,
            targets=self.all_targets,
            vendor_knowledge=self.vendor_knowledge(),
            easylist_text=self.easylist_text,
            easyprivacy_text=self.easyprivacy_text,
            disconnect=self.disconnect,
            ubo_extra_text=self.ubo_extra_text,
            dns=self.network.dns,
        )

    def run_full_study(
        self,
        include_adblock_crawls: bool = True,
        include_cross_machine: bool = False,
        jobs: int = 1,
        cache_dir=None,
        obs_dir=None,
    ):
        """Convenience: run the paper's whole pipeline over this world."""
        from dataclasses import replace

        from repro.core.pipeline import run_study
        from repro.crawler.shards import ExecutionConfig

        config = replace(
            self.study_config(),
            include_adblock_crawls=include_adblock_crawls,
            include_cross_machine=include_cross_machine,
        )
        return run_study(config, ExecutionConfig(jobs=jobs), cache_dir=cache_dir, obs_dir=obs_dir)

    def ground_truth_fp_sites(self, population: str) -> List[str]:
        """Domains that truly deploy a fingerprinter (for validation only —
        the measurement pipeline never reads this)."""
        return [
            p.domain
            for p in self.plans.values()
            if p.population == population and p.failure is None and p.fingerprints
        ]


def _imperva_token(domain: str) -> str:
    """Imperva-style per-customer script path: bare letters-and-dashes."""
    rng = random.Random(f"imperva:{domain}")
    parts = []
    for _ in range(3):
        parts.append("".join(rng.choice(string.ascii_letters) for _ in range(6)))
    return "-".join(parts)


def build_world(
    scale: StudyScale = BENCH_SCALE,
    paper: PaperTargets = PAPER,
    params: Optional[CalibrationParams] = None,
) -> World:
    """Build the whole synthetic web at the requested scale."""
    params = params or derive_params(paper)
    ranking = TrancoRanking(seed=scale.seed)
    catalog = BoutiqueCatalog(seed=scale.seed ^ 0xB0071)
    network = Network()

    world = World(
        scale=scale,
        params=params,
        ranking=ranking,
        catalog=catalog,
        network=network,
        top_targets=ranking.top(scale.top_sites),
        tail_targets=ranking.tail_sample(scale.tail_sites),
    )

    _register_vendor_hosts(world)
    _register_demo_pages(world)

    for target in world.all_targets:
        plan = plan_site(target, params, catalog, seed=scale.seed)
        world.plans[plan.domain] = plan
        _materialize_site(world, plan)

    _collect_known_customers(world)

    world.easylist_text = generate_easylist(catalog)
    world.easyprivacy_text = generate_easyprivacy(catalog)
    world.ubo_extra_text = generate_ubo_extra(catalog)
    world.disconnect = generate_disconnect(catalog)
    return world


# --- vendor-side infrastructure --------------------------------------------------------


def _vendor_source(name: str, flavor: Optional[str] = None, site_domain: str = "") -> str:
    spec = VENDORS_BY_NAME[name]
    if spec.per_site:
        return spec.source(site_domain)
    if name == "FingerprintJS":
        if flavor == "commercial":
            return spec.source(commercial=True)
        source = spec.source()
        if flavor and flavor not in ("oss", None):
            # Ad-tech self-hosted copy: same draw code (identical canvases),
            # distinct wrapper comment (distinct script bytes).
            return f"/* {flavor} audience integration (bundles fingerprintjs OSS) */\n" + source
        return source
    return spec.source()


def _register_vendor_hosts(world: World) -> None:
    """Vendor origin servers + ad-tech FPJS hosts + CDN copies."""
    net = world.network
    for spec in VENDOR_SPECS:
        if spec.per_site:
            continue
        server = net.server_for(spec.host)
        server.add_script(spec.script_path, _vendor_source(spec.name))
    # Commercial FPJS is a different build on the same CDN host.
    net.server_for("fpnpmcdn.net").add_script(
        "/v4/pro.min.js", _vendor_source("FingerprintJS", "commercial")
    )
    for host, name, _top, _tail in FPJS_ADTECH_HOSTS:
        net.server_for(host).add_script("/fp.min.js", _vendor_source("FingerprintJS", name))
    # Popular-CDN copies (§5.2: fingerprinters use shared CDNs).
    cdn = net.server_for("cdn.jsdelivr.net")
    cdn.add_script("/npm/@fingerprintjs/fingerprintjs@4/dist/fp.min.js", _vendor_source("FingerprintJS"))
    cdn.add_script("/npm/fingerprintjs2@2.1.0/dist/fingerprint2-2.1.0.js", _vendor_source("FingerprintJS (legacy)"))
    cloudflare = net.server_for("cdnjs.cloudflare.com")
    cloudflare.add_script(
        "/ajax/libs/fingerprintjs-pro/3.11.0/fp.min.js", _vendor_source("FingerprintJS", "commercial")
    )
    # Boutique vendor hosts.
    for script in world.catalog:
        net.server_for(script.host).add_script(script.path, script.source)
        cdn.add_script(f"/npm/fp-kit-{script.index:03d}@1/dist{script.path}", script.source)


def _register_demo_pages(world: World) -> None:
    """Public demo pages for Table 3's "Demo" vendors."""
    for spec in VENDOR_SPECS:
        if not spec.has_demo:
            continue
        demo_host = f"demo.{spec.host.split('.', 1)[-1]}"
        server = world.network.server_for(demo_host)
        if spec.name == "FingerprintJS":
            src = f"https://{spec.host}/v4/pro.min.js"
        else:
            src = f"https://{spec.host}{spec.script_path}"
        server.add_resource(
            "/",
            "<html><head><title>{} demo</title></head><body>"
            '<h1>Try our device intelligence</h1><script src="{}"></script>'
            "</body></html>".format(spec.name, src),
        )
        world.demo_pages[spec.name] = f"https://{demo_host}/"


# --- site-side materialization -----------------------------------------------------------


def _materialize_site(world: World, plan: SitePlan) -> None:
    net = world.network
    if plan.failure == "network-error":
        return  # no DNS entry at all

    server = net.server_for(plan.domain)
    if plan.failure == "bot-blocked":
        server.add_resource("/", "<html><body>Access denied (bot check)</body></html>", status=403)
        return
    if plan.failure == "http-error":
        server.add_resource("/", "<html><body>500</body></html>", status=500)
        return

    bundle_parts = [S.analytics_filler_script(plan.rank)]

    for deployment in plan.deployments:
        source = _deployment_source(world, plan, deployment)
        if deployment.serving == ServingMode.FIRST_PARTY_BUNDLE:
            bundle_parts.append(source)
            continue
        deployment.script_src = _install_script(world, plan, deployment, source)

    server.add_script("/assets/app.js", "\n".join(bundle_parts))

    for kind in plan.benign:
        server.add_script(f"/assets/{kind}-check.js", _benign_source(kind, plan.rank))

    server.add_resource("/", build_homepage_html(plan, bundle_has_vendor_code=len(bundle_parts) > 1))

    if plan.login_deployments:
        tags = []
        for deployment in plan.login_deployments:
            source = _deployment_source(world, plan, deployment)
            if deployment.serving == ServingMode.FIRST_PARTY_BUNDLE:
                # Login bundles get their own first-party asset.
                server.add_script("/assets/login.js", source)
                deployment.script_src = "/assets/login.js"
            else:
                deployment.script_src = _install_script(world, plan, deployment, source)
            tags.append(f'<script src="{deployment.script_src}"></script>')
        server.add_resource(
            "/login",
            "<html><head><title>Sign in — {}</title></head><body>"
            '<form id="login"><input name="user"><input name="pass"></form>'
            "{}</body></html>".format(plan.domain, "".join(tags)),
        )


def _deployment_source(world: World, plan: SitePlan, deployment: Deployment) -> str:
    if deployment.kind == "boutique":
        return world.catalog.get(deployment.boutique_index).source
    return _vendor_source(deployment.vendor, deployment.flavor, plan.domain)


def _cloak_alias(net: Network, domain: str, canonical_host: str) -> str:
    """A deterministic per-target CNAME-cloak subdomain on ``domain``."""
    import zlib

    suffix = zlib.crc32(canonical_host.encode()) % 97
    alias = f"metrics-{suffix}.{domain}"
    if not net.has_host(alias):
        net.alias(alias, canonical_host)
    return alias


def _install_script(world: World, plan: SitePlan, deployment: Deployment, source) -> str:
    """Register the script per serving mode; returns the tag's src URL."""
    net = world.network
    domain = plan.domain
    mode = deployment.serving

    if deployment.kind == "boutique":
        script: BoutiqueScript = world.catalog.get(deployment.boutique_index)
        if mode == ServingMode.THIRD_PARTY:
            return f"https://{script.host}{script.path}"
        if mode == ServingMode.CDN:
            return f"https://cdn.jsdelivr.net/npm/fp-kit-{script.index:03d}@1/dist{script.path}"
        if mode == ServingMode.CNAME_CLOAK:
            alias = _cloak_alias(net, domain, script.host)
            return f"https://{alias}{script.path}"
        if mode == ServingMode.SUBDOMAIN:
            sub = net.server_for(f"fp.{domain}")
            sub.add_script(script.path, script.source)
            return f"https://fp.{domain}{script.path}"
        # FIRST_PARTY_PATH
        net.server_for(domain).add_script(script.path, script.source)
        return script.path

    spec = VENDORS_BY_NAME[deployment.vendor]

    if spec.per_site:  # Imperva: first-party bare path, unique per customer
        token = _imperva_token(domain)
        net.server_for(domain).add_script(f"/{token}", source)
        return f"/{token}"

    path = spec.script_path
    if deployment.vendor == "FingerprintJS":
        if deployment.flavor == "commercial":
            path = "/v4/pro.min.js"
        elif deployment.flavor not in ("oss", None):
            host = next(h for h, n, _t, _l in FPJS_ADTECH_HOSTS if n == deployment.flavor)
            return f"https://{host}/fp.min.js"
        else:
            path = "/fp.min.js"

    if mode == ServingMode.THIRD_PARTY:
        if deployment.vendor == "FingerprintJS" and deployment.flavor == "oss":
            # Self-hosters serving off-site use generic static hosting, not
            # the commercial fpnpmcdn.net CDN.
            host = "static.openfp-host.net"
            net.server_for(host).add_script(path, source)
            return f"https://{host}{path}"
        return f"https://{spec.host}{path}"
    if mode == ServingMode.CDN:
        if deployment.vendor == "FingerprintJS" and deployment.flavor == "commercial":
            return "https://cdnjs.cloudflare.com/ajax/libs/fingerprintjs-pro/3.11.0/fp.min.js"
        if deployment.vendor == "FingerprintJS":
            return "https://cdn.jsdelivr.net/npm/@fingerprintjs/fingerprintjs@4/dist/fp.min.js"
        if deployment.vendor == "FingerprintJS (legacy)":
            return "https://cdn.jsdelivr.net/npm/fingerprintjs2@2.1.0/dist/fingerprint2-2.1.0.js"
        cdn_path = f"/npm/{spec.host.split('.')[0]}@1{spec.script_path}"
        net.server_for("cdn.jsdelivr.net").add_script(cdn_path, source)
        return f"https://cdn.jsdelivr.net{cdn_path}"
    if mode == ServingMode.CNAME_CLOAK:
        alias = _cloak_alias(net, domain, spec.host)
        net.server_for(spec.host).add_script(path, source)
        return f"https://{alias}{path}"
    if mode == ServingMode.SUBDOMAIN:
        sub = net.server_for(f"fp.{domain}")
        sub.add_script(path, source)
        return f"https://fp.{domain}{path}"
    # FIRST_PARTY_PATH (e.g. Akamai's /akam/... on the customer domain).
    net.server_for(domain).add_script(path, source)
    return path


def _benign_source(kind: str, seed: int) -> str:
    if kind == "webp":
        return S.webp_check_script()
    if kind == "emoji":
        return S.emoji_check_script()
    if kind == "small":
        # Figure 2's examples: a 12x12 and a 5x5 uniform canvas.
        return S.small_canvas_script(12, "#e6e6e6") + S.small_canvas_script(5, "#0b365f")
    if kind == "animation":
        return S.animation_tool_script(seed)
    if kind == "thumbnail":
        return S.thumbnail_generator_script(seed)
    raise ValueError(f"unknown benign script kind {kind!r}")


def _collect_known_customers(world: World) -> None:
    """Pick a few deployments per vendor as 'advertised customers'."""
    for spec in VENDOR_SPECS:
        if not (spec.has_known_customers or spec.per_site):
            continue
        customers = [
            p.domain
            for p in world.plans.values()
            if p.failure is None
            and any(d.vendor == spec.name for d in p.deployments)
        ][:5]
        if customers:
            world.known_customers[spec.name] = customers
