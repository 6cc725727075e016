"""Full study report: every table, figure and in-text statistic, with a
paper-vs-measured diff against :mod:`repro.config`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.figures import render_figure1, render_figure2
from repro.analysis.tables import table1, table2, table3, table4
from repro.config import PAPER, PaperTargets
from repro.core.detection import FingerprintDetector
from repro.core.pipeline import StudyResult

__all__ = [
    "Comparison",
    "quarantine_table",
    "render_cache_table",
    "run_observability_table",
    "stage_timing_table",
    "study_comparisons",
    "study_report",
]


@dataclass(frozen=True)
class Comparison:
    """One paper-vs-measured line."""

    key: str
    paper_value: float
    measured: float
    kind: str = "fraction"  # fraction | count | ratio

    def fmt(self, value: float) -> str:
        if self.kind == "fraction":
            return f"{value:.1%}"
        if self.kind == "count":
            return f"{value:,.0f}"
        return f"{value:.2f}"

    @property
    def line(self) -> str:
        return f"{self.key:44s} paper {self.fmt(self.paper_value):>10s}   measured {self.fmt(self.measured):>10s}"


def study_comparisons(result: StudyResult, paper: PaperTargets = PAPER) -> List[Comparison]:
    """Every headline number, paper vs measured.

    Rates are compared as rates (scale-invariant); absolute counts are only
    meaningful at full scale.
    """
    p = result.prevalence
    comparisons = [
        Comparison("prevalence (top)", paper.top_prevalence, p.top.prevalence),
        Comparison("prevalence (tail)", paper.tail_prevalence, p.tail.prevalence),
        Comparison(
            "mean fingerprintable canvases per FP site",
            paper.mean_canvases_per_fp_site,
            (p.top.mean_canvases * p.top.fp_sites + p.tail.mean_canvases * p.tail.fp_sites)
            / max(1, p.top.fp_sites + p.tail.fp_sites),
            kind="ratio",
        ),
        Comparison(
            "median canvases per FP site",
            paper.median_canvases_per_fp_site,
            _median(result.prevalence.combined_canvases_per_site),
            kind="ratio",
        ),
        Comparison(
            "fingerprintable fraction of extractions",
            paper.fingerprintable_fraction,
            FingerprintDetector.fingerprintable_fraction(result.outcomes.values()),
        ),
        Comparison("top-6 canvas share (top)", paper.top6_share_top, result.reach.top6_share_top),
        Comparison("top-6 canvas share (tail)", paper.top6_share_tail, result.reach.top6_share_tail),
        Comparison("tail/top canvas overlap", paper.tail_overlap_fraction, result.reach.tail_overlap_fraction),
        Comparison(
            "max single-canvas reach (top)",
            paper.top_canvas_max_sites / paper.top_sites_success,
            result.reach.max_reach_fraction_top,
        ),
        Comparison("render-twice check (FP sites)", paper.render_twice_fraction, result.render_twice),
        Comparison(
            "crawl success rate (top)",
            paper.top_sites_success / paper.top_sites_crawled,
            p.top.sites_successful / max(1, p.top.sites_crawled),
        ),
        Comparison(
            "crawl success rate (tail)",
            paper.tail_sites_success / paper.tail_sites_crawled,
            p.tail.sites_successful / max(1, p.tail.sites_crawled),
        ),
    ]

    fp = result.fp_sites
    fp_top, fp_tail = max(1, len(fp["top"])), max(1, len(fp["tail"]))
    comparisons += [
        Comparison(
            "vendor-attributed share (top)",
            paper.vendor_total_top / paper.top_fp_sites,
            result.vendor_totals.get("top", 0) / fp_top,
        ),
        Comparison(
            "vendor-attributed share (tail)",
            paper.vendor_total_tail / paper.tail_fp_sites,
            result.vendor_totals.get("tail", 0) / fp_tail,
        ),
    ]
    for vendor in paper.vendors:
        counts = result.vendor_counts.get(vendor.name, {})
        comparisons.append(
            Comparison(
                f"vendor share top: {vendor.name}",
                vendor.top / paper.top_fp_sites,
                counts.get("top", 0) / fp_top,
            )
        )

    if result.serving_context is not None:
        sc = result.serving_context
        comparisons += [
            Comparison("first-party-served sites (top)", paper.first_party_fraction[0], sc.first_party_fraction("top")),
            Comparison("first-party-served sites (tail)", paper.first_party_fraction[1], sc.first_party_fraction("tail")),
            Comparison("subdomain-served sites (top)", paper.subdomain_fraction[0], sc.subdomain_fraction("top")),
            Comparison("subdomain-served sites (tail)", paper.subdomain_fraction[1], sc.subdomain_fraction("tail")),
            Comparison("CDN-served sites (top)", paper.cdn_fraction[0], sc.cdn_fraction("top")),
            Comparison("CDN-served sites (tail)", paper.cdn_fraction[1], sc.cdn_fraction("tail")),
        ]

    if result.blocklist_context is not None:
        bc = result.blocklist_context
        totals = bc.totals
        paper_rows = {
            "EasyList": paper.easylist_canvases,
            "EasyPrivacy": paper.easyprivacy_canvases,
            "Disconnect": paper.disconnect_canvases,
            "Any": paper.any_blocklist_canvases,
            "All": paper.all_blocklists_canvases,
        }
        for name, counts in bc.rows().items():
            frac_top, frac_tail = counts.fraction(totals)
            paper_top, paper_tail = paper_rows[name]
            comparisons.append(
                Comparison(
                    f"blocklist coverage top: {name}",
                    paper_top / paper.total_canvases_top,
                    frac_top,
                )
            )
            comparisons.append(
                Comparison(
                    f"blocklist coverage tail: {name}",
                    paper_tail / paper.total_canvases_tail,
                    frac_tail,
                )
            )

    if result.adblock_rows:
        control = result.adblock_rows[0]
        paper_deltas = {
            "Adblock Plus": (paper.adblock_plus_canvases, paper.adblock_plus_sites),
            "UBlock Origin": (paper.ublock_canvases, paper.ublock_sites),
        }
        for row in result.adblock_rows[1:]:
            if row.label not in paper_deltas:
                continue
            (p_canvases, p_sites) = paper_deltas[row.label]
            paper_keep = p_canvases[0] / paper.total_canvases_top
            measured_keep = row.canvases["top"] / max(1, control.canvases["top"])
            comparisons.append(
                Comparison(f"canvases surviving {row.label} (top)", paper_keep, measured_keep)
            )
            paper_keep_sites = p_sites[0] / paper.top_fp_sites
            measured_keep_sites = row.sites["top"] / max(1, control.sites["top"])
            comparisons.append(
                Comparison(f"FP sites surviving {row.label} (top)", paper_keep_sites, measured_keep_sites)
            )

    return comparisons


def _median(values: List[int]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return float(ordered[mid]) if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def stage_timing_table(result: StudyResult) -> str:
    """Per-stage wall time and cache outcome of the pipeline run.

    Empty string when the result carries no timings (e.g. a result that was
    deserialized from disk, or built before the stage-graph pipeline).
    """
    timings = result.stage_timings
    if not timings:
        return ""
    total = sum(t.seconds for t in timings)
    lines = [f"{'stage':18s} {'wall':>9s}  outcome"]
    for t in timings:
        lines.append(f"{t.name:18s} {t.seconds:8.2f}s  {t.status}")
    hits = sum(1 for t in timings if t.cached)
    lines.append(
        f"{'total':18s} {total:8.2f}s  {hits}/{len(timings)} stages from cache"
    )
    return "\n".join(lines)


def render_cache_table(result: StudyResult) -> str:
    """Per-layer cache and timer counters for the study.

    One row per cache layer (whole-canvas render cache, glyph atlas, path
    coverage masks, encode memoization, compiled scripts, static verdicts
    and triage): hit rate, lookup volume, and the rasterization/encode
    seconds the hits are estimated to have saved; then the wall seconds of
    each timer layer.  Empty string when the run recorded no counters (a
    result deserialized from disk).
    """
    from repro.obs.inspect import layer_table

    return "\n".join(layer_table(result.perf_counters))


def run_observability_table(result: StudyResult) -> str:
    """Operational telemetry of the run, from ``StudyResult.metrics``.

    One-line rollups of the unified metrics delta: page loads and retries,
    network traffic and injected faults, stage-cache outcomes.  Empty string
    when the result carries no metrics (deserialized from disk, or built
    before the observability layer).
    """
    counters = dict(result.metrics.get("counters", {}))
    if not counters:
        return ""

    def total(base: str) -> int:
        return int(
            sum(v for name, v in counters.items() if name.startswith(f"{base}["))
        )

    lines = [
        f"page loads: {total('crawler.attempts_total')} attempts over "
        f"{total('crawler.pages')} sites "
        f"({total('crawler.retries')} retries, {total('crawler.recovered')} recovered)",
    ]
    watchdog = total("crawler.watchdog")
    if watchdog:
        lines.append(f"watchdog fires: {watchdog}")
    requests = int(counters.get("net.requests", 0))
    if requests:
        lines.append(
            f"network: {requests} requests, "
            f"{int(counters.get('net.bytes_fetched', 0)):,} bytes, "
            f"{int(counters.get('net.requests_failed', 0))} failed"
        )
    faults = {
        name.split(".", 2)[2]: int(v)
        for name, v in counters.items()
        if name.startswith("net.faults.")
    }
    if faults:
        lines.append(
            "injected faults: "
            + ", ".join(f"{kind}={n}" for kind, n in sorted(faults.items()))
        )
    hits = int(counters.get("stage.cache.hits", 0))
    misses = int(counters.get("stage.cache.misses", 0))
    if hits + misses:
        lines.append(f"stage cache: {hits} hit(s), {misses} miss(es)")
    checkpoints = int(counters.get("crawler.checkpoint_writes", 0))
    if checkpoints:
        lines.append(f"checkpoint writes: {checkpoints}")
    histograms = result.metrics.get("histograms", {})
    if histograms:
        from repro.obs.metrics import Histogram

        rows = []
        for name, data in sorted(histograms.items()):
            hist = Histogram.from_json(data)
            if hist.count:
                rows.append(
                    f"  {name:28s} n={hist.count:<7d} p50={hist.quantile(0.5) * 1000:7.1f}ms "
                    f"p95={hist.quantile(0.95) * 1000:7.1f}ms "
                    f"p99={hist.quantile(0.99) * 1000:7.1f}ms"
                )
        if rows:
            lines.append("latency percentiles (bucket-derived):")
            lines.extend(rows)
    respawns = int(counters.get("supervisor.respawns", 0))
    spawned = int(counters.get("supervisor.workers_spawned", 0))
    if respawns or spawned:
        deaths = {
            name.split("[", 1)[1].rstrip("]"): int(v)
            for name, v in counters.items()
            if name.startswith("supervisor.deaths[")
        }
        death_mix = (
            " (" + ", ".join(f"{sig}={n}" for sig, n in sorted(deaths.items())) + ")"
            if deaths
            else ""
        )
        lines.append(
            f"supervisor: {spawned} worker(s) spawned, {respawns} respawn(s)"
            f"{death_mix}, {int(counters.get('supervisor.splits', 0))} bisection(s), "
            f"{int(counters.get('supervisor.quarantined', 0))} quarantined"
        )
    return "\n".join(lines)


def profile_table(result: StudyResult) -> str:
    """Sampling-profiler self-time rollup for the study run.

    Top self-time by subsystem / stage / site / vendor script, from
    ``StudyResult.profile`` (``REPRO_OBS_PROFILE=1``; merged across every
    shard worker).  The render layers also print the *measured* wall
    seconds from the timed cache counters next to the sampled estimate —
    gross disagreement means the sampler under-observed the run (raise
    ``REPRO_OBS_PROFILE_HZ``).  Empty string when the profiler was off.
    """
    rollup = result.profile
    if not rollup or not rollup.get("samples"):
        return ""
    from repro.obs.inspect import profile_text

    lines = profile_text(rollup, top=5)
    render_measured = sum(
        row["miss_seconds"]
        for layer, row in result.perf_counters.items()
        if not layer.startswith("js.") and layer != "gc"
    )
    sampled = {
        str(row.get("name")): float(row.get("seconds", 0.0))
        for row in rollup.get("by_subsystem", ())
    }
    if render_measured:
        lines.append(
            f"  cross-check: render measured {render_measured:.2f}s (timed) vs "
            f"{sampled.get('render', 0.0):.2f}s (sampled)"
        )
    return "\n".join(lines)


def quarantine_table(result: StudyResult) -> str:
    """Supervisor quarantine accounting: which sites were skipped and why.

    Empty string for unsupervised or fault-free runs.  The coverage-loss
    line makes the degraded-mode cost explicit: prevalence and reach were
    computed over ``planned - quarantined`` sites, and each quarantined row
    names the site so the loss is auditable, never silent.
    """
    quarantined = result.quarantined
    if not quarantined:
        return ""
    by_domain = result.control.by_domain()
    planned = len(result.control.observations)
    lines = [
        f"coverage loss: {len(quarantined)}/{planned} planned site(s) "
        f"({len(quarantined) / max(1, planned):.2%}) quarantined by the shard "
        f"supervisor; all analyses computed over the remaining sites",
    ]
    for domain in sorted(quarantined):
        observation = by_domain.get(domain)
        rank = observation.rank if observation is not None else "?"
        population = observation.population if observation is not None else "?"
        lines.append(
            f"  {domain:32s} rank {rank!s:>6s} ({population:4s})  {quarantined[domain]}"
        )
    return "\n".join(lines)


def static_analysis_table(result: StudyResult) -> str:
    """Static/dynamic cross-validation from the ``static`` stage.

    Cross-tabulates every site's most severe static script classification
    against the dynamic detector's verdict (the agreement matrix), then
    lists what static analysis sees that execution cannot: fingerprinting
    classifications recovered on supervisor-quarantined sites the crawler
    never finished, and static attribution for scripts that died before
    reaching a canvas readout.  Empty string when the result carries no
    static report (stage not run, or deserialized from an older run).
    """
    report = result.static_verdicts
    if report is None or not report.total_scripts:
        return ""
    lines = [
        f"{report.total_scripts} distinct scripts analyzed "
        f"({report.skippable_scripts} provably canvas-inert and skippable)",
        "script classes: "
        + ", ".join(
            f"{name}={count}" for name, count in sorted(report.class_counts.items())
        ),
    ]
    if report.agreement:
        lines.append(
            f"{'site static class':22s} {'dynamic fp':>10s} {'dynamic clean':>13s}"
        )
        for name in sorted(report.agreement):
            row = report.agreement[name]
            lines.append(
                f"{name:22s} {row.get('dynamic-fp', 0):10d} "
                f"{row.get('dynamic-clean', 0):13d}"
            )
        lines.append(f"static/dynamic agreement: {report.agreement_rate():.1%}")
    if report.static_only:
        lines.append("execution-free recoveries on quarantined sites:")
        for domain, reason, classification in report.static_only:
            lines.append(f"  {domain:32s} {classification:22s} ({reason})")
    if report.dead_scripts:
        lines.append("static attribution for scripts that died before a readout:")
        for domain, url, classification in report.dead_scripts:
            lines.append(f"  {domain:24s} {url} -> {classification}")
    return "\n".join(lines)


def study_report(result: StudyResult, paper: PaperTargets = PAPER, include_figures: bool = True) -> str:
    """Render the complete study: tables, figures, paper-vs-measured."""
    sections: List[str] = []

    p = result.prevalence
    sections.append(
        "== Crawl summary ==\n"
        f"top:  {p.top.sites_successful}/{p.top.sites_crawled} crawled successfully, "
        f"{p.top.fp_sites} fingerprinting ({p.top.prevalence:.1%})\n"
        f"tail: {p.tail.sites_successful}/{p.tail.sites_crawled} crawled successfully, "
        f"{p.tail.fp_sites} fingerprinting ({p.tail.prevalence:.1%})\n"
        f"unique fingerprinting canvases: top {result.reach.unique_canvases_top}, "
        f"tail {result.reach.unique_canvases_tail}"
    )
    if result.cross_machine_consistent is not None:
        status = "identical" if result.cross_machine_consistent else "DIFFERENT"
        sections[-1] += f"\ncross-machine canvas groupings (Intel vs M1): {status}"

    health = result.control.health()
    paper_rate = (paper.top_sites_success + paper.tail_sites_success) / max(
        1, paper.top_sites_crawled + paper.tail_sites_crawled
    )
    sections.append(
        "== Crawl health ==\n"
        + health.summary()
        + f"\npaper's crawl kept {paper.top_sites_success:,}/{paper.top_sites_crawled:,} top and "
        f"{paper.tail_sites_success:,}/{paper.tail_sites_crawled:,} tail sites "
        f"({paper_rate:.1%} overall)"
    )

    timing = stage_timing_table(result)
    if timing:
        sections.append("== Pipeline stage timings ==\n" + timing)

    acceleration = render_cache_table(result)
    if acceleration:
        sections.append("== Render-cache acceleration ==\n" + acceleration)

    observability = run_observability_table(result)
    if observability:
        sections.append("== Run observability ==\n" + observability)

    profile = profile_table(result)
    if profile:
        sections.append("== Profile (sampled self-time) ==\n" + profile)

    quarantine = quarantine_table(result)
    if quarantine:
        sections.append("== Quarantined sites ==\n" + quarantine)

    static = static_analysis_table(result)
    if static:
        sections.append("== Static/dynamic cross-validation ==\n" + static)

    _, t1 = table1(result)
    sections.append("== Table 1: sites linked to each vendor ==\n" + t1)

    _, t3 = table3(result.signatures)
    sections.append("== Table 3: attribution methods ==\n" + t3)

    if result.adblock_rows:
        _, t2 = table2(result.adblock_rows)
        sections.append("== Table 2: ad blocker impact ==\n" + t2)

    if result.blocklist_context is not None:
        _, t4 = table4(result.blocklist_context)
        sections.append("== Table 4: blocklist coverage of canvases ==\n" + t4)

    if include_figures:
        sections.append(render_figure1(result, n=20))
        sections.append(render_figure2(result))

    comparisons = study_comparisons(result, paper)
    sections.append(
        "== Paper vs measured ==\n" + "\n".join(c.line for c in comparisons)
    )
    return "\n\n".join(sections)
