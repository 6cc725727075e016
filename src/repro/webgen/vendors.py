"""The thirteen fingerprinting vendors of Table 1 / Table 3.

Each :class:`VendorSpec` bundles what the synthetic web needs to deploy the
vendor (script source, canonical host, serving-mode mix) and what the
attribution methodology needs to identify it (demo page, known customers,
script URL pattern) plus its blocklist exposure (§5.1 / Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.webgen import scripts as S

__all__ = ["VendorSpec", "VENDOR_SPECS", "ServingMode"]


class ServingMode:
    """How a vendor deployment serves its script on a customer site."""

    THIRD_PARTY = "third-party"          # from the vendor's own domain
    FIRST_PARTY_BUNDLE = "bundle"        # concatenated into the site's app.js
    FIRST_PARTY_PATH = "first-party"     # from the customer domain (vendor path)
    SUBDOMAIN = "subdomain"              # from a delegated customer subdomain
    CNAME_CLOAK = "cname"                # customer subdomain CNAMEd to vendor
    CDN = "cdn"                          # from a popular shared CDN

    ALL = (THIRD_PARTY, FIRST_PARTY_BUNDLE, FIRST_PARTY_PATH, SUBDOMAIN, CNAME_CLOAK, CDN)


@dataclass(frozen=True)
class VendorSpec:
    """Ground-truth definition of one fingerprinting vendor."""

    name: str
    security: bool
    #: The vendor's own serving host (third-party deployments + demo).
    host: str
    #: Path of the fingerprinting script on serving hosts.
    script_path: str
    #: Script source; ``per_site=True`` sources take the customer domain.
    source: Callable[..., str] = None
    per_site: bool = False
    #: Number of toDataURL extractions one execution performs.
    extractions: int = 1
    #: Does the script run the render-twice inconsistency check (§5.3)?
    double_render: bool = False
    #: Attribution ground truth (Table 3).
    has_demo: bool = False
    has_known_customers: bool = False
    script_pattern: Optional[str] = None
    #: serving mode -> probability, per population ("top"/"tail").
    serving_mix: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Blocklist exposure: which lists carry rules/entries for this vendor,
    #: and whether the EasyList rule actually works on script requests.
    in_easylist: bool = False
    easylist_rule_broken: bool = False    # $document / $domain= misdesign (A.6)
    in_easyprivacy: bool = False
    easyprivacy_rule_broken: bool = False
    in_disconnect: bool = False


def _mix(top: Dict[str, float], tail: Optional[Dict[str, float]] = None) -> Dict[str, Dict[str, float]]:
    return {"top": top, "tail": tail if tail is not None else dict(top)}


_FPJS_PANGRAM = "Cwm fjordbank glyphs vext quiz"
_FPJS_LEGACY_PANGRAM = "Cwm fjordbank gly"


def _fpjs_source(commercial: bool = False) -> str:
    src = S.combined_fingerprint_script(
        _FPJS_PANGRAM,
        "#f60",
        "#069",
        font="11pt Arial",
        hue_offset=0,
        double_render=True,
        vendor="FingerprintJS" if not commercial else "Fingerprint Pro",
    )
    if commercial:
        # The commercial build probes additional surfaces (mathML, WebGL
        # identity) — how the paper distinguishes it from the OSS build.
        src += (
            "var __mathmlProbe = Math.tan(-1e300) + '' + Math.pow(Math.PI, -100);\n"
            "var __glProbe = (function() {\n"
            "  var gl = document.createElement('canvas').getContext('webgl');\n"
            "  if (!gl) { return 'no-webgl'; }\n"
            "  var info = gl.getExtension('WEBGL_debug_renderer_info');\n"
            "  return gl.getParameter(info.UNMASKED_VENDOR_WEBGL) + '~' +\n"
            "         gl.getParameter(info.UNMASKED_RENDERER_WEBGL);\n"
            "})();\n"
            "var __proVersion = 'fp-pro-3.11';\n"
        )
    return src


VENDOR_SPECS: Tuple[VendorSpec, ...] = (
    VendorSpec(
        name="Akamai",
        security=True,
        host="akam-sensor.akamai.com",
        script_path="/akam/13/7a6b9f2e",
        source=lambda: S.text_fingerprint_script(
            "Soft glyphs vex bank DMZ quartz jock 1.7",
            "#281",
            "#705",
            font="14px Arial",
            width=280,
            height=50,
            vendor="Akamai Bot Manager",
        ),
        extractions=1,
        has_known_customers=True,
        script_pattern="/akam/",
        # Bot Manager is deployed on the customer's own domain: that is the
        # first-party exception that defeats EasyList's matching rule (§5.2).
        serving_mix=_mix({ServingMode.FIRST_PARTY_PATH: 1.0}),
        in_easylist=True,
        in_easyprivacy=True,
    ),
    VendorSpec(
        name="FingerprintJS",
        security=False,
        host="fpnpmcdn.net",
        script_path="/v4/fp.min.js",
        source=_fpjs_source,
        extractions=3,  # text twice (consistency check) + geometry
        double_render=True,
        has_demo=True,
        has_known_customers=True,
        script_pattern="fpnpmcdn.net",
        serving_mix=_mix(
            {
                ServingMode.FIRST_PARTY_BUNDLE: 0.38,
                ServingMode.THIRD_PARTY: 0.28,
                ServingMode.SUBDOMAIN: 0.22,
                ServingMode.CDN: 0.07,
                ServingMode.CNAME_CLOAK: 0.05,
            },
            {
                ServingMode.FIRST_PARTY_BUNDLE: 0.52,
                ServingMode.THIRD_PARTY: 0.33,
                ServingMode.SUBDOMAIN: 0.04,
                ServingMode.CDN: 0.08,
                ServingMode.CNAME_CLOAK: 0.03,
            },
        ),
        in_easylist=True,
        easylist_rule_broken=True,  # $domain=-scoped rule: listed, rarely blocks
        in_easyprivacy=True,
        in_disconnect=True,
    ),
    VendorSpec(
        name="mail.ru",
        security=False,
        host="privacy-cs.mail.ru",
        script_path="/counter/tmr.js",
        source=lambda: S.text_fingerprint_script(
            "\\u041c\\u0435\\u0442\\u0440\\u0438\\u043a\\u0430 glyphs 3.14",
            "#d33",
            "#226",
            font="12pt Arial",
            width=260,
            height=56,
            double_render=True,
            vendor="Mail.Ru Group",
        )
        + S.geometry_fingerprint_script(90, vendor=None, result_var="__tmrGeom"),
        extractions=3,  # text twice (consistency check) + geometry
        double_render=True,
        script_pattern="privacy-cs.mail.ru",
        serving_mix=_mix({ServingMode.THIRD_PARTY: 1.0}),
        # Listed everywhere, but the EasyList/EasyPrivacy rules carry
        # breakage-avoidance $domain= restrictions: statically listed (§5.1,
        # Table 4 "All"), practically unblocked (§5.2, Table 2).
        in_easylist=True,
        easylist_rule_broken=True,
        in_easyprivacy=True,
        easyprivacy_rule_broken=True,
        in_disconnect=True,
    ),
    VendorSpec(
        name="FingerprintJS (legacy)",
        security=False,
        host="cdn.fplegacy.net",
        script_path="/fingerprint2-2.1.0.js",
        source=lambda: S.text_fingerprint_script(
            _FPJS_LEGACY_PANGRAM,
            "#f60",
            "#069",
            font="11pt no-real-font-123",
            width=240,
            height=60,
            double_render=True,
            emoji="\\ud83d\\ude03",
            vendor="Valve fingerprintjs2",
        )
        + S.geometry_fingerprint_script(301, vendor=None, result_var="__f2Geom"),
        extractions=3,  # text twice (consistency check) + geometry
        double_render=True,
        has_known_customers=True,
        script_pattern="fingerprint2",
        serving_mix=_mix(
            {
                ServingMode.FIRST_PARTY_BUNDLE: 0.45,
                ServingMode.THIRD_PARTY: 0.30,
                ServingMode.SUBDOMAIN: 0.15,
                ServingMode.CDN: 0.10,
            },
            {
                ServingMode.FIRST_PARTY_BUNDLE: 0.55,
                ServingMode.THIRD_PARTY: 0.35,
                ServingMode.SUBDOMAIN: 0.02,
                ServingMode.CDN: 0.08,
            },
        ),
        in_easyprivacy=True,
    ),
    VendorSpec(
        name="Imperva",
        security=True,
        host="imperva-incapsula.net",
        script_path="",  # per-site bare path, see ecosystem
        source=S.imperva_script,
        per_site=True,
        extractions=1,
        script_pattern=None,  # identified via the Table 3 URL regex instead
        serving_mix=_mix({ServingMode.FIRST_PARTY_PATH: 1.0}),
    ),
    VendorSpec(
        name="AWS Firewall",
        security=True,
        host="token.awswaf.com",
        script_path="/challenge.js",
        source=lambda: S.text_fingerprint_script(
            "awswaf integrity 7Kq zephyr blow vex",
            "#f90",
            "#232f3e",
            font="13px Arial",
            width=250,
            height=48,
            vendor="AWS WAF",
        )
        + S.geometry_fingerprint_script(53, vendor=None, result_var="__wafGeom"),
        extractions=2,
        has_demo=False,
        script_pattern="awswaf.com",
        serving_mix=_mix({ServingMode.THIRD_PARTY: 0.85, ServingMode.SUBDOMAIN: 0.15}),
    ),
    VendorSpec(
        name="InsurAds",
        security=False,
        host="cdn.insurads.com",
        script_path="/attention.js",
        source=lambda: S.text_fingerprint_script(
            "InsurAds attention quality zephyr 42",
            "#0aa",
            "#333",
            font="12px Arial",
            width=230,
            height=44,
            vendor="InsurAds",
        )
        + S.geometry_fingerprint_script(71, vendor=None, result_var="__insGeom"),
        extractions=2,
        has_demo=True,
        script_pattern="insurads.com",
        serving_mix=_mix({ServingMode.THIRD_PARTY: 1.0}),
        in_easylist=True,
    ),
    VendorSpec(
        name="Signifyd",
        security=True,
        host="cdn-scripts.signifyd.com",
        script_path="/fraud-beacon.js",
        source=lambda: S.text_fingerprint_script(
            "Signifyd guaranteed fraud Qx vellum 9",
            "#43b02a",
            "#1d252c",
            font="12px Arial",
            width=244,
            height=46,
            vendor="Signifyd",
        )
        + S.geometry_fingerprint_script(101, vendor=None, result_var="__sigGeom"),
        extractions=2,
        has_known_customers=True,
        script_pattern="signifyd.com",
        serving_mix=_mix({ServingMode.THIRD_PARTY: 0.8, ServingMode.SUBDOMAIN: 0.2}),
        in_easyprivacy=True,
    ),
    VendorSpec(
        name="PerimeterX",
        security=True,
        host="client.px-cloud.net",
        script_path="/main.min.js",
        source=lambda: S.text_fingerprint_script(
            "PX bot defender jq glyph vexes 0x7f",
            "#e8443a",
            "#2b2b2b",
            font="13px Arial",
            width=252,
            height=50,
            vendor="PerimeterX",
        )
        + S.geometry_fingerprint_script(139, vendor=None, result_var="__pxGeom"),
        extractions=2,
        has_demo=True,
        script_pattern="px-cloud.net",
        serving_mix=_mix({ServingMode.THIRD_PARTY: 0.6, ServingMode.SUBDOMAIN: 0.4}),
        in_easyprivacy=True,
        in_disconnect=True,
    ),
    VendorSpec(
        name="Sift Science",
        security=True,
        host="cdn.sift.com",
        script_path="/s.js",
        source=lambda: S.text_fingerprint_script(
            "Sift digital trust jackdaws vex 88",
            "#2a5db0",
            "#11203a",
            font="12px Arial",
            width=236,
            height=46,
            vendor="Sift",
        )
        + S.geometry_fingerprint_script(167, vendor=None, result_var="__siftGeom"),
        extractions=2,
        has_demo=True,
        script_pattern="sift.com",
        serving_mix=_mix({ServingMode.THIRD_PARTY: 1.0}),
        in_easyprivacy=True,
        in_disconnect=True,
    ),
    VendorSpec(
        name="Shopify",
        security=False,
        host="cdn.shopifycloud.com",
        script_path="/perf-kit/shop.js",
        source=lambda: S.text_fingerprint_script(
            "Shopify storefront perf beacon zX2",
            "#95bf47",
            "#212b36",
            font="12px Arial",
            width=248,
            height=44,
            vendor="Shopify performance",
        )
        + S.geometry_fingerprint_script(211, vendor=None, result_var="__shopGeom"),
        extractions=2,
        has_known_customers=True,
        script_pattern="shopifycloud",
        serving_mix=_mix({ServingMode.THIRD_PARTY: 1.0}),
    ),
    VendorSpec(
        name="Adscore",
        security=True,
        host="js.adsco.re",
        script_path="/sdk.js",
        source=lambda: S.text_fingerprint_script(
            "Adscore invalid traffic quartz jib 5",
            "#ff5400",
            "#20262e",
            font="12px Arial",
            width=240,
            height=46,
            vendor="Adscore",
        )
        + S.geometry_fingerprint_script(197, vendor=None, result_var="__adsGeom"),
        extractions=2,
        has_demo=True,
        script_pattern="adsco.re",
        serving_mix=_mix({ServingMode.THIRD_PARTY: 1.0}),
        in_easylist=True,
        in_disconnect=True,
    ),
    VendorSpec(
        name="GeeTest",
        security=True,
        host="static.geetest.com",
        script_path="/static/js/gt.js",
        source=lambda: S.text_fingerprint_script(
            "GeeTest captcha vortex quiz jmp 3",
            "#3c6af0",
            "#222a3f",
            font="12px Arial",
            width=238,
            height=46,
            vendor="GeeTest",
        )
        + S.geometry_fingerprint_script(223, vendor=None, result_var="__gtGeom"),
        extractions=2,
        has_demo=True,
        script_pattern="geetest.com",
        serving_mix=_mix({ServingMode.THIRD_PARTY: 1.0}),
    ),
)

VENDORS_BY_NAME: Dict[str, VendorSpec] = {v.name: v for v in VENDOR_SPECS}


#: Ad-tech companies that self-host the open-source FingerprintJS build
#: (§4.3.1): host -> (name, top-site share of FPJS deployments, tail share).
FPJS_ADTECH_HOSTS: Tuple[Tuple[str, str, float, float], ...] = (
    ("js.aldata-media.com", "AIdata", 0.087, 0.034),
    ("cdn.adskeeper.com", "adskeeper", 0.022, 0.020),
    ("static.trafficjunky.net", "trafficjunky", 0.015, 0.003),
    ("widgets.mgid.com", "MGID", 0.050, 0.057),
    ("collect.acint.net", "acint.net", 0.039, 0.097),
)
