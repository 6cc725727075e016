"""Content fingerprints for stage cache keys.

A stage's cache key must change exactly when its output could change:
different crawl targets, a different browser profile, different blocklists,
a different synthetic network — and nothing else (in particular, *not* the
worker count used to execute it).  This module turns each of those inputs
into a deterministic JSON payload and hashes it.

The network fingerprint is genuinely content-addressed: it walks every DNS
record and every served resource body, so two worlds built from the same
scale and seed hash identically while any change to a script or route
invalidates exactly the crawl stages that would observe it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from enum import Enum
from typing import Any, Iterable, Optional, Sequence

__all__ = [
    "stable_hash",
    "fingerprint_text",
    "fingerprint_network",
    "fingerprint_profile",
    "fingerprint_targets",
    "fingerprint_policy",
    "fingerprint_vendor_knowledge",
    "fingerprint_dns",
]


#: Values JSON encodes as they are.  Matched by exact type, so an Enum that
#: subclasses ``str`` or ``int`` still reduces to its ``value``.
_JSON_LEAVES = frozenset({str, int, float, bool, type(None)})


def _canonical(value: Any) -> Any:
    """Reduce a value to canonical JSON-able data (deterministic ordering).

    JSON-native leaves return first and lists recurse without a call per
    leaf: a network fingerprint reduces tens of thousands of them.
    """
    kind = type(value)
    if kind in _JSON_LEAVES:
        return value
    if kind is list or kind is tuple:
        return [v if type(v) in _JSON_LEAVES else _canonical(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _canonical(v) for k, v in sorted(asdict(value).items())}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot fingerprint value of type {type(value).__name__}: {value!r}")


def stable_hash(payload: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``payload``."""
    encoded = json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def fingerprint_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint_targets(targets: Sequence[Any]) -> str:
    """Fingerprint a crawl target list (order-sensitive: order is the merge order)."""
    return stable_hash([[t.domain, t.rank, t.population] for t in targets])


def fingerprint_dns(dns: Any) -> str:
    return stable_hash(
        [[r.name, r.rtype.value, r.value] for r in dns.records()]
    )


def fingerprint_network(network: Any) -> str:
    """Content-address a (possibly fault-wrapped) synthetic network.

    Covers the DNS zone, every server's routes (path, status, content type,
    body hash) and — for a :class:`~repro.net.faults.FaultyNetwork` — the
    fault configuration and seed, which change what a crawl observes just as
    surely as the content does.
    """
    payload: dict = {}
    injector = getattr(network, "injector", None)
    inner = getattr(network, "inner", None)
    if injector is not None and inner is not None:
        payload["faults"] = {"config": injector.config, "seed": injector.seed}
        network = inner
    payload["dns"] = fingerprint_dns(network.dns)
    payload["servers"] = {
        host: [
            [path, res.status, res.content_type, fingerprint_text(res.body)]
            for path, res in server.resources()
        ]
        for host, server in network.servers().items()
    }
    return stable_hash(payload)


def _fingerprint_matchers(matchers: Iterable[Any]) -> list:
    return [
        {"name": matcher.name, "rules": stable_hash(
            sorted(r.raw for r in list(matcher.block_rules) + list(matcher.exception_rules))
        )}
        for matcher in matchers
    ]


def fingerprint_profile(profile: Optional[Any]) -> Any:
    """Fingerprint a :class:`~repro.browser.profile.BrowserProfile` (or None)."""
    if profile is None:
        return None
    extensions = []
    for extension in profile.extensions:
        entry: dict = {"name": extension.name}
        if hasattr(extension, "matchers"):
            entry["matchers"] = _fingerprint_matchers(extension.matchers)
            entry["extra_matchers"] = _fingerprint_matchers(
                getattr(extension, "extra_matchers", ())
            )
            entry["first_party_exception"] = getattr(
                extension, "honor_first_party_exception", True
            )
        extensions.append(entry)
    return {
        "device": profile.device,
        "privacy_mode": profile.privacy_mode,
        "expose_webdriver": profile.expose_webdriver,
        "session_seed": profile.session_seed,
        "extensions": extensions,
    }


def fingerprint_policy(policy: Optional[Any]) -> Any:
    """Fingerprint a RetryPolicy / PageBudget (plain frozen dataclasses)."""
    return policy


def fingerprint_vendor_knowledge(knowledge: Sequence[Any]) -> str:
    return stable_hash(list(knowledge))
