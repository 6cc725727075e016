"""URL parsing and site identity.

A small, strict URL model sufficient for Web-measurement work: scheme, host,
port, path, query and fragment, plus the two identity notions the paper's
analyses rely on:

* :func:`registrable_domain` — the eTLD+1 ("site") of a host, computed from a
  compact public-suffix subset.  First- vs third-party classification (§5.2)
  compares registrable domains, not full hosts, which is exactly what makes
  subdomain routing an evasion.
* :func:`same_site` — registrable-domain equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "URL",
    "URLError",
    "registrable_domain",
    "origin_of",
    "same_site",
    "PUBLIC_SUFFIXES",
]


class URLError(ValueError):
    """Raised when a string cannot be parsed as an absolute or relative URL."""


#: Compact public-suffix list subset.  Multi-label suffixes must be listed
#: explicitly; any unlisted final label is treated as a suffix of one label
#: (matching PSL's implicit ``*`` rule).
PUBLIC_SUFFIXES = frozenset(
    {
        "co.uk",
        "org.uk",
        "ac.uk",
        "gov.uk",
        "com.au",
        "net.au",
        "org.au",
        "com.br",
        "com.cn",
        "com.pa",
        "co.jp",
        "ne.jp",
        "or.jp",
        "co.kr",
        "co.in",
        "com.mx",
        "com.tr",
        "com.ua",
        "in.ua",
        # CDN / hosting platform suffixes: subdomains are independent sites.
        "cloudfront.net",
        "azureedge.net",
        "b-cdn.net",
        "github.io",
        "herokuapp.com",
    }
)

_SCHEME_RE = re.compile(r"^([a-zA-Z][a-zA-Z0-9+.-]*):")
_HOST_RE = re.compile(r"^[a-z0-9]([a-z0-9\-_]*[a-z0-9])?(\.[a-z0-9]([a-z0-9\-_]*[a-z0-9])?)*$")

_DEFAULT_PORTS = {"http": 80, "https": 443}


@dataclass(frozen=True)
class URL:
    """An absolute URL.

    Immutable; construct via :meth:`parse` or the constructor with explicit
    components.  ``port`` of ``None`` means the scheme default.
    """

    scheme: str
    host: str
    path: str = "/"
    query: str = ""
    fragment: str = ""
    port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scheme not in ("http", "https"):
            raise URLError(f"unsupported scheme: {self.scheme!r}")
        if not self.host or not _HOST_RE.match(self.host):
            raise URLError(f"invalid host: {self.host!r}")
        if not self.path.startswith("/"):
            raise URLError(f"path must be absolute: {self.path!r}")
        if self.port is not None and not 0 < self.port < 65536:
            raise URLError(f"invalid port: {self.port}")

    # -- construction ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "URL":
        """Parse an absolute http(s) URL string."""
        m = _SCHEME_RE.match(text)
        if not m:
            raise URLError(f"not an absolute URL: {text!r}")
        scheme = m.group(1).lower()
        rest = text[m.end():]
        if not rest.startswith("//"):
            raise URLError(f"missing authority: {text!r}")
        rest = rest[2:]

        fragment = ""
        if "#" in rest:
            rest, fragment = rest.split("#", 1)
        query = ""
        if "?" in rest:
            rest, query = rest.split("?", 1)

        if "/" in rest:
            authority, path = rest.split("/", 1)
            path = "/" + path
        else:
            authority, path = rest, "/"

        port: Optional[int] = None
        host = authority.lower()
        if ":" in host:
            host, port_s = host.rsplit(":", 1)
            try:
                port = int(port_s)
            except ValueError as exc:
                raise URLError(f"invalid port in {text!r}") from exc
        return cls(scheme=scheme, host=host, path=path, query=query, fragment=fragment, port=port)

    def join(self, ref: str) -> "URL":
        """Resolve ``ref`` (absolute, scheme-relative, or path-relative) against self."""
        if _SCHEME_RE.match(ref):
            return URL.parse(ref)
        if ref.startswith("//"):
            return URL.parse(f"{self.scheme}:{ref}")
        if ref.startswith("/"):
            return URL(self.scheme, self.host, *_split_pqf(ref), port=self.port)
        # Relative path: resolve against the directory of self.path.
        base_dir = self.path.rsplit("/", 1)[0]
        return URL(self.scheme, self.host, *_split_pqf(f"{base_dir}/{ref}"), port=self.port)

    # -- identity ---------------------------------------------------------------

    @property
    def origin(self) -> str:
        """RFC 6454 origin serialization (scheme, host, port)."""
        if self.port is None or self.port == _DEFAULT_PORTS[self.scheme]:
            return f"{self.scheme}://{self.host}"
        return f"{self.scheme}://{self.host}:{self.port}"

    @property
    def site(self) -> str:
        """The registrable domain (eTLD+1) of the host."""
        return registrable_domain(self.host)

    def with_path(self, path: str) -> "URL":
        return URL(self.scheme, self.host, *_split_pqf(path), port=self.port)

    def __str__(self) -> str:
        s = self.origin + self.path
        if self.query:
            s += "?" + self.query
        if self.fragment:
            s += "#" + self.fragment
        return s


def _split_pqf(path: str) -> Tuple[str, str, str]:
    """Split a path-query-fragment string into its three components."""
    fragment = ""
    if "#" in path:
        path, fragment = path.split("#", 1)
    query = ""
    if "?" in path:
        path, query = path.split("?", 1)
    return path, query, fragment


def registrable_domain(host: str) -> str:
    """Return the eTLD+1 of ``host``.

    A host that *is* a public suffix (or a bare TLD) is returned unchanged —
    callers treating such hosts as sites get a conservative answer.
    """
    host = host.lower().rstrip(".")
    labels = host.split(".")
    if len(labels) < 2:
        return host
    # Longest public suffix match wins; default suffix is the final label.
    for take in (3, 2):
        if len(labels) > take and ".".join(labels[-take:]) in PUBLIC_SUFFIXES:
            return ".".join(labels[-(take + 1):])
    if ".".join(labels[-2:]) in PUBLIC_SUFFIXES:
        return host if len(labels) == 2 else ".".join(labels[-3:])
    return ".".join(labels[-2:])


def origin_of(url: "URL | str") -> str:
    """Origin string of a URL or URL text."""
    if isinstance(url, str):
        url = URL.parse(url)
    return url.origin


def same_site(a: "URL | str", b: "URL | str") -> bool:
    """True when the two URLs share a registrable domain (first-party)."""
    host_a = a.host if isinstance(a, URL) else URL.parse(a).host
    host_b = b.host if isinstance(b, URL) else URL.parse(b).host
    return registrable_domain(host_a) == registrable_domain(host_b)
