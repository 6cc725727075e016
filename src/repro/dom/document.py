"""The Document host object."""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.dom.elements import DOMElement
from repro.js.values import NULL, UNDEFINED, JSArray, JSObject, NativeFunction, js_to_string

__all__ = ["Document"]


class Document(JSObject):
    """``document`` as seen by page scripts.

    Canvas creation is delegated to a factory injected by the browser so
    the created element carries the browser's device profile, privacy
    filters and instrumentation.
    """

    js_class = "Document"

    def __init__(self, url: str = "about:blank", canvas_factory: Optional[Callable] = None) -> None:
        super().__init__()
        self.url = url
        self.canvas_factory = canvas_factory
        self.body = DOMElement("body", document=self)
        self.head = DOMElement("head", document=self)
        root = DOMElement("html", document=self)
        root.append_child(self.head)
        root.append_child(self.body)
        self.document_element = root
        self.clicks: List[DOMElement] = []

    # -- Python-side API ---------------------------------------------------------------

    def create_element(self, tag_name: str) -> Any:
        tag = js_to_string(tag_name).lower()
        if tag == "canvas" and self.canvas_factory is not None:
            return self.canvas_factory()
        return DOMElement(tag, document=self)

    def get_element_by_id(self, element_id: str) -> Optional[DOMElement]:
        for el in self.document_element.iter_tree():
            if isinstance(el, DOMElement) and el.attributes.get("id") == element_id:
                return el
        return None

    def query_selector_all(self, selector: str) -> List[DOMElement]:
        """Tiny selector support: ``tag``, ``.class``, ``#id``."""
        out: List[DOMElement] = []
        for el in self.document_element.iter_tree():
            if not isinstance(el, DOMElement):
                continue
            if selector.startswith("."):
                classes = el.attributes.get("class", "").split()
                if selector[1:] in classes:
                    out.append(el)
            elif selector.startswith("#"):
                if el.attributes.get("id") == selector[1:]:
                    out.append(el)
            elif el.tag_name == selector.lower():
                out.append(el)
        return out

    def record_click(self, element: DOMElement) -> None:
        self.clicks.append(element)

    def close(self) -> None:
        """Drop the tree's back-links so the page's DOM dies by reference count.

        Every element points at this document and at its parent, and the
        document points down at them; afterwards only the downward links
        remain.  The canvas factory closes over the page, so it goes too.
        """
        self.canvas_factory = None
        for element in self.document_element.iter_tree():
            element.document = None
            element.parent = None

    # -- JS property surface -------------------------------------------------------------

    def get(self, name: str) -> Any:
        if name == "createElement":
            return NativeFunction(lambda i, t, a: self.create_element(a[0] if a else "div"), "createElement")
        if name == "getElementById":
            def by_id(i, t, a):
                el = self.get_element_by_id(js_to_string(a[0])) if a else None
                return el if el is not None else NULL
            return NativeFunction(by_id, "getElementById")
        if name == "querySelectorAll":
            return NativeFunction(
                lambda i, t, a: JSArray(self.query_selector_all(js_to_string(a[0])) if a else []),
                "querySelectorAll",
            )
        if name == "querySelector":
            def q(i, t, a):
                found = self.query_selector_all(js_to_string(a[0])) if a else []
                return found[0] if found else NULL
            return NativeFunction(q, "querySelector")
        if name == "body":
            return self.body
        if name == "head":
            return self.head
        if name == "documentElement":
            return self.document_element
        if name == "URL" or name == "location":
            loc = JSObject()
            loc.set("href", self.url)
            return self.url if name == "URL" else loc
        if name == "addEventListener":
            return NativeFunction(lambda i, t, a: UNDEFINED, "addEventListener")
        return super().get(name)
