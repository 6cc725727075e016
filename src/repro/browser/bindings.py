"""JS host-object wrappers for the canvas API, with instrumentation.

Every method call and property write that page JavaScript performs on a
canvas element or its 2D context passes through these wrappers, which
delegate to the software canvas (:mod:`repro.canvas`) and record the event —
tagged with the *currently executing script's URL* — into the page's
:class:`~repro.browser.instrumentation.CanvasInstrument`.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, Optional

from repro import perf
from repro.browser.instrumentation import CanvasInstrument
from repro.canvas.context2d import CanvasRenderingContext2D, ImageData
from repro.canvas.element import HTMLCanvasElement
from repro.canvas.gradient import CanvasGradient
from repro.dom.elements import DOMElement
from repro.js.errors import JSThrow
from repro.js.values import NULL, UNDEFINED, JSObject, NativeFunction, js_to_number, js_to_string

__all__ = ["JSCanvasElement", "JSContext2D", "JSImageData", "JSGradient"]

_CTX_IFACE = "CanvasRenderingContext2D"
_CANVAS_IFACE = "HTMLCanvasElement"

#: Context methods exposed to scripts: name -> (argument kinds).
#: Kinds: "n" number, "s" string, "b" bool, "?" optional number, "$" optional string,
#:        "I" ImageData, "C" canvas-or-imagey object.
_CTX_METHODS: Dict[str, str] = {
    "fillRect": "nnnn",
    "strokeRect": "nnnn",
    "clearRect": "nnnn",
    "beginPath": "",
    "closePath": "",
    "moveTo": "nn",
    "lineTo": "nn",
    "rect": "nnnn",
    "arc": "nnnnn?",
    "arcTo": "nnnnn",
    "ellipse": "nnnnnnn?",
    "quadraticCurveTo": "nnnn",
    "bezierCurveTo": "nnnnnn",
    "fill": "$",
    "clip": "$",
    "stroke": "",
    "fillText": "snn?",
    "strokeText": "snn?",
    "measureText": "s",
    "save": "",
    "restore": "",
    "translate": "nn",
    "scale": "nn",
    "rotate": "n",
    "transform": "nnnnnn",
    "setTransform": "nnnnnn",
    "resetTransform": "",
    "createLinearGradient": "nnnn",
    "createRadialGradient": "nnnnnn",
    "getImageData": "nnnn",
    "putImageData": "Inn",
    "createImageData": "nn",
    "drawImage": "Cnn??",
    "isPointInPath": "nn$",
}

#: Methods whose numeric arguments are WebIDL ``long``: converted (NaN and
#: ±Infinity to 0) instead of making the call a no-op.
_LONG_ARG_METHODS = frozenset({"getImageData", "createImageData"})

#: Context properties scripts may read/write.
_CTX_PROPERTIES = (
    "fillStyle",
    "strokeStyle",
    "lineWidth",
    "font",
    "textBaseline",
    "textAlign",
    "globalAlpha",
    "globalCompositeOperation",
    "shadowBlur",
    "shadowColor",
    "shadowOffsetX",
    "shadowOffsetY",
)


class JSGradient(JSObject):
    """Wrapper exposing ``addColorStop`` on a CanvasGradient."""

    js_class = "CanvasGradient"

    def __init__(self, impl: CanvasGradient) -> None:
        super().__init__()
        self.impl = impl

    def get(self, name: str) -> Any:
        if name == "addColorStop":
            def add_stop(interp, this, args):
                offset = js_to_number(args[0]) if args else 0.0
                color = js_to_string(args[1]) if len(args) > 1 else "black"
                try:
                    self.impl.add_color_stop(offset, color)
                except ValueError as exc:
                    raise JSThrow(f"IndexSizeError: {exc}")
                return UNDEFINED
            return NativeFunction(add_stop, "addColorStop")
        return super().get(name)


class JSImageData(JSObject):
    """ImageData with an indexable ``data`` view over the pixel buffer."""

    js_class = "ImageData"

    def __init__(self, impl: ImageData) -> None:
        super().__init__()
        self.impl = impl
        self._flat = impl.pixels.reshape(-1)

    def get(self, name: str) -> Any:
        if name == "width":
            return float(self.impl.width)
        if name == "height":
            return float(self.impl.height)
        if name == "data":
            return _PixelArray(self._flat)
        return super().get(name)


class _PixelArray(JSObject):
    """Uint8ClampedArray stand-in: length + integer indexing."""

    js_class = "Uint8ClampedArray"

    def __init__(self, flat) -> None:
        super().__init__()
        self._flat = flat

    def get(self, name: str) -> Any:
        if name == "length":
            return float(self._flat.shape[0])
        if name.isdigit():
            idx = int(name)
            if 0 <= idx < self._flat.shape[0]:
                return float(self._flat[idx])
            return UNDEFINED
        return super().get(name)

    def set(self, name: str, value: Any) -> None:
        if name.isdigit():
            idx = int(name)
            if 0 <= idx < self._flat.shape[0]:
                self._flat[idx] = int(max(0, min(255, js_to_number(value))))
            return
        super().set(name, value)


class JSWebGLContext(JSObject):
    """A parameter-probe-only WebGL context.

    Real fingerprinters read GPU identity strings (``UNMASKED_RENDERER_WEBGL``
    via ``WEBGL_debug_renderer_info``) next to their 2D canvas work; the
    strings here derive from the device profile, so they co-vary with the
    2D rendering differences.  No actual GL rendering is modelled — the
    paper's methodology keys on 2D extractions.
    """

    js_class = "WebGLRenderingContext"

    #: The GLenum values scripts pass to getParameter.
    VENDOR = 0x1F00
    RENDERER = 0x1F01
    VERSION = 0x1F02
    UNMASKED_VENDOR_WEBGL = 0x9245
    UNMASKED_RENDERER_WEBGL = 0x9246

    def __init__(self, device) -> None:
        super().__init__()
        self.device = device
        if device.name.startswith("apple"):
            self._vendor, self._renderer = "Apple Inc.", "Apple M1"
        elif device.name.startswith("intel"):
            self._vendor, self._renderer = (
                "Intel Open Source Technology Center",
                "Mesa Intel(R) UHD Graphics 630 (CFL GT2)",
            )
        else:
            gpu = device.hash32("gpu") % 9000
            self._vendor = "Generic GPU Vendor"
            self._renderer = f"Synthetic Renderer {gpu:04d}"
        self.set("VENDOR", float(self.VENDOR))
        self.set("RENDERER", float(self.RENDERER))
        self.set("VERSION", float(self.VERSION))
        self.set("UNMASKED_VENDOR_WEBGL", float(self.UNMASKED_VENDOR_WEBGL))
        self.set("UNMASKED_RENDERER_WEBGL", float(self.UNMASKED_RENDERER_WEBGL))

    def get(self, name: str) -> Any:
        if name == "getParameter":
            def get_parameter(interp, this, args):
                pname = int(js_to_number(args[0])) if args else 0
                if pname in (self.VENDOR, self.UNMASKED_VENDOR_WEBGL):
                    return self._vendor
                if pname in (self.RENDERER, self.UNMASKED_RENDERER_WEBGL):
                    return self._renderer
                if pname == self.VERSION:
                    return "WebGL 1.0"
                return NULL
            return NativeFunction(get_parameter, "getParameter")
        if name == "getExtension":
            def get_extension(interp, this, args):
                ext = js_to_string(args[0]) if args else ""
                if ext == "WEBGL_debug_renderer_info":
                    info = JSObject()
                    info.set("UNMASKED_VENDOR_WEBGL", float(self.UNMASKED_VENDOR_WEBGL))
                    info.set("UNMASKED_RENDERER_WEBGL", float(self.UNMASKED_RENDERER_WEBGL))
                    return info
                return NULL
            return NativeFunction(get_extension, "getExtension")
        if name == "getSupportedExtensions":
            from repro.js.values import JSArray

            return NativeFunction(
                lambda i, t, a: JSArray(["WEBGL_debug_renderer_info", "OES_texture_float"]),
                "getSupportedExtensions",
            )
        return super().get(name)


class JSCanvasElement(DOMElement):
    """A ``<canvas>`` element as seen by page JavaScript."""

    js_class = "HTMLCanvasElement"

    def __init__(
        self,
        impl: HTMLCanvasElement,
        instrument: CanvasInstrument,
        interp,
        canvas_id: int,
        document=None,
    ) -> None:
        super().__init__("canvas", document=document)
        self.impl = impl
        self.instrument = instrument
        self.interp = interp
        self.canvas_id = canvas_id
        self._js_context: Optional[JSContext2D] = None

    def close(self) -> None:
        """Drop this element's reference cycles (see :meth:`Page.close`).

        The element and its 2D binding point at each other, the binding's
        cached methods close over the binding, and the software canvas and
        its context point at each other.
        """
        if self._js_context is not None:
            self._js_context._method_cache.clear()
            self._js_context = None
        self.impl.close()

    # -- JS surface -------------------------------------------------------------------

    def get(self, name: str) -> Any:
        if name == "width":
            return float(self.impl.width)
        if name == "height":
            return float(self.impl.height)
        if name == "getContext":
            return NativeFunction(self._js_get_context, "getContext")
        if name == "toDataURL":
            return NativeFunction(self._js_to_data_url, "toDataURL")
        return super().get(name)

    def set(self, name: str, value: Any) -> None:
        if name in ("width", "height"):
            number = js_to_number(value)
            size = int(number) if math.isfinite(number) else -1  # NaN, ±Infinity -> invalid
            setattr(self.impl, name, size)
            self.instrument.record_property(
                _CANVAS_IFACE, name, size, self.interp.current_script, self.canvas_id
            )
            return
        super().set(name, value)

    # -- methods -----------------------------------------------------------------------

    def _js_get_context(self, interp, this, args):
        ctx_type = js_to_string(args[0]) if args else ""
        if ctx_type in ("webgl", "experimental-webgl"):
            self.instrument.record_call(
                _CANVAS_IFACE,
                "getContext",
                (ctx_type,),
                "WebGLRenderingContext",
                interp.current_script,
                self.canvas_id,
            )
            return JSWebGLContext(self.impl.device)
        impl_ctx = self.impl.getContext(ctx_type)
        self.instrument.record_call(
            _CANVAS_IFACE,
            "getContext",
            (ctx_type,),
            _CTX_IFACE if impl_ctx is not None else "null",
            interp.current_script,
            self.canvas_id,
        )
        if impl_ctx is None:
            return NULL
        if self._js_context is None or self._js_context.impl is not impl_ctx:
            self._js_context = JSContext2D(impl_ctx, self, self.instrument, interp)
        return self._js_context

    def _js_to_data_url(self, interp, this, args):
        mime = js_to_string(args[0]) if args and args[0] is not UNDEFINED else "image/png"
        quality = None
        if len(args) > 1 and isinstance(args[1], (int, float)):
            quality = float(args[1])
        started = time.perf_counter()
        url = self.impl.toDataURL(mime, quality)
        # Wall time of render-flush + encode: the hot path all three cache
        # layers accelerate, surfaced next to their hit rates in the report.
        perf.PERF.add_time("canvas_readout", time.perf_counter() - started)
        actual_mime = url[len("data:") : url.index(";")]
        self.instrument.record_call(
            _CANVAS_IFACE,
            "toDataURL",
            (mime,) if quality is None else (mime, quality),
            url,
            interp.current_script,
            self.canvas_id,
        )
        self.instrument.record_extraction(
            data_url=url,
            mime=actual_mime,
            width=self.impl.width,
            height=self.impl.height,
            script_url=interp.current_script,
            canvas_id=self.canvas_id,
        )
        return url


class JSContext2D(JSObject):
    """The 2D context as seen by page JavaScript (fully instrumented)."""

    js_class = "CanvasRenderingContext2D"

    def __init__(
        self,
        impl: CanvasRenderingContext2D,
        canvas: JSCanvasElement,
        instrument: CanvasInstrument,
        interp,
    ) -> None:
        super().__init__()
        self.impl = impl
        self.canvas = canvas
        self.instrument = instrument
        self.interp = interp
        self._method_cache: Dict[str, NativeFunction] = {}

    # -- JS surface ---------------------------------------------------------------------

    def get(self, name: str) -> Any:
        if name == "canvas":
            return self.canvas
        if name in _CTX_METHODS:
            fn = self._method_cache.get(name)
            if fn is None:
                fn = NativeFunction(self._make_method(name), name)
                self._method_cache[name] = fn
            return fn
        if name in _CTX_PROPERTIES:
            value = getattr(self.impl, name)
            if isinstance(value, CanvasGradient):
                return JSGradient(value)
            return value if not isinstance(value, (int, float)) else float(value)
        return super().get(name)

    def set(self, name: str, value: Any) -> None:
        if name in _CTX_PROPERTIES:
            if isinstance(value, JSGradient):
                setattr(self.impl, name, value.impl)
                preview: Any = "[CanvasGradient]"
            else:
                py_value = value if isinstance(value, (int, float, bool)) else js_to_string(value)
                setattr(self.impl, name, py_value)
                preview = py_value
            self.instrument.record_property(
                _CTX_IFACE, name, preview, self.interp.current_script, self.canvas.canvas_id
            )
            return
        super().set(name, value)

    # -- method plumbing -----------------------------------------------------------------

    def _make_method(self, name: str) -> Callable:
        signature = _CTX_METHODS[name]

        def call(interp, this, args):
            py_args = _convert_args(signature, args)
            if name in _LONG_ARG_METHODS:
                impl_args = [_to_long(arg) for arg in py_args]
            elif all(math.isfinite(arg) for arg in py_args if type(arg) is float):
                impl_args = py_args
            else:
                # "Any method call with a numeric argument whose value is
                # infinite or a NaN value must be ignored" (HTML canvas spec).
                impl_args = None
            started = time.perf_counter()
            try:
                if impl_args is None:
                    result = False if name == "isPointInPath" else None
                else:
                    result = getattr(self.impl, name)(*impl_args)
            except ValueError as exc:
                self.instrument.record_call(
                    _CTX_IFACE, name, tuple(py_args), f"throw:{exc}", interp.current_script,
                    self.canvas.canvas_id,
                )
                raise JSThrow(str(exc))
            perf.PERF.add_time("canvas_api", time.perf_counter() - started)
            retval, js_result = self._wrap_result(name, result)
            self.instrument.record_call(
                _CTX_IFACE,
                name,
                tuple(_arg_preview(a) for a in py_args),
                retval,
                interp.current_script,
                self.canvas.canvas_id,
            )
            return js_result

        call.__name__ = name
        return call

    def _wrap_result(self, name: str, result: Any):
        if result is None:
            return None, UNDEFINED
        if name == "measureText":
            metrics = JSObject()
            metrics.set("width", float(result.width))
            metrics.set("actualBoundingBoxLeft", float(result.actual_bounding_box_left))
            metrics.set("actualBoundingBoxRight", float(result.actual_bounding_box_right))
            metrics.set("actualBoundingBoxAscent", float(result.actual_bounding_box_ascent))
            metrics.set("actualBoundingBoxDescent", float(result.actual_bounding_box_descent))
            return f"TextMetrics(width={result.width})", metrics
        if name in ("createLinearGradient", "createRadialGradient"):
            return "[CanvasGradient]", JSGradient(result)
        if name in ("getImageData", "createImageData"):
            return f"ImageData({result.width}x{result.height})", JSImageData(result)
        if isinstance(result, bool):
            return result, result
        return str(result), result


def _convert_args(signature: str, args: list) -> list:
    py_args = []
    for i, kind in enumerate(signature):
        if i >= len(args) or args[i] is UNDEFINED:
            if kind in ("?", "$"):
                continue  # optional, omitted
            if kind == "n":
                py_args.append(0.0)
            elif kind == "s":
                py_args.append("undefined")
            elif kind == "b":
                py_args.append(False)
            else:
                py_args.append(None)
            continue
        value = args[i]
        if kind in ("n", "?"):
            py_args.append(js_to_number(value))
        elif kind in ("s", "$"):
            py_args.append(js_to_string(value))
        elif kind == "b":
            from repro.js.values import js_truthy

            py_args.append(js_truthy(value))
        elif kind == "I":
            py_args.append(value.impl if isinstance(value, JSImageData) else None)
        elif kind == "C":
            py_args.append(value.impl if isinstance(value, JSCanvasElement) else None)
        else:  # pragma: no cover - defensive
            py_args.append(value)
    return py_args


def _to_long(value: float) -> int:
    """WebIDL ``long``: NaN and ±Infinity become 0, other values truncate
    toward zero and wrap to 32 bits."""
    if not math.isfinite(value):
        return 0
    wrapped = int(value) % 2**32
    return wrapped - 2**32 if wrapped >= 2**31 else wrapped


def _arg_preview(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)
