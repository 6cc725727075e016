"""Focused tests for JS built-in objects and primitive methods."""

import math
import os
import subprocess
import sys

import pytest

import repro
from repro.js import Interpreter


@pytest.fixture
def interp():
    return Interpreter()


def run(interp, src):
    return interp.run(src)


class TestMath:
    @pytest.mark.parametrize(
        "src,expected",
        [
            ("Math.round(2.5);", 3.0),
            ("Math.round(-2.5);", -2.0),  # JS rounds half toward +inf
            ("Math.trunc(-2.7);", -2.0),
            ("Math.sign(-5);", -1.0),
            ("Math.sign(0);", 0.0),
            ("Math.min();", math.inf),
            ("Math.max();", -math.inf),
            ("Math.hypot(3, 4);", 5.0),
            ("Math.atan2(1, 1) * 4;", math.pi),
            ("Math.LN2;", math.log(2)),
        ],
    )
    def test_cases(self, interp, src, expected):
        assert run(interp, src) == pytest.approx(expected)

    def test_sqrt_negative_nan(self, interp):
        assert math.isnan(run(interp, "Math.sqrt(-1);"))

    def test_log_edge_cases(self, interp):
        assert run(interp, "Math.log(0);") == -math.inf
        assert math.isnan(run(interp, "Math.log(-1);"))


class TestJSON:
    def test_stringify_nested(self, interp):
        assert run(interp, "JSON.stringify([{a: 1}, [true, null]]);") == '[{"a":1},[true,null]]'

    def test_stringify_skips_functions(self, interp):
        assert run(interp, "JSON.stringify({f: function() {}, x: 1});") == '{"x":1}'

    def test_stringify_undefined_returns_undefined(self, interp):
        assert run(interp, "typeof JSON.stringify(undefined);") == "undefined"

    def test_parse_invalid_throws_catchable(self, interp):
        src = "var r = 'ok'; try { JSON.parse('{bad'); } catch (e) { r = 'caught'; } r;"
        assert run(interp, src) == "caught"

    def test_roundtrip(self, interp):
        assert run(interp, "JSON.parse(JSON.stringify({k: [1, 'two']})).k[1];") == "two"


class TestObjectNamespace:
    def test_values(self, interp):
        assert run(interp, "Object.values({a: 1, b: 2}).join('+');") == "1+2"

    def test_assign(self, interp):
        assert run(interp, "JSON.stringify(Object.assign({a: 1}, {b: 2}, {a: 3}));") == '{"a":3,"b":2}'

    def test_keys_of_array(self, interp):
        assert run(interp, "Object.keys(['x', 'y']).join(',');") == "0,1"


class TestArrayNamespace:
    def test_is_array(self, interp):
        assert run(interp, "Array.isArray([]);") is True
        assert run(interp, "Array.isArray('nope');") is False

    def test_from_string(self, interp):
        assert run(interp, "Array.from('abc').join('-');") == "a-b-c"

    def test_from_with_mapper(self, interp):
        assert run(interp, "Array.from([1, 2, 3], x => x * 10).join(',');") == "10,20,30"

    def test_array_constructor_with_length(self, interp):
        assert run(interp, "Array(3).length;") == 3.0


class TestStringMethods:
    @pytest.mark.parametrize(
        "src,expected",
        [
            ("'abc'.padStart(5, '0');", "00abc"),
            ("'abc'.padEnd(5, '.');", "abc.."),
            ("'hello'.substr(1, 3);", "ell"),
            ("'hello'.substring(3, 1);", "el"),  # swapped args
            ("'abc'.at ? 'modern' : 'subset';", "subset"),
            ("'a-b-c'.replace('-', '+');", "a+b-c"),
            ("'a-b-c'.replaceAll('-', '+');", "a+b+c"),
            ("'xyz'.concat('1', 2);", "xyz12"),
            ("'AbC'.toUpperCase();", "ABC"),
            ("'hello'.lastIndexOf('l');", 3.0),
            ("'hello'.codePointAt(1);", 101.0),
            ("''.split(',').length;", 1.0),
            ("'abc'.split('').join('|');", "a|b|c"),
        ],
    )
    def test_cases(self, interp, src, expected):
        assert run(interp, src) == expected

    def test_char_code_out_of_range(self, interp):
        assert math.isnan(run(interp, "'ab'.charCodeAt(9);"))
        assert run(interp, "'ab'.charAt(9);") == ""


class TestNumberMethods:
    def test_to_precision(self, interp):
        assert run(interp, "(3.14159).toPrecision(3);") == "3.14"

    def test_to_string_radix_2(self, interp):
        assert run(interp, "(10).toString(2);") == "1010"

    def test_to_string_radix_36(self, interp):
        assert run(interp, "(35).toString(36);") == "z"

    def test_number_namespace(self, interp):
        assert run(interp, "Number('42');") == 42.0
        assert run(interp, "Number.isInteger(4);") is True
        assert run(interp, "Number.isInteger(4.5);") is False
        assert run(interp, "Number.isNaN(NaN);") is True
        assert run(interp, "Number.isNaN('NaN');") is False


#: 300 hex digits: far past the largest double.
HUGE_HEX = "F" * 300


class TestNumberConversionEdges:
    """Inputs that hung, crashed or misread: each returns, or throws a catchable RangeError."""

    @pytest.mark.parametrize(
        "src,message",
        [
            ("(5).toString(0);", "radix must be between 2 and 36"),
            ("(-5).toString(-2);", "radix must be between 2 and 36"),
            ("(5).toString(1/0);", "radix must be between 2 and 36"),
            ("(1.5).toFixed(-1);", "toFixed() digits argument must be between 0 and 100"),
            ("(1.5).toPrecision(NaN);", "toPrecision() argument must be between 1 and 100"),
            ("(1.5).toPrecision(101);", "toPrecision() argument must be between 1 and 100"),
        ],
    )
    def test_range_errors_are_catchable(self, interp, src, message):
        caught = run(interp, f"var r = 'none'; try {{ {src} }} catch (e) {{ r = '' + e; }} r;")
        assert caught == "RangeError: " + ("toString() " if "radix" in message else "") + message

    @pytest.mark.parametrize(
        "src,expected",
        [
            ("(NaN).toString(2);", "NaN"),
            ("(1/0).toString(2);", "Infinity"),
            ("(-1/0).toString(16);", "-Infinity"),
            ("(5).toString(undefined);", "5"),
            ("(35).toString(36.9);", "z"),  # radix by ToIntegerOrInfinity
            ("(-255).toString(2);", "-11111111"),
            ("(0).toString(2);", "0"),
            ("(1.5).toFixed(NaN);", "2"),  # NaN digits read as 0
            ("(1.5).toFixed();", "2"),
            ("(NaN).toFixed(2);", "NaN"),
            ("(-1/0).toFixed(2);", "-Infinity"),
            ("(1e21).toFixed(2);", "1e+21"),
            ("(NaN).toPrecision(500);", "NaN"),
            ("(1.5).toPrecision();", "1.5"),
        ],
    )
    def test_number_methods(self, interp, src, expected):
        assert run(interp, src) == expected

    @pytest.mark.parametrize(
        "src,expected",
        [
            ("parseInt('1', 37);", math.nan),
            ("parseInt('1', 1);", math.nan),
            ("parseInt('1', 1/0);", 1.0),  # ToInt32(Infinity) is 0: radix 10
            ("parseInt('1', 0);", 1.0),
            ("parseInt('0x1f', 10);", 0.0),  # only radix 16 or none strips 0x
            ("parseInt('0x1f');", 31.0),
            ("parseInt('0x1f', 16);", 31.0),
            ("parseInt('0x1f', 4294967312);", 31.0),  # radix by ToInt32: 2 ** 32 + 16
            ("parseInt('-0x1f');", -31.0),
            ("parseInt('1' + '0'.repeat(4999));", math.inf),
            ("parseInt('0'.repeat(4999) + '7');", 7.0),
            ("parseInt('" + HUGE_HEX + "', 16);", math.inf),
            ("parseInt('-" + HUGE_HEX + "', 16);", -math.inf),
            ("parseInt('1' + '0'.repeat(308));", 1e308),
        ],
    )
    def test_parse_int(self, interp, src, expected):
        result = run(interp, src)
        assert result == expected or (math.isnan(expected) and math.isnan(result))

    def test_parse_int_keeps_negative_zero(self, interp):
        assert math.copysign(1.0, run(interp, "parseInt('-0');")) == -1.0

    @pytest.mark.parametrize(
        "src,expected",
        [
            ("Number('0x" + HUGE_HEX + "');", math.inf),
            ("+('0x" + HUGE_HEX + "');", math.inf),
            ("Number('0x10');", 16.0),
            ("Number('0x');", math.nan),
            ("Number('0xf_f');", math.nan),
        ],
    )
    def test_to_number_of_hex_strings(self, interp, src, expected):
        result = run(interp, src)
        assert result == expected or (math.isnan(expected) and math.isnan(result))

    def test_runaway_arguments_throw_in_a_child_process(self):
        # A radix of 1 once looped forever growing a list, and 1e9 fraction
        # digits asked for a billion-digit string: a regression must fail
        # here, out of memory or out of time, not hang the suite.
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from repro.js import Interpreter\n"
            "for src in ('(5).toString(1);', '(1.5).toFixed(1e9);'):\n"
            "    print(Interpreter().run('var r; try { ' + src + ' } catch (e) { r = \\'\\' + e; } r;'))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "RangeError: toString() radix must be between 2 and 36",
            "RangeError: toFixed() digits argument must be between 0 and 100",
        ]


class TestEncoding:
    def test_encode_uri_component(self, interp):
        assert run(interp, "encodeURIComponent('a b&c');") == "a%20b%26c"

    def test_btoa_non_latin1_throws(self, interp):
        src = "var r = 'ok'; try { btoa('\\u2603'); } catch (e) { r = 'threw'; } r;"
        assert run(interp, src) == "threw"

    def test_atob_invalid_throws(self, interp):
        src = "var r = 'ok'; try { atob('!not base64!'); } catch (e) { r = 'threw'; } r;"
        assert run(interp, src) == "threw"


class TestErrorConstructor:
    def test_error_message(self, interp):
        assert run(interp, "new Error('boom').message;") == "boom"

    def test_typeerror_alias(self, interp):
        assert run(interp, "new TypeError('t').message;") == "t"

    def test_thrown_error_caught_with_message(self, interp):
        src = """
        function fail() { throw new Error('expected ' + (1 + 1)); }
        var msg; try { fail(); } catch (e) { msg = e.message; }
        msg;
        """
        assert run(interp, src) == "expected 2"
