"""The JSON layer: one read per input, the canonical-rational fast path and
the indent-2 writer, each checked against the standard-library behaviour it
replaces."""

import builtins
import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchkit import io
from matchkit.cli import main
from matchkit.errors import MarketFormatError
from matchkit.io import _rational, to_canonical_json, to_json

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


# -- the writer ---------------------------------------------------------------

awkward_text = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\r\t\b\f é ﻿😀'),
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | awkward_text,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(awkward_text, children, max_size=5),
    max_leaves=30,
)


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(json_values, st.booleans())
    def test_equals_json_dumps(self, obj, sort_keys):
        assert to_json(obj, sort_keys=sort_keys) == json.dumps(
            obj, indent=2, sort_keys=sort_keys
        )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0, 1e300, 2**70])
    def test_number_spellings(self, value):
        for obj in (value, [value], {"k": value}):
            assert to_json(obj) == json.dumps(obj, indent=2)

    def test_canonical_json_sorts_keys_and_ends_in_a_newline(self):
        obj = {"b": [1, {"d": None, "c": "x"}], "a": {}}
        assert to_canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "obj",
        [
            Fraction(1, 2),
            {1, 2},
            [Fraction(1, 2)],
            {"k": {"nested": frozenset()}},
            {1: "int key"},
        ],
    )
    def test_anything_else_raises_type_error(self, obj):
        with pytest.raises(TypeError):
            to_json(obj)


# -- rationals ----------------------------------------------------------------

def _expected(value: str):
    """What ``Fraction(value)`` gives, or the MarketFormatError text it
    leads to."""
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as e:
        return f"where: bad rational {value!r} ({e})"


def _actual(value: str):
    try:
        return _rational(value, "where")
    except MarketFormatError as e:
        return str(e)


RATIONAL_STRINGS = [
    "6", "-3/2", "17/4", "0", "00", "-0", "3/04", "007/0010",
    "1.5", "1e3", " 7 ", "+3", "1_000", "٣", "3/-4", "1/0", "1/00", "-0/0",
    "1/2/3", "", "-", "/", "3/", "/4", "--3", "½", "²", "1 /2", "abc",
]


class TestRational:
    @pytest.mark.parametrize("value", RATIONAL_STRINGS)
    def test_agrees_with_fraction(self, value):
        expected, actual = _expected(value), _actual(value)
        assert actual == expected
        if isinstance(expected, Fraction):
            assert type(actual) is Fraction
            assert (actual.numerator, actual.denominator) == (
                expected.numerator,
                expected.denominator,
            )

    @settings(max_examples=300, deadline=None)
    @given(st.from_regex(r"-?0*\d+(/0*\d+)?", fullmatch=True))
    def test_agrees_with_fraction_on_canonical_shapes(self, value):
        assert _actual(value) == _expected(value)

    @pytest.mark.parametrize("value", [True, 1.5, None, [1]])
    def test_non_strings_keep_their_errors(self, value):
        with pytest.raises(MarketFormatError, match="^where: "):
            _rational(value, "where")


# -- one read per input -------------------------------------------------------

@pytest.fixture
def opened(monkeypatch):
    """Counts the ``open`` calls made per path."""
    counts: Counter = Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        counts[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return counts


def _sha(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


START = {"assignment": {"w1": "f1"}}


class TestOneReadPerInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["balance", fixture("intro_discrete.json")],
            ["balance", fixture("example1_tu.json"), "--kind", "tu"],
            ["solve-tu", fixture("intro_tu.json"), "--emit", "lp"],
            ["solve-discrete", fixture("intro_discrete.json"), "--dynamics", "--start"],
            ["analyze", fixture("intro_discrete.json")],
            ["roadmap", fixture("example4_roadmap.json"), fixture("profile13.json")],
        ],
    )
    def test_each_input_opened_once_and_digested(self, argv, opened, tmp_path, capsys):
        if argv[-1] == "--start":
            start = tmp_path / "start.json"
            start.write_text(json.dumps(START), encoding="utf-8")
            argv = [*argv, str(start)]
        paths = [a for a in argv[1:] if a.endswith(".json")]
        opened.clear()
        assert main([*argv, "--format", "json"]) in (0, 1)
        assert {p: opened[p] for p in opened if p in paths} == dict.fromkeys(paths, 1)
        inputs = json.loads(capsys.readouterr().out)["inputs"]
        assert inputs == {p: _sha(p) for p in paths}

    def test_roadmap_listed_before_market(self, tmp_path, capsys):
        combined = {
            **json.loads(Path(fixture("example4_roadmap.json")).read_text()),
            **json.loads(Path(fixture("profile13.json")).read_text()),
        }
        path = tmp_path / "both.json"
        path.write_text(json.dumps(combined), encoding="utf-8")
        same = str(path)
        other = f"{tmp_path}/./both.json"
        assert main(["roadmap", same, same, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"] == {same: _sha(same)}
        assert main(["roadmap", other, same, "--format", "json"]) == 0
        inputs = json.loads(capsys.readouterr().out)["inputs"]
        assert list(inputs.items()) == [(other, _sha(same)), (same, _sha(same))]


def _text_mode_stderr(path: Path) -> str:
    """The stderr of a text-mode read, as the CLI's reads used to be."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        return f"error: cannot read {path}: {e}\n"
    try:
        json.loads(text)
    except json.JSONDecodeError as e:
        return f"error: {path}: invalid JSON ({e})\n"
    raise AssertionError("expected a bad file")


class TestNewlinesAndBadBytes:
    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_crlf_market_parses_like_lf(self, newline, tmp_path):
        lf = Path(fixture("example1_tu.json")).read_bytes()
        assert b"\n" in lf and b"\r" not in lf
        path = tmp_path / "market.json"
        path.write_bytes(lf.replace(b"\n", newline))
        assert io.load_market(str(path)) == io.load_market(fixture("example1_tu.json"))

    @pytest.mark.parametrize(
        "content",
        [
            b'{\r\n  "kind": "tu",\r\n  "firms": {\r\n}',
            b'{\r  "kind": "tu",\r  "firms": ,\r}',
            b'\xef\xbb\xbf{"kind": "tu", "firms": {}, "workers": {}}',
            b'{"kind": "tu",\n "firms": {"f": "\xff"}}',
            b"\xff\xfe{}",
        ],
    )
    def test_stderr_matches_a_text_mode_read(self, content, tmp_path, capsys):
        path = tmp_path / "market.json"
        path.write_bytes(content)
        assert main(["balance", str(path)]) == 2
        assert capsys.readouterr() == ("", _text_mode_stderr(path))

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["balance", str(path)]) == 2
        assert capsys.readouterr() == ("", _text_mode_stderr(path))


# -- inputs past Python's own limits ------------------------------------------

LIMIT_ADVICE = "set PYTHONINTMAXSTRDIGITS to raise it (0 lifts it)"


class TestPastPythonLimits:
    def test_nesting_too_deep_is_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        assert main(["balance", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: invalid JSON (maximum recursion depth exceeded")

    def test_integer_past_the_digit_limit_is_invalid_json(self, tmp_path, capsys, digit_limit):
        digit_limit(4300)
        path = tmp_path / "long.json"
        path.write_text('{"kind": "tu", "n": ' + "1" * 5000 + "}", encoding="utf-8")
        assert main(["balance", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {path}: invalid JSON (Exceeds the limit (4300 digits) for integer "
            f"string conversion: value has 5000 digits; {LIMIT_ADVICE})\n"
        ))

    @pytest.mark.parametrize(
        "value, detail",
        [
            # Fraction would compute 10**999999999 before anything else ran.
            ("1e999999999", ": exponent is 999999999"),
            ("-1e-5000", ": exponent is -5000"),
            # Loaded before, then str() of the value failed in solve-tu.
            ("1.5e4300", ""),
            ("9" * 4300 + "e1", ""),
        ],
    )
    def test_rational_past_the_digit_limit_is_an_input_error(
        self, value, detail, tmp_path, capsys, digit_limit
    ):
        digit_limit(4300)
        path = tmp_path / "market.json"
        market = {
            "kind": "tu",
            "firms": {"f": [{"set": ["w"], "value": value}]},
            "workers": {"w": {"f": "0"}},
        }
        path.write_text(json.dumps(market), encoding="utf-8")
        for command in ("balance", "solve-tu"):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr() == ("", (
                f"error: firm f value: bad rational {value!r} (Exceeds the limit (4300 "
                f"digits) for integer string conversion{detail}; {LIMIT_ADVICE})\n"
            ))

    def test_rational_within_the_digit_limit_loads(self, digit_limit):
        digit_limit(4300)
        assert _rational("1.5e4299", "where") == Fraction(15) * 10**4298
