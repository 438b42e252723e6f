import json
import math
import random
import struct
import sys
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import REPO
from crosssec import serialize

from crosssec.analysis import SweepRecord, sweep_constant_perimeter
from crosssec.geometry import FabricationParams
from crosssec.render import render_svg
from crosssec.serialize import (SWEEP_CSV_HEADER, fmt, read_outline_csv,
                                section_to_dict, sweep_to_csv, to_json)
from crosssec.solver import forward_geometry


# The reference for to_json: round every float in a rebuilt tree, then
# let json write it.  to_json must give the same text, or the same error.

def round_sig(value: float, digits: int = 9) -> float:
    """Round to ``digits`` significant digits (exact for inf/0)."""
    if value == 0.0 or not math.isfinite(value):
        return value
    return float(f"{value:.{digits}g}")


def canonical(obj):
    """Normalize a JSON-able tree: floats to 9 significant digits,
    infinities to strings, tuples to lists."""
    if isinstance(obj, dict):
        return {key: canonical(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(val) for val in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return fmt(obj) if math.isinf(obj) else round_sig(obj)
    return obj


def reference_json(obj) -> str:
    return json.dumps(canonical(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


class TestFormatting:
    def test_round_sig(self):
        assert round_sig(math.pi) == 3.14159265
        assert round_sig(1234567891234.0) == 1234567890000.0
        assert round_sig(0.0) == 0.0
        assert round_sig(math.inf) == math.inf
        assert round_sig(-1.5e-300) == -1.5e-300

    def test_fmt(self):
        assert fmt(math.pi) == "3.14159265"
        assert fmt(558.0) == "558"
        assert fmt(math.inf) == "inf"
        assert fmt(-math.inf) == "-inf"
        assert fmt(1e-300) == "1e-300"

    def test_canonical_types(self):
        doc = canonical({
            "f": math.pi, "i": 7, "b": True, "s": "x",
            "inf": math.inf, "nested": [(1.0, 2.0)], "none": None,
        })
        assert doc["f"] == 3.14159265
        assert doc["i"] == 7 and isinstance(doc["i"], int)
        assert doc["b"] is True
        assert doc["inf"] == "inf"
        assert doc["nested"] == [[1.0, 2.0]]
        assert doc["none"] is None


class TestJson:
    @pytest.mark.parametrize("value, text", [
        (1e-05, "1e-05"),
        (9.9999999995e-05, "0.0001"),  # rounds up into positional layout
        (152.0, "152.0"),
        (999999999.7, "1000000000.0"),  # .9g writes 1e+09
        (123456789012.0, "123456789000.0"),
        (1e16, "1e+16"),
        (-0.0, "-0.0"),
        (5e-324, "5e-324"),  # .9g writes 4.94065646e-324
        (sys.float_info.min, "2.22507386e-308"),
        (sys.float_info.max, "1.79769313e+308"),
        (math.inf, '"inf"'),
        (-math.inf, '"-inf"'),
    ])
    def test_float_layout(self, value, text):
        assert to_json([value]) == f"[\n  {text}\n]\n"
        assert reference_json([value]) == to_json([value])

    def test_sorted_keys_and_trailing_newline(self):
        text = to_json({"b": 1.0, "a": 2.0})
        assert text == '{\n  "a": 2.0,\n  "b": 1.0\n}\n'

    def test_idempotent_round_trip(self, s1_section):
        doc = section_to_dict(s1_section)
        first = to_json(doc)
        second = to_json(json.loads(first))
        assert first == second

    def test_infinity_survives_round_trip(self):
        text = to_json({"ergonomic_index": math.inf})
        assert '"inf"' in text
        assert to_json(json.loads(text)) == text

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            to_json({"x": math.nan})

    @pytest.mark.parametrize("path", sorted(
        (REPO / "tests/data").glob("*.stdout.json")), ids=lambda p: p.name)
    def test_cli_outputs_reserialize(self, path):
        # docs/formats.md: parsing and re-serializing any emitted document
        # reproduces it byte for byte
        text = path.read_text(encoding="utf-8")
        assert to_json(json.loads(text)) == text


def _double(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def _signed(floats):
    return st.tuples(floats, st.booleans()).map(
        lambda pair: -pair[0] if pair[1] else pair[0])


# every float layout: any double, raw bit patterns (NaN payloads and
# subnormals included), the band that repr prints positionally but .9g
# does not, 9-digit round-ups across each power of ten, and the specials
_FLOATS = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(_double),
    _signed(st.floats(1e8, 1e17)),
    _signed(st.tuples(st.integers(-330, 308), st.sampled_from(
        ["9.9999999995", "9.99999999949", "9.999999999500001"])).map(
            lambda pair: float(f"{pair[1]}e{pair[0]}"))),
    _signed(st.floats(0.0, 2.3e-308)),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)
_SCALARS = st.one_of(
    _FLOATS, _FLOATS.map(np.float64), st.none(), st.booleans(),
    st.integers(), st.text(),
    # no JSON form
    st.sampled_from([b"x", np.int64(3), np.float32(1.5), np.bool_(True),
                     {1}, object()]))
# keys json.dumps turns into strings, mixed with strings (unsortable)
_KEYS = st.one_of(st.integers(-3, 3), st.floats(), st.booleans(), st.none(),
                  st.text(max_size=2))
_TREES = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), children, max_size=4),
    st.dictionaries(_KEYS, children, max_size=3)), max_leaves=12)


def _json_outcome(write, obj):
    try:
        return write(obj)
    except Exception as exc:  # compared, not hidden
        return type(exc)


class TestJsonDifferential:
    @settings(max_examples=500, deadline=None)
    @given(value=_SCALARS)
    @example(value=999999999.5)
    @example(value=-9.9999999995e15)
    @example(value=float.fromhex("0x1.0p-1022"))
    @example(value=np.float64(-0.0))
    @example(value=np.float64(math.nan))
    @example(value="\x00\u00e9\u2028\ud800")
    @example(value=2**70)
    def test_scalars_match_reference(self, value):
        assert _json_outcome(to_json, [value]) \
            == _json_outcome(reference_json, [value])

    @settings(max_examples=200, deadline=None)
    @given(tree=_TREES)
    @example(tree={"b": [], "a": {}, "c": ()})
    @example(tree={2: 1.5, 1.5: None, True: "x"})
    @example(tree={"x": [1.0, math.nan], "y": object()})
    @example(tree={math.inf: 1.0})
    def test_trees_match_reference(self, tree):
        assert _json_outcome(to_json, tree) \
            == _json_outcome(reference_json, tree)

    def test_section_documents_match_reference(self):
        rng = random.Random(11)
        for _ in range(200):
            s_c = 10.0 ** rng.uniform(-3, 6)
            s_s = s_c * rng.uniform(0.2, 3.0)
            fab = FabricationParams(s_c, s_s, s_s * rng.uniform(0.0, 0.95))
            doc = section_to_dict(forward_geometry(fab))
            assert to_json(doc) == reference_json(doc)


class TestDictConversions:
    def test_section_dict_shape(self, s1_section):
        doc = section_to_dict(s1_section)
        assert sorted(doc) == ["area_total_mm2", "center", "ergonomic_index",
                               "fab", "perimeter_mm", "side", "spec",
                               "strip", "width_mm"]
        assert doc["perimeter_mm"] == 558.0
        assert doc["strip"]["x_mm"] == [-0.5 * s1_section.center.width,
                                        0.5 * s1_section.center.width]


class TestEdgeSectionGoldens:
    # sections at the two ends of the side arc's range: a full circle
    # (L = 0: theta_s snaps to 2 pi, the conjugate angle is 0) and a short
    # arc whose circle is wider than the section (center_x < 0)
    @pytest.mark.parametrize("name,fab", [
        ("edge_full_circle", (152.4, 127.0, 0.0)),
        ("edge_short_side", (252.0061407120871, 91.35196381680731,
                             90.96578888370378))])
    def test_json_and_svg_bytes(self, name, fab):
        section = forward_geometry(FabricationParams(*fab))
        data = REPO / "tests/data"
        assert (to_json(section_to_dict(section)).encode()
                == (data / f"{name}.section.json").read_bytes())
        assert (render_svg(section).encode()
                == (data / f"{name}.section.svg").read_bytes())


class TestSweepCsv:
    def test_golden_two_by_two(self):
        records = sweep_constant_perimeter(558.0, [152.0, 127.0], [76.2, 50.8])
        text = sweep_to_csv(records)
        lines = text.splitlines()
        assert lines[0] == ",".join(SWEEP_CSV_HEADER)
        assert lines[3] == ("152,50.8,127,129.991971,59.7549991,"
                            "210.874387,2.15156467,true,")
        assert lines[4] == ("152,76.2,127,147.735054,76.5044197,"
                            "209.889503,1.87258032,true,")
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_infeasible_row_empty_cells(self):
        records = sweep_constant_perimeter(200.0, [150.0], [10.0])
        line = sweep_to_csv(records).splitlines()[1]
        cells = line.split(",")
        assert cells[0] == "150"
        assert cells[3] == cells[4] == cells[5] == cells[6] == ""
        assert cells[7] == "false"
        assert cells[8] != ""

    def test_infinite_index_cell(self):
        rec = SweepRecord(center_arc_length=1.0, strip_width=0.0,
                          side_arc_length=2.0, center_height=1.0,
                          side_height=1.0, width=3.0,
                          ergonomic_index=math.inf, failure_reason=None)
        line = sweep_to_csv([rec]).splitlines()[1]
        assert line.split(",")[6] == "inf"


class TestReadOutlineCsv:
    def write(self, tmp_path, text, name="outline.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_plain_rows(self, tmp_path):
        path = self.write(tmp_path, "0,0\n4,0\n4,4\n0,4\n")
        poly = read_outline_csv(path)
        assert poly.signed_area() == pytest.approx(16.0)

    def test_header_and_crlf_and_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "x_mm,y_mm\r\n0,0\r\n\r\n4,0\r\n4,4\r\n")
        poly = read_outline_csv(path)
        assert len(poly) == 3

    def test_explicit_closure_dropped(self, tmp_path):
        path = self.write(tmp_path, "0,0\n4,0\n4,4\n0,0\n")
        assert len(read_outline_csv(path)) == 3

    def test_clockwise_rewound(self, tmp_path):
        path = self.write(tmp_path, "0,0\n0,4\n4,4\n4,0\n")
        poly = read_outline_csv(path)
        assert poly.signed_area() == pytest.approx(16.0)

    def test_bad_row_reports_line(self, tmp_path):
        path = self.write(tmp_path, "0,0\n4,zero\n4,4\n")
        with pytest.raises(ValueError, match="row 2"):
            read_outline_csv(path)

    def test_too_few_points(self, tmp_path):
        path = self.write(tmp_path, "x_mm,y_mm\n0,0\n1,1\n")
        with pytest.raises(ValueError, match="at least 3"):
            read_outline_csv(path)

    def test_single_column_rejected(self, tmp_path):
        path = self.write(tmp_path, "0\n1\n2\n")
        with pytest.raises(ValueError, match="fewer than 2"):
            read_outline_csv(path)

    def test_one_column_first_row_is_not_a_header(self, tmp_path):
        path = self.write(tmp_path, "x\n0,0\n1,0\n0,1\n")
        with pytest.raises(ValueError, match="row 1 has fewer than 2 columns"):
            read_outline_csv(path)

    def test_ragged_rows_not_reflowed(self, tmp_path):
        # eight cells on four lines, but row 3 has one column
        path = self.write(tmp_path, "0,0\n1,2,3\n4\n1,1\n")
        with pytest.raises(ValueError, match="row 3 has fewer than 2 columns"):
            read_outline_csv(path)

    @pytest.mark.parametrize("text, plain", [
        ("0,0\n4,0\n4,4\n0,4\n", True),
        ("x_mm,y_mm\n0,0\n4,0\n4,4\n0,4\n", True),
        ('"0",0\n4,0\n4,4\n0,4\n', False),  # a quote: the row reader
    ])
    def test_byte_order_mark_is_not_a_cell(self, tmp_path, text, plain):
        # a leading U+FEFF would make row 1 of a headerless file a header
        path = tmp_path / "outline.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        with mock.patch.object(serialize, "_parse_outline_rows",
                               _rows_only) if plain else nullcontext():
            poly = read_outline_csv(path)
        assert len(poly) == 4
        assert poly.signed_area() == 16.0

    def test_oversized_field_is_a_value_error(self, tmp_path):
        path = self.write(tmp_path, "0,0\n1,0\n0," + "0" * 200_000 + "1\n")
        with pytest.raises(ValueError, match="field larger than field limit"):
            read_outline_csv(path)


def _rows_only(text):
    raise AssertionError("plain outline sent to the row reader")


class TestPlainOutlinePath:
    # ordinary outlines never reach the row reader
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_docs_outline(self, tmp_path, newline):
        text = (REPO / "docs/examples/outline.csv").read_text(encoding="utf-8")
        path = tmp_path / "outline.csv"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        expected = read_outline_csv(REPO / "docs/examples/outline.csv")
        with mock.patch.object(serialize, "_parse_outline_rows", _rows_only):
            poly = read_outline_csv(path)
        assert len(poly) == 856
        assert poly.points.tobytes() == expected.points.tobytes()


# Tokens of outline text: cells that float() reads in every form it takes,
# cells it refuses, quoting, and every line ending and blank line.  A text
# is rows of number pairs with up to three odd rows or line endings, so
# that many texts are whole outlines and many are nearly so.
_NUMBER = st.one_of(st.integers(-9, 9).map(str),
                    st.floats(-1e3, 1e3).map(repr))
_CELL = st.one_of(_NUMBER, st.sampled_from([
    "x_mm", "y_mm", "", " ", " 7 ", "1_0", "1__0", "nan", "-inf", "inf",
    "1e400", "-1e400", "1e-400", "\u0663", "\u0661\u0662.5", "0x10", "+.5",
    "1e", '"3"', '"4,5"', '"6\n7"', '"', 'a"b', "\t8", "9\x00", "5\r",
    "\r6", ",", "0,", "\u00e9"]))
_PAIR = st.tuples(_NUMBER, _NUMBER).map(",".join)
_ODD_ROW = st.one_of(st.sampled_from(["x_mm,y_mm", "x", "x,y,z", "", " ", ",",
                                      "0,", "\u00e9"]),
                     st.lists(_CELL, min_size=1, max_size=3).map(",".join))
_ODD_END = st.sampled_from(["\r\n", "\r", "\n\n", "\n \n", "\r\n\r\n"])


@st.composite
def _outline_texts(draw):
    rows = draw(st.lists(_PAIR, max_size=8))
    ends = ["\n"] * len(rows)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        if draw(st.booleans()):
            rows.insert(at, draw(_ODD_ROW))
            ends.insert(at, "\n")
        elif rows:
            ends[min(at, len(rows) - 1)] = draw(_ODD_END)
    text = "".join(map(str.__add__, rows, ends))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    if draw(st.booleans()):
        text = text[:-1]  # no last line ending, or half of a CRLF
    return text


def _outcome(path):
    try:
        return read_outline_csv(path).points.tobytes()
    except Exception as exc:  # compared, not hidden
        return type(exc), str(exc)


class TestOutlineDifferential:
    @settings(max_examples=600, deadline=None)
    @given(text=_outline_texts())
    @example(text="x\n0,0\n1,0\n0,1\n")
    @example(text="0,0\n1,2,3\n4\n1,1\n")
    @example(text="0,0\n5\r,0\n1,0\n0,1\n")
    @example(text='x,"\n0,0\n1,0\n0,1\n')
    @example(text="0,0\r\n1,0\r\n0,1\r\n")
    @example(text="x_mm,y_mm\n0,0\n\n1,0\n0,1")
    @example(text="0,0\n1_0,0\n\u0663,\u0661\n")
    @example(text="0,0\n9\x00,1\n1,0\n0,1\n")
    # multi-byte UTF-8 next to a comma or a line feed
    @example(text="\u00e9,1\n0,0\n1,0\n0,1\n")
    @example(text="0,0\n1,0\n0,\u00e9\n")
    @example(text="\u0663,\u0661\n0,0\n1,0\n")
    @example(text="0,0\n1,0\n\u0663,\u0661\n")
    # empty cells, and a row that is only a comma
    @example(text=",\n0,0\n1,0\n0,1\n")
    @example(text="0,0\n,\n1,0\n0,1\n")
    @example(text="0,0\n1,0\n0,\n")
    @example(text=",0\n0,0\n1,0\n0,1\n")
    @example(text="\n0,0\n1,0\n0,1\n")
    @example(text="0,0\n1,0,,\n0,1\n1,1\n")
    @example(text="0,0\r\n1,0\n0,1\r\n")
    def test_reader_matches_row_reader(self, tmp_path_factory, text):
        # the same points to the byte, or the same error and message
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = _outcome(path)
        with mock.patch.object(serialize, "_parse_plain_outline",
                               lambda text: None):
            rows = _outcome(path)
        assert fast == rows
