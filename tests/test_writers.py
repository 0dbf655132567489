"""The output writers against the formatting they replace.

cli._encode must give the text of json.dumps(obj, indent=2,
sort_keys=True), and cli._write_csv the text of the row-by-row writer
kept below as its oracle. A sweep's per-seed files must read as if each
seed's scenario had been written whole.
"""

import dataclasses
import json
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from rssiloc import cli
from rssiloc.cli import EXIT_OK, main


def oracle_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def oracle_write_csv(path, header, rows):
    """The row-wise CSV writer: one list per row, None an empty cell."""
    lines = [",".join(header)]
    lines.extend(",".join(oracle_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def oracle_rows(columns):
    """Rows of the columns, a NaN float as None."""
    values = [[None if isinstance(v, float) and math.isnan(v) else v for v in column.tolist()]
              for column in columns]
    return [list(row) for row in zip(*values)]


EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300,
                               -1e300, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3])
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), EDGE_FLOATS)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), FLOATS, st.text())
# lists that are all finite floats or all ints take the encoder's joined path
FINITE_FLOATS = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1)
INTS = st.lists(st.integers(-2**70, 2**70), min_size=1)
JSON_TREES = st.recursive(
    st.one_of(SCALARS, FINITE_FLOATS, INTS),
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.dictionaries(st.text(max_size=4), children, max_size=5)),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(JSON_TREES)
@example([])
@example({})
@example({"a": [], "b": {}, "c": [[]], "d": [{}]})
@example([1e308, 1e308])  # finite items whose sum overflows
@example([1.0, 2, 3.5])
@example([True, False, 1, 0])
@example({"z": [-0.0, 1e-300, 1e300], "a": None, "m": [math.nan, 1.0], "i": [math.inf]})
@example(("tuple", (1, 2), (0.5,)))
def test_encoder_matches_json_dumps(obj):
    assert cli._encode(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_encoder_emits_encoded_text_as_it_is():
    inner = cli._Json(cli._encode([1.5, 2.5], "    "))
    assert cli._encode({"b": {"x": inner}, "a": 1}) == json.dumps(
        {"b": {"x": [1.5, 2.5]}, "a": 1}, indent=2, sort_keys=True)


@st.composite
def csv_tables(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(("float", "int", "text")), min_size=1, max_size=6))
    columns = []
    for kind in kinds:
        if kind == "float":
            columns.append(np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)),
                                    dtype=np.float64))
        elif kind == "int":
            columns.append(np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1),
                                                  min_size=n, max_size=n)), dtype=np.int64))
        else:
            columns.append(draw(st.lists(st.from_regex(r"[a-z0-9.]{1,5}", fullmatch=True),
                                         min_size=n, max_size=n)))
    return [f"c{i}" for i in range(len(columns))], columns


@settings(max_examples=100, deadline=None)
@given(csv_tables())
def test_csv_writer_matches_row_writer(tmp_path_factory, table):
    header, columns = table
    tmp = tmp_path_factory.mktemp("csv")
    cli._write_csv(tmp / "got.csv", header, columns)
    arrays = [np.array(c, dtype=object) if isinstance(c, list) else c for c in columns]
    oracle_write_csv(tmp / "expected.csv", header, oracle_rows(arrays))
    assert (tmp / "got.csv").read_bytes() == (tmp / "expected.csv").read_bytes()


def test_sweep_files_read_as_each_seed_written_whole(tmp_path):
    # the config echo is encoded once per command; each seed's summary must
    # still be the canonical text of its own scenario, seed included
    scn = tmp_path / "s.json"
    scn.write_text(json.dumps({
        "seed": 42,
        "roi_m": {"x_min": 0, "y_min": 0, "x_max": 30, "y_max": 30},
        "beacons": [{"id": 0, "x_m": 0, "y_m": 0}, {"id": 1, "x_m": 30, "y_m": 0},
                    {"id": 2, "x_m": 15, "y_m": 30}],
        "trajectory_m": [[12, 9], [12.5, 9.25], [13, 9.5]],
        "shadowing": {"sigma_db": 2.0},
    }))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out), "--seeds", "3"]) == EXIT_OK
    base = cli.load_scenario(scn)
    for seed in (42, 43, 44):
        text = (out / f"seed_{seed}" / "summary.json").read_text()
        summary = json.loads(text)
        assert text == json.dumps(summary, indent=2, sort_keys=True) + "\n"
        assert summary["seed"] == seed
        assert summary["config"] == cli.scenario_to_dict(dataclasses.replace(base, seed=seed))
    lines = (out / "seed_43" / "steps.csv").read_text().splitlines()
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["0", "12.0", "9.0"], ["1", "12.5", "9.25"], ["2", "13.0", "9.5"]]
