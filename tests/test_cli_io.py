"""The CLI's file writers and its config reader: the JSON and CSV text is
byte for byte the text of the stdlib writers in writer_oracle, and the C
and pure-Python YAML loaders read every shipped config alike."""
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import writer_oracle as oracle
from dghlab import cli

ROOT = Path(__file__).resolve().parents[1]

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, 1e-310, 1e300, -1e300, math.nan, math.inf, -math.inf]),
)
TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['"quoted"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f",
                     "café 中 \U0001f600  "]),
)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**300).map(lambda n: -n),
    FLOATS, FLOATS.map(np.float64), TEXT,
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)

EVERY_KIND = {
    "empty": [{}, [], ()],
    "nested": {"b": [1, (2.5, {"z": None, "a": [True, False]})], "a": ()},
    "text": ['"quoted"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "café 中 \U0001f600"],
    "ints": [0, -1, 2**200, -(2**64)],
    "floats": [-0.0, 5e-324, 1e-310, 1e300, math.nan, math.inf, -math.inf,
               np.float64(0.1), np.float64(math.nan), np.float64(-math.inf)],
    "café \"key\"\n": None,
}


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


class TestJsonWriter:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(payload=PAYLOADS)
    @example(payload=EVERY_KIND)
    def test_same_bytes_as_stdlib(self, out_dir, payload):
        path = out_dir / "payload.json"
        cli._write_json(path, payload)
        assert path.read_bytes() == oracle.json_text(payload).encode("ascii")

    @pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), {1, 2}],
                             ids=["int64", "bool_", "set"])
    def test_values_json_refuses_raise_type_error(self, tmp_path, value):
        payload = {"a": 1.0, "b": [value]}
        with pytest.raises(TypeError):
            oracle.json_text(payload)
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._write_json(tmp_path / "bad.json", payload)
        assert not (tmp_path / "bad.json").exists()

    def test_keys_other_than_strings_raise_type_error(self, tmp_path):
        # no payload has one; json.dumps would write 3 as "3"
        with pytest.raises(TypeError):
            cli._write_json(tmp_path / "bad.json", {"a": {3: 1.0}})
        assert not (tmp_path / "bad.json").exists()


class TestCsvWriter:
    HEADER = ["t", "q", "g"]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(FLOATS, min_size=3, max_size=3), min_size=1, max_size=6))
    def test_array_rows_same_bytes_as_cell_rule(self, out_dir, rows):
        # a characteristic file's rows: one float64 array
        table = np.array(rows, dtype=float)
        path = out_dir / "table.csv"
        cli._write_csv(path, self.HEADER, table)
        assert path.read_text() == oracle.csv_text(self.HEADER, table)

    def test_mixed_rows_keep_their_text(self, tmp_path):
        # sweep.csv rows: ints, floats, bools, blanks and status text
        rows = [
            [0, 0.5, np.float64(0.1), 1.0, True, "", None, "ok"],
            [np.int64(7), -0.0, math.inf, np.float32(0.1), False, -math.inf, math.nan,
             "error: OverflowError: a, b"],
        ]
        header = [f"c{i}" for i in range(8)]
        cli._write_csv(tmp_path / "mixed.csv", header, rows)
        text = (tmp_path / "mixed.csv").read_text()
        assert text == oracle.csv_text(header, rows)
        assert text.splitlines()[2].endswith(",-inf,nan,error: OverflowError: a; b")


def _readme_config() -> str:
    text = (ROOT / "README.md").read_text()
    block = re.search(r"```yaml\n(.*?)```", text, re.S).group(1)
    # the block shows rho_initial next to equation dgh, which load_config
    # refuses; as dgh2 the same keys load
    return block.replace("equation: dgh ", "equation: dgh2", 1)


CONFIGS = {p.name: p.read_text() for p in sorted((ROOT / "configs").glob("*.yaml"))}
CONFIGS["README.md"] = _readme_config()
C_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class TestConfigLoader:
    def test_cli_reads_with_the_c_loader_where_built(self):
        assert cli._YAML_LOADER is C_LOADER

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_c_and_python_loaders_give_one_run_config(self, tmp_path, monkeypatch, name):
        text = CONFIGS[name]
        raws = [yaml.load(text, Loader=loader) for loader in (C_LOADER, yaml.SafeLoader)]
        assert repr(raws[0]) == repr(raws[1])  # repr tells 1 from 1.0 and True
        path = tmp_path / "run.yaml"
        path.write_text(text)
        configs = []
        for loader in (C_LOADER, yaml.SafeLoader):
            monkeypatch.setattr(cli, "_YAML_LOADER", loader)
            configs.append(cli.load_config(str(path), None))
        assert configs[0] == configs[1]
        assert repr(configs[0]) == repr(configs[1])

    @pytest.mark.parametrize("loader", [C_LOADER, yaml.SafeLoader], ids=["c", "python"])
    @pytest.mark.parametrize("text", [
        "grid: {n_points: 256\n",
        "grid: n_points: 256\n",
        "\tgrid: {}\n",
        "seeds: !!python/object/apply:os.getcwd []\n",
    ], ids=["unclosed_flow", "nested_mapping_value", "tab_indent", "python_tag"])
    def test_unparsable_yaml_exits_2(self, tmp_path, capsys, monkeypatch, loader, text):
        monkeypatch.setattr(cli, "_YAML_LOADER", loader)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["criterion", "--config", str(cfg), "--out", str(out)]) == 2
        assert "cannot parse config" in capsys.readouterr().err
        assert not out.exists()
