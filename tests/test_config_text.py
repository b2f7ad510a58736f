"""The config reader either returns a config or fails with one error line,
whatever the file holds. Config files are fuzzed as sections of key/value
pairs and continuation lines, with schema names drawn often, or as
arbitrary text or bytes;
typed access is fuzzed with arbitrary values for every schema key."""
import pytest
from hypothesis import given, settings, strategies as st

from trflm.cli import SCHEMA, ConfigError, ExperimentConfig, load_config

VALUES = st.sampled_from(["t.txt", "3", "-1", "0.5", "nan", "yes", "grid"]) | st.text(max_size=8)


@st.composite
def sections(draw):
    """(name, text) of one section: a header, then entries whose keys are
    mostly the section's own, with values that may go on in continuation
    lines."""
    name = draw(st.sampled_from([*SCHEMA, "DEFAULT"]) | st.text(max_size=6))
    keys = st.sampled_from(sorted(SCHEMA.get(name, SCHEMA["corpus"]))) | st.text(max_size=6)
    entry = st.tuples(keys, st.sampled_from([" = ", "=", ":"]), VALUES,
                      st.lists(VALUES.map(lambda v: "\n  " + v), max_size=1))
    entries = draw(st.lists(entry, max_size=4, unique_by=lambda e: e[0]))
    return name, "\n".join([f"[{name}]", *("".join(e[:3]) + "".join(e[3]) for e in entries)])


CONFIG_TEXT = st.lists(sections(), max_size=4, unique_by=lambda s: s[0]).map(
    lambda s: "\n".join(text for _, text in s).encode("utf-8"))


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_text("a b\n")   # an existing path for the path keys
    return tmp_path


def test_config_file_returns_or_is_one_error_line(in_tmp):
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(CONFIG_TEXT | st.text(max_size=20).map(str.encode) | st.binary(max_size=20))
    def check(data):
        (in_tmp / "c.ini").write_bytes(data)
        try:
            cfg = load_config("c.ini")
        except ConfigError as exc:
            assert "\n" not in str(exc)
        except ValueError as exc:   # read_text: the file is not UTF-8
            assert str(exc).startswith("config file c.ini: ") and "\n" not in str(exc)
        else:
            assert set(cfg.raw) <= set(SCHEMA)

    check()


@pytest.mark.parametrize("section", SCHEMA)
def test_typed_access_returns_or_is_one_error_line(section):
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(SCHEMA[section])), st.text(max_size=12))
    def check(key, raw):
        cfg = ExperimentConfig({section: {key: raw}})
        typ = SCHEMA[section][key][0]
        try:
            value = cfg.get(section, key)
        except ConfigError as exc:
            assert "\n" not in str(exc) and key in str(exc)
        else:
            assert isinstance(value, typ)

    check()
