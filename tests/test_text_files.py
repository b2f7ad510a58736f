"""Every text-file reader either returns what it read or raises one ValueError
naming the file, whatever the file holds. Each reader is fuzzed from a small
valid file with one line deleted, inserted or replaced, or one token of a line
replaced, and with arbitrary text and bytes."""
import pytest
from hypothesis import given, settings, strategies as st

from trflm.corpus import load_vocabulary
from trflm.evalkit import read_nbest_file, read_refs_file

READERS = {"vocab": load_vocabulary, "nbest": read_nbest_file, "refs": read_refs_file}

VALID = {
    "vocab": "<s>\n</s>\n<unk>\na\nb\n",
    "nbest": "u1 1 -2.5 a b\nu1 2 NA b\nu2 1 0 a\n",
    "refs": "u1 a b\nu2 a\n",
}

TOKENS = st.sampled_from(["<s>", "</s>", "<unk>", "a", "u1", "u2", "1", "-1", "2.5", "NA",
                          "nan", "-inf", "1e999", "9" * 5000, "\t", "\r", "\x0c", "\x85"]) \
    | st.text(max_size=4)
LINES = st.lists(TOKENS, max_size=5).map(" ".join)


@st.composite
def line_mutations(draw, text):
    """text with one line deleted, inserted or replaced, or one of its tokens replaced."""
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["delete", "insert", "replace", "token"]))
    if action == "delete":
        del lines[i]
    elif action == "insert":
        lines.insert(i, draw(LINES))
    elif action == "replace":
        lines[i] = draw(LINES)
    else:
        tokens = lines[i].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
        lines[i] = " ".join(tokens)
    return "\n".join(lines)


@pytest.mark.parametrize("kind", READERS)
def test_text_reader_returns_or_names_the_file(tmp_path, kind):
    path = tmp_path / f"{kind}.txt"
    path.write_text(VALID[kind])
    READERS[kind](path)   # the unfuzzed file is valid

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(line_mutations(VALID[kind]).map(str.encode) | st.text(max_size=20).map(str.encode)
           | st.binary(max_size=20))
    def check(data):
        path.write_bytes(data)
        try:
            READERS[kind](path)
        except ValueError as exc:
            assert str(path) in str(exc)

    check()
