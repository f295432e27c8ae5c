import json

import pytest

from karpa.embeddings import ScriptedEmbeddingProvider
from karpa.errors import DataError, ParseError
from karpa.evaluation import load_dataset
from karpa.llm import ScriptedChatProvider

# Every line-JSON input goes through ``read_jsonl``: one good record per reader.
READERS = {
    "chat-fixture": (ScriptedChatProvider.from_file, {"digest": "d", "response_text": "t {x}"}),
    "embedding-fixture": (ScriptedEmbeddingProvider.from_file, {"digest": "d", "dim": 2, "values": [1.0, 0.0]}),
    "dataset": (
        lambda path: load_dataset(path, format="simple"),
        {"id": "q1", "question": "Q?", "topics": ["A"], "answers": [["B"]]},
    ),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_non_json_line_is_parse_error_naming_file_and_line(tmp_path, reader):
    load, record = READERS[reader]
    path = tmp_path / "input.jsonl"
    path.write_text(json.dumps(record) + "\n\n{not json\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load(path)
    assert f"{path}: line 3 is not JSON" in str(exc.value)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_missing_line_json_file_is_data_error(tmp_path, reader):
    load, _ = READERS[reader]
    with pytest.raises(DataError, match="not found"):
        load(tmp_path / "absent.jsonl")


def test_simple_dataset_errors_keep_zero_based_record_index(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('\n\n{"id": "q1", "question": "Q?", "topics": ["A"]}\n', encoding="utf-8")
    with pytest.raises(DataError, match=r"record 2: missing field 'answers'"):
        load_dataset(path, format="simple")



@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_lines_end_at_cr_and_crlf_as_in_text_mode(tmp_path, reader, newline):
    load, record = READERS[reader]
    path = tmp_path / "input.jsonl"
    line = json.dumps(record).encode("utf-8")
    path.write_bytes(line + newline.encode() * 2 + line + newline.encode())
    load(path)
    path.write_bytes(line + newline.encode() * 2 + b"\xff" + newline.encode())
    with pytest.raises(ParseError) as exc:
        load(path)
    assert f"{path}: line 3 is not UTF-8 text" in str(exc.value)
