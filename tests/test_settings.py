import re

import pytest

from blogwatch.errors import ConfigError, SpecError
from blogwatch.harness import parse_world_spec
from blogwatch.pipeline import load_config

LOADERS = {"run.conf": (load_config, ConfigError),
           "world.conf": (parse_world_spec, SpecError)}


@pytest.mark.parametrize("name, line", [
    ("run.conf", "report_interval = inf"),
    ("run.conf", "poll_interval = nan"),
    ("run.conf", "dedupe_window = nan"),
    ("run.conf", "host_delay = nan"),
    ("world.conf", "topical_fraction = nan"),
    ("world.conf", "vocab_overlap = inf"),
])
def test_non_finite_settings_are_rejected(tmp_path, name, line):
    """A float setting must be finite: the error names the file and line."""
    load, error = LOADERS[name]
    path = tmp_path / name
    path.write_text(f"# a comment\n{line}\n", encoding="utf-8")
    with pytest.raises(error, match=re.escape(f"{path}:2: ")):
        load(path)



@pytest.mark.parametrize("data", [b"", b"a\nb\n", b"a\r\nb\r\n", b"a\rb\r", b"a\r\n\rb\n\r",
                                  b"caf\xc3\xa9\r\nna\xc3\xafve", b"\r", b"x\r\r\n"])
def test_read_text_matches_text_mode(tmp_path, data):
    """``read_text`` gives what ``open`` in text mode gives."""
    from blogwatch.settings import read_text

    path = tmp_path / "doc.txt"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as fh:
        assert read_text(path, ConfigError) == fh.read()
