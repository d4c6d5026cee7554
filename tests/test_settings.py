import re
from pathlib import Path

import pytest

from blogwatch.errors import ConfigError
from blogwatch.graph import FrontierGraph
from blogwatch.harness import load_world, materialize_world, parse_world_spec
from blogwatch.phrases import load_stoplist
from blogwatch.ping import load_registry
from blogwatch.pipeline import RunReport, load_config, parse_report, render_report

from conftest import graph_state

LOADERS = {"run.conf": load_config, "world.conf": parse_world_spec}


@pytest.mark.parametrize("name, line", [
    ("run.conf", "report_interval = inf"),
    ("run.conf", "poll_interval = nan"),
    ("run.conf", "threshold = nan"),
    ("run.conf", "host_delay = nan"),
    ("world.conf", "topical_fraction = nan"),
    ("world.conf", "vocab_overlap = inf"),
])
def test_non_finite_settings_are_rejected(tmp_path, name, line):
    """A float setting must be finite: the error names the file and line."""
    load = LOADERS[name]
    path = tmp_path / name
    path.write_text(f"# a comment\n{line}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:2: ")):
        load(path)



_REPORT = render_report(RunReport(elapsed=2.5, seeds_in=3, top_phrases=[("river", 1.5)]))


@pytest.mark.parametrize("load, text, line", [
    (load_config, "threshold = 0.3\nthreshold = 0.9\n", 2),
    (parse_world_spec, "rng_seed = 3\n# again\nn_blogs = 5\nrng_seed = 3\n", 4),
    (parse_report, _REPORT + "seeds_in = 3\n", len(_REPORT.splitlines()) + 1),
], ids=["config", "world-spec", "report"])
def test_a_key_set_twice_names_its_second_line(tmp_path, load, text, line):
    path = tmp_path / "settings.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:{line}: key '\\w+' set twice$"):
        load(path)


@pytest.mark.parametrize("text, error", [
    ("report_version = 1\nelapsed = 3.0\n", ": missing seeds_in, seeds_dropped, "),
    ("# no version\n" + _REPORT.split("\n", 1)[1], ": missing report_version$"),
    (_REPORT.replace("report_version = 1", "report_version = 7"),
     ":1: report_version: expected 1, got '7'$"),
], ids=["truncated", "no-version", "version-7"])
def test_an_incomplete_or_unknown_report_fails(tmp_path, text, error):
    """A report holds every scalar key and version 1, as ``render_report``
    writes it; the round trip still parses."""
    path = tmp_path / "report.txt"
    path.write_text(_REPORT, encoding="utf-8")
    assert render_report(parse_report(path)) == _REPORT
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}{error}"):
        parse_report(path)


@pytest.mark.parametrize("data", [b"", b"a\nb\n", b"a\r\nb\r\n", b"a\rb\r", b"a\r\n\rb\n\r",
                                  b"caf\xc3\xa9\r\nna\xc3\xafve", b"\r", b"x\r\r\n"])
def test_read_text_matches_text_mode(tmp_path, data):
    """``read_text`` gives what ``open`` in text mode gives."""
    from blogwatch.settings import read_text

    path = tmp_path / "doc.txt"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as fh:
        assert read_text(path) == fh.read()


# a bad byte: the first bad line is named, described as its own decode does
_BAD_BYTES = [
    b"\xff", b"ok\nbad \xff\nworse \xfe\n", b"a\r\rb\xc3\n", b"a\r\nb\r\n\xc3\xa9\xc3",
    b"split \xc3\n\xa9 pair", b"\xe2\x82\nx", b"ok\r\n\xed\xa0\x80 surrogate\r\n",
]


def _per_line_read_lines(path) -> list:
    """``read_lines`` as it was before it decoded the file once: split the
    bytes, then decode each line on its own."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for i, raw in enumerate(lines):
        try:
            lines[i] = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}:{i + 1}: {exc}") from None
    return lines


@pytest.mark.parametrize("data", [
    b"", b"\n", b"\n\n", b"a", b"a\nb\n", b"a\r\nb\r\n", b"a\rb\r", b"a\r\n\rb\n\r",
    b"caf\xc3\xa9\r\nna\xc3\xafve", b"\r", b"x\r\r\n", b"a\x0cb\x1cc\x85d\n",
    "u v w\x85\n".encode("utf-8"),
    *_BAD_BYTES,
])
def test_read_lines_matches_per_line_decode(tmp_path, data):
    """``read_lines`` decodes the file once, and gives the lines and the
    ``path:line`` error that decoding each line on its own gives."""
    from blogwatch.settings import read_lines

    path = tmp_path / "lines.txt"
    path.write_bytes(data)
    try:
        expected = _per_line_read_lines(path)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as raised:
            read_lines(path)
        assert str(raised.value) == str(exc)
    else:
        assert read_lines(path) == expected


@pytest.mark.parametrize("data", [*_BAD_BYTES, b"alpha\rbeta\rga\xffmma\n"])
def test_read_text_names_the_line_read_lines_names(tmp_path, data):
    """A bad byte fails ``read_text`` with the ``path:line`` message of
    ``read_lines``: lines break at ``\r`` too, so a corpus file and a
    corpus directory name one line for one fault."""
    from blogwatch.settings import read_lines, read_text

    path = tmp_path / "doc.txt"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as by_lines:
        read_lines(path)
    with pytest.raises(ConfigError) as by_text:
        read_text(path)
    assert str(by_text.value) == str(by_lines.value)
    if data.startswith(b"alpha"):
        assert str(by_text.value).startswith(f"{path}:3: ")


_CHECKPOINT = ("N\thttp://a.example/\tfetched\t0.0\n"
               "N\thttp://b.example/\tunfetched\t1.5\n"
               "E\thttp://a.example/\thttp://b.example/\t0.25\tsummary\n")


def _world_file(path):
    return load_world(path.parent)


# reader case -> (file name, valid text or None for a materialized world's
# own file, reader, a line the reader rejects)
LINE_READERS = {
    "config": ("run.conf", "mode = batch\nthreshold = 0.4\nmax_pages = 7\n",
               load_config, b"threshold = x"),
    "world-spec": ("world.conf", "rng_seed = 5\nn_blogs = 10\nping_cycles = 1\n",
                   parse_world_spec, b"n_blogs = ten"),
    "registry": ("registry.txt", "a.example\n*.b.example\n",
                 lambda path: load_registry(path).entries, b"\xff.example"),
    "stoplist": ("stop.txt", "the\nand\n", load_stoplist, b"\xff"),
    "report": ("report.txt",
               render_report(RunReport(elapsed=2.5, seeds_in=3, harvest_rate=0.5,
                                       top_phrases=[("flood warning", 4.0), ("river", 1.5)])),
               parse_report, b"elapsed = x"),
    "checkpoint": ("graph.ckpt", _CHECKPOINT,
                   lambda path: graph_state(FrontierGraph.load(path)), b"N\tonly\tthree"),
    "manifest": ("manifest.tsv", None, _world_file, b"http://x.example/\ttext/html"),
    "ping-script": ("ping_script.tsv", None, _world_file, b"1.0"),
    "labels": ("labels.tsv", None, _world_file, b"http://x.example/"),
}


@pytest.mark.parametrize("case", LINE_READERS)
def test_every_line_reader_skips_blank_and_comment_lines(tmp_path, small_world, case):
    """Every line-oriented file skips a blank line, a line of spaces and a
    ``#`` line, and a bad line after them names its own line number."""
    name, text, load, bad = LINE_READERS[case]
    if text is None:
        materialize_world(small_world, tmp_path)
    else:
        (tmp_path / name).write_text(text, encoding="utf-8")
    path = tmp_path / name
    first, *rest = path.read_bytes().splitlines(keepends=True)
    expected = load(path)

    path.write_bytes(b"".join([first, b"\n", b"   \n", b"# note\n", *rest]))
    assert load(path) == expected
    path.write_bytes(b"".join([first, b"\n", b"   \n", b"# note\n", bad + b"\n", *rest]))
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:5: "):
        load(path)


def test_only_settings_numbers_a_files_lines():
    """``settings.read_rows`` is the one loop over a file's numbered lines,
    so every reader keeps one rule for which lines hold data."""
    package = Path(__file__).resolve().parent.parent / "src" / "blogwatch"
    loops = [p.name for p in sorted(package.glob("*.py"))
             if p.name != "settings.py" and "enumerate(read_lines(" in p.read_text(encoding="utf-8")]
    assert loops == []
