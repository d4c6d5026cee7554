import shutil

import pytest

from blogwatch.cli import main

from conftest import count_opens


def test_gen_fixture_run_report_cycle(tmp_path, capsys):
    spec = tmp_path / "world.conf"
    spec.write_text("rng_seed = 3\nn_blogs = 24\ntopical_fraction = 0.4\n"
                    "spam_fraction = 0.1\nempty_fraction = 0.1\n"
                    "media_fraction = 0.1\nping_cycles = 2\n", encoding="utf-8")
    out = tmp_path / "fixture"

    assert main(["gen-fixture", "--spec", str(spec), "--out", str(out)]) == 0
    assert (out / "run.conf").exists()
    assert (out / "manifest.tsv").exists()

    assert main(["run", "--config", str(out / "run.conf"), "--max-pages", "10"]) == 0
    captured = capsys.readouterr().out
    assert "harvest_rate" in captured
    assert (out / "report.txt").exists()
    assert (out / "graph.ckpt").exists()

    assert main(["report", str(out / "report.txt")]) == 0
    assert "pages_fetched" in capsys.readouterr().out

    assert main(["report", str(out / "graph.ckpt")]) == 0
    assert "nodes" in capsys.readouterr().out


def test_run_with_report_override(tmp_path, capsys):
    spec = tmp_path / "world.conf"
    spec.write_text("rng_seed = 5\nn_blogs = 10\nping_cycles = 1\n", encoding="utf-8")
    out = tmp_path / "fixture"
    main(["gen-fixture", "--spec", str(spec), "--out", str(out)])
    report = tmp_path / "custom_report.txt"
    assert main(["run", "--config", str(out / "run.conf"), "--max-pages", "5",
                 "--report", str(report)]) == 0
    assert report.exists()


def test_run_with_fixture_override(tmp_path, capsys):
    """``--fixture DIR`` serves the world in DIR instead of the one that
    run.conf names."""
    spec = tmp_path / "world.conf"
    spec.write_text("rng_seed = 5\nn_blogs = 10\nping_cycles = 1\n", encoding="utf-8")
    out = tmp_path / "fixture"
    main(["gen-fixture", "--spec", str(spec), "--out", str(out)])
    conf = out / "run.conf"
    conf.write_text(conf.read_text(encoding="utf-8").replace(
        "fixture_path = .", "fixture_path = missing"), encoding="utf-8")
    args = ["run", "--config", str(conf), "--max-pages", "5"]
    assert main(args) == 1
    capsys.readouterr()
    assert main(args + ["--fixture", str(out)]) == 0
    assert "pages_fetched" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("nonsense_key = 1\n", encoding="utf-8")
    assert main(["run", "--config", str(conf)]) == 1
    assert "config error" in capsys.readouterr().err


def test_missing_fixture_is_config_error(tmp_path, capsys):
    for name in ("r.txt", "t.txt", "b.txt"):
        (tmp_path / name).write_text("flood river warning\n", encoding="utf-8")
    conf = tmp_path / "run.conf"
    conf.write_text("mode = batch\nfixture_path = ./nowhere\n"
                    "registry_path = r.txt\ntopic_corpus_path = t.txt\n"
                    "background_corpus_path = b.txt\n", encoding="utf-8")
    assert main(["run", "--config", str(conf)]) == 1
    manifest = tmp_path / "nowhere" / "manifest.tsv"
    assert capsys.readouterr().err.startswith(f"config error: {manifest}: ")


def test_bad_world_spec_exit_code(tmp_path, capsys):
    spec = tmp_path / "world.conf"
    spec.write_text("topical_fraction = 0.9\nspam_fraction = 0.9\n", encoding="utf-8")
    assert main(["gen-fixture", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("line", ["posts_per_blog = 3", "links_per_post = 1:x"])
def test_bad_world_spec_range_exit_code(tmp_path, capsys, line):
    spec = tmp_path / "world.conf"
    spec.write_text(line + "\n", encoding="utf-8")
    assert main(["gen-fixture", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
    assert f"config error: {spec}:1: " in capsys.readouterr().err


def test_report_on_empty_checkpoint_shows_empty_graph(tmp_path, capsys):
    """A run over a world with no blogs writes an empty checkpoint;
    ``report`` shows it as a graph, not as an all-zero run report."""
    spec = tmp_path / "world.conf"
    spec.write_text("n_blogs = 0\n", encoding="utf-8")
    out = tmp_path / "fixture"
    assert main(["gen-fixture", "--spec", str(spec), "--out", str(out)]) == 0
    assert main(["run", "--config", str(out / "run.conf")]) == 0
    assert (out / "graph.ckpt").read_text(encoding="utf-8") == ""
    capsys.readouterr()

    assert main(["report", str(out / "graph.ckpt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["edges        0", "nodes        0"]


def test_report_on_garbage_file_names_path_and_line(tmp_path, capsys):
    garbage = tmp_path / "notes.txt"
    garbage.write_text("hello world\n", encoding="utf-8")
    assert main(["report", str(garbage)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{garbage}:1: " in captured.err


@pytest.mark.parametrize("bad", [b"mode = b\xffatch", b"registry_path = reg\x00istry.txt"],
                         ids=["non-utf8", "nul"])
def test_bad_byte_in_run_conf_is_config_error(tmp_path, capsys, bad):
    conf = tmp_path / "run.conf"
    conf.write_bytes(b"# settings\n" + bad + b"\n")
    assert main(["run", "--config", str(conf)]) == 1
    assert f"config error: {conf}:2: " in capsys.readouterr().err


@pytest.mark.parametrize("bad", [b"n_blogs = 1\xe9", b"n_blogs = 1\x002"],
                         ids=["non-utf8", "nul"])
def test_bad_byte_in_world_spec_is_config_error(tmp_path, capsys, bad):
    spec = tmp_path / "world.conf"
    spec.write_bytes(b"rng_seed = 3\n" + bad + b"\n")
    assert main(["gen-fixture", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
    assert f"config error: {spec}:2: " in capsys.readouterr().err


@pytest.mark.parametrize("bad", [b"elapsed = 1.0x", b"seeds_in = 7.5",
                                 b"top_phrase.01 = heavy\ta b", b"elapsed = \xff1.0",
                                 b"garbage line", b"bogus_key = 7", b"harvest_rate = nan",
                                 b"elapsed = inf", b"top_phrase.02 = nan\tx",
                                 b"top_phrase.03 = 1.5", b"report_version = 1.5"],
                         ids=["float", "int", "phrase-score", "non-utf8", "no-equals",
                              "unknown-key", "nan", "inf", "nan-phrase-score",
                              "phrase-without-tab", "version"])
def test_report_on_bad_report_line_names_path_and_line(tmp_path, capsys, bad):
    report = tmp_path / "report.txt"
    report.write_bytes(b"report_version = 1\n" + bad + b"\n")
    assert main(["report", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {report}:2: ")


def test_report_on_truncated_report_exits_1(tmp_path, capsys):
    report = tmp_path / "report.txt"
    report.write_text("report_version = 1\nelapsed = 3.0\n", encoding="utf-8")
    assert main(["report", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {report}: missing seeds_in, ")


def test_report_on_non_utf8_checkpoint_names_path_and_line(tmp_path, capsys):
    ckpt = tmp_path / "graph.ckpt"
    ckpt.write_bytes(b"N\thttp://a.example/\tfetched\t0.0\n"
                     b"N\thttp://b\xff.example/\tunfetched\t1.0\n")
    assert main(["report", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {ckpt}:2: ")


@pytest.mark.parametrize("name, table", [("topic_corpus.txt", None),
                                         ("changes/cycle_000.xml", "ping_script.tsv")],
                         ids=["corpus", "changes"])
def test_bad_byte_in_corpus_or_fixture_is_config_error(tmp_path, capsys, name, table):
    """A bad byte in a corpus (read by the run's models) or in a fixture
    file (read by ``load_served_world``) names the file and its line,
    after the line of the table that names the file."""
    spec = tmp_path / "world.conf"
    spec.write_text("rng_seed = 5\nn_blogs = 10\nping_cycles = 1\n", encoding="utf-8")
    out = tmp_path / "fixture"
    assert main(["gen-fixture", "--spec", str(spec), "--out", str(out)]) == 0
    path = out / name
    lines = path.read_bytes().split(b"\n")
    assert len(lines) > 3
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(["run", "--config", str(out / "run.conf")]) == 1
    via = f"{out / table}:1: " if table else ""
    assert f"config error: {via}{path}:3: " in capsys.readouterr().err


@pytest.mark.parametrize("name, edit", [
    ("manifest.tsv", lambda line: line.replace(b"\t", b" ", 1)),
    ("manifest.tsv", lambda line: line + b".missing"),
    ("ping_script.tsv", lambda line: b"0.0x" + line[line.index(b"\t"):]),
    ("ping_script.tsv", lambda line: line + b".missing"),
], ids=["manifest-fields", "manifest-size-not-decimal", "ping-time", "ping-missing-cycle"])
def test_bad_fixture_table_line_is_config_error(tmp_path, capsys, name, edit):
    """A line of a fixture table that does not parse (a manifest size that
    is no decimal byte count, say), or that names a missing file, fails
    the run as a config error naming the table and its line."""
    spec = tmp_path / "world.conf"
    spec.write_text("rng_seed = 5\nn_blogs = 10\nping_cycles = 2\n", encoding="utf-8")
    out = tmp_path / "fixture"
    assert main(["gen-fixture", "--spec", str(spec), "--out", str(out)]) == 0
    path = out / name
    lines = path.read_bytes().split(b"\n")
    lines[1] = edit(lines[1])
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(["run", "--config", str(out / "run.conf")]) == 1
    assert f"config error: {path}:2: " in capsys.readouterr().err


def test_run_reads_its_lists_where_run_conf_names_them(tmp_path, capsys):
    """A batch run reads the registry and the corpora at the paths of
    ``run.conf``, and from the fixture only what it serves and replays:
    with those lists and ``labels.tsv`` moved out of the fixture, it
    gives the report of the unmoved fixture."""
    spec = tmp_path / "world.conf"
    spec.write_text("rng_seed = 5\nn_blogs = 10\nping_cycles = 2\n", encoding="utf-8")
    reports = []
    for name in ("kept", "moved"):
        out = tmp_path / name
        assert main(["gen-fixture", "--spec", str(spec), "--out", str(out)]) == 0
        if name == "moved":
            lists = tmp_path / "lists"
            lists.mkdir()
            for moved in ("registry.txt", "labels.tsv", "topic_corpus.txt",
                          "background_corpus.txt"):
                (out / moved).rename(lists / moved)
            conf = (out / "run.conf").read_text(encoding="utf-8")
            for key in ("registry", "topic_corpus", "background_corpus"):
                conf = conf.replace(f"{key}_path = {key}.txt", f"{key}_path = ../lists/{key}.txt")
            (out / "run.conf").write_text(conf, encoding="utf-8")
        assert main(["run", "--config", str(out / "run.conf"), "--max-pages", "10"]) == 0
        reports.append((out / "report.txt").read_bytes())
    assert reports[0] == reports[1]


# ----------------------------------------------------------------------
# every input file fails one way: exit 1, naming the file

@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """A fixture directory holding every file the CLI or a run reads: the
    generated world with its run.conf (plus a glossary and a ping URL), a
    world spec, a topic corpus directory, and a run's report and
    checkpoint."""
    root = tmp_path_factory.mktemp("inputs") / "fixture"
    spec = root.parent / "world.conf"
    spec.write_text("rng_seed = 5\nn_blogs = 10\nping_cycles = 2\n", encoding="utf-8")
    assert main(["gen-fixture", "--spec", str(spec), "--out", str(root)]) == 0
    spec.rename(root / "world.conf")
    (root / "glossary.txt").write_text("# banned terms\ncasino\nlottery\n", encoding="utf-8")
    # the online case must fail before its first poll; were it to poll,
    # it would stay on this host
    with open(root / "run.conf", "a", encoding="utf-8") as fh:
        fh.write("glossary_path = glossary.txt\nping_url = http://127.0.0.1:9/changes\n")
    docs = root / "topic_docs"
    docs.mkdir()
    for i, doc in enumerate((root / "topic_corpus.txt").read_text(encoding="utf-8").split("\n")):
        if doc:
            (docs / f"{i:02d}.txt").write_text(doc + "\n", encoding="utf-8")
    assert main(["run", "--config", str(root / "run.conf"), "--max-pages", "10"]) == 0
    return root


_RUN = ["run", "--config", "{dir}/run.conf"]
_DOCS = "topic_corpus_path = topic_docs"
_INPUTS = {   # path -> (command, run.conf line that makes the run read it)
    "run.conf": (_RUN, ""),
    "world.conf": (["gen-fixture", "--spec", "{dir}/world.conf", "--out", "{dir}/o"], ""),
    "registry.txt": (_RUN, ""),
    "stoplist.txt": (_RUN, ""),
    "glossary.txt": (_RUN, ""),
    "topic_corpus.txt": (_RUN, ""),
    "topic_docs": (_RUN, _DOCS),
    "topic_docs/01.txt": (_RUN, _DOCS),
    "background_corpus.txt": (_RUN, ""),
    "manifest.tsv": (_RUN, ""),
    "sites.bin": (_RUN, ""),
    "ping_script.tsv": (_RUN, ""),
    "report.txt": (["report", "{dir}/report.txt"], ""),
    "graph.ckpt": (["report", "{dir}/graph.ckpt"], ""),
}


def _missing(path):
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()
    return f"config error: {path}: "


def _bad_byte(path):
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    path.write_bytes(b"\n".join(lines))
    return f"config error: {path}:2: "


def _one_byte_short(path):
    path.write_bytes(path.read_bytes()[:-1])
    return f"config error: {path}: "


def _empty(path):
    if path.is_dir():
        for doc in path.iterdir():
            doc.unlink()
    else:
        path.write_bytes(b"")
    return "config error: "


# sites.bin holds bodies, not lines: a byte inserted there is a length
# that the manifest's sizes do not sum to
_CASES = [(name, _missing, []) for name in _INPUTS if name != "topic_docs/01.txt"] + \
         [(name, _bad_byte, []) for name in _INPUTS if name not in ("topic_docs", "sites.bin")] + [
    ("sites.bin", _one_byte_short, []),
    # online reads the registry after the models, before its first poll
    ("registry.txt", _bad_byte, ["--mode", "online"]),
    ("topic_corpus.txt", _empty, []),
    ("topic_docs", _empty, []),
    ("background_corpus.txt", _empty, []),
]


@pytest.mark.parametrize("name, breaks, extra", _CASES, ids=[
    f"{name}-{breaks.__name__.strip('_')}{'-online' if extra else ''}"
    for name, breaks, extra in _CASES])
def test_every_bad_input_file_is_config_error(input_files, tmp_path, capsys,
                                              name, breaks, extra):
    """A missing file exits 1 naming it, a bad byte naming its line, a
    short ``sites.bin`` naming it, and an empty corpus exits 1, whichever
    reader meets the file first."""
    fixture = tmp_path / "fixture"
    shutil.copytree(input_files, fixture)
    command, conf_line = _INPUTS[name]
    if conf_line:
        # replace the line setting the same key, since a key set twice fails
        conf = fixture / "run.conf"
        key = conf_line.partition("=")[0]
        lines = conf.read_text(encoding="utf-8").splitlines(True)
        conf.write_text("".join(conf_line + "\n" if line.startswith(key) else line
                                for line in lines), encoding="utf-8")
        assert conf_line in conf.read_text(encoding="utf-8")
    expected = breaks(fixture / name)
    capsys.readouterr()
    assert main([arg.format(dir=fixture) for arg in command] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith(expected), err
    if breaks is _empty:
        assert err.endswith("corpus is empty\n"), err


@pytest.mark.parametrize("name, shown", [("report.txt", "pages_fetched"), ("graph.ckpt", "nodes")],
                         ids=["report", "checkpoint"])
def test_report_reads_its_file_once(input_files, capsys, monkeypatch, name, shown):
    """``blogwatch report`` tells a report from a checkpoint by the first
    data line of the one read it makes, and parses that same read."""
    path = input_files / name
    opened = count_opens(monkeypatch)
    assert main(["report", str(path)]) == 0
    assert opened == {str(path): 1}
    assert shown in capsys.readouterr().out
