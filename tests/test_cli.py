import pytest

from blogwatch.cli import main


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


def test_config_error_exit_code(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("nonsense_key = 1\n", encoding="utf-8")
    assert main(["run", "--config", str(conf)]) == 1
    assert "config error" in capsys.readouterr().err


def test_missing_fixture_is_runtime_failure(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("mode = batch\nfixture_path = ./nowhere\n"
                    "registry_path = r.txt\ntopic_corpus_path = t.txt\n"
                    "background_corpus_path = b.txt\n", encoding="utf-8")
    assert main(["run", "--config", str(conf)]) == 2


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
    assert main(["report", str(garbage)]) == 2
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
                                 b"top_phrase.01 = heavy\ta b", b"elapsed = \xff1.0"],
                         ids=["float", "int", "phrase-score", "non-utf8"])
def test_report_on_bad_report_line_names_path_and_line(tmp_path, capsys, bad):
    report = tmp_path / "report.txt"
    report.write_bytes(b"report_version = 1\n" + bad + b"\n")
    assert main(["report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {report}:2: ")


def test_report_on_non_utf8_checkpoint_names_path_and_line(tmp_path, capsys):
    ckpt = tmp_path / "graph.ckpt"
    ckpt.write_bytes(b"N\thttp://a.example/\tfetched\t0.0\n"
                     b"N\thttp://b\xff.example/\tunfetched\t1.0\n")
    assert main(["report", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {ckpt}:2: ")


@pytest.mark.parametrize("name", ["topic_corpus.txt", "labels.tsv"],
                         ids=["corpus", "world"])
def test_bad_byte_in_corpus_or_fixture_is_config_error(tmp_path, capsys, name):
    """A bad byte in a corpus (read by the run's models) or in a fixture
    file (read by ``load_world``) names the file and its line."""
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
    assert f"config error: {path}:3: " in capsys.readouterr().err
