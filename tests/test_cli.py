import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsepcm
from sparsepcm import AlgoConfig, ConfigurationError, DataSet, RunReport
from sparsepcm.cli import ExperimentConfig, _build_parser, _svg_plot, main, run_experiment
from sparsepcm.datagen import FIXTURE_NAMES, CsvFormatError, iris_path, load_csv

import plot_oracle
from workloads import CLASSIC_PAIRS, SPARSE_PAIRS


def _write_blob_csv(path, n=80, seed=0, labeled=False):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(0.0, 0.0), scale=0.3, size=(n, 2))
    b = rng.normal(loc=(4.0, 4.0), scale=0.3, size=(n, 2))
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        if labeled:
            w.writerow(["x", "y", "cls"])
        for i, row in enumerate(np.vstack([a, b])):
            rec = list(np.round(row, 6))
            if labeled:
                rec.append(1 if i < n else 2)
            w.writerow(rec)
    return path


def test_load_csv_without_header(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    data = load_csv(p)
    assert data.n_points == 2
    assert data.truth_labels is None


def test_load_csv_header_autodetected(tmp_path):
    p = tmp_path / "headed.csv"
    p.write_text("alpha,beta\n1.0,2.0\n3.0,4.0\n")
    data = load_csv(p)
    assert data.n_points == 2


def test_load_csv_label_column_by_name_and_index(tmp_path):
    p = _write_blob_csv(tmp_path / "labeled.csv", labeled=True)
    by_name = load_csv(p, label_column="cls")
    assert by_name.points.shape[1] == 2
    assert sorted(np.unique(by_name.truth_labels)) == [1, 2]
    by_index = load_csv(p, label_column="2")
    np.testing.assert_array_equal(by_name.truth_labels, by_index.truth_labels)


def test_load_csv_text_label_does_not_make_a_header(tmp_path):
    # only the label cell of row 1 is text: the row is data, not a header
    p = tmp_path / "species.csv"
    p.write_text("5.1,3.5,setosa\n4.9,3.0,setosa\n6.3,3.3,virginica\n")
    for column in (2, "2"):
        data = load_csv(p, label_column=column)
        assert data.n_points == 3
        assert data.truth_labels.tolist() == [1, 1, 2]
        np.testing.assert_array_equal(data.points[0], [5.1, 3.5])


def test_load_csv_rejects_ragged_rows(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(CsvFormatError):
        load_csv(p)


_LETTERS = "1,2,a\n3,4,b\n5,6,a\n"


@pytest.mark.parametrize("text, label_column, message", [
    ("", None, "empty file"),
    ("x,y\n", None, "header but no data rows"),
    ("x,y\n1,2\n", "cls", "unknown label column 'cls'"),
    ("1,2\n3,4\n", "2", "label column index 2 out of range"),
    ("1,2\n3,4\n", "-1", "label column index -1 out of range"),
    # text that int() refuses is a column name, not an index
    ("x,y\n1,2\n", "--1", "unknown label column '--1'"),
    ("x,y\n1,2\n", "\u00b2", "unknown label column '\u00b2'"),
    ("x,y\n1,2\n", "-\u00b2", "unknown label column '-\u00b2'"),
    ("1,2\n3,four\n", None, "non-numeric cell at row 2, column 1: 'four'"),
    # a column index is a nonnegative int, never a float or a bool
    (_LETTERS, 1.5, r"label_column must be a nonnegative integer, got 1\.5"),
    (_LETTERS, True, "label_column must be a nonnegative integer, got True"),
    (_LETTERS, 2.0, r"label_column must be a nonnegative integer, got 2\.0"),
])
def test_load_csv_rejects_malformed_files(tmp_path, text, label_column, message):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ConfigurationError, match=message) as err:
        load_csv(p, label_column=label_column)
    # a file fault is a CsvFormatError, a wrongly typed argument is not
    assert isinstance(err.value, CsvFormatError) == isinstance(label_column, (str, type(None)))


def test_load_csv_rejects_header_of_another_width(tmp_path):
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("x,cls\n1,a,5\n3,b,6\n")
    with pytest.raises(CsvFormatError, match="header has 2 names but row 2 has 3 cells"):
        load_csv(narrow, label_column="cls")
    wide = tmp_path / "wide.csv"
    wide.write_text("x,y,z\n1,2\n3,4\n")
    with pytest.raises(CsvFormatError, match="header has 3 names but row 2 has 2 cells"):
        load_csv(wide)


def test_load_csv_rejects_undecodable_bytes(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"caf\xe9,1.0\n2.0,3.0\n")
    with pytest.raises(CsvFormatError, match="latin1.csv"):
        load_csv(p)


def test_load_csv_skips_a_byte_order_mark_before_data(tmp_path):
    # the mark does not turn the first row of numbers into a header
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    data = load_csv(p)
    assert data.n_points == 3
    np.testing.assert_array_equal(data.points[0], [1.0, 2.0])


def test_load_csv_skips_a_byte_order_mark_before_a_header(tmp_path):
    # the first header name is found without the mark
    p = tmp_path / "bom_header.csv"
    p.write_bytes(b"\xef\xbb\xbfa,b,label\nx,1.0,2.0\ny,3.0,4.0\nx,5.0,6.0\n")
    data = load_csv(p, label_column="a")
    assert data.truth_labels.tolist() == [1, 2, 1]
    np.testing.assert_array_equal(data.points, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

def test_load_csv_directory_is_a_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError, match=re.escape(str(tmp_path))):
        load_csv(tmp_path)
    with pytest.raises(ConfigurationError, match="nope.csv"):
        load_csv(tmp_path / "nope.csv")


def test_bundled_iris():
    data = load_csv(iris_path(), label_column="species")
    assert data.points.shape == (150, 4)
    assert np.bincount(data.truth_labels)[1:].tolist() == [50, 50, 50]


def test_main_end_to_end(tmp_path, capsys):
    data_csv = _write_blob_csv(tmp_path / "blobs.csv")
    out = tmp_path / "out"
    code = main([
        "--algo", "spcm", "--m-ini", "4", "--seed", "3",
        "--input", str(data_csv), "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "spcm:" in captured.out

    doc = json.loads((out / "report.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["failures"] == []
    report = doc["reports"][0]
    assert report["m_final"] == 2
    assert report["fcm_converged"] is True
    assert 1 <= report["fcm_iterations"] < 300

    run_dir = out / "run_00_spcm"
    _assert_labels_are_memberships_argmax(run_dir, report, 160)
    with (run_dir / "theta.csv").open() as fh:
        theta_rows = list(csv.reader(fh))
    assert len(theta_rows) - 1 == report["m_final"]

    svg = (run_dir / "plot.svg").read_text()
    assert svg.count("<circle") == report["m_final"]

    # the adaptive algorithms label by the same rule, each on one more input
    for algo, seed in (("sapcm", 1), ("apcm", 2)):
        data_csv = _write_blob_csv(tmp_path / f"blobs_{algo}.csv", n=40, seed=seed)
        code = main([
            "--algo", algo, "--m-ini", "4", "--alpha", "1.0", "--seed", str(seed),
            "--input", str(data_csv), "--out", str(out / algo),
        ])
        assert code == 0
        report = json.loads((out / algo / "report.json").read_text())["reports"][0]
        _assert_labels_are_memberships_argmax(out / algo / f"run_00_{algo}", report, 80)


def _assert_labels_are_memberships_argmax(run_dir, report, n):
    """The exported memberships are the ones the final labels came from."""
    with (run_dir / "memberships.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f"u_{j + 1}" for j in range(report["m_final"])]
    assert len(rows) - 1 == n
    u = np.array(rows[1:], dtype=float)
    expect = np.where(u.max(axis=1) > 0.0, u.argmax(axis=1) + 1, 0)
    np.testing.assert_array_equal(expect, report["labels_final"])


def test_main_fixture_input(tmp_path):
    out = tmp_path / "out"
    code = main([
        "--algo", "sapcm", "--m-ini", "5", "--alpha", "1.0", "--seed", "0",
        "--fixture", "example4", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["reports"][0]["m_final"] == 2
    assert doc["reports"][0]["metrics"]["sr"] > 90.0
    # the bundled iris table: 150 points, no plot for its 4 features
    assert main(["--algo", "spcm", "--m-ini", "3", "--fixture", "iris",
                 "--out", str(out / "iris")]) == 0
    run_dir = out / "iris" / "run_00_spcm"
    assert len((run_dir / "memberships.csv").read_text().splitlines()) == 151
    assert not (run_dir / "plot.svg").exists()


def test_fixture_choices_are_the_fixture_registry():
    (fixture,) = [a for a in _build_parser()._actions if a.dest == "fixture"]
    assert tuple(fixture.choices) == FIXTURE_NAMES


def test_config_file_with_flag_overrides(tmp_path):
    data_csv = _write_blob_csv(tmp_path / "blobs.csv")
    config = {
        "schema_version": 1,
        "runs": [{"algorithm": "pcm", "m_ini": 2, "seed": 1}],
        "input": {"csv": str(data_csv)},
        "output_dir": str(tmp_path / "from_config"),
        "emit": ["report"],
    }
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config))

    # flag wins over the config's algorithm, file input and emit stay
    code = main(["--config", str(cpath), "--algo", "spcm"])
    assert code == 0
    out = tmp_path / "from_config"
    doc = json.loads((out / "report.json").read_text())
    assert doc["reports"][0]["algorithm"] == "spcm"
    assert not (out / "run_00_spcm" / "memberships.csv").exists()

    # a source flag replaces the config's source of another kind, both ways
    sources = [({"fixture": "example1"}, ["--input", str(data_csv)], 160),
               ({"csv": str(data_csv)}, ["--fixture", "experiment1"], 17)]
    for inp, flags, n in sources:
        cpath.write_text(json.dumps({**config, "input": inp}))
        assert main(["--config", str(cpath), *flags]) == 0, flags
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["reports"][0]["labels_final"]) == n, flags


def test_config_file_with_a_byte_order_mark(tmp_path):
    # editors on Windows write the mark; the config is read as if it were absent
    config = {
        "schema_version": 1,
        "runs": [{"algorithm": "pcm", "m_ini": 2}],
        "input": {"fixture": "experiment1"},
        "output_dir": str(tmp_path / "out"),
        "emit": ["report"],
    }
    cpath = tmp_path / "config.json"
    cpath.write_bytes(b"\xef\xbb\xbf" + json.dumps(config).encode())
    assert main(["--config", str(cpath)]) == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["reports"][0]["algorithm"] == "pcm"


def test_generator_spec_input(tmp_path):
    gen = {
        "components": [
            {"mean": [0.0, 0.0], "covariance": [[0.2, 0.0], [0.0, 0.2]], "count": 60},
            {"mean": [5.0, 5.0], "covariance": [[0.2, 0.0], [0.0, 0.2]], "count": 60},
        ],
        "seed": 7,
    }
    gpath = tmp_path / "mix.json"
    gpath.write_text(json.dumps(gen))
    out = tmp_path / "out"
    code = main([
        "--algo", "pcm", "--m-ini", "2", "--seed", "0",
        "--generator", str(gpath), "--out", str(out), "--emit", "report",
    ])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["reports"][0]["metrics"]["sr"] == pytest.approx(100.0, abs=1.0)


def test_generator_spec_without_labeled_points(tmp_path):
    # an empty component plus noise: truth labels exist but are all 0,
    # so the run succeeds without metrics
    gen = {
        "components": [
            {"mean": [0.0, 0.0], "covariance": [[0.2, 0.0], [0.0, 0.2]], "count": 0},
        ],
        "noise_count": 40,
        "noise_box": [[0.0, 0.0], [1.0, 1.0]],
        "seed": 7,
    }
    gpath = tmp_path / "noise.json"
    gpath.write_text(json.dumps(gen))
    out = tmp_path / "out"
    code = main([
        "--algo", "pcm", "--m-ini", "2", "--seed", "0",
        "--generator", str(gpath), "--out", str(out), "--emit", "report",
    ])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["failures"] == []
    assert doc["reports"][0]["metrics"] is None


def test_main_warns_once_per_run_stopped_at_a_cap(tmp_path, capsys):
    # run 0 stops its main loop after one iteration; run 1 converges
    data_csv = _write_blob_csv(tmp_path / "blobs.csv")
    config = {
        "schema_version": 1,
        "runs": [
            {"algorithm": "spcm", "m_ini": 4, "max_iter": 1},
            {"algorithm": "spcm", "m_ini": 4},
        ],
        "input": {"csv": str(data_csv)},
        "output_dir": str(tmp_path / "out"),
        "emit": ["report"],
    }
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config))
    assert main(["--config", str(cpath)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert len(warnings) == 1
    assert "main loop" in warnings[0] and "FCM" not in warnings[0]
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [r["converged"] for r in doc["reports"]] == [False, True]


def test_failed_run_does_not_shift_later_artifacts(tmp_path, capsys):
    # run 0 fails (m_ini > N); run 1's artifacts keep its own index and
    # its own p, so its memberships reproduce its labels
    data_csv = _write_blob_csv(tmp_path / "blobs.csv", n=60)
    config = {
        "schema_version": 1,
        "runs": [
            {"algorithm": "spcm", "m_ini": 500},
            {"algorithm": "spcm", "m_ini": 4, "p": 0.2, "K": 0.95},
        ],
        "input": {"csv": str(data_csv)},
        "output_dir": str(tmp_path / "out"),
    }
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config))
    assert main(["--config", str(cpath)]) == 1
    capsys.readouterr()
    out = tmp_path / "out"
    doc = json.loads((out / "report.json").read_text())
    assert [f["run"] for f in doc["failures"]] == [0]
    assert not (out / "run_00_spcm").exists()
    _assert_labels_are_memberships_argmax(out / "run_01_spcm", doc["reports"][0], 120)


@pytest.mark.parametrize("column", ["--1", "\u00b2", "-\u00b2"])
def test_label_column_that_is_no_index_exits_2(tmp_path, capsys, column):
    data_csv = _write_blob_csv(tmp_path / "b.csv", labeled=True)
    assert main(["--algo", "pcm", "--m-ini", "2", "--input", str(data_csv),
                 f"--label-column={column}", "--out", str(tmp_path / "o")]) == 2
    assert f"unknown label column {column!r}" in capsys.readouterr().err


def test_exit_code_2_on_bad_configuration(tmp_path, capsys):
    assert main(["--m-ini", "3", "--fixture", "example1"]) == 2  # no algo
    assert main(["--algo", "pcm", "--m-ini", "3"]) == 2          # no input
    data_csv = _write_blob_csv(tmp_path / "b.csv")
    assert main([
        "--algo", "pcm", "--m-ini", "0", "--input", str(data_csv),
    ]) == 2
    # wrongly typed or shaped config documents
    base = {"schema_version": 1, "input": {"csv": str(data_csv)},
            "output_dir": str(tmp_path / "o")}
    ok_run = {"algorithm": "pcm", "m_ini": 2}
    bad_docs = [
        [ok_run],
        {**base, "runs": ok_run},
        {**base, "runs": ["pcm"]},
        {**base, "runs": [ok_run], "input": [str(data_csv)]},
        {**base, "runs": [{**ok_run, "m_ini": 2.5}]},
        {**base, "runs": [{**ok_run, "m_ini": "2"}]},
        {**base, "runs": [{**ok_run, "max_iter": 3.5}]},
        {**base, "runs": [{**ok_run, "seed": -1}]},
        {**base, "runs": [{"algorithm": "apcm", "m_ini": 2, "alpha": "1"}]},
        {**base, "runs": [{**ok_run, "theta_tol": float("nan")}]},
    ]
    cfg = tmp_path / "bad.json"
    for doc in bad_docs:
        cfg.write_text(json.dumps(doc))
        assert main(["--config", str(cfg)]) == 2, doc
    capsys.readouterr()
    # malformed values: exit 2 with a message that names the key
    component = {"mean": [0, 0], "covariance": [[1, 0], [0, 1]], "count": 5}
    specs = [{"noise_count": 3}, {"components": [{**component, "count": "x"}]}, "{"]
    # out-of-range or wrongly typed values, and shapes that do not fit
    spec_named = [
        ({"seed": -1}, "'seed'"),
        ({"noise_count": -2}, "'noise_count'"),
        ({"components": [{**component, "count": 20.7}]}, "'count'"),
        ({"components": [{**component, "count": "20"}]}, "'count'"),
        ({"components": [{**component, "count": True}]}, "'count'"),
        ({"components": [{**component, "mean": [0, 0, 0]}]}, "component 1"),
        ({"components": [component, {**component, "mean": [1], "covariance": [[1]]}]},
         "component 2"),
        ({"noise_count": 3, "noise_box": [[0, 0, 0], [1, 1, 1]]}, "noise_box"),
        ({"components": [{**component, "mean": "ab"}]}, "'mean'"),
    ]
    for change, _ in spec_named:
        specs.append({"components": [component], **change})
    gens = []
    for k, spec in enumerate(specs):
        gens.append(tmp_path / f"spec{k}.json")
        gens[-1].write_text(spec if isinstance(spec, str) else json.dumps(spec))
    fixture = {"fixture": "example1"}
    named = [
        ({"emit": 5}, "emit must be a list"),
        ({"emit": "report"}, "emit must be a list"),
        ({"output_dir": 5}, "output_dir must be"),
        ({"input": {"csv": 5}}, "csv must be"),
        ({"input": fixture, "fixture_seed": "x"}, "fixture_seed must be"),
        ({"input": fixture, "fixture_seed": -1}, "fixture_seed must be"),
        ({"input": {"generator": str(gens[0])}}, "'components'"),
        ({"input": {"generator": str(gens[1])}}, "'count'"),
        ({"input": {"generator": str(gens[2])}}, "error:"),
        ({"schema_version": 2}, "unsupported schema_version 2"),
        ({"runs": [{**ok_run, "tol": 1e-6}]}, "unknown run options: ['tol']"),
        # a JSON integer past float range is no finite number
        ({"runs": [{**ok_run, "theta_tol": 10**400}]}, "theta_tol must be"),
    ] + [
        ({"input": {"generator": str(g)}}, message)
        for g, (_, message) in zip(gens[3:], spec_named)
    ]
    for change, message in named:
        doc = {**base, "runs": [ok_run], **change}
        cfg.write_text(json.dumps(doc))
        assert main(["--config", str(cfg)]) == 2, doc
        assert message in capsys.readouterr().err, doc
    cfg.write_text(json.dumps({**base, "runs": [ok_run]}))
    assert main(["--config", str(cfg), "--emit", "bogus"]) == 2
    assert "unknown emit targets: ['bogus']" in capsys.readouterr().err
    # main always builds at least one run; the config type checks its own
    with pytest.raises(ConfigurationError, match="at least one run"):
        ExperimentConfig(runs=[], output_dir=tmp_path / "o", fixture="example1")


def test_exit_code_2_on_missing_files(tmp_path, capsys):
    assert main([
        "--algo", "pcm", "--m-ini", "2", "--input", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "o"),
    ]) == 2
    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()
    # a directory as the config, and bytes that are not UTF-8 in each input file
    undecodable = tmp_path / "latin1.txt"
    undecodable.write_bytes(b"caf\xe9,1.0\n")
    for flag, bad in [("--config", tmp_path), ("--config", undecodable),
                      ("--generator", undecodable), ("--input", undecodable)]:
        args = ["--algo", "pcm", "--m-ini", "2", flag, str(bad), "--out", str(tmp_path / "o")]
        assert main(args) == 2, args
        assert str(bad) in capsys.readouterr().err, args


def test_exit_code_1_on_failed_run(tmp_path, capsys):
    # identical points leave every cluster with zero spread, which is a
    # run-time failure rather than a configuration problem
    p = tmp_path / "flat.csv"
    p.write_text("1.0,1.0\n" * 6)
    code = main([
        "--algo", "pcm", "--m-ini", "2", "--input", str(p),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "run failed" in err


def test_cli_run_leaves_scipy_unimported(tmp_path):
    """The package needs numpy alone: a whole CLI run in a fresh interpreter
    imports no scipy module."""
    argv = ["--fixture", "experiment1", "--algo", "spcm", "--m-ini", "2", "--out", str(tmp_path)]
    code = (
        "import sys\nfrom sparsepcm.cli import main\n"
        f"status = main({argv!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(status)\n"
    )
    src = str(Path(sparsepcm.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "report.json").is_file()


def test_fixture_seed_defaults_to_the_first_runs_seed_in_library_and_cli(tmp_path):
    """run_experiment and the CLI draw the same fixture from the same settings."""
    lib, cli = tmp_path / "lib", tmp_path / "cli"
    run_experiment(ExperimentConfig(runs=[AlgoConfig("spcm", 2, seed=3)], output_dir=lib,
                                    fixture="example4"))
    assert main(["--algo", "spcm", "--m-ini", "2", "--seed", "3", "--fixture", "example4",
                 "--out", str(cli)]) == 0
    docs = [json.loads((out / "report.json").read_text()) for out in (lib, cli)]
    for doc in docs:
        for report in doc["reports"]:
            del report["wall_time"]
    assert docs[0] == docs[1]


def _eleven_clusters():
    """One point on each of 11 representatives, labels 1 to 11, and one
    unassigned point."""
    m = 11
    theta = np.column_stack([np.arange(m, dtype=float), np.zeros(m)])
    points = np.vstack([theta, [[5.0, 3.0]]])
    labels = np.append(np.arange(1, m + 1), 0)
    report = RunReport(
        algorithm="spcm", m_ini=m, m_final=m, iterations=1, converged=True,
        fcm_iterations=1, fcm_converged=True, wall_time=0.0, theta_final=theta,
        gamma_final=np.full(m, 0.01), lam_final=0.0, labels_final=labels, seed=0,
    )
    return DataSet(points=points), report


def test_plot_draws_no_cluster_in_the_unassigned_color(tmp_path):
    """Only label 0 is gray: labels past the palette cycle over the cluster
    colors, so an 11-cluster run draws labels 10 and 11 like 1 and 2."""
    data, report = _eleven_clusters()
    labels, m = report.labels_final, report.m_final
    path = tmp_path / "plot.svg"
    _svg_plot(path, data, report)
    fills = re.findall(r'<rect x=\S+ y=\S+ width="2.4" height="2.4" fill="([^"]+)"', path.read_text())
    color = dict(zip(labels.tolist(), fills))
    assert len(fills) == m + 1
    assert color[0] == "#777777"
    assert "#777777" not in [color[k] for k in range(1, m + 1)]
    assert (color[10], color[11]) == (color[1], color[2])


# perfbench's fixture/algorithm pairs at fixture seed 0
_PAIRS = {f"{fixture}/{algorithm}": (fixture, AlgoConfig(algorithm, seed=0, **settings))
          for fixture, algorithm, settings in SPARSE_PAIRS + CLASSIC_PAIRS}


def _pair_run(group):
    fixture, config = _PAIRS[group]
    data = sparsepcm.make_fixture(fixture, seed=0)
    return data, sparsepcm.run(data, config)


@pytest.mark.parametrize("group", ["example1/spcm", "example3/sapcm", "example1/pcm",
                                   "eleven-clusters"])
def test_plot_is_the_per_point_form_byte_for_byte(tmp_path, group):
    """plot.svg is plot_oracle's text byte for byte. The sparse runs leave
    points unassigned, so the gray fills are compared too."""
    data, report = _eleven_clusters() if group == "eleven-clusters" else _pair_run(group)
    if group in ("example1/spcm", "example3/sapcm"):
        assert (report.labels_final == 0).any()
    _svg_plot(tmp_path / "plot.svg", data, report)
    plot_oracle.svg_plot(tmp_path / "oracle.svg", data, report)
    assert (tmp_path / "plot.svg").read_bytes() == (tmp_path / "oracle.svg").read_bytes()


def test_csv_files_are_the_returned_matrices_bit_for_bit(tmp_path):
    """memberships.csv and theta.csv read back to report.memberships and
    report.theta_final, every bit, the exact zeros of a sparse run included."""
    runs = [_PAIRS[group][1] for group in ("example1/spcm", "example1/pcm")]
    reports = run_experiment(ExperimentConfig(runs=runs, output_dir=tmp_path,
                                              fixture="example1", fixture_seed=0))
    assert (reports[0].memberships == 0.0).any()
    for i, report in enumerate(reports):
        run_dir = tmp_path / f"run_{i:02d}_{report.algorithm}"
        for name, matrix, prefix in (("memberships.csv", report.memberships, "u"),
                                     ("theta.csv", report.theta_final, "x")):
            with (run_dir / name).open(newline="") as fh:
                header, *rows = csv.reader(fh)
            assert header == [f"{prefix}_{j + 1}" for j in range(matrix.shape[1])]
            parsed = np.array([[float(cell) for cell in row] for row in rows])
            assert parsed.shape == matrix.shape
            assert parsed.tobytes() == matrix.tobytes()
