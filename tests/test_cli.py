import csv
import json

import numpy as np
import pytest

from sparsepcm.cli import (
    CsvFormatError,
    iris_path,
    load_csv,
    main,
)


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


def test_load_csv_rejects_ragged_rows(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(CsvFormatError):
        load_csv(p)


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

    run_dir = out / "run_00_spcm"
    with (run_dir / "memberships.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f"u_{j + 1}" for j in range(report["m_final"])]
    assert len(rows) - 1 == 160
    # the exported memberships are the ones the final labels came from
    u = np.array(rows[1:], dtype=float)
    expect = np.where(u.max(axis=1) > 0.0, u.argmax(axis=1) + 1, 0)
    np.testing.assert_array_equal(expect, report["labels_final"])
    with (run_dir / "theta.csv").open() as fh:
        theta_rows = list(csv.reader(fh))
    assert len(theta_rows) - 1 == report["m_final"]

    svg = (run_dir / "plot.svg").read_text()
    assert svg.count("<circle") == report["m_final"]


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
    with (out / "run_01_spcm" / "memberships.csv").open() as fh:
        u = np.array(list(csv.reader(fh))[1:], dtype=float)
    expect = np.where(u.max(axis=1) > 0.0, u.argmax(axis=1) + 1, 0)
    np.testing.assert_array_equal(expect, doc["reports"][0]["labels_final"])


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


def test_exit_code_2_on_missing_files(tmp_path, capsys):
    assert main([
        "--algo", "pcm", "--m-ini", "2", "--input", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "o"),
    ]) == 2
    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


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
