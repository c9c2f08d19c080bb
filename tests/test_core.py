import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

import sparsepcm
from sparsepcm import (
    ClusteringError,
    ConfigurationError,
    DataSet,
    RunReport,
)
from sparsepcm.core import IterationRecord, squared_distances


def test_dataset_coerces_to_float_matrix():
    d = DataSet(points=[[1, 2], [3, 4]])
    assert d.points.dtype == np.float64
    assert d.points.shape == (2, 2)
    assert d.n_points == 2 and d.n_features == 2


def test_dataset_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        DataSet(points=np.zeros((0, 2)))
    with pytest.raises(ConfigurationError):
        DataSet(points=np.zeros(5))
    with pytest.raises(ConfigurationError):
        DataSet(points=[[1.0, np.nan]])
    # text, bools and ragged rows are not numbers
    for bad in ([["1", "2"]], [[True, False]], [[1.0], [1.0, 2.0]]):
        with pytest.raises(ConfigurationError):
            DataSet(points=bad)


def test_dataset_truth_label_validation():
    pts = np.zeros((3, 2))
    DataSet(points=pts, truth_labels=[0, 1, 2])
    with pytest.raises(ConfigurationError):
        DataSet(points=pts, truth_labels=[1, 2])
    with pytest.raises(ConfigurationError):
        DataSet(points=pts, truth_labels=[-1, 0, 1])
    # every positive label needs its generator mean
    DataSet(points=pts, truth_labels=[0, 1, 2], truth_centers=np.zeros((2, 2)))
    with pytest.raises(ConfigurationError):
        DataSet(points=pts, truth_labels=[0, 1, 2], truth_centers=np.zeros((1, 2)))
    with pytest.raises(ConfigurationError):
        DataSet(points=pts, truth_centers=np.zeros((2, 3)))
    # integral floats and int arrays are labels; anything else is refused
    # with an error that names the field
    labels = DataSet(points=pts, truth_labels=[1.0, 2.0, 0.0]).truth_labels
    assert labels.dtype.kind == "i" and labels.tolist() == [1, 2, 0]
    labels = DataSet(points=pts, truth_labels=np.array([2, 0, 1])).truth_labels
    assert labels.tolist() == [2, 0, 1]
    for bad in ([1.7, 2.0, 1.0], [True, False, True], [1, np.nan, 2],
                [1, np.inf, 2], ["a", "b", "c"]):
        with pytest.raises(ConfigurationError, match="truth_labels"):
            DataSet(points=pts, truth_labels=bad)


def test_squared_distances_matches_manual():
    rng = np.random.default_rng(0)
    for n_features in (1, 3, 5):
        x = rng.normal(size=(20, n_features))
        theta = rng.normal(size=(4, n_features))
        x[7] = theta[2]
        d = squared_distances(DataSet(points=x), theta)
        manual = ((x[:, None, :] - theta[None, :, :]) ** 2).sum(axis=2)
        assert d.shape == (20, 4) and d.flags.f_contiguous
        np.testing.assert_allclose(d, manual, atol=1e-12)
        assert (d >= 0).all()
        # a point on a representative is exactly at distance zero
        assert d[7, 2] == 0.0
        for order in "CF":
            out = np.full((20, 4), np.nan, order=order)
            assert squared_distances(DataSet(points=x), theta, out=out) is out
            np.testing.assert_array_equal(out, d)
            assert out[7, 2] == 0.0
    with pytest.raises(ConfigurationError, match=r"theta shape \(4, 2\) does not match"):
        squared_distances(DataSet(points=x), theta[:, :2])


def test_exception_hierarchy():
    assert issubclass(ConfigurationError, ClusteringError)


def test_run_report_round_trips_through_dict():
    rec = IterationRecord(
        iteration=0,
        theta=np.array([[1.0, 2.0]]),
        gamma=np.array([0.5]),
        lam=0.25,
        m=1,
        max_move=0.1,
    )
    report = RunReport(
        algorithm="spcm",
        m_ini=3,
        m_final=1,
        iterations=7,
        converged=True,
        fcm_iterations=300,
        fcm_converged=False,
        wall_time=0.01,
        theta_final=np.array([[1.0, 2.0]]),
        gamma_final=np.array([0.5]),
        lam_final=0.125,
        labels_final=np.array([1, 1, 0]),
        seed=9,
        metrics={"rm": 100.0, "sr": 100.0, "sr_per_cluster": [100.0], "md": 0.0},
        history=[rec],
        memberships=np.array([[0.9], [0.4], [0.0]]),
    )
    doc = json.loads(json.dumps(report.to_dict()))
    # the membership matrix stays in memory: out of the JSON form and the repr
    assert list(doc) == [
        "algorithm", "m_ini", "m_final", "iterations", "converged", "fcm_iterations",
        "fcm_converged", "wall_time", "theta_final", "gamma_final", "lam_final",
        "labels_final", "seed", "metrics", "history",
    ]
    assert "memberships" not in repr(report)
    assert doc["algorithm"] == "spcm"
    assert doc["m_final"] == 1
    assert doc["converged"] is True
    assert doc["fcm_iterations"] == 300
    assert doc["fcm_converged"] is False
    assert doc["labels_final"] == [1, 1, 0]
    np.testing.assert_allclose(doc["theta_final"], report.theta_final)
    assert doc["lam_final"] == 0.125
    assert doc["history"][0]["lambda"] == pytest.approx(0.25)
    assert doc["metrics"]["sr"] == pytest.approx(100.0)


def _package_trees():
    """(module name, syntax tree) of each module of the package."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in Path(sparsepcm.__file__).parent.glob("*.py")]


def _names(tree):
    """Every name and attribute name that tree reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_src_name_is_used_in_src():
    """No public function, class or method of the package exists only for
    its tests: each is referenced by name somewhere in the package's own
    modules. The console entry point main is the one exception."""
    public, used = set(), set()
    for _, tree in _package_trees():
        used |= _names(tree)
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            public.update(
                d.name for d in (node, *members)
                if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                and not d.name.startswith("_")
            )
    assert {"run", "DataSet", "to_dict"} <= public
    assert sorted(public - used - {"main"}) == []


def test_argument_rules_have_one_owner():
    """The integer, scalar and label rules live in core: no other module of
    the package imports numbers or truncates labels with np.trunc."""
    for name, tree in _package_trees():
        if name == "core":
            continue
        imported = {node.module if isinstance(node, ast.ImportFrom) else node.name
                    for node in ast.walk(tree) if isinstance(node, (ast.ImportFrom, ast.alias))}
        assert not (_names(tree) | imported) & {"numbers", "trunc"}, name


def test_no_module_imports_scipy():
    """The package runs on numpy alone; scipy serves only the tests."""
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not [m for m in modules if m.split(".")[0] == "scipy"], name


def test_only_core_datagen_and_metrics_read_the_truth():
    """The scoring rule has one owner: outside core, datagen and metrics no
    module of the package reads a DataSet's truth_labels or truth_centers."""
    readers = {name for name, tree in _package_trees()
               if _names(tree) & {"truth_labels", "truth_centers"}}
    assert "metrics" in readers
    assert sorted(readers - {"core", "datagen", "metrics"}) == []


def test_only_core_fcm_and_solver_name_a_memory_order():
    """The layout has one owner: outside core, fcm and solver no module of the
    package names a memory order, as an order= keyword or through np.isfortran."""
    namers = {name for name, tree in _package_trees() if "isfortran" in _names(tree)
              or any(isinstance(node, ast.keyword) and node.arg == "order"
                     for node in ast.walk(tree))}
    assert "solver" in namers
    assert sorted(namers - {"core", "fcm", "solver"}) == []


def test_the_readme_constants_table_points_at_each_value():
    """Each row of the README's table of constants names a src file and
    quotes code that occurs exactly once in it and holds every number of
    the row's value, so the row goes stale when the value changes or the
    quote becomes ambiguous, not when a line moves."""
    package = Path(sparsepcm.__file__).parent
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Constants the paper does not give")[1].split("\n## ")[0]
    # the header row, then one row per constant
    rows = [row.split(" | ") for row in section.splitlines() if row.startswith("| ")][1:]
    assert len(rows) == 10
    for _, value, where, *_ in rows:
        cited = re.fullmatch(r"`(\w+\.py)`: `([^`]+)`", where)
        assert cited, where
        name, quote = cited.groups()
        assert (package / name).read_text(encoding="utf-8").count(quote) == 1, where
        numbers = re.findall(r"\d+(?:\.\d+)?(?:e-?\d+)?", value)
        assert numbers and all(n in quote for n in numbers), (where, value)
