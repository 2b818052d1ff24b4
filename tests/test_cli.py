"""End-to-end command-line tests, run in-process via main(argv)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import isoeffect
from isoeffect import Dataset, SynthSpec, generate, write_csv
from isoeffect.cli import main
from isoeffect.featurize import Lexicon, featurize_texts

from conftest import assert_same_fitted

SPEC = {"n": 250, "d": 3, "rho": 0.5, "beta_a": 1.0, "seed": 4}


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


@pytest.fixture()
def data_csv(tmp_path):
    ds = generate(SynthSpec(**SPEC))
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    return str(path)


def test_synth_writes_dataset_and_oracle(spec_file, tmp_path):
    out = tmp_path / "bench"
    assert main(["synth", "--spec", spec_file, "--out", str(out)]) == 0
    data = (out / "data.csv").read_bytes()
    oracle = json.loads((out / "oracle.json").read_text())
    assert oracle["tau_iate"] == 1.0
    assert oracle["method"] == "closed_form"
    assert set(oracle) == {"tau_iate", "tau_iatt", "method", "mc_samples", "mc_se"}
    # reruns are byte-identical; a seed override changes the draw
    out2 = tmp_path / "bench2"
    main(["synth", "--spec", spec_file, "--out", str(out2)])
    assert (out2 / "data.csv").read_bytes() == data
    out3 = tmp_path / "bench3"
    main(["synth", "--spec", spec_file, "--out", str(out3), "--seed", "99"])
    assert (out3 / "data.csv").read_bytes() != data


def test_synth_matches_library_generate(spec_file, tmp_path, data_csv):
    out = tmp_path / "bench"
    main(["synth", "--spec", spec_file, "--out", str(out)])
    assert (out / "data.csv").read_bytes() == open(data_csv, "rb").read()


def test_synth_replaces_data_csv_atomically(spec_file, tmp_path, capsys, monkeypatch):
    out = tmp_path / "bench"
    out.mkdir()
    (out / "data.csv").write_text("y,a,x_0\n1.0,1,0.0\n")
    before = (out / "data.csv").read_bytes()

    def refuse(src, dst):
        raise OSError(f"cannot rename onto {os.path.basename(dst)}")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["synth", "--spec", spec_file, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: cannot rename onto data.csv\n"
    assert (out / "data.csv").read_bytes() == before  # neither cut nor replaced
    assert sorted(p.name for p in out.iterdir()) == ["data.csv"]  # no .isoeffect-*.tmp left


def _estimate(data_csv, out_path, *extra):
    return main(["estimate", "--data", data_csv, "--out", str(out_path),
                 "--folds", "3", "--seed", "1", *extra])


REPORT_KEYS = {
    "estimand", "tau_hat", "se", "ci95", "n", "k", "seed", "naive_tau",
    "sigma2", "nu2", "nu2_plugin", "nu2_negative", "rv", "diagnostics",
}


def test_estimate_report_shape(data_csv, tmp_path):
    out = tmp_path / "report.json"
    assert _estimate(data_csv, out) == 0
    rep = json.loads(out.read_text())
    assert set(rep) == REPORT_KEYS
    assert rep["estimand"] == "iate"
    assert rep["n"] == SPEC["n"] and rep["k"] == 3 and rep["seed"] == 1
    assert rep["ci95"][0] < rep["tau_hat"] < rep["ci95"][1]
    assert rep["sigma2"] > 0 and rep["nu2"] > 0
    assert not rep["nu2_negative"] and rep["rv"] > 0
    diag = rep["diagnostics"]
    assert set(diag) == {"p_min", "p_max", "clipped_frac", "pi1", "m_target"}
    assert 0.0 < diag["p_min"] <= diag["p_max"] < 1.0
    # estimate should land near the oracle effect on this easy benchmark
    assert abs(rep["tau_hat"] - 1.0) < 4 * rep["se"] + 0.05


def test_estimate_is_byte_deterministic(data_csv, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    _estimate(data_csv, out1)
    _estimate(data_csv, out2)
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "r3.json"
    _estimate(data_csv, out3, "--seed", "2")
    # the whole pipeline is reseeded, so some field must move
    assert out3.read_bytes() != out1.read_bytes()


def test_estimate_iatt(data_csv, tmp_path):
    out = tmp_path / "iatt.json"
    assert _estimate(data_csv, out, "--estimand", "iatt") == 0
    rep = json.loads(out.read_text())
    assert rep["estimand"] == "iatt"
    assert rep["diagnostics"]["pi1"] > 0
    assert set(rep["diagnostics"]) == {"p_min", "p_max", "clipped_frac", "pi1", "m_target"}


def test_estimate_general_requires_target(data_csv, tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert _estimate(data_csv, out, "--estimand", "general") == 1
    assert "--target-data" in capsys.readouterr().err


def test_estimate_general_with_target(data_csv, tmp_path):
    target = generate(SynthSpec(**{**SPEC, "seed": 77}))
    tpath = tmp_path / "target.csv"
    write_csv(target, tpath)
    out = tmp_path / "gen.json"
    assert _estimate(data_csv, out, "--estimand", "general",
                     "--target-data", str(tpath)) == 0
    rep = json.loads(out.read_text())
    assert rep["estimand"] == "general"
    assert list(rep["diagnostics"]) == ["p_min", "p_max", "clipped_frac", "pi1",
                                        "corpus_clipped_frac", "m_target"]
    assert 0.0 <= rep["diagnostics"]["corpus_clipped_frac"] <= 1.0
    assert rep["diagnostics"]["m_target"] == SPEC["n"]
    # same generating law: should agree with iate within joint noise
    out_iate = tmp_path / "iate.json"
    _estimate(data_csv, out_iate)
    iate = json.loads(out_iate.read_text())
    tol = 4 * float(np.hypot(rep["se"], iate["se"])) + 0.05
    assert abs(rep["tau_hat"] - iate["tau_hat"]) < tol


def _general(data_csv, tmp_path, target_text, *extra):
    tpath = tmp_path / "target.csv"
    tpath.write_text(target_text)
    return _estimate(data_csv, tmp_path / "gen.json", "--estimand", "general",
                     "--target-data", str(tpath), *extra)


def _target_rows(n):
    rows = [f"{0.1 * i},{-0.2 * i},{0.3 * i}" for i in range(n)]
    return "x_0,x_1,x_2\n" + "\n".join(rows) + "\n"


def test_target_data_rows_are_validated(data_csv, tmp_path, capsys):
    text = _target_rows(20)
    assert _general(data_csv, tmp_path, text.replace("\n0.5,", "\nnan,")) == 1
    err = capsys.readouterr().err
    assert "row 6" in err and "non-finite" in err
    assert _general(data_csv, tmp_path, text.replace("\n0.5,", "\n0.5,9,")) == 1
    assert "row 6: expected 3 fields" in capsys.readouterr().err


def test_target_data_schema_and_size_errors(data_csv, tmp_path, capsys):
    # the target must carry every feature column the data resolved
    two_columns = "".join(line.rsplit(",", 1)[0] + "\n" for line in _target_rows(20).splitlines())
    assert _general(data_csv, tmp_path, two_columns) == 1
    assert "error: feature column 'x_2' not found in header ['x_0', 'x_1']" in (
        capsys.readouterr().err)
    # fewer target rows than folds cannot be dealt into pseudo-folds
    assert _general(data_csv, tmp_path, _target_rows(2)) == 1
    err = capsys.readouterr().err
    assert "cannot split 2 rows into 3 folds" in err
    assert "target corpus" in err


@pytest.mark.parametrize("case", ["iate", "iatt", "general", "gbt-iatt"])
def test_estimate_report_equals_the_library_pipeline(case, data_csv, tmp_path, forked):
    # estimate cross-fits through the CLI's own seam, in one child, and writes the
    # report that the library's one-shot estimate, audit and naive contrast give
    import isoeffect.cli as cli
    from isoeffect import audit, estimate_effect, estimate_naive, load_csv
    from isoeffect.core import load_features_csv
    from isoeffect.nuisance import ModelSpec

    model, kind = ("gbt", "iatt") if case == "gbt-iatt" else ("elastic", case)
    target_csv = tmp_path / "target.csv"
    write_csv(generate(SynthSpec(**{**SPEC, "seed": 77})), target_csv)
    flags = ["--target-data", str(target_csv)] if kind == "general" else []
    out = tmp_path / "report.json"
    assert _estimate(data_csv, out, "--estimand", kind, "--model", model, *flags) == 0
    assert len(forked) == 1
    dataset = load_csv(data_csv, None)
    target = load_features_csv(str(target_csv), dataset.feature_names) if flags else None
    specs = [ModelSpec(family) for family in cli._MODELS[model]]
    est, fits, weights = estimate_effect(dataset, kind, *specs, k=3, seed=1,
                                         target_features=target, return_parts=True)
    report = audit(est, dataset, fits, weights)
    diagnostics = {key: fits.diagnostics[key] for key in (
        "p_min", "p_max", "clipped_frac", "pi1", "corpus_clipped_frac") if key in fits.diagnostics}
    expected = {
        "estimand": kind, "tau_hat": est.tau_hat, "se": est.standard_error,
        "ci95": list(est.ci95), "n": dataset.n, "k": 3, "seed": 1,
        "naive_tau": estimate_naive(dataset).tau_hat, "sigma2": report.sigma2,
        "nu2": report.nu2, "nu2_plugin": report.nu2_plugin, "nu2_negative": report.nu2_negative,
        "rv": report.rv, "diagnostics": {**diagnostics, "m_target": est.diagnostics["m_target"]},
    }
    assert out.read_text() == json.dumps(cli._round12(expected), indent=2) + "\n"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@pytest.fixture()
def sweep_csv(tmp_path):
    """Treatment embedded as a feature column so sweep can select it."""
    ds = generate(SynthSpec(n=400, d=4, rho=0.5, seed=3))
    wide = Dataset(
        y=ds.y, a=ds.a,
        features=np.column_stack([ds.a, ds.features]),
        feature_names=("treat", *ds.feature_names),
    )
    path = tmp_path / "wide.csv"
    write_csv(wide, path)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(
        {"feature_columns": ["treat", "x_0", "x_1", "x_2", "x_3"]}
    ))
    return str(path), str(schema)


def _nothing_fitted(monkeypatch):
    import isoeffect.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("nothing may be fitted")

    monkeypatch.setattr(cli, "crossfit_representations", never)  # every command's one seam


def _target_csv(tmp_path, name, edit):
    """The seed-77 target of ``test_estimate_general_with_target``, ``edit``-ed per row."""
    path = tmp_path / "target.csv"
    write_csv(generate(SynthSpec(**{**SPEC, "seed": 77})), path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    edited = tmp_path / f"{name}.csv"
    edited.write_text("".join(",".join(edit(row)) + "\n" for row in rows))
    return str(path), str(edited)


def test_target_is_read_by_the_data_feature_names(data_csv, tmp_path):
    # a target whose header orders the columns differently, or carries one
    # more, encodes the same corpus: the report is the in-order one byte for byte
    target, swapped = _target_csv(tmp_path, "swapped", lambda r: [r[0], r[1], r[3], r[2], r[4]])
    _, extra = _target_csv(tmp_path, "extra", lambda r: [*r, "x_9" if r[0] == "y" else "0.5"])
    reports = []
    for i, path in enumerate((target, swapped, extra)):
        out = tmp_path / f"gen{i}.json"
        assert _estimate(data_csv, out, "--estimand", "general", "--target-data", path) == 0
        reports.append(out.read_bytes())
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_target_missing_a_data_feature_rejected_before_fitting(data_csv, tmp_path, capsys,
                                                               monkeypatch):
    _nothing_fitted(monkeypatch)
    _, renamed = _target_csv(tmp_path, "x7", lambda r: r if r[0] != "y" else [*r[:4], "x_7"])
    out = tmp_path / "gen.json"
    assert _estimate(data_csv, out, "--estimand", "general", "--target-data", renamed) == 1
    assert "error: feature column 'x_2' not found in header" in capsys.readouterr().err
    assert not out.exists()


def test_general_estimate_reads_the_schema_once(data_csv, tmp_path, monkeypatch):
    import builtins

    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"outcome": "y", "treatment": "a"}))
    target, _ = _target_csv(tmp_path, "unused", lambda r: r)
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    assert _estimate(data_csv, tmp_path / "gen.json", "--schema", str(schema),
                     "--estimand", "general", "--target-data", target) == 0
    assert opened.count(str(schema)) == 1
    assert opened.count(data_csv) == 1 and opened.count(target) == 1


def test_sweep_csv_format(sweep_csv, tmp_path):
    data, schema = sweep_csv
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--data", data, "--schema", schema, "--focal", "treat",
               "--dims", "1..4", "--folds", "3", "--seed", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "dims,tau_hat,ci_lo,ci_hi,sigma2,nu2,rv"
    assert len(lines) == 5
    dims = [int(line.split(",")[0]) for line in lines[1:]]
    assert dims == [1, 2, 3, 4]
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        tau, lo, hi = map(float, fields[1:4])
        assert lo < tau < hi
    # byte-determinism
    out2 = tmp_path / "sweep2.csv"
    main(["sweep", "--data", data, "--schema", schema, "--focal", "treat",
          "--dims", "1..4", "--folds", "3", "--seed", "1", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_sweep_rejects_bad_inputs(sweep_csv, tmp_path, capsys, monkeypatch):
    import isoeffect.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("every bad input is caught before any fit")

    monkeypatch.setattr(cli, "crossfit_representations", never)  # sweep's one cross-fit
    data, schema = sweep_csv
    out = str(tmp_path / "s.csv")
    assert main(["sweep", "--data", data, "--schema", schema, "--focal", "nope",
                 "--out", out]) == 1
    assert "not a feature column" in capsys.readouterr().err
    assert main(["sweep", "--data", data, "--schema", schema, "--focal", "treat",
                 "--dims", "2..9", "--out", out]) == 1
    assert "error: dims 9 exceeds the 4 non-focal columns" in capsys.readouterr().err
    assert main(["sweep", "--data", data, "--schema", schema, "--focal", "treat",
                 "--dims", "0..2", "--out", out]) == 1
    assert "is empty or negative" in capsys.readouterr().err
    assert main(["sweep", "--data", data, "--schema", schema, "--focal", "treat",
                 "--dims", "3", "--out", out]) == 1
    assert main(["sweep", "--data", data, "--schema", schema, "--focal", "treat",
                 "--estimand", "general", "--out", out]) == 1
    assert "iate and iatt" in capsys.readouterr().err


def test_sweep_default_range_is_every_non_focal_column(sweep_csv, tmp_path, capsys,
                                                       monkeypatch):
    import isoeffect.cli as cli

    swept = []

    def record(opt, datasets):  # every dimension is in the one cross-fit of the run
        swept.extend(dataset.d for dataset in datasets)
        return [None] * len(datasets)

    def audited(dataset, fits, opt):
        est = SimpleNamespace(tau_hat=1.0, ci95=(0.0, 2.0))
        return est, SimpleNamespace(sigma2=1.0, nu2=1.0, rv=1.0)

    monkeypatch.setattr(cli, "_crossfit", record)
    monkeypatch.setattr(cli, "_audited", audited)
    data, schema = sweep_csv
    assert main(["sweep", "--data", data, "--schema", schema, "--focal", "treat",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert swept == [1, 2, 3, 4]
    # with the focal column as the only feature column there is nothing to sweep
    one = tmp_path / "one.csv"
    write_csv(generate(SynthSpec(n=60, d=1, seed=2)), one)
    assert main(["sweep", "--data", str(one), "--focal", "x_0",
                 "--out", str(tmp_path / "s1.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: --focal 'x_0' leaves no non-focal feature column\n")
    assert swept == [1, 2, 3, 4] and not (tmp_path / "s1.csv").exists()


def test_sweep_fits_nested_column_prefixes(sweep_csv, tmp_path, monkeypatch):
    import isoeffect.cli as cli

    fitted = []
    real = cli.crossfit_representations

    def recording(datasets, *args, **kwargs):
        fitted.extend(datasets)
        return real(datasets, *args, **kwargs)

    monkeypatch.setattr(cli, "crossfit_representations", recording)
    data, schema = sweep_csv
    assert main(["sweep", "--data", data, "--schema", schema, "--focal", "treat",
                 "--dims", "2..4", "--folds", "2", "--out", str(tmp_path / "s.csv")]) == 0
    wide = cli.load_csv(data, {"feature_columns": ["treat", "x_0", "x_1", "x_2", "x_3"]})
    assert [ds.feature_names for ds in fitted] == [("x_0", "x_1"), ("x_0", "x_1", "x_2"),
                                                   ("x_0", "x_1", "x_2", "x_3")]
    for ds in fitted:
        assert np.array_equal(ds.a, wide.features[:, 0])
        assert np.array_equal(ds.y, wide.y)
        assert np.array_equal(ds.features, wide.features[:, 1:1 + ds.d])


@pytest.mark.parametrize("model", ["elastic", "gbt"])
def test_sweep_rows_equal_an_estimate_per_dimension(model, sweep_csv, tmp_path, forked):
    # the dimensions share one cross-fit, and so one child, and each row is the
    # one an estimate of that dimension alone gives
    import isoeffect.cli as cli
    from isoeffect import audit, estimate_effect, select_intervention
    from isoeffect.nuisance import ModelSpec

    data, schema = sweep_csv
    out = tmp_path / "s.csv"
    assert main(["sweep", "--data", data, "--schema", schema, "--focal", "treat", "--dims",
                 "3..4", "--model", model, "--folds", "2", "--seed", "3", "--out", str(out)]) == 0
    assert len(forked) == 1
    wide = cli.load_csv(data, {"feature_columns": ["treat", "x_0", "x_1", "x_2", "x_3"]})
    ds = select_intervention(wide, "treat")
    specs = [ModelSpec(family) for family in cli._MODELS[model]]
    rows = ["dims,tau_hat,ci_lo,ci_hi,sigma2,nu2,rv"]
    for dims in (3, 4):
        sub = Dataset(y=ds.y, a=ds.a, features=ds.features[:, :dims])
        est, fits, weights = estimate_effect(sub, "iate", *specs, k=2, seed=3, return_parts=True)
        report = audit(est, sub, fits, weights)
        rows.append(",".join([str(dims)] + [cli._fmt(v) for v in (
            est.tau_hat, *est.ci95, report.sigma2, report.nu2, report.rv)]))
    assert out.read_text() == "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# flag and schema mistakes, caught before any work
# ---------------------------------------------------------------------------


def _nothing_loaded_or_fitted(monkeypatch):
    import isoeffect.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("no data may be loaded and nothing fitted")

    monkeypatch.setattr(cli, "crossfit_representations", never)
    monkeypatch.setattr(cli, "load_csv", never)
    monkeypatch.setattr(cli, "featurize_masked", never)


@pytest.mark.parametrize("flags, message", [
    (["--folds", "1"], "need at least 2 folds, got k=1"),
    (["--folds", "0"], "need at least 2 folds, got k=0"),
    (["--clip-eps", "0.5"], "epsilon must be in [0, 0.5), got 0.5"),
    (["--clip-eps", "-0.01"], "epsilon must be in [0, 0.5), got -0.01"),
])
@pytest.mark.parametrize("command", ["estimate", "sweep", "contour", "calibrate"])
def test_bad_folds_or_clip_rejected_before_loading(
        command, flags, message, data_csv, tmp_path, capsys, monkeypatch):
    _nothing_loaded_or_fitted(monkeypatch)
    extra = {"sweep": ["--focal", "x_0"],
             "calibrate": ["--mask-patterns", "run*", "--lexicon", str(tmp_path / "lex.json")]}
    assert main([command, "--data", data_csv, "--out", str(tmp_path / "out"),
                 *extra.get(command, []), *flags]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "contour"])
def test_general_estimand_without_target_rejected_before_loading(
        command, data_csv, tmp_path, capsys, monkeypatch):
    _nothing_loaded_or_fitted(monkeypatch)
    assert main([command, "--data", data_csv, "--out", str(tmp_path / "out"),
                 "--estimand", "general"]) == 1
    assert "error: --estimand general requires --target-data" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "sweep", "contour", "calibrate"])
def test_out_in_missing_directory_rejected_before_loading(
        command, data_csv, tmp_path, capsys, monkeypatch):
    _nothing_loaded_or_fitted(monkeypatch)
    extra = {"sweep": ["--focal", "x_0"], "calibrate": ["--omit-features", "x_0"]}
    out = tmp_path / "missing" / "out"
    assert main([command, "--data", data_csv, "--out", str(out), *extra.get(command, [])]) == 1
    err = capsys.readouterr().err
    assert f"--out {str(out)!r}: directory" in err and "does not exist" in err
    assert ".tmp" not in err


_MISSING_LEXICON = ["--mask-patterns", "run*", "--lexicon", "no-such-lexicon.json"]


@pytest.mark.parametrize("command, flags, message", [
    ("calibrate", [], "calibrate needs --omit-features and/or --mask-patterns"),
    ("calibrate", ["--omit-features", ","], "calibrate needs --omit-features and/or --mask-patterns"),
    ("calibrate", ["--mask-patterns", "run*"], "--mask-patterns requires --lexicon to refeaturize"),
    ("contour", ["--mask-patterns", "run*"], "--mask-patterns requires --lexicon to refeaturize"),
    ("calibrate", _MISSING_LEXICON, "[Errno 2] No such file or directory: 'no-such-lexicon.json'"),
    ("contour", _MISSING_LEXICON, "[Errno 2] No such file or directory: 'no-such-lexicon.json'"),
    *[(command, flags, message) for command in ("calibrate", "contour") for flags, message in [
        (["--omit-features", "x_0,x_0"], "duplicate reduction label 'x_0'"),
        (["--omit-features", "x_0+x_1,x_1+x_0"],
         "duplicate reduction 'x_1+x_0': omits the same columns as 'x_0+x_1'"),
        (["--mask-patterns", "cook*,COOK*", "--lexicon", "LEXICON"],
         "duplicate reduction 'COOK*': masks the same terms as 'cook*'"),
        (["--mask-patterns", "a*b", "--lexicon", "LEXICON"],
         "--mask-patterns: '*' is only allowed as a trailing wildcard in 'a*b'"),
    ]],
    ("sweep", ["--dims", "3"], "--dims expects 'a..b', got '3'"),
    ("sweep", ["--dims", "0..2"], "--dims range '0..2' is empty or negative"),
    ("sweep", ["--dims", "2..1"], "--dims range '2..1' is empty or negative"),
    ("sweep", ["--dims", "a..2"], "--dims expects 'a..b', got 'a..2'"),
    ("sweep", ["--dims", "1..x"], "--dims expects 'a..b', got '1..x'"),
    ("sweep", ["--dims", "1..2..3"], "--dims expects 'a..b', got '1..2..3'"),
])
def test_reduction_and_dims_mistakes_rejected_before_loading(
        command, flags, message, data_csv, tmp_path, capsys, monkeypatch):
    _nothing_loaded_or_fitted(monkeypatch)
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps({"food": ["cook*"]}))
    flags = [str(lexicon) if f == "LEXICON" else f for f in flags]
    extra = ["--focal", "x_0"] if command == "sweep" else []
    assert main([command, "--data", data_csv, "--out", str(tmp_path / "out"),
                 *extra, *flags]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("estimand", ["iate", "iatt"])
def test_target_data_without_general_estimand_rejected_before_loading(
        estimand, data_csv, tmp_path, capsys, monkeypatch):
    _nothing_loaded_or_fitted(monkeypatch)
    assert _estimate(data_csv, tmp_path / "r.json", "--estimand", estimand,
                     "--target-data", str(tmp_path / "no-such-target.csv")) == 1
    assert "error: --target-data is only used with --estimand general" in capsys.readouterr().err


@pytest.mark.parametrize("schema, message", [
    ({"feature_columns": ["a", "x_0", "x_1"]}, "'a' is used twice: as treatment and as feature"),
    ({"outcome": "x_0"}, "'x_0' is used twice: as outcome and as feature"),
    ({"feature_prefix": ""}, "'y' is used twice: as outcome and as feature"),
    ({"outcome": "a"}, "'a' is used twice: as outcome and as treatment"),
    ({"feature_columns": ["x_0", "x_1", "x_0"]}, "'x_0' is used twice: as feature and as feature"),
])
def test_schema_reusing_a_column_rejected_before_fitting(
        schema, message, data_csv, tmp_path, capsys, monkeypatch):
    import isoeffect.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("nothing may be fitted")

    monkeypatch.setattr(cli, "crossfit_representations", never)
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema))
    assert _estimate(data_csv, tmp_path / "r.json", "--schema", str(path)) == 1
    assert f"error: column {message}" in capsys.readouterr().err


@pytest.mark.parametrize("schema", [
    {"feature_columns": "x_0"}, {"outcome": ["y"]}, {"text": 3}, {"feature_prefix": None},
])
def test_schema_value_of_the_wrong_type_rejected_before_fitting(
        schema, data_csv, tmp_path, capsys, monkeypatch):
    _nothing_fitted(monkeypatch)
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema))
    out = tmp_path / "r.json"
    assert _estimate(data_csv, out, "--schema", str(path)) == 1
    key = next(iter(schema))
    assert capsys.readouterr().err.startswith(f"error: schema key {key!r} must be a")
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "sweep", "contour", "calibrate"])
def test_out_naming_a_directory_rejected_before_loading(
        command, data_csv, tmp_path, capsys, monkeypatch):
    _nothing_loaded_or_fitted(monkeypatch)
    extra = {"sweep": ["--focal", "x_0"], "calibrate": ["--omit-features", "x_0"]}
    out = tmp_path / "reports"
    out.mkdir()
    assert main([command, "--data", data_csv, "--out", str(out), *extra.get(command, [])]) == 1
    assert capsys.readouterr().err == f"error: --out {str(out)!r} is a directory, not a file path\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("reader, text, key", [
    ("schema", '{"outcome": "x_0", "outcome": "y"}', "outcome"),
    ("lexicon", '{"sport": ["run*"], "sport": ["swim"]}', "sport"),
    ("spec", '{"n": 50, "d": 2, "n": 80}', "n"),
], ids=["schema", "lexicon", "spec"])
def test_repeated_json_key_rejected_before_loading(
        reader, text, key, data_csv, tmp_path, capsys, monkeypatch):
    # plain json.load keeps a repeated key's last value without a word
    _nothing_loaded_or_fitted(monkeypatch)
    path = tmp_path / f"{reader}.json"
    path.write_text(text)
    out = tmp_path / "out"
    argv = {
        "schema": ["estimate", "--data", data_csv, "--schema", str(path)],
        "lexicon": ["calibrate", "--data", data_csv, "--mask-patterns", "run*",
                    "--lexicon", str(path)],
        "spec": ["synth", "--spec", str(path)],
    }[reader]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: duplicate key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("schema, header, message", [
    ({"feature_colums": ["x_0"]}, None, "unknown schema key 'feature_colums'"),
    ({"outcom": "x_0"}, None, "unknown schema key 'outcom'"),
    (None, "y,a,x_0,x_1,x_2,x_0", "column 'x_0' appears twice in the header"),
    (None, "y,a,x_0,x_1,x_2,a", "column 'a' appears twice in the header"),
])
def test_unknown_schema_key_or_repeated_header_rejected_before_fitting(
        schema, header, message, data_csv, tmp_path, capsys, monkeypatch):
    _nothing_fitted(monkeypatch)
    flags = []
    if schema is not None:
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema))
        flags = ["--schema", str(path)]
    if header is not None:
        # same rows, one more header name, and one more field on every row
        lines = Path(data_csv).read_text().splitlines()
        data_csv = str(tmp_path / "twice.csv")
        Path(data_csv).write_text(header + "\n" + "".join(f"{line},0\n" for line in lines[1:]))
    out = tmp_path / "r.json"
    assert _estimate(data_csv, out, *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# contour and calibrate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command, reduction", [
    ("calibrate", ["--omit-features", "x_0"]),
    ("calibrate", ["--mask-patterns", "run*"]),
    ("contour", ["--omit-features", "x_0"]),
    ("contour", ["--mask-patterns", "run*"]),
])
def test_calibration_rejects_general_estimand_before_fitting(
        command, reduction, data_csv, tmp_path, capsys, monkeypatch):
    import isoeffect.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("no data may be loaded and nothing fitted")

    monkeypatch.setattr(cli, "crossfit_representations", never)
    monkeypatch.setattr(cli, "load_csv", never)
    target = tmp_path / "target.csv"
    target.write_text("x_0,x_1,x_2\n0.5,0.1,0.2\n")
    rc = main([command, "--data", data_csv, "--out", str(tmp_path / "out"),
               "--estimand", "general", "--target-data", str(target), *reduction])
    assert rc == 1
    assert "error: calibration supports the iate and iatt estimands" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["calibrate", "contour"])
@pytest.mark.parametrize("omit, label", [("x_0,x_0,x_0", "x_0"), ("x_0+x_1, x_0+x_1 ", "x_0+x_1")])
def test_duplicate_reduction_labels_rejected_before_fitting(
        command, omit, label, data_csv, tmp_path, capsys, monkeypatch):
    import isoeffect.cli as cli
    import isoeffect.nuisance as nuisance

    def never(*args, **kwargs):
        raise AssertionError("nothing may be fitted")

    monkeypatch.setattr(cli, "crossfit_representations", never)
    monkeypatch.setattr(cli, "calibrate_detail", never)
    monkeypatch.setattr(nuisance, "_fit_models", never)  # every fit passes through it
    rc = main([command, "--data", data_csv, "--out", str(tmp_path / "out"),
               "--omit-features", omit])
    assert rc == 1
    assert f"error: duplicate reduction label '{label}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["calibrate", "contour"])
@pytest.mark.parametrize("omit, label, earlier", [("x_0+x_1,x_1+x_0", "x_1+x_0", "x_0+x_1"),
                                                  ("x_0,x_0+x_0", "x_0+x_0", "x_0")])
def test_duplicate_omitted_column_sets_rejected_before_fitting(
        command, omit, label, earlier, data_csv, tmp_path, capsys, monkeypatch):
    # distinct labels, one set of omitted columns: the same reduction twice
    import isoeffect.cli as cli
    import isoeffect.nuisance as nuisance

    def never(*args, **kwargs):
        raise AssertionError("nothing may be featurized, masked or fitted")

    for name in ("crossfit_representations", "calibrate_detail", "featurize_masked",
                 "featurize_texts", "mask_terms"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(nuisance, "_fit_models", never)  # every fit passes through it
    rc = main([command, "--data", data_csv, "--out", str(tmp_path / "out"),
               "--omit-features", omit])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: duplicate reduction '{label}': omits the same columns as '{earlier}'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["calibrate", "contour"])
def test_gbt_reduction_without_columns_rejected_before_fitting(
        command, data_csv, tmp_path, capsys, monkeypatch):
    # boosting needs a feature column; the elastic net fits an intercept-only model
    import isoeffect.cli as cli
    import isoeffect.nuisance as nuisance

    def never(*args, **kwargs):
        raise AssertionError("nothing may be fitted")

    monkeypatch.setattr(cli, "crossfit_representations", never)
    monkeypatch.setattr(cli, "calibrate_detail", never)
    monkeypatch.setattr(nuisance, "_fit_models", never)  # every fit passes through it
    rc = main([command, "--data", data_csv, "--out", str(tmp_path / "out"), "--model", "gbt",
               "--omit-features", "x_0,x_0+x_1+x_2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: reduction 'x_0+x_1+x_2' omits every feature column" in err
    assert not (tmp_path / "out").exists()


def test_elastic_reduction_without_columns_is_intercept_only(data_csv, tmp_path):
    out = tmp_path / "cal.json"
    rc = main(["calibrate", "--data", data_csv, "--out", str(out), "--folds", "3", "--seed", "1",
               "--omit-features", "x_0+x_1+x_2"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["calibrations"]["x_0+x_1+x_2"]["sigma2_reduced"] > payload["sigma2"]


@pytest.mark.filterwarnings("ignore:weight second moment decreased")
def test_contour_grid_csv(data_csv, tmp_path):
    report = tmp_path / "report.json"
    _estimate(data_csv, report)
    tau = json.loads(report.read_text())["tau_hat"]

    out = tmp_path / "contour.csv"
    rc = main(["contour", "--data", data_csv, "--out", str(out),
               "--steps", "5", "--folds", "3", "--seed", "1",
               "--omit-features", "x_0,x_1+x_2"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "cy,cd,lower_bound"
    grid_rows = [l for l in lines[1:] if len(l.split(",")) == 3]
    labeled = [l for l in lines[1:] if len(l.split(",")) == 4]
    assert len(grid_rows) == 25
    assert len(labeled) == 2
    # the origin cell is the unmoved point estimate, printed identically
    # to the JSON report's value
    first = grid_rows[0].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert first[2] == format(float(tau), ".12g")
    labels = {l.split(",")[3] for l in labeled}
    assert labels == {"x_0", "x_1+x_2"}
    # grid cells never increase along either axis
    vals = np.array([list(map(float, l.split(","))) for l in grid_rows])
    lb = vals[:, 2].reshape(5, 5)
    assert np.all(np.diff(lb, axis=0) <= 1e-15)
    assert np.all(np.diff(lb, axis=1) <= 1e-15)


@pytest.mark.parametrize("flag, value, message", [
    ("--steps", "1", "steps must be >= 2"),
    ("--cy-max", "0", "grid maxima must be positive"),
    ("--cd-max", "-1", "grid maxima must be positive"),
    ("--cy-max", "nan", "grid maxima must be positive"),
])
def test_contour_rejects_bad_grid_before_fitting(data_csv, tmp_path, capsys, monkeypatch,
                                                 flag, value, message):
    import isoeffect.cli as cli

    calls = []
    monkeypatch.setattr(cli, "crossfit_representations", lambda *a, **k: calls.append(a))
    out = tmp_path / "contour.csv"
    assert main(["contour", "--data", data_csv, "--out", str(out), "--folds", "3",
                 "--seed", "1", flag, value]) == 1
    assert calls == [] and not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:weight second moment decreased")
def test_calibrate_json(data_csv, tmp_path):
    out = tmp_path / "cal.json"
    rc = main(["calibrate", "--data", data_csv, "--out", str(out),
               "--folds", "3", "--seed", "1",
               "--omit-features", "x_0,x_0+x_1"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"estimand", "tau_hat", "sigma2", "nu2", "calibrations"}
    assert set(payload["calibrations"]) == {"x_0", "x_0+x_1"}
    for entry in payload["calibrations"].values():
        assert set(entry) == {"c_y", "c_d", "cd_clamped", "tau_hat_reduced",
                              "sigma2_reduced", "nu2_reduced", "bound_halfwidth"}
        assert entry["c_y"] >= 0 and entry["c_d"] >= 0
        assert entry["bound_halfwidth"] >= 0
    # omitting more features weakens the reduced outcome model at least as much
    assert (payload["calibrations"]["x_0+x_1"]["c_y"]
            >= payload["calibrations"]["x_0"]["c_y"] - 1e-9)
    out2 = tmp_path / "cal2.json"
    main(["calibrate", "--data", data_csv, "--out", str(out2),
          "--folds", "3", "--seed", "1", "--omit-features", "x_0,x_0+x_1"])
    assert out.read_bytes() == out2.read_bytes()


def test_contour_with_nonpositive_nu2_exits_before_calibrating(data_csv, tmp_path, capsys,
                                                             monkeypatch, inline):
    import isoeffect.cli as cli
    import isoeffect.nuisance as nuisance
    import isoeffect.sensitivity as sensitivity
    from isoeffect import SensitivityParams, ValidationError, ovb_bounds

    calls, jobs = [], []
    fit_models = nuisance._fit_models
    monkeypatch.setattr(sensitivity, "nu2_hat", lambda weights: -0.5)
    monkeypatch.setattr(cli, "calibrate_detail", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli, "calibrate_fits", lambda *a, **k: calls.append(a))
    # every fit passes through it: the full data's outcome and propensity models only
    monkeypatch.setattr(nuisance, "_fit_models",
                        lambda spec, batch: jobs.append(len(batch)) or fit_models(spec, batch))
    out = tmp_path / "contour.csv"
    rc = main(["contour", "--data", data_csv, "--out", str(out), "--steps", "5",
               "--folds", "3", "--seed", "1", "--omit-features", "x_0"])
    assert rc == 1
    assert calls == [] and jobs == [1, 1] and not out.exists()
    # the library's message, the same one ovb_bounds gives
    with pytest.raises(ValidationError) as exc:
        ovb_bounds(1.0, 1.0, -0.5, SensitivityParams(0.5, 0.5))
    assert f"error: {exc.value}" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:weight second moment decreased")
def test_calibrate_json_withholds_halfwidth_when_reduced_nu2_nonpositive(
        data_csv, tmp_path, monkeypatch):
    import isoeffect.sensitivity as sensitivity

    monkeypatch.setattr(sensitivity, "nu2_hat", lambda weights: -0.5)
    out = tmp_path / "cal.json"
    assert main(["calibrate", "--data", data_csv, "--out", str(out), "--folds", "3",
                 "--seed", "1", "--omit-features", "x_0"]) == 0
    entry = json.loads(out.read_text())["calibrations"]["x_0"]
    assert entry["nu2_reduced"] == -0.5
    assert entry["bound_halfwidth"] is None
    assert '"bound_halfwidth": null' in out.read_text()


def test_calibrate_error_paths(data_csv, tmp_path, capsys):
    out = str(tmp_path / "cal.json")
    assert main(["calibrate", "--data", data_csv, "--out", out]) == 1
    assert "needs --omit-features" in capsys.readouterr().err
    assert main(["calibrate", "--data", data_csv, "--out", out,
                 "--omit-features", "ghost"]) == 1
    assert "unknown feature" in capsys.readouterr().err
    assert main(["calibrate", "--data", data_csv, "--out", out,
                 "--mask-patterns", "run*"]) == 1
    err = capsys.readouterr().err
    assert "text column" in err or "--lexicon" in err


def test_model_flag_mapping(data_csv, tmp_path, monkeypatch):
    import isoeffect.cli as cli
    from isoeffect.nuisance import Family

    families = []

    def record(datasets, outcome_spec, propensity_spec, **kwargs):
        families.append((outcome_spec.family, propensity_spec.family))
        raise ValueError("stop before fitting")

    monkeypatch.setattr(cli, "crossfit_representations", record)
    for model in ("elastic", "gbt"):
        assert _estimate(data_csv, tmp_path / "r.json", "--model", model) == 1
    assert families == [(Family.ELASTIC_LINEAR, Family.ELASTIC_LOGISTIC),
                        (Family.GBT_REG, Family.GBT_CLF)]


def test_unknown_model_refused_by_the_parser_before_reading(data_csv, tmp_path, capsys,
                                                            monkeypatch):
    _nothing_loaded_or_fitted(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        _estimate(data_csv, tmp_path / "r.json", "--model", "forest")
    assert exc.value.code == 2
    assert "invalid choice: 'forest'" in capsys.readouterr().err


def test_missing_file_and_bad_subcommand(tmp_path, capsys):
    assert main(["estimate", "--data", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# text corpus end to end: featurize, estimate, mask-pattern calibration
# ---------------------------------------------------------------------------


LEX = Lexicon(categories={
    "fitness": ("run*", "gym", "workout"),
    "diet": ("calorie*", "protein", "salad"),
})

_TREATED = (
    "Started my run this morning before work.",
    "Gym session then a protein shake.",
    "Counting calories and hitting the gym.",
    "Long run; salad for lunch.",
)
_CONTROL = (
    "Watched a movie and ordered takeout.",
    "Quiet day, mostly reading.",
    "Meetings all afternoon, no time for anything.",
    "Cooked pasta and called a friend.",
)


@pytest.fixture()
def text_corpus(tmp_path):
    rng = np.random.default_rng(17)
    n = 240
    a = (rng.random(n) < 0.5).astype(float)
    # crossover keeps the fitness feature informative without separating arms
    pick_treated = np.where(rng.random(n) < 0.3, 1.0 - a, a)
    texts = tuple(
        (_TREATED if pick_treated[i] else _CONTROL)[int(rng.integers(4))]
        for i in range(n)
    )
    feats = featurize_texts(texts, LEX, mode="binary")
    y = 1.5 * a + 0.8 * feats[:, 0] + 0.1 * rng.standard_normal(n)
    ds = Dataset(y=y, a=a, features=feats,
                 feature_names=LEX.names, texts=texts)
    data = tmp_path / "text.csv"
    write_csv(ds, data)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "feature_columns": list(LEX.names), "text": "text",
    }))
    lex = tmp_path / "lexicon.json"
    lex.write_text(json.dumps({k: list(v) for k, v in LEX.categories.items()}))
    return str(data), str(schema), str(lex)


@pytest.mark.filterwarnings("ignore:weight second moment decreased")
def test_mask_pattern_calibration_end_to_end(text_corpus, tmp_path):
    data, schema, lex = text_corpus
    out = tmp_path / "mask.json"
    rc = main(["calibrate", "--data", data, "--schema", schema, "--out", str(out),
               "--folds", "3", "--seed", "5",
               "--mask-patterns", "run*,protein", "--lexicon", lex])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload["calibrations"]) == {"run*", "protein"}
    for entry in payload["calibrations"].values():
        assert entry["c_y"] >= 0
    # masking the dominant fitness pattern should cost outcome fidelity
    assert payload["calibrations"]["run*"]["c_y"] > 0


@pytest.mark.parametrize("command", ["estimate", "contour", "calibrate"])
def test_gbt_on_data_without_feature_columns_rejected_before_fitting(
        command, text_corpus, tmp_path, capsys, monkeypatch):
    # a text-only CSV: the schema names no feature column, and boosting needs one
    import isoeffect.cli as cli
    import isoeffect.nuisance as nuisance

    def never(*args, **kwargs):
        raise AssertionError("nothing may be fitted")

    for owner, name in ((cli, "crossfit_representations"), (cli, "calibrate_detail"),
                        (nuisance, "_fit_models")):
        monkeypatch.setattr(owner, name, never)
    _, _, lex = text_corpus
    texts = _TREATED + _CONTROL
    data = tmp_path / "text_only.csv"
    data.write_text("y,a,text\n" + "".join(
        f'{0.1 * i},{i % 2},"{texts[i % len(texts)]}"\n' for i in range(60)))
    schema = tmp_path / "text_schema.json"
    schema.write_text(json.dumps({"text": "text"}))
    out = tmp_path / "out"
    masks = [] if command == "estimate" else ["--mask-patterns", "run*", "--lexicon", lex]
    rc = main([command, "--data", str(data), "--schema", str(schema), "--out", str(out),
               "--model", "gbt", "--folds", "2", *masks])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: the data has no feature column, and --model gbt needs at least one\n")
    assert not out.exists()


def _never_featurized_or_fitted(monkeypatch):
    import isoeffect.cli as cli
    import isoeffect.nuisance as nuisance

    def never(*args, **kwargs):
        raise AssertionError("nothing may be featurized, masked or fitted")

    for name in ("crossfit_representations", "calibrate_detail", "featurize_masked",
                 "featurize_texts", "mask_terms"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(nuisance, "_fit_models", never)  # every fit passes through it


@pytest.mark.parametrize("command", ["calibrate", "contour"])
@pytest.mark.parametrize("patterns, label, earlier", [("run*,RUN*", "RUN*", "run*"),
                                                      ("Protein,gym,protein", "protein", "Protein")])
def test_duplicate_mask_patterns_rejected_before_fitting(
        command, patterns, label, earlier, text_corpus, tmp_path, capsys, monkeypatch):
    # patterns are lowercased, so these would mask the same terms twice
    data, schema, lex = text_corpus
    _never_featurized_or_fitted(monkeypatch)
    rc = main([command, "--data", data, "--schema", schema, "--out", str(tmp_path / "out"),
               "--mask-patterns", patterns, "--lexicon", lex])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: duplicate reduction '{label}': masks the same terms as '{earlier}'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("patterns, message", [
    ("run*,cook*x", "--mask-patterns: '*' is only allowed as a trailing wildcard in 'cook*x'"),
    ("protein,*", "--mask-patterns: empty pattern"),
])
def test_invalid_mask_pattern_rejected_before_masking(
        patterns, message, text_corpus, tmp_path, capsys, monkeypatch):
    data, schema, lex = text_corpus
    _never_featurized_or_fitted(monkeypatch)
    rc = main(["calibrate", "--data", data, "--schema", schema, "--out", str(tmp_path / "out"),
               "--mask-patterns", patterns, "--lexicon", lex])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _same_fits(got, want):
    for name in ("ghat_obs", "ghat1", "ghat0", "p_hat", "pi1_by_fold"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.fold_plan.assignment.tobytes() == want.fold_plan.assignment.tobytes()
    for batch, solo in zip(got.outcome_models + got.propensity_models,
                           want.outcome_models + want.propensity_models):
        assert_same_fitted(batch, solo)


@pytest.mark.filterwarnings("ignore:weight second moment decreased")
@pytest.mark.parametrize("case", ["two masks", "two widths", "gbt"])
def test_calibrate_batch_equals_a_calibration_per_reduction(case, data_csv, text_corpus,
                                                            tmp_path, monkeypatch):
    # the full data and every reduction are cross-fitted in one batch; the estimate is
    # estimate_effect's and each reduction's result calibrate_detail's, bit for bit
    import isoeffect.cli as cli
    from isoeffect import calibrate_detail, estimate_effect, load_csv
    from isoeffect.nuisance import ModelSpec

    text, schema, lex = text_corpus
    data, schema, model, k, reductions = {
        "two masks": (text, schema, "elastic", 3,
                      ["--mask-patterns", "run*,protein", "--lexicon", lex]),
        "two widths": (data_csv, None, "elastic", 3, ["--omit-features", "x_0,x_1+x_2"]),
        "gbt": (data_csv, None, "gbt", 2, ["--omit-features", "x_0,x_1"]),
    }[case]
    recorded = []
    calibrate_fits = cli.calibrate_fits

    def record(full, reduced, kind):
        recorded.append((full, reduced, calibrate_fits(full, reduced, kind)))
        return recorded[-1][2]

    monkeypatch.setattr(cli, "calibrate_fits", record)
    out = tmp_path / "cal.json"
    argv = ["--data", data, "--out", str(out), "--folds", str(k), "--seed", "1", "--model", model]
    assert main(["calibrate", *argv, *([] if schema is None else ["--schema", schema]),
                 *reductions]) == 0
    (full, reduced, results), = recorded
    assert len(reduced) == len(results) == 2

    dataset = load_csv(data, cli._load_schema(schema))
    outcome_spec, propensity_spec = (ModelSpec(family) for family in cli._MODELS[model])
    est, fits, weights = estimate_effect(dataset, outcome_spec=outcome_spec,
                                         propensity_spec=propensity_spec, k=k, seed=1,
                                         return_parts=True)
    _same_fits(full, fits)
    report = isoeffect.audit(est, dataset, fits, weights)
    expected = {"estimand": est.estimand, "tau_hat": est.tau_hat, "sigma2": report.sigma2,
                "nu2": report.nu2, "calibrations": {}}
    payload = json.loads(out.read_text())
    for label, red, got in zip(payload["calibrations"], reduced, results):
        want = calibrate_detail(dataset, fits, red.dataset.features)
        assert (got.params, got.reduced_sigma2, got.reduced_nu2, got.bound_halfwidth) == (
            want.params, want.reduced_sigma2, want.reduced_nu2, want.bound_halfwidth)
        for name in ("tau_hat", "variance_hat", "standard_error", "ci95", "n", "diagnostics"):
            assert getattr(got.reduced_estimate, name) == getattr(want.reduced_estimate, name)
        assert got.reduced_estimate.influence.tobytes() == want.reduced_estimate.influence.tobytes()
        expected["calibrations"][label] = {
            "c_y": want.params.c_y, "c_d": want.params.c_d, "cd_clamped": want.params.cd_clamped,
            "tau_hat_reduced": want.reduced_estimate.tau_hat,
            "sigma2_reduced": want.reduced_sigma2, "nu2_reduced": want.reduced_nu2,
            "bound_halfwidth": want.bound_halfwidth,
        }
    assert payload == cli._round12(expected)


@pytest.mark.filterwarnings("ignore:weight second moment decreased")
def test_calibrate_makes_one_solver_call_per_nuisance_and_phase(text_corpus, tmp_path,
                                                                monkeypatch, inline):
    # masking keeps every lexicon column, so the full data and both reductions have one
    # width: all their inner CVs are one call per nuisance, and all their final fits another
    import isoeffect.nuisance as nuisance

    calls = []
    for name in ("enet_linear_paths", "enet_logistic_paths"):
        def counted(problems, _name=name, _fn=getattr(nuisance, name)):
            calls.append((_name, len(problems)))
            return _fn(problems)
        monkeypatch.setattr(nuisance, name, counted)
    data, schema, lex = text_corpus
    assert main(["calibrate", "--data", data, "--schema", schema, "--folds", "2", "--seed", "5",
                 "--out", str(tmp_path / "cal.json"), "--mask-patterns", "run*,protein",
                 "--lexicon", lex]) == 0
    # 3 representations x 2 folds x 5 inner folds x 8 l1_ratio paths, then 3 x 2 final fits
    assert calls == [("enet_linear_paths", 240), ("enet_linear_paths", 6),
                     ("enet_logistic_paths", 240), ("enet_logistic_paths", 6)]


@pytest.mark.filterwarnings("ignore:weight second moment decreased")
def test_every_command_cross_fits_through_one_seam(data_csv, tmp_path, monkeypatch, inline):
    # every command's nuisances are fitted by cli._crossfit's one call; contour fits
    # its full data, checks nu2 while drawing the grid, and only then its reductions
    import inspect

    import isoeffect.cli as cli

    events = []
    crossfit, contour_grid = cli.crossfit_representations, cli.contour_grid

    def recording(datasets, *args, **kwargs):
        events.append(len(datasets))
        return crossfit(datasets, *args, **kwargs)

    def drawing(*args, **kwargs):
        events.append("nu2")
        return contour_grid(*args, **kwargs)

    monkeypatch.setattr(cli, "crossfit_representations", recording)
    monkeypatch.setattr(cli, "contour_grid", drawing)
    runs = [
        (["estimate"], [1]),
        (["sweep", "--focal", "x_0"], [2]),
        (["calibrate", "--omit-features", "x_0,x_1+x_2"], [3]),
        (["contour", "--steps", "3"], [1, "nu2"]),
        (["contour", "--steps", "3", "--omit-features", "x_0,x_1+x_2"], [1, "nu2", 2]),
    ]
    for (command, *flags), expected in runs:
        events.clear()
        assert main([command, "--data", data_csv, "--out", str(tmp_path / "out"),
                     "--folds", "2", "--seed", "1", *flags]) == 0
        assert events == expected, command
    source = inspect.getsource(cli)
    assert source.count("crossfit_representations(") == 1
    assert "crossfit_representations(" in inspect.getsource(cli._crossfit)


def _comparable(value):
    if isinstance(value, Dataset):
        return [_comparable(getattr(value, f)) for f in ("y", "a", "features", "feature_names",
                                                         "texts")]
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    return value


@pytest.mark.parametrize("reader", ["data", "target", "schema", "lexicon", "spec"])
def test_readers_accept_a_utf8_bom(reader, text_corpus, spec_file, tmp_path):
    # Excel's "CSV UTF-8" export starts a file with a byte-order mark
    from isoeffect.cli import _load_schema
    from isoeffect.core import load_csv, load_features_csv
    from isoeffect.featurize import load_lexicon
    from isoeffect.synth import spec_from_json_file

    data, schema, lex = text_corpus
    target = tmp_path / "target.csv"
    target.write_text(_target_rows(5))
    read, path = {
        "data": (lambda p: load_csv(p, _load_schema(schema)), data),
        "target": (lambda p: load_features_csv(p, ("x_0", "x_1", "x_2")), str(target)),
        "schema": (_load_schema, schema),
        "lexicon": (load_lexicon, lex),
        "spec": (spec_from_json_file, spec_file),
    }[reader]
    bom = tmp_path / ("bom-" + Path(path).name)
    bom.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    assert _comparable(read(str(bom))) == _comparable(read(path))


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats is most of the start-up every CLI run pays; only synth's
    # threshold step needs it, so importing the CLI must not pull it in
    src = str(Path(isoeffect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, isoeffect.cli; sys.exit(int('scipy.stats' in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0
