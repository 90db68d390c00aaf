"""File formats and the command-line surface.

CLI commands are invoked in-process through main(argv); exit codes follow
the contract 0 / 2 (I/O) / 3 (config, contract) / 4 (numerical).
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distreg
from distreg import (
    Bag,
    CoefficientModel,
    EmbeddingKernelSpec,
    InputError,
    MetaDistributionSpec,
    NumericalError,
    OuterKernelSpec,
    build_gram,
    fit_coefficient,
    generate,
    predict,
)
from distreg import io
from distreg.cli import main

from conftest import make_bags


# ---------------------------------------------------------------- io formats


class TestBagFile:
    def test_round_trip_exact(self, tmp_path):
        ds = generate(
            MetaDistributionSpec(
                dim=2, scale=0.1, target="linear_mean", noise_sd=0.1, noise_bound=2.0, seed=5
            ),
            4,
            6,
        )
        path = tmp_path / "bags.ndjson"
        io.write_bags(ds.bags, path)
        back = io.read_bags(path)
        assert len(back) == 4
        for orig, loaded in zip(ds.bags, back):
            assert loaded.id == orig.id
            assert loaded.label == orig.label
            assert np.array_equal(loaded.points, orig.points)
            assert np.array_equal(loaded.params.theta, orig.params.theta)

    def test_null_label_allowed_for_prediction(self, tmp_path):
        path = tmp_path / "bags.ndjson"
        io.write_bags([Bag("u", np.zeros((2, 1)))], path)
        assert io.read_bags(path)[0].label is None
        with pytest.raises(InputError):
            io.read_bags(path, require_labels=True)

    def test_mixed_dimensions_rejected(self, tmp_path):
        path = tmp_path / "bags.ndjson"
        with open(path, "w") as fh:
            fh.write(json.dumps({"id": "a", "y": 1.0, "points": [[0.0]]}) + "\n")
            fh.write(json.dumps({"id": "b", "y": 1.0, "points": [[0.0, 1.0]]}) + "\n")
        with pytest.raises(InputError):
            io.read_bags(path)

    def test_bad_json_line(self, tmp_path):
        path = tmp_path / "bags.ndjson"
        path.write_text('{"id": "a", "points": [[0]]}\nnot json\n')
        with pytest.raises(InputError):
            io.read_bags(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            io.read_bags(tmp_path / "nope.ndjson")


class TestModelDocument:
    def test_round_trip_bitwise(self, tmp_path, gaussian_embedding):
        bags = make_bags(71, 4, 3, 2)
        kspec = OuterKernelSpec.dog(0.5, 1.4, 0.8)
        g = build_gram(kspec, gaussian_embedding, bags)
        y = np.random.default_rng(71).normal(size=4)
        model, _ = fit_coefficient(g, y, 0.05, bags, kspec, gaussian_embedding)
        path = tmp_path / "model.json"
        io.save_model(model, path)
        loaded = io.load_model(path)
        assert loaded.scheme == model.scheme
        assert loaded.lam == model.lam
        assert np.array_equal(loaded.alpha, model.alpha)
        for a, b in zip(loaded.train_bags, model.train_bags):
            assert np.array_equal(a.points, b.points)
        # predictions from the reloaded model are bitwise identical
        test = make_bags(72, 3, 3, 2)
        assert np.array_equal(predict(loaded, test), predict(model, test))

    def test_tilted_ref_bag_survives(self, tmp_path, gaussian_embedding):
        bags = make_bags(73, 3, 3, 2)
        kspec = OuterKernelSpec.tilted(1.0, 0.5, bags[0])
        g = build_gram(kspec, gaussian_embedding, bags)
        model, _ = fit_coefficient(
            g, np.ones(3), 0.1, bags, kspec, gaussian_embedding
        )
        path = tmp_path / "model.json"
        io.save_model(model, path)
        loaded = io.load_model(path)
        assert np.array_equal(loaded.outer_kernel.ref_bag.points, bags[0].points)

    def test_saved_bytes_unchanged(self, tmp_path):
        # data/model_small.json was written by the json.dump-streaming save_model.
        meta = MetaDistributionSpec(
            dim=2, scale=0.1, target="linear_mean", noise_sd=0.1, noise_bound=2.0, seed=5
        )
        bags = generate(meta, 3, 2).bags
        model = CoefficientModel(
            alpha=np.array([1 / 3, -2.5e-7, 1e300]),
            lam=0.01,
            train_bags=tuple(bags),
            outer_kernel=OuterKernelSpec.tilted(1.0, 0.5, bags[0]),
            embedding_kernel=EmbeddingKernelSpec("gaussian", 0.5, 2),
            scheme="coefficient_l2",
        )
        path = tmp_path / "model.json"
        io.save_model(model, path)
        assert path.read_bytes() == (Path(__file__).parent / "data" / "model_small.json").read_bytes()

    def test_non_finite_cross_gram_raises(self, gaussian_embedding):
        bags = make_bags(74, 3, 3, 2)
        model = CoefficientModel(
            alpha=np.ones(3),
            lam=0.1,
            train_bags=tuple(bags),
            outer_kernel=OuterKernelSpec.gaussian(1e-300),
            embedding_kernel=gaussian_embedding,
            scheme="coefficient_l2",
        )
        with pytest.raises(NumericalError, match="non-finite"):
            predict(model, bags)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(InputError):
            io.load_model(path)


def test_csv_floats_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    value = 0.1 + 0.2  # not exactly 0.3
    io.write_csv(path, ["a", "b"], [[1, value]])
    line = path.read_text().splitlines()[1]
    assert float(line.split(",")[1]) == value


def test_svg_writer(tmp_path):
    path = tmp_path / "plot.svg"
    io.write_svg_loglog(
        path, [(10, 1.0), (100, 0.3), (1000, 0.1)], xlabel="m", ylabel="err",
        fit_slope=-0.5, fit_intercept=0.0,
    )
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text and "m</text>" in text
    with pytest.raises(InputError):
        io.write_svg_loglog(tmp_path / "bad.svg", [(10, 0.0)], "x", "y")


def test_gram_csv(tmp_path, gaussian_embedding):
    bags = make_bags(74, 3, 2, 2)
    g = build_gram(OuterKernelSpec.gaussian(1.0), gaussian_embedding, bags)
    path = tmp_path / "gram.csv"
    io.write_gram_csv(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "row_id," + ",".join(g.col_ids)
    assert len(lines) == 4


# ------------------------------------------------------------- cli commands


def write_config(tmp_path, name="config.json", **sections) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(sections))
    return str(path)


def base_sections(**overrides):
    sections = {
        "data": {
            "synth": {
                "dim": 1,
                "scale": 0.1,
                "target": "linear_mean",
                "noise_sd": 0.05,
                "noise_bound": 2.0,
                "seed": 99,
                "m": 12,
                "N": 10,
            }
        },
        "embedding_kernel": {"family": "gaussian", "bandwidth": 0.25, "dim": 1},
        "outer_kernel": {"family": "gaussian_on_embedding", "sigma": 1.0},
        "scheme": "coefficient_l2",
        "lambda": {"fixed": 0.01},
        "seed": 7,
    }
    sections.update(overrides)
    return sections


class TestCmdGenerate:
    def test_writes_bag_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **base_sections())
        out = tmp_path / "bags.ndjson"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        bags = io.read_bags(out)
        assert len(bags) == 12
        assert all(b.label is not None for b in bags)

    def test_path_source_rejected(self, tmp_path):
        cfg = write_config(tmp_path, **base_sections(data={"path": "x.ndjson"}))
        assert main(["generate", "--config", cfg]) == 3

    def test_seed_mandatory_for_synth(self, tmp_path):
        sections = base_sections()
        sections["data"]["synth"].pop("seed")
        cfg = write_config(tmp_path, **sections)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o.ndjson")]) == 3

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, **base_sections())
        a, b, c = (tmp_path / n for n in ("a.ndjson", "b.ndjson", "c.ndjson"))
        assert main(["generate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["generate", "--config", cfg, "--out", str(b), "--seed", "12345"]) == 0
        assert main(["generate", "--config", cfg, "--out", str(c), "--seed", "12345"]) == 0
        assert a.read_text() != b.read_text()
        assert b.read_text() == c.read_text()

    def test_seed_flag_repairs_missing_seed(self, tmp_path):
        sections = base_sections()
        sections["data"]["synth"].pop("seed")
        cfg = write_config(tmp_path, **sections)
        out = tmp_path / "o.ndjson"
        assert main(["generate", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0


# Bag records that must give exit code 2 and one `error:` line, not a traceback.
MALFORMED_RECORDS = {
    "ragged-points": {"id": "c", "y": 1.0, "points": [[0.1], [0.2, 0.3]]},
    "string-points": {"id": "c", "y": 1.0, "points": "abc"},
    "string-y": {"id": "c", "y": "abc", "points": [[0.3]]},
}


def write_bag_file(path, last_record) -> str:
    records = [
        {"id": "a", "y": 1.0, "points": [[0.1], [0.2]]},
        {"id": "b", "y": 2.0, "points": [[0.5], [0.7]]},
        last_record,
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


class TestCmdFit:
    def test_three_bag_fixture_matches_library(self, tmp_path, capsys):
        espec = EmbeddingKernelSpec("gaussian", 1.0, 2)
        kspec = OuterKernelSpec.gaussian(1.0)
        bags = [
            Bag("a", [[0.1, 0.2], [0.3, 0.1]], label=1.0),
            Bag("b", [[0.5, 0.6]], label=-0.5),
            Bag("c", [[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]], label=0.25),
        ]
        bag_path = tmp_path / "bags.ndjson"
        io.write_bags(bags, bag_path)
        cfg = write_config(
            tmp_path,
            **base_sections(
                data={"path": str(bag_path)},
                embedding_kernel={"family": "gaussian", "bandwidth": 1.0, "dim": 2},
            ),
            )
        model_path = tmp_path / "model.json"
        assert main(["fit", "--config", cfg, "--out", str(model_path)]) == 0
        loaded = io.load_model(model_path)
        g = build_gram(kspec, espec, bags)
        expected, _ = fit_coefficient(
            g, np.array([1.0, -0.5, 0.25]), 0.01, bags, kspec, espec
        )
        assert np.array_equal(loaded.alpha, expected.alpha)

    def test_krr_on_indefinite_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            **base_sections(
                scheme="krr",
                outer_kernel={"family": "dog_indefinite", "sigma1": 0.5, "sigma2": 1.5, "c": 0.9},
            ),
        )
        assert main(["fit", "--config", cfg]) == 3
        assert "positive semi-definite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_krr_on_indefinite_with_grid_exits_3(self, tmp_path, capsys, command):
        # The contract is checked before lambda selection, whose ridge
        # systems are not positive definite on this kernel.
        make = base_sections if command == "fit" else sweep_sections
        sections = make(
            scheme="krr",
            outer_kernel={"family": "dog_indefinite", "sigma1": 0.5, "sigma2": 1.5, "c": 0.9},
            **{"lambda": {"grid": [1e-3, 1e-2, 1e-1]}},
        )
        cfg = write_config(tmp_path, **sections)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "positive semi-definite" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_unknown_scheme_exits_3(self, tmp_path, capsys, command):
        # A fixed lambda skips lambda selection, which never sees the scheme.
        make = base_sections if command == "fit" else sweep_sections
        cfg = write_config(tmp_path, **make(scheme="bogus", **{"lambda": {"fixed": 0.01}}))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: unknown scheme 'bogus'")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, lam",
        [("fit", {"fixed": 0.01}), ("fit", {"grid": [1e-4, 1e-2]}), ("spectrum", {"fixed": 0.01})],
    )
    def test_non_finite_gram_exits_4(self, tmp_path, capsys, command, lam):
        # sigma**2 underflows to 0, so the outer kernel divides 0 by 0.
        sections = base_sections(
            outer_kernel={"family": "gaussian_on_embedding", "sigma": 1e-300}, **{"lambda": lam}
        )
        cfg = write_config(tmp_path, **sections)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Gram matrix has non-finite entries")

    def test_sigma_underflow_prints_one_stderr_line(self, tmp_path):
        # numpy warnings go straight to the process's stderr, so run a real process.
        sections = base_sections(outer_kernel={"family": "gaussian_on_embedding", "sigma": 1e-300})
        cfg = write_config(tmp_path, **sections)
        src = str(Path(distreg.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "distreg", "fit", "--config", cfg,
             "--out", str(tmp_path / "m.json")],
            capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == [
            "error: Gram matrix has non-finite entries; the outer kernel's parameters "
            "are out of floating-point range for these embeddings"
        ]

    @pytest.mark.parametrize("record", MALFORMED_RECORDS.values(), ids=list(MALFORMED_RECORDS))
    def test_malformed_bag_record_exits_2(self, tmp_path, capsys, record):
        bags = write_bag_file(tmp_path / "bags.ndjson", record)
        cfg = write_config(tmp_path, **base_sections(data={"path": bags}))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 2
        assert "bags.ndjson:3" in one_error_line(capsys)

    def test_missing_bag_file_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, **base_sections(data={"path": str(tmp_path / "gone.ndjson")}))
        assert main(["fit", "--config", cfg]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["fit", "--config", str(tmp_path / "none.json")]) == 2

    def test_json_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **base_sections())
        out = tmp_path / "m.json"
        assert main(["fit", "--config", cfg, "--out", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["residual_norm"] <= 1e-8

    def test_two_lambda_modes_rejected(self, tmp_path):
        sections = base_sections()
        sections["lambda"] = {"fixed": 0.1, "grid": [0.1, 1.0]}
        cfg = write_config(tmp_path, **sections)
        assert main(["fit", "--config", cfg]) == 3


class TestCmdPredict:
    def _fit(self, tmp_path):
        cfg = write_config(tmp_path, **base_sections())
        model_path = tmp_path / "model.json"
        assert main(["fit", "--config", cfg, "--out", str(model_path)]) == 0
        return model_path

    def test_round_trip_bitwise(self, tmp_path, capsys):
        model_path = self._fit(tmp_path)
        model = io.load_model(model_path)
        bag_path = tmp_path / "train.ndjson"
        io.write_bags(model.train_bags, bag_path)
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--bags", str(bag_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "id,prediction"
        got = np.array([float(line.split(",")[1]) for line in out[1:]])
        expected = predict(model, list(model.train_bags))
        assert np.array_equal(got, expected)

    def test_empty_bag_file(self, tmp_path, capsys):
        model_path = self._fit(tmp_path)
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--bags", str(empty)]) == 0
        assert capsys.readouterr().out == "id,prediction\n"

    @pytest.mark.parametrize("record", MALFORMED_RECORDS.values(), ids=list(MALFORMED_RECORDS))
    def test_malformed_bag_record_exits_2(self, tmp_path, capsys, record):
        model_path = self._fit(tmp_path)
        bags = write_bag_file(tmp_path / "test.ndjson", record)
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--bags", bags]) == 2
        assert "test.ndjson:3" in one_error_line(capsys)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("alpha", None, "no field 'alpha'"),
            ("alpha", "abc", "malformed model file"),
            ("train_bags", [{"id": "a", "y": 1.0, "points": [[0.1], [0.2, 0.3]]}], "bag 'a'"),
            ("train_bags", 7, "malformed model file"),
        ],
        ids=["no-alpha", "string-alpha", "ragged-train-bag", "train-bags-not-a-list"],
    )
    def test_malformed_model_exits_2(self, tmp_path, capsys, field, value, message):
        model_path = self._fit(tmp_path)
        doc = json.loads(model_path.read_text())
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        model_path.write_text(json.dumps(doc))
        bags = write_bag_file(tmp_path / "test.ndjson", {"id": "c", "y": None, "points": [[0.3]]})
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--bags", bags]) == 2
        assert message in one_error_line(capsys)

    def test_model_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text("[1, 2]\n")
        bags = write_bag_file(tmp_path / "test.ndjson", {"id": "c", "y": None, "points": [[0.3]]})
        assert main(["predict", "--model", str(model_path), "--bags", bags]) == 2
        assert "format 'list'" in one_error_line(capsys)

    def test_dimension_mismatch_exits_2(self, tmp_path):
        model_path = self._fit(tmp_path)
        wrong = tmp_path / "wrong.ndjson"
        io.write_bags([Bag("w", np.zeros((2, 3)))], wrong)
        assert main(["predict", "--model", str(model_path), "--bags", str(wrong)]) == 2

    def test_fingerprint_mismatch_exits_3(self, tmp_path, capsys):
        model_path = self._fit(tmp_path)
        model = io.load_model(model_path)
        bag_path = tmp_path / "train.ndjson"
        io.write_bags(model.train_bags, bag_path)
        override = write_config(
            tmp_path,
            name="override.json",
            embedding_kernel={"family": "gaussian", "bandwidth": 0.25, "dim": 1},
            outer_kernel={"family": "gaussian_on_embedding", "sigma": 99.0},
        )
        code = main(
            ["predict", "--model", str(model_path), "--bags", str(bag_path), "--config", override]
        )
        assert code == 3
        assert "fingerprint" in capsys.readouterr().err

    def test_matching_override_accepted(self, tmp_path, capsys):
        model_path = self._fit(tmp_path)
        model = io.load_model(model_path)
        bag_path = tmp_path / "train.ndjson"
        io.write_bags(model.train_bags, bag_path)
        override = write_config(
            tmp_path,
            name="override.json",
            embedding_kernel={"family": "gaussian", "bandwidth": 0.25, "dim": 1},
            outer_kernel={"family": "gaussian_on_embedding", "sigma": 1.0},
        )
        assert (
            main(["predict", "--model", str(model_path), "--bags", str(bag_path),
                  "--config", override])
            == 0
        )


def sweep_sections(**overrides):
    sections = base_sections(
        **{
            "lambda": {"grid": [1e-6, 1e-4, 1e-2, 1.0]},
            "m": [8, 12, 16],
            "replications": 2,
            "n_max": 12,
            "n_test": 12,
        }
    )
    sections["data"]["synth"].pop("m")
    sections["data"]["synth"].pop("N")
    sections.update(overrides)
    return sections


class TestCmdSweep:
    def test_outputs_and_reproducibility(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **sweep_sections())
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["sweep", "--config", cfg, "--out", str(out1), "--svg"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2), "--svg"]) == 0
        rates1 = (out1 / "rates.csv").read_text()
        assert rates1 == (out2 / "rates.csv").read_text()
        assert (out1 / "summary.json").read_text() == (out2 / "summary.json").read_text()
        assert (out1 / "rates.svg").read_text() == (out2 / "rates.svg").read_text()
        lines = rates1.splitlines()
        assert lines[0] == "m,N,lambda,rep,scheme,error"
        assert len(lines) == 1 + 3 * 2
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["capped_m"] == [8, 12, 16]
        assert "rate_fit" in summary

    def test_zero_replications_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, **sweep_sections(replications=0))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_short_m_list_warns_but_emits(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **sweep_sections(m=[8, 12]))
        out = tmp_path / "short"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert "fewer than 3" in capsys.readouterr().err
        assert (out / "rates.csv").exists()
        assert "rate_fit" not in json.loads((out / "summary.json").read_text())

    def test_unwritable_out_exits_2(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not dir")
        cfg = write_config(tmp_path, **sweep_sections())
        assert main(["sweep", "--config", cfg, "--out", str(blocker)]) == 2

    def test_noiseless_easy_target_negative_slope(self, tmp_path):
        # Frozen-seed fixture: error keeps dropping with m even without label
        # noise, so the fitted log-log slope is negative.
        sections = sweep_sections(m=[25, 50, 100], n_max=20, n_test=32)
        sections["data"]["synth"]["noise_sd"] = 0.0
        sections["data"]["synth"]["seed"] = 60601
        cfg = write_config(tmp_path, **sections)
        out = tmp_path / "noiseless"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rate_fit"]["slope"] < 0


class TestCmdSpectrum:
    def test_identity_like_fixture(self, tmp_path, capsys):
        # Far-apart single-point bags with a tiny outer bandwidth: the Gram is
        # numerically the identity and every singular value is 1/m.
        bags = [Bag(f"far-{i}", [[10.0 * i]]) for i in range(5)]
        bag_path = tmp_path / "far.ndjson"
        io.write_bags(bags, bag_path)
        cfg = write_config(
            tmp_path,
            **base_sections(
                data={"path": str(bag_path)},
                outer_kernel={"family": "gaussian_on_embedding", "sigma": 0.1},
            ),
        )
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--dump-gram"]) == 0
        rows = (out / "spectrum.csv").read_text().splitlines()[1:]
        sv = [float(r.split(",")[1]) for r in rows]
        assert len(sv) == 5
        assert all(abs(s - 0.2) < 1e-12 for s in sv)
        assert (out / "gram.csv").exists()

    def test_effective_dimension_curve_monotone(self, tmp_path):
        bag_path = tmp_path / "bags.ndjson"
        io.write_bags(make_bags(81, 10, 4, 1), bag_path)
        cfg = write_config(
            tmp_path,
            **base_sections(data={"path": str(bag_path)}),
        )
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "effective_dimension.csv").read_text().splitlines()[1:]
        assert len(rows) == 20
        values = [float(r.split(",")[1]) for r in rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_single_bag_exits_3(self, tmp_path):
        bag_path = tmp_path / "one.ndjson"
        io.write_bags([Bag("only", [[0.0]])], bag_path)
        cfg = write_config(tmp_path, **base_sections(data={"path": str(bag_path)}))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "s")]) == 3


class TestCmdSchedule:
    def test_paper_values_json(self, capsys):
        assert main(["schedule", "--r", "0.5", "--alpha", "1", "--h", "1", "--m", "100",
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["beta"] == pytest.approx(1.0)
        assert out["zeta"] == pytest.approx(2.0)
        assert out["N"] == 46052

    def test_r_three_branch(self, capsys):
        assert main(["schedule", "--r", "3", "--alpha", "2", "--m", "100", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["beta"] == pytest.approx(4 / 9)
        assert out["zeta"] == pytest.approx(14 / 9)

    def test_invalid_r_exits_3(self, capsys):
        assert main(["schedule", "--r", "0", "--alpha", "2", "--m", "100"]) == 3

    def test_text_output(self, capsys):
        assert main(["schedule", "--r", "1", "--alpha", "2", "--m", "50"]) == 0
        text = capsys.readouterr().out
        assert "beta" in text and "zeta" in text and "lambda" in text and "N" in text
