"""File formats and the command-line surface.

CLI commands are invoked in-process through main(argv); exit codes follow
the contract 0 / 2 (I/O) / 3 (config, contract) / 4 (numerical).
"""

import contextlib
import copy
import csv
import functools
import json
import math
import operator
import subprocess
import sys
import tempfile
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distreg
from distreg import (
    Bag,
    CoefficientModel,
    EmbeddingKernelSpec,
    InputError,
    MetaDistributionSpec,
    NumericalError,
    OuterKernelSpec,
    ScheduleParams,
    SweepConfig,
    build_gram,
    fit_coefficient,
    generate,
    predict,
    run_rate_experiment,
    schedule,
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

    @staticmethod
    def _one_string(model):
        """The document as one json.dumps of the whole dict, the bytes save_model keeps."""
        doc = {
            "format": io.MODEL_FORMAT,
            "scheme": model.scheme,
            "lambda": model.lam,
            "embedding_kernel": model.embedding_kernel.to_dict(),
            "outer_kernel": model.outer_kernel.to_dict(),
            "kernel_fingerprint": distreg.gram.kernel_fingerprint(
                model.outer_kernel, model.embedding_kernel
            ),
            "alpha": [float(a) for a in model.alpha],
            "train_bags": [io.bag_to_record(b) for b in model.train_bags],
        }
        return (json.dumps(doc) + "\n").encode()

    @pytest.mark.parametrize(
        "ids,tilted",
        [
            (['say "hi"', "back\\slash", "g\rh", "gr\u00fc\u00dfe", "\u65e5\u672c", "\U0001f600"],
             False),
            (["only"], False),
            (["only"], True),
            (["a", "b", "c"], True),
        ],
        ids=["odd-ids", "one-bag", "one-bag-tilted", "tilted"],
    )
    def test_streamed_bytes_equal_one_json_dumps(self, tmp_path, ids, tilted):
        rng = np.random.default_rng(len(ids))
        meta = MetaDistributionSpec(
            dim=2, scale=0.1, target="linear_mean", noise_sd=0.1, noise_bound=2.0, seed=5
        )
        drawn = generate(meta, len(ids), 3).bags  # labels and params in every record
        bags = [Bag(i, b.points, b.label, b.params) for i, b in zip(ids, drawn)]
        ref = Bag("ref \"\u00e9\"", rng.normal(size=(4, 2)))
        model = CoefficientModel(
            alpha=np.array([1 / 3, -2.5e-7, 1e300, 5e-324, -0.0, 7.0][: len(bags)]),
            lam=1e-3,
            train_bags=tuple(bags),
            outer_kernel=(
                OuterKernelSpec.tilted(1.0, 0.5, ref) if tilted else OuterKernelSpec.gaussian(0.7)
            ),
            embedding_kernel=EmbeddingKernelSpec("gaussian", 0.5, 2),
            scheme="coefficient_l2",
        )
        path = tmp_path / "model.json"
        io.save_model(model, path)
        assert path.read_bytes() == self._one_string(model)
        loaded = io.load_model(path)
        assert [b.id for b in loaded.train_bags] == ids
        assert loaded.alpha.tobytes() == model.alpha.tobytes()
        for a, b in zip(loaded.train_bags, model.train_bags):
            assert a.points.tobytes() == b.points.tobytes() and a.label == b.label
        if tilted:
            assert loaded.outer_kernel.ref_bag.id == ref.id
            assert loaded.outer_kernel.ref_bag.points.tobytes() == ref.points.tobytes()

    def test_save_and_load_peak_memory(self, tmp_path):
        # A model of 200 bags of 100 points (d=2), as distreg fit writes on the
        # cli_fit_predict benchmark: 320 kB of points. One json.dumps of the
        # whole document peaks at ~6.4 MB here, and json.load to lists at ~3.9 MB.
        import tracemalloc

        rng = np.random.default_rng(17)
        bags = tuple(Bag(f"bag-{i:03d}", rng.normal(size=(100, 2)), 0.5) for i in range(200))
        model = CoefficientModel(
            alpha=rng.normal(size=200),
            lam=1e-3,
            train_bags=bags,
            outer_kernel=OuterKernelSpec.tilted(1.0, 0.5, Bag("ref", rng.normal(size=(100, 2)))),
            embedding_kernel=EmbeddingKernelSpec("gaussian", 0.25, 2),
            scheme="coefficient_l2",
        )
        path = tmp_path / "model.json"
        peaks = []
        for step in (lambda: io.save_model(model, path), lambda: io.load_model(path)):
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.5e6 and peaks[1] < 2.5e6, peaks

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


# Bag ids are free strings; these need CSV quoting.
ODD_IDS = ["a,b", 'say "hi"', "two\nlines", "g\rh"]


def read_csv(text: str) -> list[list[str]]:
    return list(csv.reader(StringIO(text, newline="")))


def test_gram_csv_header_quotes_odd_ids(tmp_path, gaussian_embedding):
    bags = [Bag(i, b.points) for i, b in zip(ODD_IDS, make_bags(74, len(ODD_IDS), 2, 2))]
    g = build_gram(OuterKernelSpec.gaussian(1.0), gaussian_embedding, bags)
    path = tmp_path / "gram.csv"
    io.write_gram_csv(g, path)
    with open(path, newline="") as fh:
        rows = read_csv(fh.read())
    assert rows[0] == ["row_id", *ODD_IDS]
    assert [r[0] for r in rows[1:]] == ODD_IDS
    assert [[float(v) for v in r[1:]] for r in rows[1:]] == g.values.tolist()


def test_gram_csv(tmp_path, gaussian_embedding):
    bags = make_bags(74, 3, 2, 2)
    g = build_gram(OuterKernelSpec.gaussian(1.0), gaussian_embedding, bags)
    path = tmp_path / "gram.csv"
    io.write_gram_csv(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "row_id," + ",".join(g.ids)
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


def params_record(theta, s) -> dict:
    return {"id": "c", "y": 1.0, "points": [[0.3]], "params": {"theta": theta, "s": s}}


# Bag records that must give exit code 2 and one `error:` line, not a traceback.
MALFORMED_RECORDS = {
    "ragged-points": {"id": "c", "y": 1.0, "points": [[0.1], [0.2, 0.3]]},
    "string-points": {"id": "c", "y": 1.0, "points": "abc"},
    "string-y": {"id": "c", "y": "abc", "points": [[0.3]]},
    "nested-theta": {
        "id": "c", "y": 1.0, "points": [[0.3]], "params": {"theta": [[0.3]], "s": 0.1}
    },
    # Integers too large for a float.
    "huge-y": {"id": "c", "y": 10**400, "points": [[0.3]]},
    "huge-point": {"id": "c", "y": 1.0, "points": [[10**400]]},
    "huge-theta": {
        "id": "c", "y": 1.0, "points": [[0.3]], "params": {"theta": [10**400], "s": 0.1}
    },
    "huge-s": {"id": "c", "y": 1.0, "points": [[0.3]], "params": {"theta": [0.3], "s": 10**400}},
    # Strings and booleans, which numpy would parse as numbers.
    "numeric-string-points": {"id": "c", "y": 1.0, "points": [["0.5"], ["1e3"]]},
    "bool-points": {"id": "c", "y": 1.0, "points": [[True], [False]]},
    "string-among-number-points": {"id": "c", "y": 1.0, "points": [[1], ["2"]]},
    "bool-among-number-points": {"id": "c", "y": 1.0, "points": [[0.5], [True]]},
    # Generator parameters: strings, booleans and non-finite values.
    "string-theta": params_record(["0.5"], 0.1),
    "string-s": params_record([0.5], "0.1"),
    "bool-theta": params_record([True], 0.1),
    "bool-s": params_record([0.5], True),
    "nan-theta": params_record([math.nan], 0.1),
    "inf-s": params_record([0.5], math.inf),
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


def _synth_with(**fields) -> dict:
    return {"synth": {**base_sections()["data"]["synth"], **fields}}


# Config documents with a malformed kernel or synthetic section: exit code 3
# and one `error:` line naming the bad value, not a traceback.
MALFORMED_CONFIGS = {
    "string-bandwidth": (
        base_sections(embedding_kernel={"family": "gaussian", "bandwidth": "wide", "dim": 1}),
        "'wide'",
    ),
    "string-dim": (
        base_sections(embedding_kernel={"family": "gaussian", "bandwidth": 0.25, "dim": "two"}),
        "'two'",
    ),
    "null-embedding-kernel": (base_sections(embedding_kernel=None), "None"),
    "string-sigma": (
        base_sections(outer_kernel={"family": "gaussian_on_embedding", "sigma": "one"}),
        "'one'",
    ),
    "string-outer-kernel": (base_sections(outer_kernel="gaussian"), "'gaussian'"),
    "string-synth-scale": (base_sections(data=_synth_with(scale="big")), "'big'"),
    "list-config": ([base_sections()], "list"),
}

# Outer kernels that a config (exit 3) and a model document (exit 2) must refuse:
# a ragged reference bag, and parameters the family does not take.
BAD_REF_KERNEL = {
    "family": "tilted_asymmetric", "sigma": 1.0, "c": 0.5,
    "ref_bag": {"id": "r", "points": [[0.1], [0.2, 0.3]]},
}
UNUSED_C_KERNEL = {"family": "gaussian_on_embedding", "sigma": 1.0, "c": 3.0}
UNUSED_REF_KERNEL = {
    "family": "gaussian_on_embedding", "sigma": 1.0, "ref_bag": {"id": "r", "points": [[0.5]]},
}


def ref_kernel_with(points) -> dict:
    return {**BAD_REF_KERNEL, "ref_bag": {"id": "r", "points": points}}


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

    def test_non_finite_system_exits_4(self, tmp_path, capsys):
        # lam m^2 overflows to inf: the system is refused before it is factored.
        cfg = write_config(tmp_path, **base_sections(**{"lambda": {"fixed": 1e308}}))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: coefficient_l2 system is not finite at lambda 1e+308"]

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
        line = one_error_line(capsys)
        assert "bags.ndjson:3" in line
        assert len(line.replace(str(tmp_path), "")) < 200  # no value is echoed in full

    @pytest.mark.parametrize(
        "doc, shown", MALFORMED_CONFIGS.values(), ids=list(MALFORMED_CONFIGS)
    )
    def test_malformed_config_exits_3(self, tmp_path, capsys, doc, shown):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 3
        assert shown in one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("ref_dim,dim", [(3, 2), (2, 1)])
    def test_reference_bag_dimension_mismatch_exits_2(self, tmp_path, capsys, ref_dim, dim):
        sections = base_sections(
            data=_synth_with(dim=dim),
            embedding_kernel={"family": "gaussian", "bandwidth": 0.25, "dim": dim},
            outer_kernel={**BAD_REF_KERNEL, "ref_bag": {"id": "ref", "points": [[0.1] * ref_dim]}},
        )
        cfg = write_config(tmp_path, **sections)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 2
        want = f"error: bag 'ref' has dimension {ref_dim}, kernel expects {dim}"
        assert one_error_line(capsys) == want

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

    def test_schedule_lambda_matches_library(self, tmp_path):
        knobs = {"r": 1.5, "alpha_decay": 3.0, "h": 0.8, "kappa4_scale": 0.5}
        cfg = write_config(tmp_path, **base_sections(**{"lambda": {"schedule": knobs}}))
        out = tmp_path / "m.json"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        assert io.load_model(out).lam == schedule(ScheduleParams(**knobs), 12).lam

    def test_two_lambda_modes_rejected(self, tmp_path):
        sections = base_sections()
        sections["lambda"] = {"fixed": 0.1, "grid": [0.1, 1.0]}
        cfg = write_config(tmp_path, **sections)
        assert main(["fit", "--config", cfg]) == 3

    @staticmethod
    def _refuse_work(monkeypatch, *names):
        def not_reached(*args, **kwargs):
            raise AssertionError("work started before the lambda grid's preconditions")

        for module, name in (("cli", "generate"), ("cli", "build_gram"), *names):
            monkeypatch.setattr(getattr(distreg, module), name, not_reached)

    @pytest.mark.parametrize("source", ["synth", "path"])
    def test_grid_without_seed_exits_3_before_any_bag(self, tmp_path, capsys, monkeypatch, source):
        bag_path = tmp_path / "bags.ndjson"
        io.write_bags([Bag(f"b{i}", [[0.1 * i]], label=float(i)) for i in range(5)], bag_path)
        sections = _grid_fit() if source == "synth" else _grid_fit(data={"path": str(bag_path)})
        del sections["seed"]
        cfg = write_config(tmp_path, **sections)
        self._refuse_work(monkeypatch, ("io", "read_bags"))
        out = tmp_path / "m.json"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 3
        assert one_error_line(capsys) == "error: lambda grid selection requires a seed"
        assert not out.exists()

    def test_grid_on_two_bags_exits_2_before_the_gram(self, tmp_path, capsys, monkeypatch):
        bag_path = tmp_path / "two.ndjson"
        io.write_bags([Bag("a", [[0.0]], label=1.0), Bag("b", [[1.0]], label=2.0)], bag_path)
        cfg = write_config(tmp_path, **_grid_fit(data={"path": str(bag_path)}))
        self._refuse_work(monkeypatch)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 2
        assert one_error_line(capsys) == "error: holdout selection needs at least 3 bags, got 2"


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

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_odd_ids_round_trip_through_csv(self, tmp_path, capsys, to_file):
        model_path = self._fit(tmp_path)
        model = io.load_model(model_path)
        bags = [Bag(i, b.points) for i, b in zip(ODD_IDS, model.train_bags)]
        bag_path = tmp_path / "odd.ndjson"
        io.write_bags(bags, bag_path)
        out = tmp_path / "preds.csv"
        argv = ["predict", "--model", str(model_path), "--bags", str(bag_path)]
        capsys.readouterr()
        assert main(argv + (["--out", str(out)] if to_file else [])) == 0
        if to_file:
            with open(out, newline="") as fh:
                text = fh.read()
        else:
            text = capsys.readouterr().out
        expected = [[i, repr(p)] for i, p in zip(ODD_IDS, predict(model, bags).tolist())]
        assert read_csv(text) == [["id", "prediction"], *expected]

    def test_empty_bag_file(self, tmp_path, capsys):
        model_path = self._fit(tmp_path)
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--bags", str(empty)]) == 0
        assert capsys.readouterr().out == "id,prediction\n"

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_empty_bag_file_with_bad_threads_exits_3(self, tmp_path, capsys, threads):
        model_path = self._fit(tmp_path)
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        argv = ["predict", "--model", str(model_path), "--bags", str(empty), "--threads", threads]
        capsys.readouterr()
        assert main(argv) == 3
        assert "threads must be a positive integer" in one_error_line(capsys)

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
            (
                "train_bags",
                [{"id": "a", "y": 1.0, "points": [[0.1]], "params": {"theta": [0.5], "s": "0.1"}}],
                "malformed bag params in model file",
            ),
            ("embedding_kernel", {"family": "gaussian", "bandwidth": "wide", "dim": 1}, "'wide'"),
            ("embedding_kernel", {"family": "gaussian", "bandwidth": -1.0, "dim": 1}, "bandwidth"),
            ("outer_kernel", "gaussian", "malformed model file"),
            ("outer_kernel", BAD_REF_KERNEL, "bag 'r'"),
            ("outer_kernel", UNUSED_C_KERNEL, "'c'"),
            ("outer_kernel", UNUSED_REF_KERNEL, "'ref_bag'"),
            ("lambda", 10**400, "malformed model file"),
            ("alpha", [10**400], "malformed model file"),
            ("alpha", [[1.0]] * 12, "'alpha' entry must be a finite number, got [1.0]"),
            ("alpha", [math.nan] + [1.0] * 11, "'alpha' entry must be a finite number, got nan"),
            ("alpha", [True] + [1.0] * 11, "'alpha' entry must be a finite number, got True"),
            ("lambda", -0.1, "'lambda' must be positive, got -0.1"),
            ("lambda", math.nan, "'lambda' must be a finite number, got nan"),
            # The fitted kernels hash to 0fd697e255be269c; a hand-edited kernel
            # no longer matches the stored fingerprint.
            (
                "outer_kernel",
                {"family": "gaussian_on_embedding", "sigma": 7.0},
                "kernel_fingerprint is '0fd697e255be269c', its kernels hash to '1083cff9ba650bba'",
            ),
            (
                "embedding_kernel",
                {"family": "gaussian", "bandwidth": 3.0, "dim": 1},
                "kernel_fingerprint is '0fd697e255be269c', its kernels hash to '4dd268f9ce1c75b5'",
            ),
            (
                "kernel_fingerprint",
                None,
                "kernel_fingerprint is None, its kernels hash to '0fd697e255be269c'",
            ),
        ],
        ids=["no-alpha", "string-alpha", "ragged-train-bag", "train-bags-not-a-list",
             "string-s-train-bag",
             "string-bandwidth", "negative-bandwidth", "string-outer-kernel",
             "ragged-ref-bag", "unused-outer-param", "ref-bag-on-gaussian",
             "huge-lambda", "huge-alpha", "nested-alpha", "nan-alpha", "bool-alpha",
             "negative-lambda", "nan-lambda",
             "edited-outer-kernel", "edited-embedding-kernel", "no-fingerprint"],
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

    @pytest.mark.parametrize("where", ["train", "ref"])
    @pytest.mark.parametrize(
        "points,problem",
        [
            ([[0.1, 0.2], [0.3]], "points must be a nonempty (N, d) array of numbers"),
            ([["abc", 0.1]], "points must be a nonempty (N, d) array of numbers"),
            ([[10**400, 0.1]], "points must be a nonempty (N, d) array of numbers"),
            ([[[0.1, 0.2]]], "points must be a nonempty (N, d) array of numbers"),
            ([], "points must be a nonempty (N, d) array of numbers"),
            ([[math.nan, 0.1]], "points contain non-finite values"),
            ([[0.1, -math.inf]], "points contain non-finite values"),
            ([["0.5", "0.1"]], "points must be a nonempty (N, d) array of numbers"),
            ([[True, False]], "points must be a nonempty (N, d) array of numbers"),
            ([[1, "2"]], "points must be a nonempty (N, d) array of numbers"),
            ([[0.5, True]], "points must be a nonempty (N, d) array of numbers"),
        ],
        ids=["ragged", "string", "huge", "three-dim", "empty", "nan", "inf",
             "numeric-string", "bool", "string-among-numbers", "bool-among-numbers"],
    )
    def test_malformed_model_points_exit_2(self, tmp_path, capsys, where, points, problem):
        # Points are parsed into arrays while the document is read; a list that
        # does not convert still reaches Bag, which names the bag and the problem.
        bags = make_bags(81, 3, 3, 2)
        model = CoefficientModel(
            alpha=np.ones(3),
            lam=0.1,
            train_bags=tuple(bags),
            outer_kernel=OuterKernelSpec.tilted(1.0, 0.5, Bag("r", np.ones((2, 2)))),
            embedding_kernel=EmbeddingKernelSpec("gaussian", 0.5, 2),
            scheme="coefficient_l2",
        )
        path = tmp_path / "model.json"
        io.save_model(model, path)
        doc = json.loads(path.read_text())
        if where == "train":
            doc["train_bags"][1]["points"] = points
            want = f"error: bag {bags[1].id!r}: {problem} in model file {path}"
        else:
            doc["outer_kernel"]["ref_bag"]["points"] = points
            want = (
                f"error: malformed model file {path}: malformed outer kernel spec: bag 'r': {problem}"
            )
        path.write_text(json.dumps(doc))
        test = tmp_path / "test.ndjson"
        io.write_bags([Bag("c", np.array([[0.3, 0.1]]))], test)
        capsys.readouterr()
        assert main(["predict", "--model", str(path), "--bags", str(test)]) == 2
        assert one_error_line(capsys) == want

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


def _grid_fit(**overrides):
    return base_sections(**{"lambda": {"grid": [1e-4, 1e-2, 1.0]}, **overrides})


# Config values of the wrong type or out of range, and unknown keys, each in
# the command that reads it: exit code 3 and one `error:` line naming the
# value, not a traceback or a silent fallback.
MALFORMED_VALUES = {
    "grid-not-a-list": ("fit", base_sections(**{"lambda": {"grid": 0.1}}), "0.1"),
    "string-in-grid": ("fit", base_sections(**{"lambda": {"grid": [0.1, "small"]}}), "'small'"),
    "string-synth-m": ("fit", base_sections(data=_synth_with(m="ten")), "'ten'"),
    "string-synth-N": ("fit", base_sections(data=_synth_with(N="five")), "'five'"),
    "string-synth-section": ("fit", base_sections(data={"synth": "abc"}), "'abc'"),
    "string-replications": ("sweep", sweep_sections(replications="two"), "'two'"),
    "null-path": ("fit", base_sections(data={"path": None}), "None"),
    "list-path": ("fit", base_sections(data={"path": ["b.ndjson"]}), "['b.ndjson']"),
    "zero-path": ("fit", base_sections(data={"path": 0}), "got 0"),
    "nan-string-fixed-lambda": ("fit", base_sections(**{"lambda": {"fixed": "nan"}}), "'nan'"),
    "inf-fixed-lambda": ("fit", base_sections(**{"lambda": {"fixed": math.inf}}), "inf"),
    "nan-in-grid": ("fit", base_sections(**{"lambda": {"grid": [0.1, math.nan]}}), "nan"),
    "inf-string-holdout-frac": ("fit", _grid_fit(holdout_frac="inf"), "'inf'"),
    "bool-seed": ("fit", _grid_fit(seed=True), "True"),
    "fractional-seed": ("fit", _grid_fit(seed=1.5), "1.5"),
    "fractional-synth-m": ("fit", base_sections(data=_synth_with(m=12.7)), "12.7"),
    "fractional-synth-dim": ("fit", base_sections(data=_synth_with(dim=1.9)), "1.9"),
    "string-schedule-fit": ("fit", base_sections(**{"lambda": {"schedule": "abc"}}), "'abc'"),
    "string-schedule-sweep": ("sweep", sweep_sections(**{"lambda": {"schedule": "abc"}}), "'abc'"),
    "string-schedule-params": ("sweep", sweep_sections(schedule_params="x"), "'x'"),
    "unknown-schedule-key": ("fit", base_sections(**{"lambda": {"schedule": {"b": 1}}}), "'b'"),
    "holdout-frac-above-1": ("fit", _grid_fit(holdout_frac=1.5), "1.5"),
    "negative-seed": ("fit", _grid_fit(seed=-1), "-1"),
    "negative-synth-seed": ("generate", base_sections(data=_synth_with(seed=-1)), "-1"),
    "zero-synth-m": ("fit", base_sections(data=_synth_with(m=0)), "'m'"),
    "zero-synth-N": ("fit", base_sections(data=_synth_with(N=0)), "'N'"),
    "huge-synth-dim": ("fit", base_sections(data=_synth_with(dim=10**400)), "'dim'"),
    "sweep-m-below-3": ("sweep", sweep_sections(m=[2, 8, 12]), "sweep 'm'"),
    "zero-n-test": ("sweep", sweep_sections(n_test=0), "'n_test'"),
    "decay-head-below-3": ("spectrum", base_sections(decay_head=2), "'decay_head'"),
    "zero-threads": ("fit --threads 0", base_sections(), "threads"),
    "negative-threads": ("fit --threads -3", base_sections(), "threads"),
    "minus-one-threads-sweep": ("sweep --threads -1", sweep_sections(), "threads"),
    "minus-one-threads-spectrum": ("spectrum --threads -1", base_sections(), "threads"),
    "unknown-top-level-key": ("fit", _grid_fit(holdout_fraction=0.5), "'holdout_fraction'"),
    "unknown-synth-key": ("fit", base_sections(data=_synth_with(sigma=1.0)), "'sigma'"),
    "unknown-embedding-key": (
        "fit",
        base_sections(embedding_kernel={"family": "gaussian", "bandwidth": 0.25, "dim": 1, "h": 1}),
        "'h'",
    ),
    "schedule-twice": (
        "fit",
        base_sections(**{"lambda": {"schedule": {"r": 1.0}}, "schedule_params": {"r": -5}}),
        "'schedule_params'",
    ),
    "schedule-twice-sweep": (
        "sweep",
        sweep_sections(**{"lambda": {"schedule": {"r": 1.0}}, "schedule_params": {"r": 1.0}}),
        "'schedule_params'",
    ),
    "ragged-ref-bag": ("fit", base_sections(outer_kernel=BAD_REF_KERNEL), "bag 'r'"),
    "numeric-string-ref-bag": (
        "fit", base_sections(outer_kernel=ref_kernel_with([["0.5"], ["1e3"]])), "bag 'r'"
    ),
    "bool-ref-bag": (
        "fit", base_sections(outer_kernel=ref_kernel_with([[True], [False]])), "bag 'r'"
    ),
    "string-among-numbers-ref-bag": (
        "fit", base_sections(outer_kernel=ref_kernel_with([[1], ["2"]])), "bag 'r'"
    ),
    "bool-among-numbers-ref-bag": (
        "fit", base_sections(outer_kernel=ref_kernel_with([[0.5], [True]])), "bag 'r'"
    ),
    "unused-outer-param": ("fit", base_sections(outer_kernel=UNUSED_C_KERNEL), "'c'"),
    "ref-bag-on-gaussian": ("fit", base_sections(outer_kernel=UNUSED_REF_KERNEL), "'ref_bag'"),
}


@pytest.mark.parametrize(
    "command, sections, shown", MALFORMED_VALUES.values(), ids=list(MALFORMED_VALUES)
)
def test_malformed_config_value_exits_3(tmp_path, capsys, command, sections, shown):
    cfg = write_config(tmp_path, **sections)
    out = tmp_path / "out"
    assert main([*command.split(), "--config", cfg, "--out", str(out)]) == 3
    assert shown in one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, sections, shown",
    [
        ("generate", base_sections(data=_synth_with(dim=10**400)), "must be an integer >= 1, got"),
        (
            "fit",
            base_sections(embedding_kernel={"family": "gaussian", "bandwidth": 10**400, "dim": 1}),
            "must be a finite number, got",
        ),
    ],
    ids=["int-dim", "float-bandwidth"],
)
def test_huge_config_number_is_shown_cut(tmp_path, capsys, command, sections, shown):
    # A 401-digit value is shown by its first digits, not in full.
    cfg = write_config(tmp_path, **sections)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    line = one_error_line(capsys)
    assert f"{shown} 1000" in line and len(line) < 200


def test_distreg_threads_is_not_read(tmp_path, monkeypatch):
    # Threads come from --threads alone; the environment changes nothing.
    cfg = write_config(tmp_path, **base_sections())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["fit", "--config", cfg, "--out", str(a)]) == 0
    monkeypatch.setenv("DISTREG_THREADS", "two")
    assert main(["fit", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("field", [{"m": 2**62}, {"dim": 10**300}], ids=["m-2e62", "dim-1e300"])
def test_synthetic_size_past_the_array_limit_exits_3(tmp_path, capsys, field):
    # Sizes past numpy's array limit fail before anything is allocated.
    cfg = write_config(tmp_path, **base_sections(data=_synth_with(**field)))
    out = tmp_path / "bags.ndjson"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 3
    line = one_error_line(capsys)
    assert "largest float64 array" in line and len(line) < 200
    assert not out.exists()


class TestCmdSweep:
    def test_outputs_and_reproducibility(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **sweep_sections())
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert sorted(p.name for p in out1.iterdir()) == ["rates.csv", "summary.json"]
        rates1 = (out1 / "rates.csv").read_text()
        assert rates1 == (out2 / "rates.csv").read_text()
        assert (out1 / "summary.json").read_text() == (out2 / "summary.json").read_text()
        lines = rates1.splitlines()
        assert lines[0] == "m,N,lambda,rep,scheme,error"
        assert len(lines) == 1 + 3 * 2
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["capped_m"] == [8, 12, 16]
        assert "rate_fit" in summary

    def test_schedule_mode_writes_library_rows(self, tmp_path):
        knobs = {"r": 1.5, "alpha_decay": 3.0}
        sections = sweep_sections(**{"lambda": {"schedule": knobs}})
        cfg = write_config(tmp_path, **sections)
        out = tmp_path / "sched"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        result = run_rate_experiment(
            SweepConfig(
                meta=MetaDistributionSpec.from_dict(sections["data"]["synth"]),
                embedding_kernel=EmbeddingKernelSpec("gaussian", 0.25, 1),
                outer_kernel=OuterKernelSpec.gaussian(1.0),
                scheme="coefficient_l2",
                m_values=(8, 12, 16),
                replications=2,
                schedule_params=ScheduleParams(**knobs),
                lambda_mode="schedule",
                n_max=12,
                n_test=12,
            )
        )
        rows = [(r.m, r.n_points, r.lam, r.rep, r.scheme, r.error) for r in result.rows]
        expected = [",".join(map(str, row)) for row in rows]
        assert (out / "rates.csv").read_text().splitlines()[1:] == expected

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

    def test_unwritable_out_exits_2(self, tmp_path, capsys, monkeypatch):
        # An output under a plain file fails in the OS; main prints its one line.
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not dir")
        out = str(blocker / "out")
        cfg = write_config(tmp_path, **base_sections())
        model = tmp_path / "model.json"
        bags = tmp_path / "bags.ndjson"
        assert main(["fit", "--config", cfg, "--out", str(model)]) == 0
        assert main(["generate", "--config", cfg, "--out", str(bags)]) == 0
        capsys.readouterr()
        assert main(["fit", "--config", cfg, "--out", out]) == 2
        assert out in one_error_line(capsys)
        assert main(["generate", "--config", cfg, "--out", out]) == 2
        assert out in one_error_line(capsys)
        assert main(["predict", "--model", str(model), "--bags", str(bags), "--out", out]) == 2
        assert out in one_error_line(capsys)

        # sweep and spectrum make their directory before any of the work.
        def not_reached(*args, **kwargs):
            raise AssertionError("work started before the output directory was made")

        monkeypatch.setattr(distreg.analysis, "run_rate_experiment", not_reached)
        monkeypatch.setattr(distreg.cli, "build_gram", not_reached)
        sweep_cfg = write_config(tmp_path, name="sweep.json", **sweep_sections())
        for argv in (["sweep", "--config", sweep_cfg], ["spectrum", "--config", cfg]):
            for target in (out, str(blocker)):
                assert main([*argv, "--out", target]) == 2
                assert target in one_error_line(capsys)

    def test_failed_run_removes_only_the_out_it_made(self, tmp_path, capsys, monkeypatch):
        def fail(config):
            raise NumericalError("SPD factorization failed: planted")

        monkeypatch.setattr(distreg.analysis, "run_rate_experiment", fail)
        cfg = write_config(tmp_path, **sweep_sections())
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("mine")
        for out in (tmp_path / "new" / "sweep", kept):
            assert main(["sweep", "--config", cfg, "--out", str(out)]) == 4
            assert "planted" in one_error_line(capsys)
        assert not (tmp_path / "new").exists()
        assert (kept / "notes.txt").read_text() == "mine"

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

    @pytest.mark.parametrize("n_bags, code", [(None, 2), (2, 3)], ids=["missing-file", "two-bags"])
    def test_failed_run_removes_only_the_out_it_made(self, tmp_path, capsys, n_bags, code):
        bag_path = tmp_path / "bags.ndjson"
        if n_bags is not None:
            io.write_bags(make_bags(5, n_bags, 3, 1), bag_path)
        cfg = write_config(tmp_path, **base_sections(data={"path": str(bag_path)}))
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("mine")
        for out in (tmp_path / "new" / "spec", kept):
            assert main(["spectrum", "--config", cfg, "--out", str(out)]) == code
            one_error_line(capsys)
        assert not (tmp_path / "new").exists()
        assert (kept / "notes.txt").read_text() == "mine"


@pytest.mark.parametrize("command", ["fit", "sweep", "spectrum"])
def test_solving_commands_do_not_import_scipy_linalg(tmp_path, command):
    # The package import would cost each command ~0.25 s and ~25 MB, numpy.testing
    # and numpy.f2py among its modules; the LAPACK extension is loaded alone.
    sections = {"fit": _grid_fit, "sweep": sweep_sections, "spectrum": base_sections}[command]()
    cfg = write_config(tmp_path, **sections)
    code = (
        "import sys, distreg.cli as cli\n"
        f"rc = cli.main([{command!r}, '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(rc, 'scipy.linalg._flapack' in sys.modules,\n"
        "      [m for m in ('scipy.linalg', 'numpy.testing', 'numpy.f2py') if m in sys.modules])\n"
    )
    src = str(Path(distreg.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 True []"


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

    @pytest.mark.parametrize("m", ["2", "1" + "0" * 400], ids=["m-2", "m-1e400"])
    def test_m_out_of_range_exits_2(self, capsys, m):
        # An m too large for a float fails as an m below 3 does.
        assert main(["schedule", "--r", "1", "--alpha", "2", "--m", m]) == 2
        assert "schedule requires" in one_error_line(capsys)


@pytest.mark.parametrize("where, code", [("bags", 2), ("config", 3), ("model", 2)])
def test_integer_past_the_digit_limit_exits_cleanly(tmp_path, capsys, where, code):
    # json.loads fails with a plain ValueError on integers of over 4300 digits.
    long_int = "1" + "0" * 5000
    bags = Path(write_bag_file(tmp_path / "bags.ndjson", {"id": "c", "y": 1.0, "points": [[0.3]]}))
    cfg = Path(write_config(tmp_path, **base_sections(data={"path": str(bags)})))
    model = tmp_path / "model.json"
    assert main(["fit", "--config", str(cfg), "--out", str(model)]) == 0
    if where == "bags":
        bags.write_text(bags.read_text() + f'{{"id": "d", "y": {long_int}, "points": [[0.1]]}}\n')
    else:
        doc = cfg if where == "config" else model
        doc.write_text(doc.read_text().rstrip()[:-1] + f', "x": {long_int}}}')
    capsys.readouterr()
    if where == "model":
        assert main(["predict", "--model", str(model), "--bags", str(bags)]) == code
    else:
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "m2.json")]) == code
    assert "JSON" in one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--model", "m.json", "--bags", "b.ndjson", "--json"],
        ["generate", "--config", "c.json", "--json"],
        ["generate", "--config", "c.json", "--threads", "2"],
    ],
    ids=["predict-json", "generate-json", "generate-threads"],
)
def test_flag_the_command_does_not_take_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ------------------------------------------------------------------- fuzzing

# What a fuzzed document may hold in place of any value, or add as a new key.
FUZZ_VALUES = (None, True, "abc", math.nan, -1, -0.5, [0.5], {"k": 1}, 10**400)


def _key_paths(doc, prefix=()):
    """The key path of every value inside a JSON document."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield (*prefix, key)
        yield from _key_paths(value, (*prefix, key))


@st.composite
def mutants(draw, doc):
    """`doc` with one to three values replaced, dropped, or given a new sibling."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_key_paths(doc))
        if not paths:
            break
        *where, key = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, where, doc)
        op = draw(st.sampled_from(("replace", "drop", "add")))
        value = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
        if op == "drop":
            del parent[key]
        elif op == "add" and isinstance(parent, dict):
            parent["fuzz"] = value
        elif op == "add":
            parent.append(value)
        else:
            parent[key] = value
    return doc


def run_fuzzed(argv) -> None:
    """main(argv) must exit 0, 2, 3 or 4, with one `error:` line exactly when it fails."""
    err = StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(StringIO()):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert len(errors) == (code != 0), err.getvalue()


FUZZ_CONFIGS = (
    ("fit", base_sections()),
    ("fit", _grid_fit(holdout_frac=0.3, schedule_params={"r": 1.0, "alpha_decay": 2.0})),
    ("fit", base_sections(**{"lambda": {"schedule": {"r": 1.5, "alpha_decay": 3.0}}})),
    ("generate", base_sections()),
    ("spectrum", base_sections(decay_head=5)),
    ("sweep", sweep_sections(holdout_frac=0.3, schedule_params={"r": 1.0, "alpha_decay": 2.0})),
)

FUZZ_RECORDS = [
    {"id": "a", "y": 1.0, "points": [[0.1], [0.2]]},
    {"id": "b", "y": 2.0, "points": [[0.5], [0.7]], "params": {"theta": [0.6], "s": 0.1}},
    {"id": "c", "y": 0.5, "points": [[0.3]]},
]


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    """A model fitted on FUZZ_RECORDS, and its document."""
    tmp = tmp_path_factory.mktemp("fuzz")
    bags = tmp / "bags.ndjson"
    bags.write_text("".join(json.dumps(r) + "\n" for r in FUZZ_RECORDS))
    cfg = write_config(tmp, **base_sections(data={"path": str(bags)}))
    model = tmp / "model.json"
    assert main(["fit", "--config", cfg, "--out", str(model)]) == 0
    return model, json.loads(model.read_text())


@given(data=st.data())
def test_fuzzed_config_exits_cleanly(data):
    command, doc = data.draw(st.sampled_from(FUZZ_CONFIGS))
    doc = data.draw(mutants(doc))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), **doc)
        run_fuzzed([command, "--config", cfg, "--out", str(Path(tmp) / "out")])


@given(records=mutants(FUZZ_RECORDS), command=st.sampled_from(("fit", "predict")))
@settings(max_examples=300)
def test_fuzzed_bag_records_exit_cleanly(fuzz_model, records, command):
    with tempfile.TemporaryDirectory() as tmp:
        bags = Path(tmp) / "bags.ndjson"
        bags.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = str(Path(tmp) / "out")
        if command == "fit":
            cfg = write_config(Path(tmp), **base_sections(data={"path": str(bags)}))
            run_fuzzed(["fit", "--config", cfg, "--out", out])
        else:
            model = str(fuzz_model[0])
            run_fuzzed(["predict", "--model", model, "--bags", str(bags), "--out", out])


@given(data=st.data())
@settings(max_examples=300)
def test_fuzzed_model_document_exits_cleanly(fuzz_model, data):
    doc = data.draw(mutants(fuzz_model[1]))
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(doc))
        bags = Path(tmp) / "bags.ndjson"
        bags.write_text("".join(json.dumps(r) + "\n" for r in FUZZ_RECORDS))
        run_fuzzed(["predict", "--model", str(model), "--bags", str(bags),
                    "--out", str(Path(tmp) / "out")])
