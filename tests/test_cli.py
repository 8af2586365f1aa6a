"""CLI surface tests; commands run in-process through main()."""
import json

import numpy as np
import pytest

from quadfeat.cli import main
from quadfeat.harness import REPORT_HEADER, strip_timing_columns
from quadfeat.kernels import random_anova, save_anova


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "data.csv"
    np.savetxt(path, rng.standard_normal((200, 4)), delimiter=",")
    return str(path)


def test_build_writes_feature_map(tmp_path, capsys):
    out = tmp_path / "map.json"
    assert main(["build", "--method", "rff", "--d", "3", "--D", "16",
                 "--gamma", "0.5", "--seed", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "rff"
    assert payload["D"] == 16
    assert len(payload["points"]) == 16


def test_eval_prints_report_row(capsys):
    assert main(["eval", "--method", "qmc", "--d", "2", "--D", "32",
                 "--gamma", "0.5", "--diameter", "0.5",
                 "--n-eval", "1000", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == REPORT_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "qmc"
    assert float(cells[5]) >= float(cells[6])  # max >= rms

def test_sweep_deterministic_csv(tmp_path):
    args = ["sweep", "--method", "rff,subsampled", "--d", "3",
            "--D", "16,32", "--gamma", "0.5", "--diameter", "0.5,1.0",
            "--seed", "0,1", "--n-eval", "500", "--L", "4"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (strip_timing_columns(out1.read_text())
            == strip_timing_columns(out2.read_text()))
    assert out1.read_text().splitlines()[0] == REPORT_HEADER


def test_sweep_from_config_file(tmp_path):
    config = {"methods": ["rff"], "d": 2, "gamma": 0.5, "D": [8],
              "M": [0.5], "seeds": [0], "n_eval": 200}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 2


def test_embed_writes_features(tmp_path, data_csv):
    out = tmp_path / "features.csv"
    assert main(["embed", "--method", "rff", "--D", "20",
                 "--gamma", "0.5", "--seed", "0", "--data", data_csv,
                 "--out", str(out)]) == 0
    features = np.loadtxt(out, delimiter=",")
    assert features.shape == (200, 40)


def test_embed_subsampled_merges_duplicates(tmp_path, data_csv):
    out = tmp_path / "features_sub.csv"
    assert main(["embed", "--method", "subsampled", "--D", "20", "--L", "4",
                 "--gamma", "0.5", "--seed", "0", "--data", data_csv,
                 "--out", str(out)]) == 0
    features = np.loadtxt(out, delimiter=",")
    assert features.shape[0] == 200
    assert features.shape[1] % 2 == 0
    assert features.shape[1] <= 40  # repeats in the lattice merge

def test_embed_anova(tmp_path, data_csv):
    kernel = random_anova(d=4, m=3, subset_size=2, gamma=0.5, seed=2)
    spec_path = tmp_path / "anova.json"
    save_anova(kernel, str(spec_path))
    out = tmp_path / "anova_features.csv"
    assert main(["embed", "--method", "rff", "--D", "8", "--gamma", "0.5",
                 "--data", data_csv, "--anova", str(spec_path),
                 "--out", str(out)]) == 0
    features = np.loadtxt(out, delimiter=",")
    assert features.shape == (200, 2 * 3 * 8)


def test_eval_anova_reports_structure_gamma(tmp_path, capsys):
    kernel = random_anova(d=4, m=2, subset_size=2, gamma=0.25, seed=3)
    spec_path = tmp_path / "anova.json"
    save_anova(kernel, str(spec_path))
    assert main(["eval", "--method", "rff", "--D", "8", "--gamma", "0.5",
                 "--anova", str(spec_path), "--diameter", "0.5",
                 "--n-eval", "500", "--seed", "0"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(row[3]) == 0.25  # the structure file owns gamma


def test_sweep_requires_dimension(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--method", "rff"])


def test_reweighted_via_cli(tmp_path, data_csv):
    out = tmp_path / "rw.csv"
    assert main(["eval", "--method", "reweighted", "--d", "4", "--D", "30",
                 "--gamma", "0.5", "--data", data_csv, "--pairs", "60",
                 "--diameter", "1.0", "--n-eval", "500",
                 "--seed", "0", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == REPORT_HEADER
    assert lines[1].startswith("reweighted,4,")


def test_lambda_reaches_anova_reweighting(tmp_path, data_csv, capsys):
    kernel = random_anova(d=4, m=2, subset_size=2, gamma=0.5, seed=4)
    spec_path = tmp_path / "anova.json"
    save_anova(kernel, str(spec_path))
    args = ["eval", "--method", "reweighted", "--anova", str(spec_path),
            "--data", data_csv, "--D", "12", "--pairs", "60", "--L", "4",
            "--n-eval", "500", "--seed", "0"]
    rows = []
    for extra in ([], ["--lambda", "0.05"]):
        assert main(args + extra) == 0
        out = capsys.readouterr().out
        rows.append(strip_timing_columns(out).splitlines()[1])
    assert rows[0] != rows[1]
