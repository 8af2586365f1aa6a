"""CLI surface tests; commands run in-process through main()."""
import io
import itertools
import json
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp

from quadfeat import cli, harness
from quadfeat.cli import main
from quadfeat.errors import ConfigError
from quadfeat.harness import (
    REPORT_HEADER,
    build_anova_map,
    build_method_map,
    error_stats,
    load_csv,
    reports_to_csv,
    strip_timing_columns,
    sweep,
)
from quadfeat.kernels import load_anova, random_anova, save_anova


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
    assert capsys.readouterr().out == f"wrote {out}: method=rff d=3 D=16\n"


def test_build_names_cosine_terms_and_points_of_a_mirror_rule(tmp_path, capsys):
    out = tmp_path / "pe.json"
    assert main(["build", "--method", "poly-exact", "--d", "3", "--D", "100",
                 "--degree", "2", "--seed", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    h = payload["D"] // 2
    assert "mirror" not in payload and payload["D"] == len(payload["points"])
    assert capsys.readouterr().out == (f"wrote {out}: method=poly_exact d=3 "
                                       f"D={h} ({2 * h} points)\n")


def test_build_names_cosine_terms_and_points_of_a_subsampled_map(tmp_path, capsys):
    # at d = 3 the weight-proportional draws include twins w, -w, and each
    # pair is one cosine term
    out = tmp_path / "ss.json"
    assert main(["build", "--method", "subsampled", "--d", "3", "--L", "4",
                 "--D", "40", "--seed", "16", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["points"]) == 19
    assert capsys.readouterr().out == (f"wrote {out}: method=subsampled d=3 "
                                       f"D=12 (19 points)\n")


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


def _embed_rff(tmp_path, data_csv, name):
    out = tmp_path / name
    assert main(["embed", "--method", "rff", "--D", "20", "--gamma", "0.5",
                 "--seed", "0", "--data", data_csv, "--out", str(out)]) == 0
    fm = build_method_map("rff", 4, 20, 0.5, 0)
    return out, fm.embed_batch(load_csv(data_csv).rows)


def test_embed_streams_row_blocks(tmp_path, data_csv, monkeypatch):
    # 40 features a row: blocks of 70, 70 and 60 of the 200 rows
    monkeypatch.setattr(cli, "EMBED_BLOCK", 40 * 70)
    out, _ = _embed_rff(tmp_path, data_csv, "blocks.csv")
    fm = build_method_map("rff", 4, 20, 0.5, 0)
    rows = load_csv(data_csv).rows
    blocks = [_savetxt_bytes(fm.embed_batch(rows[start:start + 70]))
              for start in (0, 70, 140)]
    assert out.read_bytes() == b"".join(blocks)


def test_embed_in_one_block_matches_savetxt_bytes(tmp_path, data_csv):
    out, expected = _embed_rff(tmp_path, data_csv, "one.csv")
    whole = tmp_path / "whole.csv"
    np.savetxt(whole, expected, delimiter=",")
    assert out.read_bytes() == whole.read_bytes()


def _savetxt_bytes(Z) -> bytes:
    fh = io.BytesIO()
    np.savetxt(fh, Z, delimiter=",")
    return fh.getvalue()


def _written_bytes(Z) -> bytes:
    fh = io.BytesIO()
    cli._write_csv(fh, Z)
    return fh.getvalue()


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf),
                           np.nextafter(values, np.inf)])


def _two_digit_exponents(n):
    """n values of either sign, magnitudes 1e-99 to 1e99, as embeddings have."""
    rng = np.random.default_rng(n)
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-99, 99, n)


def _chunk_widths(Z):
    """The record size the writer takes for each chunk of Z's values."""
    flat = np.ascontiguousarray(Z).ravel()
    buf = np.empty(cli._CHUNK * 27, np.uint8)
    return [cli._format(flat[start:start + cli._CHUNK], buf).itemsize
            for start in range(0, flat.size, cli._CHUNK)]


class TestWriteCsv:
    """``cli._write_csv`` writes np.savetxt's default bytes, value by value."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_bit_patterns(self, seed):
        # every exponent, both zeros, subnormals, infinities and nans; rows
        # of 500 values, so the writer's chunks end inside rows
        bits = np.random.default_rng(seed).integers(
            0, 2**64, size=(400, 500), dtype=np.uint64)
        Z = bits.view(np.float64)
        Z[0, :8] = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324]
        assert _written_bytes(Z) == _savetxt_bytes(Z)

    @pytest.mark.parametrize("values", [
        10.0 ** np.arange(-300, 301),
        np.ldexp(1.0, np.arange(-1074, 1024)),
    ], ids=["powers_of_10", "powers_of_2"])
    def test_powers_and_their_neighbours(self, values):
        values = _with_neighbours(values)
        for Z in (values.reshape(-1, 1), values.reshape(3, -1), -values.reshape(1, -1)):
            assert _written_bytes(Z) == _savetxt_bytes(Z)

    def test_exact_ties_round_to_even(self):
        # j 2^-q with exactly 20 significant digits, the 20th a 5: '%.18e'
        # rounds them half to even
        ties = [j * 2.0**-q for q in range(1, 80) for j in range(1, 2**10, 2)
                if len(Decimal(j * 2.0**-q).as_tuple().digits) == 20]
        assert 2.0**-28 in ties and len(ties) > 500
        Z = np.array(ties + [-t for t in ties]).reshape(-1, 20)
        assert _written_bytes(Z) == _savetxt_bytes(Z)
        assert _written_bytes(np.array([[2.0**-28]])) == b"3.725290298461914062e-09\n"

    def test_exponent_one_step_from_log10(self):
        # the rounded product |x| 10^(18 - floor(log10|x|)) of each lies on
        # the other side of 1e18 from the unrounded one
        Z = _with_neighbours([1e153, 1e-194, 1e-200]).reshape(1, -1)
        assert _written_bytes(Z) == _savetxt_bytes(Z)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_no_columns(self, n):
        # np.savetxt writes an empty line per row
        Z = np.empty((n, 0))
        assert _written_bytes(Z) == _savetxt_bytes(Z)

    # rows of 1000 values, as the benchmark's embeddings have: the second
    # chunk starts inside row 16, and row 20 ends inside it
    CHUNK_PLACES = {"chunk_first": cli._CHUNK, "chunk_middle": cli._CHUNK * 3 // 2,
                    "chunk_last": 2 * cli._CHUNK - 1, "row_last": 20_999}

    @pytest.mark.parametrize("place", CHUNK_PLACES)
    @pytest.mark.parametrize("lone", [1e100, -1e-100, np.nextafter(-1e280, -np.inf),
                                      5e-324],
                             ids=["1e100", "-1e-100", "fallback_-1e280", "subnormal"])
    def test_one_three_digit_exponent_widens_its_chunk_alone(self, lone, place):
        Z = _two_digit_exponents(40_000).reshape(40, 1000)
        Z.flat[self.CHUNK_PLACES[place]] = lone
        assert _chunk_widths(Z) == [26, 27, 26]
        assert _written_bytes(Z) == _savetxt_bytes(Z)

    def test_consecutive_chunks_switch_width_both_ways(self):
        Z = _two_digit_exponents(4 * cli._CHUNK).reshape(-1, 512)
        Z.flat[cli._CHUNK + 7] = -1e-250
        Z.flat[3 * cli._CHUNK + 100] = 2e301
        assert _chunk_widths(Z) == [26, 27, 26, 27]
        assert _written_bytes(Z) == _savetxt_bytes(Z)

    @pytest.mark.parametrize("value", _with_neighbours([1e99, 1e100, 1e-99, 1e-100]))
    def test_edges_of_two_digit_exponents(self, value):
        for sign in (1.0, -1.0):
            Z = _two_digit_exponents(cli._CHUNK).reshape(128, 128)
            Z[70, 5] = sign * value
            assert _written_bytes(Z) == _savetxt_bytes(Z)

    @pytest.mark.parametrize("extra,width", [
        ([0.0, -0.0], 26),
        ([0.0, -0.0, 1e100], 27),
        ([5e-324, -5e-324, np.nextafter(2.2250738585072014e-308, 0.0), -0.0], 27),
    ], ids=["zeros_narrow", "zeros_wide", "subnormals_wide"])
    def test_zeros_and_subnormals_in_each_layout(self, extra, width):
        # a subnormal has a three-digit exponent, so only the wide layout holds one
        Z = _two_digit_exponents(cli._CHUNK).reshape(64, 256)
        Z[0, :len(extra)] = extra
        Z[-1, -len(extra):] = extra
        assert _chunk_widths(Z) == [width]
        assert _written_bytes(Z) == _savetxt_bytes(Z)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                   min_side=0, max_side=40)
                      .filter(lambda shape: shape[1] > 0)))
    def test_any_float_array(self, Z):
        assert _written_bytes(Z) == _savetxt_bytes(Z)


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


def test_no_penalty_flag(data_csv):
    # a reweighted rule is selected by --D alone
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--method", "reweighted", "--d", "4", "--D", "30",
              "--data", data_csv, "--lambda", "0.1"])
    assert exc.value.code == 2


def _no_builds(*args, **kwargs):
    raise AssertionError("a map was built")


@pytest.mark.parametrize("flags,key", [
    (["--D", "0"], "D"), (["--D", "abc"], "D"), (["--D", "16,"], "D"),
    (["--diameter", "nan"], "M"), (["--diameter", "inf"], "M"),
    (["--diameter", "-1"], "M"), (["--diameter", "x"], "M"),
    (["--gamma", "inf"], "gamma"), (["--gamma", "nan"], "gamma"),
    (["--n-eval", "0"], "n_eval"), (["--d", "0"], "d"), (["--d", "2.5"], "d"),
    (["--seed", "0,a"], "seeds"), (["--method", "rff,nystrom"], "methods"),
    (["--method", "reweighted", "--d", "5"], "d"), (["--pairs", "0"], "pairs"),
    (["--method", "dense", "--L", "0"], "L"), (["--method", "dense", "--L", "300"], "L"),
    (["--method", "sparse", "--level", "-1"], "level"),
    (["--method", "sparse", "--level", "9"], "level"),
    (["--method", "poly-exact", "--degree", "3"], "degree"), (["--seed", "-1"], "seeds"),
    (["--d", "5"], "d"),
])
@pytest.mark.parametrize("command", ["build", "eval", "sweep", "embed"])
def test_every_command_names_the_bad_key(command, flags, key, data_csv,
                                         tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "build_method_map", _no_builds)
    argv = [command, "--d", "4", "--data", data_csv, "--n-eval", "100",
            "--out", str(tmp_path / "out")] + flags
    with pytest.raises(ConfigError) as exc:
        main(argv)
    assert exc.value.key == key
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "sweep", "embed"])
def test_anova_width_must_match_the_data(command, data_csv, tmp_path,
                                         monkeypatch):
    spec_path = tmp_path / "anova.json"
    save_anova(random_anova(d=5, m=2, subset_size=2, gamma=0.5, seed=1),
               str(spec_path))
    monkeypatch.setattr(harness, "build_method_map", _no_builds)
    with pytest.raises(ConfigError, match="is 5, but .* has 4 columns") as exc:
        main([command, "--anova", str(spec_path), "--data", data_csv,
              "--n-eval", "100", "--out", str(tmp_path / "out")])
    assert exc.value.key == "d"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flags,key", [
    ("build", ["--method", "rff,qmc"], "methods"),
    ("build", ["--D", "8,16"], "D"),
    ("build", ["--seed", "0,1"], "seeds"),
    ("embed", ["--D", "8,16"], "D"),
    ("embed", ["--seed", "0,1"], "seeds"),
    ("eval", ["--method", "rff,qmc"], "methods"),
    ("eval", ["--diameter", "0.5,1.0"], "M"),
])
def test_one_map_commands_refuse_lists(command, flags, key, data_csv,
                                       monkeypatch):
    monkeypatch.setattr(harness, "build_method_map", _no_builds)
    with pytest.raises(ConfigError) as exc:
        main([command, "--d", "4", "--data", data_csv] + flags)
    assert exc.value.key == key


def test_build_refuses_anova(tmp_path):
    spec_path = tmp_path / "anova.json"
    save_anova(random_anova(d=4, m=2, subset_size=2, gamma=0.5, seed=1),
               str(spec_path))
    with pytest.raises(SystemExit):
        main(["build", "--anova", str(spec_path), "--out",
              str(tmp_path / "map.json")])


def test_sweep_anova_rows_match_eval_rows(tmp_path, capsys):
    kernel = random_anova(d=4, m=3, subset_size=2, gamma=0.25, seed=5)
    spec_path = tmp_path / "anova.json"
    save_anova(kernel, str(spec_path))
    common = ["--anova", str(spec_path), "--n-eval", "500", "--L", "4"]
    cells = list(itertools.product(("rff", "sparse"), ("8", "16"),
                                   ("0.5", "1.0"), ("0", "1")))
    assert main(["sweep", "--method", "rff,sparse", "--D", "8,16",
                 "--diameter", "0.5,1.0", "--seed", "0,1"] + common) == 0
    swept = strip_timing_columns(capsys.readouterr().out).splitlines()
    evaluated = []
    for method, D, M, seed in cells:
        assert main(["eval", "--method", method, "--D", D, "--diameter", M,
                     "--seed", seed] + common) == 0
        header, row = strip_timing_columns(capsys.readouterr().out).splitlines()
        evaluated.append(row)
    assert swept == [header] + evaluated
    # the rows measure the ANOVA kernel of the structure file
    fm = build_anova_map(load_anova(str(spec_path)), "rff", 8, 0, L=4)
    max_err, rms = error_stats(fm, kernel, 0.5, 500, 0)
    assert swept[1].split(",") == ["rff", "4", str(3 * 8), "0.25", "0.5",
                                   repr(max_err), repr(rms), "500", "0"]


def test_eval_is_a_one_cell_sweep(capsys):
    # the benchmark's cli-roundtrip eval command, at its small size
    assert main(["eval", "--method", "subsampled", "--d", "16", "--L", "8",
                 "--D", "500", "--diameter", "0.5", "--n-eval", "2000",
                 "--gamma", "0.5", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    config = {"methods": ["subsampled"], "d": 16, "gamma": 0.5, "D": [500],
              "M": [0.5], "seeds": [5], "n_eval": 2000, "L": 8}
    assert (strip_timing_columns(out)
            == strip_timing_columns(reports_to_csv(sweep(config))))
