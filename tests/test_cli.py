import click
import numpy as np
import pytest
from click.testing import CliRunner

from adaptrobust import datagen, losses, mlp
from adaptrobust.cli import main, render_regions_svg, run_sweep
from adaptrobust.core import LabeledDataset, RandomStream, write_text_lines
from adaptrobust.neighbors import NnClassifier

runner = CliRunner()


def run_ok(args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


# --- generate -------------------------------------------------------------------

def test_generate_writes_csv(tmp_path):
    out = tmp_path / "deep" / "nested"  # missing directories get created
    run_ok(["generate", "--shape", "circles", "--n", "1000", "--seed", "7",
            "--out", str(out), "--name", "g"])
    lines = (out / "g" / "data" / "dataset.csv").read_text().splitlines()
    assert len(lines) == 1001
    assert lines[0] == "x1,x2,label"
    assert (out / "g" / "config.echo").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=50\nseed=9\n", encoding="utf-8")
    run_ok(["generate", "--shape", "boxes", "--config", str(cfg),
            "--out", str(tmp_path), "--name", "fromfile"])
    assert len((tmp_path / "fromfile" / "data" / "dataset.csv").read_text().splitlines()) == 51
    run_ok(["generate", "--shape", "boxes", "--config", str(cfg), "--n", "60",
            "--out", str(tmp_path), "--name", "flagwins"])
    assert len((tmp_path / "flagwins" / "data" / "dataset.csv").read_text().splitlines()) == 61


def test_config_supplies_required_options(tmp_path):
    cfg = tmp_path / "shape.cfg"
    cfg.write_text("shape=circles\nn=30\n", encoding="utf-8")
    run_ok(["generate", "--config", str(cfg), "--out", str(tmp_path), "--name", "g"])
    assert len((tmp_path / "g" / "data" / "dataset.csv").read_text().splitlines()) == 31
    cfg.write_text("scenario=four_point\n", encoding="utf-8")
    res = run_ok(["scenario", "--config", str(cfg), "--out", str(tmp_path), "--name", "s"])
    assert "scenario: four_point" in res.output


def test_config_unknown_key_is_rejected(tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("n=50\nepohcs=5\n", encoding="utf-8")
    res = runner.invoke(main, ["generate", "--shape", "boxes", "--config", str(cfg),
                               "--out", str(tmp_path), "--name", "typo"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "'epohcs'" in res.output and str(cfg) in res.output
    assert len(res.output.strip().splitlines()) == 1
    assert not (tmp_path / "typo").exists()


def test_config_unparsable_value_is_rejected(tmp_path, dataset_csv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("c=abc\n", encoding="utf-8")
    res = runner.invoke(main, ["augment", "--data", str(dataset_csv), "--config", str(cfg),
                               "--out", str(tmp_path), "--name", "bad"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "'c'" in res.output and str(cfg) in res.output and "abc" in res.output
    assert len(res.output.strip().splitlines()) == 1
    assert not (tmp_path / "bad").exists()


def test_config_values_use_the_option_types(tmp_path, dataset_csv):
    cfg = tmp_path / "typed.cfg"
    # the explicit --data flag wins over the file's `data`, so the missing
    # file is never read
    cfg.write_text(f"c=0.5\nm=2\ninclude_originals=false\ndata={tmp_path / 'missing.csv'}\n",
                   encoding="utf-8")
    run_ok(["augment", "--data", str(dataset_csv), "--config", str(cfg),
            "--out", str(tmp_path), "--name", "typed"])
    echo = (tmp_path / "typed" / "config.echo").read_text().splitlines()
    assert {"c=0.5", "m=2", "include_originals=False"} <= set(echo)
    rows = (tmp_path / "typed" / "data" / "augmented.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 200


def test_env_var_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("ADAPTROBUST_OUT", str(tmp_path / "envroot"))
    run_ok(["generate", "--shape", "boxes", "--n", "10", "--name", "viaenv"])
    assert (tmp_path / "envroot" / "viaenv" / "data" / "dataset.csv").exists()


# --- augment --------------------------------------------------------------------

@pytest.fixture()
def dataset_csv(tmp_path):
    run_ok(["generate", "--shape", "circles", "--n", "200", "--seed", "1",
            "--out", str(tmp_path), "--name", "base"])
    return tmp_path / "base" / "data" / "dataset.csv"


def test_augment_adaptive_counts(dataset_csv, tmp_path):
    run_ok(["augment", "--data", str(dataset_csv), "--c", "0.6666666666666666",
            "--m", "4", "--out", str(tmp_path), "--name", "aug"])
    lines = (tmp_path / "aug" / "data" / "augmented.csv").read_text().splitlines()
    assert len(lines) == 1001  # header + 200 originals + 800 samples
    assert lines[0] == "x1,x2,label,origin"


def test_augment_fixed_radius_bound(dataset_csv, tmp_path):
    run_ok(["augment", "--data", str(dataset_csv), "--fixed-radius", "0.1",
            "--m", "2", "--out", str(tmp_path), "--name", "augf"])
    rows = (tmp_path / "augf" / "data" / "augmented.csv").read_text().splitlines()[1:]
    base = datagen.load_csv(dataset_csv)
    for row in rows:
        *coords, label, origin = row.split(",")
        origin = int(origin)
        if origin >= 0:
            p = np.array([float(c) for c in coords])
            assert np.sqrt(np.sum((p - base.points[origin]) ** 2)) <= 0.1


def test_augment_requires_exactly_one_mode(dataset_csv, tmp_path):
    res = runner.invoke(main, ["augment", "--data", str(dataset_csv),
                               "--out", str(tmp_path)])
    assert res.exit_code != 0 and "exactly one" in res.output
    res = runner.invoke(main, ["augment", "--data", str(dataset_csv), "--c", "0.5",
                               "--fixed-radius", "0.1", "--out", str(tmp_path)])
    assert res.exit_code != 0 and "exactly one" in res.output


# --- train ----------------------------------------------------------------------

@pytest.fixture()
def split_csvs(tmp_path, dataset_csv):
    ds = datagen.load_csv(dataset_csv)
    train, test = datagen.split(ds, datagen.SplitSpec(0.8, seed=2))
    tr, te = tmp_path / "train.csv", tmp_path / "test.csv"
    write_text_lines(tr, datagen.csv_lines(train))
    write_text_lines(te, datagen.csv_lines(test))
    return tr, te


def test_train_mlp_writes_three_loss_rows(split_csvs, tmp_path):
    tr, te = split_csvs
    run_ok(["train", "--data", str(tr), "--test", str(te), "--model", "mlp",
            "--epochs", "3", "--out", str(tmp_path), "--name", "t"])
    lines = (tmp_path / "t" / "reports" / "losses.csv").read_text().splitlines()
    assert lines[0] == losses.REPORT_CSV_HEADER
    assert len(lines) == 4
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names[0] == "binary"
    assert names[1].startswith("robust_fixed_r=")
    assert names[2].startswith("adaptive_testtime")
    assert (tmp_path / "t" / "models" / "model.txt").exists()


def test_train_nn1(split_csvs, tmp_path):
    tr, te = split_csvs
    run_ok(["train", "--data", str(tr), "--test", str(te), "--model", "nn1",
            "--out", str(tmp_path), "--name", "tnn"])
    lines = (tmp_path / "tnn" / "reports" / "losses.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == "0.0"  # separable circles: 1-NN is perfect


def test_train_nn1_runs_at_a_radius_whose_probes_stay_in_range(tmp_path):
    # 1e300 is refused on these points (test_bad_input_stops_with_one_line_error)
    square = tmp_path / "square.csv"
    square.write_text("x1,x2,label\n0,0,0\n1,0,1\n0,1,0\n1,1,1\n", encoding="utf-8")
    run_ok(["train", "--data", str(square), "--test", str(square), "--model", "nn1",
            "--r", "1e100", "--out", str(tmp_path), "--name", "far"])
    assert (tmp_path / "far" / "reports" / "losses.csv").exists()


def test_train_nn1_scores_points_near_the_overflow_edge(tmp_path):
    # diagonal D ~7.1e153: D**2 and (1.5 * D)**2 (a test-time probe's reach at
    # factor 0.5) are finite, but a box widened by the radius on both sides is not
    edge = tmp_path / "edge.csv"
    edge.write_text("x1,x2,label\n0,0,0\n5e153,5e153,1\n", encoding="utf-8")
    run_ok(["train", "--data", str(edge), "--test", str(edge), "--model", "nn1",
            "--out", str(tmp_path), "--name", "edge"])
    lines = (tmp_path / "edge" / "reports" / "losses.csv").read_text().splitlines()
    assert [ln.split(",")[:2] for ln in lines[1:]] == [
        ["binary", "0.0"], ["robust_fixed_r=0.1", "0.0"], ["adaptive_testtime_f=0.5", "0.0"]]


def test_zero_epoch_train_equals_untrained_eval(split_csvs, tmp_path):
    tr, te = split_csvs
    run_ok(["train", "--data", str(tr), "--test", str(te), "--model", "mlp",
            "--epochs", "0", "--seed", "4", "--out", str(tmp_path), "--name", "t0"])
    got = (tmp_path / "t0" / "reports" / "losses.csv").read_text().splitlines()[1:]

    train_ds = datagen.load_csv(tr)
    test_ds = datagen.load_csv(te)
    h = mlp.MlpClassifier(mlp.init(2, seed=4))
    stream = RandomStream(4)
    want = [
        losses.binary_loss(h, test_ds),
        losses.robust_loss_fixed_grid(h, test_ds, [0.1], probes=100, stream=stream.child(0))[0],
        losses.adaptive_robust_testtime(h, test_ds, ref=train_ds, probes=10,
                                        stream=stream.child(1)),
    ]
    assert [ln.split(",")[1] for ln in got] == [repr(r.value) for r in want]


# --- bad input at the CLI boundary -------------------------------------------------

@pytest.fixture()
def bad_csvs(tmp_path):
    pts = np.random.default_rng(0).random((20, 2))
    paths = {}
    for name, points, labels in [("labels01", pts, [0, 1] * 10), ("labels02", pts, [0, 2] * 10),
                                 ("oneclass", pts, [0] * 20), ("labels012", pts, [0, 1, 2, 1] * 5),
                                 ("label5", pts, [0, 1] * 9 + [5, 1]),
                                 ("dim3", np.random.default_rng(1).random((20, 3)), [0, 1] * 10)]:
        paths[name] = tmp_path / f"{name}.csv"
        write_text_lines(paths[name], datagen.csv_lines(LabeledDataset(points, labels)))
    paths["malformed"] = tmp_path / "malformed.csv"
    paths["malformed"].write_text("x1,x2,label\n0.1,oops,0\n", encoding="utf-8")
    paths["model3"] = tmp_path / "model3.txt"
    write_text_lines(paths["model3"], mlp.model_lines(mlp.init(3, seed=0)))
    paths["neglabel"] = tmp_path / "neglabel.csv"
    paths["neglabel"].write_text("x1,x2,label\n0.1,0.2,0\n0.3,0.4,-1\n", encoding="utf-8")
    for name, origin in [("origin_text", "abc"), ("origin_fraction", "-7.5")]:
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(f"x1,x2,label,origin\n0.1,0.2,0,-1\n0.3,0.4,1,{origin}\n",
                               encoding="utf-8")
    paths["model2"] = tmp_path / "model2.txt"
    write_text_lines(paths["model2"], mlp.model_lines(mlp.init(2, seed=0)))
    params = paths["model2"].read_text(encoding="utf-8").splitlines()[2:]
    for name, lines in [("noheader", ["2,10,10"] + params),
                        ("short", ["d,h1,h2", "2,10,10"] + params[:-1]),
                        ("sizes", ["d,h1,h2", "a,b,c"] + params),
                        ("param", ["d,h1,h2", "2,10,10", "oops"] + params[1:])]:
        paths[f"model_{name}"] = tmp_path / f"model_{name}.txt"
        paths[f"model_{name}"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    for name, text in [("nn1_epochs", "epochs=5\n"), ("ambient", "ambient=500\n"),
                       ("gap", "gap=0.7\n")]:
        paths[name] = tmp_path / f"{name}.cfg"
        paths[name].write_text(text, encoding="utf-8")
    paths["twice"] = tmp_path / "twice.cfg"
    paths["twice"].write_text("n=10\nshape=circles\nn=20\n", encoding="utf-8")
    paths["binary"] = tmp_path / "binary.bin"
    paths["binary"].write_bytes(b"\xff\xfe\x00\x81" * 75)  # 0xff is never UTF-8
    paths["overflow"] = tmp_path / "overflow.csv"  # finite, but squared distances overflow
    paths["overflow"].write_text("x1,x2,label\n1e200,0,0\n-1e200,0,1\n0,1e200,0\n",
                                 encoding="utf-8")
    paths["far"] = tmp_path / "far.csv"  # fine alone, but overflows next to the unit square
    paths["far"].write_text("x1,x2,label\n1e200,1e200,0\n1e200,1e200,1\n", encoding="utf-8")
    paths["two"] = tmp_path / "two.csv"  # 2 apart: 1e308 times that leaves the float range
    paths["two"].write_text("x1,x2,label\n0,0,0\n2,0,1\n", encoding="utf-8")
    paths["square"] = tmp_path / "square.csv"  # the unit square's corners, two per label
    paths["square"].write_text("x1,x2,label\n0,0,0\n1,0,1\n0,1,0\n1,1,1\n", encoding="utf-8")
    return paths


TRAIN01 = ["train", "--data", "{labels01}", "--test", "{labels01}"]
AUGMENT01 = ["augment", "--data", "{labels01}"]
# small enough that the run would finish quickly if the bad value got through
SWEEP_SMALL = ["sweep", "--shapes", "circles", "--n", "20", "--seeds", "1", "--epochs", "1",
               "--fixed-radii", "0.1"]
MARGIN_SMALL = ["margin", "--shape", "circles", "--n", "20"]


@pytest.mark.parametrize("args, names", [
    (["margin", "--data", "{labels02}"], "{labels02}"),
    (["train", "--data", "{labels02}", "--test", "{labels02}", "--model", "mlp"], "{labels02}"),
    (["margin", "--shape", "circles", "--grid", "0.1,abc"], "--grid"),
    (["margin", "--shape", "circles", "--grid", "0.2,0.1"], "--grid"),
    (["margin", "--shape", "circles", "--grid", "0.1,0.1"], "--grid '0.1,0.1': radius grid"),
    (["margin", "--shape", "circles", "--grid", "0.1,inf"], "--grid finite nonnegative"),
    (["sweep", "--shapes", "circles,foo"], "'foo'"),
    (["sweep", "--fixed-radii", "0.1,-1"], "--fixed-radii"),
    (["sweep", "--fixed-radii", "1,inf"], "--fixed-radii finite nonnegative"),
    (["augment", "--data", "{malformed}", "--c", "0.5"], "{malformed}"),
    (["train", "--data", "{oneclass}", "--test", "{labels01}", "--model", "nn1"], "{oneclass}"),
    (["train", "--data", "{oneclass}", "--test", "{labels01}", "--model", "mlp"], "{oneclass}"),
    (TRAIN01 + ["--epochs", "-1"], "--epochs"),
    (TRAIN01 + ["--batch", "0"], "--batch"),
    (TRAIN01 + ["--lr", "0"], "--lr"),
    (["sweep", "--epochs", "-1"], "--epochs"),
    (["sweep", "--batch", "0"], "--batch"),
    (["sweep", "--lr", "-0.5"], "--lr"),
    (["sweep", "--n", "1"], "--n"),
    # n=2 leaves an empty test split; n=3 can leave a one-class training split
    (["sweep", "--shapes", "circles", "--n", "2", "--seeds", "1", "--epochs", "1"], "--n"),
    (["sweep", "--shapes", "circles", "--n", "3", "--seeds", "1", "--epochs", "1"], "--n"),
    (["generate", "--shape", "circles", "--n", "1"], "--n"),
    (["margin", "--shape", "circles", "--n", "0"], "--n"),
    (["generate", "--shape", "circles", "--n", "10", "--label-noise", "1.5"], "--label-noise"),
    (["generate", "--shape", "circles", "--n", "10", "--label-noise", "-0.25"], "--label-noise"),
    (["sweep", "--seeds", "0"], "--seeds"),
    (TRAIN01 + ["--model", "nn1", "--r", "inf"], "--r"),
    (TRAIN01 + ["--model", "nn1", "--r", "nan"], "--r"),
    (TRAIN01 + ["--r", "-0.5"], "--r"),
    (AUGMENT01 + ["--c", "0.5", "--m", "0"], "--m"),
    (AUGMENT01 + ["--c", "-1"], "--c"),
    (AUGMENT01 + ["--fixed-radius", "-1"], "--fixed-radius"),
    (AUGMENT01 + ["--fixed-radius", "nan"], "--fixed-radius"),
    (SWEEP_SMALL + ["--m", "0"], "--m"),
    (SWEEP_SMALL + ["--c", "-1"], "--c"),
    (SWEEP_SMALL + ["--probes", "-1"], "--probes"),
    (SWEEP_SMALL + ["--ambient", "-1"], "--ambient"),
    (TRAIN01 + ["--probes", "-1"], "--probes"),
    (MARGIN_SMALL + ["--epsilon", "2"], "--epsilon"),
    (MARGIN_SMALL + ["--epsilon", "nan"], "--epsilon"),
    (MARGIN_SMALL + ["--probes", "-1"], "--probes"),
    (["scenario", "two_point", "--gap", "0"], "--gap"),
    (["scenario", "two_point", "--gap", "nan"], "--gap"),
    (["scenario", "two_point", "--r", "-1"], "--r"),
    (["scenario", "two_rectangles", "--epsilon", "1"], "--epsilon"),
    (["scenario", "two_rectangles", "--mc", "0"], "--mc"),
    (["render", "--nn1-data", "{labels01}", "--data", "{labels01}", "--ambient", "-5"],
     "--ambient"),
    (["render", "--nn1-data", "{dim3}", "--data", "{dim3}"], "--data {dim3}"),
    (["render", "--nn1-data", "{dim3}", "--data", "{labels01}"], "--nn1-data {dim3}"),
    (["render", "--model-file", "{model3}", "--data", "{labels01}"], "--model-file {model3}"),
    (["train", "--data", "{dim3}", "--test", "{labels01}", "--model", "mlp"],
     "{dim3} {labels01}"),
    (["train", "--data", "{labels01}", "--test", "{dim3}", "--model", "nn1"],
     "{dim3} {labels01}"),
    (["generate", "--n", "10"], "--shape"),
    (["scenario", "--mc", "10"], "NAME"),
    (["augment", "--data", "{neglabel}", "--c", "0.5"], "{neglabel} row 2"),
    (["augment", "--data", "{origin_text}", "--c", "0.5"], "{origin_text} row 2 'abc'"),
    (TRAIN01[:4] + ["{origin_fraction}"], "{origin_fraction} row 2 '-7.5'"),
    (["render", "--model-file", "{model_noheader}", "--data", "{labels01}"], "{model_noheader}"),
    (["render", "--model-file", "{model_short}", "--data", "{labels01}"], "{model_short}"),
    (["render", "--model-file", "{model_sizes}", "--data", "{labels01}"], "{model_sizes}"),
    (["render", "--model-file", "{model_param}", "--data", "{labels01}"], "{model_param}"),
    (["generate", "--shape", "circles", "--config", "{binary}"], "{binary}"),
    (["generate", "--config", "{twice}"], "{twice} 'n'"),
    (["augment", "--data", "{binary}", "--c", "0.5"], "{binary}"),
    (["render", "--model-file", "{binary}", "--data", "{labels01}"], "{binary}"),
    (["generate", "--shape", "circles", "--n", "10", "--seed", "-1"], "--seed"),
    (AUGMENT01 + ["--c", "0.5", "--seed", "-1"], "--seed"),
    (TRAIN01 + ["--model", "nn1", "--seed", "-1"], "--seed"),
    (MARGIN_SMALL + ["--seed", "-1"], "--seed"),
    (["scenario", "two_point", "--seed", "-1"], "--seed"),
    (["render", "--nn1-data", "{labels01}", "--data", "{labels01}", "--seed", "-1"], "--seed"),
    (SWEEP_SMALL + ["--base-seed", "-1"], "--base-seed"),
    (["sweep", "--shapes", ","], "--shapes"),
    (["sweep", "--shapes", ""], "--shapes"),
    (SWEEP_SMALL[:-1] + ["0.1,0.1"], "--fixed-radii fixed0.1"),
    (SWEEP_SMALL[:-1] + ["0.1000001,0.1"], "--fixed-radii fixed0.1"),
    (["sweep", "--shapes", "circles,boxes,circles"] + SWEEP_SMALL[3:], "--shapes 'circles'"),
    (["margin", "--data", "{overflow}"], "{overflow} overflow"),
    (["augment", "--data", "{overflow}", "--c", "0.5"], "{overflow} overflow"),
    (["train", "--data", "{overflow}", "--test", "{labels01}", "--model", "nn1"],
     "{overflow} overflow"),
    # the checks pass; the work itself overflows, before the run directory is made
    (AUGMENT01 + ["--c", "1e308"], "c 1e+308: overflow"),
    (SWEEP_SMALL + ["--c", "1e308"], "c 1e+308: overflow"),
    (SWEEP_SMALL[:-1] + ["1e308"], "fixed_radius 1e+308: overflow"),
    (["augment", "--data", "{two}", "--c", "1e308"], "c 1e+308: squared distances overflow"),
    # an option the run would not use is an error, not silently echoed
    (TRAIN01 + ["--model", "nn1", "--epochs", "7", "--lr", "9", "--batch", "3"],
     "--epochs, --lr, --batch: --model nn1"),
    (TRAIN01 + ["--model", "nn1", "--lr", "0.05"], "--lr: --model nn1"),
    (TRAIN01 + ["--model", "nn1", "--config", "{nn1_epochs}"], "--epochs: --model nn1"),
    (SWEEP_SMALL + ["--no-render", "--ambient", "500"], "--ambient: --no-render"),
    (SWEEP_SMALL + ["--no-render", "--config", "{ambient}"], "--ambient: --no-render"),
    (["scenario", "four_point", "--gap", "9", "--epsilon", "0.3", "--mc", "5"],
     "--epsilon, --gap, --mc: scenario four_point"),
    (["scenario", "four_point", "--r", "0.2"], "--r: scenario four_point"),
    (["scenario", "two_point", "--mc", "5"], "--mc: scenario two_point"),
    (["scenario", "two_rectangles", "--config", "{gap}"], "--gap: scenario two_rectangles"),
    # each set keeps the overflow rule alone, but not next to the other
    (["train", "--data", "{labels01}", "--test", "{far}", "--model", "nn1"],
     "--data {labels01} --test {far}: too far apart"),
    (["render", "--nn1-data", "{far}", "--data", "{labels01}"],
     "--nn1-data {far} --data {labels01}: too far apart"),
    # every probe lies ~1e300 away: all its distances would be inf, and all tie
    (["train", "--data", "{square}", "--test", "{square}", "--model", "nn1", "--r", "1e300"],
     "--data {square} --test {square}: r 1e+300: overflow"),
    # the set keeps the overflow rule (its extent is 0), but training diverges
    (["train", "--data", "{far}", "--test", "{far}", "--epochs", "5"],
     "--data {far}: diverged not finite"),
    # the figure has colors for labels 0 and 1 only
    (["render", "--nn1-data", "{labels012}", "--data", "{labels012}"], "--data {labels012} 0/1"),
    (["render", "--nn1-data", "{labels012}", "--data", "{labels01}"],
     "--nn1-data {labels012} 0/1"),
    (["render", "--model-file", "{model2}", "--data", "{label5}"], "--data {label5} 0/1"),
], ids=["margin-labels", "train-mlp-labels", "margin-grid", "margin-grid-order",
        "margin-grid-repeated", "margin-grid-inf",
        "sweep-shapes", "sweep-radii", "sweep-radii-inf", "malformed-csv", "train-nn1-one-class",
        "train-mlp-one-class", "train-epochs", "train-batch", "train-lr", "sweep-epochs",
        "sweep-batch", "sweep-lr", "sweep-n", "sweep-n-2", "sweep-n-3", "generate-n", "margin-n",
        "generate-label-noise-high", "generate-label-noise-negative", "sweep-seeds",
        "train-r-inf", "train-r-nan", "train-r-negative", "augment-m", "augment-c",
        "augment-fixed-radius-negative", "augment-fixed-radius-nan", "sweep-m", "sweep-c",
        "sweep-probes", "sweep-ambient", "train-probes", "margin-epsilon-high",
        "margin-epsilon-nan", "margin-probes", "scenario-gap-zero", "scenario-gap-nan",
        "scenario-r-negative", "scenario-rectangles-epsilon", "scenario-mc", "render-ambient",
        "render-data-3d", "render-nn1-data-dim", "render-model-file-dim", "train-mlp-dim",
        "train-nn1-dim", "generate-missing-shape", "scenario-missing-name", "negative-label",
        "origin-not-integer", "origin-fraction",
        "model-file-no-header", "model-file-short", "model-file-sizes", "model-file-param",
        "config-not-utf8", "config-repeated-key", "data-not-utf8", "model-file-not-utf8",
        "generate-seed", "augment-seed", "train-seed", "margin-seed", "scenario-seed",
        "render-seed", "sweep-base-seed", "sweep-shapes-comma", "sweep-shapes-empty",
        "sweep-radii-repeated", "sweep-radii-same-name", "sweep-shapes-repeated",
        "margin-overflow", "augment-overflow", "train-nn1-overflow", "augment-c-overflow",
        "sweep-c-overflow", "sweep-fixed-radii-overflow", "augment-c-radii-overflow",
        "train-nn1-training-options",
        "train-nn1-default-lr", "train-nn1-config-epochs", "sweep-no-render-ambient",
        "sweep-no-render-config-ambient", "scenario-four-point-options", "scenario-four-point-r",
        "scenario-two-point-mc", "scenario-two-rectangles-config-gap", "train-far-test",
        "render-far-nn1-data", "train-r-overflow", "train-mlp-diverges", "render-labels-012",
        "render-nn1-data-labels-012", "render-model-file-label-5"])
def test_bad_input_stops_with_one_line_error(tmp_path, bad_csvs, args, names):
    args = [a.format(**bad_csvs) for a in args]
    res = runner.invoke(main, args + ["--out", str(tmp_path / "out"), "--name", "bad"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ")
    # every space-separated fragment of `names` appears in the error
    assert all(n in lines[0] for n in names.format(**bad_csvs).split())
    assert not (tmp_path / "out").exists()


def test_a_library_value_error_is_one_line_and_any_other_error_a_traceback(tmp_path,
                                                                          monkeypatch):
    # `command` is the one place a library ValueError becomes a CLI error
    def fail(spec, error=ValueError):
        raise error("n 7: no good")

    args = ["generate", "--shape", "circles", "--out", str(tmp_path / "out")]
    monkeypatch.setattr(datagen, "generate", fail)
    res = runner.invoke(main, args)
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
    assert res.output == "Error: n 7: no good\n"
    monkeypatch.setattr(datagen, "generate", lambda spec: fail(spec, RuntimeError))
    res = runner.invoke(main, args)
    assert isinstance(res.exception, RuntimeError) and res.output == ""


@pytest.mark.parametrize("args, flag", [
    (["train", "--data", "{dir}", "--test", "{labels01}"], "--data"),
    (["train", "--data", "{labels01}", "--test", "{dir}"], "--test"),
    (["generate", "--shape", "circles", "--config", "{dir}"], "--config"),
    (["render", "--model-file", "{dir}", "--data", "{labels01}"], "--model-file"),
    (["render", "--nn1-data", "{dir}", "--data", "{labels01}"], "--nn1-data"),
], ids=["data", "test", "config", "model-file", "nn1-data"])
def test_directory_for_a_file_option_is_a_usage_error(tmp_path, bad_csvs, args, flag):
    args = [a.format(dir=tmp_path, **bad_csvs) for a in args]
    res = runner.invoke(main, args + ["--out", str(tmp_path / "out"), "--name", "bad"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    want = f"Error: Invalid value for '{flag}': File '{tmp_path}' is a directory."
    assert res.output.strip().splitlines()[-1] == want
    assert not (tmp_path / "out").exists()


# --- every subcommand through the one skeleton ----------------------------------------

RERUN = {
    "generate": ["generate", "--shape", "sines", "--n", "200", "--seed", "3"],
    "augment": ["augment", "--data", "{data}", "--c", "0.5", "--m", "2", "--seed", "5"],
    "train": ["train", "--data", "{train}", "--test", "{test}", "--epochs", "2",
              "--probes", "5"],
    "margin": ["margin", "--data", "{train}", "--n", "30", "--probes", "5"],
    "scenario": ["scenario", "two_rectangles", "--mc", "2000", "--seed", "1"],
    "render": ["render", "--nn1-data", "{train}", "--data", "{train}", "--ambient", "100",
               "--seed", "5"],
    "sweep": ["sweep", "--shapes", "boxes", "--n", "40", "--m", "2", "--seeds", "1",
              "--epochs", "2", "--fixed-radii", "0.1", "--probes", "5", "--ambient", "20"],
}


@pytest.mark.parametrize("command", RERUN)
def test_every_command_reruns_to_identical_bytes(tmp_path, dataset_csv, split_csvs, command):
    tr, te = split_csvs
    args = [a.format(data=dataset_csv, train=tr, test=te) for a in RERUN[command]]
    outputs = []
    for root in ("one", "two"):
        run_ok(args + ["--out", str(tmp_path / root), "--name", "run"])
        run = tmp_path / root / "run"
        outputs.append({str(f.relative_to(run)): f.read_bytes()
                        for f in run.rglob("*") if f.is_file()})
    assert "config.echo" in outputs[0] and len(outputs[0]) >= 2
    assert outputs[0] == outputs[1]


def tree(root):
    return sorted((str(p.relative_to(root)), p.is_dir()) for p in root.rglob("*"))


@pytest.mark.parametrize("command", RERUN)
def test_out_or_name_through_a_file_is_a_one_line_error(tmp_path, dataset_csv, split_csvs,
                                                        command):
    tr, te = split_csvs
    args = [a.format(data=dataset_csv, train=tr, test=te) for a in RERUN[command]]
    afile = tmp_path / "afile"
    afile.write_text("keep\n", encoding="utf-8")
    before = tree(tmp_path)
    for out, name in [(afile, "run"), (afile / "sub", "run"), (tmp_path, "afile")]:
        res = runner.invoke(main, args + ["--out", str(out), "--name", name])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: --out ") and str(afile) in lines[0]
    assert tree(tmp_path) == before and afile.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("command", RERUN)
def test_name_must_be_one_directory_name(tmp_path, dataset_csv, split_csvs, command):
    tr, te = split_csvs
    args = [a.format(data=dataset_csv, train=tr, test=te) for a in RERUN[command]]
    out = tmp_path / "o2" / "inner"
    before = tree(tmp_path)
    for name in ["", ".", "..", "../../escaped", "a/b", "a/", str(tmp_path / "abs")]:
        res = runner.invoke(main, args + ["--out", str(out), "--name", name])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: --name "), (name, lines)
        assert tree(tmp_path) == before, name


def out_of_range_cases():
    """(command, flag, value) for every numeric option: -1 for an integer, NaN
    and -inf for a float. No option accepts any of them."""
    for name, command in main.commands.items():
        for opt in command.params:
            if not isinstance(opt, click.Option):
                continue
            if isinstance(opt.type, click.types.IntParamType):
                values = ["-1"]
            elif isinstance(opt.type, click.types.FloatParamType):
                values = ["nan", "-inf"]
            else:
                continue
            for value in values:
                yield pytest.param(name, opt.opts[0], value, id=f"{name} {opt.opts[0]} {value}")


@pytest.mark.parametrize("command,flag,value", list(out_of_range_cases()))
def test_every_numeric_option_rejects_an_out_of_range_value(tmp_path, dataset_csv, split_csvs,
                                                            command, flag, value):
    tr, te = split_csvs
    base = RERUN[command]
    if (command, flag) == ("augment", "--fixed-radius"):
        # drop --c so the range check fires, not the one-radius-rule check
        i = base.index("--c")
        base = base[:i] + base[i + 2:]
    args = [a.format(data=dataset_csv, train=tr, test=te) for a in base]
    res = runner.invoke(main, args + [flag, value, "--out", str(tmp_path / "root"),
                                      "--name", "run"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), lines
    assert f"{flag} {value}" in lines[0] and "must lie in" in lines[0], lines
    assert not (tmp_path / "root").exists()


@pytest.mark.parametrize("out", ["lo", "lo/deeper/still", "keep/lo"])
def test_a_run_directory_that_cannot_be_made_leaves_nothing_behind(tmp_path, out):
    (tmp_path / "keep").mkdir()
    before = tree(tmp_path)
    res = runner.invoke(main, ["generate", "--shape", "circles", "--n", "10",
                               "--out", str(tmp_path / out), "--name", "x" * 300])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: --out ") and "--name" in lines[0]
    assert tree(tmp_path) == before


def test_benchmark_style_run_names_stay_valid(tmp_path):
    for name in ("margin-0", "margin-17", "run.v2", "..hidden"):
        run_ok(["generate", "--shape", "boxes", "--n", "10", "--out", str(tmp_path),
                "--name", name])
        assert (tmp_path / name / "data" / "dataset.csv").exists()


def test_scenario_and_render_read_config(tmp_path, split_csvs):
    tr, _ = split_csvs
    out = ["--out", str(tmp_path / "out")]
    cfg = tmp_path / "s.cfg"
    cfg.write_text("gap=2.0\nr=1.0\n", encoding="utf-8")
    res = run_ok(["scenario", "two_point", "--config", str(cfg), "--name", "file"] + out)
    assert "best_robust_loss = 0.0" in res.output  # r < gap: the threshold stays robust
    res = run_ok(["scenario", "two_point", "--config", str(cfg), "--r", "3", "--name", "flag"]
                 + out)
    assert "best_robust_loss = 0.5" in res.output  # r > gap: a constant is robust-optimal
    echo = (tmp_path / "out" / "flag" / "config.echo").read_text().splitlines()
    assert {"gap=2.0", "r=3.0", "scenario=two_point"} <= set(echo)

    cfg.write_text("ambient=0\nseed=3\n", encoding="utf-8")
    base = ["render", "--nn1-data", str(tr), "--data", str(tr), "--config", str(cfg)] + out
    run_ok(base + ["--name", "rfile"])
    svg = (tmp_path / "out" / "rfile" / "figs" / "regions.svg").read_text()
    assert "ambient=0 seed=3" in svg and 'r="2"' not in svg
    run_ok(base + ["--ambient", "10", "--name", "rflag"])
    svg = (tmp_path / "out" / "rflag" / "figs" / "regions.svg").read_text()
    assert "ambient=10 seed=3" in svg and svg.count('r="2"') == 10
    assert "ambient=10" in (tmp_path / "out" / "rflag" / "config.echo").read_text()

    for args in (["scenario", "two_point"], base[:5]):
        cfg.write_text("seed=1\nradius=2\n", encoding="utf-8")
        res = runner.invoke(main, args + ["--config", str(cfg), "--name", "typo"] + out)
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ") and "'radius'" in lines[0]
        assert not (tmp_path / "out" / "typo").exists()


# --- margin ----------------------------------------------------------------------

def test_margin_command_on_shape(tmp_path):
    run_ok(["margin", "--shape", "circles", "--n", "400", "--probes", "20",
            "--grid", "0.02,0.05,0.3", "--epsilon", "0.05",
            "--out", str(tmp_path), "--name", "m"])
    prof = (tmp_path / "m" / "reports" / "margin.csv").read_text().splitlines()
    assert prof[0] == "r,phi_hat" and len(prof) == 4
    summary = (tmp_path / "m" / "reports" / "margin_summary.txt").read_text()
    assert "r_star=0.05" in summary
    assert "nn_sample_bound=" in summary and "undefined" not in summary


def test_margin_sample_bound_in_high_dimension_is_inf(tmp_path):
    data = tmp_path / "d400.csv"
    pts = np.random.default_rng(0).random((40, 400))
    write_text_lines(data, datagen.csv_lines(LabeledDataset(pts, np.array([0, 1] * 20))))
    res = run_ok(["margin", "--data", str(data), "--n", "5", "--probes", "2",
                  "--out", str(tmp_path), "--name", "m400"])
    assert "nn_sample_bound=inf" in res.output.splitlines()


def test_margin_single_radius_grid(tmp_path):
    run_ok(["margin", "--shape", "boxes", "--n", "100", "--probes", "10",
            "--grid", "0.05", "--out", str(tmp_path), "--name", "m1"])
    prof = (tmp_path / "m1" / "reports" / "margin.csv").read_text().splitlines()
    assert len(prof) == 2


def test_margin_epsilon_one_selects_last_radius(tmp_path, dataset_csv):
    run_ok(["margin", "--data", str(dataset_csv), "--n", "200", "--probes", "10",
            "--grid", "0.1,0.2,0.5", "--epsilon", "1.0",
            "--out", str(tmp_path), "--name", "m2"])
    summary = (tmp_path / "m2" / "reports" / "margin_summary.txt").read_text()
    assert "r_star=0.5" in summary


def test_margin_requires_shape_xor_data(tmp_path):
    res = runner.invoke(main, ["margin", "--out", str(tmp_path)])
    assert res.exit_code != 0 and "exactly one" in res.output


# --- scenario ---------------------------------------------------------------------

def test_scenario_two_point_output(tmp_path):
    res = run_ok(["scenario", "two_point", "--gap", "0.5", "--r", "1.0",
                  "--out", str(tmp_path), "--name", "s"])
    assert "best_robust_loss = 0.5" in res.output
    assert "binary_optimal_robust_loss = 1.0" in res.output
    assert "disagreement_mass = 0.5" in res.output
    assert (tmp_path / "s" / "reports" / "scenario_two_point.csv").exists()
    assert (tmp_path / "s" / "reports" / "scenario_two_point.txt").exists()


def test_scenario_four_point_output(tmp_path):
    res = run_ok(["scenario", "four_point", "--out", str(tmp_path), "--name", "s4"])
    assert "threshold_robust_loss_r=0.1 = 0.0" in res.output
    assert "best_robust_loss_r=0.1 = 0.0" in res.output


def test_scenario_two_rectangles_output(tmp_path):
    res = run_ok(["scenario", "two_rectangles", "--epsilon", "0.2", "--mc", "20000",
                  "--out", str(tmp_path), "--name", "sr"])
    value = float([ln for ln in res.output.splitlines()
                   if ln.startswith("disagreement_mass")][0].split("=")[1].split("(")[0])
    assert abs(value - 0.5) < 0.02


SCENARIO_READS = {"two_point": {"--gap", "--r"}, "four_point": set(),
                  "two_rectangles": {"--epsilon", "--mc", "--seed"}}


@pytest.mark.parametrize("name", SCENARIO_READS)
def test_scenario_takes_exactly_the_options_its_construction_reads(tmp_path, name):
    # another valid value changes the report of an option the construction
    # reads and is refused for any other option
    base = ["scenario", name, "--out", str(tmp_path / name)]
    if name == "two_rectangles":
        base += ["--mc", "2000"]

    def reports(run):
        return [(tmp_path / name / run / "reports" / f"scenario_{name}.{ext}").read_bytes()
                for ext in ("txt", "csv")]

    run_ok(base + ["--name", "base"])
    for flag, value in [("--epsilon", "0.3"), ("--gap", "0.7"), ("--r", "0.3"), ("--mc", "3000"),
                        ("--seed", "1")]:
        res = runner.invoke(main, base + [flag, value, "--name", flag[2:]])
        if flag in SCENARIO_READS[name]:
            assert res.exit_code == 0, res.output
            assert reports(flag[2:]) != reports("base"), flag
        else:
            assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
            assert res.output == f"Error: {flag}: not used by scenario {name}\n"
            assert not (tmp_path / name / flag[2:]).exists()


def test_scenario_unknown_name_lists_options(tmp_path):
    res = runner.invoke(main, ["scenario", "five_point", "--out", str(tmp_path)])
    assert res.exit_code != 0
    assert "two_point" in res.output and "two_rectangles" in res.output


# --- render -----------------------------------------------------------------------

def test_render_svg_colors(split_csvs, tmp_path):
    tr, te = split_csvs
    run_ok(["train", "--data", str(tr), "--test", str(te), "--model", "mlp",
            "--epochs", "3", "--out", str(tmp_path), "--name", "tr"])
    run_ok(["render", "--model-file", str(tmp_path / "tr" / "models" / "model.txt"),
            "--data", str(tr), "--ambient", "500", "--out", str(tmp_path), "--name", "r"])
    svg = (tmp_path / "r" / "figs" / "regions.svg").read_text()
    colors = {c for c in ("#9467bd", "#d62728", "#1f77b4", "#2ca02c") if c in svg}
    assert len(colors) == 4
    assert svg.startswith("<svg")


def test_render_zero_ambient_points_only_training(split_csvs, tmp_path):
    tr, _ = split_csvs
    run_ok(["render", "--nn1-data", str(tr), "--data", str(tr), "--ambient", "0",
            "--out", str(tmp_path), "--name", "r0"])
    svg = (tmp_path / "r0" / "figs" / "regions.svg").read_text()
    assert 'r="2"' not in svg   # no ambient dots
    assert 'r="3"' in svg       # training dots present


def test_render_rejects_non_2d():
    ds = LabeledDataset(np.random.default_rng(1).random((10, 3)),
                        np.array([0, 1] * 5))
    with pytest.raises(ValueError, match="2-D"):
        render_regions_svg(NnClassifier(ds), ds, 10, RandomStream(0), "note")


def test_full_pipeline_reports_reproduce(tmp_path):
    def pipeline(root):
        run_ok(["generate", "--shape", "nnn", "--n", "120", "--seed", "2",
                "--out", str(root), "--name", "d"])
        data = root / "d" / "data" / "dataset.csv"
        run_ok(["augment", "--data", str(data), "--c", "0.5", "--m", "2",
                "--seed", "3", "--out", str(root), "--name", "a"])
        aug = root / "a" / "data" / "augmented.csv"
        run_ok(["train", "--data", str(aug), "--test", str(data), "--model", "mlp",
                "--epochs", "3", "--seed", "4", "--out", str(root), "--name", "t"])
        return (root / "t" / "reports" / "losses.csv").read_bytes()

    assert pipeline(tmp_path / "run1") == pipeline(tmp_path / "run2")


# --- sweep -------------------------------------------------------------------------

def test_sweep_table_structure(tmp_path):
    run_ok(["sweep", "--shapes", "circles", "--n", "60", "--m", "2", "--seeds", "1",
            "--epochs", "3", "--fixed-radii", "0.1,0.5", "--probes", "10",
            "--ambient", "50", "--out", str(tmp_path), "--name", "sw"])
    table = (tmp_path / "sw" / "reports" / "sweep_table.csv").read_text().splitlines()
    assert table[0] == ("shape,none_binary,none_adaptive,fixed0.1_binary,fixed0.1_adaptive,"
                        "fixed0.5_binary,fixed0.5_adaptive,adaptive_binary,adaptive_adaptive")
    assert len(table) == 2 and table[1].startswith("circles,")
    cells = (tmp_path / "sw" / "reports" / "sweep_cells.csv").read_text().splitlines()
    assert len(cells) == 1 + 4 * 6  # header + 4 variants x (binary + 4 grid radii + adaptive)
    figs = sorted(p.name for p in (tmp_path / "sw" / "figs").glob("*.svg"))
    assert figs == ["circles_adaptive_s0.svg", "circles_fixed0.1_s0.svg",
                    "circles_fixed0.5_s0.svg", "circles_none_s0.svg"]


def test_run_sweep_rejects_a_repeated_shape():
    # cells, table rows and figure names are keyed by shape
    with pytest.raises(ValueError, match="shape 'circles' is repeated"):
        run_sweep(["circles", "boxes", "circles"], n=40, m=1, c=0.5, fixed_radii=[0.1],
                  n_seeds=1, base_seed=0, epochs=1, lr=0.3, batch=8, probes=2)
