"""Command-line harness for reproducible experiments.

Every subcommand is a pure function of its resolved configuration and input
files. All seven share one skeleton, `command`: it adds --out, --name and
--config, merges defaults < config file < explicit flags into one dict keyed
by parameter name (the long flag without dashes), and hands it to the command
body, which writes nothing: it returns its files and the lines to print.
`command` turns a ValueError (the library's bad-input signal) into a one-line
error, and makes the run directory and writes the files only after the body
returns, so a failed run leaves nothing behind; a generator (`sweep`'s figures)
is drawn as it is written and must not fail. Seeds are explicit and no output
file embeds timestamps, so reruns with equal configs reproduce equal bytes.

Run layout: <out>/<run-name>/{config.echo, data/*.csv, models/*, reports/*.csv,
figs/*.svg}. The output root comes from --out, else $ADAPTROBUST_OUT, else ./out.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import datagen, losses, margin, mlp, scenarios
from .augment import ExpansionSpec, augment as augment_data
from .core import LabeledDataset, RandomStream, check_range, radius_grid, read_text_lines, write_text_lines
from .neighbors import NnClassifier

FULL_FIXED_RADII = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
EVAL_RADII = (0.02, 0.05, 0.1, 0.2)
_FILE = click.Path(exists=True, dir_okay=False)  # input files: a directory is rejected
_GIVEN = "adaptrobust.given"  # context meta key: option names the user gave


# ---------------------------------------------------------------------------
# Config plumbing


def _parse_config_file(path: str) -> dict[str, str]:
    vals: dict[str, str] = {}
    for ln in read_text_lines(path):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise click.ClickException(f"{path}: expected key=value, got {ln!r}")
        k, v = (s.strip() for s in ln.split("=", 1))
        if k in vals:
            raise click.ClickException(f"{path}: key {k!r} is given twice")
        vals[k] = v
    return vals


def resolve_config(ctx: click.Context) -> dict:
    """Merge defaults < config file < explicit command-line flags, keyed by
    parameter name (`r` for --r, `include_originals` for --originals). File
    values go through the option's click type; unknown keys or bad values stop
    the command with a one-line error. The names given on the command line or
    in the file are kept for `_refuse_unused`."""
    params = {p.name: p for p in ctx.command.params if p.name != "config"}
    path = ctx.params["config"]
    file_vals = _parse_config_file(path) if path else {}
    for key in file_vals:
        if key not in params:
            raise click.ClickException(
                f"{path}: unknown key {key!r} (known: {', '.join(sorted(params))})")
    cfg = {}
    for key, p in params.items():
        value = ctx.params[key]
        if key in file_vals and ctx.get_parameter_source(key) != ParameterSource.COMMANDLINE:
            try:
                value = p.type.convert(file_vals[key], p, ctx)
            except click.BadParameter as exc:
                raise click.ClickException(
                    f"{path}: bad value for {key!r}: {exc.message}") from None
        cfg[key] = value
    ctx.meta[_GIVEN] = {key for key in params if key in file_vals
                        or ctx.get_parameter_source(key) == ParameterSource.COMMANDLINE}
    return cfg


def _refuse_unused(keys, reason: str) -> None:
    """A one-line error naming each option of `keys` that was given on the
    command line or in --config although `reason` leaves it unused."""
    given = [f"--{k.replace('_', '-')}" for k in keys
             if k in click.get_current_context().meta[_GIVEN]]
    if given:
        raise click.ClickException(f"{', '.join(given)}: not used {reason}")


def _parse_radii(text, option: str) -> list[float]:
    """Comma-separated finite nonnegative radii, or a one-line error naming the option."""
    try:
        radii = [float(v) for v in str(text).split(",")]
        check_range(option, radii, "[0, inf)")
    except ValueError:
        raise click.ClickException(
            f"{option} {text!r}: expected comma-separated finite nonnegative numbers") from None
    return radii


def _check(cfg: dict, **intervals: str) -> None:
    """`check_range` on each cfg[key] under its flag name; None (unset) passes."""
    for key, interval in intervals.items():
        if cfg[key] is not None:
            check_range(f"--{key.replace('_', '-')}", cfg[key], interval)


# Options shared by `train` and `sweep`.
_TRAINING = dict(epochs="[0, inf)", batch="[1, inf)", lr="(0, inf)", probes="[0, inf)")


def _check_union(a: LabeledDataset, b: LabeledDataset, names: str) -> None:
    """`LabeledDataset`'s overflow rule on the union of two loaded sets, which
    can break it although each set keeps it; the error names both inputs."""
    try:
        LabeledDataset(np.concatenate([a.points, b.points]), np.concatenate([a.labels, b.labels]))
    except ValueError as exc:
        raise click.ClickException(f"{names}: {exc}") from None


def _load_drawable(path: str, option: str) -> LabeledDataset:
    """The dataset CSV given as `option`, as `render_regions_svg` draws it: 2-D
    points with labels 0 and 1, the labels it has colors for."""
    ds = datagen.load_csv(path)
    if ds.dim != 2:
        raise click.ClickException(f"{option} {path}: rendering needs 2-D points, got {ds.dim}-D")
    labels = ds.classes().tolist()
    if not set(labels) <= {0, 1}:
        raise click.ClickException(f"{option} {path}: rendering needs labels 0/1, got {labels}")
    return ds


def _run_dir(run: Path) -> None:
    """Make the run directory and its subdirectories. A run path mkdir fails on
    is an error, and a failed call removes the directories it made."""
    made, subs = [], [run / sub for sub in ("data", "models", "reports", "figs")]
    try:
        for path in [*reversed(run.parents), run, *subs]:
            if not path.is_dir():
                path.mkdir()
                made.append(path)
    except (OSError, ValueError) as exc:
        for path in reversed(made):
            path.rmdir()
        raise click.ClickException(f"--out {run.parent} --name {run.name}: "
                                   f"cannot make the run directory ({exc})") from None


def _report_lines(reports: list[losses.LossReport]) -> list[str]:
    return [losses.REPORT_CSV_HEADER] + [r.csv_row() for r in reports]


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled so output bytes are fully deterministic)

REGION_COLORS = {0: "#9467bd", 1: "#d62728"}  # purple / red
POINT_COLORS = {0: "#1f77b4", 1: "#2ca02c"}   # blue / green


def render_regions_svg(classifier, train: LabeledDataset, ambient_n: int,
                       stream: RandomStream, config_note: str) -> list[str]:
    """The lines of a decision-region picture: ambient points colored by
    predicted label, training points overlaid by class. 2-D data only."""
    size = 480  # pixels per side
    if train.dim != 2:
        raise ValueError("decision-region rendering requires 2-D data")
    lo = train.points.min(axis=0)
    hi = train.points.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)

    def to_px(p):
        x = (p[0] - lo[0]) / span[0] * (size - 20) + 10
        y = size - ((p[1] - lo[1]) / span[1] * (size - 20) + 10)
        return f"{x:.2f}", f"{y:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<desc>decision regions | ambient={ambient_n} | "
        f"region colors: 0={REGION_COLORS[0]} 1={REGION_COLORS[1]} | "
        f"data colors: 0={POINT_COLORS[0]} 1={POINT_COLORS[1]} | {config_note}</desc>",
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    if ambient_n > 0:
        ambient = lo + stream.uniform((ambient_n, 2)) * (hi - lo)
        preds = classifier.predict_batch(ambient)
        for p, lab in zip(ambient, preds):
            x, y = to_px(p)
            parts.append(f'<circle cx="{x}" cy="{y}" r="2" fill="{REGION_COLORS[int(lab)]}"/>')
    for i in range(train.n):
        x, y = to_px(train.points[i])
        parts.append(
            f'<circle cx="{x}" cy="{y}" r="3" fill="{POINT_COLORS[int(train.labels[i])]}" '
            f'stroke="#000000" stroke-width="0.5"/>'
        )
    parts.append("</svg>")
    return parts


# ---------------------------------------------------------------------------
# Sweep driver (library form so tests can consume structured results)


@dataclass(frozen=True)
class SweepCell:
    shape: str
    variant: str
    seed_index: int
    binary: losses.LossReport
    fixed_grid: tuple
    adaptive: losses.LossReport
    model: mlp.MlpModel
    fitted: LabeledDataset  # the set the model was trained on
    figure_seed: int  # seeds the ambient points of the cell's figure


@dataclass(frozen=True)
class SweepResult:
    cells: tuple
    table: dict  # (shape, variant) -> {"binary": mean, "adaptive": mean}, shape-major


def _augmentation_variants(c: float, fixed_radii) -> list[tuple[str, dict | None]]:
    """Cells and table columns are keyed by variant name, so two fixed radii
    with one name raise ValueError."""
    variants: list[tuple[str, dict | None]] = [("none", None)]
    variants += [(f"fixed{r:g}", {"fixed_radius": float(r)}) for r in fixed_radii]
    variants.append(("adaptive", {"c": float(c)}))
    if len({v for v, _ in variants}) < len(variants):
        raise ValueError(f"two fixed radii share a variant name in {[v for v, _ in variants]}")
    return variants


def _evaluate(h, test: LabeledDataset, ref: LabeledDataset, radii, probes: int,
              stream: RandomStream) -> list[losses.LossReport]:
    """The scoring protocol of `train` and `sweep`: binary loss, fixed-radius
    robust loss at each radius, and the test-time adaptive loss."""
    return [
        losses.binary_loss(h, test),
        *losses.robust_loss_fixed_grid(h, test, radii, probes=probes, stream=stream.child(0)),
        losses.adaptive_robust_testtime(h, test, ref=ref, factor=0.5, probes=10,
                                        stream=stream.child(1)),
    ]


def _check_shapes(shapes) -> None:
    """Cells and table rows are keyed by shape name, so a repeated shape raises
    ValueError, as do no shape and an unknown one."""
    if not shapes:
        raise ValueError("expected at least one shape")
    unknown = [s for s in shapes if s not in datagen.SHAPE_NAMES]
    if unknown:
        raise ValueError(f"unknown shape {unknown[0]!r}; "
                         f"expected some of {', '.join(datagen.SHAPE_NAMES)}")
    repeated = [s for i, s in enumerate(shapes) if s in shapes[:i]]
    if repeated:
        raise ValueError(f"shape {repeated[0]!r} is repeated")


def run_sweep(shapes, n: int, m: int, c: float, fixed_radii, n_seeds: int,
              base_seed: int, epochs: int, lr: float, batch: int,
              probes: int) -> SweepResult:
    """Train one network per (shape, augmentation, seed) cell on the augmented
    training split and evaluate binary, fixed-radius robust (shared-probe grid)
    and test-time adaptive robust losses on the held-out split; writes nothing.

    Three phases: plan every cell (data, augmentation, init, training seed),
    train the cells that share a training-set size as one `mlp.train` stack,
    then evaluate the cells in plan order. Every draw is keyed by its cell,
    so the bytes are those of training and scoring each cell alone."""
    _check_shapes(shapes)
    variants = _augmentation_variants(c, fixed_radii)
    root = RandomStream(base_seed)
    plan, models = [], []  # per cell: (shape, variant, seed index, test, train, fitted, stream)
    groups: dict[int, list[int]] = {}  # training-set size -> its cells' plan indexes
    for si, shape in enumerate(shapes):
        for k in range(n_seeds):
            data_seed = root.child(si, k, 0).derive_seed()
            ds = datagen.generate(datagen.ShapeSpec(shape=shape, n=n, seed=data_seed))
            train_ds, test_ds = datagen.split(
                ds, datagen.SplitSpec(0.8, seed=root.child(si, k, 1).derive_seed())
            )
            for vi, (vname, vspec) in enumerate(variants):
                cell_stream = root.child(si, k, 2 + vi)
                fitted = train_ds
                if vspec is not None:
                    fitted, _ = augment_data(train_ds, ExpansionSpec(
                        m=m, include_originals=True, seed=cell_stream.child(0).derive_seed(),
                        **vspec))
                groups.setdefault(fitted.n, []).append(len(plan))
                plan.append((shape, vname, k, test_ds, train_ds, fitted, cell_stream))
                models.append(mlp.init(train_ds.dim, seed=cell_stream.child(1).derive_seed()))
    for group in groups.values():
        sets = [plan[i][5] for i in group]
        trained = mlp.train(
            tuple(models[i] for i in group),
            LabeledDataset(np.concatenate([f.points for f in sets]),
                           np.concatenate([f.labels for f in sets])),
            mlp.TrainSpec(epochs=epochs, batch_size=batch, learning_rate=lr,
                          seed=tuple(plan[i][6].child(2).derive_seed() for i in group)))
        for i, model in zip(group, trained):
            models[i] = model
    cells = []
    for (shape, vname, k, test_ds, train_ds, fitted, cell_stream), model in zip(plan, models):
        rep_bin, *rep_grid, rep_adp = _evaluate(
            mlp.MlpClassifier(model), test_ds, train_ds, EVAL_RADII, probes,
            RandomStream(cell_stream.child(3).derive_seed()))
        cells.append(SweepCell(shape, vname, k, rep_bin, tuple(rep_grid), rep_adp,
                               model, fitted, cell_stream.child(4).derive_seed()))
    table = {}
    for shape in shapes:
        for vname, _ in variants:
            sel = [c_ for c_ in cells if c_.shape == shape and c_.variant == vname]
            table[(shape, vname)] = {
                "binary": float(np.mean([c_.binary.value for c_ in sel])),
                "adaptive": float(np.mean([c_.adaptive.value for c_ in sel])),
            }
    return SweepResult(cells=tuple(cells), table=table)


def sweep_table_csv(result: SweepResult) -> list[str]:
    """One row per shape, two columns per variant, in `result.table`'s key order."""
    shapes = dict.fromkeys(s for s, _ in result.table)
    variants = dict.fromkeys(v for _, v in result.table)
    cols = []
    for v in variants:
        cols += [f"{v}_binary", f"{v}_adaptive"]
    lines = ["shape," + ",".join(cols)]
    for shape in shapes:
        row = [shape]
        for v in variants:
            cell = result.table[(shape, v)]
            row += [repr(cell["binary"]), repr(cell["adaptive"])]
        lines.append(",".join(row))
    return lines


def sweep_cells_csv(result: SweepResult) -> list[str]:
    lines = ["shape,variant,seed_index," + losses.REPORT_CSV_HEADER]
    for cell in result.cells:
        for rep in (cell.binary, *cell.fixed_grid, cell.adaptive):
            lines.append(f"{cell.shape},{cell.variant},{cell.seed_index},{rep.csv_row()}")
    return lines


def _cell_figure(cell: SweepCell, ambient: int):
    """A cell's figure lines, drawn as `command` writes them, one at a time: every
    sweep shape is 2-D with labels 0/1, so drawing cannot fail."""
    note = f"shape={cell.shape} variant={cell.variant} seed_index={cell.seed_index}"
    yield from render_regions_svg(mlp.MlpClassifier(cell.model), cell.fitted, ambient,
                                  RandomStream(cell.figure_seed), config_note=note)


# ---------------------------------------------------------------------------
# Commands


@click.group()
def main():
    """Locally adaptive robustness experiments: data, augmentation, training,
    losses, margin profiles, and exact scenario checks."""


def command(name: str):
    """Register the decorated `body(cfg, run) -> (files, echo)` as subcommand
    `name` of `main`, with --out, --name (default `name`) and --config after
    the body's own options; `cfg` is the `resolve_config` result. Required
    parameters are checked in `cfg`, so a --config file can supply them too. A
    ValueError, the library's bad-input signal, becomes a one-line error; other
    exceptions keep theirs. Only once the body returns is the run directory
    `run` made, with `config.echo` and `files` (path under it -> lines) in it."""
    def register(body):
        def callback(**_):
            try:
                cfg = resolve_config(click.get_current_context())
                for p in required:
                    if cfg[p.name] is None:
                        flag = p.opts[0] if isinstance(p, click.Option) else p.human_readable_name
                        raise click.ClickException(
                            f"missing {flag}: give it on the command line or as "
                            f"{p.name}=... in --config")
                run_name = cfg["name"]
                if run_name in ("", ".", "..") or Path(run_name).name != run_name:
                    raise click.ClickException(f"--name {run_name!r}: must be one directory name")
                run = Path(cfg["out"] or os.environ.get("ADAPTROBUST_OUT") or "out") / run_name
                files, echo = body(cfg, run)
            except ValueError as exc:
                raise click.ClickException(str(exc)) from None
            _run_dir(run)
            config = [f"{k}={v}" for k, v in sorted(cfg.items())
                      if k not in ("out", "name") and v is not None]
            for path, lines in {"config.echo": config, **files}.items():
                write_text_lines(run / path, lines)
            click.echo("\n".join(echo))

        cmd = main.command(name)(functools.update_wrapper(callback, body))
        required = [p for p in cmd.params if p.required]
        for p in required:
            p.required = False
        cmd.params += [
            click.Option(["--out"], help="Output root (default $ADAPTROBUST_OUT or ./out)."),
            click.Option(["--name"], default=name, show_default=True, help="Run directory name."),
            click.Option(["--config"], type=_FILE,
                         help="key=value file of options; explicit flags win."),
        ]
        return cmd
    return register


@command("generate")
@click.option("--shape", required=True, type=click.Choice(datagen.SHAPE_NAMES))
@click.option("--n", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--label-noise", default=0.0, show_default=True)
def cmd_generate(cfg, run):
    """Sample a synthetic shape dataset to CSV."""
    _check(cfg, n="[2, inf)", label_noise="[0, 1)", seed="[0, inf)")
    ds = datagen.generate(datagen.ShapeSpec(
        shape=cfg["shape"], n=cfg["n"], seed=cfg["seed"], label_noise=cfg["label_noise"]))
    path = "data/dataset.csv"
    return {path: datagen.csv_lines(ds)}, [f"wrote {run / path} ({ds.n} rows)"]


@command("augment")
@click.option("--data", required=True, type=_FILE)
@click.option("--c", default=None, type=float, help="Adaptive expansion factor (2/3 in the experiments).")
@click.option("--fixed-radius", default=None, type=float, help="Constant expansion radius.")
@click.option("--m", default=4, show_default=True, help="Samples per ball.")
@click.option("--seed", default=0, show_default=True)
@click.option("--originals/--no-originals", "include_originals", default=True, show_default=True)
def cmd_augment(cfg, run):
    """Expand a dataset by sampling from adaptive or fixed-radius balls."""
    if (cfg["c"] is None) == (cfg["fixed_radius"] is None):
        raise click.ClickException("give exactly one of --c and --fixed-radius")
    _check(cfg, c="[0, inf)", fixed_radius="[0, inf)", m="[1, inf)", seed="[0, inf)")
    ds = datagen.load_csv(cfg["data"])
    spec = ExpansionSpec(
        c=cfg["c"], m=cfg["m"],
        include_originals=cfg["include_originals"], seed=cfg["seed"],
        fixed_radius=cfg["fixed_radius"])
    aug, origins = augment_data(ds, spec)
    path = "data/augmented.csv"
    return {path: datagen.csv_lines(aug, origins)}, [f"wrote {run / path} ({aug.n} rows)"]


@command("train")
@click.option("--data", required=True, type=_FILE)
@click.option("--test", required=True, type=_FILE)
@click.option("--model", default="mlp", type=click.Choice(["mlp", "nn1"]), show_default=True)
@click.option("--epochs", default=mlp.TrainSpec.epochs, show_default=True)
@click.option("--lr", default=mlp.TrainSpec.learning_rate, show_default=True)
@click.option("--batch", default=mlp.TrainSpec.batch_size, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--probes", default=100, show_default=True)
@click.option("--r", default=0.1, show_default=True,
              help="Radius for the fixed robust-loss evaluation.")
def cmd_train(cfg, run):
    """Fit a model and report binary, fixed-radius robust, and adaptive robust
    losses on held-out data."""
    if cfg["model"] == "nn1":
        _refuse_unused(("epochs", "lr", "batch"), "by --model nn1, which does not train")
    _check(cfg, **_TRAINING, r="[0, inf)", seed="[0, inf)")
    train_ds = datagen.load_csv(cfg["data"])
    test_ds = datagen.load_csv(cfg["test"])
    if test_ds.dim != train_ds.dim:
        raise click.ClickException(
            f"--test {cfg['test']} has {test_ds.dim}-D points, "
            f"but --data {cfg['data']} has {train_ds.dim}-D points")
    _check_union(train_ds, test_ds, f"--data {cfg['data']} --test {cfg['test']}")
    labels = train_ds.classes().tolist()
    if len(labels) < 2:
        raise click.ClickException(
            f"--data {cfg['data']}: the adaptive loss needs two classes, got {labels}")
    if cfg["model"] == "mlp":
        model = mlp.init(train_ds.dim, seed=cfg["seed"])
        spec = mlp.TrainSpec(epochs=cfg["epochs"], batch_size=cfg["batch"],
                             learning_rate=cfg["lr"], seed=cfg["seed"])
        try:
            model = mlp.train(model, train_ds, spec)
        except ValueError as exc:
            raise click.ClickException(f"--data {cfg['data']}: {exc}") from None
        h, files = mlp.MlpClassifier(model), {"models/model.txt": mlp.model_lines(model)}
    else:
        h, files = NnClassifier(train_ds), {"models/nn1_train.csv": datagen.csv_lines(train_ds)}
    try:
        reports = _evaluate(h, test_ds, train_ds, [cfg["r"]], cfg["probes"],
                            RandomStream(cfg["seed"]))
    except ValueError as exc:
        raise click.ClickException(f"--data {cfg['data']} --test {cfg['test']}: {exc}") from None
    files["reports/losses.csv"] = _report_lines(reports)
    return files, [f"{rep.name} = {rep.value:.4f}" for rep in reports]


@command("margin")
@click.option("--shape", default=None, type=click.Choice(datagen.SHAPE_NAMES))
@click.option("--data", default=None, type=_FILE)
@click.option("--grid", default="0.01,0.02,0.05,0.1,0.2,0.5", show_default=True,
              help="Comma-separated radius grid.")
@click.option("--n", default=20000, show_default=True, help="Monte-Carlo sample count.")
@click.option("--probes", default=100, show_default=True)
@click.option("--epsilon", default=0.05, show_default=True)
@click.option("--seed", default=0, show_default=True)
def cmd_margin(cfg, run):
    """Estimate the margin-rate profile of the canonical nearest-set predictor,
    invert it at epsilon, and report the 1-NN sample bound."""
    if (cfg["shape"] is None) == (cfg["data"] is None):
        raise click.ClickException("give exactly one of --shape and --data")
    _check(cfg, n="[1, inf)", probes="[0, inf)", epsilon="(0, 1]", seed="[0, inf)")
    try:
        radii = radius_grid(_parse_radii(cfg["grid"], "--grid"))
    except ValueError as exc:
        raise click.ClickException(f"--grid {cfg['grid']!r}: {exc}") from None
    if cfg["shape"] is not None:
        geom = datagen.shape_geometry(cfg["shape"])
        h = margin.NearestSetClassifier(geom.class_support(0, 10000), geom.class_support(1, 10000))
        sampler = datagen.manifold_sampler(cfg["shape"])
    else:
        ds = datagen.load_csv(cfg["data"])
        labels = ds.classes().tolist()
        if labels != [0, 1]:
            raise click.ClickException(
                f"--data {cfg['data']}: margin needs labels 0 and 1, got {labels}")
        h = margin.NearestSetClassifier(ds.points[ds.labels == 0], ds.points[ds.labels == 1])

        def sampler(stream, count, _pts=ds.points):
            idx = stream.integers(0, _pts.shape[0], count)
            return _pts[idx]

    profile = margin.margin_profile(sampler, h, radii, N=cfg["n"], probes=cfg["probes"],
                                    stream=RandomStream(cfg["seed"]))
    r_star = margin.inverse_phi(profile, cfg["epsilon"])
    summary = [f"epsilon={cfg['epsilon']}", f"r_star={r_star!r}"]
    if r_star > 0.0:
        bound = margin.nn_sample_bound(h.train.dim, cfg["epsilon"], cfg["epsilon"], r_star)
        summary.append(f"nn_sample_bound={bound!r}")
    else:
        summary.append("nn_sample_bound=undefined (r_star = 0)")
    files = {"reports/margin.csv": profile.csv_lines(), "reports/margin_summary.txt": summary}
    return files, summary


# Each construction and the options it reads; any other given option is refused.
SCENARIOS = {"two_point": ("gap", "r"), "four_point": (),
             "two_rectangles": ("epsilon", "mc", "seed")}


@command("scenario")
@click.argument("scenario", metavar="NAME")
@click.option("--epsilon", default=0.2, show_default=True, help="Two-rectangles regression gap.")
@click.option("--gap", default=0.5, show_default=True, help="Atom spacing for two_point.")
@click.option("--r", default=1.0, show_default=True, help="Robustness parameter.")
@click.option("--mc", default=100000, show_default=True, help="Monte-Carlo points.")
@click.option("--seed", default=0, show_default=True)
def cmd_scenario(cfg, run):
    """Run an exact construction and print claimed-vs-computed values.

    NAME is one of: two_point, four_point, two_rectangles.
    """
    name = cfg["scenario"]
    if name not in SCENARIOS:
        raise click.ClickException(f"unknown scenario {name!r}; options: {', '.join(SCENARIOS)}")
    _check(cfg, epsilon="(0, 1)", gap="(0, inf)", r="[0, inf]", mc="[1, inf)", seed="[0, inf)")
    _refuse_unused([k for k in ("epsilon", "gap", "r", "mc", "seed") if k not in SCENARIOS[name]],
                   f"by scenario {name}")
    lines, reports = _scenario_report(cfg)
    return {f"reports/scenario_{name}.csv": _report_lines(reports),
            f"reports/scenario_{name}.txt": lines}, lines


def _scenario_report(cfg: dict):
    name, r, seed, mc = cfg["scenario"], cfg["r"], cfg["seed"], cfg["mc"]
    lines: list[str] = [f"scenario: {name}"]
    reports: list[losses.LossReport] = []

    def add(loss_name, value, n, claimed=None):
        reports.append(losses.LossReport(loss_name, float(value), 0, seed, n))
        claim = f" (claimed {claimed})" if claimed is not None else ""
        lines.append(f"{loss_name} = {float(value)!r}{claim}")

    if name == "two_point":
        D = scenarios.scenario_two_point(cfg["gap"])
        fam = scenarios.enumerate_family(D)
        h_bin, v_bin = scenarios.exact_best(fam, lambda g: scenarios.exact_binary_loss(g, D))
        h_rob, v_rob = scenarios.exact_best(fam, lambda g: scenarios.exact_robust_loss(g, D, r))
        lines.append(f"binary-optimal: {h_bin.describe()}")
        lines.append(f"robust-optimal (r={r:g}): {h_rob.describe()}")
        add("best_binary_loss", v_bin, 2, claimed=0)
        add("binary_optimal_robust_loss", scenarios.exact_robust_loss(h_bin, D, r), 2,
            claimed="1 when r > gap")
        add("best_robust_loss", v_rob, 2, claimed="1/2 when r > gap")
        add("disagreement_mass", scenarios.disagreement_exact(h_bin, h_rob, D), 2,
            claimed="1/2 when r > gap")
    elif name == "four_point":
        D = scenarios.scenario_four_point()
        fam = scenarios.enumerate_family(D)
        h = scenarios.HalfspaceClassifier(axis=1, threshold=1.0, above_label=1)
        _, v_rob = scenarios.exact_best(fam, lambda g: scenarios.exact_robust_loss(g, D, 0.1))
        add("threshold_binary_loss", scenarios.exact_binary_loss(h, D), 4, claimed=0)
        add("threshold_robust_loss_r=0.1", scenarios.exact_robust_loss(h, D, 0.1), 4, claimed=0)
        add("best_robust_loss_r=0.1", v_rob, 4, claimed=0)
    else:  # two_rectangles
        sc = scenarios.TwoRectangles(cfg["epsilon"])
        stream = RandomStream(seed)
        dis = losses.disagreement_mass(sc.bayes, sc.robust_bayes, sc.sampler, mc, stream)
        add("disagreement_mass", dis, mc, claimed="1/2")
        X = sc.sampler(stream.child(0), mc)
        mus = sc.mu(X)
        pred = sc.bayes.predict_batch(X)
        emp = float(np.mean(np.where(pred == 0, mus, 1.0 - mus)))
        add("bayes_binary_loss_mc", emp, mc, claimed=f"(1-eps)/2 = {sc.bayes_binary_loss()!r}")
    return lines, reports


@command("render")
@click.option("--model-file", default=None, type=_FILE,
              help="Trained network in the flat text format.")
@click.option("--nn1-data", default=None, type=_FILE,
              help="Training CSV for a 1-NN model.")
@click.option("--data", required=True, type=_FILE,
              help="Training CSV to overlay.")
@click.option("--ambient", default=4000, show_default=True)
@click.option("--seed", default=0, show_default=True)
def cmd_render(cfg, run):
    """Render decision regions plus training data into an SVG (2-D only)."""
    if (cfg["model_file"] is None) == (cfg["nn1_data"] is None):
        raise click.ClickException("give exactly one of --model-file and --nn1-data")
    _check(cfg, ambient="[0, inf)", seed="[0, inf)")
    ds = _load_drawable(cfg["data"], "--data")
    if cfg["model_file"] is not None:
        model = mlp.load_model(cfg["model_file"])
        if model.dim != 2:
            raise click.ClickException(f"--model-file {cfg['model_file']} has {model.dim}-D "
                                       "inputs, but --data has 2-D points")
        h = mlp.MlpClassifier(model)
        note = "model=mlp"
    else:
        nn_ds = _load_drawable(cfg["nn1_data"], "--nn1-data")
        _check_union(nn_ds, ds, f"--nn1-data {cfg['nn1_data']} --data {cfg['data']}")
        h = NnClassifier(nn_ds)
        note = "model=nn1"
    svg = render_regions_svg(h, ds, cfg["ambient"], RandomStream(cfg["seed"]),
                             config_note=f"{note} ambient={cfg['ambient']} seed={cfg['seed']}")
    path = "figs/regions.svg"
    return {path: svg}, [f"wrote {run / path}"]


@command("sweep")
@click.option("--shapes", default=",".join(datagen.SHAPE_NAMES), show_default=True,
              help="Comma-separated shape list.")
@click.option("--n", default=1000, show_default=True)
@click.option("--m", default=4, show_default=True)
@click.option("--c", default=2.0 / 3.0, show_default=True)
@click.option("--fixed-radii", default="0.1,0.5,1,2", show_default=True,
              help="Comma-separated radii; the full schedule is "
                   + ",".join(f"{r:g}" for r in FULL_FIXED_RADII) + ".")
@click.option("--seeds", default=3, show_default=True)
@click.option("--base-seed", default=0, show_default=True)
@click.option("--epochs", default=600, show_default=True)
@click.option("--lr", default=0.3, show_default=True)
@click.option("--batch", default=64, show_default=True)
@click.option("--probes", default=100, show_default=True)
@click.option("--render/--no-render", default=True, show_default=True)
@click.option("--ambient", default=2000, show_default=True)
def cmd_sweep(cfg, run):
    """Full augmentation grid (no-aug, fixed radii, adaptive) across shapes and
    seeds, summarized in one table CSV."""
    if not cfg["render"]:
        _refuse_unused(("ambient",), "with --no-render, which draws no figures")
    shape_list = [s.strip() for s in str(cfg["shapes"]).split(",") if s.strip()]
    try:
        _check_shapes(shape_list)
    except ValueError as exc:
        raise click.ClickException(f"--shapes {cfg['shapes']!r}: {exc}") from None
    radii = _parse_radii(cfg["fixed_radii"], "--fixed-radii")
    _check(cfg, **_TRAINING, n="[4, inf)", m="[1, inf)", c="[0, inf)", seeds="[1, inf)",
           base_seed="[0, inf)", ambient="[0, inf)")
    try:
        _augmentation_variants(cfg["c"], radii)
    except ValueError as exc:
        raise click.ClickException(f"--fixed-radii {cfg['fixed_radii']!r}: {exc}") from None
    result = run_sweep(
        shape_list, n=cfg["n"], m=cfg["m"], c=cfg["c"], fixed_radii=radii,
        n_seeds=cfg["seeds"], base_seed=cfg["base_seed"], epochs=cfg["epochs"],
        lr=cfg["lr"], batch=cfg["batch"], probes=cfg["probes"])
    path = "reports/sweep_table.csv"
    files = {path: sweep_table_csv(result), "reports/sweep_cells.csv": sweep_cells_csv(result)}
    for cell in result.cells if cfg["render"] else ():
        files[f"figs/{cell.shape}_{cell.variant}_s{cell.seed_index}.svg"] = _cell_figure(
            cell, cfg["ambient"])
    return files, [f"wrote {run / path}"]


if __name__ == "__main__":
    main()
