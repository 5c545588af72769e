"""Command-line harness for reproducible experiments.

Every subcommand is a pure function of its resolved configuration and input
files. All seven share one skeleton, `command`: it adds --out, --name and
--config, merges defaults < config file < explicit flags into one dict keyed
by parameter name (the long flag without dashes), and hands that dict to the
command body. A body checks its input first, so bad input stops with a
one-line error naming the option before anything is written; `_run_dir` then
makes the run directory and echoes the resolved config into it. Seeds are
explicit and no output file embeds timestamps, so reruns with equal configs
reproduce equal bytes.

Run layout: <out>/<run-name>/{config.echo, data/*.csv, models/*, reports/*.csv,
figs/*.svg}. The output root comes from --out, else $ADAPTROBUST_OUT, else ./out.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import datagen, losses, margin, mlp, scenarios
from .augment import ExpansionSpec, augment as augment_data
from .core import LabeledDataset, RandomStream, read_text_lines
from .neighbors import NnClassifier

FULL_FIXED_RADII = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
EVAL_RADII = (0.02, 0.05, 0.1, 0.2)
_FILE = click.Path(exists=True, dir_okay=False)  # input files: a directory is rejected


# ---------------------------------------------------------------------------
# Config plumbing


def _parse_config_file(path: str) -> dict[str, str]:
    vals: dict[str, str] = {}
    for ln in _load(path, read_text_lines):
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
    the command with a one-line error."""
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
    return cfg


def _load(path: str, read=datagen.load_csv):
    """Read an input file (a dataset CSV by default), turning a malformed file
    into a one-line error."""
    try:
        return read(path)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None


def _parse_radii(text, option: str) -> list[float]:
    """Comma-separated nonnegative radii, or a one-line error naming the option."""
    try:
        radii = [float(v) for v in str(text).split(",")]
    except ValueError:
        radii = []
    if not radii or not all(math.isfinite(r) and r >= 0.0 for r in radii):
        raise click.ClickException(
            f"{option} {text!r}: expected comma-separated nonnegative numbers")
    return radii


def _check(cfg: dict, **intervals: str) -> None:
    """One-line error naming the option unless cfg[key] lies in its interval,
    written like "[0, 1)" or "(0, inf)". NaN lies in none; None (an unset
    optional value) passes."""
    for key, interval in intervals.items():
        v = cfg[key]
        lo, hi = (float(b) for b in interval[1:-1].split(","))
        if v is not None and not ((lo < v if interval[0] == "(" else lo <= v)
                                  and (v < hi if interval[-1] == ")" else v <= hi)):
            raise click.ClickException(
                f"--{key.replace('_', '-')} {v!r}: must lie in {interval}")


# Options shared by `train` and `sweep`.
_TRAINING = dict(epochs="[0, inf)", batch="[1, inf)", lr="(0, inf)", probes="[0, inf)")


def _run_dir(cfg: dict) -> Path:
    """Make the run directory and echo the resolved config into it. A --name
    that is not one directory name, or a run path mkdir fails on, is an error,
    and a failed call removes the directories it made."""
    root, name = Path(cfg["out"] or os.environ.get("ADAPTROBUST_OUT") or "out"), cfg["name"]
    if name in ("", ".", "..") or Path(name).name != name:
        raise click.ClickException(f"--name {name!r}: must be one directory name")
    run, made = root / name, []
    subs = [run / sub for sub in ("data", "models", "reports", "figs")]
    try:
        for path in [*reversed(run.parents), run, *subs]:
            if not path.is_dir():
                path.mkdir()
                made.append(path)
    except (OSError, ValueError) as exc:
        for path in reversed(made):
            path.rmdir()
        raise click.ClickException(
            f"--out {root} --name {name}: cannot make the run directory ({exc})") from None
    lines = [f"{k}={v}" for k, v in sorted(cfg.items())
             if k not in ("out", "name") and v is not None]
    (run / "config.echo").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return run


def _write_reports(path: Path, reports: list[losses.LossReport]) -> None:
    lines = [losses.REPORT_CSV_HEADER] + [r.csv_row() for r in reports]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled so output bytes are fully deterministic)

REGION_COLORS = {0: "#9467bd", 1: "#d62728"}  # purple / red
POINT_COLORS = {0: "#1f77b4", 1: "#2ca02c"}   # blue / green


def render_regions_svg(classifier, train: LabeledDataset, ambient_n: int,
                       stream: RandomStream, config_note: str) -> str:
    """Decision-region picture: ambient points colored by predicted label,
    training points overlaid by class. 2-D data only."""
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
    return "\n".join(parts) + "\n"


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


@dataclass(frozen=True)
class SweepResult:
    cells: tuple
    table: dict  # (shape, variant) -> {"binary": mean, "adaptive": mean}
    variants: tuple


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
              probes: int, render_dir: Path | None = None,
              render_ambient: int = 2000) -> SweepResult:
    """Train one network per (shape, augmentation, seed) cell on the augmented
    training split and evaluate binary, fixed-radius robust (shared-probe grid)
    and test-time adaptive robust losses on the held-out split."""
    _check_shapes(shapes)
    variants = _augmentation_variants(c, fixed_radii)
    root = RandomStream(base_seed)
    cells = []
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
                model = mlp.init(train_ds.dim, seed=cell_stream.child(1).derive_seed())
                model = mlp.train(model, fitted, mlp.TrainSpec(
                    epochs=epochs, batch_size=batch, learning_rate=lr,
                    seed=cell_stream.child(2).derive_seed(),
                ))
                h = mlp.MlpClassifier(model)
                rep_bin, *rep_grid, rep_adp = _evaluate(
                    h, test_ds, train_ds, EVAL_RADII, probes,
                    RandomStream(cell_stream.child(3).derive_seed()))
                cells.append(SweepCell(shape, vname, k, rep_bin, tuple(rep_grid), rep_adp))
                if render_dir is not None:
                    svg = render_regions_svg(
                        h, fitted, render_ambient, RandomStream(cell_stream.child(4).derive_seed()),
                        config_note=f"shape={shape} variant={vname} seed_index={k}",
                    )
                    (render_dir / f"{shape}_{vname}_s{k}.svg").write_text(svg, encoding="utf-8")
    table = {}
    for shape in shapes:
        for vname, _ in variants:
            sel = [c_ for c_ in cells if c_.shape == shape and c_.variant == vname]
            table[(shape, vname)] = {
                "binary": float(np.mean([c_.binary.value for c_ in sel])),
                "adaptive": float(np.mean([c_.adaptive.value for c_ in sel])),
            }
    return SweepResult(cells=tuple(cells), table=table,
                       variants=tuple(v for v, _ in variants))


def sweep_table_csv(result: SweepResult, shapes) -> str:
    cols = []
    for v in result.variants:
        cols += [f"{v}_binary", f"{v}_adaptive"]
    lines = ["shape," + ",".join(cols)]
    for shape in shapes:
        row = [shape]
        for v in result.variants:
            cell = result.table[(shape, v)]
            row += [repr(cell["binary"]), repr(cell["adaptive"])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def sweep_cells_csv(result: SweepResult) -> str:
    lines = ["shape,variant,seed_index," + losses.REPORT_CSV_HEADER]
    for cell in result.cells:
        for rep in (cell.binary, *cell.fixed_grid, cell.adaptive):
            lines.append(f"{cell.shape},{cell.variant},{cell.seed_index},{rep.csv_row()}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands


@click.group()
def main():
    """Locally adaptive robustness experiments: data, augmentation, training,
    losses, margin profiles, and exact scenario checks."""


def command(name: str):
    """Register the decorated `body(cfg)` as subcommand `name` of `main`, with
    --out, --name (default `name`) and --config after the body's own options;
    `cfg` is the `resolve_config` result. Required parameters are checked in
    `cfg`, so a --config file can supply them too."""
    def register(body):
        def callback(**_):
            cfg = resolve_config(click.get_current_context())
            for p in required:
                if cfg[p.name] is None:
                    flag = p.opts[0] if isinstance(p, click.Option) else p.human_readable_name
                    raise click.ClickException(
                        f"missing {flag}: give it on the command line or as "
                        f"{p.name}=... in --config")
            return body(cfg)

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
def cmd_generate(cfg):
    """Sample a synthetic shape dataset to CSV."""
    _check(cfg, n="[2, inf)", label_noise="[0, 1)", seed="[0, inf)")
    run = _run_dir(cfg)
    ds = datagen.generate(datagen.ShapeSpec(
        shape=cfg["shape"], n=cfg["n"], seed=cfg["seed"], label_noise=cfg["label_noise"]))
    datagen.save_csv(ds, run / "data" / "dataset.csv")
    click.echo(f"wrote {run / 'data' / 'dataset.csv'} ({ds.n} rows)")


@command("augment")
@click.option("--data", required=True, type=_FILE)
@click.option("--c", default=None, type=float, help="Adaptive expansion factor (2/3 in the experiments).")
@click.option("--fixed-radius", default=None, type=float, help="Constant expansion radius.")
@click.option("--m", default=4, show_default=True, help="Samples per ball.")
@click.option("--seed", default=0, show_default=True)
@click.option("--originals/--no-originals", "include_originals", default=True, show_default=True)
def cmd_augment(cfg):
    """Expand a dataset by sampling from adaptive or fixed-radius balls."""
    if (cfg["c"] is None) == (cfg["fixed_radius"] is None):
        raise click.ClickException("give exactly one of --c and --fixed-radius")
    _check(cfg, c="[0, inf)", fixed_radius="[0, inf)", m="[1, inf)", seed="[0, inf)")
    ds = _load(cfg["data"])
    run = _run_dir(cfg)
    spec = ExpansionSpec(
        c=cfg["c"] if cfg["c"] is not None else 0.5, m=cfg["m"],
        include_originals=cfg["include_originals"], seed=cfg["seed"],
        fixed_radius=cfg["fixed_radius"])
    aug, origins = augment_data(ds, spec)
    datagen.save_csv(aug, run / "data" / "augmented.csv", origins=origins)
    click.echo(f"wrote {run / 'data' / 'augmented.csv'} ({aug.n} rows)")


@command("train")
@click.option("--data", required=True, type=_FILE)
@click.option("--test", required=True, type=_FILE)
@click.option("--model", default="mlp", type=click.Choice(["mlp", "nn1"]), show_default=True)
@click.option("--epochs", default=2000, show_default=True)
@click.option("--lr", default=0.05, show_default=True)
@click.option("--batch", default=32, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--probes", default=100, show_default=True)
@click.option("--r", default=0.1, show_default=True,
              help="Radius for the fixed robust-loss evaluation.")
def cmd_train(cfg):
    """Fit a model and report binary, fixed-radius robust, and adaptive robust
    losses on held-out data."""
    _check(cfg, **_TRAINING, r="[0, inf)", seed="[0, inf)")
    train_ds = _load(cfg["data"])
    test_ds = _load(cfg["test"])
    if test_ds.dim != train_ds.dim:
        raise click.ClickException(
            f"--test {cfg['test']} has {test_ds.dim}-D points, "
            f"but --data {cfg['data']} has {train_ds.dim}-D points")
    labels = train_ds.classes().tolist()
    if cfg["model"] == "mlp" and not set(labels) <= {0, 1}:
        raise click.ClickException(
            f"--data {cfg['data']}: the mlp model needs labels 0/1, got {labels}")
    if len(labels) < 2:
        raise click.ClickException(
            f"--data {cfg['data']}: the adaptive loss needs two classes, got {labels}")
    run = _run_dir(cfg)
    if cfg["model"] == "mlp":
        model = mlp.init(train_ds.dim, seed=cfg["seed"])
        model = mlp.train(model, train_ds, mlp.TrainSpec(
            epochs=cfg["epochs"], batch_size=cfg["batch"],
            learning_rate=cfg["lr"], seed=cfg["seed"]))
        mlp.save_model(model, run / "models" / "model.txt")
        h = mlp.MlpClassifier(model)
    else:
        datagen.save_csv(train_ds, run / "models" / "nn1_train.csv")
        h = NnClassifier(train_ds)
    reports = _evaluate(h, test_ds, train_ds, [cfg["r"]], cfg["probes"],
                        RandomStream(cfg["seed"]))
    _write_reports(run / "reports" / "losses.csv", reports)
    for rep in reports:
        click.echo(f"{rep.name} = {rep.value:.4f}")


@command("margin")
@click.option("--shape", default=None, type=click.Choice(datagen.SHAPE_NAMES))
@click.option("--data", default=None, type=_FILE)
@click.option("--grid", default="0.01,0.02,0.05,0.1,0.2,0.5", show_default=True,
              help="Comma-separated radius grid.")
@click.option("--n", default=20000, show_default=True, help="Monte-Carlo sample count.")
@click.option("--probes", default=100, show_default=True)
@click.option("--epsilon", default=0.05, show_default=True)
@click.option("--seed", default=0, show_default=True)
def cmd_margin(cfg):
    """Estimate the margin-rate profile of the canonical nearest-set predictor,
    invert it at epsilon, and report the 1-NN sample bound."""
    if (cfg["shape"] is None) == (cfg["data"] is None):
        raise click.ClickException("give exactly one of --shape and --data")
    _check(cfg, n="[1, inf)", probes="[0, inf)", epsilon="(0, 1]", seed="[0, inf)")
    radii = _parse_radii(cfg["grid"], "--grid")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise click.ClickException(f"--grid {cfg['grid']!r}: radii must be strictly increasing")
    if cfg["shape"] is not None:
        geom = datagen.shape_geometry(cfg["shape"])
        support0 = geom.class_support(0, 10000)
        support1 = geom.class_support(1, 10000)
        sampler = datagen.manifold_sampler(cfg["shape"])
    else:
        ds = _load(cfg["data"])
        labels = ds.classes().tolist()
        if labels != [0, 1]:
            raise click.ClickException(
                f"--data {cfg['data']}: margin needs labels 0 and 1, got {labels}")
        support0 = ds.points[ds.labels == 0]
        support1 = ds.points[ds.labels == 1]

        def sampler(stream, count, _pts=ds.points):
            idx = stream.integers(0, _pts.shape[0], count)
            return _pts[idx]

    run = _run_dir(cfg)
    h = margin.NearestSetClassifier(support0, support1)
    profile = margin.margin_profile(sampler, h, radii, N=cfg["n"], probes=cfg["probes"],
                                    stream=RandomStream(cfg["seed"]))
    profile.save(run / "reports" / "margin.csv")
    r_star = margin.inverse_phi(profile, cfg["epsilon"])
    summary = [f"epsilon={cfg['epsilon']}", f"r_star={r_star!r}"]
    if r_star > 0.0:
        bound = margin.nn_sample_bound(support0.shape[1], cfg["epsilon"], cfg["epsilon"], r_star)
        summary.append(f"nn_sample_bound={bound!r}")
    else:
        summary.append("nn_sample_bound=undefined (r_star = 0)")
    (run / "reports" / "margin_summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    for ln in summary:
        click.echo(ln)


SCENARIOS = ("two_point", "four_point", "two_rectangles")


@command("scenario")
@click.argument("scenario", metavar="NAME")
@click.option("--epsilon", default=0.2, show_default=True, help="Two-rectangles regression gap.")
@click.option("--gap", default=0.5, show_default=True, help="Atom spacing for two_point.")
@click.option("--r", default=1.0, show_default=True, help="Robustness parameter.")
@click.option("--mc", default=100000, show_default=True, help="Monte-Carlo points.")
@click.option("--seed", default=0, show_default=True)
def cmd_scenario(cfg):
    """Run an exact construction and print claimed-vs-computed values.

    NAME is one of: two_point, four_point, two_rectangles.
    """
    name = cfg["scenario"]
    if name not in SCENARIOS:
        raise click.ClickException(f"unknown scenario {name!r}; options: {', '.join(SCENARIOS)}")
    _check(cfg, epsilon="(0, 1)", gap="(0, inf)", r="[0, inf]", mc="[1, inf)", seed="[0, inf)")
    run = _run_dir(cfg)
    lines, reports = _scenario_report(cfg)
    _write_reports(run / "reports" / f"scenario_{name}.csv", reports)
    text = "\n".join(lines) + "\n"
    (run / "reports" / f"scenario_{name}.txt").write_text(text, encoding="utf-8")
    click.echo(text, nl=False)


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
        h_bin, v_bin = scenarios.exact_best(fam, D, "binary")
        h_rob, v_rob = scenarios.exact_best(fam, D, "robust", r=r)
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
        _, v_rob = scenarios.exact_best(fam, D, "robust", r=0.1)
        add("threshold_binary_loss", scenarios.exact_binary_loss(h, D), 4, claimed=0)
        add("threshold_robust_loss_r=0.1", scenarios.exact_robust_loss(h, D, 0.1), 4, claimed=0)
        add("best_robust_loss_r=0.1", v_rob, 4, claimed=0)
    else:  # two_rectangles
        sc = scenarios.scenario_two_rectangles(cfg["epsilon"])
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
def cmd_render(cfg):
    """Render decision regions plus training data into an SVG (2-D only)."""
    if (cfg["model_file"] is None) == (cfg["nn1_data"] is None):
        raise click.ClickException("give exactly one of --model-file and --nn1-data")
    _check(cfg, ambient="[0, inf)", seed="[0, inf)")
    ds = _load(cfg["data"])
    if ds.dim != 2:
        raise click.ClickException(f"--data {cfg['data']}: rendering needs 2-D points, "
                                   f"got {ds.dim}-D")
    if cfg["model_file"] is not None:
        model = _load(cfg["model_file"], mlp.load_model)
        source, dim = f"--model-file {cfg['model_file']}", model.dim
        h = mlp.MlpClassifier(model)
        note = "model=mlp"
    else:
        nn_ds = _load(cfg["nn1_data"])
        source, dim = f"--nn1-data {cfg['nn1_data']}", nn_ds.dim
        h = NnClassifier(nn_ds)
        note = "model=nn1"
    if dim != 2:
        raise click.ClickException(f"{source} has {dim}-D inputs, but --data has 2-D points")
    run = _run_dir(cfg)
    svg = render_regions_svg(h, ds, cfg["ambient"], RandomStream(cfg["seed"]),
                             config_note=f"{note} ambient={cfg['ambient']} seed={cfg['seed']}")
    path = run / "figs" / "regions.svg"
    path.write_text(svg, encoding="utf-8")
    click.echo(f"wrote {path}")


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
def cmd_sweep(cfg):
    """Full augmentation grid (no-aug, fixed radii, adaptive) across shapes and
    seeds, summarized in one table CSV."""
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
    run = _run_dir(cfg)
    result = run_sweep(
        shape_list, n=cfg["n"], m=cfg["m"], c=cfg["c"], fixed_radii=radii,
        n_seeds=cfg["seeds"], base_seed=cfg["base_seed"], epochs=cfg["epochs"],
        lr=cfg["lr"], batch=cfg["batch"], probes=cfg["probes"],
        render_dir=(run / "figs") if cfg["render"] else None,
        render_ambient=cfg["ambient"],
    )
    (run / "reports" / "sweep_table.csv").write_text(
        sweep_table_csv(result, shape_list), encoding="utf-8")
    (run / "reports" / "sweep_cells.csv").write_text(sweep_cells_csv(result), encoding="utf-8")
    click.echo(f"wrote {run / 'reports' / 'sweep_table.csv'}")


if __name__ == "__main__":
    main()
