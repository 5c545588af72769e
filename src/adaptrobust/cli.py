"""Command-line harness for reproducible experiments.

Every subcommand is a pure function of its resolved configuration and input
files: seeds are explicit, the resolved config is echoed into the run
directory, and no output file embeds machine-specific paths or timestamps, so
reruns with equal configs reproduce equal bytes.

Run layout: <out>/<run-name>/{config.echo, data/*.csv, models/*, reports/*.csv,
figs/*.svg}. The output root comes from --out, else $ADAPTROBUST_OUT, else ./out.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import datagen, losses, margin, mlp, scenarios
from .augment import ExpansionSpec, augment as augment_data
from .core import LabeledDataset, RandomStream, predict_batch
from .neighbors import NnClassifier

FULL_FIXED_RADII = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
EVAL_RADII = (0.02, 0.05, 0.1, 0.2)


# ---------------------------------------------------------------------------
# Config plumbing


def _parse_config_file(path: str) -> dict[str, str]:
    vals: dict[str, str] = {}
    for ln in Path(path).read_text(encoding="utf-8").splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise click.ClickException(f"{path}: expected key=value, got {ln!r}")
        k, v = ln.split("=", 1)
        vals[k.strip()] = v.strip()
    return vals


def resolve_config(ctx: click.Context, config_path: str | None, **params) -> dict:
    """Merge defaults < config file < explicit command-line flags. A key names
    an option by parameter name or long flag (`r` for `--r`); file values go
    through the option's click type, and unknown keys or bad values stop the
    command with a one-line error."""
    file_vals = _parse_config_file(config_path) if config_path else {}
    for key in file_vals:
        if key not in params:
            raise click.ClickException(
                f"{config_path}: unknown key {key!r} (known: {', '.join(sorted(params))})")
    by_key = {k: p for p in ctx.command.params
              for k in (p.name, p.opts[0].lstrip("-").replace("-", "_"))}
    resolved = {}
    for key, value in params.items():
        p = by_key[key]
        explicit = ctx.get_parameter_source(p.name) == ParameterSource.COMMANDLINE
        if key in file_vals and not explicit:
            try:
                value = p.type.convert(file_vals[key], p, ctx)
            except click.BadParameter as exc:
                raise click.ClickException(
                    f"{config_path}: bad value for {key!r}: {exc.message}") from None
        resolved[key] = value
    return resolved


def _load(path: str) -> LabeledDataset:
    """Read a dataset CSV, turning a malformed file into a one-line error."""
    try:
        return datagen.load_csv(path)[0]
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


def _check_min(cfg: dict, key: str, low, strict: bool = False) -> None:
    """One-line error naming --key unless cfg[key] >= low (> low if strict)."""
    v = cfg[key]
    if not (v > low if strict else v >= low):
        raise click.ClickException(f"--{key} {v!r}: must be {'>' if strict else '>='} {low}")


def _check_training(cfg: dict) -> None:
    _check_min(cfg, "epochs", 0)
    _check_min(cfg, "batch", 1)
    _check_min(cfg, "lr", 0, strict=True)


def _run_dir(out: str | None, name: str) -> Path:
    root = out or os.environ.get("ADAPTROBUST_OUT") or "out"
    run = Path(root) / name
    for sub in ("data", "models", "reports", "figs"):
        (run / sub).mkdir(parents=True, exist_ok=True)
    return run


def _echo_config(run: Path, config: dict) -> None:
    skip = {"out", "config", "name"}
    lines = [f"{k}={config[k]}" for k in sorted(config) if k not in skip and config[k] is not None]
    (run / "config.echo").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_reports(path: Path, reports: list[losses.LossReport]) -> None:
    lines = [losses.REPORT_CSV_HEADER] + [r.csv_row() for r in reports]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled so output bytes are fully deterministic)

REGION_COLORS = {0: "#9467bd", 1: "#d62728"}  # purple / red
POINT_COLORS = {0: "#1f77b4", 1: "#2ca02c"}   # blue / green


def render_regions_svg(classifier, train: LabeledDataset, ambient_n: int,
                       stream: RandomStream, config_note: str = "",
                       size: int = 480) -> str:
    """Decision-region picture: ambient points colored by predicted label,
    training points overlaid by class. 2-D data only."""
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
        f"data colors: 0={POINT_COLORS[0]} 1={POINT_COLORS[1]}"
        + (f" | {config_note}" if config_note else "") + "</desc>",
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    if ambient_n > 0:
        ambient = lo + stream.uniform((ambient_n, 2)) * (hi - lo)
        preds = predict_batch(classifier, ambient)
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
    variants: list[tuple[str, dict | None]] = [("none", None)]
    variants += [(f"fixed{r:g}", {"fixed_radius": float(r)}) for r in fixed_radii]
    variants.append(("adaptive", {"c": float(c)}))
    return variants


def run_sweep(shapes, n: int, m: int, c: float, fixed_radii, n_seeds: int,
              base_seed: int, epochs: int, lr: float, batch: int,
              probes: int, train_fraction: float = 0.8,
              eval_radii=EVAL_RADII, render_dir: Path | None = None,
              render_ambient: int = 2000) -> SweepResult:
    """Train one network per (shape, augmentation, seed) cell on the augmented
    training split and evaluate binary, fixed-radius robust (shared-probe grid)
    and test-time adaptive robust losses on the held-out split."""
    variants = _augmentation_variants(c, fixed_radii)
    root = RandomStream(base_seed)
    cells = []
    for si, shape in enumerate(shapes):
        for k in range(n_seeds):
            data_seed = root.child(si, k, 0).derive_seed()
            ds = datagen.generate(datagen.ShapeSpec(shape=shape, n=n, seed=data_seed))
            train_ds, test_ds = datagen.split(
                ds, datagen.SplitSpec(train_fraction, seed=root.child(si, k, 1).derive_seed())
            )
            for vi, (vname, vspec) in enumerate(variants):
                cell_stream = root.child(si, k, 2 + vi)
                if vspec is None:
                    fitted = train_ds
                    origins = None
                else:
                    spec = ExpansionSpec(
                        c=vspec.get("c", 0.5), m=m, include_originals=True,
                        seed=cell_stream.child(0).derive_seed(),
                        fixed_radius=vspec.get("fixed_radius"),
                    )
                    fitted, origins = augment_data(train_ds, spec)
                model = mlp.init(train_ds.dim, seed=cell_stream.child(1).derive_seed())
                model = mlp.train(model, fitted, mlp.TrainSpec(
                    epochs=epochs, batch_size=batch, learning_rate=lr,
                    seed=cell_stream.child(2).derive_seed(),
                ))
                h = mlp.as_classifier(model)
                eval_stream = RandomStream(cell_stream.child(3).derive_seed())
                rep_bin = losses.binary_loss(h, test_ds)
                rep_grid = tuple(losses.robust_loss_fixed_grid(
                    h, test_ds, eval_radii, probes=probes, stream=eval_stream.child(0)))
                rep_adp = losses.adaptive_robust_testtime(
                    h, test_ds, ref=train_ds, factor=0.5, probes=10,
                    stream=eval_stream.child(1))
                cells.append(SweepCell(shape, vname, k, rep_bin, rep_grid, rep_adp))
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
    lines = ["shape,variant,seed_index,loss_name,value,probes,seed,n"]
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


@main.command("generate")
@click.option("--shape", required=True, type=click.Choice(datagen.SHAPE_NAMES))
@click.option("--n", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--label-noise", default=0.0, show_default=True)
@click.option("--out", default=None, help="Output root (default $ADAPTROBUST_OUT or ./out).")
@click.option("--name", default="generate", show_default=True, help="Run directory name.")
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
@click.pass_context
def cmd_generate(ctx, shape, n, seed, label_noise, out, name, config_path):
    """Sample a synthetic shape dataset to CSV."""
    cfg = resolve_config(ctx, config_path, shape=shape, n=n, seed=seed,
                         label_noise=label_noise, out=out, name=name)
    _check_min(cfg, "n", 2)
    if not 0.0 <= cfg["label_noise"] < 1.0:
        raise click.ClickException(f"--label-noise {cfg['label_noise']!r}: must lie in [0, 1)")
    run = _run_dir(cfg["out"], cfg["name"])
    ds = datagen.generate(datagen.ShapeSpec(
        shape=cfg["shape"], n=cfg["n"], seed=cfg["seed"], label_noise=cfg["label_noise"]))
    datagen.save_csv(ds, run / "data" / "dataset.csv")
    _echo_config(run, cfg)
    click.echo(f"wrote {run / 'data' / 'dataset.csv'} ({ds.n} rows)")


@main.command("augment")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--c", default=None, type=float, help="Adaptive expansion factor (2/3 in the experiments).")
@click.option("--fixed-radius", default=None, type=float, help="Constant expansion radius.")
@click.option("--m", default=4, show_default=True, help="Samples per ball.")
@click.option("--seed", default=0, show_default=True)
@click.option("--originals/--no-originals", "include_originals", default=True, show_default=True)
@click.option("--out", default=None)
@click.option("--name", default="augment", show_default=True)
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
@click.pass_context
def cmd_augment(ctx, data_path, c, fixed_radius, m, seed, include_originals, out, name, config_path):
    """Expand a dataset by sampling from adaptive or fixed-radius balls."""
    cfg = resolve_config(ctx, config_path, data=data_path, c=c, fixed_radius=fixed_radius,
                         m=m, seed=seed, include_originals=include_originals, out=out, name=name)
    if (cfg["c"] is None) == (cfg["fixed_radius"] is None):
        raise click.ClickException("give exactly one of --c and --fixed-radius")
    ds = _load(cfg["data"])
    run = _run_dir(cfg["out"], cfg["name"])
    spec = ExpansionSpec(
        c=cfg["c"] if cfg["c"] is not None else 0.5, m=cfg["m"],
        include_originals=cfg["include_originals"], seed=cfg["seed"],
        fixed_radius=cfg["fixed_radius"])
    aug, origins = augment_data(ds, spec)
    datagen.save_csv(aug, run / "data" / "augmented.csv", origins=origins)
    _echo_config(run, cfg)
    click.echo(f"wrote {run / 'data' / 'augmented.csv'} ({aug.n} rows)")


@main.command("train")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--test", "test_path", required=True, type=click.Path(exists=True))
@click.option("--model", "model_kind", default="mlp", type=click.Choice(["mlp", "nn1"]),
              show_default=True)
@click.option("--epochs", default=2000, show_default=True)
@click.option("--lr", default=0.05, show_default=True)
@click.option("--batch", default=32, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--probes", default=100, show_default=True)
@click.option("--r", "fixed_r", default=0.1, show_default=True,
              help="Radius for the fixed robust-loss evaluation.")
@click.option("--out", default=None)
@click.option("--name", default="train", show_default=True)
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
@click.pass_context
def cmd_train(ctx, data_path, test_path, model_kind, epochs, lr, batch, seed, probes,
              fixed_r, out, name, config_path):
    """Fit a model and report binary, fixed-radius robust, and adaptive robust
    losses on held-out data."""
    cfg = resolve_config(ctx, config_path, data=data_path, test=test_path, model=model_kind,
                         epochs=epochs, lr=lr, batch=batch, seed=seed, probes=probes,
                         r=fixed_r, out=out, name=name)
    _check_training(cfg)
    if not 0.0 <= cfg["r"] < math.inf:
        raise click.ClickException(f"--r {cfg['r']!r}: must be finite and >= 0")
    train_ds = _load(cfg["data"])
    test_ds = _load(cfg["test"])
    labels = train_ds.classes().tolist()
    if cfg["model"] == "mlp" and not set(labels) <= {0, 1}:
        raise click.ClickException(
            f"--data {cfg['data']}: the mlp model needs labels 0/1, got {labels}")
    if len(labels) < 2:
        raise click.ClickException(
            f"--data {cfg['data']}: the adaptive loss needs two classes, got {labels}")
    run = _run_dir(cfg["out"], cfg["name"])
    if cfg["model"] == "mlp":
        model = mlp.init(train_ds.dim, seed=cfg["seed"])
        model = mlp.train(model, train_ds, mlp.TrainSpec(
            epochs=cfg["epochs"], batch_size=cfg["batch"],
            learning_rate=cfg["lr"], seed=cfg["seed"]))
        mlp.save_model(model, run / "models" / "model.txt")
        h = mlp.as_classifier(model)
    else:
        datagen.save_csv(train_ds, run / "models" / "nn1_train.csv")
        h = NnClassifier(train_ds)
    stream = RandomStream(cfg["seed"])
    reports = [
        losses.binary_loss(h, test_ds),
        losses.robust_loss_fixed(h, test_ds, cfg["r"], probes=cfg["probes"],
                                 stream=stream.child(0)),
        losses.adaptive_robust_testtime(h, test_ds, ref=train_ds, factor=0.5,
                                        probes=10, stream=stream.child(1)),
    ]
    _write_reports(run / "reports" / "losses.csv", reports)
    _echo_config(run, cfg)
    for rep in reports:
        click.echo(f"{rep.name} = {rep.value:.4f}")


@main.command("margin")
@click.option("--shape", default=None, type=click.Choice(datagen.SHAPE_NAMES))
@click.option("--data", "data_path", default=None, type=click.Path(exists=True))
@click.option("--grid", default="0.01,0.02,0.05,0.1,0.2,0.5", show_default=True,
              help="Comma-separated radius grid.")
@click.option("--n", default=20000, show_default=True, help="Monte-Carlo sample count.")
@click.option("--probes", default=100, show_default=True)
@click.option("--epsilon", default=0.05, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None)
@click.option("--name", default="margin", show_default=True)
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
@click.pass_context
def cmd_margin(ctx, shape, data_path, grid, n, probes, epsilon, seed, out, name, config_path):
    """Estimate the margin-rate profile of the canonical nearest-set predictor,
    invert it at epsilon, and report the 1-NN sample bound."""
    cfg = resolve_config(ctx, config_path, shape=shape, data=data_path, grid=grid, n=n,
                         probes=probes, epsilon=epsilon, seed=seed, out=out, name=name)
    if (cfg["shape"] is None) == (cfg["data"] is None):
        raise click.ClickException("give exactly one of --shape and --data")
    _check_min(cfg, "n", 1)
    radii = _parse_radii(cfg["grid"], "--grid")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise click.ClickException(f"--grid {cfg['grid']!r}: radii must be strictly increasing")
    if cfg["shape"] is not None:
        geom = datagen.shape_geometry(cfg["shape"])
        support0 = geom.class_support(0, 10000)
        support1 = geom.class_support(1, 10000)
        sampler = datagen.manifold_sampler(cfg["shape"])
        dim = 2
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

        dim = ds.dim
    run = _run_dir(cfg["out"], cfg["name"])
    h = margin.canonical_bayes(support0, support1)
    profile = margin.margin_profile(sampler, h, radii, N=cfg["n"], probes=cfg["probes"],
                                    stream=RandomStream(cfg["seed"]))
    profile.save(run / "reports" / "margin.csv")
    r_star = margin.inverse_phi(profile, cfg["epsilon"])
    summary = [f"epsilon={cfg['epsilon']}", f"r_star={r_star!r}"]
    if r_star > 0.0:
        bound = margin.nn_sample_bound(dim, cfg["epsilon"], cfg["epsilon"], r_star)
        summary.append(f"nn_sample_bound={bound!r}")
    else:
        summary.append("nn_sample_bound=undefined (r_star = 0)")
    (run / "reports" / "margin_summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    _echo_config(run, cfg)
    for ln in summary:
        click.echo(ln)


@main.command("scenario")
@click.argument("scenario_name", metavar="NAME")
@click.option("--epsilon", default=0.2, show_default=True, help="Two-rectangles regression gap.")
@click.option("--gap", default=0.5, show_default=True, help="Atom spacing for line scenarios.")
@click.option("--r", "radius", default=1.0, show_default=True, help="Robustness parameter.")
@click.option("--mc", default=100000, show_default=True, help="Monte-Carlo points.")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None)
@click.option("--name", default="scenario", show_default=True)
def cmd_scenario(scenario_name, epsilon, gap, radius, mc, seed, out, name):
    """Run an exact construction and print claimed-vs-computed values.

    NAME is one of: two_point, four_point, two_rectangles, separable_line.
    """
    known = ("two_point", "four_point", "two_rectangles", "separable_line")
    if scenario_name not in known:
        raise click.ClickException(f"unknown scenario {scenario_name!r}; options: {', '.join(known)}")
    run = _run_dir(out, name)
    lines, reports = _scenario_report(scenario_name, epsilon, gap, radius, mc, seed)
    _write_reports(run / "reports" / f"scenario_{scenario_name}.csv", reports)
    text = "\n".join(lines) + "\n"
    (run / "reports" / f"scenario_{scenario_name}.txt").write_text(text, encoding="utf-8")
    click.echo(text, nl=False)


def _scenario_report(scenario_name, epsilon, gap, radius, mc, seed):
    lines: list[str] = [f"scenario: {scenario_name}"]
    reports: list[losses.LossReport] = []

    def add(name, value, n, claimed=None):
        reports.append(losses.LossReport(name, float(value), 0, seed, n))
        claim = f" (claimed {claimed})" if claimed is not None else ""
        lines.append(f"{name} = {float(value)!r}{claim}")

    if scenario_name in ("two_point", "separable_line"):
        D = scenarios.scenario_two_point(gap)
        fam = scenarios.enumerate_family(D)
        h_bin, v_bin = scenarios.exact_best(fam, D, "binary")
        h_rob, v_rob = scenarios.exact_best(fam, D, "robust", r=radius)
        lines.append(f"binary-optimal: {scenarios.describe_classifier(h_bin)}")
        lines.append(f"robust-optimal (r={radius:g}): {scenarios.describe_classifier(h_rob)}")
        add("best_binary_loss", v_bin, 2, claimed=0)
        add("binary_optimal_robust_loss", scenarios.exact_robust_loss(h_bin, D, radius), 2,
            claimed="1 when r > gap")
        add("best_robust_loss", v_rob, 2, claimed="1/2 when r > gap")
        add("disagreement_mass", scenarios.disagreement_exact(h_bin, h_rob, D), 2,
            claimed="1/2 when r > gap")
    elif scenario_name == "four_point":
        D = scenarios.scenario_four_point()
        fam = scenarios.enumerate_family(D)
        h = scenarios.HalfspaceClassifier(axis=1, threshold=1.0, above_label=1)
        _, v_rob = scenarios.exact_best(fam, D, "robust", r=0.1)
        add("threshold_binary_loss", scenarios.exact_binary_loss(h, D), 4, claimed=0)
        add("threshold_robust_loss_r=0.1", scenarios.exact_robust_loss(h, D, 0.1), 4, claimed=0)
        add("best_robust_loss_r=0.1", v_rob, 4, claimed=0)
    else:  # two_rectangles
        sc = scenarios.scenario_two_rectangles(epsilon)
        stream = RandomStream(seed)
        dis = losses.disagreement_mass(sc.bayes, sc.robust_bayes, sc.sampler, mc, stream)
        add("disagreement_mass", dis, mc, claimed="1/2")
        X = sc.sampler(stream.child(0), mc)
        mus = np.array([sc.mu(x) for x in X])
        pred = sc.bayes.predict_batch(X)
        emp = float(np.mean(np.where(pred == 0, mus, 1.0 - mus)))
        add("bayes_binary_loss_mc", emp, mc, claimed=f"(1-eps)/2 = {sc.bayes_binary_loss()!r}")
    return lines, reports


@main.command("render")
@click.option("--model-file", default=None, type=click.Path(exists=True),
              help="Trained network in the flat text format.")
@click.option("--nn1-data", default=None, type=click.Path(exists=True),
              help="Training CSV for a 1-NN model.")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True),
              help="Training CSV to overlay.")
@click.option("--ambient", default=4000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None)
@click.option("--name", default="render", show_default=True)
def cmd_render(model_file, nn1_data, data_path, ambient, seed, out, name):
    """Render decision regions plus training data into an SVG (2-D only)."""
    if (model_file is None) == (nn1_data is None):
        raise click.ClickException("give exactly one of --model-file and --nn1-data")
    ds = _load(data_path)
    if model_file is not None:
        h = mlp.as_classifier(mlp.load_model(model_file))
        note = "model=mlp"
    else:
        h = NnClassifier(_load(nn1_data))
        note = "model=nn1"
    run = _run_dir(out, name)
    svg = render_regions_svg(h, ds, ambient, RandomStream(seed),
                             config_note=f"{note} ambient={ambient} seed={seed}")
    path = run / "figs" / "regions.svg"
    path.write_text(svg, encoding="utf-8")
    click.echo(f"wrote {path}")


@main.command("sweep")
@click.option("--shapes", default=",".join(datagen.SHAPE_NAMES), show_default=True,
              help="Comma-separated shape list.")
@click.option("--n", default=1000, show_default=True)
@click.option("--m", default=4, show_default=True)
@click.option("--c", default=2.0 / 3.0, show_default=True)
@click.option("--fixed-radii", default="0.1,0.5,1,2", show_default=True,
              help="Comma-separated radii; the full schedule is "
                   + ",".join(f"{r:g}" for r in FULL_FIXED_RADII) + ".")
@click.option("--seeds", "n_seeds", default=3, show_default=True)
@click.option("--base-seed", default=0, show_default=True)
@click.option("--epochs", default=600, show_default=True)
@click.option("--lr", default=0.3, show_default=True)
@click.option("--batch", default=64, show_default=True)
@click.option("--probes", default=100, show_default=True)
@click.option("--render/--no-render", "do_render", default=True, show_default=True)
@click.option("--ambient", default=2000, show_default=True)
@click.option("--out", default=None)
@click.option("--name", default="sweep", show_default=True)
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
@click.pass_context
def cmd_sweep(ctx, shapes, n, m, c, fixed_radii, n_seeds, base_seed, epochs, lr, batch,
              probes, do_render, ambient, out, name, config_path):
    """Full augmentation grid (no-aug, fixed radii, adaptive) across shapes and
    seeds, summarized in one table CSV."""
    cfg = resolve_config(ctx, config_path, shapes=shapes, n=n, m=m, c=c,
                         fixed_radii=fixed_radii, seeds=n_seeds, base_seed=base_seed,
                         epochs=epochs, lr=lr, batch=batch, probes=probes,
                         render=do_render, ambient=ambient, out=out, name=name)
    shape_list = [s.strip() for s in str(cfg["shapes"]).split(",") if s.strip()]
    unknown = [s for s in shape_list if s not in datagen.SHAPE_NAMES]
    if unknown:
        raise click.ClickException(f"--shapes {cfg['shapes']!r}: unknown shape {unknown[0]!r}; "
                                   f"expected some of {', '.join(datagen.SHAPE_NAMES)}")
    radii = _parse_radii(cfg["fixed_radii"], "--fixed-radii")
    _check_min(cfg, "n", 2)
    _check_min(cfg, "seeds", 1)
    _check_training(cfg)
    run = _run_dir(cfg["out"], cfg["name"])
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
    _echo_config(run, cfg)
    click.echo(f"wrote {run / 'reports' / 'sweep_table.csv'}")


if __name__ == "__main__":
    main()
