"""Golden bytes: small runs of all seven subcommands write exactly the files
whose sha256 digests are committed in `golden_sha256.txt`.

Inputs are made by the runs themselves and passed as relative paths from a
fresh working directory, so `config.echo` does not depend on where the test
runs. A change that alters output bytes on purpose regenerates the manifest
with `PYTHONPATH=src python tests/test_golden_bytes.py`, updates
FIXTURE_DIGESTS by hand and names the changed files in CHANGES.md.

Network outputs (`train` of the mlp, `render --model-file` and `sweep`) depend
on the numpy/BLAS build: the manifest header records it, and on another build
those files are skipped while every other file is still compared. The same
gate applies to the digests of the acceptance sweep fixture's tables.
"""
import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from adaptrobust.cli import main, sweep_cells_csv, sweep_table_csv

MANIFEST = Path(__file__).resolve().with_name("golden_sha256.txt")
DATA, TEST = "out/data/data/dataset.csv", "out/test-data/data/dataset.csv"
NOISY = "out/noisy-data/data/dataset.csv"
RUNS = {  # run name -> arguments; later runs read earlier runs' files
    "data": ["generate", "--shape", "circles", "--n", "120", "--seed", "1"],
    "test-data": ["generate", "--shape", "circles", "--n", "60", "--seed", "2"],
    "noisy-data": ["generate", "--shape", "sines", "--n", "150", "--seed", "4",
                   "--label-noise", "0.1"],
    "augment": ["augment", "--data", DATA, "--c", "0.5", "--m", "2", "--seed", "3"],
    "train-mlp": ["train", "--data", DATA, "--test", TEST, "--epochs", "200", "--lr", "0.3",
                  "--batch", "16", "--probes", "20"],
    "train-nn1": ["train", "--data", DATA, "--test", TEST, "--model", "nn1", "--probes", "20"],
    "margin-shape": ["margin", "--shape", "circles", "--n", "300", "--probes", "20",
                     "--grid", "0.05,0.1,0.12,0.124,0.126,0.13,0.2"],
    "margin-data": ["margin", "--data", NOISY, "--n", "300", "--probes", "20"],
    "two-point": ["scenario", "two_point"],
    "four-point": ["scenario", "four_point"],
    "two-rectangles": ["scenario", "two_rectangles", "--mc", "5000"],
    "render-mlp": ["render", "--model-file", "out/train-mlp/models/model.txt", "--data", DATA,
                   "--ambient", "300"],
    "render-nn1": ["render", "--nn1-data", DATA, "--data", DATA, "--ambient", "300"],
    # acceptance criterion 13's configuration
    "sweep": ["sweep", "--shapes", "circles,boxes", "--n", "80", "--m", "2", "--seeds", "1",
              "--epochs", "5", "--fixed-radii", "0.1,0.5", "--probes", "10", "--ambient", "100",
              "--base-seed", "3"],
}
NETWORK_RUNS = {"train-mlp", "render-mlp", "sweep"}
# sha256 of the acceptance sweep fixture's tables, made on the manifest's build
FIXTURE_DIGESTS = {
    "sweep_cells.csv": "badd3194b7566f29e9e80ee5d5367311476f1b998620f5c71adf5582c35b3dcc",
    "sweep_table.csv": "177d949d277c3195e493195f2ed3989c6062df3ee67016b5783bf9c1aba6e01f",
}


def build() -> str:
    """numpy and BLAS versions, plus a digest of the matrix products the
    network computes: BLAS picks its kernels by CPU at run time, and two
    kernels can round the same product differently."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    for n in (16, 45, 64, 300):
        X, A, W, w = rng.random((n, 2)), rng.random((n, 10)), rng.random((10, 10)), rng.random(10)
        for product in (X @ W[:2], A @ W, A @ w, A.T @ A, A.T @ A[:, 0], A @ W.T):
            h.update(product.tobytes())
    return (f"numpy {np.__version__}; BLAS {blas['name']} {blas['version']}; "
            f"matmul {h.hexdigest()[:12]}")


def digests() -> dict[str, str]:
    """Run every entry of RUNS under ./out; sha256 of each file written, keyed
    by its path below ./out."""
    runner = CliRunner()
    for name, args in RUNS.items():
        res = runner.invoke(main, args + ["--out", "out", "--name", name], catch_exceptions=False)
        assert res.exit_code == 0, res.output
    files = sorted(p for p in Path("out").rglob("*") if p.is_file())
    return {p.relative_to("out").as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files}


def read_manifest() -> tuple[str, dict[str, str]]:
    header, *lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    return header.removeprefix("# build: "), {f: h for h, f in (ln.split("  ") for ln in lines)}


def test_outputs_match_the_golden_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded, want = read_manifest()
    got = digests()
    assert sorted(got) == sorted(want)
    changed = [f for f in want if got[f] != want[f]]
    assert [f for f in changed if f.split("/")[0] not in NETWORK_RUNS] == []
    if recorded != build():
        pytest.skip(f"network outputs not compared: the manifest was made on {recorded!r}, "
                    f"this is {build()!r}")
    assert changed == []


@pytest.mark.slow
def test_acceptance_sweep_matches_its_digests(sweep_result):
    # the fixture trains networks, so it is compared on the manifest's build only
    recorded, _ = read_manifest()
    if recorded != build():
        pytest.skip(f"sweep digests not compared: they were made on {recorded!r}, "
                    f"this is {build()!r}")
    shapes = tuple(dict.fromkeys(cell.shape for cell in sweep_result.cells))
    tables = {"sweep_cells.csv": sweep_cells_csv(sweep_result),
              "sweep_table.csv": sweep_table_csv(sweep_result, shapes)}
    assert {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in tables.items()} == FIXTURE_DIGESTS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        lines = [f"# build: {build()}"] + [f"{h}  {f}" for f, h in digests().items()]
    MANIFEST.write_text("\n".join(lines) + "\n", encoding="utf-8")
