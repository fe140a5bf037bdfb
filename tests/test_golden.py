"""Committed digests of ``validate``'s outputs.

The SHA-256 digests below were taken from ``summary.csv`` and
``density_mean.csv`` before ``validate`` streamed its fresh draws in
chunks, so they pin the bits of the one-pass computation. A change that
means to move them must say so and regenerate them.

``certificate.average_flow`` computes ``u @ traj``, a BLAS product whose
summation order may depend on the BLAS build (ROADMAP item 9). Both
files carry ``mean_objective`` in their header, so the digests hold for
the BLAS they were taken with: OpenBLAS 0.3.31 under numpy 2.4 on
x86-64.
"""

import hashlib
from pathlib import Path

import pytest

from vslcert.cli import main

ROOT = Path(__file__).resolve().parents[1]

# (scenario, speeds, j_hat, n_val, seed) -> (summary.csv, density_mean.csv)
DIGESTS = {
    ("tests/data/highway5.json", "120,120,120,80,120", "123000.0", 2000, 0): (
        "0f56de58bf5f6ab7b2b312959917bd577eb22246b378cb43bfa1b4e8317671b4",
        "45bd35768b3a26d1bcc9e417c94c02b13410d5aa38f2e3a248d8eb4ddd63f206"),
    ("tests/data/highway5.json", "120,120,120,80,120", "123000.0", 2000, 1): (
        "bbe4f9e87b282e2016d4fc2c1ec3476b1edab8c7f6eb1e8529942abad2cb4bf1",
        "b147154f53676bfb09f22d8533686a0fb21a9471c3a3286d5442400f32969237"),
    ("tests/data/desk2.json", "0.8,0.4", "1.0", 1000, 0): (
        "4e98887a5c8244e9b9dd2f3566e6990dafe3c8173e3d1bc50047b5ca746f5230",
        "473ce23ef1dd87ba192523cf3ae41155171ec366161e72f4320308336d377e0b"),
    ("tests/data/desk2.json", "0.8,0.4", "1.0", 1000, 1): (
        "c6747c838a7e25c7cfccaf75b9972ad27b1fe6b8d211ac4301f71f7202b2fd24",
        "995c72a0543c67afc286f1710ed1bf7559b62d9ae5ff34150f4a097170ca706a"),
    # a single-cell desk instance
    ("perfbench/scenarios/desk_9001.json", "0.5843", "1.0", 1000, 0): (
        "07100c8752726cc341da8ca1cb7d6829ff19f5491a7783eb9f7b486f48918895",
        "e7797316224b14d3d6ef8214881496fb3203ee3353393a830c4d7dc75f728e79"),
    ("perfbench/scenarios/desk_9001.json", "0.5843", "1.0", 1000, 1): (
        "34193351461d6170b642fb972be6863dce2aaa740485040a0d151191d952fcd8",
        "53b82d39e67995ffef81189f9282a3d5af13ea0bac58ee9218ffed9afce090e0"),
}


@pytest.mark.parametrize("case", sorted(DIGESTS), ids=lambda c: f"{Path(c[0]).stem}-{c[4]}")
def test_validate_outputs_match_digests(tmp_path, case):
    scenario, speeds, jhat, n_val, seed = case
    rc = main(["validate", "--scenario", str(ROOT / scenario), "--speeds", speeds,
               "--jhat", jhat, "--nval", str(n_val), "--seed", str(seed),
               "--out", str(tmp_path)])
    assert rc == 0
    seen = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("summary.csv", "density_mean.csv"))
    assert seen == DIGESTS[case]
