"""Committed digests of the commands' outputs.

The SHA-256 digests of ``validate``'s ``summary.csv`` and
``density_mean.csv`` were taken before ``validate`` streamed its fresh
draws in chunks, so they pin the bits of the one-pass computation. Those
of ``certify``'s ``certificate.csv``, ``brute-force``'s
``brute_force.csv`` and ``solve``'s ``result.csv`` (its ``wall_s`` line
masked) were taken when ``brute-force`` and ``solve`` came to score
every profile on the prefix tree, and those at 30 draws before each
prefix came to hand its children its last cell's outflow. A change that
means to move any of them must say so and regenerate them.

``certificate.average_flow`` computes ``u @ traj``, a BLAS product whose
summation order may depend on the BLAS build (ROADMAP, "Summation
order" under the run-record item). Both files carry ``mean_objective``
in their header, so the digests hold for the BLAS they were taken with:
OpenBLAS 0.3.31 under numpy 2.4 on x86-64. A digest that moves names the
numpy and the BLAS it moved under.
"""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from vslcert.cli import main

ROOT = Path(__file__).resolve().parents[1]

def numeric_stack() -> str:
    """numpy's version and the BLAS its build reports, for the message of
    a digest that moved."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "not reported"
    return f"digests moved under numpy {np.__version__}, BLAS {blas}"


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
    assert seen == DIGESTS[case], numeric_stack()


# (scenario, certify's speeds, seed, --count) -> (certificate.csv,
# brute_force.csv, result.csv with its wall_s line masked). At the default
# 3 draws a change to the order of a row's step sums can keep every bit;
# the 30-draw cases move in the last digit under it.
SOLVER_DIGESTS = {
    ("tests/data/highway5.json", "120,120,120,80,120", 0, 3): (
        "603449fce68c5ba1111793f5a657a36d1b97b175b60f29ad44370f5f0629ef01",
        "6f869a666f74c2d71b4a0149f66ca46aaa4b64c63c6231625ff26cc8c413ecc5",
        "052512afec829e92b63d11ac6b6487881ea48446545d8c9f1beeee68581eccb7"),
    ("tests/data/highway5.json", "120,120,120,80,120", 1, 3): (
        "718a59360ae7002c534a2abb7aa2610d606c6e3a90278573a08a6f79e0e17209",
        "8a426c8d55c5209fe91fe1bd88a4c56d82be9cdfb9d5cc63e078fec0ca94f17d",
        "eb760d54939750a76a4639c78ed107b6b70722b5deaabb41c691897b5194fb80"),
    ("tests/data/desk2.json", "0.8,0.4", 0, 3): (
        "275e07c02c2ab440db47ef05d335e69f72e1e6cfd7a59f07c5ccad7757d9e232",
        "a49efa6173a600901ba7c77ad4340af7b0a1a58b122dc157103f81e863de8143",
        "c9b841c1a58dce41116c5e1239009c0622b2de902103b3a6e30a1db2eb603168"),
    ("tests/data/desk2.json", "0.8,0.4", 1, 3): (
        "8a749b035930a56725dc2e8d73c1ef959ef4f3fe4302c87df8dead1fe4977dd5",
        "bfd0cd57fd6e527aaf70e5f6b5adfdc1952b53949696c38804c25a6d8eaf90dc",
        "c1aaf89fb9be265b3cd82eda4d4515c13589ca04fd771feeed2fadb2c2ced1c1"),
    ("perfbench/scenarios/desk_9001.json", "0.5843", 0, 3): (
        "01d3c7a57955ec4376b123ba9f2fffd63714733f846006e1a968ae28a233071c",
        "c9b6e0f8af9fb7606cbde975c26dd71662eceeecc0d6a86f9b1245f2cdf96a25",
        "8d9518565bc107ea4c8ab6c9796945a8251a4feb8ea112e0284c8058aca159a3"),
    ("perfbench/scenarios/desk_9001.json", "0.5843", 1, 3): (
        "077f925931e2a2fac38077a9305d0c21f7b9b5ca7ecca8f689a79c76222a69d8",
        "f17c26732a86e7f554e78205683d68c0974650b7db8bdd581cdfb19843401694",
        "2d262e70ced0362cddddfb075102e272ced44a9770871aec3f07df5704ec8fad"),
    ("tests/data/highway5.json", "120,120,120,80,120", 0, 30): (
        "21e6a9dff6f8c794bbad3d494cf73183056a8684320e516298fe67053959f046",
        "866643f595cc4b99fb23d0ce9a495d4b47172aff5aa090bb58a518f2fe46e03b",
        "d16c50ce46fd218a15bc0ed4e1fd77d370f78a35a12f7c92f20be4577919ec89"),
    ("tests/data/highway5.json", "120,120,120,80,120", 1, 30): (
        "5cc077dbd486e17af47113d987a89efb2579dbe6caff509520ce581a7a98b3cc",
        "c305bf37a9a5a66eebd5a24362204dcd6e8cd47b5dea82014989fe95eb143496",
        "80e289a3161d4725cf51c269d738d33099f8cb16315ef6b32936322578f194ff"),
}


@pytest.mark.parametrize("case", sorted(SOLVER_DIGESTS), ids=lambda c: (
    f"{Path(c[0]).stem}-{c[2]}" + ("" if c[3] == 3 else f"-count{c[3]}")))
def test_solver_outputs_match_digests(tmp_path, case):
    scenario, speeds, seed, count = case
    common = ["--scenario", str(ROOT / scenario), "--seed", str(seed),
              "--count", str(count), "--out", str(tmp_path)]
    assert main(["certify", *common, "--speeds", speeds]) == 0
    assert main(["brute-force", *common]) == 0
    assert main(["solve", *common]) == 0
    seen = tuple(
        hashlib.sha256(re.sub(rb"(?m)^# wall_s=.*$", b"# wall_s=",
                              (tmp_path / name).read_bytes())).hexdigest()
        for name in ("certificate.csv", "brute_force.csv", "result.csv"))
    assert seen == SOLVER_DIGESTS[case], numeric_stack()
