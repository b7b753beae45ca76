"""Output bytes pinned across versions.

Acceptance 8 compares two runs of one build; these tests pin the sha256 of
the files ``run --out``, ``sweep`` and ``compare`` write, as computed by the
0.1.0 code before the experiment layer was refactored.  A change to any of
them is a change of published results and must say so.

The ``file:`` cases run from a temporary working directory with a relative
``file:net.cfg``, so the path recorded in the ``scenario`` column and in
the meta file is the same on every machine.
"""

from __future__ import annotations

import hashlib

import pytest

from hcasim.cli import main

NET_CFG = """\
q = 0.3
alpha = 0.5
horizon = 120
min_green = 2
[scenario]
kind = grid
roads_per_direction = 2
block = 10
"""


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def file_scenario(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "net.cfg").write_text(NET_CFG, encoding="utf-8")
    return "file:net.cfg"


def _outputs(tmp_path, argv, capsys, meta=True):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    shas = [_sha(out)]
    if meta:
        shas.append(_sha(tmp_path / "out.csv.meta.json"))
    return shas


def test_run_out_bytes_builtin(tmp_path, capsys):
    argv = ["run", "--scenario", "grid", "--q", "0.15", "--steps", "60", "--seed", "3"]
    assert _outputs(tmp_path, argv, capsys, meta=False) == [
        "55e6bd9752e5060b7646a8664bf293e3ec73953c48006772d9007d742d510c48",
    ]


def test_run_out_bytes_file_with_overrides(tmp_path, capsys, file_scenario):
    argv = ["run", "--scenario", file_scenario, "--q", "0.2", "--seed", "7"]
    assert _outputs(tmp_path, argv, capsys, meta=False) == [
        "1da39c73631c6b8be8b561594dfbe3935e505734d609e040343061f9cc6605d6",
    ]


def test_sweep_bytes_builtin(tmp_path, capsys):
    argv = [
        "sweep", "--scenario", "arterial", "--q", "0.2", "--alpha-list", "0,0.25,0.5",
        "--runs", "2", "--steps", "80",
        "--seed", "4", "--jobs", "1",
    ]
    assert _outputs(tmp_path, argv, capsys) == [
        "8dd07cec6e59b6c607e6a228b0814a163ab750ef040616db3924caaad6571395",
        "41fbc1e188fa8c93e9a4d54c7b0efe8ffca0028f7fdd054edffa452396a7ba69",
    ]


def test_sweep_bytes_file_with_overrides(tmp_path, capsys, file_scenario):
    argv = [
        "sweep", "--scenario", file_scenario, "--q", "0.2", "--seed", "7",
        "--alpha-list", "0,0.5,1",
        "--runs", "2", "--jobs", "1",
    ]
    assert _outputs(tmp_path, argv, capsys) == [
        "ff241fe3e7cb97707b6dedd28b416a3cd7446423a411b296065c4d96cece1536",
        "375f6714a9fee807bf551c4fd9f94885fb6e9694dff3e2c3fe74ec428acea46d",
    ]


def test_compare_bytes_builtin(tmp_path, capsys):
    argv = [
        "compare", "--scenario", "grid", "--q-list", "0.1,0.2", "--runs", "3",
        "--steps", "40", "--seed", "5", "--jobs", "1",
    ]
    assert _outputs(tmp_path, argv, capsys) == [
        "bf0f32610a45732252aa1a423c8e9f91b85695f1637c5db237071ad9791b43cc",
        "f5a53052133b9f3a6ebc6bd2f65c5153547443b156a5fb7098542cfc06d6bcf6",
    ]


def test_compare_bytes_file_with_overrides(tmp_path, capsys, file_scenario):
    # no --alpha: the hca variant runs at the file's weight (0.5)
    argv = [
        "compare", "--scenario", file_scenario, "--q-list", "0.1,0.25",
        "--runs", "3", "--seed", "7", "--jobs", "1",
    ]
    assert _outputs(tmp_path, argv, capsys) == [
        "cd4aa6d55969c7b89b729117b7c55be54cf80887bfac6ddc2cf0ccf42770266d",
        "1ea95ec80c321e8137c7eb943431ea36826a53ddb11f67c5b1744325808170cf",
    ]
