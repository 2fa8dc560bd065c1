import json
import os
import subprocess
import sys

import pytest

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def run_cli(args, cache_dir, **kw):
    env = dict(os.environ)
    env["LASAGNA_CACHE_DIR"] = str(cache_dir)
    proc = subprocess.run(
        [sys.executable, "-m", "lasagna.cli"] + args,
        capture_output=True,
        text=True,
        env=env,
        **kw,
    )
    return proc


def fixture(name):
    return os.path.join(FIXTURES, name)


def test_kh_unknot_tsv(tmp_path):
    out = run_cli(["kh", fixture("unknot.json")], tmp_path)
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["0\t-1\t1", "0\t1\t1"]


def test_kh_json(tmp_path):
    out = run_cli(["kh", fixture("unknot.json"), "--json"], tmp_path)
    data = json.loads(out.stdout)
    assert {"h": "0", "q": "-1", "dim": "1"} in data["dims"]


def test_rw_belt(tmp_path):
    out = run_cli(
        ["rw", fixture("belt2.json"), "--window", "-1:0,-4:0", "--max-twists", "3"],
        tmp_path,
    )
    assert out.returncode == 0
    assert "0\t-2\t1" in out.stdout.splitlines()
    assert "stabilized[1]=true" in out.stderr


def test_rw_odd_strand_zero(tmp_path):
    out = run_cli(["rw", fixture("belt1.json"), "--window", "-2:2,-6:0"], tmp_path)
    assert out.returncode == 0
    assert out.stdout.strip() == ""
    assert "zero" in out.stderr


def test_lasagna_fixture(tmp_path):
    out = run_cli(
        [
            "lasagna",
            fixture("empty_s1s2.json"),
            "--alpha",
            "0",
            "--r-max",
            "3",
            "--window",
            "-1:1,-6:0",
        ],
        tmp_path,
    )
    lines = out.stdout.splitlines()
    for expected in ("0\t0\t1", "0\t-2\t1", "0\t-4\t1", "0\t-6\t1"):
        assert expected in lines
    assert out.returncode == 0


def test_lee_subcommand(tmp_path):
    out = run_cli(["lee", fixture("hopf.json")], tmp_path)
    assert out.returncode == 0
    assert out.stdout.strip() == "4"


def test_oracle_matches_kh(tmp_path):
    a = run_cli(["kh", fixture("hopf.json")], tmp_path)
    b = run_cli(["oracle", "kh", fixture("hopf.json")], tmp_path)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_determinism_and_cache(tmp_path):
    first = run_cli(["kh", fixture("trefoil.json")], tmp_path)
    second = run_cli(["kh", fixture("trefoil.json")], tmp_path)  # cache hit
    third = run_cli(["kh", fixture("trefoil.json"), "--no-cache"], tmp_path)
    assert first.stdout == second.stdout == third.stdout
    assert first.returncode == second.returncode == third.returncode == 0
    assert any(f.endswith(".json") for f in os.listdir(tmp_path))


@pytest.mark.parametrize(
    "argv, corrupt",
    [
        (["kh", "trefoil.json"], "{}"),
        (["kh", "trefoil.json"], "[]"),
        (["lee", "hopf.json"], '{"dims": []}'),
    ],
)
def test_malformed_cache_entry_is_recomputed(tmp_path, argv, corrupt):
    cmd, name = argv
    first = run_cli([cmd, fixture(name)], tmp_path)
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(corrupt)
    again = run_cli([cmd, fixture(name)], tmp_path)
    assert again.returncode == first.returncode == 0, again.stderr
    assert again.stdout == first.stdout != ""
    assert entry.read_text() != corrupt  # the bad entry was overwritten


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    out = run_cli(["kh", str(bad)], tmp_path)
    assert out.returncode == 2
    assert "error" in out.stderr
    missing = run_cli(["kh", str(tmp_path / "nope.json")], tmp_path)
    assert missing.returncode == 2


def test_capacity_limit_exit_code(tmp_path):
    # belt2 at r=2 needs a 16-crossing dense cube, over the 14-crossing guard
    out = run_cli(["lasagna", fixture("belt2.json"), "--r-max", "2", "--no-cache"], tmp_path)
    assert out.returncode == 4
    assert out.stdout == ""
    assert out.stderr == "error: dense cube guard: 16 crossings exceeds 14\n"


def test_stabilization_failure_exit_code(tmp_path):
    out = run_cli(
        ["rw", fixture("belt2.json"), "--window", "-2:10,-40:0", "--max-twists", "2"],
        tmp_path,
    )
    assert out.returncode == 3
    assert "stabilized[1]=false" in out.stderr
