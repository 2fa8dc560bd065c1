import hashlib
import importlib.util
import json
import os
import shutil
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
    args = ["rw", fixture("belt2.json"), "--window", "-1:0,-4:0", "--max-twists", "3"]
    out = run_cli(args, tmp_path)
    assert out.returncode == 0
    assert "0\t-2\t1" in out.stdout.splitlines()
    assert "stabilized[1]=true" in out.stderr
    # --json hits the entry the first run cached: it holds exactly these fields
    out = run_cli(args + ["--json"], tmp_path)
    assert out.returncode == 0
    assert json.loads(out.stdout) == {
        "dims": [{"dim": "1", "h": "0", "q": "-2"}, {"dim": "1", "h": "0", "q": "0"}],
        "notes": ["stabilized[1]=true"],
        "stabilized": {"1": True},
        "twists": {"1": 1},
        "window": "h:[-1,0] q:[-4,0]",
        "zero": False,
    }


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
    assert len(list(tmp_path.iterdir())) == 2  # the oracle's request is keyed apart


def test_determinism_and_cache(tmp_path):
    first = run_cli(["kh", fixture("trefoil.json")], tmp_path)
    second = run_cli(["kh", fixture("trefoil.json")], tmp_path)  # cache hit
    third = run_cli(["kh", fixture("trefoil.json"), "--no-cache"], tmp_path)
    assert first.stdout == second.stdout == third.stdout
    assert first.returncode == second.returncode == third.returncode == 0
    assert any(f.endswith(".json") for f in os.listdir(tmp_path))


def test_json_hit_shares_the_text_entry(tmp_path):
    text = run_cli(["kh", fixture("trefoil.json")], tmp_path)
    hit = run_cli(["kh", fixture("trefoil.json"), "--json"], tmp_path)
    assert text.returncode == hit.returncode == 0
    assert len(list(tmp_path.iterdir())) == 1
    rows = ["\t".join((r["h"], r["q"], r["dim"])) for r in json.loads(hit.stdout)["dims"]]
    assert rows == text.stdout.splitlines() != []


def test_stabilization_failure_exit_code_on_a_hit(tmp_path):
    argv = ["rw", fixture("belt2.json"), "--window", "0:1,-4:0", "--max-twists", "2"]
    miss = run_cli(argv, tmp_path)
    hit = run_cli(argv, tmp_path)
    assert len(list(tmp_path.iterdir())) == 1
    assert miss.returncode == hit.returncode == 3
    assert (miss.stdout, miss.stderr) == (hit.stdout, hit.stderr)
    assert hit.stderr == "stabilized[1]=false\n"


@pytest.mark.parametrize(
    "argv, corrupt",
    [
        (["kh", "trefoil.json"], "{}"),
        (["kh", "trefoil.json"], "[]"),
        (["lee", "hopf.json"], '{"dims": []}'),
        (["rw", "belt2.json", "--window", "-1:0,-4:0"], '{"dims": [], "stable": {}}'),
        (["rw", "belt2.json", "--window", "-1:0,-4:0"],
         '{"dims": [], "stabilized": {}, "notes": 5}'),
        (["lasagna", "empty_s1s2.json", "--r-max", "2"], '{"dims": [], "stabilized": {}}'),
    ],
)
def test_malformed_cache_entry_is_recomputed(tmp_path, argv, corrupt):
    cmd, name, *options = argv
    first = run_cli([cmd, fixture(name), *options], tmp_path)
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(corrupt)
    again = run_cli([cmd, fixture(name), *options], tmp_path)
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


def test_non_planar_input_exit_code(tmp_path):
    # an R2 poke of the Hopf link across edges that share no face: the
    # crossings' slot orders embed in no plane, an input error, not a traceback
    path = os.path.join(FIXTURES, "invalid", "nonplanar_hopf_poke.json")
    out = run_cli(["kh", path, "--no-cache"], tmp_path)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == (
        "error: not planar: the piece of crossing 0 (4 crossings) traces 4 faces, a planar one 6\n"
    )


def test_capacity_limit_exit_code(tmp_path):
    # belt2's region is crossed by strands: refused before any stage is built
    out = run_cli(["lasagna", fixture("belt2.json"), "--r-max", "2", "--no-cache"], tmp_path)
    assert out.returncode == 4
    assert out.stdout == ""
    assert out.stderr == (
        "error: region 1 is crossed by 2 strands: "
        "crossed regions wait for the scanning complex (ROADMAP item 3)\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        # an over-long offset is an input error, 2-divisible class or not
        (["belt1.json", "--alpha", "0,0"], "offset vector longer than the number of regions"),
        (["empty_s1s2.json", "--alpha", "0,0"], "offset vector longer than the number of regions"),
        (["belt2.json", "--alpha", "0,0"], "offset vector longer than the number of regions"),
        # a transit strand that is not a free loop, before the crossed region's refusal
        (["belt11_poke.json"], "encircle supports free-loop transit strands only"),
    ],
)
def test_lasagna_input_errors_come_before_verdicts(argv, message, tmp_path):
    out = run_cli(["lasagna", fixture(argv[0]), *argv[1:], "--r-max", "2", "--no-cache"], tmp_path)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"error: {message}\n"


def test_stabilization_failure_exit_code(tmp_path):
    out = run_cli(
        ["rw", fixture("belt2.json"), "--window", "-2:10,-40:0", "--max-twists", "2"],
        tmp_path,
    )
    assert out.returncode == 3
    assert "stabilized[1]=false" in out.stderr


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate", "hopf.json"],
        ["oracle", "hopf.json"],
        ["kh"],
        ["kh", "hopf.json", "hopf.json"],
        ["kh", "hopf.json", "--bogus"],
        ["kh", "hopf.json", "--max-twists", "3"],  # an option of another command
        ["kh", "hopf.json", "--json=yes"],
        ["rw", "belt2.json", "--max", "3"],  # prefixes of an option are not accepted
        ["rw", "belt2.json", "--max-twists"],
        ["kh", "hopf.json", "--window"],
        ["rw", "belt2.json", "--max-twists", "three"],
        ["lasagna", "empty_s1s2.json", "--r-max=2.5"],
    ],
)
def test_usage_error_exit_code(tmp_path, monkeypatch, capsys, argv):
    from lasagna import cli

    monkeypatch.setenv("LASAGNA_CACHE_DIR", str(tmp_path))
    argv = [fixture(a) if a.endswith(".json") else a for a in argv]
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["rw", "belt2.json", "--help"]])
def test_help_names_every_command(tmp_path, monkeypatch, capsys, argv):
    from lasagna import cli

    monkeypatch.setenv("LASAGNA_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(cli, "serve", lambda args: pytest.fail("--help served a request"))
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    for command in ("kh", "rw", "lasagna", "lee", "oracle kh"):
        assert f"lasagna {command} DIAGRAM" in out
    assert "--max-twists" in out and "--cache-dir" in out
    assert list(tmp_path.iterdir()) == []


def test_spellings_of_one_request_share_one_entry(tmp_path, capsys):
    from lasagna import cli

    belt2 = fixture("belt2.json")
    spellings = [
        ["rw", belt2, "--window", "-1:0,-4:0"],
        ["rw", belt2, "--window=-1:0,-4:0"],
        ["rw", "--max-twists", "3", belt2, "--window", "-1:0,-4:0"],  # the default, given
        ["rw", belt2, "--window=-1:0,-4:0", "--max-twists=3"],
    ]
    outputs = []
    for argv in spellings:
        assert cli.run([*argv, "--cache-dir", str(tmp_path)]) == 0
        outputs.append(capsys.readouterr())
        assert len(list(tmp_path.iterdir())) == 1
    assert outputs == [outputs[0]] * len(spellings)
    assert outputs[0].out == "0\t-2\t1\n0\t0\t1\n"


def test_parsed_fields_are_the_cache_key_contract():
    # serve keys a request on these fields, so they must not drift; the argvs
    # have the benchmark's shape: options after the diagram, --cache-dir last
    from lasagna import cli

    shared = {"diagram": "d.json", "window": None, "json": False, "no_cache": False,
              "cache_dir": "/c"}
    cases = [
        (["kh", "d.json"], cli.cmd_kh, {"command": "kh", "oracle": False}),
        (["oracle", "kh", "d.json"], cli.cmd_kh,
         {"command": "oracle", "oracle_command": "kh", "oracle": True}),
        (["rw", "d.json", "--window", "-1:0,-4:0", "--max-twists", "3"], cli.cmd_rw,
         {"command": "rw", "window": "-1:0,-4:0", "max_twists": 3}),
        (["lasagna", "d.json", "--r-max", "2"], cli.cmd_lasagna,
         {"command": "lasagna", "alpha": "", "r_max": 2}),
        (["lee", "d.json"], cli.cmd_lee, {"command": "lee"}),
    ]
    for argv, func, fields in cases:
        assert vars(cli.parse_args([*argv, "--cache-dir", "/c"])) == {
            **shared, "func": func, **fields}


def python_c(code, cache_dir, **env):
    """Run `python -c code` with the cache directory and extra environment set."""
    env = dict(os.environ, LASAGNA_CACHE_DIR=str(cache_dir), **env)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_cache_hit_loads_only_cli_and_diagram(tmp_path):
    primed = run_cli(["kh", fixture("trefoil.json")], tmp_path)
    assert primed.returncode == 0
    (entry,) = tmp_path.iterdir()
    bare = python_c("import sys; print(*sys.modules)", tmp_path)
    # the table goes to stderr, so stdout holds the exit code and the loaded modules
    hit = python_c(
        "import io, sys\n"
        "from lasagna.cli import run\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        f"code = run(['kh', {fixture('trefoil.json')!r}])\n"
        "sys.stderr.write(sys.stdout.getvalue())\n"
        "sys.stdout = out\n"
        "print(code, *sys.modules)\n",
        tmp_path,
    )
    code, *loaded = hit.stdout.split()
    assert code == "0" and hit.stderr == primed.stdout != ""
    assert list(tmp_path.iterdir()) == [entry]
    assert {m for m in loaded if m.split(".")[0] == "lasagna"} == {
        "lasagna", "lasagna.cli", "lasagna.diagram"}
    new = set(loaded) - set(bare.stdout.split())
    assert not new & {"dataclasses", "argparse", "gettext", "locale"}
    if any(importlib.util.find_spec(m) for m in ("_sha256", "_sha2")):
        assert "_hashlib" not in new and "hashlib" not in new  # no OpenSSL for two digests


def test_builtin_sha256_matches_hashlib():
    from lasagna import cli

    with open(fixture("t44.json"), "rb") as fh:
        diagram = fh.read()
    request = json.dumps({"command": "kh", "diagram": diagram.decode(), "oracle": False,
                          "version": cli._source_version(), "window": None}, sort_keys=True)
    for data in (b"", request.encode(), diagram):
        assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    digest = cli.sha256()
    digest.update(b"cli.py\0")
    digest.update(diagram)
    assert digest.hexdigest() == hashlib.sha256(b"cli.py\0" + diagram).hexdigest()


def source_version(src_dir, hash_seed):
    out = python_c("import lasagna.cli as c; print(c._source_version())", src_dir,
                   PYTHONPATH=str(src_dir), PYTHONHASHSEED=str(hash_seed))
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_source_version_is_a_digest_of_the_sources(tmp_path):
    import lasagna

    copy = tmp_path / "lasagna"
    shutil.copytree(os.path.dirname(lasagna.__file__), copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    version = source_version(tmp_path, 0)
    assert len(version) == 64 and version == source_version(tmp_path, 1)
    rw = copy / "rw.py"
    data = bytearray(rw.read_bytes())
    i = data.index(b"Rozansky")
    data[i] = ord("r")  # one byte of a docstring
    rw.write_bytes(bytes(data))
    changed = source_version(tmp_path, 0)
    assert changed != version and changed == source_version(tmp_path, 1)


def test_source_version_only_on_the_cache_path(tmp_path, monkeypatch, capsys):
    from lasagna import cli

    calls = []
    real = cli._source_version
    monkeypatch.setattr(cli, "_source_version", lambda: calls.append(1) or real())
    argv = ["kh", fixture("unknot.json"), "--cache-dir", str(tmp_path)]
    assert cli.run(argv + ["--no-cache"]) == 0
    assert calls == [] and list(tmp_path.iterdir()) == []
    assert cli.run(argv) == 0
    assert calls == [1] and len(list(tmp_path.iterdir())) == 1
    assert capsys.readouterr().out == "0\t-1\t1\n0\t1\t1\n" * 2


def test_internal_error_exit_code(tmp_path):
    # a failed invariant inside the computation crashes visibly
    out = python_c(
        "import sys\n"
        "from lasagna import cli, khovanov\n"
        "def broken(*args, **kwargs):\n"
        "    raise AssertionError('invariant broken')\n"
        "khovanov.khr2_dims = broken\n"
        f"sys.argv = ['lasagna', 'kh', {fixture('trefoil.json')!r}]\n"
        "cli.main()\n",
        tmp_path,
    )
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("Traceback") and "AssertionError: invariant broken" in out.stderr
    assert list(tmp_path.iterdir()) == []
