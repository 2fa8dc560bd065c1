"""The CLI's pinned answers, one row per request, run in-process through `cli.run`.

A row is (argv, exit code, stdout, stderr); its diagrams are files under
`fixtures/`.  Each row runs twice against its own cache directory, a miss and
then a hit: both must print the row byte for byte, and the directory then
holds one entry for exit 0 or 3 and none for exit 2 or 4.  RELATIONS pins
answers by how two requests relate rather than by value.  One request per
exit code also runs as a process, through `python -m lasagna.cli`.
"""

import os
import subprocess
import sys

import pytest

from lasagna import cli

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def tsv(*rows):
    """Table rows "h q dim" as the CLI prints them."""
    return "".join("\t".join(row.split()) + "\n" for row in rows)


def stable(h, qs, value="true"):
    """lasagna's flag lines for grading (h, q), q in qs."""
    return "".join(f"stable[({h},{q})]={value}\n" for q in qs)


def argv_of(cmdline, cache_dir):
    """The argv of a row's request, each diagram a fixture path, with --cache-dir."""
    words = [os.path.join(FIXTURES, w) if w.endswith(".json") else w for w in cmdline.split()]
    return [*words, "--cache-dir", str(cache_dir)]


T44 = tsv("-8 8 1", "-8 10 3", "-8 12 2", "-6 4 1", "-6 6 4", "-6 8 3", "-5 6 1", "-5 8 1",
          "-4 2 1", "-4 4 1", "-3 4 1", "-2 0 1", "0 -4 1", "0 -2 1")
BELT2 = tsv("0 -2 1", "0 0 1")
BELT2_UP_TO_H1 = tsv("0 -2 1", "0 0 1", "1 -2 1")
# Lee rank 2^components: the scan composes and glues with c = 1
LEE = {"t44": 16, "figure8": 2, "trefoil": 2, "trefoil_left": 2, "unknot": 2,
       "unknot_fr3": 2, "hopf": 4, "t22": 4, "t24": 4, "t26": 4, "unlink2": 4}
# the dense cube against the scan, on every fixture without surgery regions
# but t44 (its dense oracle takes about 24 s; its kh table is a row)
ORACLE_FIXTURES = ["figure8", "hopf", "t22", "t24", "t26", "trefoil", "trefoil_left",
                   "unknot", "unknot_fr3", "unlink2"]

ROWS = [
    ("kh t44.json", 0, T44, ""),
    ("kh unknot.json", 0, tsv("0 -1 1", "0 1 1"), ""),
    ("kh unknot.json --json", 0,
     '{"dims": [{"dim": "1", "h": "0", "q": "-1"}, {"dim": "1", "h": "0", "q": "1"}]}\n', ""),
    *[(f"lee {name}.json", 0, f"{rank}\n", "") for name, rank in LEE.items()],
    ("rw belt2.json --window -1:0,-4:0 --max-twists 3", 0, BELT2, "stabilized[1]=true\n"),
    ("rw belt2.json --window -1:0,-4:0 --max-twists 3 --json", 0,
     '{"dims": [{"dim": "1", "h": "0", "q": "-2"}, {"dim": "1", "h": "0", "q": "0"}], '
     '"notes": ["stabilized[1]=true"], "stabilized": {"1": true}, "twists": {"1": 1}, '
     '"window": "h:[-1,0] q:[-4,0]", "zero": false}\n', ""),
    # the k vs k+1 gate failing: the h = 1 classes differ at k = 1 and 2, and
    # --max-twists 2 leaves no third level, so the exit is 3, read off the entry
    ("rw belt2.json --window 0:1,-4:0 --max-twists 2", 3, BELT2_UP_TO_H1, "stabilized[1]=false\n"),
    ("rw belt2.json --window -2:10,-40:0 --max-twists 2", 3,
     tsv("0 -2 1", "0 0 1", "1 -2 1", "2 -6 1", "4 -10 1", "4 -8 1"), "stabilized[1]=false\n"),
    ("rw belt4.json --window -2:0,-8:0 --max-twists 2", 0, tsv("0 -4 1", "0 -2 3", "0 0 2"),
     "stabilized[1]=true\n"),
    # one up- and one down-strand: the twist ladder on a mixed-orientation region
    ("rw belt11.json --window 0:1,-4:0 --max-twists 3", 0, BELT2_UP_TO_H1, "stabilized[1]=true\n"),
    # belt11 with its up strand R2-poked over its down strand: twisting strands
    # that end at outside crossings, the same answer as belt11
    ("rw belt11_poke.json --window 0:1,-4:0 --max-twists 3", 0, BELT2_UP_TO_H1,
     "stabilized[1]=true\n"),
    # rw_plus without surgery regions: the writhe-renormalized table, no flags
    ("rw trefoil.json", 0, tsv("-3/2 9/2 1", "-1/2 1/2 1", "3/2 -7/2 1", "3/2 -3/2 1"), ""),
    # an odd strand count through a region: the zero verdict, exit 0
    ("rw belt1.json", 0, "", "stabilized[1]=true\nzero: class is not 2-divisible\n"),
    ("rw belt1.json --window -2:2,-6:0", 0, "", "stabilized[1]=true\nzero: class is not 2-divisible\n"),
    # the stable[...] lines are today's flags; ROADMAP item 8 (a "not reached"
    # value) will change them on purpose
    ("lasagna empty_s1s2_x2.json --r-max 2", 0, tsv("0 -8 1", "0 -6 2", "0 -4 3", "0 -2 2", "0 0 1"),
     stable(0, range(-16, 1, 2))),
    # twelve free belts, in closed form; the fresh rule reads the summed degree,
    # so (0,-8) and (0,-6) flag false and the exit is 3 (the CHANGES.md FOUND:
    # line on the fresh rule, which ROADMAP item 9, step 2 closes)
    ("lasagna empty_s1s2_x2.json --r-max 3", 3,
     tsv("0 -16 1", "0 -14 2", "0 -12 3", "0 -10 4", "0 -8 5", "0 -6 4", "0 -4 3", "0 -2 2",
         "0 0 1"),
     stable(0, range(-24, -9, 2)) + stable(0, (-8, -6), "false") + stable(0, (-4, -2, 0))),
    # the one-region colimit the benchmark times, whole and on a window
    ("lasagna empty_s1s2.json --alpha 0 --r-max 3", 0,
     tsv("0 -8 1", "0 -6 1", "0 -4 1", "0 -2 1", "0 0 1"), stable(0, range(-12, 1, 2))),
    ("lasagna empty_s1s2.json --alpha 0 --r-max 3 --window -1:1,-6:0", 0,
     tsv("0 -6 1", "0 -4 1", "0 -2 1", "0 0 1"), stable(0, range(-6, 1, 2))),
    # eight belts at stage 3, in closed form: no stage cable is built
    ("lasagna empty_s1s2.json --alpha 2 --r-max 3", 0,
     tsv("0 -12 1", "0 -10 1", "0 -8 1", "0 -6 1", "0 -4 1", "0 -2 1", "0 0 1"),
     stable(0, range(-16, 1, 2))),
    # the trefoil's table convolved with the region's; the (0,-2) flag is false
    # by the same fresh rule
    ("lasagna trefoil_s1s2.json --r-max 2", 3,
     tsv("-3 2 1", "-3 4 1", "-3 6 1", "-2 -2 1", "-2 0 1", "-2 2 1", "0 -6 1", "0 -4 2",
         "0 -2 2", "0 0 1"),
     stable(-3, range(-2, 7, 2)) + stable(-2, range(-6, 3, 2)) + stable(0, range(-10, -3, 2))
     + stable(0, [-2], "false") + stable(0, [0])),
    # an input error, a usage error and a capacity limit: one error line each
    ("kh invalid/nonplanar_hopf_poke.json", 2, "",
     "error: not planar: the piece of crossing 0 (4 crossings) traces 4 faces, a planar one 6\n"),
    ("kh", 2, "", "error: kh takes one diagram file, got 0\n"),
    ("kh hopf.json --window=", 2, "", "error: window must be 'hLo:hHi,qLo:qHi', got ''\n"),
    ("lasagna belt2.json --r-max 2", 4, "", "error: region 1 is crossed by 2 strands: "
     "crossed regions wait for the scanning complex\n"),
    # input errors come before the crossed region's refusal and the zero verdict
    *[(f"lasagna {name}.json --alpha 0,0 --r-max 2", 2, "",
       "error: offset vector longer than the number of regions\n")
      for name in ("belt1", "empty_s1s2", "belt2")],
    ("lasagna belt11_poke.json --r-max 2", 2, "",
     "error: encircle supports free-loop transit strands only\n"),
    ("lasagna belt1.json --alpha x --r-max 2", 2, "", "error: --alpha: invalid int value 'x'\n"),
    ("lasagna belt2.json --alpha 0,1.5 --r-max 2", 2, "",
     "error: --alpha: invalid int value '0,1.5'\n"),
]


def serve(cmdline, cache_dir, capsys):
    code = cli.run(argv_of(cmdline, cache_dir))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("cmdline, code, out, err", ROWS, ids=[row[0] for row in ROWS])
def test_row(cmdline, code, out, err, tmp_path, capsys):
    for _miss_then_hit in range(2):
        assert serve(cmdline, tmp_path, capsys) == (code, out, err)
    assert len(list(tmp_path.iterdir())) == (code in (0, 3))


def same(out):
    return out


def h_between(lo, hi):
    return lambda out: "".join(line for line in out.splitlines(keepends=True)
                               if lo <= int(line.split("\t")[0]) <= hi)


def q_moved_by(shift):
    return lambda out: tsv(*(f"{h} {int(q) + shift} {dim}"
                             for h, q, dim in (line.split("\t") for line in out.splitlines())))


# (request a, f, request b): b prints f of what a prints, both exit 0 with
# nothing on stderr, and the two are keyed apart
RELATIONS = [
    # a window's top cuts the scan; inside the window the table is the full one
    ("kh t44.json", h_between(-6, -4), "kh t44.json --window -6:-4,*:*"),
    # the trefoil with one R2 bigon, [1, 1, -1, 1, 1] closed on 2 strands
    # (writhe 3 too): R2 invariance
    ("kh trefoil.json", same, "kh trefoil_bigon.json"),
    ("rw trefoil.json", same, "rw trefoil_bigon.json"),
    # the unknot as the closure of [-1, 2, 1, 2, -1, -2, 1, 2, 1, -2] on 3
    # strands: no R1 or R2 move applies until one R3 move; its writhe is 2
    ("kh unknot.json", q_moved_by(-2), "kh unknot_r3.json"),
    *[(f"kh {name}.json", same, f"oracle kh {name}.json") for name in ORACLE_FIXTURES],
]


@pytest.mark.parametrize("a, f, b", RELATIONS, ids=[f"{a} ~ {b}" for a, _, b in RELATIONS])
def test_relation(a, f, b, tmp_path, capsys):
    code, out, err = serve(a, tmp_path, capsys)
    assert (code, err) == (0, "") and out != ""
    assert serve(b, tmp_path, capsys) == (0, f(out), "")
    assert len(list(tmp_path.iterdir())) == 2


ROW = {row[0]: row[1:] for row in ROWS}


@pytest.mark.parametrize("cmdline", [
    "kh unknot.json",
    "kh invalid/nonplanar_hopf_poke.json",
    "rw belt2.json --window 0:1,-4:0 --max-twists 2",
    "lasagna belt2.json --r-max 2",
])
def test_exit_code_of_the_process(cmdline, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "lasagna.cli", *argv_of(cmdline, tmp_path)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == ROW[cmdline]
