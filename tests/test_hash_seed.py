"""Results, oracles and elimination counts do not depend on PYTHONHASHSEED."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
# sha256 of the Gaussian elimination (s, t) sequence of the pinned scans below;
# a cobordism-layer speed-up must leave the pivot choices exactly as they are
PIVOT_DIGEST = "1f3e1953ccc86ba3b3d27b956f2c7498a1457804d6c497e44f67bde9772d6bf7"
# sha256 of the belt_link(2) stage-1 -> stage-0 transition block (0, 0) and the
# all-x coordinates at (0, -4) behind the capping certificate; computed on the
# unrestricted path (every block of both stages), read here from the one block
# of each stage that the certificate's one-grading window builds
CAPPING_DIGEST = "ee25acaf5ebda7c7a29eff5084f4aabc5ff591310a0f7f5510c475e23a7d542a"

SCRIPT = r"""
import hashlib
import json
import random

from lasagna import catalog, khovanov, projector, rw
from lasagna.cobmaps import homology_matrix, reduction_equivalence
from lasagna.complexes import BigradedComplex
from lasagna.densecube import Cube
from lasagna.gradings import Window
from lasagna.skein import HandlebodySpec, _transition_matrix, _window_stages

eliminations = []
pivots = []
eliminate = BigradedComplex.gaussian_eliminate
start_scan = khovanov.Scan.__init__


def counting_eliminate(self, s, t):
    eliminations[-1] += 1
    pivots.append((s, t))
    return eliminate(self, s, t)


# every scan, scan_complex's or a twist ladder's, starts one count
def counting_scan(self, *args, **kwargs):
    eliminations.append(0)
    start_scan(self, *args, **kwargs)


BigradedComplex.gaussian_eliminate = counting_eliminate
khovanov.Scan.__init__ = counting_scan

res = rw.rw_plus(catalog.belt_link(2), Window(h2_lo=-4, h2_hi=2, q2_lo=-12, q2_hi=0), k_max=3)
del pivots[:]
khovanov.scan_complex(catalog.torus_link(4, 4))
for k in (1, 2):
    khovanov.scan_complex(projector.twist_all_regions(catalog.belt_link(4), k))
pivot_digest = hashlib.sha256(repr(pivots).encode()).hexdigest()
r3 = reduction_equivalence(Cube(catalog.braid_closure([1, 2, 1, -1, 2], 3)),
                           Cube(catalog.braid_closure([2, 1, 2, -1, 2], 3)))
r3_entries = [(g, [(t, str(v)) for t, v in row.items()]) for g, row in r3.entries.items()]
lo, hi = _window_stages(HandlebodySpec(catalog.belt_link(2), (0,)), Window(0, 0, -4, -4), 1)
block = _transition_matrix(hi, lo)[(0, 0)]
all_x = {(0, (1,) * len(lo.cube.circles[0])): 1}
(allx,) = homology_matrix(lambda v: v, {(0, -4): ([all_x], lo.H[(0, -4)][1])}, lo.H)[(0, -4)]
capping = [[str(c) for c in col] for col in block + [allx]]
rng = random.Random(30)
reduced = [khovanov.reidemeister_reduced(catalog.random_braid_diagram(rng, 10)).to_json_obj()
           for _ in range(50)]
out = {
    "dense figure-eight": khovanov.kh_dims_bruteforce(catalog.figure_eight()).to_json_obj(),
    "jones T(3,4)": list(khovanov.jones_unnormalized(catalog.torus_link(3, 4)).items()),
    "R3 reduction_equivalence": hashlib.sha256(repr(r3_entries).encode()).hexdigest(),
    "capping digest": hashlib.sha256(repr(capping).encode()).hexdigest(),
    "T(3,4)": khovanov.kh_dims(catalog.torus_link(3, 4)).to_json_obj(),
    "figure-eight": khovanov.kh_dims(catalog.figure_eight()).to_json_obj(),
    "rw_plus belt_link(2)": res.to_json_obj(),
    "eliminations per scan": eliminations,
    "pivot digest": pivot_digest,
    "reduced diagrams": hashlib.sha256(json.dumps(reduced).encode()).hexdigest(),
}
print(json.dumps(out, sort_keys=True))
"""


def test_results_do_not_depend_on_hash_seed():
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    assert '"eliminations per scan": [' in outputs[0]
    assert json.loads(outputs[0])["pivot digest"] == PIVOT_DIGEST
    assert json.loads(outputs[0])["capping digest"] == CAPPING_DIGEST
