"""The benchmark's layer tracer still installs over the shared names.

perfbench/tracing.py wraps wct functions by name, among them the semidirect
and maps names that are now bindings of the shared class layer (class_sd,
sd_invariants, wct_invariants), and the map algebra and certificates
(CosetwiseAffineMap.compose and .invert, wct_certificate_symbolic,
verify_sd), which now build and read maps without going through
CosetwiseAffineMap.__init__ or G.mul.  The tracer patches modules in place,
so it runs in a fresh interpreter here: install must not raise, every name
must still be counted, those four once per call under their own counter,
and every result must be the one computed before install.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json
import sys

sys.path.insert(0, "perfbench")

from wct import conjugacy, maps, semidirect
from wct.groups import load_group

G = load_group("p4mg")
H = semidirect.build([[0, -1], [1, -1]], 3)
g, h = G.element(1, -2, "rho"), H.element((1, 0), 1)
m, phi = maps.generator(G, "iota"), semidirect.phi_for_odd_p(H)
n = maps.generator(G, "psi_1")


def certificate(G, m):
    cert = maps.wct_certificate_symbolic(G, m)
    return [cert["proven"], [[key, method] for key, method in cert["pairs"].items()]]


own = {  # name -> the counter that must count each call of it once
    "maps.compose": "maps.compose_calls",
    "maps.invert": "maps.invert_calls",
    "maps.wct_certificate_symbolic": "maps.symbolic_calls",
    "semidirect.verify_sd": "semidirect.verify_calls",
}
calls = {
    "conjugacy.conjugacy_class": lambda: conjugacy.conjugacy_class(G, g).to_json(),
    "semidirect.class_sd": lambda: semidirect.class_sd(H, h).to_json(),
    "semidirect.is_conjugate_sd": lambda: semidirect.is_conjugate_sd(
        H, h, H.element((0, 1), 1)),
    "maps.forced_consequences": lambda: maps.forced_consequences(G, m, 1),
    "maps.wct_invariants": lambda: maps.wct_invariants(G, m, 1),
    "semidirect.sd_invariants": lambda: semidirect.sd_invariants(H, phi, 1),
    "maps.compose": lambda: m.compose(n).to_json(),
    "maps.invert": lambda: n.invert().to_json(),
    "maps.wct_certificate_symbolic": lambda: certificate(G, n),
    "semidirect.verify_sd": lambda: semidirect.verify_sd(H, phi, 1),
}
before = {name: call() for name, call in calls.items()}

from tracing import Tracer

tracer = Tracer()
tracer.install()
after, counted, once = {}, {}, {}
for name, call in calls.items():
    total = sum(tracer.counts.values())
    key = own.get(name)
    start = tracer.counts[key] if key else 0
    after[name] = call()
    counted[name] = sum(tracer.counts.values()) > total
    if key:
        once[name] = tracer.counts[key] - start
print(json.dumps({"before": before, "after": after, "counted": counted, "once": once}))
"""


def test_tracer_installs_over_the_rebound_names():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["after"] == report["before"]
    assert all(report["counted"].values()), report["counted"]
    assert report["once"] == dict.fromkeys(report["once"], 1)
    assert len(report["once"]) == 4
