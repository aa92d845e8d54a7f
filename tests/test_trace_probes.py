"""The benchmark tracer can still wrap every function it probes."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
tracer.install(tracer.Tracer())
"""


def test_tracer_installs_every_probe():
    # install() raises when a probed name is gone from the package
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
