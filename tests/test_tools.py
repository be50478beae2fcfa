import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "readme_artifacts.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("readme_artifacts", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_readme_artifacts_are_reproducible():
    runs = [
        subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*\.(json|csv|svg)", line) for line in lines), lines
    # one line per file each example writes, in file-name order
    files = {
        "sigma": ["profile.csv", "sigma.json", "sigma_octaves.svg"],
        "roundtrip": ["roundtrip.csv", "roundtrip.json", "roundtrip_overlay.svg"],
        "linearize": ["linearize.csv", "linearize.json", "linearize_overlay.svg"],
        "classify": ["classify.json", "classify_octaves.svg"],
        "transition": ["transition.json"],
        "plot": ["orbit.csv", "plot.svg"],
    }
    tool = load_tool()
    want = [f"{tool.label(argv)}/{name}" for argv in tool.examples() for name in files[argv[0]]]
    assert [line.split("  ", 1)[1] for line in lines] == want
    assert len(want) == 43
