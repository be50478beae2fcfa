import importlib.util
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

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


SIZE = ROOT / "tools" / "src_size.py"


def load_size_tool():
    spec = importlib.util.spec_from_file_location("src_size", SIZE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_src_size_reports_the_line_count_and_the_longest_functions():
    out = subprocess.run([sys.executable, str(SIZE)], capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    heads, code, rows = [lines[0], *lines[2:4]], lines[1], lines[4:]
    for head, part, pattern in zip(heads, ("src", "tests", "tools"), ("*/*.py", "*.py", "*.py")):
        files = sorted((ROOT / part).glob(pattern))
        assert head == f"{sum(len(f.read_text().splitlines()) for f in files)} lines in {len(files)} files of {part}/"
    # the code lines and the three kinds of line left out add up to the line count
    pattern = r"(\d+) code lines of src/, less (\d+) of docstrings, (\d+) comment-only and (\d+) blank"
    counts = [int(n) for n in re.fullmatch(pattern, code).groups()]
    assert sum(counts) == int(heads[0].split()[0]) and all(counts)
    assert len(rows) == 5
    lengths = [int(row.split()[0]) for row in rows]
    assert lengths == sorted(lengths, reverse=True)
    assert all(re.fullmatch(r"\s*\d+  \w+\.py:[\w.]+", row) for row in rows), rows


def test_src_size_counts_nested_functions_inside_their_parent(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    lines = ["def outer():", "    def inner():", "        pass", "    return inner", "", "", "class C:",
             "    def method(self):", "        pass"]
    (src / "m.py").write_text("\n".join(lines) + "\n")
    assert load_size_tool().spans(src / "m.py") == [("outer", 4), ("C.method", 2)]


SPLIT_MODULE = '''"""A module docstring

of three lines."""

# a comment-only line
import math


def f(x):  # a comment after code
    """One line."""
    s = """a string

    that is code"""
    return math.sqrt(x) + len(s)


class C:
    """Doc."""

    # inside the class
    y = 1
'''


def test_src_size_splits_code_from_docstrings_comments_and_blank_lines(tmp_path):
    (path := tmp_path / "m.py").write_text(SPLIT_MODULE)
    # code: import, def, the three lines of s (its blank line too), return, class, y;
    # docstrings: 3 + 1 + 1; comment-only: 2; blank: the 6 outside every string
    assert load_size_tool().split(path) == (8, 5, 2, 6)
    assert sum(load_size_tool().split(path)) == len(SPLIT_MODULE.splitlines())


@pytest.mark.parametrize(
    "module, function", [("linearize", "koenigs_limit"), ("oscillation", "_profile_pass"), ("classify", "classify")]
)
def test_no_function_is_longer_than_60_lines(module, function):
    spans = dict(load_size_tool().spans(ROOT / "src" / "reebflow" / f"{module}.py"))
    assert function in spans
    assert max(spans.values()) <= 60, spans


PEAK = ROOT / "tools" / "peak_mem.py"


def test_peak_mem_measures_a_warm_call_on_a_small_grid():
    spec = importlib.util.spec_from_file_location("peak_mem", PEAK)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    g = tool.rf.GridSpec(64, 24)
    calls = [tool.koenigs_call(name, hid, g) for name, hid in tool.KOENIGS]
    calls.append(tool.koenigs_call("koenigs_demo", "square", g, tool.KOENIGS_SHIFT))
    calls += [tool.read_out_call(name, hid, g) for name, hid in tool.KOENIGS]
    calls += [tool.flow_call(name, g) for name in tool.GALLERY]
    calls += [tool.orbit_call(name, g) for name in tool.GALLERY]
    calls += [tool.classify_call(g), tool.classify_call(g, "std_log")]
    calls += [tool.scan_call(g), tool.witness_call(g), tool.sharp_call(g)]
    for call in calls:
        peak, held, faults = tool.measure(call)
        assert 0 < held <= peak and faults >= 0
    # the cached nodes column: the streaming passes add no nodes, a held profile the grid's
    before = tool.cached_mib()
    for call in calls[-5:]:
        call()
    assert tool.cached_mib() == before
    tool.rf.star_profile(tool.rf.builtin("std_log"), tool.rf.GridSpec(64, 23))
    assert tool.cached_mib() >= tool.rf.GridSpec(64, 23).nodes().nbytes / tool.MIB > 0
    # the scan evaluates h at every node and then, under halve, only at the last K nodes, whose images fall
    # past the grid's end; root_scale:2 evaluates it at every node twice
    assert tool.h_points(g) == (g.node_count + g.samples_per_octave, 2 * g.node_count)
    # build_flow and flow_classify are timed apart, each by the median of 15 warm calls
    for call in [tool.koenigs_call("std_log", "square", g), *tool.flow_parts("bounded_osc", g)]:
        assert tool.wall_ms(call) > 0
    # a warm pass in a new process takes no page fault: its buffers are kept from the warm calls
    assert tool.fresh_faults(g) == 0
    # an orbit holds its 2,000 rows: a tuple of three floats each
    _, held, _ = tool.measure(tool.orbit_call("koenigs_demo", g))
    assert held >= len(tool.ORBIT_TIMES) * 3 * 24
    # under square the result holds three arrays over the probes, all nodes but x = 1:
    # the images, f_inf there and f_inf at the probes
    _, held, _ = tool.measure(tool.koenigs_call("std_log", "square", g))
    assert held >= 3 * 8 * (g.node_count - 1)
    # the read-out hands back the two arrays the result holds: it keeps no array more
    for name, hid in tool.KOENIGS:
        res, at_probes, at_images = tool.read_out_call(name, hid, g)()
        assert not at_probes.flags.writeable and not at_images.flags.writeable
        read_out_held = tool.measure(tool.read_out_call(name, hid, g))[1]
        assert read_out_held < tool.measure(tool.koenigs_call(name, hid, g))[1] + 8 * res.probes.size
    # an explicit k holds them too, written over sweep 0's f(x), h(x) and f(h(x)): three arrays over the nodes
    explicit = tool.koenigs_call("koenigs_demo", "square", g, tool.KOENIGS_SHIFT)
    assert tool.measure(explicit)[1] >= 3 * 8 * g.node_count
    # under root_scale:2 f runs at the nodes and at the images off their nodes x_(i+K/2)
    # or past the grid's end: about 45% of them, the last K/2 included
    x = g.nodes()
    hx = tool.rf.gallery_homeo("root_scale:2")(x)
    off = g.node_count - np.count_nonzero(hx[: -(g.samples_per_octave // 2)] == x[g.samples_per_octave // 2 :])
    assert tool.f_points(g) == g.node_count + off
    assert 0.4 < off / g.node_count < 0.5


VERDICTS = ROOT / "tools" / "verdict_matrix.py"


def test_verdict_matrix_prints_one_line_per_case():
    out = subprocess.run([sys.executable, str(VERDICTS)], capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    # 4 profiles x 7 h x 3 k and the slowly vanishing oscillation, each at 4 grid ends
    assert len(lines) == (4 * 7 * 3 + 1) * 4
    rows = [re.fullmatch(r"(standard|nonstandard|inconclusive)  (\S+)  (.+ @ 512,(30|40|50|60))", ln) for ln in lines]
    assert all(rows), lines
    verdicts = {row.group(3): row.group(1) for row in rows}
    assert verdicts["bounded_osc o pow:0.25 + x/(1+x) @ 512,40"] == "inconclusive"
    assert verdicts["std_log o square + 1.0 @ 512,60"] == "standard"
    assert [verdicts[f"u + (1+3/u) sin u @ 512,{M}"] for M in (30, 40, 60)] == ["nonstandard", "inconclusive",
                                                                                 "inconclusive"]
    # no profile of a nonstandard class reads "standard", under any h or k
    assert not [c for c, v in verdicts.items() if c.startswith(("bounded_osc", "doubling_osc")) and v == "standard"]


def test_verdict_matrix_prints_an_error_as_a_line():
    spec = importlib.util.spec_from_file_location("verdict_matrix", VERDICTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    import reebflow

    def classify(f, g):
        if "square" in f.description:
            raise ValueError("no verdict")
        return reebflow.classify(f, g)

    rf = types.SimpleNamespace(**(vars(reebflow) | {"classify": classify}))
    lines = tool.matrix_lines(rf)
    assert len(lines) == 340
    assert "error  ValueError: no verdict  std_log o square + 0 @ 512,30" in lines
    assert sum(ln.startswith("error  ") for ln in lines) == 4 * 3 * 4


BITS = ROOT / "tools" / "koenigs_bits.py"


def test_koenigs_bits_prints_one_hash_or_error_per_case():
    spec = importlib.util.spec_from_file_location("koenigs_bits", BITS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    import reebflow

    lines = tool.bits_lines(reebflow, ((64, 24),))
    # 4 profiles x 4 homeomorphisms with the derived shift, then the two explicit shifts
    assert len(lines) == 4 * 4 + 2
    rows = [re.fullmatch(r"([0-9a-f]{64}|error  \w+: .+)  (\S+/\S+ (lam|k) .+ @ 64,24)", ln) for ln in lines]
    assert all(rows), lines
    hashed = [row.group(2) for row in rows if not row.group(1).startswith("error")]
    assert hashed == [f"{name}/{hid} @ 64,24" for name, hid in (
        ("std_log", "square lam 2"), ("std_log", "pow:3 lam 3"), ("std_log", "pow:20 lam 20"),
        ("doubling_osc", "halve lam 2"), ("koenigs_demo", "square lam 2"), ("koenigs_demo", "pow:3 lam 3"),
        ("koenigs_demo", "pow:20 lam 20"), ("koenigs_demo", "square k 2x/(1+x) - x^2/(1+x^2)"),
        ("doubling_osc+1", "halve k 1"))]
    assert len({row.group(1) for row in rows if not row.group(1).startswith("error")}) == len(hashed)
    assert tool.bits_lines(reebflow, ((64, 24),)) == lines
