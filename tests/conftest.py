import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")

from reebflow import GridSpec  # noqa: E402


@pytest.fixture(scope="session")
def grid():
    """The default production grid: K=512, 40 octaves."""
    return GridSpec()


@pytest.fixture(scope="session")
def small_grid():
    """Coarser grid for property tests that run many examples."""
    return GridSpec(samples_per_octave=64, octave_max=24)


@pytest.fixture
def spike_flow(tmp_path):
    """A flow JSON whose CSV source is -ln x on the (512, 12) grid nodes plus
    one off-grid row 0.30005,-5.0: positive on the grid, negative between two
    nodes.  Returns (path, grid)."""
    g = GridSpec(octave_max=12)
    rows = sorted([(float(v), -math.log(v)) for v in g.nodes()] + [(0.30005, -5.0)], reverse=True)
    data = tmp_path / "spike.csv"
    data.write_text("x,f\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
    flow = tmp_path / "spike.json"
    flow.write_text(json.dumps({"kind": "realized", "f": {"csv": str(data)}}))
    return flow, g


@pytest.fixture(scope="session")
def reference_csv():
    """The CSV writer's bytes built cell by cell: a header, then ``repr`` of each value, row by row."""

    def build(header, columns) -> bytes:
        rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
        return "".join(",".join(r) + "\n" for r in [header, *(map(repr, row) for row in rows)]).encode()

    return build
