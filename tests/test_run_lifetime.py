"""A run frees what it builds.

The section family, the point store and the glued connections of a run
live on its scenario context, and nothing of the run is kept on its
`GluedSpace`.  So when ``diffglue run`` returns, reference counting alone
has freed the space and everything built over it: the cyclic collector
finds nothing.

tracemalloc cannot pin this: with no unreachable object left, 0.06 to
0.24 MB of the interpreter's free lists stay allocated until
``gc.collect()`` clears them.  A weak reference to the space and the
collector's count of unreachable objects can.
"""

import contextlib
import gc
import io
import os
import sys
import weakref

import pytest

from diffglue import cli
from diffglue.scenario import fixture_path

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "benchmarks"))
import ladder  # noqa: E402

FIXTURES = ("cross_flat", "cross_mixed_grams", "halfline_curved", "plane_axis_gluing",
            "halfline_mismatch", "halfline_connection_clash", "cubic_gluing_invalid")
RUNGS = ("ladder_d1", "ladder_d2", "ladder_d3", "ladder_d4")


@pytest.mark.parametrize("mode", ("dual", "fd"))
@pytest.mark.parametrize("name", FIXTURES + RUNGS)
def test_a_run_leaves_no_cycle_and_frees_its_space(name, mode, tmp_path, monkeypatch):
    if name in RUNGS:
        path = tmp_path / f"{name}.yaml"
        path.write_text(ladder.ladder_yaml(int(name[-1]), 0))
    else:
        path = fixture_path(name)
    spaces = []
    build = cli.build_context

    def recording(*args, **kwargs):
        ctx = build(*args, **kwargs)
        spaces.append(weakref.ref(ctx.space))
        return ctx

    monkeypatch.setattr(cli, "build_context", recording)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["run", str(path), "--mode", mode])

    # the first run in a process leaves import-time objects behind
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        freed = [space() is None for space in spaces]
        left = gc.collect()
    finally:
        gc.enable()
    # cubic_gluing_invalid fails while its space is built, so no space is recorded
    assert freed == [True] * (0 if name == "cubic_gluing_invalid" else 2)
    assert left == 0
