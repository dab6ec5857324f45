"""The benchmark's span tracer patches dovsolver names from outside the
package; a traced run fails if one of them is renamed or deleted."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [f"{home}.{attr}" for home, attr in tracer.TRACED
               if not callable(getattr(importlib.import_module(f"dovsolver.{home}"),
                                       attr, None))]
    assert missing == []
