"""The benchmark's tracer wraps library attributes by name; every one of
them must exist, or a traced run stops on a KeyError."""

from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_layer_target_exists():
    # executed from source so nothing is written next to the bench scripts
    ns = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         ns)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in ns["LAYER_TARGETS"]
               if attr not in vars(owner)]
    assert not missing, missing
