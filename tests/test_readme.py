"""README's "Library use" block runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    section = README.read_text().split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, f"{README.name} (Library use)", "exec"), namespace)
    result = namespace["result"]
    assert result.outputs.shape[:2] == (len(result.profiles), result.plan.schedule.steps)
    assert 0.0 <= namespace["y"] <= 1.0
