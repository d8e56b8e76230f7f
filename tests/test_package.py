"""The package root exports what the README documents, and nothing else."""

import re
from pathlib import Path
from types import ModuleType

import robustpred

ROOT_NAMES = {
    "SyntheticConfig", "generate_linear", "fit_robust", "predict_robust",
    "outlier_probability", "adaptive_weights",
    "ValidationError", "ShapeError", "SingleClassError", "CsvParseError", "ModelFormatError",
    "__version__",
}


def test_root_exports_the_documented_surface():
    exported = {
        name
        for name, value in vars(robustpred).items()
        if (not name.startswith("_") or name == "__version__") and not isinstance(value, ModuleType)
    }
    assert exported == ROOT_NAMES

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README.md (Library use)", "exec"), namespace)
    assert namespace["yhat"].shape == (5,)
