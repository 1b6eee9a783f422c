"""Int codes are the library's one element type: no module of src/relheffter
names GroupElement at all, in code, annotations, strings or comments. The
object-level element lives in tests/group_oracle.py, the reference that the
codes are tested against."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "relheffter"


def test_no_module_names_group_element():
    sources = sorted(SRC.glob("*.py"))
    assert {"group.py", "pfarray.py", "topology.py"} <= {path.name for path in sources}
    # the check sees the name where there is one
    assert re.search(r"\bGroupElement\b", (SRC.parent.parent / "tests" / "group_oracle.py").read_text())
    offenders = [f"{path.name}:{number}" for path in sources
                 for number, line in enumerate(path.read_text().splitlines(), start=1)
                 if re.search(r"\bGroupElement\b", line)]
    assert offenders == []
