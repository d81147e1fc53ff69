"""tools/fingerprint.py, the identical-outputs check, runs on this tree.

The script calls the public API by name, so a change to a public signature
can break it without any other test noticing.  This runs it in-process and
checks the shape of its report only: digests change on purpose whenever a
change reorders floating-point work, so none is pinned here.
"""

import importlib.util
import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"


def test_fingerprint_reports_one_digest_per_run():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    out = StringIO()
    with redirect_stdout(out):
        assert fingerprint.main() == 0
    *runs, combined = out.getvalue().splitlines()
    assert runs
    names = []
    for line in runs:
        assert re.fullmatch(r"\S+ [0-9a-f]{64}", line), line
        names.append(line.split()[0])
    assert len(set(names)) == len(names)
    assert re.fullmatch(rf"combined [0-9a-f]{{64}} \({len(runs)} runs\)", combined), combined
