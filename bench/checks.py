"""Correctness gate applied to every op, outside the timed region.

Canonical outputs are matched against the sha256 hashes stored in
``reference.json``.  Outputs whose representation is not unique are checked
by meaning: decompositions by exact reconstruction (done by the caller), the
CLI ``decompose`` by ``verified: true`` and ``invariant-basis`` by its
per-degree counts against the closed-form Hilbert function.  Error requests
must return their documented exit code and stderr prefix.  Each check
returns None on success and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from inputs import ERROR_CONTRACT, hilbert_function

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(returncode: int, stdout: str) -> str:
    return digest(f"{returncode}\n{stdout}")


def check_digest(text: str, expected: str):
    return None if digest(text) == expected else "output hash differs from the reference"


def _check_decompose(returncode, stdout, as_json):
    if returncode != 0:
        return f"exit code {returncode}, expected 0"
    if as_json:
        try:
            verified = json.loads(stdout).get("verified")
        except ValueError:
            return "stdout is not JSON"
        return None if verified is True else "decomposition not verified"
    return None if stdout.endswith("verified: true\n") else "decomposition not verified"


_DEGREE_LINE = re.compile(r"degree (\d+): (\d+) elements?$")


def _check_invariant_basis(returncode, stdout, n, max_degree):
    if returncode != 0:
        return f"exit code {returncode}, expected 0"
    counts = {}
    for line in stdout.splitlines():
        m = _DEGREE_LINE.match(line)
        if m:
            counts[int(m.group(1))] = int(m.group(2))
    expected = {d: hilbert_function(n, d) for d in range(1, max_degree + 1)}
    return None if counts == expected else f"degree counts {counts}, expected {expected}"


def check_cli(kind, variant, argv, returncode, stdout, stderr, reference):
    """Check one CLI request against its kind's contract."""
    if kind in ERROR_CONTRACT:
        code, prefix = ERROR_CONTRACT[kind]
        if returncode != code:
            return f"exit code {returncode}, expected {code}"
        return None if stderr.startswith(prefix) else f"stderr does not start with {prefix!r}"
    if kind == "decompose":
        return _check_decompose(returncode, stdout, "--json" in argv)
    if kind == "invariant-basis":
        n = int(argv[argv.index("--n") + 1])
        max_degree = int(argv[argv.index("--max-degree") + 1])
        return _check_invariant_basis(returncode, stdout, n, max_degree)
    expected = reference["cli"][kind]
    if variant is not None:
        expected = expected[str(variant)]
    if cli_digest(returncode, stdout) != expected:
        return f"exit code {returncode} and stdout hash differ from the reference"
    return None
