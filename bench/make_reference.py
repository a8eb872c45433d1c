"""Rebuild reference.json: the stored hashes the correctness gate checks.

    python bench/make_reference.py

Run it only on a commit whose outputs are known good; a later change that
alters a canonical output must fail the benchmark, not update this file.
Pool entries whose Reynolds projection is zero are left out, so every
decompose op has real work.  Every stored output is also checked by meaning
here (invariance, exact decomposition, the documented error contract).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from metabelian import (  # noqa: E402
    decompose_invariant,
    generator_h_lie,
    is_invariant_lie,
    normal_form,
    parse_lie_expr,
    reynolds_lie,
)

import checks  # noqa: E402
import inputs  # noqa: E402
from run import run_cli  # noqa: E402


def cli_result(argv):
    proc = run_cli(argv)
    return proc.returncode, proc.stdout, proc.stderr


def decompose_table():
    table = {}
    for n, d in inputs.CELLS:
        entries = {}
        for k in range(inputs.DECOMPOSE_CANDIDATES):
            f = normal_form(parse_lie_expr(inputs.decompose_element_text(n, d, k), n), n)
            averaged = reynolds_lie(f)
            if averaged.is_zero():
                continue
            if not (is_invariant_lie(averaged) and decompose_invariant(averaged).verify(averaged)):
                raise SystemExit(f"cell ({n},{d}) entry {k}: Reynolds output fails its checks")
            entries[str(k)] = checks.digest(averaged.to_text())
        if len(entries) < inputs.DECOMPOSE_DRAW:
            raise SystemExit(f"cell ({n},{d}): only {len(entries)} usable pool entries")
        table[inputs.cell_key((n, d))] = entries
        print(f"decompose ({n},{d}): {len(entries)} entries", file=sys.stderr)
    return table


def cli_table(reference):
    table = {}
    for kind in inputs.VARIANT_KINDS:
        table[kind] = {}
        for k in range(inputs.CLI_VARIANTS):
            argv = inputs.cli_variant(kind, k)
            code, out, err = cli_result(argv)
            if kind in inputs.ERROR_CONTRACT or kind == "decompose":
                reason = checks.check_cli(kind, k, argv, code, out, err, reference)
                if reason:
                    raise SystemExit(f"{kind} variant {k}: {reason}")
            elif code != 0:
                raise SystemExit(f"{kind} variant {k} exited {code}: {err}")
            else:
                table[kind][str(k)] = checks.cli_digest(code, out)
        if not table[kind]:
            del table[kind]
    for kind, argv in inputs.FIXED_REQUESTS.items():
        code, out, err = cli_result(argv)
        if kind == "invariant-basis":
            reason = checks.check_cli(kind, None, argv, code, out, err, reference)
            if reason:
                raise SystemExit(f"{kind}: {reason}")
        elif code != 0:
            raise SystemExit(f"{kind} exited {code}: {err}")
        else:
            table[kind] = checks.cli_digest(code, out)
    return table


def main():
    reference = {
        "generators": {
            f"{n},{i},{j}": checks.digest(generator_h_lie(n, i, j).to_text())
            for n, i, j in inputs.generator_pairs()
        },
    }
    reference["cli"] = cli_table(reference)
    reference["decompose"] = decompose_table()
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
