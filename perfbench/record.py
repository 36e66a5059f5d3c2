"""Regenerate ``expected.json``: the fixed-seed values the output checks compare to.

Run from the repository root when a change is meant to alter them::

    PYTHONPATH=src python3 perfbench/record.py
"""

import json

import workloads

if __name__ == "__main__":
    values = {**workloads.record(workloads.TINY_SPECS), **workloads.record(workloads.SPECS)}
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
