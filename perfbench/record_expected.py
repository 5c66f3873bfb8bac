"""Record the expected results of every workload into expected.json.

Run once from the root of a checkout whose results are trusted:

    python3 perfbench/record_expected.py

Expectations are stored relative to the input's top weight, so one record
serves every shifted repetition of `euler` and `image`.  The benchmark
compares each repetition with this file; re-record only when a change of
the mathematics is intended, and say so in the change that does it.
"""

from __future__ import annotations

import json

import workloads


def record(lib) -> dict:
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        inp = wl.base_input(lib)
        problem = wl.validate(lib, inp, brute=True)
        if problem:
            raise SystemExit(f"{name}: base input is invalid: {problem}")
        try:
            out[name] = wl.expectation(wl.summarize(lib, inp, wl.call(lib, inp)))
        except ValueError as exc:
            raise SystemExit(f"{name}: {exc} on the base input")
    return out


def main() -> None:
    lib = workloads.load_library()
    data = record(lib)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {workloads.EXPECTED_PATH.name}: {', '.join(data)}")


if __name__ == "__main__":
    main()
