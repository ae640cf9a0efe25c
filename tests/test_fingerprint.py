import json

from fingerprint import FILE, compute, differences


def test_shipped_runs_match_the_committed_fingerprint():
    # a change that moves an exit code, a count, a verdict or a float beyond
    # the tolerance shows here; if it is meant, rerun tests/fingerprint.py
    # and list the changed entries in CHANGES.md
    diff = differences(json.loads(FILE.read_text()), compute())
    assert not diff, "\n".join(diff[:40] + [f"{len(diff)} differences"])


def test_fingerprint_tolerates_only_last_bits_of_floats():
    path = "report.json/tails/0/bound_raw"
    base = {"run": {"exit_code": 1, "values": {
        path: 0.25, "report.json/tails/0/count": 3,
        "report.json/tails/0/verdict": "VIOLATION",
        "report.json/tails/0/vacuous": False,
        "noise.json/excess_best": -8.3e-17}}}

    def moved(key, value, exit_code=1):
        values = {**base["run"]["values"], key: value}
        return {"run": {"exit_code": exit_code, "values": values}}

    assert differences(base, base) == []
    assert differences(base, moved(path, 0.25 * (1 + 1e-13))) == []
    assert differences(base, moved("noise.json/excess_best", -2.8e-17)) == []
    for got in (moved(path, 0.25 * (1 + 1e-9)),
                moved("report.json/tails/0/count", 4),
                moved("report.json/tails/0/count", 3.0),
                moved("report.json/tails/0/verdict", "dominated"),
                moved("report.json/tails/0/vacuous", 0),
                moved(path, 0.25, exit_code=0),
                {}):
        assert differences(base, got)
