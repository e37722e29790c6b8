"""Tests for repro.obs.bench — the benchmark trajectory and its
regression gate.

The gate's promises: an empty trajectory seeds instead of failing, the
baseline is a median over context-matching entries only, tolerances
are per-row, ``equal`` rows brook no drift, and missing rows warn
unless ``strict``.
"""

import json

from repro.obs.bench import (
    TRACKED_ROWS,
    TrackedRow,
    append_history,
    baseline_for,
    check,
    extract_tracked,
    load_history,
)

ROWS = (
    TrackedRow("X", "depth"),
    TrackedRow("X", "nodes", "equal"),
    TrackedRow("X", "speedup", "higher", rel_tol=0.2),
    TrackedRow("Y", "overhead", "lower", rel_tol=0.1, abs_tol=0.5),
)


def _core(depth=6, nodes=100, speedup=4.0, overhead=1.0):
    return {"generated_at": "t", "python": "3.11",
            "platform": "linux", "rows": [
                {"experiment": "X", "label": "depth", "value": depth},
                {"experiment": "X", "label": "nodes", "value": nodes},
                {"experiment": "X", "label": "speedup",
                 "value": speedup},
                {"experiment": "Y", "label": "overhead",
                 "value": overhead},
            ]}


def _history(path, *cores, sha="s"):
    for i, core in enumerate(cores):
        append_history(core, path, sha=f"{sha}{i}", tracked=ROWS)
    return load_history(path)


class TestExtract:
    def test_pulls_tracked_rows_only(self):
        core = _core()
        core["rows"].append({"experiment": "X", "label": "noise",
                             "value": 9})
        got = extract_tracked(core, ROWS)
        assert got == {"X|depth": 6.0, "X|nodes": 100.0,
                       "X|speedup": 4.0, "Y|overhead": 1.0}

    def test_skips_non_numeric_and_non_finite(self):
        core = _core()
        core["rows"][2]["value"] = float("nan")
        core["rows"][3]["value"] = True
        got = extract_tracked(core, ROWS)
        assert "X|speedup" not in got
        assert "Y|overhead" not in got

    def test_default_tracked_rows_cover_roadmap_targets(self):
        keys = {t.key for t in TRACKED_ROWS}
        assert "S33-MEMO|speedup" in keys
        assert "EXT-CACHE|speedup" in keys
        assert "EXT-FLEET|supervision overhead (%)" in keys
        assert "EXT-OBS|overhead ratio" in keys


class TestHistory:
    def test_append_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "h.jsonl"
        entry = append_history(_core(), path, sha="abc",
                               tracked=ROWS)
        assert entry["sha"] == "abc"
        loaded = load_history(path)
        assert loaded == [entry]

    def test_missing_file_is_empty_trajectory(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(_core(), path, tracked=ROWS)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated\n")
            fh.write(json.dumps({"no": "rows"}) + "\n")
        assert len(load_history(path)) == 1


class TestBaseline:
    def test_median_of_window(self, tmp_path):
        path = tmp_path / "h.jsonl"
        hist = _history(path, _core(speedup=2.0), _core(speedup=8.0),
                        _core(speedup=4.0))
        current = extract_tracked(_core(), ROWS)
        assert baseline_for(hist, "X|speedup", current, ROWS) == 4.0

    def test_context_mismatch_excluded(self, tmp_path):
        # depth-5 entries must not pollute a depth-6 baseline
        path = tmp_path / "h.jsonl"
        hist = _history(path, _core(depth=5, speedup=100.0),
                        _core(depth=6, speedup=4.0))
        current = extract_tracked(_core(depth=6), ROWS)
        assert baseline_for(hist, "X|speedup", current, ROWS) == 4.0

    def test_window_bounds_lookback(self, tmp_path):
        path = tmp_path / "h.jsonl"
        cores = [_core(speedup=v) for v in (100.0, 3.0, 4.0, 5.0)]
        hist = _history(path, *cores)
        current = extract_tracked(_core(), ROWS)
        assert baseline_for(hist, "X|speedup", current, ROWS,
                            window=3) == 4.0

    def test_no_history_is_none(self):
        current = extract_tracked(_core(), ROWS)
        assert baseline_for([], "X|speedup", current, ROWS) is None

    def test_redefined_row_starts_a_fresh_baseline(self, tmp_path):
        # entries recorded under definition 1 (or before definitions
        # were recorded) do not feed a definition-2 baseline; the
        # other rows keep theirs
        path = tmp_path / "h.jsonl"
        hist = _history(path, _core(speedup=50.0, overhead=2.0))
        assert "definitions" not in hist[0]
        redefined = tuple(
            TrackedRow("X", "speedup", "higher", rel_tol=0.2,
                       definition=2) if t.key == "X|speedup" else t
            for t in ROWS)
        current = extract_tracked(_core(speedup=12.0), redefined)
        assert baseline_for(hist, "X|speedup", current,
                            redefined) is None
        assert baseline_for(hist, "Y|overhead", current,
                            redefined) == 2.0
        entry = append_history(_core(speedup=12.0), path,
                               tracked=redefined)
        assert entry["definitions"] == {"X|speedup": 2}
        hist = load_history(path)
        assert baseline_for(hist, "X|speedup", current,
                            redefined) == 12.0
        assert baseline_for(hist, "X|speedup", current, ROWS) == 50.0
        assert check(_core(speedup=12.0), hist, redefined).ok
        assert not check(_core(speedup=12.0), hist, ROWS).ok


class TestCheck:
    def test_empty_history_seeds_and_passes(self):
        result = check(_core(), [], tracked=ROWS)
        assert result.ok
        assert all(v.status == "no-baseline"
                   for v in result.verdicts)
        assert "SEEDING" in result.describe()
        assert result.describe().endswith("bench-check: PASS")

    def test_within_tolerance_passes(self, tmp_path):
        hist = _history(tmp_path / "h.jsonl", _core())
        result = check(_core(speedup=3.3), hist, tracked=ROWS)
        assert result.ok            # 3.3 >= 4.0 * (1 - 0.2)

    def test_higher_row_regresses_below_slack(self, tmp_path):
        hist = _history(tmp_path / "h.jsonl", _core())
        result = check(_core(speedup=3.0), hist, tracked=ROWS)
        assert not result.ok
        assert [v.key for v in result.regressions] == ["X|speedup"]
        assert "REGRESS" in result.describe()
        assert "FAIL" in result.describe()

    def test_lower_row_regresses_above_slack(self, tmp_path):
        hist = _history(tmp_path / "h.jsonl", _core())
        ok = check(_core(overhead=1.5), hist, tracked=ROWS)
        assert ok.ok                # 1.5 <= 1.0 * 1.1 + 0.5
        bad = check(_core(overhead=1.7), hist, tracked=ROWS)
        assert not bad.ok

    def test_equal_row_brooks_no_drift(self, tmp_path):
        hist = _history(tmp_path / "h.jsonl", _core())
        result = check(_core(nodes=101), hist, tracked=ROWS)
        assert [v.key for v in result.regressions] == ["X|nodes"]

    def test_missing_row_warns_unless_strict(self, tmp_path):
        hist = _history(tmp_path / "h.jsonl", _core())
        core = _core()
        core["rows"] = [r for r in core["rows"]
                        if r["label"] != "overhead"]
        lax = check(core, hist, tracked=ROWS)
        assert lax.ok
        assert [v.key for v in lax.missing] == ["Y|overhead"]
        strict = check(core, hist, tracked=ROWS, strict=True)
        assert not strict.ok

    def test_context_rows_not_gated(self):
        result = check(_core(), [], tracked=ROWS)
        assert "X|depth" not in [v.key for v in result.verdicts]

    def test_improvements_always_pass(self, tmp_path):
        hist = _history(tmp_path / "h.jsonl", _core())
        result = check(_core(speedup=40.0, overhead=0.1), hist,
                       tracked=ROWS)
        assert result.ok
