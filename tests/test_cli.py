"""Command-line behavior: reports, formats, exit codes, key persistence."""

import json

import pytest

from medha.cli import main

TINY_NATIVE = {"name": "tiny", "degree": 64, "log_pq": 438, "mode": "native"}
TINY_SPLIT = {"name": "tinysplit", "degree": 64, "log_pq": 546, "mode": "split"}


def _write_config(tmp_path, doc, fname="config.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(doc))
    return path


def _run(tmp_path, *argv, config=TINY_NATIVE):
    cfg = _write_config(tmp_path, config)
    report = tmp_path / "report.out"
    rc = main(["--config", str(cfg), "--report", str(report), *argv])
    return rc, report.read_bytes()


def test_report_is_deterministic(tmp_path):
    rc1, raw1 = _run(tmp_path, "--workload", "add", "--seed", "3", "--simulate")
    rc2, raw2 = _run(tmp_path, "--workload", "add", "--seed", "3", "--simulate")
    assert rc1 == rc2 == 0
    assert raw1 == raw2
    doc = json.loads(raw1)
    assert doc["workload"] == "add"
    assert doc["seed"] == 3
    assert doc["functional"]["executed"] is True
    assert doc["functional"]["max_rel_error"] < 1e-6
    _, raw3 = _run(tmp_path, "--workload", "add", "--seed", "4", "--simulate")
    assert raw3 != raw1


def test_simulation_section(tmp_path):
    rc, raw = _run(tmp_path, "--workload", "add", "--simulate")
    assert rc == 0
    sim = json.loads(raw)["simulation"]
    assert sim["total_cycles"] == 1_152
    assert sim["clock_mhz"] == 200.0
    assert sim["latency_us"] == pytest.approx(1_152 / 200.0)
    assert sim["memory"]["ksk_regenerated_from_seed"] is True
    assert sim["dual_issue"]["serial_cycles"] >= sim["dual_issue"]["dual_cycles"]


def test_clock_override(tmp_path):
    rc, raw = _run(tmp_path, "--workload", "add", "--simulate",
                   "--clock-mhz", "400")
    assert rc == 0
    sim = json.loads(raw)["simulation"]
    assert sim["clock_mhz"] == 400.0
    assert sim["latency_us"] == pytest.approx(1_152 / 400.0)


def test_calibration_flag(tmp_path):
    calib = _write_config(tmp_path, {"set2_add_cycles": 2_865}, "calib.json")
    rc, raw = _run(tmp_path, "--workload", "add", "--simulate",
                   "--calibrate-costs", str(calib), config=TINY_SPLIT)
    assert rc == 0
    sim = json.loads(raw)["simulation"]
    assert sim["cost_model"]["split_move_cycles"] == 345
    assert sim["total_cycles"] == 2_866


def test_exit_code_bad_config(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({**TINY_NATIVE, "volts": 12}))
    assert main(["--config", str(cfg)]) == 2


def test_sigma_other_than_sampler_width_rejected(tmp_path):
    rc, _ = _run(tmp_path, "--workload", "add", config={**TINY_NATIVE, "sigma": 3.2})
    assert rc == 0
    for doc in ({**TINY_NATIVE, "sigma": 4.0}, {"param_set": "set1", "sigma": 3.0}):
        cfg = _write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "--workload", "add"]) == 2


def test_seed_outside_64_bits_is_a_usage_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, TINY_NATIVE)
    for bad in ("-1", str(1 << 64)):
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "--workload", "add", "--seed", bad])
        assert exc.value.code == 2
        assert "seed" in capsys.readouterr().err
    # the largest seed saves and reloads its key files
    top = ("--workload", "add", "--seed", str((1 << 64) - 1), "--keys", str(tmp_path / "keys"))
    rc1, raw1 = _run(tmp_path, *top)
    rc2, raw2 = _run(tmp_path, *top)
    doc1, doc2 = json.loads(raw1), json.loads(raw2)
    assert rc1 == rc2 == 0 and doc1["seed"] == (1 << 64) - 1
    assert doc1["keys"]["saved"] == doc2["keys"]["loaded"] == ["relin.ksk"]
    assert doc1["functional"] == doc2["functional"]


def test_exit_code_unknown_workload(tmp_path):
    cfg = _write_config(tmp_path, TINY_NATIVE)
    assert main(["--config", str(cfg), "--workload", "bootstrap"]) == 3


def test_exit_code_corrupt_keys(tmp_path):
    keys = tmp_path / "keys"
    rc, raw = _run(tmp_path, "--workload", "add", "--keys", str(keys))
    assert rc == 0
    assert json.loads(raw)["keys"]["saved"] == ["relin.ksk"]
    blob = bytearray((keys / "relin.ksk").read_bytes())
    blob[4] += 1  # bump the format version
    (keys / "relin.ksk").write_bytes(blob)
    cfg = _write_config(tmp_path, TINY_NATIVE)
    assert main(["--config", str(cfg), "--workload", "add",
                 "--keys", str(keys)]) == 4


def test_keys_roundtrip_through_directory(tmp_path):
    keys = tmp_path / "keys"
    rc1, raw1 = _run(tmp_path, "--workload", "rotate", "--keys", str(keys))
    doc1 = json.loads(raw1)
    assert rc1 == 0
    assert sorted(doc1["keys"]["saved"]) == ["relin.ksk", "rot1.ksk"]
    rc2, raw2 = _run(tmp_path, "--workload", "rotate", "--keys", str(keys))
    doc2 = json.loads(raw2)
    assert rc2 == 0
    assert sorted(doc2["keys"]["loaded"]) == ["relin.ksk", "rot1.ksk"]
    assert doc2["keys"]["saved"] == []
    assert doc1["functional"] == doc2["functional"]


def test_csv_and_table_formats(tmp_path):
    rc, raw = _run(tmp_path, "--workload", "add", "--format", "csv")
    assert rc == 0
    lines = raw.decode().splitlines()
    assert "workload,add" in lines
    assert all("," in line for line in lines)

    rc, raw = _run(tmp_path, "--workload", "add", "--format", "table")
    assert rc == 0
    rows = [line for line in raw.decode().splitlines() if line]
    keys = [line.split()[0] for line in rows]
    assert "workload" in keys
    widths = {len(line) - len(line.split(None, 1)[1])
              for line in rows if len(line.split(None, 1)) > 1}
    assert len(widths) == 1  # value column is aligned


def test_stdout_default(tmp_path, capsys):
    cfg = _write_config(tmp_path, TINY_NATIVE)
    assert main(["--config", str(cfg), "--workload", "add"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "medha"
    assert doc["param_set"]["degree"] == 64
