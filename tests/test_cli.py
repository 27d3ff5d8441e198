"""Command-line behavior: reports, formats, exit codes, key persistence."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import medha
from medha.cli import main
from medha.heaan import Engine
from medha.keys import COMP_KSK_ERROR, COMP_KSK_UNIFORM
from medha.params import get_param_set, load_param_config

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


@pytest.mark.parametrize("param_set, workload, want", [
    ("set1", "mult_relin", "c78350f5bc6353f4"),
    ("logreg", "logreg", "1e54b3a6a64a8ad6"),
])
def test_simulation_section_pinned(tmp_path, param_set, workload, want):
    # the section as the CLI assembles it from its one report: the
    # dual-issue comparison and the critical path's head included
    report = tmp_path / "report.json"
    argv = ["--param-set", param_set, "--workload", workload, "--simulate"]
    assert main([*argv, "--report", str(report)]) == 0
    sim = json.loads(report.read_bytes())["simulation"]
    digest = hashlib.sha256(json.dumps(sim, sort_keys=True).encode()).hexdigest()[:16]
    assert digest == want


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


def test_split_ring_beyond_hardware_transform_rejected(tmp_path):
    # a 2^16 split ring needs 2^15-point transforms; the hardware does 2^14
    big = {"name": "big", "degree": 1 << 16, "log_pq": 168, "mode": "split"}
    cfg = _write_config(tmp_path, big)
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


def test_unknown_param_set_rejected_on_every_call(tmp_path, capsys):
    # the preset lookup is memoized; an unknown name is refused every time
    cfg = _write_config(tmp_path, {"param_set": "set3"})
    for _ in range(2):
        assert main(["--config", str(cfg), "--report", str(tmp_path / "r.out")]) == 2
        assert "unknown parameter set 'set3'" in capsys.readouterr().err
    assert get_param_set("set1") is get_param_set("set1")


def test_logreg_rejects_scale_bits_override(tmp_path, capsys):
    # logreg fixes its own scale, so an override would be printed but not used
    cfg = _write_config(tmp_path, {"param_set": "logreg", "scale_bits": 45})
    assert main(["--config", str(cfg), "--workload", "logreg"]) == 3
    assert "scale_bits 45" in capsys.readouterr().err


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


def test_key_file_under_another_steps_name_rejected(tmp_path, capsys):
    # loaded as step 2's key, the step-1 key in rot2.ksk would let the
    # workload finish with a wrong result and exit 0
    keys = tmp_path / "keys"
    rc, raw = _run(tmp_path, "--workload", "logreg", "--keys", str(keys))
    assert rc == 0
    assert "rot2.ksk" in json.loads(raw)["keys"]["saved"]
    (keys / "rot2.ksk").write_bytes((keys / "rot1.ksk").read_bytes())
    cfg = _write_config(tmp_path, TINY_NATIVE)
    assert main(["--config", str(cfg), "--workload", "logreg",
                 "--keys", str(keys)]) == 4
    assert "key id 1, expected 2" in capsys.readouterr().err


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    return err


def test_keys_path_that_is_a_file_is_a_configuration_error(tmp_path, capsys):
    keys = tmp_path / "keys"
    keys.write_text("not a directory")
    cfg = _write_config(tmp_path, TINY_NATIVE)
    assert main(["--config", str(cfg), "--workload", "add", "--keys", str(keys)]) == 2
    assert "key directory" in _one_error_line(capsys)


def test_key_path_that_is_a_directory_is_a_configuration_error(tmp_path, capsys):
    keys = tmp_path / "keys"
    (keys / "relin.ksk").mkdir(parents=True)
    cfg = _write_config(tmp_path, TINY_NATIVE)
    assert main(["--config", str(cfg), "--workload", "add", "--keys", str(keys)]) == 2
    assert "relin.ksk" in _one_error_line(capsys)


def test_report_into_missing_directory_is_a_configuration_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, TINY_NATIVE)
    report = tmp_path / "absent" / "report.json"
    assert main(["--config", str(cfg), "--workload", "add", "--report", str(report)]) == 2
    assert "cannot write report" in _one_error_line(capsys)
    assert not report.parent.exists()


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


@pytest.mark.parametrize("target", [100, True])
def test_calibration_target_rejected(tmp_path, capsys, target):
    # 100 is below the 2,176-cycle surcharge-free split addition; true is
    # not a cycle count even though Python counts it as an int
    calib = _write_config(tmp_path, {"set2_add_cycles": target}, "calib.json")
    cfg = _write_config(tmp_path, TINY_SPLIT)
    assert main(["--config", str(cfg), "--workload", "add", "--simulate",
                 "--calibrate-costs", str(calib)]) == 2
    assert "set2_add_cycles" in capsys.readouterr().err


@pytest.mark.parametrize("clock", ["0", "-100", "nan", "inf", "fast"])
def test_clock_flag_must_be_finite_and_positive(tmp_path, capsys, clock):
    cfg = _write_config(tmp_path, TINY_NATIVE)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "--workload", "add", "--simulate",
              "--clock-mhz", clock])
    assert exc.value.code == 2
    assert "--clock-mhz" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("clock_mhz", 0), ("clock_mhz", -100.0), ("clock_mhz", True), ("clock_mhz", "200"),
    ("scale_bits", -1), ("scale_bits", 0), ("scale_bits", True), ("scale_bits", "40"),
    ("scale_bits", 40.5),
])
def test_config_tuning_values_rejected(tmp_path, capsys, key, value):
    for doc in ({**TINY_NATIVE, key: value}, {"param_set": "set1", key: value}):
        cfg = _write_config(tmp_path, doc)
        assert main(["--config", str(cfg), "--workload", "add"]) == 2, doc
        assert key in capsys.readouterr().err


def test_config_clock_reported_as_given(tmp_path):
    rc, raw = _run(tmp_path, "--workload", "add", "--simulate",
                   config={**TINY_NATIVE, "clock_mhz": 400})
    assert rc == 0
    sim = json.loads(raw)["simulation"]
    assert sim["clock_mhz"] == 400.0
    assert sim["latency_us"] == pytest.approx(1_152 / 400.0)


@pytest.mark.parametrize("config", [TINY_NATIVE, TINY_SPLIT])
def test_logreg_runs_on_deeper_sets(tmp_path, config):
    # logreg's ops are compiled for level 6; these sets have 7 and 9 levels
    rc, raw = _run(tmp_path, "--workload", "logreg", config=config)
    assert rc == 0
    functional = json.loads(raw)["functional"]
    assert functional["executed"] is True
    assert functional["output_level"] == 1
    assert functional["max_rel_error"] < 1e-6


@pytest.mark.parametrize("key, value", [
    ("degree", 64.9), ("degree", "64"), ("degree", True),
    ("log_pq", 438.7), ("log_pq", "438"), ("log_pq", True),
    ("name", 5), ("name", None), ("mode", ["native"]), ("mode", 1),
])
def test_config_full_form_types_rejected(tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path, {**TINY_NATIVE, key: value})
    assert main(["--config", str(cfg), "--workload", "add"]) == 2
    assert key in capsys.readouterr().err


def test_warm_keys_draw_each_uniform_grid_once_and_build_no_secret_half(
        tmp_path, monkeypatch):
    keys = tmp_path / "keys"
    rc1, raw1 = _run(tmp_path, "--workload", "logreg", "--keys", str(keys))
    assert rc1 == 0
    uniform, errors, targets = [], [], []
    draw, target = Engine._draw, Engine._ksk_target

    def spy_draw(self, uniform_tags, error_tags=()):
        uniform.extend(uniform_tags)
        errors.extend(error_tags)
        return draw(self, uniform_tags, error_tags)

    def spy_target(self, ksk_id):
        targets.append(ksk_id)
        return target(self, ksk_id)

    monkeypatch.setattr(Engine, "_draw", spy_draw)
    monkeypatch.setattr(Engine, "_ksk_target", spy_target)
    rc2, raw2 = _run(tmp_path, "--workload", "logreg", "--keys", str(keys))
    assert rc2 == 0
    doc1, doc2 = json.loads(raw1), json.loads(raw2)
    assert doc2["keys"]["saved"] == [] and doc2["keys"]["loaded"] == doc1["keys"]["saved"]
    assert doc1["functional"] == doc2["functional"]
    pset = load_param_config(tmp_path / "config.json")
    ksk_ids = [0] + list(range(1, 8))
    want = [(i, j, k) for k in ksk_ids for i in range(pset.levels)
            for j in range(len(pset.base.all_moduli))]
    drawn = [(i, j, k) for _, i, j, kind, k in uniform if kind == COMP_KSK_UNIFORM]
    assert sorted(drawn) == sorted(want)
    assert [t for t in errors if t[1] == COMP_KSK_ERROR] == []
    assert targets == []


def test_partly_warm_keys_load_present_and_save_only_missing(tmp_path):
    keys = tmp_path / "keys"
    rc1, raw1 = _run(tmp_path, "--workload", "rotate", "--keys", str(keys))
    assert rc1 == 0
    relin, rot1 = keys / "relin.ksk", keys / "rot1.ksk"
    relin_bytes, rot1_bytes = relin.read_bytes(), rot1.read_bytes()
    rot1.unlink()
    # an old mtime, so that a rewrite shows even on a coarse clock
    os.utime(relin, ns=(10**18, 10**18))
    rc2, raw2 = _run(tmp_path, "--workload", "rotate", "--keys", str(keys))
    assert rc2 == 0
    doc1, doc2 = json.loads(raw1), json.loads(raw2)
    assert doc2["keys"]["loaded"] == ["relin.ksk"] and doc2["keys"]["saved"] == ["rot1.ksk"]
    assert doc1["functional"] == doc2["functional"]
    assert rot1.read_bytes() == rot1_bytes
    assert relin.read_bytes() == relin_bytes and relin.stat().st_mtime_ns == 10**18


@pytest.mark.parametrize("flag", ["--clock-mhz", "--calibrate-costs"])
def test_simulation_flag_without_simulate_rejected(tmp_path, capsys, flag):
    # the flag only changes the cycle model, so without --simulate it would
    # have no effect
    calib = _write_config(tmp_path, {"set2_add_cycles": 2_865}, "calib.json")
    value = "400" if flag == "--clock-mhz" else str(calib)
    cfg = _write_config(tmp_path, TINY_SPLIT)
    assert main(["--config", str(cfg), "--workload", "add", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err and "--simulate" in err


def test_python_m_medha_runs_the_cli(capsys):
    # `python -m medha` is the `medha` script: the same exit code and the
    # same report bytes
    argv = ["--param-set", "set1", "--workload", "add", "--seed", "3"]
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    src = str(Path(medha.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "medha", *argv], env=env,
                          capture_output=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout == want
