import json

from sttrack import cli


def test_eval_mota_only_policy_disables_state_gates(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"sim": {"frames": 30}}))
    data, tracks, out = tmp_path / "data", tmp_path / "tracks", tmp_path / "eval.json"
    assert cli.main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    assert cli.main([
        "track", "--config", str(config), "--data", str(data), "--out", str(tracks),
        "--backend", "kalman",
    ]) == 0
    assert cli.main([
        "eval", "--config", str(config), "--gt", str(data), "--results", str(tracks),
        "--out", str(out), "--policy", "mota-only",
    ]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["policy"]["state_thresholds"]["vehicle"] == {
        "velocity": "inf", "acceleration": "inf"
    }
    row = report["classes"]["vehicle"]
    assert row["gt_total"] == 30 * 20
    assert row["s_mota"] == row["mota"]
