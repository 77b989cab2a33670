"""CLI subcommands, exercised through main(argv)."""
from __future__ import annotations

import json

import pytest

from cascade_auctions import (
    CheckResult,
    colored_ads,
    load_instance,
    multi_order_approx,
    solve_exact,
    truthful_profile,
    vcg_apdc_outcome,
)
from cascade_auctions import cli
from cascade_auctions.harness import GeneratorConfig, generate_instance


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, num_ads=6, num_slots=2, seed=3):
    path = tmp_path / "instance.json"
    code = cli.main([
        "generate", "--ads", str(num_ads), "--slots", str(num_slots),
        "--seed", str(seed), "--out", str(path),
    ])
    assert code == 0
    return path


def test_generate_prints_loadable_json(capsys):
    code, out, err = run_cli(capsys, "generate", "--ads", "6", "--slots", "2", "--seed", "3")
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert set(doc) == {"K", "lambdas", "ads"}
    assert len(doc["ads"]) == 6
    inst = load_instance(out)
    assert inst == generate_instance(GeneratorConfig(num_ads=6, num_slots=2, seed=3))


def test_generate_writes_file(tmp_path, capsys):
    path = write_instance(tmp_path)
    assert capsys.readouterr().out == ""
    inst = load_instance(path.read_text())
    assert inst.num_ads == 6


def test_generate_rejects_bad_shape(capsys):
    code, out, err = run_cli(capsys, "generate", "--ads", "3", "--slots", "9")
    assert code == 1
    assert err.startswith("error:")


def test_prune_reports_partition_of_ids(tmp_path, capsys):
    path = write_instance(tmp_path, num_ads=12, num_slots=2, seed=4)
    code, out, err = run_cli(capsys, "prune", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    inst = load_instance(path.read_text())
    assert sorted(payload["surviving"] + payload["discarded"]) == list(inst.ids)
    assert payload["iterations"] >= 1
    assert payload["instance"]["K"] == 2
    assert payload["bound"] >= 0.0


def test_prune_writes_instance_file(tmp_path, capsys):
    path = write_instance(tmp_path, num_ads=12, num_slots=2, seed=4)
    out_path = tmp_path / "pruned.json"
    code, out, err = run_cli(
        capsys, "prune", "--input", str(path),
        "--strategy", "aggressive",
        "--out-instance", str(out_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["instance"] is None
    pruned = load_instance(out_path.read_text())
    assert set(pruned.ids) == set(payload["surviving"])


def test_solve_exact_matches_library(tmp_path, capsys):
    path = write_instance(tmp_path)
    code, out, err = run_cli(capsys, "solve", "--input", str(path), "--algo", "exact")
    assert code == 0
    payload = json.loads(out)
    res = solve_exact(load_instance(path.read_text()))
    assert payload["value"] == res.best_value
    assert payload["slots"] == list(res.best_alloc.slots)
    assert payload["complete"] is True


def test_solve_colored_matches_library(tmp_path, capsys):
    path = write_instance(tmp_path)
    code, out, err = run_cli(
        capsys, "solve", "--input", str(path), "--algo", "colored",
        "--iterations", "10", "--seed", "2",
    )
    assert code == 0
    payload = json.loads(out)
    res = colored_ads(load_instance(path.read_text()), iterations=10, seed=2)
    assert payload["value"] == res.value
    assert payload["iteration"] == res.iteration
    assert payload["iterations_run"] == 10


def test_solve_sorted_matches_library(tmp_path, capsys):
    path = write_instance(tmp_path)
    code, out, err = run_cli(
        capsys, "solve", "--input", str(path), "--algo", "sorted",
        "--orders", "5", "--seed", "2",
    )
    assert code == 0
    payload = json.loads(out)
    res = multi_order_approx(
        load_instance(path.read_text()), order_count=5, seed=2,
        include_natural=False,
    )
    assert payload["value"] == res.value
    assert payload["order_index"] == res.order_index


def test_mech_gsp_and_vcg_apdc(tmp_path, capsys):
    path = write_instance(tmp_path)
    inst = load_instance(path.read_text())
    bids_path = tmp_path / "bids.json"
    bids_path.write_text(json.dumps({str(ad.id): ad.value for ad in inst.ads}))

    for extra in (["--mechanism", "gsp"],
                  ["--mechanism", "vcg-apdc", "--allocator", "sorted"]):
        code, out, err = run_cli(
            capsys, "mech", "--input", str(path), "--bids", str(bids_path), *extra,
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["payments"]) == {str(i) for i in inst.ids}
        balance = sum(payload["utilities"].values()) + payload["revenue"]
        assert balance == pytest.approx(payload["social_welfare"], abs=1e-9)


def write_thirty_ad_auction(tmp_path):
    """30 ads, above the exact solver's 20-ad cap, with truthful bids."""
    path = write_instance(tmp_path, num_ads=30, num_slots=4, seed=1)
    inst = load_instance(path.read_text())
    bids_path = tmp_path / "bids.json"
    bids_path.write_text(json.dumps({str(ad.id): ad.value for ad in inst.ads}))
    argv = ("mech", "--input", str(path), "--bids", str(bids_path),
            "--mechanism", "vcg-apdc")
    return inst, argv


def test_mech_vcg_apdc_exact_budget(tmp_path, capsys):
    inst, argv = write_thirty_ad_auction(tmp_path)

    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert "without a node budget" in err

    code, out, err = run_cli(capsys, *argv, "--budget", "100000")
    assert code == 0
    payload = json.loads(out)
    expected = vcg_apdc_outcome(inst, truthful_profile(inst), budget=100_000)
    assert payload["slots"] == list(expected.alloc.slots)
    assert payload["payments"] == {str(k): v for k, v in sorted(expected.payments.items())}


def test_mech_vcg_apdc_exhausted_budget_fails(tmp_path, capsys):
    _, argv = write_thirty_ad_auction(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--budget", "100")
    assert code == 1
    assert out == ""
    assert "exhausted its node budget of 100" in err


def test_mech_rejects_incomplete_bids(tmp_path, capsys):
    path = write_instance(tmp_path)
    bids_path = tmp_path / "bids.json"
    bids_path.write_text(json.dumps({"1": 1.0}))
    code, out, err = run_cli(
        capsys, "mech", "--input", str(path), "--bids", str(bids_path),
        "--mechanism", "gsp",
    )
    assert code == 1
    assert "missing" in err


def test_mech_rejects_bids_that_are_not_an_object(tmp_path, capsys):
    path = write_instance(tmp_path)
    bids_path = tmp_path / "bids.json"
    bids_path.write_text(json.dumps([1.0, 2.0]))
    code, out, err = run_cli(
        capsys, "mech", "--input", str(path), "--bids", str(bids_path),
        "--mechanism", "gsp",
    )
    assert code == 1
    assert err.startswith("error:")


def test_mech_rejects_bid_too_large_for_a_float(tmp_path, capsys):
    path = write_instance(tmp_path)
    inst = load_instance(path.read_text())
    bids = {str(ad.id): ad.value for ad in inst.ads}
    bids["1"] = 10**400
    bids_path = tmp_path / "bids.json"
    bids_path.write_text(json.dumps(bids))
    code, out, err = run_cli(
        capsys, "mech", "--input", str(path), "--bids", str(bids_path),
        "--mechanism", "gsp",
    )
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("key", ["01", " 1", "abc"])
def test_mech_rejects_bid_keys_that_are_not_ad_ids(tmp_path, capsys, key):
    path = write_instance(tmp_path)
    inst = load_instance(path.read_text())
    bids = {str(ad.id): ad.value for ad in inst.ads}
    bids[key] = 2.0
    bids_path = tmp_path / "bids.json"
    bids_path.write_text(json.dumps(bids))
    code, out, err = run_cli(
        capsys, "mech", "--input", str(path), "--bids", str(bids_path),
        "--mechanism", "gsp",
    )
    assert code == 1
    assert err.startswith(f"error: {bids_path}: ")
    assert repr(key) in err


def test_solve_rejects_value_too_large_for_a_float(tmp_path, capsys):
    doc = json.loads(write_instance(tmp_path).read_text())
    doc["ads"][0]["v"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "solve", "--input", str(path), "--algo", "exact")
    assert code == 1
    assert err.startswith("error: ads[0]")


@pytest.mark.parametrize("command", [["solve", "--algo", "exact"], ["solve", "--algo", "sorted"], ["prune"]])
def test_id_outside_int64_is_an_error(tmp_path, capsys, command):
    doc = json.loads(write_instance(tmp_path).read_text())
    doc["ads"][0]["id"] = 2**70
    path = tmp_path / "huge_id.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command[0], "--input", str(path), *command[1:])
    assert code == 1
    assert err.startswith("error: ads[0].id: ")


def test_verify_lemma_green(capsys):
    code, out, err = run_cli(capsys, "verify-lemma", "--name", "gsp-sw-pos")
    assert code == 0
    rows = json.loads(out)
    assert rows and all(row["passed"] for row in rows)


def test_verify_lemma_csv_format(capsys):
    code, out, err = run_cli(
        capsys, "verify-lemma", "--name", "gsp-not-ir", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "label,expected,actual,passed"


def test_verify_lemma_rejects_unknown_name():
    with pytest.raises(SystemExit):
        cli.main(["verify-lemma", "--name", "nope"])


def test_verify_lemma_inapplicable_param(capsys):
    code, out, err = run_cli(
        capsys, "verify-lemma", "--name", "gsp-not-ir", "--eps", "0.1",
    )
    assert code == 1
    assert "error:" in err


def test_verify_lemma_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "verify",
        lambda entry, tol: [CheckResult("sw", "1", "2", passed=False)],
    )
    code, out, err = run_cli(capsys, "verify-lemma", "--name", "gsp-sw-pos")
    assert code == 1
    assert "1 of 1 checks failed" in err


def test_bench_writes_reports(tmp_path, capsys):
    rec = tmp_path / "records.csv"
    agg = tmp_path / "aggregate.csv"
    code, out, err = run_cli(
        capsys, "bench", "--ads", "8", "--slots", "2",
        "--trials", "2", "--reps", "1", "--algorithms", "prune,sorted",
        "--records", str(rec), "--aggregate", str(agg),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["records"] == 4
    assert summary["ratio_violations"] == 0
    assert rec.exists() and agg.exists()
    assert len(rec.read_text().splitlines()) == 5


def test_missing_input_file(capsys):
    code, out, err = run_cli(capsys, "solve", "--input", "/no/such/file.json",
                             "--algo", "exact")
    assert code == 1
    assert err.startswith("error:")
