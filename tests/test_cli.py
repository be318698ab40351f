import json
import pathlib

from ririg.cli import main

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"
PROOFS = pathlib.Path(__file__).resolve().parents[1] / "proofs"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main([str(a) for a in argv] + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_ok(capsys):
    code, out = run(capsys, "check", DATA / "g3delta.alg")
    assert code == 0
    assert "passed: True" in out


def test_check_reports_witness_and_replays(capsys, tmp_path):
    doc = json.loads((DATA / "b2.alg").read_text())
    doc["imp"][1][0] = 1
    bad = tmp_path / "bad.alg"
    bad.write_text(json.dumps(doc))
    code, report = run_json(capsys, "check", bad)
    assert code == 1
    assert report["failures"] == [{"axiom": "residuation",
                                   "witness": [1, 1, 0]}]
    witness = json.dumps(report["failures"][0])
    code, report = run_json(capsys, "check", bad,
                            "--verify-witness", witness)
    assert code == 0 and report["reproduced"] is True
    # the same witness against the sound algebra does not reproduce
    code, _ = run_json(capsys, "check", DATA / "b2.alg",
                       "--verify-witness", witness)
    assert code == 1


def test_filters_and_congruences(capsys):
    code, report = run_json(capsys, "filters", DATA / "g3id.alg")
    assert code == 0
    assert report["filters"] == ["{1}", "{a,1}", "{0,a,1}"]
    code, report = run_json(capsys, "congruences", DATA / "g3id.alg",
                            "--direct")
    assert code == 0
    assert report["count"] == 3 and report["agrees"] is True


def test_gen_filter(capsys):
    code, report = run_json(capsys, "gen-filter", DATA / "g3delta.alg",
                            "--set", "a")
    assert code == 0
    assert report["filter"] == "{0,a,1}"
    assert report["routes-agree"] is True
    code, report = run_json(capsys, "gen-filter", DATA / "g3id.alg",
                            "--set", "a")
    assert report["filter"] == "{a,1}"


def test_simple_and_si(capsys):
    code, report = run_json(capsys, "simple", DATA / "g3delta.alg")
    assert code == 0
    assert report["witnesses"]["a"] == {"blocks": ["m"],
                                        "lambda-exponent": 1,
                                        "lambda-power": 1}
    code, report = run_json(capsys, "simple", DATA / "g3id.alg")
    assert code == 1
    witness = json.dumps(report["witness"])
    code, rep = run_json(capsys, "simple", DATA / "g3id.alg",
                         "--verify-witness", witness)
    assert code == 0 and rep["reproduced"] is True
    code, report = run_json(capsys, "si", DATA / "g3id.alg")
    assert code == 0 and report["witness"] == "a"


def test_classify(capsys):
    code, report = run_json(capsys, "classify", DATA / "g3delta.alg")
    assert code == 0
    assert report["chain"] and report["contractive"]
    assert report["in-chain-variety"] and report["fg-intersection-law"]


def test_compatible_routes(capsys):
    code, report = run_json(capsys, "compatible", DATA / "g3id.alg",
                            "--fn", DATA / "fn_g3_step.fn")
    assert code == 0 and report["agree"] is True
    code, report = run_json(capsys, "compatible", DATA / "g3id.alg",
                            "--fn", DATA / "fn_g3_collapse.fn")
    assert code == 1
    witness = report["routes"]["direct"]["witness"]
    code, rep = run_json(capsys, "compatible", DATA / "g3id.alg",
                         "--fn", DATA / "fn_g3_collapse.fn",
                         "--verify-witness", json.dumps(witness))
    assert code == 0 and rep["reproduced"] is True


def test_compatible_random_sweep(capsys):
    code, report = run_json(capsys, "compatible", DATA / "g3delta.alg",
                            "--random", "50", "--seed", "11")
    assert code == 0
    assert report["disagreements"] == [] and report["seed"] == 11


def test_laf(capsys):
    code, report = run_json(capsys, "laf", DATA / "g3id.alg",
                            "--fn", DATA / "fn_g3_step.fn")
    assert code == 0 and report["verified"] is True


def test_laf_refuses_incompatible(capsys):
    code = main(["laf", str(DATA / "g3id.alg"),
                 "--fn", str(DATA / "fn_g3_collapse.fn")])
    assert code == 2


def test_enumerate(capsys, tmp_path):
    out = tmp_path / "c.cat"
    code, report = run_json(capsys, "enumerate", "--max-size", "3",
                            "--modals", "1", "--out", out)
    assert code == 0
    assert report["count"] == 13 and out.exists()


def test_prove_with_soundness(capsys):
    code, report = run_json(capsys, "prove", PROOFS / "thm_weakening.prf",
                            "--catalog", DATA / "cat3_m.cat")
    assert code == 0
    assert report["checked"] is True
    assert report["soundness"]["holds"] is True


def test_prove_bad_proof(capsys, tmp_path):
    bad = tmp_path / "bad.prf"
    bad.write_text("1. v0 ; ax1\n")
    code, report = run_json(capsys, "prove", bad)
    assert code == 1
    assert report["witness"]["line"] == 1
    code, rep = run_json(capsys, "prove", bad, "--verify-witness",
                         json.dumps(report["witness"]))
    assert code == 0 and rep["reproduced"] is True


def test_entails(capsys):
    code, report = run_json(capsys, "entails", "--catalog",
                            DATA / "cat3_m.cat", "--assume", "v0 = 1",
                            "--assume", "(v0 -> v1) = 1", "v1 = 1")
    assert code == 0 and report["entailed"] is True


def test_entails_countermodel_replays(capsys):
    code, report = run_json(capsys, "entails", "--catalog",
                            DATA / "cat3_m.cat",
                            "(v0 | (v0 -> bot)) = 1")
    assert code == 1
    witness = json.dumps(report["witness"])
    code, rep = run_json(capsys, "entails", "--catalog",
                         DATA / "cat3_m.cat", "(v0 | (v0 -> bot)) = 1",
                         "--verify-witness", witness)
    assert code == 0 and rep["reproduced"] is True


def test_entails_env_catalog(capsys, monkeypatch):
    monkeypatch.setenv("RIRIG_CATALOG", str(DATA / "cat3_m.cat"))
    code, report = run_json(capsys, "entails", "v0 -> v0 = 1")
    assert code == 0


def test_lddt(capsys):
    code, report = run_json(capsys, "lddt", "--catalog", DATA / "cat3_m.cat",
                            "--delta", "v0", "--goal", "m1(v0)")
    assert code == 0
    assert report["witness"] == [{"block": "m1", "formula": "v0"}]
    code, report = run_json(capsys, "lddt", "--catalog", DATA / "cat3_m.cat",
                            "--delta", "v0", "--goal", "v1",
                            "--product-bound", "1")
    assert code == 3


def test_lddt_lambda_mode(capsys):
    code, report = run_json(capsys, "lddt", "--catalog", DATA / "cat3_m.cat",
                            "--delta", "v0", "--goal", "m1(v0)",
                            "--lambda-mode")
    assert code == 0 and report["lambda-exponent"] == 1


def test_cep(capsys):
    code, report = run_json(capsys, "cep", DATA / "g3delta.alg")
    assert code == 0 and report["cep"] is True


def test_usage_errors(capsys, monkeypatch):
    monkeypatch.delenv("RIRIG_CATALOG", raising=False)
    assert main(["check", "/nonexistent.alg"]) == 2
    assert main(["compatible", str(DATA / "g3id.alg")]) == 2
    assert main(["entails", "v0 = 1"]) == 2


def test_sweep_options_must_be_positive(capsys):
    for option, extra in (("--random", ["--random", "0", "--jobs", "2"]),
                          ("--arity", ["--random", "5", "--arity", "0"]),
                          ("--random", ["--random", "-3"]),
                          ("--jobs", ["--random", "5", "--jobs", "0"])):
        assert main(["compatible", str(DATA / "g3id.alg")] + extra) == 2
        assert f"{option} must be at least 1" in capsys.readouterr().err


def test_witness_commands_refuse_invalid_algebra(capsys, tmp_path):
    from ririg.catalog import enumerate_ririgs
    from ririg.files import save_algebra
    from ririg.modal import ModalSignature
    alg, fn = tmp_path / "bad.alg", tmp_path / "bad.fn"
    save_algebra(enumerate_ririgs(4)[4].with_modals(ModalSignature(("m",)),
                                                    ((2, 0, 1, 3),)), alg)
    fn.write_text(json.dumps({"arity": 2, "table": [
        2, 2, 2, 2, 2, 0, 0, 0, 3, 3, 1, 3, 3, 2, 3, 1]}))
    runs = [["compatible", alg, "--fn", fn, "--route", route]
            for route in ("all", "direct", "blocks", "lambda")]
    runs += [["compatible", alg, "--random", "5"], ["laf", alg, "--fn", fn]]
    for argv in runs:
        assert main([str(a) for a in argv]) == 2
        assert "m: m(x->y) <= m(x)->m(y)" in capsys.readouterr().err


def test_entails_bad_catalog_exits_2(tmp_path):
    lines = (DATA / "cat3_m.cat").read_text().splitlines()
    rec = json.loads(lines[2])
    del rec["form"]
    truncated = tmp_path / "truncated.cat"
    truncated.write_text("\n".join(lines[:-1]) + "\n")
    missing_key = tmp_path / "missing.cat"
    missing_key.write_text("\n".join(lines[:2] + [json.dumps(rec)]
                                     + lines[3:]) + "\n")
    for bad in (truncated, missing_key):
        assert main(["entails", "--catalog", str(bad), "v0 -> v0 = 1"]) == 2


def test_json_reports_stable(capsys):
    _, first = run(capsys, "classify", DATA / "g3delta.alg", "--json")
    _, second = run(capsys, "classify", DATA / "g3delta.alg", "--json")
    assert first == second


def test_jobs_flag_does_not_change_output(capsys):
    _, one = run_json(capsys, "compatible", DATA / "g3delta.alg",
                      "--random", "40", "--seed", "5")
    _, two = run_json(capsys, "compatible", DATA / "g3delta.alg",
                      "--random", "40", "--seed", "5", "--jobs", "2")
    assert one == two


def test_compatible_refuses_function_of_wrong_size(capsys):
    witness = json.dumps({"congruence": "{0,1}", "pairs": [["0", "0"]]})
    for extra in ([], ["--route", "lambda"], ["--verify-witness", witness]):
        code = main(["compatible", str(DATA / "b2.alg"),
                     "--fn", str(DATA / "fn_g3_step.fn")] + extra)
        assert code == 2
        assert "function table size 3 does not match the algebra size 2" \
            in capsys.readouterr().err


def test_compat_witness_labels_and_pair_count_checked(capsys):
    cases = (
        ({"congruence": "{0} | {q}", "pairs": [["0", "0"]]},
         "unknown element 'q'"),
        ({"congruence": "{0} | {a,1}", "pairs": [["0", "q"]]},
         "unknown element 'q'"),
        ({"congruence": "{0} | {a,1}", "pairs": [[0, 1]]},
         "unknown element 0"),
        ({"congruence": "{0,1,2}", "pairs": [["0", "1"], ["0", "1"]]},
         "witness has 2 pairs but the function has arity 1"),
    )
    for witness, message in cases:
        code = main(["compatible", str(DATA / "g3id.alg"),
                     "--fn", str(DATA / "fn_g3_collapse.fn"),
                     "--verify-witness", json.dumps(witness)])
        assert code == 2
        assert message in capsys.readouterr().err


def test_compat_witness_partition_must_cover_each_element_once(capsys):
    for text, message in (("{0} | {1}", "no class holds a"),
                          ("{0,a} | {a,1}", "element 'a' appears twice")):
        witness = {"congruence": text, "pairs": [["a", "1"]]}
        code = main(["compatible", str(DATA / "g3id.alg"),
                     "--fn", str(DATA / "fn_g3_collapse.fn"),
                     "--verify-witness", json.dumps(witness)])
        assert code == 2
        assert message in capsys.readouterr().err


def test_witness_must_be_a_json_object(capsys):
    for argv in (["check", DATA / "g3id.alg"],
                 ["compatible", DATA / "g3id.alg",
                  "--fn", DATA / "fn_g3_collapse.fn"]):
        assert main([str(a) for a in argv]
                    + ["--verify-witness", "[1]"]) == 2
        assert "--verify-witness must be a JSON object" \
            in capsys.readouterr().err
