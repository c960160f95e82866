import json
import math
import os

from primeconv import (cli, counting, error_correction, modmath, oracles,
                       segmentation, sieve, smooth_mobius)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_plain_output_is_bare_decimal(capsys):
    code, out, err = run_cli(capsys, "pi", "100")
    assert code == 0 and out == "25\n"
    code, out, _ = run_cli(capsys, "mertens", "1")
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli(capsys, "pi-mod", "100", "--modulus", "4",
                           "--residue", "3")
    assert code == 0 and out == "13\n"


def test_negative_results_print_with_sign(capsys):
    code, out, _ = run_cli(capsys, "mertens", "10")
    assert code == 0 and out == "-1\n"


def test_json_schema(capsys):
    code, out, _ = run_cli(capsys, "--json", "pi", "100000")
    assert code == 0
    obj = json.loads(out)
    for key in ("function", "n", "result", "delta", "s", "time_ms",
                "moduli", "timings_ms"):
        assert key in obj
    assert obj["function"] == "pi" and obj["n"] == 100000
    assert obj["result"] == 9592
    assert obj["delta"] is not None and obj["s"] is not None
    code, out, _ = run_cli(capsys, "--json", "sum-primes", "50", "--power", "2")
    obj = json.loads(out)
    assert obj["power"] == 2


def test_json_carries_transform_length_and_plain_output_does_not(
        capsys, monkeypatch):
    n = 200_000
    params = segmentation.make_params(
        n, counting._pipeline_delta(n, counting.DEFAULT_CONFIG))
    primes = sieve.primes_up_to(math.isqrt(n))
    parts = smooth_mobius.make_partitions(primes, params)
    (length,) = {part.pad_length for part in parts}
    partitions = [[part.hi - part.lo, part.r_used] for part in parts]
    forward = []
    real = modmath.ntt_forward

    def counted(values, ctx):
        forward.append(ctx.modulus)
        return real(values, ctx)

    monkeypatch.setattr(modmath, "ntt_forward", counted)
    counting._residue_pass.cache_clear()
    # the second pi-mod residue reuses the cached residue pass
    cases = ((["pi", str(n)], oracles.pi_naive(n)),
             (["sum-primes", str(n)], oracles.sum_primes_naive(n, 1)),
             (["pi-mod", str(n), "--modulus", "4", "--residue", "1"],
              oracles.pi_mod_naive(n, 4, 1)),
             (["pi-mod", str(n), "--modulus", "4", "--residue", "3"],
              oracles.pi_mod_naive(n, 4, 3)))
    runs = []
    for argv, value in cases:
        forward.clear()
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == 0
        obj = json.loads(out)
        assert obj["result"] == value and obj["transform_length"] == length, argv
        assert obj["partitions"] == partitions, argv
        # per modulus, as run: the cached residue reports its entry's run
        if forward:
            runs.append(obj["forward_transforms"])
            assert all(forward.count(p) == runs[-1] for p in obj["moduli"])
        else:
            assert obj["forward_transforms"] == runs[-1], argv
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == f"{value}\n", argv
    # unit weight, power 1 (orders 1..r_used), both characters mod 4
    truncated = [r for count, r in partitions if r < count]
    assert runs == [len(truncated), sum(truncated), 2 * len(truncated)]



def test_json_carries_correction_chunks_and_workers(capsys, monkeypatch):
    # the correction's job list is the last "correction" list handed to a
    # JobPool, beside the transform jobs of the same pool; the --json fields
    # must describe the run that happened
    seen = []
    real = error_correction.JobPool.map

    def record(pool, phase, fn, items):
        if phase == "correction":
            seen.append((len(items), pool.workers))
        return real(pool, phase, fn, items)

    monkeypatch.setattr(error_correction.JobPool, "map", record)
    monkeypatch.setattr(error_correction, "_auto_chunk", lambda total: 4096)
    # a window above error_correction._POOL_WINDOW, which a pool serves
    n = 6_000_000
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    counting._residue_pass.cache_clear()
    cases = ((["pi", str(n)], oracles.pi_naive(n), 1),
             (["sum-primes", str(n)], oracles.sum_primes_naive(n, 1), 2),
             (["pi-mod", str(n), "--modulus", "4", "--residue", "3"],
              oracles.pi_mod_naive(n, 4, 3), 1))
    for argv, value, primes in cases:
        seen.clear()
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == 0
        obj = json.loads(out)
        assert obj["result"] == value, argv
        assert obj["s"] >= error_correction._POOL_WINDOW
        # the moduli are the primes used: as few as the result's bound needs
        assert len(obj["moduli"]) == primes, argv
        assert seen[-1] == (obj["correction_chunks"], obj["correction_workers"])
        assert obj["correction_chunks"] > 2 and obj["correction_workers"] == 2
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == f"{value}\n", argv


def test_json_carries_the_pair_split(capsys, monkeypatch):
    # correction_split is the divisor split X and stride_cofactors the
    # largest stride cofactor d1_max = (n + S) // (X + 1), below isqrt(n)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    counting._residue_pass.cache_clear()
    for n, argv in ((200_000, ["pi"]), (10 ** 7, ["pi"]),
                    (10 ** 7, ["sum-primes", "--power", "1"]),
                    (10 ** 7, ["pi-mod", "--modulus", "4", "--residue", "1"])):
        argv = argv[:1] + [str(n)] + argv[1:]
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == 0, argv
        obj = json.loads(out)
        split, d1_max, window = (obj["correction_split"],
                                 obj["stride_cofactors"], obj["s"])
        assert d1_max == (n + window) // (split + 1) < math.isqrt(n), argv
        assert split >= (n + window) // math.isqrt(n), argv
        params = segmentation.make_params(
            n, counting._pipeline_delta(n, counting.Config()), need_window=True)
        plan = error_correction.correction_plan(params, math.isqrt(n))
        assert (split, d1_max) == (plan.split, plan.cofactors), argv
        # below _POOL_WINDOW the whole call runs on one worker
        assert obj["correction_workers"] == (
            1 if window < error_correction._POOL_WINDOW else 2), argv
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == f"{obj['result']}\n", argv


def test_json_carries_the_triple_pairs(capsys):
    code, out, _ = run_cli(capsys, "--json", "mertens", "1000000")
    obj = json.loads(out)
    assert code == 0 and obj["result"] == 212
    assert 0 < obj["triple_pairs"] <= 3 * (10 ** 6 + obj["s"]) ** (2 / 3)
    code, out, _ = run_cli(capsys, "mertens", "1000000")
    assert code == 0 and out == "212\n"


def test_consecutive_calls_share_no_state(capsys):
    # the parser is built once per process; each call parses afresh
    assert cli._build_parser() is cli._build_parser()
    code, out, _ = run_cli(capsys, "--json", "pi", "1000")
    assert code == 0 and json.loads(out)["result"] == 168
    code, out, _ = run_cli(capsys, "pi", "1000")
    assert code == 0 and out == "168\n"
    code, out, err = run_cli(capsys, "pi-mod", "1000", "--modulus", "4")
    assert code == 2 and out == "" and "--residue" in err
    code, out, err = run_cli(capsys, "pi-mod", "1000", "--modulus", "4",
                             "--residue", "3")
    assert (code, out, err) == (0, "87\n", "")


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "pi")[0] == 2
    assert run_cli(capsys, "nonsense", "5")[0] == 2
    assert run_cli(capsys, "pi", "-5")[0] == 2
    assert run_cli(capsys, "pi-mod", "100", "--modulus", "4", "--residue", "2")[0] == 2
    # above the largest character modulus, a constant
    code, out, err = run_cli(capsys, "pi-mod", "1000", "--modulus", "10001",
                             "--residue", "1")
    assert code == 2 and out == ""
    assert "modulus 10001 exceeds MAX_CHARACTER_MODULUS = 10000" in err
    # a factor below 2 or a start below 1 never grows past --to
    assert run_cli(capsys, "bench", "--from", "1000", "--to", "2000",
                   "--factor", "1")[0] == 2
    assert run_cli(capsys, "bench", "--from", "0", "--to", "10")[0] == 2
    # the oracle subcommand refuses what the main commands refuse
    for argv in (["oracle", "sum-primes", "100", "--power", "-1"],
                 ["oracle", "pi-mod", "100", "--modulus", "0", "--residue", "0"],
                 ["oracle", "pi-mod", "100", "--modulus", "4", "--residue", "2"],
                 ["oracle", "pi", "-5"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv


def test_invalid_config_fields_exit_2(capsys):
    # n below the cutoff: the check comes before the sieve fallback, and
    # the delta scale goes through the same check as the library's
    for flag, value, field in (("--delta-scale", "0", "delta scale"),
                               ("--delta-scale", "1/0", "delta scale")):
        code, _, err = run_cli(capsys, flag, value, "pi", "1000")
        assert code == 2 and field in err, (flag, value)


def test_flags_default_to_the_config_fields():
    args = cli._build_parser().parse_args(["pi", "1"])
    assert cli._config_from(args) == counting.DEFAULT_CONFIG


def test_coarse_delta_scale_answers(capsys):
    # the correction window comes from the knapsack bound, which needs no bound
    # on delta * log2(n)
    code, out, err = run_cli(capsys, "--delta-scale", "2", "pi", "1000000")
    assert (code, out, err) == (0, "78498\n", "")


def test_range_errors_exit_3(capsys):
    code, _, err = run_cli(capsys, "sum-primes", "100000000", "--power", "4")
    assert code == 3 and "range" in err
    # phi(11) = 10 divides p - 1 for one pool prime only, and pi(10^11)
    # needs two
    code, _, err = run_cli(capsys, "pi-mod", "100000000000", "--modulus", "11",
                           "--residue", "1")
    assert code == 3 and "order 10" in err


def test_verify_passes_and_mismatch_exits_4(capsys, monkeypatch):
    assert run_cli(capsys, "--verify", "pi", "10000")[0] == 0
    real = counting.count_primes_result

    def skewed(n, config=None):
        bundle = real(n, config)
        bundle.value += 1
        return bundle

    monkeypatch.setattr(counting, "count_primes_result", skewed)
    code, _, err = run_cli(capsys, "--verify", "pi", "10000")
    assert code == 4 and "mismatch" in err


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "squarefree", "20")
    assert code == 0 and out == "13\n"
    code, out, _ = run_cli(capsys, "oracle", "pi", "100")
    assert code == 0 and out == "25\n"


def test_cutoff_flag_picks_the_pipeline_or_the_sieve(capsys):
    # Config.cutoff is a constant, so n alone picks the route
    code, out, _ = run_cli(capsys, "--json", "pi", "2000")
    assert code == 0
    obj = json.loads(out)
    assert obj["delta"] is None  # sieve below the cutoff
    code, out, _ = run_cli(capsys, "--json", "pi", "200000")
    assert code == 0
    obj = json.loads(out)
    assert obj["delta"] is not None  # main path above it


def test_bench_csv_and_slope(capsys, cutoff):
    cutoff(100)
    code, out, _ = run_cli(capsys, "bench", "--from", "2000", "--to", "200000",
                           "--factor", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,result,total_s")
    assert len(lines) == 5  # header + 3 rows + slope
    assert lines[-1].startswith("slope,")
    float(lines[-1].split(",")[1])  # finite slope present
    rows = [line.split(",") for line in lines[1:-1]]
    assert [r[0] for r in rows] == ["2000", "20000", "200000"]
    # values are exact regardless of timings
    assert [r[1] for r in rows] == ["303", "2262", "17984"]


def test_bench_columns_are_the_phases_of_the_rows(capsys):
    # the columns follow the timings each function records, in the order
    # they first appear, so the Mertens family shows its own phases
    for fn, phase in (("mertens", "t_threshold"), ("totient-sum", "t_mertens")):
        code, out, _ = run_cli(capsys, "bench", "--fn", fn, "--from",
                               "1000000", "--to", "1000000")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:3] == ["n", "result", "total_s"]
        assert phase in header and "t_sieve" in header, (fn, header)


def test_bench_same_n_twice_identical_results(capsys):
    code, out, _ = run_cli(capsys, "--json", "bench", "--from", "150000",
                           "--to", "150000", "--factor", "10")
    obj1 = json.loads(out)
    code, out, _ = run_cli(capsys, "--json", "bench", "--from", "150000",
                           "--to", "150000", "--factor", "10")
    obj2 = json.loads(out)
    assert obj1["rows"][0]["result"] == obj2["rows"][0]["result"]
