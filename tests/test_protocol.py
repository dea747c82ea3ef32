import dataclasses
import hashlib
import json

import numpy as np
import pytest

from scotsim import protocol
from scotsim.cli import main
from scotsim.dqacm import DqacmConfig
from scotsim.errors import ConfigError, SchedulingError
from scotsim.minkowski import Event, Layout, validate_layout
from scotsim.protocol import (
    Placement,
    ScotConfig,
    obliviousness_audit,
    placement_satisfied,
    run_pcc,
    run_pqc,
    run_psr,
    scot_config,
    standard_layout,
    transcript_to_json,
    verify_transcript,
)
from scotsim.quantum import bb84_family


def assert_clean(transcript):
    ok, violations = verify_transcript(transcript)
    assert ok, violations


class TestStandardLayout:
    def test_shape(self, layout3):
        lay = layout3.layout
        assert lay.m == 3
        assert len(lay.q_points) == 3
        assert sorted(lay.agents) == ["A", "A0", "A1", "A2", "B", "B0", "B1", "B2"]
        for i, q in enumerate(lay.q_points):
            assert q.x == (10.0 * i,)
            assert lay.regions[i].contains(q)

    def test_hub_midpoint(self, layout2):
        lay = layout2.layout
        assert lay.worldline("A")[0].x == (5.0,)
        assert lay.worldline("A") == lay.worldline("B")

    def test_hub_colocated_with_region(self):
        v = standard_layout(3, hub=1)
        assert v.layout.worldline("B")[0].x == (10.0,)
        # aliasing the hub with a spot keeps the geometry valid
        assert v.layout.worldline("B1")[0].x == (10.0,)

    def test_higher_dims(self):
        for dim in (2, 3):
            v = standard_layout(2, dim=dim)
            assert v.layout.dim == dim

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            standard_layout(1)
        with pytest.raises(ConfigError):
            standard_layout(2, dim=4)
        with pytest.raises(ConfigError):
            standard_layout(2, hub=5)


class TestConfig:
    def test_mode_checked(self, layout2):
        with pytest.raises(ConfigError):
            ScotConfig("qkd", 2, 4, layout2)

    def test_layout_m_must_match(self, layout3):
        with pytest.raises(ConfigError):
            ScotConfig("psr", 2, 4, layout3)

    def test_pcc_needs_measurement_config(self, layout2, bb84):
        with pytest.raises(ConfigError):
            ScotConfig("pcc", 2, 4, layout2)
        with pytest.raises(ConfigError):
            ScotConfig("pcc", 2, 4, layout2, DqacmConfig(2, 3, bb84))

    def test_rate_ranges(self, layout2):
        with pytest.raises(ConfigError):
            ScotConfig("psr", 2, 4, layout2, flip_rate=1.0)
        with pytest.raises(ConfigError):
            ScotConfig("psr", 2, 4, layout2, gamma=0.7)

    def test_builder_defaults(self):
        cfg = scot_config("pcc", 3, 2)
        assert cfg.layout.m == 3
        assert cfg.dqacm is not None and cfg.dqacm.m == 3

    @pytest.mark.parametrize("mode", ["psr", "pqc"])
    def test_thetas_outside_pcc_rejected(self, mode, layout2):
        with pytest.raises(ConfigError, match=f"mode '{mode}' has none"):
            scot_config(mode, 2, 4, layout2, thetas=(0.3,))
        assert scot_config("pcc", 2, 4, layout2, thetas=(0.3,)).dqacm is not None

    def test_wrong_mode_runner_pairing(self, layout2):
        cfg = scot_config("psr", 2, 4, layout2)
        with pytest.raises(ConfigError):
            run_pqc(cfg, np.zeros((2, 4), dtype=np.int64), 0, 0)


class TestPsr:
    @pytest.mark.parametrize("m", [2, 3])
    def test_receiver_learns_r(self, m):
        cfg = scot_config("psr", m, 6)
        for b in range(m):
            for seed in range(5):
                t = run_psr(cfg, b, seed)
                assert np.array_equal(t.outputs[b], t.extra["r"])
                assert_clean(t)

    def test_deterministic_per_seed(self, layout2):
        cfg = scot_config("psr", 2, 8, layout2)
        a = run_psr(cfg, 0, 42)
        b = run_psr(cfg, 0, 42)
        assert np.array_equal(a.outputs[0], b.outputs[0])
        assert np.array_equal(a.extra["r"], b.extra["r"])

    def test_noise_flips_at_rate(self, layout2):
        cfg = scot_config("psr", 2, 8, layout2, flip_rate=0.1)
        rng = np.random.default_rng(1)
        wrong = total = 0
        for _ in range(200):
            t = run_psr(cfg, 0, rng)
            wrong += int(np.sum(t.outputs[0] != t.extra["r"]))
            total += 8
        assert wrong / total == pytest.approx(0.1, abs=0.03)

    def test_b_range_checked(self, layout2):
        cfg = scot_config("psr", 2, 4, layout2)
        with pytest.raises(ConfigError):
            run_psr(cfg, 2, 0)


class TestPqc:
    @pytest.mark.parametrize("m", [2, 3])
    def test_targeted_string_is_delivered(self, m, rng):
        cfg = scot_config("pqc", m, 6)
        for b in range(m):
            for _ in range(5):
                x = rng.integers(0, 2, size=(m, 6))
                t = run_pqc(cfg, x, b, rng)
                assert np.array_equal(t.outputs[b], x[b])
                assert_clean(t)

    def test_pads_bind_x_to_r(self, layout2, rng):
        cfg = scot_config("pqc", 2, 8, layout2)
        x = rng.integers(0, 2, size=(2, 8))
        t = run_pqc(cfg, x, 1, rng)
        for i in range(2):
            assert np.array_equal(t.extra["pads"][i], x[i] ^ t.extra["r"])

    def test_x_shape_checked(self, layout2):
        cfg = scot_config("pqc", 2, 4, layout2)
        with pytest.raises(ConfigError):
            run_pqc(cfg, np.zeros((4,), dtype=np.int64), 0, 0)

    def test_noise_rate_on_output(self, layout2):
        cfg = scot_config("pqc", 2, 8, layout2, flip_rate=0.15)
        rng = np.random.default_rng(2)
        x = np.zeros((2, 8), dtype=np.int64)
        wrong = total = 0
        for _ in range(200):
            t = run_pqc(cfg, x, 0, rng)
            wrong += int(np.sum(t.outputs[0] != x[0]))
            total += 8
        assert wrong / total == pytest.approx(0.15, abs=0.03)


class TestPcc:
    @pytest.mark.parametrize("m", [2, 3])
    def test_all_committed_bases_work(self, m, rng):
        cfg = scot_config("pcc", m, 3)
        for b in range(m):
            for c in range(m):
                x = rng.integers(0, 2, size=(m, 3))
                t = run_pcc(cfg, x, b, rng, c=c)
                assert np.array_equal(t.outputs[b], x[b])
                assert t.extra["b_prime"] == (b + c) % m
                assert_clean(t)

    def test_decoded_row_is_committed_basis(self, rng):
        cfg = scot_config("pcc", 2, 4)
        x = rng.integers(0, 2, size=(2, 4))
        t = run_pcc(cfg, x, 0, rng, c=1)
        assert np.array_equal(t.extra["decoded"][0], t.extra["r"][1])

    def test_c_is_sampled_when_not_given(self, layout2):
        cfg = scot_config("pcc", 2, 2, layout2)
        x = np.zeros((2, 2), dtype=np.int64)
        seen = {run_pcc(cfg, x, 0, seed).extra["c"] for seed in range(12)}
        assert seen == {0, 1}

    def test_custom_angles(self, rng):
        cfg = scot_config("pcc", 2, 3, thetas=(np.pi / 3,))
        x = rng.integers(0, 2, size=(2, 3))
        t = run_pcc(cfg, x, 1, rng, c=0)
        assert np.array_equal(t.outputs[1], x[1])

    def test_c_range_checked(self, layout2):
        cfg = scot_config("pcc", 2, 2, layout2)
        with pytest.raises(ConfigError):
            run_pcc(cfg, np.zeros((2, 2), dtype=np.int64), 0, 0, c=2)


class TestPlacementPredicates:
    def test_each_kind(self, layout2):
        lay = layout2.layout
        q0 = lay.q_points[0]
        origin = Event(0.0, 0.0)
        assert placement_satisfied(layout2, Placement("in_g", None), origin)
        assert placement_satisfied(layout2, Placement("past_q", 0), origin)
        assert placement_satisfied(layout2, Placement("at_q", 0), q0)
        assert not placement_satisfied(layout2, Placement("at_q", 0), origin)
        assert placement_satisfied(layout2, Placement("in_region", 0), q0)
        assert placement_satisfied(layout2, Placement("past_region", 0), origin)
        late = Event(q0.t + 5.0, q0.x)
        assert not placement_satisfied(layout2, Placement("in_g", None), late)
        assert not placement_satisfied(layout2, Placement("past_region", 0), late)

    def test_unknown_kind(self, layout2):
        with pytest.raises(ValueError):
            placement_satisfied(layout2, Placement("nowhere", 0), Event(0.0, 0.0))


class TestVerification:
    def test_acausal_delivery_detected(self, layout2):
        cfg = scot_config("psr", 2, 4, layout2)
        t = run_psr(cfg, 0, 0)
        idx = next(k for k, msg in enumerate(t.messages) if msg.kind == "handover")
        msg = t.messages[idx]
        early = layout2.layout.worldline(msg.receiver)[0]
        t.messages[idx] = dataclasses.replace(msg, deliver=early)
        ok, violations = verify_transcript(t)
        assert not ok
        assert any(v["kind"] == "acausal_delivery" for v in violations)

    def test_off_worldline_event_detected(self, layout2):
        cfg = scot_config("psr", 2, 4, layout2)
        t = run_psr(cfg, 0, 0)
        op = t.local_ops[0]
        t.local_ops[0] = dataclasses.replace(op, event=Event(op.event.t + 0.5, op.event.x))
        ok, violations = verify_transcript(t)
        assert not ok
        assert any(v["kind"] == "event_off_worldline" for v in violations)

    def test_placement_violation_detected(self, layout2):
        cfg = scot_config("psr", 2, 4, layout2)
        t = run_psr(cfg, 0, 0)
        # move the in-region output onto an earlier worldline vertex
        idx = next(
            k for k, op in enumerate(t.local_ops) if op.kind == "output"
        )
        op = t.local_ops[idx]
        early = layout2.layout.worldline(op.agent)[0]
        t.local_ops[idx] = dataclasses.replace(op, event=early)
        ok, violations = verify_transcript(t)
        assert not ok
        assert any(v["kind"] == "placement_violated" for v in violations)

    def test_time_regression_detected(self, layout2):
        cfg = scot_config("psr", 2, 4, layout2)
        t = run_psr(cfg, 0, 0)
        idx = next(
            k for k, op in enumerate(t.local_ops) if op.kind == "measure"
        )
        op = t.local_ops[idx]
        last = layout2.layout.worldline(op.agent)[-1]
        t.local_ops[idx] = dataclasses.replace(op, event=last)
        ok, violations = verify_transcript(t)
        assert not ok
        assert any(v["kind"] == "agent_time_regression" for v in violations)

    def test_unknown_agent_detected(self, layout2):
        cfg = scot_config("psr", 2, 4, layout2)
        t = run_psr(cfg, 0, 0)
        t.messages[0] = dataclasses.replace(t.messages[0], sender="Z9")
        ok, violations = verify_transcript(t)
        assert not ok
        assert any(v["kind"] == "unknown_agent" for v in violations)

    def test_inconsistent_shift_detected(self):
        cfg = scot_config("pcc", 2, 2)
        t = run_pcc(cfg, np.zeros((2, 2), dtype=np.int64), 0, 0, c=1)
        t.extra["b_prime"] = (t.extra["b_prime"] + 1) % 2
        ok, violations = verify_transcript(t)
        assert not ok
        assert any(v["kind"] == "inconsistent_shift" for v in violations)


class TestScheduling:
    def test_truncated_worldline_fails_loudly(self):
        base = standard_layout(2).layout
        lines = {name: base.worldline(name) for name in base.agents}
        lines["B0"] = lines["B0"][:5]  # ends long before the handover
        cut = validate_layout(Layout(base.regions, base.q_points, lines))
        cfg = ScotConfig("psr", 2, 4, cut)
        with pytest.raises(SchedulingError):
            run_psr(cfg, 0, 0)

    @pytest.mark.parametrize("mode", protocol.MODES)
    def test_binder_agrees_with_verifier_at_the_light_cone(self, mode, edge_layout):
        # numpy's norm puts A's t=0 vertex on the edge of G, math.dist one
        # ulp outside it: the binder must refuse what verification rejects.
        origin = edge_layout.layout.worldline("A")[0]
        assert not placement_satisfied(edge_layout, Placement("in_g"), origin)
        cfg = scot_config(mode, 2, 2, edge_layout)
        with pytest.raises(SchedulingError, match="no vertex on 'A' satisfies prepare"):
            TestScheduleBinding._run(cfg, 0, 0)


class TestAudit:
    def test_psr_pqc_no_return_traffic(self, layout2, rng):
        cfg_psr = scot_config("psr", 2, 4, layout2)
        cfg_pqc = scot_config("pqc", 2, 4, layout2)
        x = np.zeros((2, 4), dtype=np.int64)
        ts = [run_psr(cfg_psr, b, rng) for b in (0, 1) for _ in range(10)]
        ts += [run_pqc(cfg_pqc, x, b, rng) for b in (0, 1) for _ in range(10)]
        res = obliviousness_audit(ts)
        assert res.ok and res.bob_to_alice == 0
        assert res.n_transcripts == 40

    def test_pcc_shift_looks_uniform(self, layout2, rng):
        cfg = scot_config("pcc", 2, 1, layout2)
        x = np.zeros((2, 1), dtype=np.int64)
        ts = [run_pcc(cfg, x, b, rng) for b in (0, 1) for _ in range(300)]
        res = obliviousness_audit(ts)
        assert res.ok
        assert {(row["m"], row["b"]) for row in res.chi2_rows} == {(2, 0), (2, 1)}
        for row in res.chi2_rows:
            assert row["runs"] == 300 and row["pvalue"] >= 0.001

    def test_rigged_receiver_is_caught(self, layout2, rng):
        cfg = scot_config("pcc", 2, 1, layout2)
        x = np.zeros((2, 1), dtype=np.int64)
        ts = [run_pcc(cfg, x, 0, rng, c=0) for _ in range(300)]
        res = obliviousness_audit(ts)
        assert not res.ok
        assert res.chi2_rows[0]["pvalue"] < 0.001

    @pytest.mark.parametrize("k", range(1, 12))
    def test_chi2_tail_matches_incomplete_gamma(self, k):
        import mpmath

        for x in [0.0, 1e-12, 1e-3, *np.linspace(0.25, 300.0, 240)]:
            with mpmath.workdps(40):
                want = float(mpmath.gammainc(mpmath.mpf(k) / 2, mpmath.mpf(x) / 2, regularized=True))
            got = protocol._chi2_sf(float(x), k)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (k, x)

    def test_planted_return_message_is_counted(self, layout2, rng):
        cfg = scot_config("psr", 2, 4, layout2)
        t = run_psr(cfg, 0, rng)
        leak = dataclasses.replace(t.messages[0], sender="B0", receiver="A")
        t.messages.append(leak)
        res = obliviousness_audit([t])
        assert not res.ok and res.bob_to_alice == 1


class TestTranscriptJson:
    def test_serializable_and_redacted(self, rng):
        cfg = scot_config("pcc", 2, 3)
        x = rng.integers(0, 2, size=(2, 3))
        t = run_pcc(cfg, x, 1, rng, c=0)
        doc = transcript_to_json(t)
        text = json.dumps(doc, sort_keys=True)
        parsed = json.loads(text)
        assert parsed["mode"] == "pcc" and parsed["b"] == 1
        assert "quantum" not in parsed["extra"]
        assert "record" not in parsed["extra"]
        assert parsed["outputs"]["1"] == x[1].tolist()

    def test_messages_carry_placements(self, layout2):
        cfg = scot_config("psr", 2, 4, layout2)
        doc = transcript_to_json(run_psr(cfg, 0, 0))
        kinds = {mk for msg in doc["messages"] for mk, _ in msg["deliver_placement"]}
        assert "at_q" in kinds and "past_region" in kinds


# Golden digests of honest runs.  Each is the sha256 of the canonical JSON of
# two consecutive runs from one generator (b = 0, then b = m - 1), followed
# by eight bytes drawn after them.  They were recorded while psr and pqc still
# measured every qubit through ``quantum.measure``; the slot table must
# reproduce them, so a change to any draw, or to the order of draws, fails.
RUN_DIGESTS = {
    ("psr", 2, 1, 0.0, None):
        "598b309f62880af8d83f9759bd2b5ff98a287f8fff098454d07726128e461a87",
    ("psr", 2, 1, 0.1, None):
        "9cd78956f021b11bae57dfac228c0926a66cac81472a815131deb4b4807aa5bb",
    ("psr", 2, 8, 0.0, None):
        "8b30ab61e21081defadfd175e1adbbcb6ee1faccecd640e82287f48ddc338b64",
    ("psr", 2, 8, 0.1, None):
        "3a0afd5f70c57bff48b3afef717c658068114c922f59202a9ffaaa4b827cf7cf",
    ("psr", 2, 64, 0.0, None):
        "9f6c924814f181bbfb080407f6765d95714ca36c8ba23036f9fa50d1bd6ddc3e",
    ("psr", 2, 64, 0.1, None):
        "defe61cb11043264aa0843895a5971351897eeed56bed59c259d6159d149957e",
    ("psr", 3, 1, 0.0, None):
        "41263daa8275a757c510ba6cf216ee3b3bfbe23beca4803af0418b0d00299549",
    ("psr", 3, 1, 0.1, None):
        "982522e9b8704af4caa62b2405552fd4084f209b162cff33f35671ec17a7a71b",
    ("psr", 3, 8, 0.0, None):
        "048634ad2b812fb1a6b18eac7f46227041d4701cbe3ae4ee3756155ff5211c07",
    ("psr", 3, 8, 0.1, None):
        "d53c26bcddad98dd2a7ef18f72c781c62b08c34634183a88e212b6a854e1c294",
    ("psr", 3, 64, 0.0, None):
        "6a39373f750496a0da3d09b7a4bee7f5a21ec6df3664cfddc28bc6e014eea422",
    ("psr", 3, 64, 0.1, None):
        "d632e3e228bd61e23f2e5af24c6c5d9d3d45d7a0d951d63ecea4b05ec105fd6e",
    ("pqc", 2, 1, 0.0, None):
        "0f36b88fce4e72470e3f50c126f6ad5047cf3b96a622fdc7ef57094086418d90",
    ("pqc", 2, 1, 0.1, None):
        "9a22d651ab175c23eea3e7a264d50506c27ae860977f1a4d0770711b2552ca2e",
    ("pqc", 2, 8, 0.0, None):
        "87c577c4add3ee19d926da032dde1651b97750a4044262e73ba87812c913eceb",
    ("pqc", 2, 8, 0.1, None):
        "343b0fdddba6b1c87ac263197cbe086aeb80f148f95852acf85030de2ff8efcc",
    ("pqc", 2, 64, 0.0, None):
        "062a9544b07a2bec8ad7c1460c016ebaa9bf4309bc45805d22f7d0f1172d7284",
    ("pqc", 2, 64, 0.1, None):
        "3b87883274d0ca941282c6255c9bbce4e9911bd3c717cd5a8777992c802ac575",
    ("pqc", 3, 1, 0.0, None):
        "4f73979529b64b934861a498427d9220cd3b7f18d703f31ec6eeaa198792ef01",
    ("pqc", 3, 1, 0.1, None):
        "da07a7e42ffb62f534aa7520f4302f10add9c17ab84bb48d4af6092e5bc3f447",
    ("pqc", 3, 8, 0.0, None):
        "2bfaf2c07b815007a54ed16f88010db1d6e0d7aac252538f8b93c656543fb4aa",
    ("pqc", 3, 8, 0.1, None):
        "f6e058cf4518e4d6597e7852f8026e641443e5d0dc466a15b018408ccc55073d",
    ("pqc", 3, 64, 0.0, None):
        "ad6813401131156a73ef9f21acbcc901dd6ad2dfa4432efe0a94e9c8bca1537c",
    ("pqc", 3, 64, 0.1, None):
        "ec6efa0486ec1939c81c5cba42b44d3367e440151b1a616f0e812c00098bbd32",
    ("pcc", 2, 1, 0.0, None):
        "f072d566439b3274077b83fbb451d39821c99eddeb4852cc929e734b9ff482f0",
    ("pcc", 2, 1, 0.0, 1):
        "56d8169d1f523201bd80520f7c4a5ad390dafcbf100fa351371c33969b33ddf2",
    ("pcc", 2, 1, 0.1, None):
        "608f015e3f6531506f5baa7de311684d63c1c2782281ec4e206b50fd050242c0",
    ("pcc", 2, 1, 0.1, 1):
        "4f4f2c0c2aa420f4af4d0234bb3fe002199867502d4e69577a625b8afcf3811c",
    ("pcc", 2, 8, 0.0, None):
        "6a73accc666706f5ab19bb4353d83d8bf3f1b5ddc3c34e9c91bba5ebea542b31",
    ("pcc", 2, 8, 0.0, 1):
        "32199a9baa7fd8318d29e9061a1284d9ab168a080a7a6a551434cfc9c5f6e653",
    ("pcc", 2, 8, 0.1, None):
        "e50cec66ef354c525360aec341f80705a58fec4fb8a868129c39c02f8db52631",
    ("pcc", 2, 8, 0.1, 1):
        "93bf6951be0988a6e30331b10cf30e310083574bd743ad13ecdc2e03817ffb62",
    ("pcc", 2, 64, 0.0, None):
        "c7755f6c055300a7ad8b4207879a1c37db7b8557146d7a7675eda26b7526a88c",
    ("pcc", 2, 64, 0.0, 1):
        "92517eea5dd7f8cce85413e9d727115d80721f118e8dbd1d04a6c83d5e7201da",
    ("pcc", 2, 64, 0.1, None):
        "b1580291907893741111903364be256d7cdf0e633153100406d9608110ef0500",
    ("pcc", 2, 64, 0.1, 1):
        "dc820dcb83d711e981a23117ffdc5afb166f85d966295b528b4d72e52765e8d1",
    ("pcc", 3, 1, 0.0, None):
        "9aa8b27be2028fc3784a6e73c6c602900e264a97b5390b08a270825ff200c9d3",
    ("pcc", 3, 1, 0.0, 2):
        "8ffd75ad12f31d8a458031199aaa4daf99be30de76e8b9063b698aaba2ca9f15",
    ("pcc", 3, 1, 0.1, None):
        "59b47dc603ee5b2939cf140e125197387c41bdd190f399d1ef4050e2c1b0f67d",
    ("pcc", 3, 1, 0.1, 2):
        "ab51b8cb2f252123d37de02d8a167134ded722c86c01cf07fc5ac2196bcea621",
    ("pcc", 3, 8, 0.0, None):
        "91c1bdeda0212e1434b98bfb2a442c6baf7dc2fe91a397d2ba0d2c987305b6d7",
    ("pcc", 3, 8, 0.0, 2):
        "a8cc8fcf8b02db553a57e7d4dfb072a02c397bef60d39d271a118dfde90aba26",
    ("pcc", 3, 8, 0.1, None):
        "0878a5f59d8e29da025448e8774ef7fc2401e7e7a82a2f1746ea56579336ed32",
    ("pcc", 3, 8, 0.1, 2):
        "13293903cfbf8ab524f81eef6d7957deeae17e7dccdc1808b4f2990c8218bdd0",
    ("pcc", 3, 64, 0.0, None):
        "6148ef5fdde45a11ac5278e7addda8ae7ade825f3edfbf7f9bd68c8fdd2bf52b",
    ("pcc", 3, 64, 0.0, 2):
        "424ff53503bd944cb82b14818d3d876057ed6d529b7e1dd8799884360a5123bc",
    ("pcc", 3, 64, 0.1, None):
        "904c283b0f5bcd1b4c04214c4eb71ed744545c900d26eaeace6ff8d1c3d62dde",
    ("pcc", 3, 64, 0.1, 2):
        "a0b93c6d3d17c81381c5be09afa5f247de8b3c1a8c2cda0567507982f776a7b5",
}

# sha256 of the stdout and of transcript.json of
# ``scotsim run --mode MODE --m 3 --n 8 --b 1 --seed 7 --flip-rate 0.1``.
CLI_ARGS = ["--m", "3", "--n", "8", "--b", "1", "--seed", "7", "--flip-rate", "0.1"]
CLI_DIGESTS = {
    "psr": (
        "49bc00a3929358654d60b6a183cae8a9cf9355ccfb508f8f76626255e445d12e",
        "00602e5152b7ea55f04a4aac177b5446dc9c77ff11bc65784b8cedeb7870f125",
    ),
    "pqc": (
        "6db8948e54a3a467f1e35d75b5147b8859c0f920daebb959b3aa57ee785a9fea",
        "98cb44a6bb15ee97a175d926322dd319d435cc22ceae38726630eea5923e386d",
    ),
    "pcc": (
        "40ac18b4badf3ea3cf7d4e87ad998c5dc7394ab69325e43480cf667d91f5be3f",
        "f26a99f69c42ccc2ae0a1227e1d26678629eea81ade06b0c05e1435720d7da95",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _runs_digest(mode, m, n, flip_rate, c):
    cfg = scot_config(mode, m, n, flip_rate=flip_rate)
    rng = np.random.default_rng([m, n, round(flip_rate * 10), 0 if c is None else c + 1])
    docs = b""
    for b in (0, m - 1):
        if mode == "psr":
            t = run_psr(cfg, b, rng)
        else:
            x = rng.integers(0, 2, size=(m, n))
            t = run_pqc(cfg, x, b, rng) if mode == "pqc" else run_pcc(cfg, x, b, rng, c=c)
        docs += json.dumps(transcript_to_json(t), sort_keys=True).encode()
    return _sha(docs + rng.bytes(8))


class TestGoldenDigests:
    @pytest.mark.parametrize("mode", protocol.MODES)
    def test_runs_reproduce_recorded_draws(self, mode):
        cases = [case for case in RUN_DIGESTS if case[0] == mode]
        assert len(cases) == (24 if mode == "pcc" else 12)
        moved = [case for case in cases if _runs_digest(*case) != RUN_DIGESTS[case]]
        assert moved == []

    @pytest.mark.parametrize("mode", protocol.MODES)
    def test_cli_run_output_is_unchanged(self, mode, tmp_path, capsys):
        rc = main(["run", "--mode", mode, *CLI_ARGS, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out.encode()
        transcript = (tmp_path / "transcript.json").read_bytes()
        assert (_sha(out), _sha(transcript)) == CLI_DIGESTS[mode]


class TestScheduleBinding:
    """Binding depends only on (layout object, mode, b) and happens once."""

    @staticmethod
    def _count_binds(monkeypatch):
        calls = []
        bind = protocol._bind_schedule

        def counting(geo, actions):
            calls.append([a.kind for a in actions])
            return bind(geo, actions)

        monkeypatch.setattr(protocol, "_bind_schedule", counting)
        return calls

    @staticmethod
    def _run(cfg, b, seed, c=None):
        if cfg.mode == "psr":
            return run_psr(cfg, b, seed)
        x = np.zeros((cfg.m, cfg.n), dtype=np.int64)
        if cfg.mode == "pqc":
            return run_pqc(cfg, x, b, seed)
        return run_pcc(cfg, x, b, seed, c=c)

    @pytest.mark.parametrize("mode", protocol.MODES)
    def test_bound_once_per_layout_mode_and_target(self, mode, monkeypatch):
        calls = self._count_binds(monkeypatch)
        layout = standard_layout(3)
        cfg = scot_config(mode, 3, 4, layout=layout, flip_rate=0.1)
        first = self._run(cfg, 0, 1, c=0)
        assert len(calls) == 1
        # other data, c, n and flip rate: nothing to bind
        second = self._run(cfg, 0, 2, c=2)
        self._run(scot_config(mode, 3, 8, layout=layout), 0, 3)
        assert len(calls) == 1
        assert [m.emit for m in second.messages] == [m.emit for m in first.messages]
        assert [op.event for op in second.local_ops] == [op.event for op in first.local_ops]
        assert_clean(second)
        # another target binds its own schedule, then reuses it
        self._run(cfg, 1, 4)
        self._run(cfg, 1, 5)
        assert len(calls) == 2
        # an equal but distinct layout object binds afresh
        self._run(scot_config(mode, 3, 4, layout=standard_layout(3)), 0, 6)
        assert len(calls) == 3

    def test_modes_bind_apart(self, monkeypatch):
        calls = self._count_binds(monkeypatch)
        layout = standard_layout(2)
        for mode in protocol.MODES:
            self._run(scot_config(mode, 2, 2, layout=layout), 1, 0)
        assert len(calls) == 3
        assert [kinds[1] for kinds in calls] == ["qubits", "qubits", "state"]

    def test_infeasible_layout_raises_on_every_call(self, monkeypatch):
        calls = self._count_binds(monkeypatch)
        base = standard_layout(2).layout
        lines = {name: base.worldline(name) for name in base.agents}
        lines["B0"] = lines["B0"][:5]  # ends long before the handover
        cut = validate_layout(Layout(base.regions, base.q_points, lines))
        cfg = ScotConfig("psr", 2, 4, cut)
        for _ in range(2):
            with pytest.raises(SchedulingError, match="B0"):
                run_psr(cfg, 0, 0)
        assert len(calls) == 2
        assert protocol._cached(cut)[1] == {}

    def test_tampering_a_warm_run_leaves_the_next_one_clean(self, layout2):
        cfg = scot_config("pcc", 2, 2, layout2)
        x = np.zeros((2, 2), dtype=np.int64)
        tampered = run_pcc(cfg, x, 0, 1)
        k = next(k for k, msg in enumerate(tampered.messages) if msg.kind == "handover")
        early = layout2.layout.worldline(tampered.messages[k].receiver)[0]
        tampered.messages[k] = dataclasses.replace(tampered.messages[k], deliver=early)
        tampered.local_ops[-1].payload["value"] = [1, 1]
        ok, violations = verify_transcript(tampered)
        assert not ok and any(v["kind"] == "acausal_delivery" for v in violations)
        fresh = run_pcc(cfg, x, 0, 1)
        assert_clean(fresh)
        assert fresh.local_ops[-1].payload["value"] == [0, 0]


def _shifted(vlayout, dx=0.25):
    """The same regions with every worldline moved ``dx`` along the first axis."""
    base = vlayout.layout
    lines = {
        name: [Event(e.t, (e.x[0] + dx, *e.x[1:])) for e in base.worldline(name)]
        for name in base.agents
    }
    return validate_layout(Layout(base.regions, base.q_points, lines))


class TestLazyTranscript:
    """Honest runs keep their schedule and payloads; the lists come on demand."""

    @staticmethod
    def _count_builds(monkeypatch):
        built = []

        class CountingMessage(protocol.Message):
            def __init__(self, *args, **kwargs):
                built.append("message")
                super().__init__(*args, **kwargs)

        class CountingLocalOp(protocol.LocalOp):
            def __init__(self, *args, **kwargs):
                built.append("local")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(protocol, "Message", CountingMessage)
        monkeypatch.setattr(protocol, "LocalOp", CountingLocalOp)
        return built

    @pytest.mark.parametrize("mode", protocol.MODES)
    def test_run_verify_and_audit_build_nothing(self, mode, monkeypatch):
        cfg = scot_config(mode, 3, 2)
        for b in range(3):  # binding makes each schedule's payload-less steps once
            TestScheduleBinding._run(cfg, b, 0)
        built = self._count_builds(monkeypatch)
        ts = [TestScheduleBinding._run(cfg, k % 3, k) for k in range(6)]
        for t in ts:
            assert_clean(t)
        assert obliviousness_audit(ts).bob_to_alice == 0
        assert built == []
        messages, local_ops = ts[0].messages, ts[0].local_ops
        assert len(built) == len(messages) + len(local_ops) > 0
        assert built.count("message") == len(messages)
        # a second read returns the same lists and builds nothing more
        assert ts[0].messages is messages and ts[0].local_ops is local_ops
        assert len(built) == len(messages) + len(local_ops)
        assert [msg.seq for msg in messages] == sorted(msg.seq for msg in messages)
        assert all(msg.payload is ts[0].payloads[msg.seq - 1] for msg in messages)

    def test_built_lists_are_the_transcript(self, layout2):
        cfg = scot_config("pcc", 2, 2, layout2)
        t = run_pcc(cfg, np.zeros((2, 2), dtype=np.int64), 0, 5)
        assert protocol.receiver_to_sender_kinds(t) == ["basis_shift"]
        t.messages.append(dataclasses.replace(t.messages[0], sender="B1", receiver="A0"))
        assert protocol.receiver_to_sender_kinds(t) == ["basis_shift", t.messages[0].kind]
        assert obliviousness_audit([t]).bob_to_alice == 1

    def test_non_bit_inputs_rejected(self, layout2):
        cfg = scot_config("pqc", 2, 2, layout2)
        for bad in (2, -1):
            with pytest.raises(ConfigError, match="bits"):
                run_pqc(cfg, np.full((2, 2), bad), 0, 0)


class TestVerdictCache:
    """The verdict kept on a schedule is derived from geometry and can fail."""

    def test_retargeted_layout_gets_the_full_check(self):
        layout = standard_layout(2)
        t = run_psr(scot_config("psr", 2, 2, layout), 0, 0)
        assert_clean(t)
        ok, violations = verify_transcript(t, _shifted(layout))
        assert not ok
        assert any(v["kind"] == "event_off_worldline" for v in violations)
        assert_clean(t)
        # the schedule's own layout object keys the verdict, not the field
        t.layout = _shifted(layout)
        ok, violations = verify_transcript(t)
        assert not ok
        assert any(v["kind"] == "event_off_worldline" for v in violations)

    def test_verdict_is_derived_not_assumed(self, monkeypatch):
        t = run_pqc(scot_config("pqc", 2, 2, standard_layout(2)), np.zeros((2, 2)), 1, 0)
        monkeypatch.setattr(protocol, "placement_satisfied", lambda *args: False)
        ok, violations = verify_transcript(t)
        assert not ok
        assert any(v["kind"] == "placement_violated" for v in violations)

    def test_tampering_after_a_clean_verdict_is_caught(self, layout2):
        cfg = scot_config("psr", 2, 2, layout2)
        t = run_psr(cfg, 0, 0)
        assert_clean(t)
        op = t.local_ops[0]
        t.local_ops[0] = dataclasses.replace(op, event=Event(op.event.t + 0.5, op.event.x))
        ok, violations = verify_transcript(t)
        assert not ok
        assert any(v["kind"] == "event_off_worldline" for v in violations)
        assert_clean(run_psr(cfg, 0, 1))

    def test_old_transcripts_verify_after_eviction(self):
        layouts = [standard_layout(2) for _ in range(3)]
        old = [run_psr(scot_config("psr", 2, 1, lay), 0, k) for k, lay in enumerate(layouts)]
        assert_clean(old[0])
        for k in range(20):
            assert_clean(run_psr(scot_config("psr", 2, 1, standard_layout(2)), 1, k))
        assert all(id(lay) not in protocol._GEOMETRY_CACHE for lay in layouts)
        for t in old:
            assert_clean(t)
        assert verify_transcript(old[1], layouts[2])[0]
        ok, violations = verify_transcript(old[2], _shifted(layouts[2]))
        assert not ok
        assert any(v["kind"] == "event_off_worldline" for v in violations)
