"""Golden identity of the observability artifacts across code changes.

Every other identity test compares two runs of the *same* code (jobs=1 vs
jobs=N, cache hit vs miss, burst vs per-packet).  This one pins the bytes
themselves: sha256 digests of the trace, the flight dump, the span
artifact, the telemetry payload and the summary of a fixed scenario set,
so a refactor of the instrumentation plumbing must reproduce them exactly.

Each scenario runs twice:

* **armed** -- trace sink, spans and telemetry on, default flight ring.
  The trace is digested twice: as the on-disk JSONL file (sorted keys)
  and as insertion-ordered JSON per event, so the field order inside each
  record is pinned too.
* **ring** -- nothing but the flight recorder, at a capacity large enough
  that no note is evicted, so every note the run takes is pinned.

If a change *intends* to alter these artifacts, regenerate the table with
``PYTHONPATH=src python tests/test_golden_artifacts.py`` and say why in
the change log.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from repro.experiments import conflict, granularity, overreaction
from repro.experiments.common import ScenarioConfig, run_scenario
from repro.faults import Blackout, BurstyLoss, FaultSchedule
from repro.middleware.adaptation import FecAdaptation, FrequencyAdaptation
from repro.obs.sinks import JsonlTraceSink
from repro.obs.telemetry import TelemetryConfig
from repro.transport.fec import FecConfig

TRANSPORTS = ("tcp", "rudp", "rudp_nocc", "rudp_reno",
              "iq", "iq_nocond", "iq_nodiscard", "iq_noreinflate")

_TEL = TelemetryConfig(cadence_s=0.05)
#: Large enough that no ring-mode scenario evicts a note.
_RING_CAPACITY = 1_000_000


def _frequency() -> FrequencyAdaptation:
    return FrequencyAdaptation(upper=0.05, lower=0.01)


def _fec_app() -> FecAdaptation:
    return FecAdaptation(upper=0.05, lower=0.01)


def _scenarios() -> dict[str, ScenarioConfig]:
    out = {t: ScenarioConfig(transport=t, workload="greedy", n_frames=200,
                             base_frame_size=1400, cbr_bps=19.5e6, seed=3,
                             time_cap=10.0)
           for t in TRANSPORTS}
    # IQ+FEC under Gilbert-Elliott burst loss and a blackout, with frame
    # deadlines: FEC repairs/recoveries, stall degrade/recover, redundancy
    # boosts and relaxes, fault phases and abandoned frames.
    out["faulted"] = ScenarioConfig(
        workload="trace_clocked", n_frames=100, frame_rate=25,
        frame_multiplier=3000, adaptation=conflict._app_strategy,
        loss_tolerance=0.40, cbr_bps=12e6, metric_period=0.25, seed=2,
        time_cap=900.0, frame_deadline_s=0.5,
        fec=FecConfig(k=8, r=1, r_max=3, adaptive=True),
        faults=FaultSchedule(
            BurstyLoss(start=0.5, stop=6.0, p_gb=0.02, p_bg=0.25),
            Blackout(start=2.0, stop=3.0, direction="both")))
    # TCP cross traffic numbers its chunks as frames 0, 1, ... in the same
    # stream as the app's frames; the spans must keep only the app's.
    out["tcp_cross"] = ScenarioConfig(
        transport="iq", workload="fixed_clocked", n_frames=60,
        tcp_cross_bytes=300_000, seed=3, time_cap=15.0)
    out["conflict"] = conflict._changing_app_config(80, 1)
    # Table 4's regime on plain RUDP: unmarked losses become skips.
    out["conflict_skips"] = conflict._changing_net_config(400, 1).replace(
        transport="rudp")
    out["overreaction"] = overreaction._changing_net_config(16e6, 1500, 1)
    out["granularity"] = granularity._changing_app_config(1200, 1)
    # Frequency and coding-rate adaptation close the coordination-action
    # vocabulary (no window change, FEC redundancy, FEC unavailable).
    base = conflict._changing_app_config(60, 1)
    out["frequency"] = base.replace(adaptation=_frequency)
    out["fec_app"] = base.replace(adaptation=_fec_app, fec="8/1/3")
    out["fec_unavailable"] = base.replace(adaptation=_fec_app)
    return out


SCENARIOS = _scenarios()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json(obj) -> bytes:
    return json.dumps(obj, default=repr).encode()


class _OrderedSink:
    """Keeps each event as insertion-ordered JSON (field order pinned)."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def append(self, ev) -> None:
        self.lines.append(json.dumps(ev.as_obj(), default=repr))


class _Tee:
    def __init__(self, *sinks) -> None:
        self.sinks = sinks

    def append(self, ev) -> None:
        for s in self.sinks:
            s.append(ev)


def artifact_digests(cfg: ScenarioConfig, tmp_dir, monkeypatch) -> dict:
    """sha256 of every observability artifact of ``cfg`` (see module
    docstring for the two run modes)."""
    monkeypatch.delenv("REPRO_FLIGHT", raising=False)
    path = tmp_dir / "trace.jsonl"
    ordered = _OrderedSink()
    with JsonlTraceSink(path) as jsonl:
        armed = run_scenario(cfg.replace(spans=True, telemetry=_TEL),
                             trace_sink=_Tee(jsonl, ordered))
    monkeypatch.setenv("REPRO_FLIGHT", str(_RING_CAPACITY))
    ring = run_scenario(cfg)
    monkeypatch.delenv("REPRO_FLIGHT")
    return {
        "trace_jsonl": _sha(path.read_bytes()),
        "trace_ordered": _sha("\n".join(ordered.lines).encode()),
        "flight": _sha(_json(armed.flight)),
        "spans": _sha(_json(armed.spans)),
        "telemetry": _sha(_json(armed.telemetry.as_dict())),
        "summary": _sha(_json(armed.summary)),
        "ring_flight": _sha(_json(ring.flight)),
        "ring_summary": _sha(_json(ring.summary)),
    }


GOLDEN: dict[str, dict[str, str]] = {
    "conflict": {
        "flight":
            "776a4c915981f288a7f266df4d89586da85d1190c170e600acc47c70d5378b75",
        "ring_flight":
            "269a4effd3f47603a5e7faa3baf45696b111268b1989157b34b4f77a217e882e",
        "ring_summary":
            "c6e680e0e249de439194275d1185a4afde1a12b14435a752dc6df812093da299",
        "spans":
            "60c6f5f5cd8b8b2ed5efd11d0c2379d22d92027078ffdbddcb2bd2ced2c8666b",
        "summary":
            "c6e680e0e249de439194275d1185a4afde1a12b14435a752dc6df812093da299",
        "telemetry":
            "8957b44e5d581aad202d85129b1ae9018251d0615c1f639204d4f60988b0915a",
        "trace_jsonl":
            "ccf599d3b0d3263a544dbde6e299e2d1403934352670d099d4201e429b1e07c3",
        "trace_ordered":
            "aad18401d56630e040e0a165ec7fbbd72279f0192b7fd0d7ce09964bb1333a3e",
    },
    "conflict_skips": {
        "flight":
            "d2ef0e9bdc81ab3f258110f188f26698b0fbaa2221fe3ed8cb4f59d4a6884a8c",
        "ring_flight":
            "9b87dfdc33dea6cc7fc8bfc3bab71b65a2b4a48a8442e15b903e7bc75e1c5487",
        "ring_summary":
            "0e0240a0f856db7026bbbb40e2b63c9c090813d5a094226058286f76fdb67a1d",
        "spans":
            "8e0d4b89f2a6218dceea5046819a07d4b6a74f9d72e8b4351d84b0f775d99f7d",
        "summary":
            "0e0240a0f856db7026bbbb40e2b63c9c090813d5a094226058286f76fdb67a1d",
        "telemetry":
            "5e1cb7f58826ffca8c1f874b0e885bfba6209a0b4d48c851d4f12ddc9e70e7c8",
        "trace_jsonl":
            "50d6861941e2989d388c75860d27425c1bf35e131be733ba175ac34ef4c5dc47",
        "trace_ordered":
            "a9954ed426404698935317ee29434096294ec63411a2f5f50ed58a88f1b48f22",
    },
    "faulted": {
        "flight":
            "fc23ab8ea0f96c690df027ed1edd9faf3952fbc5ae86e891324725be2751a54c",
        "ring_flight":
            "a70b9100bafbba285bcc327a2932429d4155f66ae9a694784ec3b01ba8e2e718",
        "ring_summary":
            "5c2e3ed92910f53d885cfb764eaa1f4fd5ec1b9190aecb9790fda656cfa461b1",
        "spans":
            "169b3b33d9dbfefd9d19217db3bb585bd65bde8ec5aa7ccdc4cd3af8a1118f62",
        "summary":
            "5c2e3ed92910f53d885cfb764eaa1f4fd5ec1b9190aecb9790fda656cfa461b1",
        "telemetry":
            "d430fdf5f7c0dd636e8be66b4011c9c1433dad89cc1be6af0d3ff5dd5248b01d",
        "trace_jsonl":
            "d7c451a19606ad9eb51b27df5c8c1d5deacdbc59748184cb6f5bf57a4e773846",
        "trace_ordered":
            "159225cb51b911f93d0d3fadaaff06f1d561072bc24d5d2e131574c0e40c00ee",
    },
    "fec_app": {
        "flight":
            "7746aa83858125571e238830cf4d6ba2a1c99bba72dd7390ac939f538a5c3b91",
        "ring_flight":
            "7b08acd5ac474b637fcebb0b6e512c4e4699f51fc8e168d94d3048d255dce2ec",
        "ring_summary":
            "b8b25909318851ebd44ba0ee4ca65933f1ced8a97d820ec881c4db5e2e2b42c3",
        "spans":
            "5aa07fe0d7b8aca3c984eb53dc69a965069aa1e98f604741bfdf0261a708e939",
        "summary":
            "b8b25909318851ebd44ba0ee4ca65933f1ced8a97d820ec881c4db5e2e2b42c3",
        "telemetry":
            "8ff3cd0ab4c17c28f690b4448a8853c54b1417cb52614c14f73301699797921d",
        "trace_jsonl":
            "3a80ea054ac18bef105452e30b226df0b8cbd4186263ea779e4fe6a758644a8b",
        "trace_ordered":
            "e0ab7af9bc96a3eb43c68cd5865fdb4f27e1c23420de0233feef5859d1af660c",
    },
    "fec_unavailable": {
        "flight":
            "f2871da393f8b5b9080a64ce4e18cf0dac17d060c461c5f7abf5f53a41d0662f",
        "ring_flight":
            "d781c94bec2a56874613eec2226f7e88d0eadd8132581dfd1a3b3c4a917e407e",
        "ring_summary":
            "bdbb5fa07e0d73c94039448dc6e4b1a0210b16769136339c3e37e30c17221f79",
        "spans":
            "8124ff652a965fa067282b695c9e0381c5e6036c90766e26e1468c1368e8b261",
        "summary":
            "bdbb5fa07e0d73c94039448dc6e4b1a0210b16769136339c3e37e30c17221f79",
        "telemetry":
            "239fe7c27efde21784a7510f787d095aa3d44458d544076c9b65bbf0a18f2f2e",
        "trace_jsonl":
            "ae2bef945a615260e8d917b99464a450e753b315752848e117c48b8464836b29",
        "trace_ordered":
            "e4b3c15f95824444092db67c4cea73c1787680374bddb5f319c4109aa0c34f7d",
    },
    "frequency": {
        "flight":
            "e82d03ca500111f9a1a1676558c333bf817f804c5a7809124ceb5ca9f7a47bd5",
        "ring_flight":
            "8092748b39aa2c96d3f2363e4ffd0a4a2bd46350dd7673ab059ebeb7d0ae807e",
        "ring_summary":
            "f234164473efb0187e2c22f4160f0ef146874932f1cca2480631c8b0c21f8506",
        "spans":
            "df5e6ae7b52be36fb6b34a40482ca3698908ce10b121b9548eb008cbed5a4753",
        "summary":
            "f234164473efb0187e2c22f4160f0ef146874932f1cca2480631c8b0c21f8506",
        "telemetry":
            "239fe7c27efde21784a7510f787d095aa3d44458d544076c9b65bbf0a18f2f2e",
        "trace_jsonl":
            "970438d0c68f8c0ca6d5fbf89ca50546b5725582808121577115fb044132d4d5",
        "trace_ordered":
            "390e804bcfcfbd9ce4b4317d169f926e09c500773abf1c402849b0002682ea22",
    },
    "granularity": {
        "flight":
            "7edc2e13d785d87084a9a7604ac53dd000242b12a82f1e50fa27f9911cc05c9d",
        "ring_flight":
            "6439705df1dda4b80d987e23cc391e75568e52554ca668e3017868f9a0fc9989",
        "ring_summary":
            "fe36dc3c12034d82bac2adb206dacf6546b9011185865646d139e640f1ba2def",
        "spans":
            "2dce235f8a97384363d30e0f5ac30fdde3ef7c9c8814dc4678af3573fc8c36b8",
        "summary":
            "fe36dc3c12034d82bac2adb206dacf6546b9011185865646d139e640f1ba2def",
        "telemetry":
            "79c8c5d8cf984da9b28758b9891d72973040945289054b7657c2a1a1a92ff626",
        "trace_jsonl":
            "bac414ffe16b864ca34f087c4de08a12806993521683643b597befaedcd8aaab",
        "trace_ordered":
            "99020b561795bc37fda11e5197fcf7503a996bdd22be4459b6190f98d32fcbc1",
    },
    "iq": {
        "flight":
            "22a99113b8656f3840c852cd914f232a79c2fbd42d84e0aae428c16616a31093",
        "ring_flight":
            "0510acf08d4474a268bd61230e67fa18a8633c1681f3e73181c6f4bd9cab9d32",
        "ring_summary":
            "3fedd55b4fb39057838038f01e11e49ffe8548842cea87a3d9086f622efdb0b3",
        "spans":
            "8dc6a2dd83ff56f805112278962144132bb026f2ca6ceec2f8e97f92c172e785",
        "summary":
            "3fedd55b4fb39057838038f01e11e49ffe8548842cea87a3d9086f622efdb0b3",
        "telemetry":
            "736d9f0c67a9087b0d0fa64b5dde06930886432e0e6c1814e09965136f2fb039",
        "trace_jsonl":
            "7c4fb5e7f1657667b0cae674f20f7875ca45b9c93f81a0ec2d7489542c409f0c",
        "trace_ordered":
            "68f8fa3eb89802c5ab2044919f871e27a9c86ef08b5c139eab5a69d3a0f8002e",
    },
    "iq_nocond": {
        "flight":
            "80bfa2ff46a122c71992674385d81416d3542864849632555350c72d69ed1ba1",
        "ring_flight":
            "6447b0bdd956baf433853957f01b7f72794911bfd2d4afd9b4dd4365213fa742",
        "ring_summary":
            "3fedd55b4fb39057838038f01e11e49ffe8548842cea87a3d9086f622efdb0b3",
        "spans":
            "442643ffbe592e0dca1f4f6e9c898ee7311f22ed3a95f0adbfcf4146a0e616a8",
        "summary":
            "3fedd55b4fb39057838038f01e11e49ffe8548842cea87a3d9086f622efdb0b3",
        "telemetry":
            "736d9f0c67a9087b0d0fa64b5dde06930886432e0e6c1814e09965136f2fb039",
        "trace_jsonl":
            "7c4fb5e7f1657667b0cae674f20f7875ca45b9c93f81a0ec2d7489542c409f0c",
        "trace_ordered":
            "68f8fa3eb89802c5ab2044919f871e27a9c86ef08b5c139eab5a69d3a0f8002e",
    },
    "iq_nodiscard": {
        "flight":
            "3c383487228cfdfc794bce7c708f7ecd301eab00b187ff5c59e94b894e4d3d34",
        "ring_flight":
            "7a48d8586d65030153b33a2062c7461e1f3b1d965f294f488cb2cfa57088e0c8",
        "ring_summary":
            "3fedd55b4fb39057838038f01e11e49ffe8548842cea87a3d9086f622efdb0b3",
        "spans":
            "3bdb26df94071708b801478cf8d9481237d4cac5b9cf5613ef184e1278cdf796",
        "summary":
            "3fedd55b4fb39057838038f01e11e49ffe8548842cea87a3d9086f622efdb0b3",
        "telemetry":
            "736d9f0c67a9087b0d0fa64b5dde06930886432e0e6c1814e09965136f2fb039",
        "trace_jsonl":
            "7c4fb5e7f1657667b0cae674f20f7875ca45b9c93f81a0ec2d7489542c409f0c",
        "trace_ordered":
            "68f8fa3eb89802c5ab2044919f871e27a9c86ef08b5c139eab5a69d3a0f8002e",
    },
    "iq_noreinflate": {
        "flight":
            "cb1a4e20de062197630e1d254c457737db58fabde408b94004e8652406098aa3",
        "ring_flight":
            "ffe9303a755319ff6a3b062bce8e0f87e3b0a3b828ddf4dee88849aebe537c66",
        "ring_summary":
            "3fedd55b4fb39057838038f01e11e49ffe8548842cea87a3d9086f622efdb0b3",
        "spans":
            "af717d70be34c226ee0af1f2996a844058cdc496e3f23af169106971cd9b484a",
        "summary":
            "3fedd55b4fb39057838038f01e11e49ffe8548842cea87a3d9086f622efdb0b3",
        "telemetry":
            "736d9f0c67a9087b0d0fa64b5dde06930886432e0e6c1814e09965136f2fb039",
        "trace_jsonl":
            "7c4fb5e7f1657667b0cae674f20f7875ca45b9c93f81a0ec2d7489542c409f0c",
        "trace_ordered":
            "68f8fa3eb89802c5ab2044919f871e27a9c86ef08b5c139eab5a69d3a0f8002e",
    },
    "overreaction": {
        "flight":
            "f4f5cfec8d913a4d3557c9b30e508272b61c90797f4f3b73249e52a99d37b434",
        "ring_flight":
            "3da54882e0c07a3874bb906b5e2ab449c375720dd0017b98d55fac4857849eaa",
        "ring_summary":
            "4bcca6b43cab2c4736a8f0051916c4b117d4d290659af190ac8928d935deafdd",
        "spans":
            "4dd50e64dc7d713b432f32cf276eb3f447bff51eea68ccb9d8f663648f00b76d",
        "summary":
            "4bcca6b43cab2c4736a8f0051916c4b117d4d290659af190ac8928d935deafdd",
        "telemetry":
            "bb1b463c7237cd8d1866d111995d0dc9360ef43c2a1ca5a1cdd9cd9c26868258",
        "trace_jsonl":
            "89d581731915e835b761f58492029ed959fc53cd5a4567e9d080730e17eda005",
        "trace_ordered":
            "fcaa3ef44db8480c9d2e24c10c8927e2a857ef4783c1a49d381948dc7593c3ad",
    },
    "rudp": {
        "flight":
            "b241b4c316685ad78861dcfb037bfcd663c9205418ea3de5f84ffae307b9600f",
        "ring_flight":
            "3fd3b41bd24d2fb08c37d874bb84586066eda0c81c01761f4fa3c982290f5c51",
        "ring_summary":
            "3fedd55b4fb39057838038f01e11e49ffe8548842cea87a3d9086f622efdb0b3",
        "spans":
            "e670fa285218b5ce9695488028330f53886be4a8c875d17275e6194b46fd9268",
        "summary":
            "3fedd55b4fb39057838038f01e11e49ffe8548842cea87a3d9086f622efdb0b3",
        "telemetry":
            "736d9f0c67a9087b0d0fa64b5dde06930886432e0e6c1814e09965136f2fb039",
        "trace_jsonl":
            "7c4fb5e7f1657667b0cae674f20f7875ca45b9c93f81a0ec2d7489542c409f0c",
        "trace_ordered":
            "68f8fa3eb89802c5ab2044919f871e27a9c86ef08b5c139eab5a69d3a0f8002e",
    },
    "rudp_nocc": {
        "flight":
            "49f60f6355c357cf76150c80ad45faab152a15239b998a37a98c71eac808aa89",
        "ring_flight":
            "03f4c92457a11a92f9c43459176ab2242518981e935036db7ff8fe991f5dd4a9",
        "ring_summary":
            "cb4fbf609ea28c3a16d116eeee908a896bfecbe4c6c531b2ad399a0f7f2772ec",
        "spans":
            "3444caa2ad1c70512322766461e67586ffbdd540e6b29621e9d4f0beb3e70a67",
        "summary":
            "cb4fbf609ea28c3a16d116eeee908a896bfecbe4c6c531b2ad399a0f7f2772ec",
        "telemetry":
            "5be805005c76e41986409fec0c9fc03ff32f5f7260ae03eb319e0b4c39a8b1cd",
        "trace_jsonl":
            "2fd47f422defdc9e33978422bc36e3976ccde6387dc4dcaee1ef44cf2fcf49f2",
        "trace_ordered":
            "a27106e4fe698512c42a5a451778551d8914575ac7fb829b4487d873be6c6199",
    },
    "rudp_reno": {
        "flight":
            "aefdb761ec57142e71fac96e119a5c9c8e64cc3dc6983e3d34281ead5b5d81e4",
        "ring_flight":
            "b55cd02fe16b7cc0ab8de8070ca84e58eba167afcb3d20a102f2cb9450a1f21b",
        "ring_summary":
            "28ca602a1c3735afe7cb52f23908cd39645942b68b4bc9cd25b250fcc281a508",
        "spans":
            "41e162d4bbf108fa43bcdee87008426d6814627a42a1938f201062a1bd163c1a",
        "summary":
            "28ca602a1c3735afe7cb52f23908cd39645942b68b4bc9cd25b250fcc281a508",
        "telemetry":
            "136efc12fcc97253d662bbeae67443e956cf494d0d44e8081c5ff6b6d17fe022",
        "trace_jsonl":
            "86d5c75a2b4ff3bc1195d76c12698728d43db5d940a48f0fe3f6103ded543178",
        "trace_ordered":
            "e4702af298251b7157eea5331ed354badf1322b493067cb86c17373278e8039d",
    },
    "tcp": {
        "flight":
            "17b584ca3d30f2705070f8bdf68b7e8121577ca9201f95196d1ce18b69df42d9",
        "ring_flight":
            "a12d56be2e14d52d27a555dd78bf99d0530b3debd91df8ee401760420bceb389",
        "ring_summary":
            "e0b92362050704597f4eed8bbf156fbb27a82eb9b8507ca10f68d21130fce84f",
        "spans":
            "65ca2b3f81a1bb12dde4ee3e9246067251d1882b646b51a84fad2964d24dab5c",
        "summary":
            "e0b92362050704597f4eed8bbf156fbb27a82eb9b8507ca10f68d21130fce84f",
        "telemetry":
            "4fb0aebc563200a9d60f6aa2fca068daab174caaf265e8eb520a09bac1da977c",
        "trace_jsonl":
            "cce39ba71c48440893ee96f8b45c43e2f5378a2d0a4c645f6e0e8f57ac727786",
        "trace_ordered":
            "23c6d37fdbdea9af1a2f25cdf45a2048644c38afb1f425f12ece8f206010ca34",
    },
    "tcp_cross": {
        "flight":
            "7a07edbba6701a3c72c92b93f5099d05906465c746d55613314eb8ee8b00e055",
        "ring_flight":
            "262e9de97c42360ab8720144e143609ab88ccc8b44d55b7373812ec6b0c22217",
        "ring_summary":
            "d0a3d62cd58f96ddf2ed5c687f4183b573e916f629cdb45cb35a4a7c5ba1bda3",
        "spans":
            "dc816dbeee8512e0568941bdbc0479a25d72959cf242309837d2b27e3ab9b722",
        "summary":
            "d0a3d62cd58f96ddf2ed5c687f4183b573e916f629cdb45cb35a4a7c5ba1bda3",
        "telemetry":
            "8a13373b193af7df96387018355648118f50deb1f02675dbf8582347993421cf",
        "trace_jsonl":
            "afec413c118177d03ceac97e128861830430517e57e45c2a7ed66c0dc2b7cd58",
        "trace_ordered":
            "466809f237310129802acee4c2c7366d4b3a68ee3a05b3eb6f503bf428d6c546",
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_artifacts_match_golden(name, tmp_path, monkeypatch):
    got = artifact_digests(SCENARIOS[name], tmp_path, monkeypatch)
    assert got == GOLDEN[name]


if __name__ == "__main__":  # regenerate the GOLDEN table
    import pathlib
    import tempfile

    class _Env:
        def setenv(self, k, v):
            import os
            os.environ[k] = v

        def delenv(self, k, raising=True):
            import os
            os.environ.pop(k, None)

    with tempfile.TemporaryDirectory() as d:
        table = {name: artifact_digests(SCENARIOS[name], pathlib.Path(d),
                                        _Env())
                 for name in sorted(SCENARIOS)}
    json.dump(table, sys.stdout, indent=4, sort_keys=True)
    print()
