"""Golden digests of the execution engine, pinned as literals.

Every execution path in the repository — ``run_execution`` and the
resumable ``ExecutionStepper`` that serve drives in ``step_many``
slices — runs the same round body, so comparing one path against
another proves nothing about that body.  This test pins the body itself:
each cast below runs under both recording policies, with and without a
fault channel, with and without a tracer, and each run is reduced to a
SHA-256 over everything an :class:`~repro.core.execution.ExecutionResult`
exposes plus the JSON event stream.  A change to RNG derivation, outbox
validation, delivery, fault application, recording or event order moves
a digest.

The encoding is canonical (no object addresses, sets sorted, floats by
``repr``), so the digests do not depend on ``PYTHONHASHSEED``; the last
test checks that in two fresh interpreters.

Needs only the standard library, so the stdlib-only CI job runs it
too.  Regenerate the table with ``python -m
tests.core.test_engine_golden`` — but only for a change that is *meant*
to alter what the engine computes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.comm.messages import UserOutbox
from repro.core.execution import (
    FULL_RECORDING,
    METRICS_RECORDING,
    ExecutionResult,
    run_execution,
)
from repro.core.strategy import SilentServer, SilentUser
from repro.faults.channel import channel_from_spec
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Tracer
from repro.users.scripted import ScriptedUser

from tests.core.helpers import CountingWorld, EchoServer, IncrementingUser, RandomCoinUser

REPO_ROOT = Path(__file__).resolve().parents[2]


def _e1_cast() -> Tuple[Any, Any, Any]:
    """A compact universal user against a codec'd advisor (experiment E1)."""
    from repro.comm.codecs import codec_family
    from repro.servers.advisors import advisor_server_class
    from repro.universal.compact import CompactUniversalUser
    from repro.universal.enumeration import ListEnumeration
    from repro.users.control_users import follower_user_class
    from repro.worlds.control import control_goal, control_sensing, random_law

    law = random_law(random.Random(7))
    codecs = codec_family(3)
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(codecs), label="followers"),
        control_sensing(),
    )
    return user, advisor_server_class(law, codecs)[2], control_goal(law).world


def _echo_cast() -> Tuple[Any, Any, Any]:
    script = [UserOutbox(to_server=f"ping{i}", to_world="INC") for i in range(9)]
    return ScriptedUser(script, halt_after="done"), EchoServer(), CountingWorld()


#: name -> (cast factory, max_rounds, seed).
CASTS: Dict[str, Tuple[Callable[[], Tuple[Any, Any, Any]], int, int]] = {
    "silent": (lambda: (SilentUser(), SilentServer(), CountingWorld()), 7, 0),
    "halting": (lambda: (IncrementingUser(limit=5), EchoServer(), CountingWorld()), 40, 3),
    "coin": (lambda: (RandomCoinUser(), EchoServer(), CountingWorld()), 24, 11),
    "echo": (_echo_cast, 30, 5),
    "e1": (_e1_cast, 90, 17),
}

#: Drop and corrupt on both directions, delay on user->server only.
FAULTS = {
    "label": "golden",
    "faults": [
        {"kind": "drop", "direction": "both",
         "schedule": {"type": "bernoulli", "rate": 0.2, "salt": 1}},
        {"kind": "corrupt", "direction": "server->user",
         "schedule": {"type": "bernoulli", "rate": 0.25, "salt": 2}},
        {"kind": "delay", "direction": "user->server", "delay_rounds": 2,
         "schedule": {"type": "bernoulli", "rate": 0.25, "salt": 3}},
    ],
}

RECORDINGS = {"full": FULL_RECORDING, "metrics": METRICS_RECORDING}

#: Encoded by qualified name: their identity, not their closure, matters.
_CODE_TYPES = (
    type, types.FunctionType, types.BuiltinFunctionType, types.MethodType,
)


def canonical(value: Any, seen: Dict[int, int]) -> Any:
    """A JSON-able, address-free, hash-seed-free encoding of ``value``.

    An object reached twice is encoded as a back-reference the second
    time, so aliasing (states shared between rounds) is part of the
    digest and cycles terminate.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, [canonical(v, seen) for v in value]]
    if isinstance(value, (set, frozenset)):
        items = [canonical(v, seen) for v in value]
        return [type(value).__name__, sorted(items, key=json.dumps)]
    if isinstance(value, dict):
        items = [[canonical(k, seen), canonical(v, seen)] for k, v in value.items()]
        return ["dict", sorted(items, key=json.dumps)]
    if isinstance(value, _CODE_TYPES):
        return ["code", getattr(value, "__qualname__", type(value).__qualname__)]
    key = id(value)
    if key in seen:
        return ["ref", seen[key]]
    seen[key] = len(seen)
    name = type(value).__qualname__
    if isinstance(value, random.Random):
        return [name, canonical(value.getstate(), seen)]
    if dataclasses.is_dataclass(value):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    else:
        fields = dict(getattr(value, "__dict__", {}))
        for slot in getattr(type(value), "__slots__", ()):
            if hasattr(value, slot):
                fields[slot] = getattr(value, slot)
    if not fields:
        return [name]  # iterators, generators: opaque but address-free
    return [name, {k: canonical(v, seen) for k, v in sorted(fields.items())}]


def run_digest(cast: str, recording: str, faulty: bool, traced: bool) -> str:
    """Run one configuration and reduce it to a SHA-256 hex digest."""
    factory, max_rounds, seed = CASTS[cast]
    user, server, world = factory()
    sink = MemorySink()
    result: ExecutionResult = run_execution(
        user, server, world,
        max_rounds=max_rounds,
        seed=seed,
        record_transcript=True,
        tracer=Tracer(sink) if traced else None,
        recording=RECORDINGS[recording],
        channel=channel_from_spec(FAULTS) if faulty else None,
    )
    seen: Dict[int, int] = {}
    payload = {
        "world_states": canonical(result.world_states, seen),
        "rounds": canonical(result.rounds, seen),
        "user_view": canonical(list(result.user_view), seen),
        "transcript": canonical(list(result.transcript or ()), seen),
        "halted": result.halted,
        "user_output": result.user_output,
        "final_user_state": canonical(result.final_user_state, seen),
        "rounds_completed": result.rounds_completed,
        "channel_name": result.channel_name,
        "events": [e.to_dict() for e in sink.events],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def configurations() -> List[Tuple[str, str, bool, bool]]:
    return [
        (cast, recording, faulty, traced)
        for cast in CASTS
        for recording in RECORDINGS
        for faulty in (False, True)
        for traced in (False, True)
    ]


def config_id(config: Tuple[str, str, bool, bool]) -> str:
    cast, recording, faulty, traced = config
    return "/".join(
        (cast, recording, "faulty" if faulty else "clean", "traced" if traced else "bare")
    )


def all_digests() -> Dict[str, str]:
    return {config_id(c): run_digest(*c) for c in configurations()}


GOLDEN: Dict[str, str] = {
    "coin/full/clean/bare":
        "67786289fa5eb6e625f7dea6f65b8c6b169f8ee00a71a4da6144fa0075084c60",
    "coin/full/clean/traced":
        "6d618c59a81bb8c79451542108b8839e10dbf316275276ad91c46bd4e41f7293",
    "coin/full/faulty/bare":
        "57b430e5fd36fa9884a3fa7dd52646d85556228b8f3f2be8231e8888e1e9d4e0",
    "coin/full/faulty/traced":
        "1a50d2e5c17db98e16f40f267a927725d28ee24157b86c57ec89140db3b14229",
    "coin/metrics/clean/bare":
        "695c12f58183174ce20d2394540f0daf2c2255a367e773c5724a10bb0f95b669",
    "coin/metrics/clean/traced":
        "8ec8616f3a41d96ab2f7647bde4f0320c28f0029135e2722f54a33c6e2997e37",
    "coin/metrics/faulty/bare":
        "fb4fc323eecfa96b6fbbbcce9bd5c36d398eb262e6c094e9344fc79f0251fac1",
    "coin/metrics/faulty/traced":
        "e849c3f485bd3d342823571c4effeacb9f74c515c018e6f042e101fac8a2ed45",
    "e1/full/clean/bare":
        "9c5cc71d8f8498eb265711c7b09b2bda690787b1f9943324980e742cbfc158b4",
    "e1/full/clean/traced":
        "9ede1d55a65d2adbe9d4f58c7b37df3331dab8da9c3650e64e7f83045dd9583a",
    "e1/full/faulty/bare":
        "34eff0096fabb2ac127eebcf83a5b28f1ab3a90fa5685869c1ab862877370492",
    "e1/full/faulty/traced":
        "19f856d39845453b4468bd5445b6b3ece3d39e49e369992934671d28c525c23a",
    "e1/metrics/clean/bare":
        "60d1bdd01eb876848ad1ddf8ecf13e440b6f8338e59dd294e15b3e6e8d836457",
    "e1/metrics/clean/traced":
        "0fa886b6191e376093fe6885b084270916c959b028aa36d791754de7503f01c1",
    "e1/metrics/faulty/bare":
        "2ae07ad89aeb6d573e435ef8766d676382ac7faac54dcf16c70a93ee9fb09b36",
    "e1/metrics/faulty/traced":
        "c1a91efcb01c237d7ee2afa97e4a980d33653c2de15c4a4d1a762d0df376ab40",
    "echo/full/clean/bare":
        "0e307c31a036ad767634dd1539e19f0c8ce6cd6c51f33691ff39f9654a38e3de",
    "echo/full/clean/traced":
        "88c52102aaa30949a8cc9a4f7aa6061c9aa4b06fd25c4ea5db3c744b7b7a4c62",
    "echo/full/faulty/bare":
        "b9606d70df5e0d1e50005bd31469b5fdac1f968db0596ef936bb103837a057fb",
    "echo/full/faulty/traced":
        "9f6a0be3d4e54c09fa1bd2d854ff1a2e6900657a894a601a137f060d2829e888",
    "echo/metrics/clean/bare":
        "752b9829c4225c98fe89528151e4ef7b05ff442d36a84afbcd47539dba3e43bd",
    "echo/metrics/clean/traced":
        "786eb203a5f774fa9bdb69083ac969310b9d9d920df99929d56074e406c8baed",
    "echo/metrics/faulty/bare":
        "6aa5dcfa1f155716509886fd4ae6d2e78087a12b83046038298edfe98a56f64b",
    "echo/metrics/faulty/traced":
        "3343a22f29196cc46b2f4e11b2ba71037ce468cb074619e04270440f5384bd15",
    "halting/full/clean/bare":
        "7b715066fa6c07090358aea2c310deaa6d5c2c684d64a528c3bb9a9e0dd7e265",
    "halting/full/clean/traced":
        "f88660cc18b3a2bf0e5e666721c9acfa1bab8147b7a56701a47c53102861a3e4",
    "halting/full/faulty/bare":
        "4fddb24599115add79f52c20e2e2f1eaa8e362d84776197d4aef4ce16882071f",
    "halting/full/faulty/traced":
        "82d7ce2089223c9a348751fd462ce76d89f93f5cd3b7f22526fbb0261b38a2d4",
    "halting/metrics/clean/bare":
        "8d2d9c4770e90118390866c853e53aae3fdc27c31d310d8d3ffc1dad7e58b750",
    "halting/metrics/clean/traced":
        "23a29dc7f0aa1aa3355b88ae9d5888b775cd73b2937fd733a1b284e680077b61",
    "halting/metrics/faulty/bare":
        "2524cf8ee294879c4756ed82650659e5cc18a9a316a8d610db4cc02dd459cb64",
    "halting/metrics/faulty/traced":
        "cffa4f9810d11c18cc769d04a4c2266c83ca66c4b00ea6229004d6eb08ec24a1",
    "silent/full/clean/bare":
        "ca243d7dda9422045c86f9532a49b1612717b3c5a310f35f040dbbca18177f94",
    "silent/full/clean/traced":
        "4017d67655ae8830ad3a0f3f3dd2f4791ab31f6a709b320973afa331c125e483",
    "silent/full/faulty/bare":
        "17925c3bbd0d08042e42941bf3a88c1d082e71b87edd0ce5545c23f9f1e344be",
    "silent/full/faulty/traced":
        "d1c27950d719c8bb5be71cec8111130de0f60245faf0aa99f426329565f183b3",
    "silent/metrics/clean/bare":
        "05401dd12ac75d418a26afdfd0c3de63f275dab8e76bbf5b495aecb64157fdca",
    "silent/metrics/clean/traced":
        "891956226108a3c93d19f7e181678da1e0589ad97668cf07258e9520eb12a900",
    "silent/metrics/faulty/bare":
        "45742c5b719c2c9983e45973e86a4854b3835aeed2cd498abef0abaf91c02f22",
    "silent/metrics/faulty/traced":
        "eceb2620cd1296ed49178fe4de4914d5fc116080c76714cfa2b7ecb53c472cb4",
}


@pytest.mark.parametrize("config", configurations(), ids=config_id)
def test_engine_matches_golden_digest(config):
    assert run_digest(*config) == GOLDEN[config_id(config)]


def test_golden_table_covers_every_configuration():
    assert sorted(GOLDEN) == sorted(config_id(c) for c in configurations())


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_digests_independent_of_hash_seed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-m", "tests.core.test_engine_golden"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=True,
        timeout=300,
    ).stdout
    assert json.loads(out) == GOLDEN


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=4, sort_keys=True))
