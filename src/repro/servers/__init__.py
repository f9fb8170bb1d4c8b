"""Server strategies: the adversarially chosen half of the conversation.

Codec wrapping (:mod:`.wrappers`) turns any base server into a family of
language-mismatched peers; concrete families cover the printer dialects
(:mod:`.printer_servers`), interactive-proof provers honest and otherwise
(:mod:`.provers`), control advisors (:mod:`.advisors`) and password locks
for the lower bound (:mod:`.password`).  Fault injection lives in
:mod:`repro.faults`.
"""

from repro.servers.wrappers import EncodedServer, ResettableServer
from repro.servers.printer_servers import (
    DIALECTS,
    SpacePrinter,
    TaggedPrinter,
    HandshakePrinter,
    LyingPrinter,
    make_printer,
    printer_server_class,
)
from repro.servers.provers import (
    HonestProverServer,
    CheatingProverServer,
    LazyProverServer,
    CHEAT_FLIP,
    CHEAT_CONSTANT,
    CHEAT_RANDOM,
)
from repro.servers.counting_provers import (
    HonestCountingServer,
    CheatingCountingServer,
    OverflowCountingServer,
    CHEAT_INFLATE,
    CHEAT_ADAPTIVE,
)
from repro.servers.advisors import (
    AdvisorServer,
    MisleadingAdvisorServer,
    advisor_server_class,
)
from repro.servers.guides import (
    GuideServer,
    MisleadingGuideServer,
    guide_server_class,
)
from repro.servers.password import (
    PasswordServer,
    password_server_class,
    all_passwords,
)

__all__ = [
    "EncodedServer",
    "ResettableServer",
    "DIALECTS",
    "SpacePrinter",
    "TaggedPrinter",
    "HandshakePrinter",
    "LyingPrinter",
    "make_printer",
    "printer_server_class",
    "HonestProverServer",
    "CheatingProverServer",
    "LazyProverServer",
    "CHEAT_FLIP",
    "CHEAT_CONSTANT",
    "CHEAT_RANDOM",
    "HonestCountingServer",
    "CheatingCountingServer",
    "OverflowCountingServer",
    "CHEAT_INFLATE",
    "CHEAT_ADAPTIVE",
    "AdvisorServer",
    "MisleadingAdvisorServer",
    "advisor_server_class",
    "GuideServer",
    "MisleadingGuideServer",
    "guide_server_class",
    "PasswordServer",
    "password_server_class",
    "all_passwords",
]
