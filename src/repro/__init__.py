"""repro — an executable reproduction of *A Theory of Goal-Oriented
Communication* (Goldreich, Juba, Sudan; PODC 2011).

The paper models communication as a means to a *goal*: a synchronous
three-party system (user, server, world) where the goal is a referee
predicate over the world's state history, the server is adversarially
chosen from a class (modelling protocol/language mismatch), and *sensing*
— safe and viable Boolean feedback — is what makes *universal* user
strategies possible (Theorem 1).

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.core` — strategies, execution engine, goals, referees,
  sensing, helpfulness, property checkers (the model itself);
- :mod:`repro.comm` — messages, channels, codecs (language mismatch);
- :mod:`repro.universal` — the Theorem 1 universal users (enumerate-and-
  switch for compact goals, Levin-scheduled for finite goals);
- :mod:`repro.machines` — enumerable generic strategy spaces;
- :mod:`repro.mathx`, :mod:`repro.qbf`, :mod:`repro.ip` — the delegation
  substrate: fields, polynomials, TQBF, and the Shamir/Shen interactive
  proof plus sumcheck;
- :mod:`repro.worlds`, :mod:`repro.servers`, :mod:`repro.users` — concrete
  goals (printing, delegation, control, lookup) with their server classes
  and candidate user protocols;
- :mod:`repro.online` — the Juba–Vempala learning equivalence;
- :mod:`repro.multiparty` — the N-party setting and its reduction;
- :mod:`repro.obs` — structured tracing/metrics for all of the above
  (typed events, counters, histograms, deterministic JSONL sinks);
- :mod:`repro.analysis` — experiment sweeps, metrics, tables.

Quickstart::

    from repro.comm.codecs import codec_family
    from repro.core import run_execution
    from repro.universal import CompactUniversalUser, ListEnumeration
    from repro.worlds import control_goal, control_sensing, random_law
    from repro.servers import advisor_server_class
    from repro.users import follower_user_class
    import random

    law = random_law(random.Random(0))
    goal = control_goal(law)
    codecs = codec_family(8)
    user = CompactUniversalUser(
        ListEnumeration(follower_user_class(codecs)), control_sensing()
    )
    server = advisor_server_class(law, codecs)[5]   # adversary's pick
    result = run_execution(user, server, goal.world, max_rounds=2000, seed=1)
    assert goal.evaluate(result).achieved
"""

from repro.version import __version__

__all__ = ["__version__"]
