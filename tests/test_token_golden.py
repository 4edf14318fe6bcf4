"""Token loops against recorded runs.

The walks digests (the first field of each case), the round and delivery
counts and the stuck digests were taken from `run_token_loops` as it ran
before the per-node executor moved onto `RoundKernel.run` (see
CHANGES.md).  They pin today's closure rule, including the early close of
the `annulus-early-close` case, so a change to that rule re-records them on
purpose.  Each case covers the loops (members and walk), the per-ID
ledger (rebuilt from the trace, as in `test_tree_golden.py`), the trace
text and the round and delivery counts; the stuck cases cover the nodes
named when `max_rounds` runs out.

The ledger and trace digests were re-recorded when the choice (`K_TC`,
relayed as `K_TCF`) stopped carrying the path walked so far and carried the
holder's step count instead, and the rollback (`K_TRB`/`K_TRBF`) lost its
always-zero field: message sizes changed, while every walk, round count,
delivery count and stuck digest stayed as recorded.  They, the round and
the delivery counts were re-recorded again when the successor's
acknowledgment (`K_TA`/`K_TAF`) was deleted, a message no handler acted
on: each run loses those broadcasts and their deliveries, and most lose
the one round in which the root acknowledged the closing choice.  The
walks and stuck digests stayed as recorded.  The three `order-*` cases,
recorded later from the same executor, pin the order in which a member
acts on one pass's relayed choice and the next pass's query when both
reach it in one round."""

import functools
import io

import pytest

from swarmtopo import boundary
from conftest import TOKEN_CASES, below_20k, run_digests, sha, slow_20k, stuck_digest


def token_digests(g, comps) -> tuple:
    """(loops, ledger, trace) digests cut to 16 hex digits, rounds used and
    deliveries."""
    buf = io.StringIO()
    loops, res = boundary.run_token_loops(g, comps, trace=buf)
    d = run_digests(res, buf.getvalue(), g.max_id + 1)
    walks = repr([(root, lp.members, lp.walk) for root, lp in sorted(loops.items())])
    return (sha(walks)[:16], d["ledger"][:16], d["trace"][:16], d["rounds_used"],
            d["deliveries"])


GOLDEN = {
    "dense-60-1": ("c19ddf76ae5550ef", "0e48104ca640f647", "a0e7f3ba683dae59",
                   41, 5898),
    "dense-250-2": ("ebe83eb2318825e0", "24fa3fecc4d51e75", "5a25b5025e1cbb27",
                    102, 29672),
    "dense-800-3": ("096ed0bf6b971271", "b7b3399a400b36ff", "ca85dde4682e48ee",
                    840, 237096),
    "gapped-60-4": ("ad7b285ac554ee08", "1f347004236751a5", "fc97eeeb121a3917",
                    42, 6447),
    "gapped-250-5": ("d42aa4c365aa2bda", "ea783436b679585b", "5c846e7e85583726",
                     228, 50330),
    "gapped-800-6": ("a6c024cda0b9def7", "ded38d8742e8fafe", "22610c3b8464e405",
                     145, 69434),
    "crowded-400-7": ("66b40884bd008feb", "78272251836fc1fa", "199509217b4a130f",
                      79, 479376),
    "path-40": ("8998e26aa7001810", "b98442ba5268d88a", "f40cf7d4b9033f73",
                197, 630),
    "star": ("87ba74d41dc8d2a5", "d8d5f6620355e481", "72539c145571f842",
             37, 304),
    "star-gapped": ("64ff733638292a47", "1cad5da63ca4baf6", "914327adcd919f9b",
                    37, 224),
    "single": ("4a51a81382aca0b5", "9cc9a1ed36066271", "a464a03a8f876764",
               5, 0),
    "standard-20k": ("7701d335f0c66796", "c138e99eca7772a6", "88384fb5e6f45c2b",
                     3867, 9946616),
    "clique-4": ("85d7531b6a3f7765", "682c17f4281d3d88", "8e3d2ed0c5bf1b3f",
                 22, 72),
    "singleton": ("56ee3bae2f4751e8", "ece998b1a20230cb", "7961b28f15c0d1bd",
                  5, 0),
    "open-chain": ("e41f63ba79eb9863", "53b1e8f25aad6f2b", "1093ba5d0675976a",
                   61, 151),
    "malformed": ("4f53cda18c2baa0c", "ece998b1a20230cb", "7961b28f15c0d1bd",
                  5, 0),
    "annulus-4000": ("264d78ff07f9ceaa", "d07d9c64490dbc34", "3fc299d232ded2b4",
                     222, 303216),
    "annulus-early-close": ("7aff5a5e88757044", "a18148148d38edf5", "683ddc605db06485",
                            91, 291768),
    "order-25-85": ("469cbdf97d812514", "67ea7fb3b3523470", "e705d05fe73d626e",
                    35, 2825),
    "order-gapped-30-90": ("361605be0852f31b", "bfb028aabefed8bd", "f2a5be56657b883a",
                           36, 5002),
    "order-gapped-24-164": ("142111613607a33b", "049b5808e94c8a0d", "410993248fe8cfaf",
                            36, 4026),
}

# case -> max_rounds
STUCK_CASES = {
    "annulus-4000@3": ("annulus-4000", 3),
    "annulus-4000@60": ("annulus-4000", 60),
    "annulus-4000@200": ("annulus-4000", 200),
    "open-chain@30": ("open-chain", 30),
}

GOLDEN_STUCK = {
    "annulus-4000@3":
        "4d3189ef1a0bfeda9fd79a728ebca5cb73f6e2071cfe4c2b0acb9f8a8f832043",
    "annulus-4000@60":
        "3709b5790902124a343cdc5a0391330bdf8356c5e0d2a4e380067e787ff74223",
    "annulus-4000@200":
        "27716981f5209775cf3dee79a276a413e28aad82ad0414252681e150ae012d1a",
    "open-chain@30":
        "ecafd43d4f6cc446db69f1b24fe92ea8d00740ef47b93e2ba57f547af04d10d4",
}


@pytest.mark.parametrize("name", slow_20k(TOKEN_CASES))
def test_token_loops_match_recorded_runs(name):
    assert token_digests(*TOKEN_CASES[name]()) == GOLDEN[name]


@pytest.mark.parametrize("name", below_20k(TOKEN_CASES))
def test_token_loops_match_recorded_runs_in_small_pieces(name, small_pieces):
    test_token_loops_match_recorded_runs(name)


@pytest.mark.parametrize("name", list(STUCK_CASES))
def test_token_round_limit_names_recorded_stuck_nodes(name):
    case, max_rounds = STUCK_CASES[name]
    g, comps = TOKEN_CASES[case]()
    call = functools.partial(boundary.run_token_loops, g, comps)
    assert stuck_digest(call, max_rounds) == GOLDEN_STUCK[name]


def test_choice_messages_have_fixed_size():
    """A choice costs the same whatever the loop's length, and no
    acknowledgment is sent."""
    g, comps = TOKEN_CASES["annulus-4000"]()
    buf = io.StringIO()
    loops, _ = boundary.run_token_loops(g, comps, trace=buf)
    assert max(len(lp.members) for lp in loops.values()) > 30
    sizes: dict[int, set[int]] = {}
    for line in buf.getvalue().splitlines():
        _, _, kind, units = map(int, line.split(","))
        sizes.setdefault(kind, set()).add(units)
    assert sizes[boundary.K_TC.code] == {6}   # (sender, comp, seq, succ, via, steps)
    assert sizes[boundary.K_TCF.code] == {7}  # the relay adds the holder
    assert not {26, 27} & sizes.keys()   # the deleted acknowledgment kinds
