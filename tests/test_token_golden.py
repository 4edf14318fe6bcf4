"""Token loops against recorded runs.

The digests below were taken from `run_token_loops` as it ran before the
per-node executor moved onto `RoundKernel.run` (see CHANGES.md).  They pin
today's closure rule, including the early close of the `annulus-early-close`
case, so a change to that rule re-records them on purpose.  Each case
covers the loops (members and walk), both ledger arrays, the trace text
and the round and delivery counts; the stuck cases cover the nodes named
when `max_rounds` runs out.
"""

import functools
import io

import pytest

from swarmtopo import boundary
from conftest import TOKEN_CASES, run_digests, sha, slow_20k, stuck_digest


def token_digests(g, comps) -> tuple:
    """(loops, ledger, trace) digests cut to 16 hex digits, rounds used and
    deliveries."""
    buf = io.StringIO()
    loops, res = boundary.run_token_loops(g, comps, trace=buf)
    d = run_digests(res, buf.getvalue())
    walks = repr([(root, lp.members, lp.walk) for root, lp in sorted(loops.items())])
    return (sha(walks)[:16], d["ledger"][:16], d["trace"][:16], d["rounds_used"],
            d["deliveries"])


GOLDEN = {
    "dense-60-1": ("c19ddf76ae5550ef", "97fd67c1cdc3c51d", "c961204fc05ed451",
                   42, 6017),
    "dense-250-2": ("ebe83eb2318825e0", "ab47a048c2f8d003", "66118d57a5c622f8",
                    103, 30112),
    "dense-800-3": ("096ed0bf6b971271", "e766c98d85b292b6", "7a560d11f8707c81",
                    840, 239727),
    "gapped-60-4": ("ad7b285ac554ee08", "03611deb197724f3", "6cd1311c7b21e8e8",
                    43, 6549),
    "gapped-250-5": ("d42aa4c365aa2bda", "a952c1234f1b251b", "b733754f8b75e3d2",
                     229, 50808),
    "gapped-800-6": ("a6c024cda0b9def7", "afe4fd153967b671", "f8eb80b12aeb698e",
                     146, 70152),
    "crowded-400-7": ("66b40884bd008feb", "dcc9a17aff5131d3", "7354350ef7ca558b",
                      79, 480677),
    "path-40": ("8998e26aa7001810", "2b864634105aab6f", "fccec36d1e059b9f",
                198, 673),
    "star": ("87ba74d41dc8d2a5", "e639664c0b0a6fcf", "62418287f9d97658",
             38, 310),
    "star-gapped": ("64ff733638292a47", "ae60839c1190051c", "2ad7f0623587abd4",
                    38, 230),
    "single": ("4a51a81382aca0b5", "9cc9a1ed36066271", "a464a03a8f876764",
               5, 0),
    "standard-20k": ("7701d335f0c66796", "19d0ef9b9d4428ad", "395090745f2e0297",
                     3867, 9985609),
    "clique-4": ("85d7531b6a3f7765", "1b76d3405142ee9d", "e6caa5453fd12678",
                 22, 80),
    "singleton": ("56ee3bae2f4751e8", "ece998b1a20230cb", "7961b28f15c0d1bd",
                  5, 0),
    "open-chain": ("e41f63ba79eb9863", "f5f2e464187c1172", "95b7d481853d4d84",
                   62, 161),
    "malformed": ("4f53cda18c2baa0c", "ece998b1a20230cb", "7961b28f15c0d1bd",
                  5, 0),
    "annulus-4000": ("264d78ff07f9ceaa", "3d5c71f9704b1548", "058d978a384c7b69",
                     223, 305844),
    "annulus-early-close": ("7aff5a5e88757044", "4dcfab3c125796c4", "708f266231cad1ff",
                            91, 293288),
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


@pytest.mark.parametrize("name", list(STUCK_CASES))
def test_token_round_limit_names_recorded_stuck_nodes(name):
    case, max_rounds = STUCK_CASES[name]
    g, comps = TOKEN_CASES[case]()
    call = functools.partial(boundary.run_token_loops, g, comps)
    assert stuck_digest(call, max_rounds) == GOLDEN_STUCK[name]
