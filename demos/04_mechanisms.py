"""
Auction mechanisms and the witness catalog
==========================================

Run the next-price auction and the two pivot-payment auctions on one
instance, then verify the catalog of worked equilibrium examples.
"""

from cascade_auctions import (
    Ad,
    AuctionInstance,
    SlotLadder,
    catalog_names,
    gsp_outcome,
    is_nash,
    lemma_instance,
    truthful_profile,
    vcg_apdc_outcome,
    vcg_pdc_outcome,
    verify,
)

ads = [
    Ad(id=1, value=4.0, quality=0.5, continuation=0.5),
    Ad(id=2, value=3.0, quality=1.0, continuation=0.8),
    Ad(id=3, value=1.0, quality=1.0, continuation=0.2),
]
inst = AuctionInstance(ads, SlotLadder.from_factors([0.5], num_slots=2))
bids = truthful_profile(inst)

# Three pricing rules on the same reports. The next-price auction charges
# each slot the next bid per impression; the pivot auctions charge each
# winner the welfare its presence costs the others, measured either in a
# position-only declared model or in the full cascade model.
for name, outcome in (
    ("next-price", gsp_outcome(inst, bids)),
    ("pivot, position-only model", vcg_pdc_outcome(inst, bids)),
    ("pivot, full model", vcg_apdc_outcome(inst, bids)),
):
    print(f"{name:27s} alloc={outcome.alloc.slots} revenue={outcome.revenue:.4f}")
    # Payments plus utilities always add back up to the realized welfare.
    balance = sum(outcome.utilities.values()) + outcome.revenue
    assert abs(balance - outcome.social_welfare) < 1e-9

# Truthful bidding is an equilibrium of the full-model pivot auction;
# the grid scan tries 5 alternative bids per agent and finds no gain.
grids = {a.id: tuple(a.value * s / 4 for s in range(5)) for a in inst.ads}
check = is_nash(inst, bids, vcg_apdc_outcome, grids)
print("truthful is a grid equilibrium:", check.is_equilibrium)

# The catalog holds 13 worked examples of equilibrium pathologies, from
# negative truthful utility to unbounded welfare and revenue gaps. Each
# stores an instance, a bid profile, and every claimed number; verify()
# recomputes the lot. Its equilibrium check is exact: a bid matters only
# through its rank, so it tries every bid where a rank can change.
for name in catalog_names():
    entry = lemma_instance(name)
    failed = [c for c in verify(entry) if not c.passed]
    status = "ok" if not failed else f"FAILED {[c.label for c in failed]}"
    print(f"{name:22s} {status:3s}  {entry.claim}")

# One concrete pathology: under next-price payments a truthful bidder
# can end up paying more than the clicks are worth.
entry = lemma_instance("gsp-not-ir")
outcome = gsp_outcome(entry.instance, entry.bids)
print("truthful utility of agent 2:", outcome.utilities[2])
