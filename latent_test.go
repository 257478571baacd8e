package selfheal_test

import (
	"context"
	"testing"

	"selfheal"
)

// TestFleetStatsCountLatent: a campaign's Latent count is the number of
// its Latent episodes, each one undetected, and the campaign has some —
// a random fault stream includes faults that do no harm at this load.
func TestFleetStatsCountLatent(t *testing.T) {
	ctx := context.Background()
	fleet, err := selfheal.NewFleet(ctx, 2, selfheal.WithSeed(1), selfheal.WithApproach(selfheal.ApproachFixSymNN))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	res, err := fleet.RunCampaign(ctx, selfheal.Campaign{Episodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	latent := 0
	for _, rr := range res.Replicas {
		for _, ep := range rr.Episodes {
			if ep.Latent {
				latent++
				if ep.Detected {
					t.Errorf("replica %d: a detected episode is marked latent", rr.Replica)
				}
			}
		}
	}
	if latent == 0 || res.Stats.Latent != latent {
		t.Errorf("Stats.Latent = %d, episodes marked latent = %d (want equal and nonzero)", res.Stats.Latent, latent)
	}
	t.Logf("%d episodes: %d detected, %d latent", res.Stats.Episodes, res.Stats.Detected, res.Stats.Latent)
}
