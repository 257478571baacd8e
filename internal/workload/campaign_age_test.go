package workload_test

import (
	"context"
	"testing"

	"selfheal"
	"selfheal/internal/catalog"
	"selfheal/internal/targets"
)

// TestLongCampaignHoldsNoExpiredSurges heals 300 bottleneck faults — each
// schedules a surge — on one System. Once the last surge has run out the
// generator holds none: what a tick costs does not depend on how many
// faults the campaign has seen. (Auction.Apply keeps no log of applied
// fixes at all, so there is nothing on that side to grow.)
func TestLongCampaignHoldsNoExpiredSurges(t *testing.T) {
	ctx := context.Background()
	sys := selfheal.MustNew(ctx, selfheal.WithSeed(5), selfheal.WithApproach(selfheal.ApproachFixSymNN))
	faults, err := sys.NewFaults(11, catalog.FaultBottleneck)
	if err != nil {
		t.Fatal(err)
	}
	gen := sys.Target().(*targets.Auction).Workload()
	most := 0
	for i := 0; i < 300; i++ {
		if ep := sys.HealEpisode(ctx, faults.Next()); ep.Err != nil {
			t.Fatalf("episode %d: %v", i, ep.Err)
		}
		if n := gen.LiveSurges(); n > most {
			most = n
		}
	}
	// A bottleneck the healer absorbed by provisioning leaves its surge
	// running; a few may overlap, never one per episode.
	if most > 8 {
		t.Errorf("%d surges held at once during the campaign", most)
	}
	sys.StepN(2000) // past the longest surge a bottleneck schedules
	if n := gen.LiveSurges(); n != 0 {
		t.Errorf("%d surges still held after every one has ended", n)
	}
}
