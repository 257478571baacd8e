// Auction runs the paper's Example 1 scenario end to end: a RUBiS-like
// auction site (web + EJB + database tiers) under its bidding mix, hit by
// the full Table 1 fault catalog, healed by the hybrid approach of §5.1.
//
// It prints a running operations log and closes with the availability
// ledger an operator would care about: how much user-visible downtime each
// failure cost, and how the healer's skill grew as its synopsis filled.
package main

import (
	"context"
	"fmt"
	"log"

	"selfheal"
)

func main() {
	ctx := context.Background()
	sys, err := selfheal.New(ctx,
		selfheal.WithSeed(20070415),
		selfheal.WithApproach(selfheal.ApproachHybrid),
	)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := sys.NewFaults(99)
	if err != nil {
		log.Fatal(err)
	}

	const episodes = 16
	fmt.Println("auction: RUBiS bidding mix, hybrid healer, 16-failure campaign")
	fmt.Println()

	type row struct {
		kind      string
		ttr       int64
		escalated bool
		attempts  int
	}
	var ledger []row
	for i := 0; i < episodes; i++ {
		f := gen.Next()
		ep := sys.HealEpisode(ctx, f)
		r := row{kind: f.Kind().String(), ttr: -1, escalated: ep.Escalated, attempts: len(ep.Attempts)}
		if ep.Recovered {
			r.ttr = ep.TTR()
		}
		ledger = append(ledger, r)
		state := "healed"
		if !ep.Detected {
			state = "benign (never SLO-visible)"
		} else if !ep.Recovered {
			state = "UNRESOLVED"
		}
		fmt.Printf("%2d. %-26s %-10s", i+1, r.kind, state)
		if r.ttr >= 0 {
			fmt.Printf(" ttr=%-5ds", r.ttr)
		}
		if ep.Escalated {
			fmt.Print(" [administrator]")
		}
		fmt.Println()
		sys.StepN(150)
	}

	fmt.Println("\navailability ledger:")
	var early, late int64
	var earlyN, lateN int
	for i, r := range ledger {
		if r.ttr < 0 {
			continue
		}
		if i < episodes/2 {
			early += r.ttr
			earlyN++
		} else {
			late += r.ttr
			lateN++
		}
	}
	if earlyN > 0 && lateN > 0 {
		fmt.Printf("  mean TTR, first half of campaign:  %6.0fs (synopsis cold)\n", float64(early)/float64(earlyN))
		fmt.Printf("  mean TTR, second half of campaign: %6.0fs (synopsis warm)\n", float64(late)/float64(lateN))
	}
	esc := 0
	for _, r := range ledger {
		if r.escalated {
			esc++
		}
	}
	fmt.Printf("  administrator escalations: %d/%d\n", esc, episodes)
}
