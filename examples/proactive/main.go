// Proactive demonstrates §5.3: forecasting failures and applying fixes
// before they strike. A slow memory leak (software aging) will crash the
// application tier; the reactive loop waits for the SLO to break, while
// the proactive forecaster fits the heap trend and schedules a short
// planned reboot ahead of the crash.
package main

import (
	"context"
	"fmt"
	"log"

	"selfheal"
)

func main() {
	fmt.Println("proactive healing of software aging (§5.3)")
	fmt.Println()

	// Reactive: heal after the failure is user-visible.
	ctx := context.Background()
	reactive, err := selfheal.New(ctx, selfheal.WithSeed(4), selfheal.WithApproach(selfheal.ApproachFixSymNN))
	if err != nil {
		log.Fatal(err)
	}
	ep := reactive.HealEpisode(ctx, selfheal.NewAging(selfheal.TierApp, 0.004))
	fmt.Printf("reactive:  failure detected %ds after leak onset; recovery took %ds",
		ep.DetectedAt-ep.InjectedAt, ep.TTR())
	if ep.Escalated {
		fmt.Print(" (with administrator escalation)")
	}
	fmt.Println()

	// Proactive: the forecaster watches app.heap.occ, fits a line, and
	// reboots before the forecast crossing.
	sys, err := selfheal.New(ctx, selfheal.WithSeed(4))
	if err != nil {
		log.Fatal(err)
	}
	p := sys.NewProactive()
	if err := sys.Target().Inject(selfheal.NewAging(selfheal.TierApp, 0.004)); err != nil {
		log.Fatal(err)
	}
	actions, badTicks := p.RunWithProactive(2400)
	fmt.Printf("proactive: %d preemptive reboot(s); %d SLO-violating ticks over the same horizon\n", actions, badTicks)
	fmt.Println()
	fmt.Println("a planned 30s reboot at low risk replaces a crash plus emergency recovery —")
	fmt.Println("the forecaster trades a little scheduled downtime for the whole outage.")
}
