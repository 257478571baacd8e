// Knowledgebase demonstrates the §4.2/§5.1 preproduction workflow: actively
// stimulate a staging copy of the service with injected faults to bootstrap
// a synopsis, persist the learned knowledge base as a portable snapshot,
// and ship it to a production healer — which then fixes its very first
// failure without ever bothering the administrator.
//
// The snapshot is the knowledge base's delta since zero, in the binary
// format of KNOWLEDGE_BASES.md: next to the training points it records the
// symptom-space name table, so the production process may register its
// target kinds in any order — vectors are realigned by metric name on load.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"selfheal"
)

func main() {
	// 1. Preproduction: the domain expert schedules fault injections on a
	//    staging environment (§4.2 active stimulation).
	ctx := context.Background()
	fmt.Println("1. preproduction: active stimulation on staging")
	staging := selfheal.NewNNSynopsis()
	plan := selfheal.DefaultBootstrapPlan()
	plan.PerKind = 2
	n := selfheal.Bootstrap(ctx, plan, selfheal.NewFixSym(staging))
	fmt.Printf("   learned %d labeled failure signatures\n", n)

	// 2. Persist the knowledge base (§5.1: "a knowledge-base that a
	//    practitioner can use"). SaveKnowledgeBase records the symptom
	//    name table that makes the file portable.
	var kb bytes.Buffer
	if err := selfheal.SaveKnowledgeBase(&kb, staging); err != nil {
		log.Fatal(err)
	}
	snap, err := selfheal.DecodeKnowledgeBase(bytes.NewReader(kb.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2. knowledge base serialized: %d bytes (%d points, %d named symptom dimensions)\n",
		kb.Len(), len(snap.Points), len(snap.Symptoms))

	// 3. Production: a different learner (AdaBoost) is rebuilt from the
	//    same history — the knowledge base is learner-agnostic, and the
	//    load remaps every vector into this process's symptom space by
	//    metric name.
	production := selfheal.NewAdaBoostSynopsis(60)
	if err := selfheal.LoadKnowledgeBase(bytes.NewReader(kb.Bytes()), production); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3. production healer rebuilt from the knowledge base (%d signatures, %s)\n",
		production.TrainingSize(), production.Name())

	// 4. First production failure: handled from shipped knowledge.
	sys, err := selfheal.New(ctx, selfheal.WithSeed(77))
	if err != nil {
		log.Fatal(err)
	}
	healer := sys.Healer
	healer.Approach = selfheal.NewFixSym(production)
	ep := sys.HealEpisode(ctx, selfheal.NewBlockContention("bids", 220))
	fmt.Printf("4. first production failure: recovered=%v escalated=%v ttr=%ds\n",
		ep.Recovered, ep.Escalated, ep.TTR())
	for _, a := range ep.Attempts {
		mark := "✗"
		if a.Success {
			mark = "✓"
		}
		fmt.Printf("   %s %v (confidence %.2f)\n", mark, a.Action, a.Confidence)
	}
	if !ep.Escalated {
		fmt.Println("\nno administrator involved: the staging campaign paid for itself.")
	}
}
