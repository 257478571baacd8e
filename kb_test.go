package selfheal_test

// Facade-level acceptance tests for portable knowledge bases (snapshot
// format v2): experience built per-target-kind in separate synopses,
// saved through SaveKnowledgeBase, merged with MergeKnowledgeBases (the
// API kbtool merge is a thin wrapper over), and loaded into a fresh
// process-side synopsis must heal both kinds end-to-end without
// escalating — the fleet story of §5.1: build experience on one machine,
// deploy it on another.

import (
	"bytes"
	"context"
	"testing"

	"selfheal"
)

// teach runs deterministic fault episodes on one system so its synopsis
// accumulates admin-labeled signatures, then returns the serialized
// knowledge base and its training size.
func teach(t *testing.T, kind selfheal.TargetKind, seed int64, faults []selfheal.Fault) ([]byte, int) {
	t.Helper()
	ctx := context.Background()
	syn := selfheal.NewNNSynopsis()
	sys, err := selfheal.New(ctx,
		selfheal.WithSeed(seed),
		selfheal.WithTargets(kind),
		selfheal.WithSynopsis(syn))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range faults {
		ep := sys.HealEpisode(ctx, f)
		if !ep.Recovered {
			t.Fatalf("teaching episode %v on %s never recovered", f.Kind(), kind)
		}
		sys.StepN(150)
	}
	var buf bytes.Buffer
	if err := selfheal.SaveKnowledgeBase(&buf, syn); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), syn.TrainingSize()
}

func TestMergedKnowledgeBaseHealsBothKinds(t *testing.T) {
	ctx := context.Background()
	kbA, nA := teach(t, selfheal.TargetAuction, 11, []selfheal.Fault{
		selfheal.NewStaleStats("items", 8),
		selfheal.NewBlockContention("bids", 220),
	})
	kbB, nB := teach(t, selfheal.TargetReplicated, 13, []selfheal.Fault{
		selfheal.NewReplicaDown("app-1"),
		selfheal.NewRoutingSkew(0.9),
	})

	snapA, err := selfheal.DecodeKnowledgeBase(bytes.NewReader(kbA))
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := selfheal.DecodeKnowledgeBase(bytes.NewReader(kbB))
	if err != nil {
		t.Fatal(err)
	}
	if len(snapA.Symptoms) == 0 || len(snapB.Symptoms) == 0 {
		t.Fatal("facade-saved knowledge bases carry no symptom name table")
	}
	merged, err := selfheal.MergeKnowledgeBases(snapA, snapB)
	if err != nil {
		t.Fatal(err)
	}

	// The merged KB holds both fleets' experience: TrainingSize is the sum.
	var mergedFile bytes.Buffer
	if err := merged.Encode(&mergedFile); err != nil {
		t.Fatal(err)
	}
	kb := selfheal.NewNNSynopsis()
	if err := selfheal.LoadKnowledgeBase(bytes.NewReader(mergedFile.Bytes()), kb); err != nil {
		t.Fatal(err)
	}
	if got, want := kb.TrainingSize(), nA+nB; got != want {
		t.Fatalf("merged TrainingSize = %d, want %d (sum of %d and %d)", got, want, nA, nB)
	}

	// Both kinds heal from the shipped knowledge, without escalation.
	cases := []struct {
		kind  selfheal.TargetKind
		fault selfheal.Fault
	}{
		{selfheal.TargetAuction, selfheal.NewStaleStats("items", 8)},
		{selfheal.TargetReplicated, selfheal.NewReplicaDown("app-1")},
	}
	for _, tc := range cases {
		sys, err := selfheal.New(ctx,
			selfheal.WithSeed(29),
			selfheal.WithTargets(tc.kind),
			selfheal.WithSynopsis(kb))
		if err != nil {
			t.Fatal(err)
		}
		ep := sys.HealEpisode(ctx, tc.fault)
		if !ep.Recovered || ep.Escalated {
			t.Errorf("%s: %v healed from merged KB: recovered=%v escalated=%v attempts=%d",
				tc.kind, tc.fault.Kind(), ep.Recovered, ep.Escalated, len(ep.Attempts))
		}
	}
}

func TestSaveKnowledgeBaseRecordsCatalogs(t *testing.T) {
	syn := selfheal.NewNNSynopsis()
	var buf bytes.Buffer
	if err := selfheal.SaveKnowledgeBase(&buf, syn); err != nil {
		t.Fatal(err)
	}
	snap, err := selfheal.DecodeKnowledgeBase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range selfheal.TargetKinds() {
		cat, ok := snap.Targets[string(kind)]
		if !ok {
			t.Errorf("snapshot missing catalog for registered target %q", kind)
			continue
		}
		if len(cat.FaultKinds) == 0 || len(cat.CandidateFixes) == 0 {
			t.Errorf("target %q catalog incomplete: %+v", kind, cat)
		}
	}
}
