package kbsync

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"selfheal/internal/catalog"
	"selfheal/internal/synopsis"
)

// TestGossipPushesOnResume: a publish made while the push plane is
// paused wakes the loop for nothing, so resuming has to wake it again.
// In-package because the test must see that the publish's own wakeup was
// already spent before it resumes.
func TestGossipPushesOnResume(t *testing.T) {
	pushed := make(chan *synopsis.Delta, 4)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d, err := synopsis.DecodeDelta(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		pushed <- d
	}))
	defer peer.Close()

	kb := synopsis.NewShared(synopsis.NewNearestNeighbor())
	g, err := NewGossiper(NewNode(kb, nil), GossipConfig{Peers: []string{peer.URL}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		g.Run(ctx)
		close(done)
	}()
	defer func() {
		cancel()
		<-done
	}()

	g.SetPaused(true)
	kb.Add(synopsis.Point{X: []float64{1, 2}, Action: synopsis.Action{Fix: catalog.FixUpdateStats, Target: "items"}, Success: true})
	deadline := time.Now().Add(10 * time.Second)
	for len(g.signal) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("push loop never took the publish's wakeup")
		}
		time.Sleep(time.Millisecond)
	}
	if len(pushed) != 0 {
		t.Fatal("a paused gossiper pushed")
	}

	g.SetPaused(false)
	select {
	case d := <-pushed:
		if len(d.Points) != 1 {
			t.Fatalf("resume pushed %d points, want the 1 published while paused", len(d.Points))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the publish made while paused was never pushed after resume")
	}
}
