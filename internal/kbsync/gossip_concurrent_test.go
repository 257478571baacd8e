package kbsync_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/httpapi"
	"selfheal/internal/kbsync"
	"selfheal/internal/synopsis"
)

// TestConcurrentGossipPushesCarryIntactBodies relays many rumors at once
// through one gossiper while its node's /kb/delta and /kb/snapshot are
// being pulled. Every push a peer receives must be, byte for byte, what
// an unshared encode of that rumor's delta produces — uncompressed — and
// every pull must answer a body that decodes. Run it with -race -count=10.
func TestConcurrentGossipPushesCarryIntactBodies(t *testing.T) {
	const rumors = 32
	deltas := make(map[string]*synopsis.Delta, rumors)
	want := make(map[string][]byte, rumors)
	for i := 0; i < rumors; i++ {
		d := &synopsis.Delta{Seq: 1, Epoch: fmt.Sprintf("peer%d", i), Symptoms: []string{"m0", "m1"}}
		for j := 0; j <= i; j++ { // bodies of different lengths
			d.Points = append(d.Points, pt([]float64{float64(i), float64(j)}, catalog.FixUpdateStats, "items"))
		}
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("peer%d:1", i)
		deltas[id], want[id] = d, buf.Bytes()
	}

	var mu sync.Mutex
	got := make(map[string][]byte, rumors)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("push %s: %v", r.Header.Get("X-KB-Rumor"), err)
		}
		if enc := r.Header.Get("Content-Encoding"); enc != "" {
			t.Errorf("push %s is content-encoded %q", r.Header.Get("X-KB-Rumor"), enc)
		}
		mu.Lock()
		got[r.Header.Get("X-KB-Rumor")] = body
		mu.Unlock()
		io.WriteString(w, `{"added":0}`)
	}))
	defer peer.Close()

	node, _ := newNode("m0", "m1")
	gsp, err := kbsync.NewGossiper(node, kbsync.GossipConfig{Peers: []string{peer.URL}, Fanout: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	api, err := httpapi.NewServer(httpapi.Config{Node: node, Gossiper: gsp})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for id, d := range deltas {
		wg.Add(1)
		go func(id string, d *synopsis.Delta) {
			defer wg.Done()
			if added := gsp.Receive(d, id, 2, ""); added != len(d.Points) {
				t.Errorf("rumor %s added %d of %d points", id, added, len(d.Points))
			}
		}(id, d)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				path, decode := "/kb/delta?since=0", func(r io.Reader) error { _, err := synopsis.DecodeDelta(r); return err }
				if (g+i)%2 == 1 {
					path, decode = "/kb/snapshot", func(r io.Reader) error { _, err := synopsis.Decode(r); return err }
				}
				w := httptest.NewRecorder()
				api.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
				if w.Code == http.StatusNotModified {
					continue // nothing applied yet
				}
				if err := decode(w.Body); err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for id, body := range want {
		if !bytes.Equal(got[id], body) {
			t.Errorf("rumor %s reached the peer as %d bytes, a plain encode is %d", id, len(got[id]), len(body))
		}
	}
}
