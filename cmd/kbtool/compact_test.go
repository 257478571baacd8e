package main

import (
	"os"
	"path/filepath"
	"testing"

	"selfheal/internal/catalog"
	"selfheal/internal/synopsis"
)

// TestCompactRejectsBadRadius: compact validates its configuration the
// way a live knowledge base's EnableCompaction does, so a NaN or negative
// -radius fails instead of silently meaning exact duplicates only.
func TestCompactRejectsBadRadius(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "kb.json")
	snap := &synopsis.Delta{Points: []synopsis.Point{
		{X: []float64{1, 2}, Action: synopsis.Action{Fix: catalog.FixUpdateStats, Target: "items"}, Success: true},
		{X: []float64{1, 2.1}, Action: synopsis.Action{Fix: catalog.FixUpdateStats, Target: "items"}, Success: true},
	}}
	if err := encodeTo(in, snap); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "small.json")
	if err := cmdCompact([]string{"-max", "10", "-radius", "0.5", "-o", out, in}); err != nil {
		t.Fatalf("compact -radius 0.5: %v", err)
	}
	got, err := decodeFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 1 {
		t.Errorf("compact -radius 0.5 kept %d of 2 near-duplicates, want 1", len(got.Points))
	}
	for _, radius := range []string{"NaN", "-1", "+Inf"} {
		os.Remove(out)
		if err := cmdCompact([]string{"-max", "10", "-radius", radius, "-o", out, in}); err == nil {
			t.Errorf("compact -radius %s accepted", radius)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("compact -radius %s wrote %s", radius, out)
		}
	}
}
