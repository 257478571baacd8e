package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestUnknownArtifactExits2WithTheList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"table1", "table9"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed %d bytes of artifacts before refusing the command line", stdout.Len())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `"table9"`) {
		t.Errorf("message does not name the unknown artifact: %s", msg)
	}
	for _, a := range artifacts {
		if !strings.Contains(msg, a.name) {
			t.Errorf("message does not list %s: %s", a.name, msg)
		}
	}
}

// Host-dependent bytes of the output: Table 3's two duration columns and
// the learning-time ratio computed from them.
var (
	table3Durations = regexp.MustCompile(`(?m)^(AdaBoost \d+|Nearest neighbor|K-means) +\S+ +\S+( +\d+\.\d%)$`)
	learningRatio   = regexp.MustCompile(`(fixes: )\d+(x \(paper)`)
)

// TestAllQuickReproducesTheRecordedOutput runs the whole evaluation at
// smoke size with no -seed. testdata/parent_quick.golden was first what
// the three programs this one replaced (compare -quick -ablations
// -scenarios, faultstudy -n 40, fixbench -quick) printed at their own
// default seeds; only the banner's program name was changed. It was
// re-recorded once from this program's own output, when healing
// behaviour changed on purpose: FixSym sends a targeted fix to the
// target its failure context localises first, and an action the target
// refuses fails at once (CHANGES.md lists every row that moved). It is a
// record, not a regenerable file.
func TestAllQuickReproducesTheRecordedOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	var stdout, stderr bytes.Buffer
	// "all" twice over, and flags after a name: still each artifact once.
	if code := run([]string{"all", "table1", "-quick", "-n", "40"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	got := stdout.String()
	for _, header := range []string{
		"Table 1 —", "Table 2 —", "Adversarial scenario sweep",
		"Ablation §5.1", "online learning under drift", "confidence ranking", "negative training data",
		"Ablation §5.3", "Ablation §5.4",
		"Figure 1 —", "Figure 2 —", "Figure 4 —", "Table 3 —",
	} {
		if n := strings.Count(got, header); n != 1 {
			t.Errorf("header %q printed %d times", header, n)
		}
	}

	got = table3Durations.ReplaceAllString(got, "$1 <learning time> <loop wall time>$2")
	got = learningRatio.ReplaceAllString(got, "$1<ratio>$2")
	want, err := os.ReadFile("testdata/parent_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("output parts from the record at line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
			}
		}
		t.Fatalf("output has %d lines, the record %d", len(g), len(w))
	}
}
