package experiments

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_quick.golden from this run")

// table3Durations matches the two wall-clock columns of a Table 3 row —
// the only bytes of the paper's output that depend on the host.
var table3Durations = regexp.MustCompile(`(?m)^(AdaBoost \d+|Nearest neighbor|K-means) +\S+ +\S+( +\d+\.\d%)$`)

// TestPaperOutputGolden pins what "the same" means for the paper's
// evaluation: every artifact at smoke size, rendered and compared byte for
// byte with the committed golden. The shape tests beside it say the
// numbers still support the paper's claims; this one says they are the
// numbers the stack printed before — so a refactor of how environments are
// built or driven cannot move a single episode.
func TestPaperOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	got := strings.Join([]string{
		RunTable1(71).Format(),
		RunTable2(QuickTable2Config()).Format(),
		RunScenarioSweep(71).Format(),
		RunHybridAblation(71, 16).Format(),
		RunOnlineDriftAblation(71, 24).Format(),
		RunConfidenceAblation(71, 12).Format(),
		RunNegativeDataAblation(71, 12).Format(),
		RunProactiveAblation(71, 2400).Format(),
		RunControlAblation(71).Format(),
		RunFigure1(18, 40).Format(),
		RunFigure2(18, 40).Format(),
		RunFigure4(QuickFigure4Config()).Format(),
	}, "\n")
	got = table3Durations.ReplaceAllString(got, "$1 <learning time> <loop wall time>$2")

	const path = "testdata/paper_quick.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("paper output drifted from %s (rerun with -update only when the drift is intended)\n%s",
			path, firstDiff(got, string(want)))
	}
}

// firstDiff names the first line where got and want part ways.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("one output is a prefix of the other: got %d lines, want %d", len(g), len(w))
}
