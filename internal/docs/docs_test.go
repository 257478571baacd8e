package docs

import "testing"

// RepoDocs are the guides the docs gate covers. New guides join here.
var repoDocs = []string{
	"README.md", "ADDING_TARGETS.md", "KNOWLEDGE_BASES.md",
	"SCENARIOS.md", "PERFORMANCE.md", "OPERATIONS.md",
}

// TestRepositoryDocs is the gate itself: running under `go test ./...`
// means the tier-1 suite fails when a guide's code blocks stop
// compiling/parsing or a relative link breaks.
func TestRepositoryDocs(t *testing.T) {
	issues, err := CheckFiles("../..", repoDocs)
	if err != nil {
		t.Fatal(err)
	}
	for _, iss := range issues {
		t.Error(iss)
	}
}

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"The KB lifecycle":          "the-kb-lifecycle",
		"v1 → v2 migration":         "v1--v2-migration",
		"`kbtool` cookbook":         "kbtool-cookbook",
		"Step 1: Define the spec":   "step-1-define-the-spec",
		"Fleet healing with a KB!?": "fleet-healing-with-a-kb",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseFragment(t *testing.T) {
	if err := parseFragment("x := selfheal.New(ctx)\nfmt.Println(x)"); err != nil {
		t.Errorf("statement fragment rejected: %v", err)
	}
	if err := parseFragment("const N = 3\n\nfunc f() int { return N }"); err != nil {
		t.Errorf("declaration fragment rejected: %v", err)
	}
	if err := parseFragment("this is prose, not go"); err == nil {
		t.Error("prose accepted as a go fragment")
	}
}

func TestCheckLinksFindsBreakage(t *testing.T) {
	issues, err := checkLinks("../..", "README.md", "see [x](NO_SUCH_FILE.md) and [y](README.md#no-such-heading)")
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 2 {
		t.Fatalf("want 2 issues for a broken file and a broken anchor, got %v", issues)
	}
}

func TestCheckLinksSkipsCodeBlocks(t *testing.T) {
	md := "prose\n```go\nhandlers[name](args)\nm := spec.CandidateFixes[k](x)\n```\nmore prose\n"
	issues, err := checkLinks("../..", "README.md", md)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Fatalf("index-then-call inside a code fence flagged as links: %v", issues)
	}
}
