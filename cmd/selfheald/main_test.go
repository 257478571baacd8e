package main

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"selfheal"
	"selfheal/internal/catalog"
)

// repoRoot is the module root, relative to this package.
const repoRoot = "../../"

// TestParseFlagsBindsNodeSpec: every ops flag lands on its NodeSpec
// field, and the campaign settings keep their defaults beside it.
func TestParseFlagsBindsNodeSpec(t *testing.T) {
	s, err := parseFlags([]string{
		"-serve", "127.0.0.1:8701", "-peers", " http://a:1, ,http://b:2 ", "-gossip-fanout", "2",
		"-auth-token", "r", "-admin-token", "w", "-rate-limit", "2.5", "-request-log",
		"-compact", "100", "-compact-radius", "0.5",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := selfheal.NodeSpec{
		Serve:        "127.0.0.1:8701",
		Peers:        []string{"http://a:1", "http://b:2"},
		GossipFanout: 2,
		AuthToken:    "r",
		AdminToken:   "w",
		RateLimit:    2.5,
		RequestLog:   true,
	}
	if !reflect.DeepEqual(s.spec, want) {
		t.Fatalf("spec %+v, want %+v", s.spec, want)
	}
	if s.compact != (selfheal.Compaction{MaxPoints: 100, MergeRadius: 0.5}) {
		t.Fatalf("compaction %+v", s.compact)
	}
	if s.episodes != 12 || s.replicas != 1 || s.seed != 7 || s.target != "auction" || s.targetSet {
		t.Fatalf("campaign defaults changed: %+v", s)
	}
	if s, err := parseFlags([]string{"-target", "auction"}); err != nil || !s.targetSet {
		t.Fatalf("explicit -target not recorded: %v", err)
	}
	if _, err := parseFlags([]string{"-gossip-fanout", "many"}); err == nil {
		t.Fatal("malformed -gossip-fanout accepted")
	}
}

// TestDocumentedInvocationsParse: every selfheald command line the
// repository documents or runs — the guides' code blocks, this
// command's package comment, CI, and the benchmark's two daemons —
// still parses, and the ops flags on it reach the NodeSpec unchanged.
func TestDocumentedInvocationsParse(t *testing.T) {
	var lines []string
	for _, doc := range []string{"README.md", "OPERATIONS.md", "KNOWLEDGE_BASES.md", "SCENARIOS.md", "ADDING_TARGETS.md"} {
		lines = append(lines, fencedLines(t, repoRoot+doc)...)
	}
	lines = append(lines, strings.Split(readFile(t, repoRoot+".github/workflows/ci.yml"), "\n")...)
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, strings.Split(f.Doc.Text(), "\n")...)
	cmds := invocations(lines)
	daemons := benchmarkDaemons(t)
	if len(daemons) != 2 {
		t.Fatalf("found %d startDaemon calls in benchmark/federation.go, want 2", len(daemons))
	}
	cmds = append(cmds, daemons...)

	seen := map[string]int{}
	for _, args := range cmds {
		s, err := parseFlags(args)
		if err != nil {
			t.Errorf("selfheald %s: %v", strings.Join(args, " "), err)
			continue
		}
		for i := 0; i+1 < len(args); i++ {
			var got string
			switch args[i] {
			case "-serve":
				got = s.spec.Serve
			case "-peers":
				got = strings.Join(s.spec.Peers, ",")
			case "-gossip-fanout":
				got = strconv.Itoa(s.spec.GossipFanout)
			case "-auth-token":
				got = s.spec.AuthToken
			case "-admin-token":
				got = s.spec.AdminToken
			case "-rate-limit":
				got = strconv.FormatFloat(s.spec.RateLimit, 'g', -1, 64)
			default:
				continue
			}
			seen[args[i]]++
			if got != args[i+1] {
				t.Errorf("selfheald %s: %s bound %q", strings.Join(args, " "), args[i], got)
			}
		}
	}
	for _, flag := range []string{"-serve", "-peers", "-gossip-fanout", "-admin-token", "-rate-limit"} {
		if seen[flag] == 0 {
			t.Errorf("no documented invocation passes %s", flag)
		}
	}
	t.Logf("%d invocations parsed", len(cmds))
}

func readFile(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// fencedLines returns the lines inside a markdown file's fenced code
// blocks; prose only mentions flags, it does not run them.
func fencedLines(t *testing.T, name string) []string {
	var out []string
	in := false
	for _, line := range strings.Split(readFile(t, name), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			in = !in
		} else if in {
			out = append(out, line)
		}
	}
	return out
}

// invocations extracts the argument list of every selfheald command in
// lines: backslash continuations are joined, and a command ends at the
// first shell operator, redirection or comment.
func invocations(lines []string) [][]string {
	var out [][]string
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, "\\") + " " + lines[i]
		}
		toks := strings.Fields(line)
		for j, tok := range toks {
			if path.Base(tok) != "selfheald" || !commandWord(toks, j) {
				continue
			}
			var args []string
			for _, a := range toks[j+1:] {
				if strings.ContainsAny(a[:1], "|&;>#") || strings.HasPrefix(a, "2>") {
					break
				}
				args = append(args, strings.Trim(a, `"'`))
			}
			out = append(out, args)
		}
	}
	return out
}

// commandWord reports whether toks[i] stands where a shell reads a
// command name: first on the line, after `if`, an operator or a YAML
// `run:`, or behind a `go run` or `timeout N` prefix.
func commandWord(toks []string, i int) bool {
	switch {
	case i == 0:
		return true
	case i >= 2 && (toks[i-2] == "go" && toks[i-1] == "run" || toks[i-2] == "timeout"):
		return commandWord(toks, i-2)
	}
	switch toks[i-1] {
	case "if", "then", "&&", "||", ";", "|", "run:":
		return true
	}
	return false
}

// benchmarkDaemons returns the argument lists of the benchmark's
// startDaemon calls, read from its source: startDaemon prepends
// "-serve addr". String literals keep their values; an identifier stands
// for itself by name and a call (the seed's fmt.Sprint) for 1.
func benchmarkDaemons(t *testing.T) [][]string {
	f, err := parser.ParseFile(token.NewFileSet(), repoRoot+"benchmark/federation.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var eval func(ast.Expr) string
	eval = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.BasicLit:
			v, _ := strconv.Unquote(e.Value)
			return v
		case *ast.BinaryExpr:
			return eval(e.X) + eval(e.Y)
		case *ast.Ident:
			return e.Name
		case *ast.CallExpr:
			return "1"
		}
		t.Fatalf("startDaemon argument of unexpected form %T", e)
		return ""
	}
	var out [][]string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, _ := call.Fun.(*ast.Ident); id == nil || id.Name != "startDaemon" || len(call.Args) < 3 {
			return true
		}
		args := []string{"-serve", eval(call.Args[2])}
		for _, a := range call.Args[3:] {
			args = append(args, eval(a))
		}
		out = append(out, args)
		return true
	})
	return out
}

// TestSaveKBIsAtomic: -kb-out replaces the previous file only with a
// complete snapshot. A save over an existing file leaves no temporary
// file behind and a file that decodes; a save that cannot create its
// temporary file, or fails while writing it, leaves the old file byte for
// byte as it was.
func TestSaveKBIsAtomic(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "fleet.kb")
	if err := os.WriteFile(out, []byte("the previous knowledge base"), 0o644); err != nil {
		t.Fatal(err)
	}
	kb := selfheal.NewSharedSynopsis(selfheal.NewNNSynopsis())
	kb.Add(selfheal.Point{X: []float64{1, 2}, Action: selfheal.Action{Fix: catalog.FixUpdateStats, Target: "items"}, Success: true})
	if err := saveKB(out, kb); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("the save left %d files in its directory, want 1", len(entries))
	}
	saved, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := selfheal.DecodeKnowledgeBase(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Points) != 1 {
		t.Fatalf("saved snapshot holds %d points, want 1", len(snap.Points))
	}

	// A synopsis whose Export fails fails the save after the temporary
	// file exists.
	if err := saveKB(out, unexportable{kb}); err == nil {
		t.Fatal("a save that failed while writing reported success")
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, saved) {
		t.Error("a save that failed while writing changed the old file")
	}
	// A name 250 bytes long can exist; its temporary sibling, longer than
	// any file system's name limit, cannot be created.
	long := filepath.Join(dir, strings.Repeat("k", 250))
	if err := os.WriteFile(long, saved, 0o644); err != nil {
		t.Skipf("the file system refuses a 250-byte name: %v", err)
	}
	if err := saveKB(long, kb); err == nil {
		t.Fatal("a save whose temporary file cannot be created reported success")
	}
	if got, _ := os.ReadFile(long); !bytes.Equal(got, saved) {
		t.Error("a save that could not create its temporary file changed the old file")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Errorf("failed saves left %d files, want the 2 saved ones", len(entries))
	}
}

// unexportable is a synopsis whose Export fails.
type unexportable struct{ selfheal.Synopsis }

func (unexportable) Export() ([]selfheal.Point, error) {
	return nil, errors.New("history unavailable")
}
