// Package docs is the repository's documentation gate, and holds nothing
// but tests: the `go` code blocks in the markdown guides must stay real
// code (complete programs must build against this module, fragments must
// at least parse), and relative links — including #anchors — must point
// at files and headings that exist. CI and `go test ./...` both run it,
// so the docs cannot rot silently.
package docs

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

// Issue is one documentation problem, anchored to a file and line.
type Issue struct {
	File string
	Line int
	Msg  string
}

func (i Issue) String() string { return fmt.Sprintf("%s:%d: %s", i.File, i.Line, i.Msg) }

// CheckFiles runs every check over the given markdown files (paths
// relative to repoRoot) and returns the issues found. repoRoot must be
// the module root: complete example programs are built against it.
func CheckFiles(repoRoot string, files []string) ([]Issue, error) {
	var issues []Issue
	for _, file := range files {
		raw, err := os.ReadFile(filepath.Join(repoRoot, file))
		if err != nil {
			return nil, err
		}
		text := string(raw)
		issues = append(issues, checkGoBlocks(repoRoot, file, text)...)
		iss, err := checkLinks(repoRoot, file, text)
		if err != nil {
			return nil, err
		}
		issues = append(issues, iss...)
	}
	return issues, nil
}

// block is one fenced code block.
type block struct {
	lang string
	line int // 1-based line of the opening fence
	text string
}

// extractBlocks pulls fenced code blocks out of markdown.
func extractBlocks(md string) []block {
	var out []block
	lines := strings.Split(md, "\n")
	for i := 0; i < len(lines); i++ {
		trimmed := strings.TrimSpace(lines[i])
		if !strings.HasPrefix(trimmed, "```") {
			continue
		}
		lang := strings.TrimSpace(strings.TrimPrefix(trimmed, "```"))
		start := i + 1
		var body []string
		for i++; i < len(lines); i++ {
			if strings.TrimSpace(lines[i]) == "```" {
				break
			}
			body = append(body, lines[i])
		}
		out = append(out, block{lang: lang, line: start, text: strings.Join(body, "\n")})
	}
	return out
}

// checkGoBlocks validates every ```go block: blocks that declare a
// package are complete programs and must `go build` against the module
// at repoRoot; anything else is a fragment and must parse either as
// top-level declarations or as a statement list.
func checkGoBlocks(repoRoot, file, md string) []Issue {
	var issues []Issue
	for _, b := range extractBlocks(md) {
		if b.lang != "go" {
			continue
		}
		if strings.HasPrefix(strings.TrimSpace(b.text), "package ") {
			if err := buildProgram(repoRoot, b.text); err != nil {
				issues = append(issues, Issue{file, b.line, fmt.Sprintf("example program does not build: %v", err)})
			}
			continue
		}
		if err := parseFragment(b.text); err != nil {
			issues = append(issues, Issue{file, b.line, fmt.Sprintf("code fragment does not parse: %v", err)})
		}
	}
	return issues
}

// parseFragment accepts a block that parses as top-level declarations
// or as a function body.
func parseFragment(src string) error {
	fset := token.NewFileSet()
	if _, declErr := parser.ParseFile(fset, "frag.go", "package p\n"+src, 0); declErr == nil {
		return nil
	}
	_, err := parser.ParseFile(fset, "frag.go", "package p\nfunc _() {\n"+src+"\n}", 0)
	return err
}

// buildProgram compiles a complete example program in a throwaway
// module that depends on this repository via a replace directive.
func buildProgram(repoRoot, src string) error {
	dir, err := os.MkdirTemp("", "doccheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	absRoot, err := filepath.Abs(repoRoot)
	if err != nil {
		return err
	}
	gomod := fmt.Sprintf("module docsnippet\n\ngo 1.22\n\nrequire selfheal v0.0.0\n\nreplace selfheal => %s\n", absRoot)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src+"\n"), 0o644); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "./...")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%v\n%s", err, out)
	}
	return nil
}

// linkRe matches markdown inline links [text](target).
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// checkLinks verifies that relative link targets exist, and that
// #anchors resolve to a heading in the target file. External links
// (with a URL scheme) are skipped: CI must not depend on the network.
// Lines inside fenced code blocks are not prose and are skipped too —
// Go expressions like handlers[name](args) would otherwise match the
// link pattern.
func checkLinks(repoRoot, file, md string) ([]Issue, error) {
	var issues []Issue
	dir := filepath.Dir(file)
	inFence := false
	for i, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, anchor, _ := strings.Cut(target, "#")
			resolved := file
			if path != "" {
				resolved = filepath.Join(dir, path)
				if _, err := os.Stat(filepath.Join(repoRoot, resolved)); err != nil {
					issues = append(issues, Issue{file, i + 1, fmt.Sprintf("broken link %q: %s does not exist", target, resolved)})
					continue
				}
			}
			if anchor == "" || !strings.HasSuffix(resolved, ".md") {
				continue
			}
			ok, err := hasHeading(filepath.Join(repoRoot, resolved), anchor)
			if err != nil {
				return nil, err
			}
			if !ok {
				issues = append(issues, Issue{file, i + 1, fmt.Sprintf("broken link %q: no heading #%s in %s", target, anchor, resolved)})
			}
		}
	}
	return issues, nil
}

// hasHeading reports whether the markdown file contains a heading whose
// GitHub-style slug equals anchor.
func hasHeading(path, anchor string) (bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "#") {
			continue
		}
		title := strings.TrimLeft(trimmed, "#")
		if slugify(title) == anchor {
			return true, nil
		}
	}
	return false, nil
}

// slugify approximates GitHub's heading-anchor algorithm: lowercase,
// formatting markers dropped, spaces become dashes, everything but
// letters, digits and dashes removed.
func slugify(title string) string {
	title = strings.TrimSpace(strings.ToLower(title))
	var b strings.Builder
	for _, r := range title {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_':
			b.WriteRune(r)
		case (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9'):
			b.WriteRune(r)
		default:
			// dropped: punctuation, backticks, unicode arrows, ...
		}
	}
	return b.String()
}
