// Command kbtool works with portable knowledge-base snapshots (the §5.1
// knowledge base "a practitioner can use"): inspect what a file holds,
// convert legacy positional (v1) files to the schema-carrying v2 format,
// merge many fleets' experience into one file, diff two files, and fetch
// the live knowledge base of a running selfheald daemon over its ops
// plane.
//
//	kbtool inspect kb.json
//	kbtool inspect -symptoms kb.json
//	kbtool convert -targets replicated,auction -o kb2.json old-kb.json
//	kbtool merge -o all.json fleetA.json fleetB.json fleetC.json
//	kbtool compact -max 50000 -radius 0.5 -o small.json all.json
//	kbtool diff fleetA.json fleetB.json
//	kbtool fetch -o live.kb.json http://daemon-host:8701
//	kbtool rank -x "2.5,0.1,3.0" -k 3 kb.json
//	kbtool top http://a:8701 http://b:8702 http://c:8703
//
// Exit status is script-friendly: 0 on success (for diff: the snapshots
// hold identical experience), 1 when diff finds the snapshots differ,
// and 2 on any error (unreadable file, bad flags, unreachable daemon).
//
// See KNOWLEDGE_BASES.md for the file format and the portability rules
// each subcommand relies on.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"selfheal"
	"selfheal/internal/detect"
	"selfheal/internal/synopsis"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "compact":
		err = cmdCompact(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "fetch":
		err = cmdFetch(os.Args[2:])
	case "rank":
		err = cmdRank(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "kbtool: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbtool:", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: kbtool <subcommand> [flags] <file>...

subcommands:
  inspect [-symptoms] <kb.json>            summarize a snapshot
  convert [-targets a,b] [-o out] <kb.json>  rewrite as format v2
  merge -o <out.json> <kb.json>...         fold snapshots into one
  compact -max n [-radius r] [-o out] <kb.json>  shrink to at most n points
  diff <a.json> <b.json>                   compare two snapshots
  fetch [-o out.json] <daemon-url>         pull a live daemon's KB
  rank -x v1,v2,... [-k n] <kb.json>       top-k actions for a symptom
  top [-token t] [-once] <daemon-url>...   live fleet view (/metrics + /events)

convert attaches a symptom-space name table to a positional (v1) file;
-targets must list the writer's target kinds in the order that process
registered them. merge and diff refuse to mix named and unnamed files.
fetch GETs <daemon-url>/kb/snapshot from a selfheald -serve ops plane.

exit status: 0 success (diff: identical), 1 diff found differences,
2 error.
`)
}

// decodeFile reads one snapshot from disk.
func decodeFile(path string) (*synopsis.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := synopsis.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// encodeTo writes a snapshot to path, or stdout when path is empty.
func encodeTo(path string, snap *synopsis.Snapshot) error {
	if path == "" {
		return snap.Encode(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// warnUnnamed prints the portability caveat for positional snapshots.
func warnUnnamed(snap *synopsis.Snapshot, path string) {
	if len(snap.Symptoms) == 0 {
		fmt.Fprintf(os.Stderr, "kbtool: warning: %s carries no symptom name table; "+
			"its vectors are positional and rank fixes correctly only in a process that "+
			"registered target kinds in the writer's order (convert with -targets to fix)\n", path)
	}
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	symptoms := fs.Bool("symptoms", false, "print the full symptom-space name table")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect wants exactly one file")
	}
	path := fs.Arg(0)
	snap, err := decodeFile(path)
	if err != nil {
		return err
	}
	warnUnnamed(snap, path)

	successes, width := 0, 0
	perFix := map[string]int{}
	for _, p := range snap.Points {
		if p.Success {
			successes++
		}
		if len(p.X) > width {
			width = len(p.X)
		}
		perFix[p.Action.String()]++
	}
	fmt.Printf("%s: format v%d, synopsis %q\n", path, snap.Version, snap.Synopsis)
	fmt.Printf(" points: %d (%d successes, %d negatives), widest vector %d dims\n",
		len(snap.Points), successes, len(snap.Points)-successes, width)
	if snap.Seq > 0 {
		fmt.Printf(" kb sequence: %d (writer's publish sequence at capture)\n", snap.Seq)
	}
	fmt.Printf(" symptom space: %d named dimensions\n", len(snap.Symptoms))
	if *symptoms {
		for d, name := range snap.Symptoms {
			fmt.Printf("   [%3d] %s\n", d, name)
		}
	}
	for _, kind := range sortedKeys(snap.Targets) {
		cat := snap.Targets[kind]
		fmt.Printf(" target %q: %d fault kinds (%s)\n", kind, len(cat.FaultKinds), cat.Description)
	}
	for _, action := range sortedKeys(perFix) {
		fmt.Printf("   %4d× %s\n", perFix[action], action)
	}
	return nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	targetList := fs.String("targets", "", "comma-separated target kinds in the writer's registration order")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("convert wants exactly one input file")
	}
	snap, err := decodeFile(fs.Arg(0))
	if err != nil {
		return err
	}

	kinds := splitList(*targetList)
	if len(kinds) == 0 {
		if len(snap.Symptoms) == 0 {
			return fmt.Errorf("%s carries no symptom name table: pass -targets with the writer's target kinds in registration order", fs.Arg(0))
		}
		// Already named: normalize the version and re-encode.
		snap.Version = synopsis.FormatV2
		return encodeTo(*out, snap)
	}

	// Reconstruct the symptom space a process registering these kinds in
	// this order would have built.
	space := detect.NewSymptomSpace()
	catalogs := selfheal.TargetCatalogs()
	targets := make(map[string]selfheal.KBTargetCatalog, len(kinds))
	for _, kind := range kinds {
		names, err := selfheal.TargetMetricNames(selfheal.TargetKind(kind))
		if err != nil {
			return err
		}
		space.Indices(names)
		if cat, ok := catalogs[kind]; ok {
			targets[kind] = cat
		}
	}

	if len(snap.Symptoms) > 0 {
		// Re-coordinate a named file into the reconstructed layout. The
		// file's own recorded catalogs are the writer's metadata and win
		// over this binary's registry; -targets only adds missing kinds.
		for i := range snap.Points {
			snap.Points[i].X = space.Remap(snap.Symptoms, snap.Points[i].X)
		}
		for kind, cat := range snap.Targets {
			targets[kind] = cat
		}
	} else {
		// Positional file: the reconstructed space IS its coordinate
		// system, by the operator's assertion via -targets.
		for i, p := range snap.Points {
			if len(p.X) > space.Dim() {
				return fmt.Errorf("point %d has %d dimensions but targets %q only name %d — wrong kinds or wrong order",
					i, len(p.X), *targetList, space.Dim())
			}
		}
	}
	snap.Version = synopsis.FormatV2
	snap.Symptoms = space.Names()
	if len(targets) > 0 {
		snap.Targets = targets
	}
	return encodeTo(*out, snap)
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return fmt.Errorf("merge wants at least one input file")
	}
	var snaps []*synopsis.Snapshot
	for _, path := range fs.Args() {
		snap, err := decodeFile(path)
		if err != nil {
			return err
		}
		warnUnnamed(snap, path)
		snaps = append(snaps, snap)
	}
	merged, err := synopsis.Merge(snaps...)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "kbtool: merged %d snapshots: %d points, %d named dimensions, %d target kinds\n",
		len(snaps), len(merged.Points), len(merged.Symptoms), len(merged.Targets))
	return encodeTo(*out, merged)
}

// cmdCompact shrinks a snapshot with the same pipeline a live
// knowledge base's bounded-memory mode runs: exact-duplicate collapse,
// near-duplicate merge within -radius, then oldest-first failures-first
// eviction down to -max. The survivors rank identically to replaying
// them fresh, so a compacted file stays a faithful knowledge base.
func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	max := fs.Int("max", 0, "maximum points to keep (required)")
	radius := fs.Float64("radius", 0, "merge near-duplicates within this euclidean distance (0: exact duplicates only)")
	minPer := fs.Int("min-per-action", 1, "never evict below this many successes per distinct action")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("compact wants exactly one input file")
	}
	if *max <= 0 {
		return fmt.Errorf("compact needs -max > 0")
	}
	cfg := synopsis.Compaction{MaxPoints: *max, MergeRadius: *radius, MinPerAction: *minPer}
	if err := cfg.Validate(); err != nil {
		return err
	}
	snap, err := decodeFile(fs.Arg(0))
	if err != nil {
		return err
	}
	kept := synopsis.CompactPoints(snap.Points, cfg, *max)
	fmt.Fprintf(os.Stderr, "kbtool: compacted %d points to %d (max %d, radius %g)\n",
		len(snap.Points), len(kept), *max, *radius)
	snap.Points = kept
	return encodeTo(*out, snap)
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff wants exactly two files")
	}
	a, err := decodeFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := decodeFile(fs.Arg(1))
	if err != nil {
		return err
	}
	if (len(a.Symptoms) > 0) != (len(b.Symptoms) > 0) {
		return fmt.Errorf("cannot diff a named against an unnamed snapshot: convert %s first",
			pick(len(a.Symptoms) == 0, fs.Arg(0), fs.Arg(1)))
	}

	different := false
	report := func(format string, args ...any) {
		different = true
		fmt.Printf(format+"\n", args...)
	}
	if a.Synopsis != b.Synopsis {
		report("synopsis: %q vs %q", a.Synopsis, b.Synopsis)
	}
	diffNames(report, "symptom", a.Symptoms, b.Symptoms)
	diffNames(report, "target", sortedKeys(a.Targets), sortedKeys(b.Targets))

	// Points compare by canonical identity in one shared space, so two
	// files that merely laid out the same named experience differently
	// diff as equal.
	space := detect.NewSymptomSpace()
	ka, kb := a.Keys(space), b.Keys(space)
	onlyA, onlyB := 0, 0
	for k, n := range ka {
		if d := n - kb[k]; d > 0 {
			onlyA += d
		}
	}
	for k, n := range kb {
		if d := n - ka[k]; d > 0 {
			onlyB += d
		}
	}
	if onlyA > 0 || onlyB > 0 {
		report("points: %d only in %s, %d only in %s (%d vs %d total)",
			onlyA, fs.Arg(0), onlyB, fs.Arg(1), len(a.Points), len(b.Points))
	}
	if !different {
		fmt.Printf("snapshots hold identical experience (%d points)\n", len(a.Points))
		return nil
	}
	// Script-friendly contract: differences exit 1 (errors exit 2 via
	// main), so `kbtool diff a b || handle-drift` just works.
	os.Exit(1)
	return nil
}

// cmdFetch pulls a running daemon's knowledge base over its ops plane:
// GET <url>/kb/snapshot, the same bytes selfheald -kb-out would write at
// that instant. The body is decoded (so a broken daemon fails loudly
// here, not at the next load) and re-encoded to -o.
func cmdFetch(args []string) error {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	timeout := fs.Duration("timeout", 30*time.Second, "HTTP timeout")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("fetch wants exactly one daemon URL")
	}
	url := strings.TrimRight(strings.TrimSpace(fs.Arg(0)), "/")
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, "/kb/snapshot") {
		url += "/kb/snapshot"
	}
	client := &http.Client{Timeout: *timeout}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	snap, err := synopsis.Decode(resp.Body)
	if err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	fmt.Fprintf(os.Stderr, "kbtool: fetched %d points (kb seq %d, %d named dimensions, %d target kinds) from %s\n",
		len(snap.Points), snap.Seq, len(snap.Symptoms), len(snap.Targets), url)
	return encodeTo(*out, snap)
}

// cmdRank answers "what would a process holding this knowledge base do
// about this symptom?": the snapshot is replayed into a nearest-neighbor
// learner and its top-k suggestions for the given vector are printed, one
// per line, confidence first. The query rides the same RankK path the
// healing loop uses, index and all.
func cmdRank(args []string) error {
	fs := flag.NewFlagSet("rank", flag.ExitOnError)
	vec := fs.String("x", "", "comma-separated symptom vector (KB-space coordinates)")
	k := fs.Int("k", 3, "number of suggestions (-1 for every candidate)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("rank wants exactly one file")
	}
	if *vec == "" {
		return fmt.Errorf("rank wants -x with a symptom vector")
	}
	var x []float64
	for _, part := range splitList(*vec) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return fmt.Errorf("bad -x coordinate %q: %w", part, err)
		}
		x = append(x, v)
	}
	path := fs.Arg(0)
	snap, err := decodeFile(path)
	if err != nil {
		return err
	}
	warnUnnamed(snap, path)
	syn := synopsis.NewNearestNeighbor()
	if err := snap.Replay(syn, detect.NewSymptomSpace()); err != nil {
		return err
	}
	sugs := syn.RankK(x, *k)
	if len(sugs) == 0 {
		return fmt.Errorf("%s holds no successful experience to rank", path)
	}
	for _, s := range sugs {
		fmt.Printf("%.4f  %s\n", s.Confidence, s.Action)
	}
	return nil
}

// diffNames reports set differences between two name lists.
func diffNames(report func(string, ...any), what string, a, b []string) {
	as, bs := toSet(a), toSet(b)
	var onlyA, onlyB []string
	for _, n := range a {
		if !bs[n] {
			onlyA = append(onlyA, n)
		}
	}
	for _, n := range b {
		if !as[n] {
			onlyB = append(onlyB, n)
		}
	}
	if len(onlyA) > 0 {
		report("%ss only in first: %s", what, strings.Join(onlyA, ", "))
	}
	if len(onlyB) > 0 {
		report("%ss only in second: %s", what, strings.Join(onlyB, ", "))
	}
}

func toSet(names []string) map[string]bool {
	out := make(map[string]bool, len(names))
	for _, n := range names {
		out[n] = true
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func pick(cond bool, a, b string) string {
	if cond {
		return a
	}
	return b
}
