package synopsis

// ActionFilter is the typed exclusion set Suggest consults when the healing
// loop has already tried (and failed with) some actions this episode —
// Figure 3's "excluding fixes already attempted". It replaces the opaque
// `exclude func(Action) bool` of earlier releases: a typed, set-backed
// filter can be pushed down into an index search (the index skips excluded
// exemplars during traversal instead of re-scanning afterwards) and can be
// inspected, sized, and combined, none of which an opaque closure allows.
//
// A nil *ActionFilter excludes nothing, so call sites with no exclusions
// simply pass nil.
type ActionFilter struct {
	exclude map[Action]struct{}
}

// ExcludeActions returns a filter excluding exactly the given actions.
// With no arguments it returns nil — the "exclude nothing" filter — so
// callers can pass ExcludeActions(tried...) unconditionally.
func ExcludeActions(as ...Action) *ActionFilter {
	if len(as) == 0 {
		return nil
	}
	m := make(map[Action]struct{}, len(as))
	for _, a := range as {
		m[a] = struct{}{}
	}
	return &ActionFilter{exclude: m}
}

// Excludes reports whether the filter rejects a. It is nil-safe: a nil
// filter excludes nothing.
func (f *ActionFilter) Excludes(a Action) bool {
	if f == nil {
		return false
	}
	_, ok := f.exclude[a]
	return ok
}

// Len returns the number of excluded actions.
func (f *ActionFilter) Len() int {
	if f == nil {
		return 0
	}
	return len(f.exclude)
}
