package obs

import (
	"fmt"
	"io"
	"time"
)

// SpanRecord is one span of a frozen trace: the tree flattened in
// pre-order, with Depth giving the nesting level (0 = root). Offset is the
// span's start relative to the trace start, so records need no absolute
// timestamps per span.
type SpanRecord struct {
	Name   string        `json:"name"`
	Depth  int           `json:"depth"`
	Offset time.Duration `json:"offset_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// TraceRecord is a completed trace frozen into a compact immutable value:
// what the flight recorder retains after the request is gone. Records are
// never mutated after Freeze, so readers (the /debug/traces handlers, the
// -trace renderer) may share them freely without locks.
type TraceRecord struct {
	ID    string        `json:"id"`
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	// Slow marks a tail-sampled trace (duration over the recorder's
	// threshold at capture time).
	Slow  bool         `json:"slow,omitempty"`
	Spans []SpanRecord `json:"spans"`
}

// Freeze flattens the span tree rooted at s into an immutable TraceRecord.
// The tree must have quiesced (root and descendants ended) — the contract
// every caller already meets, since a trace is frozen only after its
// request or step completed. Freeze allocates — callers keep it off the
// request hot path (the recorder freezes after the root has ended).
func Freeze(s *Span) *TraceRecord {
	if s == nil {
		return nil
	}
	rec := &TraceRecord{
		ID:    s.Root().ID(),
		Name:  s.Name(),
		Start: s.start,
		Dur:   s.Duration(),
		Spans: make([]SpanRecord, 0, s.Count()),
	}
	var walk func(sp *Span, depth int)
	walk = func(sp *Span, depth int) {
		rec.Spans = append(rec.Spans, SpanRecord{
			Name:   sp.name,
			Depth:  depth,
			Offset: sp.start.Sub(s.start),
			Dur:    sp.dur,
			Attrs:  sp.Attrs(),
		})
		for _, c := range sp.Children() {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
	return rec
}

// StageDurations sums the durations of the root's direct children — the
// per-stage breakdown magnet-eval's -trace CHECK line reports against the
// step total.
func (r *TraceRecord) StageDurations() time.Duration {
	if r == nil {
		return 0
	}
	var total time.Duration
	for _, sp := range r.Spans {
		if sp.Depth == 1 {
			total += sp.Dur
		}
	}
	return total
}

// WriteTree renders the record as an indented duration table:
//
//	navigation-step                   12.4ms
//	  session.query                    3.1ms  items=120
//	    query.eval                     3.0ms  results=120
//	      pred.and                     2.9ms  results=120
//
// Durations are right-padded per line; attrs trail as key=value pairs. It
// is the one renderer: a live span tree is frozen first (Freeze), so live
// traces and recorded ones print identically.
func (r *TraceRecord) WriteTree(w io.Writer) {
	if r == nil {
		return
	}
	for _, sp := range r.Spans {
		label := fmt.Sprintf("%*s%s", sp.Depth*2, "", sp.Name)
		line := fmt.Sprintf("%-40s %12s", label, sp.Dur.Round(time.Microsecond))
		for _, a := range sp.Attrs {
			line += "  " + a.Key + "=" + a.Value
		}
		fmt.Fprintln(w, line)
	}
}
